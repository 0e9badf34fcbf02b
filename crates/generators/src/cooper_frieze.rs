//! The Cooper–Frieze general model of web graphs, rephrased with indegree.
//!
//! Paper, §1: *"at each time step, one randomly chooses whether to apply
//! procedure New (with probability α) or procedure Old (with probability
//! 1−α); procedure New will add a new vertex and a random number (governed
//! by distribution q) of outgoing edges, while procedure Old will add a
//! random number (governed by distribution p) of new outgoing edges to a
//! randomly selected existing vertex. Parameters β, γ and δ control
//! probabilities that additional choices of vertices and endpoints are
//! done preferentially or uniformly."*
//!
//! As in the paper, preferential choices of edge *terminals* are
//! proportional to **indegree** (mixed with a uniform component), which
//! keeps the process well-defined from the two-vertex seed onward.

use crate::error::check_probability;
use crate::{
    AttachmentKind, AttachmentRecord, AttachmentTrace, DiscreteDistribution, GeneratorError, Result,
};
use nonsearch_graph::{NodeId, UndirectedCsr};
use rand::Rng;

/// Which procedure a time step applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StepKind {
    /// Procedure New: a vertex plus `j ~ q` out-edges were added.
    New,
    /// Procedure Old: `j ~ p` out-edges were added to an existing vertex.
    Old,
}

/// Parameters of the Cooper–Frieze process.
///
/// | field | paper role |
/// |-------|-----------|
/// | `alpha` | probability of procedure **New** (`0 < α ≤ 1`) |
/// | `beta`  | New-step terminals: preferential w.p. `β`, uniform otherwise |
/// | `gamma` | Old-step terminals: preferential w.p. `γ`, uniform otherwise |
/// | `delta` | Old-step initial vertex: uniform w.p. `δ`, else ∝ out-degree + 1 |
/// | `new_edges` | distribution `q` of out-edges per New step |
/// | `old_edges` | distribution `p` of out-edges per Old step |
///
/// Terminal choices mix an indegree-proportional component with a uniform
/// component exactly as in the rephrased Móri model, so `β = γ = 1` is
/// pure preferential attachment and `β = γ = 0` pure uniform.
#[derive(Debug, Clone, PartialEq)]
pub struct CooperFriezeConfig {
    alpha: f64,
    beta: f64,
    gamma: f64,
    delta: f64,
    new_edges: DiscreteDistribution,
    old_edges: DiscreteDistribution,
}

impl CooperFriezeConfig {
    /// Builds a validated configuration.
    ///
    /// # Errors
    ///
    /// Returns [`GeneratorError::InvalidParameter`] if any probability is
    /// outside `[0, 1]` or `alpha == 0` (the process would never grow).
    pub fn new(
        alpha: f64,
        beta: f64,
        gamma: f64,
        delta: f64,
        new_edges: DiscreteDistribution,
        old_edges: DiscreteDistribution,
    ) -> Result<Self> {
        check_probability("alpha", alpha)?;
        check_probability("beta", beta)?;
        check_probability("gamma", gamma)?;
        check_probability("delta", delta)?;
        if alpha == 0.0 {
            return Err(GeneratorError::invalid(
                "alpha",
                0.0,
                "a probability in (0, 1]",
            ));
        }
        Ok(CooperFriezeConfig {
            alpha,
            beta,
            gamma,
            delta,
            new_edges,
            old_edges,
        })
    }

    /// A balanced configuration commonly used in experiments: terminals
    /// are an even preferential/uniform mix, single edges per step.
    ///
    /// # Errors
    ///
    /// Returns [`GeneratorError::InvalidParameter`] if `alpha ∉ (0, 1]`.
    pub fn balanced(alpha: f64) -> Result<Self> {
        CooperFriezeConfig::new(
            alpha,
            0.5,
            0.5,
            0.5,
            DiscreteDistribution::constant(1).expect("1 is positive"),
            DiscreteDistribution::constant(1).expect("1 is positive"),
        )
    }

    /// Probability of procedure New.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// New-step terminal preferential probability.
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// Old-step terminal preferential probability.
    pub fn gamma(&self) -> f64 {
        self.gamma
    }

    /// Old-step initial-vertex uniform probability.
    pub fn delta(&self) -> f64 {
        self.delta
    }
}

/// A sampled Cooper–Frieze graph with construction provenance.
///
/// The process starts from the seed `{1, 2}` with edge `2 → 1` and runs
/// until `n` vertices exist. Every New vertex sends at least one edge to
/// the existing graph, so the sample is connected by construction — a
/// requirement the paper imposes "since we want our searching processes
/// to be able to terminate with probability 1".
///
/// The trace is the graph's only edge store, and it doubles as both
/// preferential urns: its father column holds one ticket per unit of
/// indegree, its child column one per unit of out-degree.
#[derive(Debug, Clone)]
pub struct CooperFrieze {
    trace: AttachmentTrace,
    n: usize,
    steps: Vec<StepKind>,
}

impl CooperFrieze {
    /// Samples a Cooper–Frieze graph with `n ≥ 2` vertices.
    ///
    /// # Errors
    ///
    /// Returns [`GeneratorError::TooSmall`] if `n < 2`.
    pub fn sample<R: Rng + ?Sized>(
        n: usize,
        config: &CooperFriezeConfig,
        rng: &mut R,
    ) -> Result<CooperFrieze> {
        if n < 2 {
            return Err(GeneratorError::TooSmall {
                requested: n,
                minimum: 2,
            });
        }
        let mut trace = AttachmentTrace::with_capacity(2 * n);
        let mut steps = Vec::new();

        trace.push(AttachmentRecord {
            child: NodeId::from_label(2),
            father: NodeId::from_label(1),
            kind: AttachmentKind::Seed,
        });
        let mut existing = 2;

        while existing < n {
            if rng.gen::<f64>() < config.alpha {
                steps.push(StepKind::New);
                let child = NodeId::new(existing);
                let j = config.new_edges.sample(rng);
                for _ in 0..j {
                    let (father, kind) = Self::choose_terminal(config.beta, existing, &trace, rng);
                    trace.push(AttachmentRecord {
                        child,
                        father,
                        kind,
                    });
                }
                existing += 1;
            } else {
                steps.push(StepKind::Old);
                // Initial vertex: uniform w.p. δ, else ∝ out-degree + 1
                // (mixture of a uniformly drawn record's child, one ticket
                // per unit of out-degree, and a uniform draw).
                let source = if rng.gen::<f64>() < config.delta {
                    NodeId::new(rng.gen_range(0..existing))
                } else {
                    let pref_mass = trace.len() as f64;
                    let unif_mass = existing as f64;
                    if rng.gen::<f64>() < pref_mass / (pref_mass + unif_mass) {
                        trace.records()[rng.gen_range(0..trace.len())].child
                    } else {
                        NodeId::new(rng.gen_range(0..existing))
                    }
                };
                let j = config.old_edges.sample(rng);
                for _ in 0..j {
                    let (father, kind) = Self::choose_terminal(config.gamma, existing, &trace, rng);
                    trace.push(AttachmentRecord {
                        child: source,
                        father,
                        kind,
                    });
                }
            }
        }

        Ok(CooperFrieze { trace, n, steps })
    }

    /// Terminal choice: indegree-preferential w.p. `pref_prob`, uniform
    /// over the `candidates` oldest vertices otherwise. The preferential
    /// branch is the exact `∝ d(u)` draw: the father of a uniformly drawn
    /// record of `trace`.
    fn choose_terminal<R: Rng + ?Sized>(
        pref_prob: f64,
        candidates: usize,
        trace: &AttachmentTrace,
        rng: &mut R,
    ) -> (NodeId, AttachmentKind) {
        debug_assert!(!trace.is_empty(), "seed guarantees indegree mass");
        if rng.gen::<f64>() < pref_prob {
            let v = trace.records()[rng.gen_range(0..trace.len())].father;
            (v, AttachmentKind::Preferential)
        } else {
            (
                NodeId::new(rng.gen_range(0..candidates)),
                AttachmentKind::Uniform,
            )
        }
    }

    /// The per-edge attachment history (edges point newer → chosen
    /// terminal for New steps; source → terminal for Old steps).
    pub fn trace(&self) -> &AttachmentTrace {
        &self.trace
    }

    /// The sequence of procedures applied, in time order.
    pub fn steps(&self) -> &[StepKind] {
        &self.steps
    }

    /// Number of New steps taken (always `node_count − 2`).
    pub fn new_step_count(&self) -> usize {
        self.steps.iter().filter(|s| **s == StepKind::New).count()
    }

    /// Builds the unoriented view searching takes place in.
    pub fn undirected(&self) -> UndirectedCsr {
        UndirectedCsr::from_edges(self.n, self.trace.edges())
            .expect("terminals are existing vertices")
    }

    /// The degree sequence of [`CooperFrieze::undirected`], counted from
    /// the trace without building the graph (a self-loop counts twice).
    pub fn degrees(&self) -> Vec<usize> {
        self.trace.degrees(self.n, 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng_from_seed;
    use nonsearch_graph::is_connected;

    #[test]
    fn reaches_exact_vertex_count_and_is_connected() {
        let mut rng = rng_from_seed(1);
        let cfg = CooperFriezeConfig::balanced(0.6).unwrap();
        let g = CooperFrieze::sample(300, &cfg, &mut rng)
            .unwrap()
            .undirected();
        assert_eq!(g.node_count(), 300);
        assert!(is_connected(&g));
    }

    #[test]
    fn new_steps_equal_added_vertices() {
        let mut rng = rng_from_seed(2);
        let cfg = CooperFriezeConfig::balanced(0.5).unwrap();
        let g = CooperFrieze::sample(100, &cfg, &mut rng).unwrap();
        assert_eq!(g.new_step_count(), 98); // seed provides 2 vertices
    }

    #[test]
    fn alpha_one_with_single_edges_is_a_tree() {
        let mut rng = rng_from_seed(3);
        let cfg = CooperFriezeConfig::new(
            1.0,
            0.5,
            0.5,
            0.5,
            DiscreteDistribution::constant(1).unwrap(),
            DiscreteDistribution::constant(1).unwrap(),
        )
        .unwrap();
        let g = CooperFrieze::sample(80, &cfg, &mut rng).unwrap();
        assert_eq!(g.trace().len(), 79);
        assert!(g.steps().iter().all(|s| *s == StepKind::New));
    }

    #[test]
    fn old_steps_add_edges_but_not_vertices() {
        let mut rng = rng_from_seed(4);
        let cfg = CooperFriezeConfig::balanced(0.3).unwrap();
        let g = CooperFrieze::sample(100, &cfg, &mut rng).unwrap();
        let old_steps = g.steps().len() - g.new_step_count();
        assert!(old_steps > 0, "α = 0.3 should produce Old steps");
        // Seed edge + one edge per step (constant-1 distributions).
        let und = g.undirected();
        assert_eq!(und.edge_count(), 1 + g.steps().len());
        assert_eq!(und.node_count(), 100);
    }

    #[test]
    fn multi_edge_steps_respect_distribution_bounds() {
        let mut rng = rng_from_seed(5);
        let cfg = CooperFriezeConfig::new(
            0.7,
            0.5,
            0.5,
            0.5,
            DiscreteDistribution::new(vec![0.5, 0.5]).unwrap(), // 1 or 2 edges
            DiscreteDistribution::constant(3).unwrap(),
        )
        .unwrap();
        let g = CooperFrieze::sample(200, &cfg, &mut rng).unwrap();
        let new_steps = g.new_step_count();
        let old_steps = g.steps().len() - new_steps;
        let edges = g.undirected().edge_count();
        assert!(edges >= 1 + new_steps + 3 * old_steps);
        assert!(edges <= 1 + 2 * new_steps + 3 * old_steps);
    }

    #[test]
    fn pure_preferential_concentrates_indegree() {
        // β = γ = 1 from the seed: vertex 1 is the only vertex with
        // positive indegree, so (as in Móri p = 1) it absorbs everything.
        let mut rng = rng_from_seed(6);
        let cfg = CooperFriezeConfig::new(
            1.0,
            1.0,
            1.0,
            0.5,
            DiscreteDistribution::constant(1).unwrap(),
            DiscreteDistribution::constant(1).unwrap(),
        )
        .unwrap();
        let g = CooperFrieze::sample(50, &cfg, &mut rng).unwrap();
        let hub = NodeId::from_label(1);
        assert_eq!(g.trace().iter().filter(|r| r.father == hub).count(), 49);
    }

    #[test]
    fn determinism_per_seed() {
        let cfg = CooperFriezeConfig::balanced(0.5).unwrap();
        let a = CooperFrieze::sample(60, &cfg, &mut rng_from_seed(7)).unwrap();
        let b = CooperFrieze::sample(60, &cfg, &mut rng_from_seed(7)).unwrap();
        assert_eq!(a.undirected(), b.undirected());
        assert_eq!(a.trace(), b.trace());
        assert_eq!(a.steps(), b.steps());
    }

    #[test]
    fn config_validation() {
        let one = DiscreteDistribution::constant(1).unwrap();
        assert!(CooperFriezeConfig::new(0.0, 0.5, 0.5, 0.5, one.clone(), one.clone()).is_err());
        assert!(CooperFriezeConfig::new(0.5, 1.5, 0.5, 0.5, one.clone(), one.clone()).is_err());
        assert!(CooperFriezeConfig::new(0.5, 0.5, -0.1, 0.5, one.clone(), one.clone()).is_err());
        assert!(CooperFriezeConfig::new(0.5, 0.5, 0.5, 2.0, one.clone(), one).is_err());
        assert!(CooperFriezeConfig::balanced(0.5).is_ok());
    }

    #[test]
    fn sample_too_small_rejected() {
        let cfg = CooperFriezeConfig::balanced(0.5).unwrap();
        assert!(CooperFrieze::sample(1, &cfg, &mut rng_from_seed(8)).is_err());
    }

    #[test]
    fn trace_records_every_edge() {
        let mut rng = rng_from_seed(9);
        let cfg = CooperFriezeConfig::balanced(0.4).unwrap();
        let g = CooperFrieze::sample(120, &cfg, &mut rng).unwrap();
        assert_eq!(g.trace().len(), g.undirected().edge_count());
    }
}
