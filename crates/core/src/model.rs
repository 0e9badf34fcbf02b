//! A uniform interface over the graph models used in experiments.

use nonsearch_engine::GraphSource;
use nonsearch_generators::{
    power_law_degree_sequence, BarabasiAlbert, ConfigModel, CooperFrieze, CooperFriezeConfig,
    MergedMori, PowerLawConfig, SeedSequence, SimplificationPolicy, UniformAttachment,
};
use nonsearch_graph::{degree_sequence, UndirectedCsr};
use rand_chacha::ChaCha8Rng;

/// A random-graph model that can be sampled at any size.
///
/// The searcher race ([`search_cell`](crate::search_cell), through a
/// [`ModelSource`]) quantifies over models through this trait;
/// implementations wrap the generators crate with fixed parameters.
pub trait GraphModel {
    /// Human-readable name including parameters, e.g. `mori(p=0.5,m=2)`.
    fn name(&self) -> String;

    /// Samples the unoriented graph on (approximately) `n` vertices.
    ///
    /// # Panics
    ///
    /// Implementations panic on sizes below the model's seed size; the
    /// experiment configs only use valid sizes.
    fn sample_graph(&self, n: usize, rng: &mut ChaCha8Rng) -> UndirectedCsr;

    /// The degree sequence of `sample_graph(n, rng)`, for consumers that
    /// read nothing else.
    ///
    /// The default builds the graph. The attachment models override it
    /// to count degrees from the generator's trace: `sample_graph` draws
    /// from `rng` for the slot shuffle only after the graph is sampled,
    /// and the shuffle moves no slot between vertices, so the counts are
    /// the same from the same stream.
    ///
    /// # Panics
    ///
    /// As [`sample_graph`](GraphModel::sample_graph).
    fn sample_degrees(&self, n: usize, rng: &mut ChaCha8Rng) -> Vec<usize> {
        degree_sequence(&self.sample_graph(n, rng))
    }
}

/// The merged Móri graph `G^{(m)}` of Theorem 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MergedMoriModel {
    /// Mixing parameter `p ∈ [0, 1]`.
    pub p: f64,
    /// Out-degree `m ≥ 1` (1 = plain Móri tree).
    pub m: usize,
}

impl MergedMoriModel {
    fn sample(&self, n: usize, rng: &mut ChaCha8Rng) -> MergedMori {
        MergedMori::sample(n, self.m, self.p, rng).expect("experiment sizes are valid")
    }
}

impl GraphModel for MergedMoriModel {
    fn name(&self) -> String {
        format!("mori(p={},m={})", self.p, self.m)
    }

    fn sample_graph(&self, n: usize, rng: &mut ChaCha8Rng) -> UndirectedCsr {
        shuffled(self.sample(n, rng).undirected(), rng)
    }

    fn sample_degrees(&self, n: usize, rng: &mut ChaCha8Rng) -> Vec<usize> {
        self.sample(n, rng).degrees()
    }
}

/// The Cooper–Frieze model of Theorem 2.
#[derive(Debug, Clone, PartialEq)]
pub struct CooperFriezeModel {
    /// Full parameter set.
    pub config: CooperFriezeConfig,
}

impl CooperFriezeModel {
    /// The balanced single-edge configuration at a given `α`.
    ///
    /// # Panics
    ///
    /// Panics if `alpha ∉ (0, 1]`.
    pub fn balanced(alpha: f64) -> Self {
        CooperFriezeModel {
            config: CooperFriezeConfig::balanced(alpha).expect("alpha in (0,1]"),
        }
    }

    fn sample(&self, n: usize, rng: &mut ChaCha8Rng) -> CooperFrieze {
        CooperFrieze::sample(n, &self.config, rng).expect("experiment sizes are valid")
    }
}

impl GraphModel for CooperFriezeModel {
    fn name(&self) -> String {
        format!(
            "cooper-frieze(a={},b={},g={},d={})",
            self.config.alpha(),
            self.config.beta(),
            self.config.gamma(),
            self.config.delta()
        )
    }

    fn sample_graph(&self, n: usize, rng: &mut ChaCha8Rng) -> UndirectedCsr {
        shuffled(self.sample(n, rng).undirected(), rng)
    }

    fn sample_degrees(&self, n: usize, rng: &mut ChaCha8Rng) -> Vec<usize> {
        self.sample(n, rng).degrees()
    }
}

/// The Barabási–Albert baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BarabasiAlbertModel {
    /// Edges per arriving vertex.
    pub m: usize,
}

impl BarabasiAlbertModel {
    fn sample(&self, n: usize, rng: &mut ChaCha8Rng) -> BarabasiAlbert {
        BarabasiAlbert::sample(n, self.m, rng).expect("experiment sizes are valid")
    }
}

impl GraphModel for BarabasiAlbertModel {
    fn name(&self) -> String {
        format!("barabasi-albert(m={})", self.m)
    }

    fn sample_graph(&self, n: usize, rng: &mut ChaCha8Rng) -> UndirectedCsr {
        shuffled(self.sample(n, rng).undirected(), rng)
    }

    fn sample_degrees(&self, n: usize, rng: &mut ChaCha8Rng) -> Vec<usize> {
        self.sample(n, rng).degrees()
    }
}

/// The uniform-attachment baseline (`p = 0` end of the spectrum).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UniformAttachmentModel {
    /// Edges per arriving vertex.
    pub m: usize,
}

impl UniformAttachmentModel {
    fn sample(&self, n: usize, rng: &mut ChaCha8Rng) -> UniformAttachment {
        UniformAttachment::sample(n, self.m, rng).expect("experiment sizes are valid")
    }
}

impl GraphModel for UniformAttachmentModel {
    fn name(&self) -> String {
        format!("uniform-attachment(m={})", self.m)
    }

    fn sample_graph(&self, n: usize, rng: &mut ChaCha8Rng) -> UndirectedCsr {
        shuffled(self.sample(n, rng).undirected(), rng)
    }

    fn sample_degrees(&self, n: usize, rng: &mut ChaCha8Rng) -> Vec<usize> {
        self.sample(n, rng).degrees()
    }
}

/// `graph` with every vertex's slots shuffled by the stream's next
/// draws, the last ones a model takes.
fn shuffled(mut graph: UndirectedCsr, rng: &mut ChaCha8Rng) -> UndirectedCsr {
    graph.shuffle_slots(rng);
    graph
}

/// The giant component of a Molloy–Reed power-law graph — the "pure
/// random graph" substrate of Adamic et al. Note the returned graph has
/// fewer than `n` vertices (the giant's size); experiment code reads the
/// actual `node_count()`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerLawGiantModel {
    /// Degree exponent `k > 1` (real networks: `k ∈ (2, 3)`).
    pub exponent: f64,
    /// Minimum degree.
    pub d_min: usize,
}

impl GraphModel for PowerLawGiantModel {
    fn name(&self) -> String {
        format!("power-law-giant(k={},dmin={})", self.exponent, self.d_min)
    }

    fn sample_graph(&self, n: usize, rng: &mut ChaCha8Rng) -> UndirectedCsr {
        let cfg = PowerLawConfig::new(self.exponent, self.d_min)
            .expect("exponent is validated by construction");
        let degrees = power_law_degree_sequence(n, &cfg, rng).expect("valid power-law config");
        let graph = ConfigModel::sample(&degrees, SimplificationPolicy::Multigraph, rng)
            .expect("even stub sum by construction");
        let (giant, _) = graph.graph().giant_component();
        shuffled(giant, rng)
    }
}

/// The generate-per-trial [`GraphSource`]: wraps a [`GraphModel`] and
/// samples a fresh graph for every trial from the trial's own RNG
/// stream (`trial_seeds.child_rng(0)` — the workspace convention, which
/// leaves child indices `1..` for searcher streams).
///
/// This is the default supply for every experiment; the corpus-backed
/// alternative lives in `nonsearch_corpus`. A corpus built with the
/// same model, seed, and sizes serves **bit-identical** graphs, which
/// is what lets `xp <experiment> --corpus DIR` reproduce the
/// generate-per-trial numbers exactly.
pub struct ModelSource<'a, M: ?Sized> {
    model: &'a M,
}

impl<'a, M: GraphModel + Sync + ?Sized> ModelSource<'a, M> {
    /// Wraps `model` as a trial-graph source.
    pub fn new(model: &'a M) -> ModelSource<'a, M> {
        ModelSource { model }
    }
}

impl<M: GraphModel + Sync + ?Sized> GraphSource for ModelSource<'_, M> {
    fn trial_graph(
        &self,
        n: usize,
        _trial: usize,
        seeds: &SeedSequence,
    ) -> std::sync::Arc<UndirectedCsr> {
        let mut rng = seeds.child_rng(0);
        std::sync::Arc::new(self.model.sample_graph(n, &mut rng))
    }

    fn trial_degrees(&self, n: usize, _trial: usize, seeds: &SeedSequence) -> Vec<usize> {
        self.model.sample_degrees(n, &mut seeds.child_rng(0))
    }

    fn describe(&self) -> String {
        format!("generate:{}", self.model.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nonsearch_generators::rng_from_seed;
    use nonsearch_graph::is_connected;

    #[test]
    fn all_models_sample_connected_graphs() {
        let models: Vec<Box<dyn GraphModel>> = vec![
            Box::new(MergedMoriModel { p: 0.5, m: 1 }),
            Box::new(MergedMoriModel { p: 0.5, m: 3 }),
            Box::new(CooperFriezeModel::balanced(0.7)),
            Box::new(BarabasiAlbertModel { m: 2 }),
            Box::new(UniformAttachmentModel { m: 2 }),
            Box::new(PowerLawGiantModel {
                exponent: 2.5,
                d_min: 1,
            }),
        ];
        for model in &models {
            let g = model.sample_graph(200, &mut rng_from_seed(1));
            assert!(is_connected(&g), "{} disconnected", model.name());
            assert!(g.node_count() > 50, "{} too small", model.name());
        }
    }

    #[test]
    fn names_include_parameters() {
        assert_eq!(MergedMoriModel { p: 0.5, m: 2 }.name(), "mori(p=0.5,m=2)");
        assert!(CooperFriezeModel::balanced(0.8).name().contains("a=0.8"));
        assert!(PowerLawGiantModel {
            exponent: 2.3,
            d_min: 1
        }
        .name()
        .contains("k=2.3"));
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let model = MergedMoriModel { p: 0.4, m: 2 };
        let a = model.sample_graph(100, &mut rng_from_seed(9));
        let b = model.sample_graph(100, &mut rng_from_seed(9));
        assert_eq!(a, b);
    }

    #[test]
    fn giant_component_is_most_of_the_graph_for_small_k() {
        let model = PowerLawGiantModel {
            exponent: 2.2,
            d_min: 1,
        };
        let g = model.sample_graph(2000, &mut rng_from_seed(3));
        assert!(g.node_count() > 1000, "giant = {}", g.node_count());
    }
}
