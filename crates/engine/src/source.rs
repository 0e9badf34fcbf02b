//! Where a trial's graph comes from: generated on the fly, or served
//! from a persistent corpus.
//!
//! Every Monte-Carlo cell in this workspace consumes one sampled graph
//! per trial. Historically that always meant *generate-per-trial*:
//! derive the trial's RNG stream and run a generator. [`GraphSource`]
//! abstracts the supply so the same experiment code can instead be
//! *corpus-backed* — trials are assigned stored, pre-generated graphs
//! round-robin — which amortizes generation across every experiment
//! that shares the ensemble (see the `nonsearch_corpus` crate).
//!
//! Graphs are handed out as `Arc<UndirectedCsr>`: a generate-backed
//! source allocates per trial, while a corpus-backed source shares one
//! cached instance across every trial (and thread) that reads it.

use nonsearch_generators::SeedSequence;
use nonsearch_graph::{degree_sequence, UndirectedCsr};
use std::sync::Arc;

/// Supplies the graph for each trial of a cell.
///
/// Implementations must be deterministic: the same `(n, trial, seeds)`
/// arguments always produce the same graph, so cell aggregates stay
/// bit-identical for any worker count.
pub trait GraphSource: Sync {
    /// The graph for `trial` of a cell at size `n`.
    ///
    /// `seeds` is the trial's own seed sequence (see
    /// [`trial_seeds`](crate::trial_seeds)). Generate-backed sources
    /// draw the graph from `seeds.child_rng(0)` — the workspace-wide
    /// convention, which keeps child indices `1..` free for searcher
    /// streams — while corpus-backed sources ignore `seeds` and map
    /// `trial` onto their stored ensemble.
    fn trial_graph(&self, n: usize, trial: usize, seeds: &SeedSequence) -> Arc<UndirectedCsr>;

    /// The degree sequence of [`trial_graph`](GraphSource::trial_graph)
    /// for the same arguments, for consumers that read nothing else.
    ///
    /// The default reads it off the trial graph, which is what a stored
    /// graph does. A generate-backed source may override it to count
    /// degrees while generating, skipping the CSR build and the slot
    /// shuffle; it must return exactly `degree_sequence(&trial_graph(..))`.
    fn trial_degrees(&self, n: usize, trial: usize, seeds: &SeedSequence) -> Vec<usize> {
        degree_sequence(&self.trial_graph(n, trial, seeds))
    }

    /// Human-readable description for banners and run records, e.g.
    /// `generate:mori(p=0.6,m=1)` or `corpus:/path/to/dir`.
    fn describe(&self) -> String;

    /// Whether trial graphs come from persistent storage rather than a
    /// generator. Phase timers use this to attribute graph-fetch time
    /// to the `load` phase (corpus-backed) instead of `generate`;
    /// nothing deterministic may depend on it. Defaults to `false`.
    fn is_stored(&self) -> bool {
        false
    }
}

impl<S: GraphSource + ?Sized> GraphSource for &S {
    fn trial_graph(&self, n: usize, trial: usize, seeds: &SeedSequence) -> Arc<UndirectedCsr> {
        (**self).trial_graph(n, trial, seeds)
    }

    fn trial_degrees(&self, n: usize, trial: usize, seeds: &SeedSequence) -> Vec<usize> {
        (**self).trial_degrees(n, trial, seeds)
    }

    fn describe(&self) -> String {
        (**self).describe()
    }

    fn is_stored(&self) -> bool {
        (**self).is_stored()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The path on `n` vertices, whatever the trial.
    struct PathSource;

    impl GraphSource for PathSource {
        fn trial_graph(&self, n: usize, _: usize, _: &SeedSequence) -> Arc<UndirectedCsr> {
            Arc::new(UndirectedCsr::from_edges(n, (1..n).map(|i| (i - 1, i))).expect("valid path"))
        }

        fn describe(&self) -> String {
            "generate:path".to_string()
        }
    }

    #[test]
    fn references_forward() {
        let src = PathSource;
        let by_ref: &dyn GraphSource = &src;
        let seeds = SeedSequence::new(2);
        assert_eq!(by_ref.trial_graph(3, 1, &seeds).node_count(), 3);
        assert_eq!((&by_ref).trial_degrees(3, 1, &seeds), vec![1, 2, 1]);
        assert_eq!((&by_ref).describe(), "generate:path");
    }
}
