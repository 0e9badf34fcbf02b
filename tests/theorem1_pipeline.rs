//! End-to-end integration: the full Theorem 1 pipeline — generate,
//! search, bound, the searcher race — across crate boundaries.

use nonsearch::core::{
    hub_to_newest, lemma1_lower_bound, mori_event_probability_exact, search_cell,
    theorem1_weak_bound, EquivalenceWindow, GraphModel, MergedMoriModel, ModelSource,
    ScalingSeries,
};
use nonsearch::engine::Tracer;
use nonsearch::generators::{rng_from_seed, MergedMori, MoriTree, SeedSequence};
use nonsearch::graph::{NodeId, UndirectedCsr};
use nonsearch::search::{
    run_weak, run_weak_in, SearchScratch, SearchTask, SearcherKind, SuccessCriterion,
};
use std::collections::HashSet;

#[test]
fn lower_bound_never_exceeds_any_measured_searcher() {
    // A correct lower bound must sit below every algorithm's measured
    // expectation. Average over trials for stability.
    let n = 2048;
    let p = 0.5;
    let bound = theorem1_weak_bound(n, p).unwrap();
    let trials = 8;
    for kind in SearcherKind::all() {
        let mut total = 0usize;
        for t in 0..trials {
            let mut rng = rng_from_seed(1000 + t);
            let tree = MoriTree::sample(n, p, &mut rng).unwrap();
            let graph = tree.undirected();
            let task =
                SearchTask::new(NodeId::from_label(1), NodeId::from_label(n)).with_budget(100 * n);
            let mut searcher = kind.build();
            let outcome = run_weak(&graph, &task, &mut *searcher, &mut rng).unwrap();
            assert!(outcome.found, "{kind} failed on a tree with huge budget");
            total += outcome.requests;
        }
        let mean = total as f64 / trials as f64;
        assert!(
            mean >= bound,
            "{kind}: n={n}: mean {mean:.1} below bound {bound:.1}"
        );
    }
}

#[test]
fn theorem1_holds_for_merged_graphs_too() {
    let n = 1024;
    let (p, m) = (0.4, 3);
    let bound = theorem1_weak_bound(n, p).unwrap();
    let mut rng = rng_from_seed(5);
    let mut total = 0usize;
    let trials = 6;
    for _ in 0..trials {
        let mori = MergedMori::sample(n, m, p, &mut rng).unwrap();
        let graph = mori.undirected();
        let task =
            SearchTask::new(NodeId::from_label(1), NodeId::from_label(n)).with_budget(100 * n * m);
        let mut searcher = SearcherKind::HighDegree.build();
        let outcome = run_weak(&graph, &task, &mut *searcher, &mut rng).unwrap();
        assert!(outcome.found);
        total += outcome.requests;
    }
    let mean = total as f64 / trials as f64;
    assert!(
        mean >= bound,
        "merged Móri m={m}: mean {mean} below bound {bound}"
    );
}

#[test]
fn certification_exponent_respects_the_theory() {
    // Small sweep; the best exponent should not sit meaningfully below
    // the theoretical 1/2 (sampling noise tolerance 0.12).
    let model = MergedMoriModel { p: 0.5, m: 1 };
    let sizes = [256, 512, 1024, 2048];
    let seeds = SeedSequence::new(99);
    let sweep: Vec<_> = sizes
        .iter()
        .enumerate()
        .map(|(i, &n)| {
            search_cell(
                &ModelSource::new(&model),
                n,
                10,
                0,
                &seeds.subsequence(i as u64),
                SearcherKind::informed(),
                SearcherKind::build,
                run_weak_in,
                |graph, _| hub_to_newest(graph, 100),
                &Tracer::disabled(),
            )
        })
        .collect();
    let series = ScalingSeries::of_sweep(&sizes, &sweep);
    let best = series
        .best_lane()
        .and_then(|lane| series.exponent(lane))
        .expect("fit exists");
    assert!(
        best > 0.5 - 0.12,
        "best exponent {best} violates the Ω(n^0.5) claim"
    );
}

#[test]
fn window_probability_and_lemma1_compose() {
    let n = 4096;
    let p = 0.7;
    let window = EquivalenceWindow::for_target(n);
    let prob = mori_event_probability_exact(window.a(), window.b(), p).unwrap();
    let via_lemma = lemma1_lower_bound(window.len(), prob);
    let packaged = theorem1_weak_bound(n, p).unwrap();
    assert!((via_lemma - packaged).abs() < 1e-12);
}

#[test]
fn neighbor_criterion_is_never_harder() {
    let n = 1024;
    let mut rng = rng_from_seed(17);
    let tree = MoriTree::sample(n, 0.5, &mut rng).unwrap();
    let graph = tree.undirected();
    for kind in [SearcherKind::BfsFlood, SearcherKind::HighDegree] {
        let base =
            SearchTask::new(NodeId::from_label(1), NodeId::from_label(n)).with_budget(100 * n);
        let mut a = kind.build();
        let strict = run_weak(&graph, &base, &mut *a, &mut rng).unwrap();
        let relaxed_task = base.with_criterion(SuccessCriterion::ReachNeighbor);
        let mut b = kind.build();
        let relaxed = run_weak(&graph, &relaxed_task, &mut *b, &mut rng).unwrap();
        assert!(relaxed.requests <= strict.requests, "{kind}");
    }
}

/// The number of distinct leaves among `hub`'s slots, in slot order, up
/// to and including the first slot that leads to `target`.
fn leaves_until(graph: &UndirectedCsr, hub: NodeId, target: NodeId) -> usize {
    let mut leaves = HashSet::new();
    for &(w, _) in graph.incident(hub) {
        if w != hub {
            leaves.insert(w);
        }
        if w == target {
            return leaves.len();
        }
    }
    panic!("{target:?} is not adjacent to the hub");
}

#[test]
fn p_one_graphs_are_stars_with_an_exact_request_count() {
    // At p = 1 every Móri vertex attaches to vertex 1, so the merged
    // graph is a star (m = 1) or a star with parallel edges and hub
    // loops (m = 3). From the hub every informed lane requests the
    // hub's slots in order, one per new leaf, and stops at the target:
    // exactly K requests. The avoiding walk steps back from each leaf
    // to the hub, one more request per leaf before the target: 2K − 1.
    let mut scratch = SearchScratch::new();
    for m in [1, 3] {
        let model = MergedMoriModel { p: 1.0, m };
        for n in [64, 512, 4096, 16384] {
            for trial in 0..3 {
                let mut rng = rng_from_seed(1_000 * n as u64 + 10 * m as u64 + trial);
                let graph = model.sample_graph(n, &mut rng);
                let (hub, target) = (NodeId::from_label(1), NodeId::from_label(n));
                let k = leaves_until(&graph, hub, target);
                let task = SearchTask::new(hub, target).with_budget(30 * n);
                for kind in SearcherKind::informed() {
                    let mut searcher = kind.build();
                    let outcome =
                        run_weak_in(&mut scratch, &graph, &task, &mut *searcher, &mut rng).unwrap();
                    let want = match kind {
                        SearcherKind::AvoidingWalk => 2 * k - 1,
                        _ => k,
                    };
                    assert!(outcome.found, "{kind}, n = {n}, m = {m}");
                    assert_eq!(outcome.requests, want, "{kind}, n = {n}, m = {m}, K = {k}");
                }
            }
        }
    }
}
