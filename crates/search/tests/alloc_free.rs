//! Proves the view/frontier hot path is allocation-free in steady
//! state: once a `SearchScratch` and a pooled searcher have served one
//! trial on a graph size, further trials on that size perform **zero**
//! heap allocations.
//!
//! The shared counting global allocator (`nonsearch_alloc_counter`,
//! also installed by the `xp` binary, whose perf records report the
//! `allocations` of every trial body) makes the claim checkable rather
//! than aspirational.
//! The counter is per-thread (concurrent libtest threads cannot
//! pollute a measurement window), so everything lives in one `#[test]`
//! purely to keep the warm-up → steady-state sequencing explicit.

use nonsearch_alloc_counter::{allocations, CountingAllocator};
use nonsearch_generators::{rng_from_seed, MergedMori};
use nonsearch_graph::NodeId;
use nonsearch_search::{
    percolation_search_in, run_strong_in, run_weak_in, PercolationConfig, PercolationScratch,
    SearchScratch, SearchTask, SearcherKind, StrongBfs, StrongGreedyId, StrongHighDegree,
    StrongSearcher,
};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// One of each native strong-model searcher.
fn strong_searchers() -> [Box<dyn StrongSearcher>; 3] {
    [
        Box::new(StrongBfs::new()),
        Box::new(StrongHighDegree::new()),
        Box::new(StrongGreedyId::new()),
    ]
}

#[test]
fn steady_state_trials_allocate_nothing() {
    let n = 512;
    let graph = MergedMori::sample(n, 2, 0.5, &mut rng_from_seed(3))
        .unwrap()
        .undirected();
    let task = SearchTask::new(NodeId::from_label(1), NodeId::from_label(n)).with_budget(50 * n);

    let mut scratch = SearchScratch::new();

    // Every searcher in the suite. (Walk searchers draw from the RNG;
    // the vendored ChaCha is alloc-free too.)
    for kind in SearcherKind::all() {
        let mut searcher = kind.build();
        // Warm-up trial: arrays grow to the graph size, heaps/queues
        // reach their high-water marks.
        let mut rng = rng_from_seed(11);
        let warm = run_weak_in(&mut scratch, &graph, &task, &mut *searcher, &mut rng).unwrap();
        assert!(warm.found, "{kind}");

        // Steady state: bit-identical outcome, zero allocations.
        let mut rng = rng_from_seed(11);
        let before = allocations();
        let steady = run_weak_in(&mut scratch, &graph, &task, &mut *searcher, &mut rng).unwrap();
        let allocated = allocations() - before;
        assert_eq!(steady, warm, "{kind}: scratch reuse changed the outcome");
        assert_eq!(
            allocated, 0,
            "{kind}: steady-state trial performed {allocated} heap allocations"
        );
    }

    // The strong oracle's expansion/answer buffers are pooled too.
    for mut strong in strong_searchers() {
        let name = strong.name();
        let mut rng = rng_from_seed(13);
        let warm = run_strong_in(&mut scratch, &graph, &task, &mut *strong, &mut rng).unwrap();
        let mut rng = rng_from_seed(13);
        let before = allocations();
        let steady = run_strong_in(&mut scratch, &graph, &task, &mut *strong, &mut rng).unwrap();
        let allocated = allocations() - before;
        assert_eq!(steady, warm, "{name}");
        assert_eq!(
            allocated, 0,
            "{name}: steady-state trial performed {allocated} heap allocations"
        );
    }
}

#[test]
fn steady_state_percolation_allocates_nothing() {
    let n = 512;
    let graph = MergedMori::sample(n, 2, 0.5, &mut rng_from_seed(3))
        .unwrap()
        .undirected();
    let config = PercolationConfig {
        replication_walk: 20,
        query_walk: 10,
        edge_probability: 0.5,
    };
    let (owner, requester) = (NodeId::from_label(n), NodeId::from_label(1));
    let mut scratch = PercolationScratch::new();
    let mut run = |seed| {
        let mut rng = rng_from_seed(seed);
        let before = allocations();
        let outcome =
            percolation_search_in(&mut scratch, &graph, owner, requester, &config, &mut rng)
                .unwrap();
        (outcome, allocations() - before)
    };
    // Warm-up run: both vertex sets grow to the graph size.
    let (warm, _) = run(17);
    assert!(warm.reached > 1);
    let (steady, allocated) = run(17);
    assert_eq!(steady, warm, "scratch reuse changed the outcome");
    assert_eq!(
        allocated, 0,
        "steady-state percolation performed {allocated} heap allocations"
    );
}

#[test]
fn steady_state_trials_allocate_nothing_with_metrics_enabled() {
    // The observability counters ride the hot path for free: harvesting
    // a full `Metrics` delta per trial — outcome counters, cumulative
    // view/frontier deltas, and a log2 histogram sample — is plain u64
    // arithmetic into a fixed-size struct, so the steady-state
    // allocation count stays exactly zero with metrics enabled. The
    // same holds for the phase timers (`PhaseClock` reads folded into a
    // fixed-shape `PhaseTimes`) and for sampling the per-thread
    // allocation counter itself — everything an observed engine worker
    // does per trial.
    use nonsearch_obs::{Metrics, PhaseClock, PhaseTimes, ResourceSample};

    let n = 512;
    let graph = MergedMori::sample(n, 2, 0.5, &mut rng_from_seed(3))
        .unwrap()
        .undirected();
    let task = SearchTask::new(NodeId::from_label(1), NodeId::from_label(n)).with_budget(50 * n);

    let mut scratch = SearchScratch::new();
    let mut metrics = Metrics::new();
    let mut phases = PhaseTimes::default();

    for kind in SearcherKind::all() {
        let mut searcher = kind.build();
        let mut rng = rng_from_seed(11);
        let warm = run_weak_in(&mut scratch, &graph, &task, &mut *searcher, &mut rng).unwrap();
        assert!(warm.found, "{kind}");

        // Steady state, with the full per-trial metrics harvest inside
        // the measurement window — exactly what the engine's metered
        // runners do per trial.
        let mut rng = rng_from_seed(11);
        let before = allocations();
        let mut delta = Metrics::new();
        let resolutions_before = scratch.edge_resolutions();
        let resets_before = scratch.resets();
        let rescans_before = searcher.frontier_rescans();
        let mut clock = PhaseClock::start();
        let steady = run_weak_in(&mut scratch, &graph, &task, &mut *searcher, &mut rng).unwrap();
        let search_ns = clock.lap_ns();
        delta.requests += steady.requests as u64;
        delta.discoveries += steady.discovered as u64;
        delta.frontier_rescans += searcher.frontier_rescans() - rescans_before;
        delta.edge_resolutions += scratch.edge_resolutions() - resolutions_before;
        delta.scratch_resets += scratch.resets() - resets_before;
        delta.observe_trial_requests(steady.requests as u64);
        delta.trials = 1;
        metrics.merge(&delta);
        phases.search_ns += search_ns;
        phases.harvest_ns += clock.lap_ns();
        // Reading the per-thread allocation counter mid-window is also
        // free — the observed runner samples it once per trial.
        let _mid_window_sample = allocations();
        let allocated = allocations() - before;
        assert_eq!(steady, warm, "{kind}: metrics harvest changed the outcome");
        assert_eq!(
            allocated, 0,
            "{kind}: metered steady-state trial performed {allocated} heap allocations"
        );
        assert!(delta.requests > 0, "{kind}: empty metrics delta");
        assert_eq!(delta.scratch_resets, 1, "{kind}");
    }

    let kinds = SearcherKind::all().len() as u64;
    assert_eq!(metrics.trials, kinds);
    assert_eq!(metrics.trial_requests.total(), kinds);
    assert!(metrics.requests > 0);
    assert!(metrics.discoveries > 0);

    // Phase timers accumulated real time inside the zero-alloc windows,
    // and the fixed-shape record shows exactly what ran: search and
    // harvest only, never generate/load/analyze/merge (no engine in
    // this test).
    assert!(phases.search_ns > 0, "no search time recorded");
    let named = phases.named();
    assert_eq!(named.len(), 6);
    assert_eq!(named[0].0, "phase_generate_ns");
    assert_eq!(named[0].1, 0);
    assert_eq!(named[1], ("phase_load_ns", 0));
    assert_eq!(named[3], ("phase_analyze_ns", 0));
    assert_eq!(named[5], ("phase_merge_ns", 0));

    // `ResourceSample::current()` reads /proc and *does* allocate — it
    // belongs outside the trial windows, once per cell, which is where
    // the engine calls it. Sanity-check it works from a test harness.
    let sample = ResourceSample::current();
    if cfg!(target_os = "linux") {
        assert!(sample.peak_rss_bytes > 0, "peak RSS not sampled");
    }
}

#[test]
fn presized_first_trials_allocate_nothing() {
    // The stronger claim: with a scratch pre-sized via `for_graph_size`
    // and a searcher pre-sized via the `reserve` hook, even the *first*
    // trial performs zero heap allocations — no warm-up required. This
    // is what used to fail through `FrontierCursors`, which had no
    // `reserve` and grew its stamp/cursor arrays inside the request
    // loop of trial 1.
    let n = 512;
    let graph = MergedMori::sample(n, 2, 0.5, &mut rng_from_seed(3))
        .unwrap()
        .undirected();
    let task = SearchTask::new(NodeId::from_label(1), NodeId::from_label(n)).with_budget(50 * n);
    let nodes = graph.node_count();
    let edges = graph.edge_count();

    for kind in SearcherKind::all() {
        let mut scratch = SearchScratch::for_graph_size(nodes, edges);
        let mut searcher = kind.build();
        searcher.reserve(nodes, edges);
        let mut rng = rng_from_seed(11);
        let before = allocations();
        let first = run_weak_in(&mut scratch, &graph, &task, &mut *searcher, &mut rng).unwrap();
        let allocated = allocations() - before;
        assert!(first.found, "{kind}");
        assert_eq!(
            allocated, 0,
            "{kind}: pre-sized first trial performed {allocated} heap allocations"
        );
        // Pre-sizing is invisible to the outcome.
        let mut rng = rng_from_seed(11);
        let unsized_run = run_weak_in(
            &mut SearchScratch::new(),
            &graph,
            &task,
            &mut *kind.build(),
            &mut rng,
        )
        .unwrap();
        assert_eq!(first, unsized_run, "{kind}: pre-sizing changed the outcome");
    }

    for (mut strong, mut fresh) in strong_searchers().into_iter().zip(strong_searchers()) {
        let name = strong.name();
        let mut scratch = SearchScratch::for_graph_size(nodes, edges);
        strong.reserve(nodes, edges);
        let mut rng = rng_from_seed(13);
        let before = allocations();
        let first = run_strong_in(&mut scratch, &graph, &task, &mut *strong, &mut rng).unwrap();
        let allocated = allocations() - before;
        assert_eq!(
            allocated, 0,
            "{name}: pre-sized first trial performed {allocated} heap allocations"
        );
        let mut rng = rng_from_seed(13);
        let unsized_run = run_strong_in(
            &mut SearchScratch::new(),
            &graph,
            &task,
            &mut *fresh,
            &mut rng,
        )
        .unwrap();
        assert_eq!(first, unsized_run, "{name}: pre-sizing changed the outcome");
    }
}
