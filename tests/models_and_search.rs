//! Cross-crate integration: model structure feeds search and analysis
//! coherently.

use nonsearch::analysis::{average_distance, fit_log_log, fit_power_law_mle};
use nonsearch::core::{
    adamic_high_degree_exponent, adamic_random_walk_exponent, GraphModel, PowerLawGiantModel,
};
use nonsearch::generators::{
    rng_from_seed, BarabasiAlbert, CooperFrieze, CooperFriezeConfig, KleinbergGrid, MoriTree,
    SeedSequence,
};
use nonsearch::graph::{degree_sequence, is_connected, NodeId};
use nonsearch::search::{greedy_route, run_weak, SearchTask, SearcherKind};
use rand::Rng;

#[test]
fn evolving_models_are_scale_free() {
    // The paper's premise: these models have power-law degrees.
    let mut rng = rng_from_seed(1);
    let tree = MoriTree::sample(30_000, 0.8, &mut rng).unwrap();
    let degrees = degree_sequence(&tree.undirected());
    let fit = fit_power_law_mle(&degrees, 3).expect("enough tail");
    assert!(
        fit.exponent > 1.5 && fit.exponent < 5.0,
        "Móri p=0.8 degree exponent {fit}"
    );

    let ba = BarabasiAlbert::sample(30_000, 2, &mut rng).unwrap();
    let fit_ba = fit_power_law_mle(&degree_sequence(&ba.undirected()), 3).unwrap();
    // BA's theoretical exponent is 3.
    assert!(
        (fit_ba.exponent - 3.0).abs() < 0.6,
        "BA degree exponent {fit_ba}"
    );
}

#[test]
fn diameters_grow_slowly_while_search_grows_fast() {
    // The paper's contrast: logarithmic distances, polynomial search.
    let mut avg_dists = Vec::new();
    let mut search_costs = Vec::new();
    let sizes = [512usize, 2048, 8192];
    for (i, &n) in sizes.iter().enumerate() {
        let mut rng = rng_from_seed(50 + i as u64);
        let tree = MoriTree::sample(n, 0.5, &mut rng).unwrap();
        let graph = tree.undirected();
        avg_dists.push(average_distance(&graph, 8, &mut rng).unwrap());
        let task =
            SearchTask::new(NodeId::from_label(1), NodeId::from_label(n)).with_budget(100 * n);
        let mut best = usize::MAX;
        for kind in SearcherKind::informed() {
            let mut searcher = kind.build();
            let o = run_weak(&graph, &task, &mut *searcher, &mut rng).unwrap();
            if o.found {
                best = best.min(o.requests);
            }
        }
        search_costs.push(best as f64);
    }
    // Distances grow sub-polynomially: ratio below √ratio of sizes.
    let dist_growth = avg_dists[2] / avg_dists[0];
    assert!(dist_growth < 3.0, "distances grew too fast: {avg_dists:?}");
    // Search grows at least ~√(16) / slack.
    let cost_growth = search_costs[2] / search_costs[0];
    assert!(
        cost_growth > 2.0,
        "search cost barely grew: {search_costs:?}"
    );
}

#[test]
fn adamic_ordering_on_power_law_overlays() {
    // High-degree search beats the random walk, and the theoretical
    // exponents predict that ordering.
    let k = 2.5;
    assert!(adamic_high_degree_exponent(k) < adamic_random_walk_exponent(k));
    let model = PowerLawGiantModel {
        exponent: k,
        d_min: 1,
    };
    let seeds = SeedSequence::new(77);
    let trials = 12;
    let mut walk_total = 0usize;
    let mut greedy_total = 0usize;
    for t in 0..trials {
        let mut rng = seeds.child_rng(t);
        let overlay = model.sample_graph(6_000, &mut rng);
        let peers = overlay.node_count();
        let s = NodeId::new(rng.gen_range(0..peers));
        let target = NodeId::new(rng.gen_range(0..peers));
        let task = SearchTask::new(s, target).with_budget(60 * peers);
        let mut walk = SearcherKind::RandomWalk.build();
        let mut greedy = SearcherKind::HighDegree.build();
        walk_total += run_weak(&overlay, &task, &mut *walk, &mut rng)
            .unwrap()
            .requests;
        greedy_total += run_weak(&overlay, &task, &mut *greedy, &mut rng)
            .unwrap()
            .requests;
    }
    assert!(
        greedy_total < walk_total,
        "greedy {greedy_total} should beat walk {walk_total}"
    );
}

#[test]
fn kleinberg_critical_exponent_beats_local_links_and_the_lattice() {
    // The r = 0 separation is asymptotic (visible in the E11 sweep);
    // at moderate sizes the robust orderings are r = 2 ≪ r = 3.5 and
    // r = 2 ≪ bare lattice distance.
    let seeds = SeedSequence::new(31);
    let side = 40;
    let n = side * side;
    let mean_steps = |r: f64| -> f64 {
        let mut rng = seeds.child_rng((r * 100.0) as u64);
        let grid = KleinbergGrid::sample(side, r, 1, &mut rng).unwrap();
        let total: usize = (0..120)
            .map(|_| {
                let s = NodeId::new(rng.gen_range(0..n));
                let t = NodeId::new(rng.gen_range(0..n));
                greedy_route(&grid, s, t, 100 * n).steps
            })
            .sum();
        total as f64 / 120.0
    };
    let at_critical = mean_steps(2.0);
    let too_local = mean_steps(3.5);
    assert!(
        at_critical < too_local,
        "r=2 routing ({at_critical}) should beat r=3.5 ({too_local})"
    );
    // Mean Manhattan distance on the grid is ~2·side/3 ≈ 27.
    assert!(
        at_critical < 2.0 * side as f64 / 3.0,
        "r=2 routing ({at_critical}) should beat the bare lattice"
    );
}

#[test]
fn cooper_frieze_degree_tail_and_connectivity() {
    let config = CooperFriezeConfig::balanced(0.6).unwrap();
    let mut rng = rng_from_seed(4);
    let cf = CooperFrieze::sample(20_000, &config, &mut rng).unwrap();
    let graph = cf.undirected();
    assert!(is_connected(&graph));
    let (_, max_degree) = graph.max_degree().expect("non-empty graph");
    let mean_degree = 2.0 * graph.edge_count() as f64 / graph.node_count() as f64;
    // Heavy tail: the maximum degree dwarfs the mean.
    assert!(max_degree as f64 > 10.0 * mean_degree);
}

#[test]
fn search_cost_scaling_fits_a_power_law() {
    // The log-log pipeline end to end: sizes → costs → exponent.
    let sizes = [256usize, 512, 1024, 2048, 4096];
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for (i, &n) in sizes.iter().enumerate() {
        let mut total = 0usize;
        let trials = 6;
        for t in 0..trials {
            let mut rng = rng_from_seed((i * 100 + t) as u64);
            let tree = MoriTree::sample(n, 0.5, &mut rng).unwrap();
            let graph = tree.undirected();
            let task =
                SearchTask::new(NodeId::from_label(1), NodeId::from_label(n)).with_budget(100 * n);
            let mut s = SearcherKind::HighDegree.build();
            total += run_weak(&graph, &task, &mut *s, &mut rng).unwrap().requests;
        }
        xs.push(n as f64);
        ys.push(total as f64 / 6.0);
    }
    let fit = fit_log_log(&xs, &ys).unwrap();
    assert!(
        fit.slope > 0.4 && fit.slope < 1.3,
        "high-degree scaling exponent {fit}"
    );
    assert!(fit.r_squared > 0.85, "poor fit: {fit}");
}
