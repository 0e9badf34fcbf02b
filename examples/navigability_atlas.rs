//! Navigability atlas: Kleinberg's lattice vs the paper's scale-free
//! models.
//!
//! The paper's framing: Kleinberg showed *some* small worlds are
//! navigable (greedy routing in `O(log² n)` at the critical exponent
//! `r = 2`), and asked whether scale-free graphs are too. This example
//! routes greedily on lattices across `r` and then runs the best local
//! searchers on a Móri graph of comparable size — the navigable/
//! non-searchable contrast in one screen.
//!
//! Run with: `cargo run --release --example navigability_atlas`

use nonsearch::analysis::SampleStats;
use nonsearch::generators::{KleinbergGrid, MergedMori, SeedSequence};
use nonsearch::graph::NodeId;
use nonsearch::search::{greedy_route, run_weak, SearchTask, SearcherKind};
use rand::Rng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let side = 64; // 4096 lattice vertices
    let n = side * side;
    let seeds = SeedSequence::new(99);

    println!("greedy routing on {side}×{side} Kleinberg grids (q = 1 long link/vertex):");
    println!("  r = clustering exponent; r = 2 is Kleinberg's navigable point\n");
    for r in [0.0, 1.0, 2.0, 3.0] {
        let mut rng = seeds.child_rng((r * 10.0) as u64);
        let grid = KleinbergGrid::sample(side, r, 1, &mut rng)?;
        let mut steps = Vec::new();
        for _ in 0..200 {
            let s = NodeId::new(rng.gen_range(0..n));
            let t = NodeId::new(rng.gen_range(0..n));
            let out = greedy_route(&grid, s, t, 10 * side * side);
            assert!(out.reached, "greedy cannot get stuck on a full lattice");
            steps.push(out.steps as f64);
        }
        let stats = SampleStats::from_slice(&steps).expect("non-empty");
        println!(
            "  r = {r:.1}: mean {:>6.1} ± {:>4.1} hops, max {:>5.0}",
            stats.mean(),
            stats.ci95_half_width(),
            stats.max()
        );
    }
    println!(
        "\n  (log₂²(n) ≈ {:.0} — the r = 2 row sits near it, the others above)",
        (n as f64).log2().powi(2)
    );

    println!("\nsearching a merged Móri graph of the same size (n = {n}, p = 0.5, m = 2):");
    let mut rng = seeds.child_rng(1000);
    let mori = MergedMori::sample(n, 2, 0.5, &mut rng)?;
    let graph = mori.undirected();
    let task = SearchTask::new(NodeId::from_label(1), NodeId::from_label(n)).with_budget(50 * n);
    for kind in [
        SearcherKind::GreedyId,
        SearcherKind::HighDegree,
        SearcherKind::SimStrongHighDegree,
    ] {
        let mut searcher = kind.build();
        let outcome = run_weak(&graph, &task, &mut *searcher, &mut rng)?;
        println!(
            "  {:>24}: {:>7} requests (√n = {:.0}, log²n = {:.0})",
            kind.name(),
            outcome.requests,
            (n as f64).sqrt(),
            (n as f64).log2().powi(2)
        );
    }
    println!("\ntakeaway: lattice greed rides its coordinates to polylog routes;");
    println!("scale-free identities carry no such geometry — costs sit at √n scale,");
    println!("exactly the paper's negative answer to Kleinberg's question.");
    Ok(())
}
