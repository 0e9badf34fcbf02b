//! P2P lookup on a Gnutella-like power-law overlay.
//!
//! Reproduces the related-work landscape the paper builds on: on "pure"
//! power-law random graphs (Molloy–Reed configuration model with
//! exponent `k ∈ (2, 3)`), Adamic et al.'s high-degree strategy beats
//! the random walk, and Sarshar et al.'s percolation search trades
//! replication for sublinear lookups.
//!
//! Run with: `cargo run --release --example p2p_lookup`

use nonsearch::analysis::{fit_power_law_mle, SampleStats};
use nonsearch::core::{GraphModel, PowerLawGiantModel};
use nonsearch::generators::SeedSequence;
use nonsearch::graph::{degree_sequence, NodeId};
use nonsearch::search::{
    percolation_search, run_weak, PercolationConfig, SearchTask, SearcherKind,
};
use rand::Rng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 20_000;
    let exponent = 2.3;
    let seeds = SeedSequence::new(42);
    let model = PowerLawGiantModel { exponent, d_min: 1 };

    println!("building a power-law overlay: n = {n}, k = {exponent}");
    let mut rng = seeds.child_rng(0);
    let overlay = model.sample_graph(n, &mut rng);
    let peers = overlay.node_count();
    let degrees = degree_sequence(&overlay);
    let fit = fit_power_law_mle(&degrees, 2).expect("power-law overlay fits");
    println!("  giant component: {peers} peers, degree fit {fit}");

    // Lookups: random (requester, resource holder) pairs.
    let trials = 30;
    println!("\nlookup cost over {trials} random queries:");
    for kind in [SearcherKind::RandomWalk, SearcherKind::HighDegree] {
        let mut costs = Vec::new();
        let mut found = 0usize;
        for t in 0..trials {
            let mut rng = seeds.subsequence(1).child_rng(t);
            let requester = NodeId::new(rng.gen_range(0..peers));
            let holder = NodeId::new(rng.gen_range(0..peers));
            let task = SearchTask::new(requester, holder).with_budget(20 * peers);
            let mut searcher = kind.build();
            let outcome = run_weak(&overlay, &task, &mut *searcher, &mut rng)?;
            costs.push(outcome.requests as f64);
            found += outcome.found as usize;
        }
        let stats = SampleStats::from_slice(&costs).expect("non-empty");
        println!(
            "  {:>12}: mean {:>9.1} ± {:>8.1} requests, {}/{} found",
            kind.name(),
            stats.mean(),
            stats.ci95_half_width(),
            found,
            trials
        );
    }

    // Percolation search: replicate content on short walks, percolate
    // the query.
    println!("\npercolation search (Sarshar et al.), walk length sweep:");
    for walk in [0usize, 50, 200, 800] {
        let config = PercolationConfig {
            replication_walk: walk,
            query_walk: walk,
            edge_probability: 0.25,
        };
        let mut messages = Vec::new();
        let mut found = 0usize;
        for t in 0..trials {
            let mut rng = seeds.subsequence(2).child_rng(t);
            let requester = NodeId::new(rng.gen_range(0..peers));
            let holder = NodeId::new(rng.gen_range(0..peers));
            let out = percolation_search(&overlay, holder, requester, &config, &mut rng)?;
            messages.push(out.messages as f64);
            found += out.found as usize;
        }
        let stats = SampleStats::from_slice(&messages).expect("non-empty");
        println!(
            "  walk {walk:>4}: success {:>2}/{trials}, mean messages {:>9.1}",
            found,
            stats.mean()
        );
    }

    println!("\ntakeaway: high-degree beats the walk, and replication buys");
    println!("success — but none of this helps on the paper's evolving");
    println!("models, where the newest vertices are provably hidden.");
    Ok(())
}
