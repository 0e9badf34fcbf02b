//! E12 — Sarshar et al.'s percolation search: replication along random
//! walks plus bond-percolation broadcast makes lookups sublinear on
//! power-law overlays.
//!
//! One overlay is sampled up front; each (replication walk, edge
//! probability) pair is a cell whose trials pick a random owner and
//! requester and run one lookup. Messages count as requests in the
//! perf record.

use super::{note_corpus_ignored, print_banner};
use nonsearch_core::{GraphModel, PowerLawGiantModel};
use nonsearch_engine::{
    run_lanes_observed, CellKey, CellTable, ExpContext, ExperimentSpec, JsonValue, PhaseClock,
    TrialMeasure,
};
use nonsearch_generators::{rng_from_seed, SeedSequence};
use nonsearch_graph::NodeId;
use nonsearch_search::{percolation_search_in, PercolationConfig, PercolationScratch};
use rand::Rng;
use std::io;

pub(super) const SPEC: ExperimentSpec = ExperimentSpec {
    name: "percolation",
    id: "E12",
    claim: "percolation search succeeds with sublinear messages once content is replicated",
    default_seed: 0xE12,
    run,
};

/// Replication walk lengths swept.
const WALKS: [usize; 4] = [0, 50, 200, 800];

/// Bond-percolation edge probabilities swept.
const PROBS: [f64; 3] = [0.05, 0.15, 0.3];

fn run(ctx: &mut ExpContext) -> io::Result<()> {
    print_banner(
        ctx,
        "E12 / percolation search",
        "replication × percolation probability trade-off: success rises \
         with both, messages stay sublinear in n for fixed parameters",
    );
    note_corpus_ignored(
        ctx,
        "the one overlay is drawn from the experiment's root stream, \
         which stored graphs do not reproduce.",
    );

    let n = if ctx.options.quick { 8_000 } else { 30_000 };
    let trial_count = ctx.options.trial_count(60);
    let model = PowerLawGiantModel {
        exponent: 2.3,
        d_min: 1,
    };
    let seeds = SeedSequence::new(ctx.seed);
    let overlay = model.sample_graph(n, &mut seeds.child_rng(0));
    let peers = overlay.node_count();
    println!("overlay: k = 2.3 giant with {peers} peers\n");
    let tracer = ctx.tracer.clone();

    let mut table = CellTable::new(&[
        ("walk", "replication walk", 0),
        ("edge_prob", "edge prob", 2),
        ("success", "success", 2),
        ("mean_messages", "mean messages", 0),
        ("messages_per_peer", "messages / n", 3),
    ]);
    for (wi, &walk) in WALKS.iter().enumerate() {
        for (qi, &q) in PROBS.iter().enumerate() {
            let _cell_span = tracer.span("cell");
            let config = PercolationConfig {
                replication_walk: walk,
                query_walk: walk.min(100),
                edge_probability: q,
            };
            let cell_seeds = seeds.subsequence(1 + wi as u64).subsequence(qi as u64);
            let (lanes, obs) = run_lanes_observed(
                trial_count,
                1,
                ctx.options.threads,
                &cell_seeds,
                PercolationScratch::new,
                |scratch, obs, _, trial_seeds| {
                    let mut rng = rng_from_seed(trial_seeds.root());
                    let owner = NodeId::new(rng.gen_range(0..peers));
                    let requester = NodeId::new(rng.gen_range(0..peers));
                    let clock = PhaseClock::start();
                    let out = percolation_search_in(
                        scratch, &overlay, owner, requester, &config, &mut rng,
                    )
                    .expect("valid parameters");
                    obs.phases.search_ns += clock.elapsed_ns();
                    obs.metrics.requests += out.messages as u64;
                    vec![TrialMeasure::new(out.messages as f64, out.found)]
                },
            );
            let messages = lanes[0];
            let key = CellKey::new()
                .with("walk", walk)
                .with("edge_prob", q)
                .with("n", peers);
            let measures = [
                ("success", JsonValue::from(messages.success_rate())),
                ("mean_messages", JsonValue::from(messages.mean())),
                ("ci95", JsonValue::from(messages.ci95())),
                (
                    "messages_per_peer",
                    JsonValue::from(messages.mean() / peers as f64),
                ),
            ];
            table.row(&key, &measures);
            ctx.writer.record_cell(&key, trial_count, &measures);
            ctx.writer.record_perf(&key, &obs);
        }
    }
    println!("{table}");
    println!("shape to check: success climbs with replication and edge");
    println!("probability; at moderate q the message cost is a small fraction");
    println!("of n — the sublinear lookup Sarshar et al. promise. None of");
    println!("this circumvents Theorem 1: it presumes content replicated");
    println!("*before* the query, unlike searching for a specific new vertex.");
    Ok(())
}
