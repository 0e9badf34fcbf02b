//! `xp bench` — the standardized engine benchmark suite.
//!
//! One command measures the three throughput surfaces regressions have
//! historically hidden in, and writes a schema-versioned suite record
//! (`BENCH_engine_suite.json`) that `xp profile-diff` gates against the
//! committed copy:
//!
//! * **oracle** — the weak-model full flood on BA(m=2) at
//!   n ∈ {1 000, 10 000, 100 000}, plus one flood from the hub of a
//!   merged Móri graph (p = 1, m = 3, n = 16 384), whose Θ(n)-degree
//!   hub makes any per-request cost that grows with the requester's
//!   degree show; pooled scratch (requests/sec). The Móri cell has the
//!   same key in quick and full mode, so the quick-vs-committed gate
//!   compares it.
//! * **generate** — sampling a trial graph, CSR build and slot shuffle
//!   included: merged Móri (p = 0.6, m = 3) at n = 16 384 and BA(m=2)
//!   at n = 100 000 (vertices/sec). Both cells have the same key in
//!   quick and full mode, so the quick-vs-committed gate sees
//!   generation, the largest share of an experiment's busy time.
//! * **corpus_load** — loading a freshly-opened corpus through the one
//!   load pipeline (graphs/sec). The `Corpus` handle is reopened for
//!   every measured round, because loads are cached per handle — a warm
//!   handle would measure an `Arc` clone, not the load path.
//! * **thread_scaling** — one weak-model Monte-Carlo cell through the
//!   engine at 1 / 2 / 4 workers (requests/sec), catching regressions
//!   in the runner's backpressure/merge machinery that single-threaded
//!   lanes cannot see.
//!
//! Every cell carries a uniform higher-is-better `throughput` field
//! keyed by `section`/`key`, so the diff is an exact match — no
//! nearest-`n` heuristics. Quick mode (`--quick`) runs a reduced sweep
//! and writes `BENCH_engine_suite.quick.json` instead, so a truncated
//! run can never clobber the committed full record.

use crate::{weak_cell, StartPolicy};
use nonsearch_core::{BarabasiAlbertModel, GraphModel, MergedMoriModel, ModelSource};
use nonsearch_corpus::{build, BuildSpec, Corpus};
use nonsearch_engine::{git_describe, json::JsonValue, GraphSource};
use nonsearch_generators::SeedSequence;
use nonsearch_graph::{NodeId, UndirectedCsr};
use nonsearch_search::{
    FrontierCursors, SearchScratch, SearcherKind, SuccessCriterion, WeakSearchState,
};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

const USAGE: &str = "usage: xp bench [--quick] [--out FILE]";

/// Suite record schema version; `xp profile-diff` rejects
/// records with any other value.
pub const SUITE_SCHEMA_VERSION: u64 = 1;

/// Default output path of the full suite (committed at the repo root).
pub const SUITE_RECORD: &str = "BENCH_engine_suite.json";

/// Output path quick runs are redirected to (gitignored).
pub const SUITE_RECORD_QUICK: &str = "BENCH_engine_suite.quick.json";

/// One measured suite cell, pre-serialization.
struct Cell {
    section: &'static str,
    key: String,
    throughput: f64,
    detail: Vec<(&'static str, JsonValue)>,
}

/// The weak-model full flood (one request per unexplored edge slot of
/// each discovered vertex, discovery order): the oracle hot path with
/// zero strategy overhead.
fn weak_flood(
    scratch: &mut SearchScratch,
    cursors: &mut FrontierCursors,
    graph: &UndirectedCsr,
) -> usize {
    cursors.reset();
    let mut state = WeakSearchState::new_in(scratch, graph, NodeId::from_label(1)).unwrap();
    let mut cursor = 0usize;
    while cursor < state.view().len() {
        let v = state.view().discovered()[cursor];
        match cursors.next_unexplored(state.view(), v) {
            Some(e) => {
                state.request(v, e).unwrap();
            }
            None => cursor += 1,
        }
    }
    state.requests()
}

/// Mean wall-clock nanoseconds of one call of `body`, over `reps` calls
/// (each passed its repetition index).
fn mean_ns(reps: u32, mut body: impl FnMut(u32)) -> u64 {
    // lint: allow(clock-env): benchmark wall-clock measurement; throughput is the deliverable, not an aggregate
    let start = Instant::now();
    for rep in 0..reps {
        body(rep);
    }
    (start.elapsed().as_nanos() / u128::from(reps)).max(1) as u64
}

/// The suite's fixed-seed graph of `model` at size `n`.
fn suite_graph<M: GraphModel + Sync>(model: &M, n: usize) -> Arc<UndirectedCsr> {
    ModelSource::new(model).trial_graph(n, 0, &SeedSequence::new(0xBEAC).subsequence(0))
}

/// Size of the merged Móri hub-flood cell, in quick and full mode.
const MORI_FLOOD_N: usize = 16_384;

/// Oracle hot path: flood throughput per graph, pooled scratch.
fn oracle_section(quick: bool, cells: &mut Vec<Cell>) {
    let sizes: &[usize] = if quick {
        &[1_000, 10_000]
    } else {
        &[1_000, 10_000, 100_000]
    };
    let ba = BarabasiAlbertModel { m: 2 };
    let mut floods: Vec<(String, Arc<UndirectedCsr>)> = sizes
        .iter()
        .map(|&n| (format!("weak_flood_n{n}"), suite_graph(&ba, n)))
        .collect();
    let mori = MergedMoriModel { p: 1.0, m: 3 };
    floods.push((
        format!("weak_flood_mori_p1_m3_n{MORI_FLOOD_N}"),
        suite_graph(&mori, MORI_FLOOD_N),
    ));
    let mut scratch = SearchScratch::new();
    let mut cursors = FrontierCursors::new();
    for (key, graph) in floods {
        let n = graph.node_count();
        let reps: u32 = if n >= 100_000 { 3 } else { 10 };
        // Warm the pooled scratch so the measured trials are steady
        // state (no growth allocations).
        let requests = weak_flood(&mut scratch, &mut cursors, &graph);
        let ns = mean_ns(reps, |_| {
            weak_flood(&mut scratch, &mut cursors, &graph);
        });
        let throughput = requests as f64 / (ns as f64 / 1e9);
        println!("oracle/{key}: {throughput:.0} req/s ({requests} req, {reps} reps)");
        cells.push(Cell {
            section: "oracle",
            key,
            throughput,
            detail: vec![
                ("n", JsonValue::from(n)),
                ("requests_per_trial", JsonValue::from(requests)),
                ("ns_per_trial", JsonValue::from(ns)),
            ],
        });
    }
}

/// Generation throughput: fresh fixed-seed samples of the two models,
/// the same work in quick and full mode.
fn generate_section(cells: &mut Vec<Cell>) {
    let mori = MergedMoriModel { p: 0.6, m: 3 };
    let ba = BarabasiAlbertModel { m: 2 };
    let workloads: [(&str, &dyn GraphModel, usize, u32); 2] = [
        ("mori_p06_m3_n16384", &mori, 16_384, 10),
        ("ba_m2_n100000", &ba, 100_000, 3),
    ];
    let seeds = SeedSequence::new(0xBEA6);
    for (key, model, n, reps) in workloads {
        // Warm-up sample: first-touch page faults are not generation.
        model.sample_graph(n, &mut seeds.child_rng(u64::from(reps)));
        let ns = mean_ns(reps, |rep| {
            let graph = model.sample_graph(n, &mut seeds.child_rng(u64::from(rep)));
            assert_eq!(graph.node_count(), n);
        });
        let throughput = n as f64 / (ns as f64 / 1e9);
        println!("generate/{key}: {throughput:.0} vertices/s ({reps} graphs)");
        cells.push(Cell {
            section: "generate",
            key: key.to_string(),
            throughput,
            detail: vec![
                ("n", JsonValue::from(n)),
                ("graphs", JsonValue::from(reps as u64)),
                ("ns_per_graph", JsonValue::from(ns)),
            ],
        });
    }
}

/// Corpus load throughput: the one load pipeline (map, validate, hash,
/// borrow) over a freshly-built scratch corpus, reopening the handle
/// per round to defeat its cache. The key keeps its historical `mmap_`
/// prefix so committed baselines still match.
fn corpus_section(quick: bool, cells: &mut Vec<Cell>) -> Result<(), String> {
    let n = if quick { 1_000 } else { 10_000 };
    let graphs = if quick { 6 } else { 12 };
    let rounds: u32 = if quick { 3 } else { 5 };
    let dir = std::env::temp_dir().join(format!("nonsearch_bench_corpus_{}", std::process::id()));
    let spec = BuildSpec {
        model_spec: "ba:m=2".to_string(),
        seed: 0xBEAC,
        sizes: vec![n],
        trials: graphs,
        variants: 0,
        swaps_per_edge: 0,
        threads: 0,
    };
    build(&dir, &spec).map_err(|e| format!("corpus build: {e}"))?;

    let mut total_loads = 0u64;
    // lint: allow(clock-env): benchmark wall-clock measurement; throughput is the deliverable, not an aggregate
    let start = Instant::now();
    for _ in 0..rounds {
        // Reopen per round: `Corpus::load` caches per handle, so a warm
        // handle would measure Arc clones, not loads.
        let corpus = Corpus::open(&dir).map_err(|e| format!("corpus open: {e}"))?;
        for g in 0..graphs {
            let graph = corpus
                .load(g, None)
                .map_err(|e| format!("corpus load: {e}"))?;
            assert_eq!(graph.node_count(), n);
            total_loads += 1;
        }
    }
    let secs = start.elapsed().as_secs_f64().max(1e-9);
    let throughput = total_loads as f64 / secs;
    println!("corpus_load/mmap_n{n}: {throughput:.1} graphs/s ({total_loads} loads)");
    cells.push(Cell {
        section: "corpus_load",
        key: format!("mmap_n{n}"),
        throughput,
        detail: vec![
            ("n", JsonValue::from(n)),
            ("graphs", JsonValue::from(graphs)),
            ("rounds", JsonValue::from(rounds as u64)),
        ],
    });
    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}

/// Engine thread scaling: one weak Monte-Carlo cell at 1 / 2 / 4
/// workers. Aggregates are bit-identical across the three rows (the
/// engine's contract); only the wall clock moves.
fn thread_scaling_section(quick: bool, cells: &mut Vec<Cell>) {
    let n = if quick { 1_024 } else { 4_096 };
    let trials = if quick { 8 } else { 16 };
    let model = MergedMoriModel { p: 0.6, m: 1 };
    let seeds = SeedSequence::new(0xBE2C);
    for threads in [1usize, 2, 4] {
        let (_, obs) = weak_cell(
            &ModelSource::new(&model),
            n,
            SearcherKind::HighDegree,
            SuccessCriterion::DiscoverTarget,
            StartPolicy::OldestHub,
            trials,
            30,
            threads,
            &seeds,
        );
        let throughput = obs.requests_per_sec();
        println!("thread_scaling/threads_{threads}_n{n}: {throughput:.0} req/s ({trials} trials)");
        cells.push(Cell {
            section: "thread_scaling",
            // n rides in the key: quick (n=1024) and full (n=4096) rows
            // are different workloads, and the suite diff must skip a
            // cross-mode pair, not compare it.
            key: format!("threads_{threads}_n{n}"),
            throughput,
            detail: vec![
                ("n", JsonValue::from(n)),
                ("trials", JsonValue::from(trials)),
                ("wall_ms", JsonValue::from(obs.wall_ms())),
                ("workers", JsonValue::from(obs.workers)),
            ],
        });
    }
}

/// Serializes the suite record document.
fn suite_record(quick: bool, cells: &[Cell]) -> String {
    let cells: Vec<JsonValue> = cells
        .iter()
        .map(|c| {
            let mut fields = vec![
                ("section", JsonValue::from(c.section)),
                ("key", JsonValue::from(c.key.as_str())),
                ("throughput", JsonValue::from(c.throughput)),
            ];
            fields.extend(c.detail.iter().map(|(k, v)| (*k, v.clone())));
            JsonValue::object(fields)
        })
        .collect();
    let doc = JsonValue::object(vec![
        ("schema_version", JsonValue::from(SUITE_SCHEMA_VERSION)),
        ("bench", JsonValue::from("engine_suite")),
        ("quick", JsonValue::from(quick)),
        ("git", JsonValue::from(git_describe())),
        ("cells", JsonValue::Array(cells)),
    ]);
    format!("{doc}\n")
}

/// The `xp bench` subcommand body. Returns the process exit code.
pub fn main(args: &[String]) -> i32 {
    let mut quick = false;
    let mut out: Option<PathBuf> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => match iter.next() {
                Some(path) => out = Some(PathBuf::from(path)),
                None => {
                    eprintln!("xp bench: --out requires a value");
                    eprintln!("{USAGE}");
                    return 2;
                }
            },
            other => {
                eprintln!("xp bench: unknown argument {other:?}");
                eprintln!("{USAGE}");
                return 2;
            }
        }
    }
    // Quick runs are redirected to the `.quick.json` sibling so they
    // can never clobber the committed full-suite record.
    let out = out.unwrap_or_else(|| {
        PathBuf::from(if quick {
            SUITE_RECORD_QUICK
        } else {
            SUITE_RECORD
        })
    });

    println!(
        "=== xp bench (engine suite{}) ===\n",
        if quick { ", quick" } else { "" }
    );
    let mut cells = Vec::new();
    oracle_section(quick, &mut cells);
    generate_section(&mut cells);
    if let Err(e) = corpus_section(quick, &mut cells) {
        eprintln!("xp bench: {e}");
        return 2;
    }
    thread_scaling_section(quick, &mut cells);

    let record = suite_record(quick, &cells);
    if let Err(e) = std::fs::write(&out, &record) {
        eprintln!("xp bench: cannot write {}: {e}", out.display());
        return 2;
    }
    println!("\nwrote {} cells to {}", cells.len(), out.display());
    0
}

#[cfg(test)]
mod tests {
    use super::*;
    use nonsearch_engine::profile_diff::suite_from_json;

    #[test]
    fn suite_record_round_trips_through_the_diff_parser() {
        let cells = vec![
            Cell {
                section: "oracle",
                key: "weak_flood_n1000".into(),
                throughput: 5000.0,
                detail: vec![("n", JsonValue::from(1000u64))],
            },
            Cell {
                section: "thread_scaling",
                key: "threads_2".into(),
                throughput: 123.4,
                detail: vec![],
            },
        ];
        let text = suite_record(true, &cells);
        let parsed = suite_from_json(&text).expect("record parses");
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].section, "oracle");
        assert_eq!(parsed[0].key, "weak_flood_n1000");
        assert_eq!(parsed[0].throughput, 5000.0);
        assert_eq!(parsed[1].section, "thread_scaling");
        assert_eq!(parsed[1].key, "threads_2");
    }

    #[test]
    fn flood_costs_exactly_n_minus_one_on_connected_graphs() {
        let graph = suite_graph(&BarabasiAlbertModel { m: 2 }, 512);
        let mut scratch = SearchScratch::new();
        let mut cursors = FrontierCursors::new();
        let requests = weak_flood(&mut scratch, &mut cursors, &graph);
        // Every vertex beyond the start is discovered by at least one
        // request; BA(m=2) is connected, and m=2 adds extra edges, so
        // the flood needs at least n − 1 requests.
        assert!(requests >= graph.node_count() - 1);
    }

    #[test]
    fn unknown_arguments_are_usage_errors() {
        assert_eq!(main(&["--wat".to_string()]), 2);
        assert_eq!(main(&["--out".to_string()]), 2);
    }
}
