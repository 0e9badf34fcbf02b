//! Traced replay of one benchmark workload.
//!
//! Re-runs a workload of `perfbench/run.py` through the public functions
//! of each layer crate, with a `nonsearch_obs` span around every layer
//! call, and writes the spans as Chrome-trace JSON (Perfetto loads it).
//! The work mirrors the `xp` experiment exactly — the same seed
//! derivation, searcher streams, worker pool and aggregation — so the
//! cell aggregates printed on stdout must equal the `xp` cell records bit
//! for bit; `run.py` checks that. After the workload, a probe phase
//! floods the workload's own graphs through the bare weak oracle, which
//! times the oracle without any searcher on top.
//!
//! Span names are `<layer>.<call>[.<detail>]`; `run.py` derives every
//! per-layer metric from them plus the exact counts on stdout. No clock
//! is read here: all durations come from the tracer.
//!
//! ```text
//! perfbench-replay WORKLOAD --seed S --sizes N[,N..] --trials T --trace OUT
//!                  [--corpus DIR --corpus-trials T --swaps K]
//! ```

#![forbid(unsafe_code)]

use nonsearch_alloc_counter::CountingAllocator;
use nonsearch_analysis::{fit_log_log, fit_power_law_mle, log_binned_histogram};
use nonsearch_core::{
    BarabasiAlbertModel, CooperFriezeModel, GraphModel, MergedMoriModel, ModelSource,
    UniformAttachmentModel,
};
use nonsearch_corpus::{build, BuildSpec, Corpus, CorpusSource, LoadMode};
use nonsearch_engine::{
    resolved_workers, run_lanes, run_lanes_observed, GraphSource, JsonValue, LaneAggregate,
    TrialMeasure,
};
use nonsearch_generators::{MoriTree, SeedSequence};
use nonsearch_graph::{degree_sequence, NodeId, UndirectedCsr};
use nonsearch_obs::Tracer;
use nonsearch_search::{
    run_weak_in, FrontierCursors, SearchScratch, SearchTask, SearcherKind, SuccessCriterion,
    WeakSearchState, WeakSearcher,
};
use std::collections::{BTreeSet, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The allocator `xp` installs, so that the replay and the untraced sweep
/// differ by the tracing alone (`trace.overhead_share`).
#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// `xp` runs every workload with `--threads 2`.
const THREADS: usize = 2;
/// Request budget per search as a multiple of n, as in `theorem1-weak`
/// and `null-model`.
const BUDGET_MULTIPLIER: usize = 30;
/// `null-model`'s searchers, raced on the original and on the rewired
/// graph of every trial.
const NULL_SEARCHERS: [SearcherKind; 2] = [SearcherKind::HighDegree, SearcherKind::BfsFlood];
const NULL_VARIANTS: [&str; 2] = ["original", "rewired"];
/// `degree-dist`'s tail cutoff for the MLE fit.
const FIT_MIN_DEGREE: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    sizes: Vec<usize>,
    trials: usize,
    trace: PathBuf,
    corpus: Option<PathBuf>,
    corpus_trials: usize,
    swaps: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let workload = it.next().ok_or("missing WORKLOAD")?;
    let mut args = Args {
        workload,
        seed: 1,
        sizes: Vec::new(),
        trials: 0,
        trace: PathBuf::new(),
        corpus: None,
        corpus_trials: 0,
        swaps: 0,
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| v.parse::<usize>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--sizes" => {
                args.sizes = value.split(',').map(num).collect::<Result<_, _>>()?;
            }
            "--trials" => args.trials = num(&value)?,
            "--trace" => args.trace = PathBuf::from(value),
            "--corpus" => args.corpus = Some(PathBuf::from(value)),
            "--corpus-trials" => args.corpus_trials = num(&value)?,
            "--swaps" => args.swaps = num(&value)?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.sizes.is_empty() || args.trials == 0 || args.trace.as_os_str().is_empty() {
        return Err("--sizes, --trials and --trace are required".into());
    }
    Ok(args)
}

/// Span names must be `&'static str`; the few built from lane and size
/// are leaked once at start-up.
fn leak(name: String) -> &'static str {
    Box::leak(name.into_boxed_str())
}

/// Exact counts the replay reports beside its spans.
struct Counts {
    /// `requests[size_idx * kinds + kind_idx]`, summed over trials.
    requests: Vec<AtomicU64>,
    /// Vertices of every generated graph.
    vertices: AtomicU64,
    /// `fit_power_law_mle` calls.
    fits: AtomicU64,
    /// Corpus trial-graph fetches, and how many of them were first
    /// fetches of their file.
    lookups: AtomicU64,
    cold_loads: AtomicU64,
}

impl Counts {
    fn new(lanes: usize) -> Counts {
        Counts {
            requests: (0..lanes).map(|_| AtomicU64::new(0)).collect(),
            vertices: AtomicU64::new(0),
            fits: AtomicU64::new(0),
            lookups: AtomicU64::new(0),
            cold_loads: AtomicU64::new(0),
        }
    }
}

fn add(counter: &AtomicU64, value: usize) {
    counter.fetch_add(value as u64, Ordering::Relaxed);
}

/// Per-size lane span names (`search.<lane>.n<N>`) and oracle span names
/// (`search.oracle.n<N>`).
struct LaneNames {
    lanes: Vec<Vec<&'static str>>,
    oracle: Vec<&'static str>,
}

impl LaneNames {
    fn new(kinds: &[SearcherKind], sizes: &[usize]) -> LaneNames {
        LaneNames {
            lanes: sizes
                .iter()
                .map(|n| {
                    kinds
                        .iter()
                        .map(|k| leak(format!("search.{}.n{n}", k.name())))
                        .collect()
                })
                .collect(),
            oracle: sizes
                .iter()
                .map(|n| leak(format!("search.oracle.n{n}")))
                .collect(),
        }
    }
}

/// One trial's searcher race, as `certify` and `null-model` run it:
/// lane `v * kinds + s` runs searcher `s` on `graphs[v]` with the
/// trial's stream `1 + lane`.
#[allow(clippy::too_many_arguments)]
fn race(
    tracer: &Tracer,
    scratch: &mut SearchScratch,
    searchers: &mut [Box<dyn WeakSearcher>],
    graphs: &[&UndirectedCsr],
    trial_seeds: &SeedSequence,
    names: &[&'static str],
    requests: &[AtomicU64],
) -> Vec<TrialMeasure> {
    let _race = tracer.span("search.race");
    let kinds = names.len();
    let mut measures = Vec::with_capacity(searchers.len());
    for (v_idx, graph) in graphs.iter().enumerate() {
        let actual = graph.node_count();
        let task = SearchTask::new(NodeId::from_label(1), NodeId::from_label(actual))
            .with_criterion(SuccessCriterion::DiscoverTarget)
            .with_budget(BUDGET_MULTIPLIER * actual);
        for s_idx in 0..kinds {
            let lane = v_idx * kinds + s_idx;
            let mut rng = trial_seeds.child_rng(1 + lane as u64);
            let outcome = {
                let _lane = tracer.span(names[s_idx]);
                run_weak_in(scratch, graph, &task, &mut *searchers[lane], &mut rng)
                    .expect("suite searchers never violate the protocol")
            };
            add(&requests[s_idx], outcome.requests);
            measures.push(TrialMeasure::new(outcome.requests as f64, outcome.found));
        }
    }
    measures
}

/// Breadth-first flood of the whole graph through the bare weak oracle,
/// from vertex 1: every step is one `FrontierCursors::next_unexplored`
/// plus one `WeakSearchState::request`, and no searcher logic runs.
fn flood(
    scratch: &mut SearchScratch,
    cursors: &mut FrontierCursors,
    graph: &UndirectedCsr,
) -> usize {
    let start = NodeId::from_label(1);
    let mut state = WeakSearchState::new_in(scratch, graph, start).expect("vertex 1 exists");
    cursors.reset();
    cursors.reserve(graph.node_count());
    let mut queue = VecDeque::from([start]);
    while let Some(&u) = queue.front() {
        match cursors.next_unexplored(state.view(), u) {
            Some(e) => {
                let known = state.view().len();
                let v = state.request(u, e).expect("cursor edges are incident");
                if state.view().len() > known {
                    queue.push_back(v);
                }
            }
            None => {
                queue.pop_front();
            }
        }
    }
    state.requests()
}

/// Floods every `(size_idx, graph)` under its size's oracle span and
/// returns the requests per size.
fn probe(tracer: &Tracer, names: &LaneNames, graphs: &[(usize, Arc<UndirectedCsr>)]) -> Vec<usize> {
    let _probe = tracer.span("replay.probe");
    let mut scratch = SearchScratch::new();
    let mut cursors = FrontierCursors::new();
    let mut requests = vec![0; names.oracle.len()];
    for (size_idx, graph) in graphs {
        let _oracle = tracer.span(names.oracle[*size_idx]);
        requests[*size_idx] += flood(&mut scratch, &mut cursors, graph);
    }
    requests
}

fn lane_fields(lane: &LaneAggregate) -> Vec<(&'static str, JsonValue)> {
    vec![
        ("mean", JsonValue::from(lane.mean())),
        ("ci95", JsonValue::from(lane.ci95())),
        ("success", JsonValue::from(lane.success_rate())),
    ]
}

fn object(
    mut keys: Vec<(&'static str, JsonValue)>,
    more: Vec<(&'static str, JsonValue)>,
) -> JsonValue {
    keys.extend(more);
    JsonValue::object(keys)
}

/// A worker's pooled scratch and searchers, reused across its trials.
type Pool = (SearchScratch, Vec<Box<dyn WeakSearcher>>);

/// `xp theorem1-weak`: the six `informed()` lanes on the full Móri
/// (p, m) grid, one generated graph per trial.
fn t1w_grid(
    args: &Args,
    tracer: &Tracer,
    counts: &Counts,
    cells: &mut Vec<JsonValue>,
) -> Vec<(usize, Arc<UndirectedCsr>)> {
    let kinds = SearcherKind::informed();
    let names = LaneNames::new(kinds, &args.sizes);
    let probe_graphs = Mutex::new(Vec::new());
    for p in [0.3, 0.6, 1.0] {
        for m in [1usize, 3] {
            let model = MergedMoriModel { p, m };
            let source = ModelSource::new(&model);
            let seeds = SeedSequence::new(args.seed);
            // points[kind] = (n, aggregate) per size.
            let mut points: Vec<Vec<(usize, LaneAggregate)>> = vec![Vec::new(); kinds.len()];
            for (size_idx, &n) in args.sizes.iter().enumerate() {
                let lanes = {
                    let _cell = tracer.span("engine.cell");
                    run_lanes_observed(
                        args.trials,
                        kinds.len(),
                        THREADS,
                        &seeds.subsequence(size_idx as u64),
                        || -> Pool {
                            (
                                SearchScratch::new(),
                                kinds.iter().map(|k| k.build()).collect(),
                            )
                        },
                        |(scratch, searchers), _obs, trial, trial_seeds| {
                            let _trial = tracer.span("engine.trial");
                            let graph = {
                                let _gen = tracer.span("generators.trial_graph");
                                source.trial_graph(n, trial, &trial_seeds)
                            };
                            add(&counts.vertices, graph.node_count());
                            let lane_counts =
                                &counts.requests[size_idx * kinds.len()..][..kinds.len()];
                            let measures = race(
                                tracer,
                                scratch,
                                searchers,
                                &[&graph],
                                &trial_seeds,
                                &names.lanes[size_idx],
                                lane_counts,
                            );
                            if trial == 0 {
                                probe_graphs
                                    .lock()
                                    .expect("probe list")
                                    .push((size_idx, graph));
                            }
                            measures
                        },
                    )
                    .0
                };
                for (k, lane) in lanes.into_iter().enumerate() {
                    points[k].push((n, lane));
                }
            }
            for (kind, pts) in kinds.iter().zip(&points) {
                let exponent = {
                    let _fit = tracer.span("analysis.fit_log_log");
                    let xs: Vec<f64> = pts.iter().map(|(n, _)| *n as f64).collect();
                    let ys: Vec<f64> = pts.iter().map(|(_, l)| l.mean().max(1e-9)).collect();
                    fit_log_log(&xs, &ys).map(|f| f.slope)
                };
                for (n, lane) in pts {
                    cells.push(object(
                        vec![
                            ("p", JsonValue::from(p)),
                            ("m", JsonValue::from(m)),
                            ("searcher", JsonValue::from(kind.name())),
                            ("n", JsonValue::from(*n)),
                            ("exponent", JsonValue::from(exponent)),
                        ],
                        lane_fields(lane),
                    ));
                }
            }
        }
    }
    probe_graphs.into_inner().expect("probe list")
}

/// Fetches one corpus graph under a cold-load or cache-hit span: the
/// first fetch of each stored file in this process is the cold one.
#[allow(clippy::too_many_arguments)]
fn fetch(
    tracer: &Tracer,
    counts: &Counts,
    seen: &Mutex<BTreeSet<(usize, usize, usize)>>,
    source: &CorpusSource,
    variant: usize,
    corpus_trials: usize,
    n: usize,
    trial: usize,
    trial_seeds: &SeedSequence,
) -> Arc<UndirectedCsr> {
    let cold = seen
        .lock()
        .expect("seen set")
        .insert((variant, n, trial % corpus_trials));
    add(&counts.lookups, 1);
    add(&counts.cold_loads, usize::from(cold));
    let _load = tracer.span(if cold {
        "corpus.cold_load"
    } else {
        "corpus.cache_hit"
    });
    source.trial_graph(n, trial, trial_seeds)
}

/// `xp corpus build` then `xp null-model --corpus --mmap`: BA(m=2)
/// originals and their stored rewired variant, raced by `high-degree`
/// and `bfs-flood`.
fn null_corpus(
    args: &Args,
    tracer: &Tracer,
    counts: &Counts,
    cells: &mut Vec<JsonValue>,
) -> (u64, Vec<(usize, Arc<UndirectedCsr>)>) {
    let dir = args
        .corpus
        .as_ref()
        .expect("null-corpus needs --corpus DIR");
    let spec = BuildSpec {
        model_spec: "ba:m=2".into(),
        seed: args.seed,
        sizes: args.sizes.clone(),
        trials: args.corpus_trials,
        variants: 1,
        swaps_per_edge: args.swaps,
        threads: THREADS,
    };
    let report = {
        let _build = tracer.span("corpus.build");
        build(dir, &spec).expect("corpus build")
    };
    let corpus = {
        let _open = tracer.span("corpus.open");
        Corpus::open_with(dir, LoadMode::Mmap).expect("corpus open")
    };
    let model = BarabasiAlbertModel { m: 2 };
    corpus
        .check_compatible(&model.name(), &args.sizes)
        .expect("the corpus stores the swept model and sizes");
    let sources = [
        corpus.source(),
        corpus.variant_source(0).expect("variant 0 stored"),
    ];
    let names = LaneNames::new(&NULL_SEARCHERS, &args.sizes);
    let seen = Mutex::new(BTreeSet::new());
    let seeds = SeedSequence::new(args.seed);
    let lanes_per_trial = NULL_VARIANTS.len() * NULL_SEARCHERS.len();
    for (size_idx, &n) in args.sizes.iter().enumerate() {
        let lanes = {
            let _cell = tracer.span("engine.cell");
            run_lanes_observed(
                args.trials,
                lanes_per_trial,
                THREADS,
                &seeds.subsequence(size_idx as u64),
                || -> Pool {
                    (
                        SearchScratch::new(),
                        (0..lanes_per_trial)
                            .map(|i| NULL_SEARCHERS[i % NULL_SEARCHERS.len()].build())
                            .collect(),
                    )
                },
                |(scratch, searchers), _obs, trial, trial_seeds| {
                    let _trial = tracer.span("engine.trial");
                    let graphs: Vec<Arc<UndirectedCsr>> = sources
                        .iter()
                        .enumerate()
                        .map(|(v, source)| {
                            fetch(
                                tracer,
                                counts,
                                &seen,
                                source,
                                v,
                                args.corpus_trials,
                                n,
                                trial,
                                &trial_seeds,
                            )
                        })
                        .collect();
                    let lane_counts =
                        &counts.requests[size_idx * NULL_SEARCHERS.len()..][..NULL_SEARCHERS.len()];
                    race(
                        tracer,
                        scratch,
                        searchers,
                        &[&graphs[0], &graphs[1]],
                        &trial_seeds,
                        &names.lanes[size_idx],
                        lane_counts,
                    )
                },
            )
            .0
        };
        for (lane_idx, lane) in lanes.iter().enumerate() {
            cells.push(object(
                vec![
                    (
                        "variant",
                        JsonValue::from(NULL_VARIANTS[lane_idx / NULL_SEARCHERS.len()]),
                    ),
                    (
                        "searcher",
                        JsonValue::from(NULL_SEARCHERS[lane_idx % NULL_SEARCHERS.len()].name()),
                    ),
                    ("n", JsonValue::from(n)),
                ],
                lane_fields(lane),
            ));
        }
    }
    // The probe floods every stored original; they are cached by now.
    let probe_graphs = args
        .sizes
        .iter()
        .enumerate()
        .flat_map(|(size_idx, &n)| {
            let seeds = seeds.subsequence(size_idx as u64);
            let source = &sources[0];
            (0..args.corpus_trials).map(move |t| {
                (
                    size_idx,
                    source.trial_graph(n, t, &seeds.subsequence(t as u64)),
                )
            })
        })
        .collect();
    (report.bytes, probe_graphs)
}

/// `xp degree-dist`: six models, one generated graph per trial, degree
/// sequence plus power-law MLE per graph, then the display-only CCDF
/// sketch `degree-dist` prints.
fn degree_fit(args: &Args, tracer: &Tracer, counts: &Counts, cells: &mut Vec<JsonValue>) {
    let n = *args.sizes.last().expect("--sizes is non-empty");
    let models: [&(dyn GraphModel + Sync); 6] = [
        &MergedMoriModel { p: 0.3, m: 1 },
        &MergedMoriModel { p: 0.6, m: 1 },
        &MergedMoriModel { p: 0.9, m: 1 },
        &CooperFriezeModel::balanced(0.7),
        &BarabasiAlbertModel { m: 2 },
        &UniformAttachmentModel { m: 1 },
    ];
    let seeds = SeedSequence::new(args.seed);
    for (mi, model) in models.iter().enumerate() {
        let source = ModelSource::new(*model);
        let lanes = {
            let _cell = tracer.span("engine.cell");
            run_lanes(
                args.trials,
                3,
                THREADS,
                &seeds.subsequence(mi as u64),
                |trial, trial_seeds| {
                    let _trial = tracer.span("engine.trial");
                    let graph = {
                        let _gen = tracer.span("generators.trial_graph");
                        source.trial_graph(n, trial, &trial_seeds)
                    };
                    add(&counts.vertices, graph.node_count());
                    let degrees = {
                        let _deg = tracer.span("analysis.degree_sequence");
                        degree_sequence(&graph)
                    };
                    let fit = {
                        let _fit = tracer.span("analysis.fit_power_law_mle");
                        fit_power_law_mle(&degrees, FIT_MIN_DEGREE)
                    };
                    add(&counts.fits, 1);
                    match fit {
                        Some(fit) => vec![
                            TrialMeasure::new(fit.exponent, true),
                            TrialMeasure::new(fit.ks_distance, true),
                            TrialMeasure::new(fit.tail_size as f64, true),
                        ],
                        None => vec![TrialMeasure::new(0.0, false); 3],
                    }
                },
            )
        };
        cells.push(JsonValue::object(vec![
            ("model", JsonValue::from(model.name())),
            ("n", JsonValue::from(n)),
            ("exponent", JsonValue::from(lanes[0].mean())),
            ("ci95", JsonValue::from(lanes[0].ci95())),
            ("ks", JsonValue::from(lanes[1].mean())),
            ("tail", JsonValue::from(lanes[2].mean())),
            ("fits", JsonValue::from(lanes[0].successes)),
        ]));
    }
    let graph = {
        let _gen = tracer.span("generators.mori_tree");
        let mut rng = seeds.subsequence(99).child_rng(0);
        MoriTree::sample(n, 0.6, &mut rng)
            .expect("valid Móri size")
            .undirected()
    };
    let _hist = tracer.span("analysis.histogram");
    log_binned_histogram(&degree_sequence(&graph), 2.0);
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench-replay: {e}");
        std::process::exit(2);
    });
    let tracer = Tracer::enabled();
    let counts = Counts::new(args.sizes.len() * SearcherKind::informed().len());
    let mut cells = Vec::new();
    let mut corpus_bytes = 0u64;
    let (kinds, probe_graphs): (&[SearcherKind], Vec<_>) = {
        let _workload = tracer.span("replay.workload");
        match args.workload.as_str() {
            "t1w-grid" => (
                SearcherKind::informed(),
                t1w_grid(&args, &tracer, &counts, &mut cells),
            ),
            "null-corpus" => {
                let (bytes, graphs) = null_corpus(&args, &tracer, &counts, &mut cells);
                corpus_bytes = bytes;
                (&NULL_SEARCHERS[..], graphs)
            }
            "degree-fit" => {
                degree_fit(&args, &tracer, &counts, &mut cells);
                (&[][..], Vec::new())
            }
            other => {
                eprintln!("perfbench-replay: unknown workload {other}");
                std::process::exit(2);
            }
        }
    };
    let names = LaneNames::new(kinds, &args.sizes);
    let oracle_requests = probe(&tracer, &names, &probe_graphs);

    let trace = tracer.to_chrome_trace().expect("the tracer is enabled");
    std::fs::write(&args.trace, trace)
        .unwrap_or_else(|e| panic!("write {}: {e}", args.trace.display()));

    let load = |c: &AtomicU64| JsonValue::from(c.load(Ordering::Relaxed));
    let mut lanes = Vec::new();
    for (size_idx, &n) in args.sizes.iter().enumerate() {
        for (k, kind) in kinds.iter().enumerate() {
            lanes.push(JsonValue::object(vec![
                ("lane", JsonValue::from(kind.name())),
                ("n", JsonValue::from(n)),
                (
                    "requests",
                    load(&counts.requests[size_idx * kinds.len() + k]),
                ),
            ]));
        }
    }
    let oracle = args
        .sizes
        .iter()
        .zip(&oracle_requests)
        .filter(|(_, &r)| r > 0)
        .map(|(&n, &r)| {
            JsonValue::object(vec![
                ("n", JsonValue::from(n)),
                ("requests", JsonValue::from(r)),
            ])
        })
        .collect::<Vec<_>>();
    let summary = JsonValue::object(vec![
        ("workload", JsonValue::from(args.workload.as_str())),
        (
            "workers",
            JsonValue::from(resolved_workers(THREADS, args.trials)),
        ),
        ("cells", JsonValue::Array(cells)),
        ("lanes", JsonValue::Array(lanes)),
        ("oracle", JsonValue::Array(oracle)),
        ("vertices", load(&counts.vertices)),
        ("fits", load(&counts.fits)),
        ("corpus_bytes", JsonValue::from(corpus_bytes)),
        ("corpus_lookups", load(&counts.lookups)),
        ("corpus_cold_loads", load(&counts.cold_loads)),
    ]);
    println!("{summary}");
}
