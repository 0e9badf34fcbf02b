//! `nonsearch_engine` — the deterministic parallel Monte-Carlo trial
//! engine, structured run records, and the `xp` experiment-CLI plumbing.
//!
//! Every quantitative claim in the paper is reproduced by Monte-Carlo
//! sweeps over cells (model × size × searcher × policy). This crate is
//! the shared substrate those sweeps run on:
//!
//! * [`run_lanes_observed`] — the trial runner: shards a cell's trials
//!   across scoped worker threads with per-trial RNG streams derived
//!   from [`SeedSequence`](nonsearch_generators::SeedSequence),
//!   aggregating via streaming (Welford) statistics in strict trial
//!   order, so the result is **bit-identical for 1 or N threads**. It
//!   also observes the cell ([`CellObs`]: exact counters, phase times,
//!   wall time, `/proc` sample); [`run_lanes`] is its plain form.
//! * [`run_ordered`] — the deterministic parallel *map* companion:
//!   results come back in job order for any worker count (the corpus
//!   builder shards graph generation through it).
//! * [`install_faults`] / [`FailurePolicy`] — the chaos seam: a
//!   thread-local fault bundle the runner snapshots at cell entry to
//!   inject deterministic trial panics/stalls (e.g. from a seeded
//!   `nonsearch_fault::FaultPlan`) and contain, retry, or skip the
//!   failing trials, with an optional watchdog that degrades a stuck
//!   cell gracefully instead of hanging the run.
//! * [`GraphSource`] — where a trial's graph comes from: generated on
//!   the fly or served from a persistent corpus (`nonsearch_corpus`).
//! * [`CliOptions`] — the experiment flag set (`--quick`, `--threads`,
//!   `--seed`, `--out`, `--format`, `--trials`, `--sizes`,
//!   `--corpus`, `--heal`, …), parsed strictly.
//! * [`RunWriter`] — JSON Lines + CSV run records (params, seed, git
//!   describe, wall time, mean/CI/success) alongside the pretty tables,
//!   plus one `"type":"perf"` record per cell under `--profile`.
//! * [`Registry`] — the `xp` subcommand registry: `xp list`,
//!   `xp <experiment> [flags]`, `xp validate <file>`, `xp report
//!   <run.jsonl>`, `xp profile-diff <suite.json> --baseline FILE`.
//! * [`Metrics`] / [`PhaseClock`] / [`Tracer`] (re-exported from
//!   `nonsearch_obs`) — the allocation-free per-worker counter bundle
//!   the runner merges, the stopwatch behind every phase timer, and the
//!   span tracer behind `--trace`.
//! * [`json`] — a dependency-free JSON value/serializer/parser (the
//!   workspace has no serialization crate).
//!
//! # Example: a deterministic parallel cell
//!
//! ```
//! use nonsearch_engine::{run_lanes, TrialMeasure};
//! use nonsearch_generators::SeedSequence;
//!
//! let seeds = SeedSequence::new(7);
//! let measure = |_trial: usize, seeds: SeedSequence| {
//!     let draw = seeds.child(0) % 100;
//!     vec![TrialMeasure::new(draw as f64, draw < 90)]
//! };
//! let one = run_lanes(64, 1, 1, &seeds, measure);
//! let four = run_lanes(64, 1, 4, &seeds, measure);
//! assert_eq!(one, four); // bit-identical aggregates
//! assert_eq!(one[0].count(), 64);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod faults;
pub mod json;
mod options;
pub mod profile_diff;
mod record;
mod registry;
pub mod report;
mod runner;
mod source;

pub use faults::{
    install_faults, FailurePolicy, FaultHook, FaultInjection, FaultScope, InjectedFault,
};
pub use json::{parse as parse_json, JsonError, JsonValue};
pub use nonsearch_obs::{
    render_log2_histogram, Log2Histogram, Metrics, PhaseClock, PhaseTimes, ResourceSample,
    SpanGuard, Tracer, HISTOGRAM_BUCKETS,
};
pub use options::{CliOptions, OptionsError, OutputFormat};
pub use record::{
    git_describe, perf_fields, RunSummary, RunWriter, CELL_TYPE, DIAGNOSTIC_TYPE, FAULT_TYPE,
    LINT_TYPE, PERF_TYPE, RUN_TYPE,
};
pub use registry::{
    validate_chrome_trace, validate_jsonl, ExpContext, ExperimentSpec, Registry, ValidateSummary,
};
pub use runner::{
    resolved_workers, run_lanes, run_lanes_observed, run_ordered, trial_seeds, CellObs,
    LaneAggregate, TrialMeasure, TrialObs,
};
pub use source::{FnSource, GraphSource};
