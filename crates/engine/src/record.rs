//! Structured run records: JSON Lines alongside pretty tables.
//!
//! A run produces a stream of **cell records** — one JSON object per
//! measured cell, with deterministic content (params, seed, aggregates)
//! — followed by a single **run record** carrying the volatile envelope:
//! wall time, worker threads, git describe. Keeping the volatile fields
//! out of the cell records is what makes "same seed ⇒ byte-identical
//! cell lines, regardless of `--threads`" testable; the determinism
//! suite compares everything but the `"type":"run"` footer. Under
//! `--profile` each measured cell also gets one volatile
//! `"type":"perf"` record.
//!
//! A cell's identity is its [`CellKey`], declared once by the
//! experiment. A cell record is `type`, `experiment`, the key, `trials`,
//! `seed`, then the measures; a perf record is `type`, `experiment`, the
//! key, then [`perf_fields`] (which starts with `trials`). So "every
//! field before `trials`" is the identity of a perf record because the
//! writer puts it there. A [`CellTable`] prints the same fields to
//! stdout.
use crate::json::JsonValue;
use crate::options::CliOptions;
use crate::runner::CellObs;
use nonsearch_analysis::Table;
use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::PathBuf;
use std::time::Instant;

/// The JSONL `type` tag of per-cell records.
pub const CELL_TYPE: &str = "cell";
/// The JSONL `type` tag of the run footer.
pub const RUN_TYPE: &str = "run";
/// The JSONL `type` tag of the per-cell performance record (`--profile`):
/// exact work counters, throughput, phase timers, allocation counts and
/// the `/proc` sample of one measured cell. Wall-clock data rides it, so
/// it is never part of determinism-gated lines.
pub const PERF_TYPE: &str = "perf";
/// The JSONL `type` tag of injected-fault records emitted by chaos runs
/// (`xp chaos`): one per fault a seeded plan injected, carrying the
/// trial/attempt (or file) it hit and how the run absorbed it. Fault
/// records describe the *perturbation*, never the measurements, so
/// determinism gates keep filtering on `"type":"cell"`.
pub const FAULT_TYPE: &str = "fault";
/// The JSONL `type` tag of `xp lint` static-analysis findings (one per
/// flagged source line, waived or not).
pub const DIAGNOSTIC_TYPE: &str = "diagnostic";
/// The JSONL `type` tag of the `xp lint` report footer (file and
/// finding counts for the whole pass).
pub const LINT_TYPE: &str = "lint";

/// Sink for one experiment run's structured records.
///
/// Created inert (no file) when the options carry no `--out`; every
/// method is then a cheap no-op, so experiments emit records
/// unconditionally. Recording never fails at the call: the first write
/// error is kept, later records are dropped, and [`RunWriter::finish`]
/// returns it.
pub struct RunWriter {
    experiment: String,
    /// The run's root seed: every cell record's `seed` and the footer's.
    seed: u64,
    quick: bool,
    /// `--profile`: whether [`RunWriter::record_perf`] writes anything.
    profile: bool,
    /// Resolved worker ceiling recorded in the footer (`--threads`, with
    /// `0` resolved to the core count). Individual cells may use fewer
    /// workers — the engine also caps at each cell's trial count.
    threads: usize,
    out: Option<(PathBuf, BufWriter<File>)>,
    /// The first write error, which [`RunWriter::finish`] reports.
    error: Option<io::Error>,
    cells: usize,
    perfs: usize,
    faults: usize,
    start: Instant,
}

/// What a finished run wrote, for the CLI's closing status line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunSummary {
    /// Cell records written.
    pub cells: usize,
    /// Wall-clock duration of the run in milliseconds.
    pub wall_ms: u128,
    /// Files written (empty when the writer was inert).
    pub paths: Vec<PathBuf>,
}

impl RunWriter {
    /// Opens the `--out` file of `options` for `experiment`, run from
    /// root `seed`, if any.
    pub fn create(experiment: &str, seed: u64, options: &CliOptions) -> io::Result<RunWriter> {
        let out = match &options.out {
            Some(path) => Some((path.clone(), BufWriter::new(File::create(path)?))),
            None => None,
        };
        Ok(RunWriter {
            experiment: experiment.to_string(),
            seed,
            quick: options.quick,
            profile: options.profile,
            threads: options.resolved_threads(),
            out,
            error: None,
            cells: 0,
            perfs: 0,
            faults: 0,
            start: Instant::now(),
        })
    }

    /// Writes one cell record: `key`, `trials`, the run's `seed`, then
    /// `measures`, in that order, after `type` and `experiment`.
    pub fn record_cell(
        &mut self,
        key: &CellKey,
        trials: impl Into<JsonValue>,
        measures: &[(&str, JsonValue)],
    ) {
        self.cells += 1;
        let mut fields: Vec<(&str, JsonValue)> = key.written().collect();
        fields.push(("trials", trials.into()));
        fields.push(("seed", JsonValue::from(self.seed)));
        fields.extend(measures.iter().cloned());
        self.write(CELL_TYPE, fields)
    }

    /// Writes one perf record (`--profile`; a no-op without it): the
    /// identity fields of `key` followed by [`perf_fields`]`(obs)`. Perf
    /// records carry volatile timing, so determinism checks keep
    /// filtering on `"type":"cell"`.
    pub fn record_perf(&mut self, key: &CellKey, obs: &CellObs) {
        if !self.profile {
            return;
        }
        self.perfs += 1;
        let mut fields: Vec<(&str, JsonValue)> = key.identity().collect();
        fields.extend(perf_fields(obs));
        self.write(PERF_TYPE, fields)
    }

    /// Writes one injected-fault record (`xp chaos`). Like perf
    /// records these carry run-specific perturbation data — which
    /// trial/attempt or file a seeded fault hit and how it was absorbed
    /// — so determinism `cmp` gates keep filtering on `"type":"cell"`.
    pub fn record_fault(&mut self, fields: Vec<(&str, JsonValue)>) {
        self.faults += 1;
        self.write(FAULT_TYPE, fields)
    }

    /// Writes one `tag` record, `type` and `experiment` prepended to
    /// `fields` (a no-op without `--out` or after a write error).
    fn write(&mut self, tag: &str, fields: Vec<(&str, JsonValue)>) {
        let (Some((_, w)), None) = (&mut self.out, &self.error) else {
            return;
        };
        let mut pairs = Vec::with_capacity(fields.len() + 2);
        pairs.push(("type".into(), JsonValue::from(tag)));
        pairs.push(("experiment".into(), JsonValue::Str(self.experiment.clone())));
        pairs.extend(fields.into_iter().map(|(k, v)| (k.to_string(), v)));
        if let Err(e) = writeln!(w, "{}", JsonValue::Object(pairs)) {
            self.error = Some(e);
        }
    }

    /// Writes the run footer (seed, quick, threads, git describe, wall
    /// time, cell count), flushes, and reports what was written — or
    /// the first error any write met.
    pub fn finish(mut self) -> io::Result<RunSummary> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        let wall_ms = self.start.elapsed().as_millis();
        let mut paths = Vec::new();
        if let Some((path, mut w)) = self.out.take() {
            let footer = JsonValue::object(vec![
                ("type", JsonValue::from(RUN_TYPE)),
                ("experiment", JsonValue::Str(self.experiment.clone())),
                ("seed", JsonValue::from(self.seed)),
                ("quick", JsonValue::from(self.quick)),
                ("threads", JsonValue::from(self.threads)),
                ("git", JsonValue::from(git_describe())),
                ("wall_ms", JsonValue::from(wall_ms as u64)),
                ("cells", JsonValue::from(self.cells)),
                ("perf", JsonValue::from(self.perfs)),
                ("faults", JsonValue::from(self.faults)),
            ]);
            writeln!(w, "{footer}")?;
            w.flush()?;
            paths.push(path);
        }
        Ok(RunSummary {
            cells: self.cells,
            wall_ms,
            paths,
        })
    }
}

/// The names a [`RunWriter`] writes itself, which no key field may take.
const RESERVED: [&str; 4] = ["type", "experiment", "trials", "seed"];

/// The ordered identity fields of one measured cell — the (model,
/// parameter, n, …) point of a paper claim it measures. An experiment
/// declares it once per cell; [`RunWriter::record_cell`],
/// [`RunWriter::record_perf`] and [`CellTable::row`] all read it.
///
/// A key may also hold measures that records write in key position,
/// before `trials` ([`CellKey::measure`]); they are not identity fields,
/// so perf records leave them out.
#[derive(Debug, Clone, Default)]
pub struct CellKey {
    /// Every field in record order, with whether it identifies the cell.
    fields: Vec<(&'static str, JsonValue, bool)>,
}

impl CellKey {
    /// An empty key.
    pub fn new() -> CellKey {
        CellKey::default()
    }

    /// Appends the identity field `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is `type`, `experiment`, `trials` or `seed`
    /// (the writer's own fields) or already in the key.
    pub fn with(self, name: &'static str, value: impl Into<JsonValue>) -> CellKey {
        self.push(name, value.into(), true)
    }

    /// Appends `name` as a measure written in key position; panics as
    /// [`CellKey::with`] does.
    pub fn measure(self, name: &'static str, value: impl Into<JsonValue>) -> CellKey {
        self.push(name, value.into(), false)
    }

    fn push(mut self, name: &'static str, value: JsonValue, identity: bool) -> CellKey {
        assert!(
            !RESERVED.contains(&name),
            "{name:?} is written by the record writer, not a cell key"
        );
        assert!(
            self.fields.iter().all(|(field, ..)| *field != name),
            "{name:?} is already in the cell key"
        );
        self.fields.push((name, value, identity));
        self
    }

    /// Every field, in record order.
    fn written(&self) -> impl Iterator<Item = (&'static str, JsonValue)> + '_ {
        self.fields
            .iter()
            .map(|(name, value, _)| (*name, value.clone()))
    }

    /// The identity fields, in record order.
    fn identity(&self) -> impl Iterator<Item = (&'static str, JsonValue)> + '_ {
        self.fields
            .iter()
            .filter(|(.., identity)| *identity)
            .map(|(name, value, _)| (*name, value.clone()))
    }

    fn get(&self, name: &str) -> Option<&JsonValue> {
        self.fields
            .iter()
            .find(|(field, ..)| *field == name)
            .map(|(_, value, _)| value)
    }
}

/// One column of a [`CellTable`]: the cell field it shows, its header,
/// and the decimals a float is printed with.
pub type Column = (&'static str, &'static str, usize);

/// A stdout table whose rows are cell fields, each formatted by its
/// [`Column`]: floats to the column's decimals, `null` as `-`, `true` as
/// `yes` and `false` as `NO`.
#[derive(Debug)]
pub struct CellTable {
    columns: Vec<Column>,
    table: Table,
}

impl CellTable {
    /// An empty table with `columns`.
    pub fn new(columns: &[Column]) -> CellTable {
        let headers: Vec<&str> = columns.iter().map(|&(_, header, _)| header).collect();
        CellTable {
            columns: columns.to_vec(),
            table: Table::with_columns(&headers),
        }
    }

    /// Appends the row of the cell with `key` and `measures`.
    ///
    /// # Panics
    ///
    /// Panics if a column names a field the cell does not have.
    pub fn row(&mut self, key: &CellKey, measures: &[(&str, JsonValue)]) {
        let row = self
            .columns
            .iter()
            .map(|&(field, _, decimals)| {
                let value = key
                    .get(field)
                    .or_else(|| measures.iter().find(|(k, _)| *k == field).map(|(_, v)| v))
                    .unwrap_or_else(|| panic!("cell has no field {field:?}"));
                match value {
                    JsonValue::Float(x) => format!("{x:.decimals$}"),
                    JsonValue::Str(text) => text.clone(),
                    JsonValue::Null => "-".to_string(),
                    JsonValue::Bool(true) => "yes".to_string(),
                    JsonValue::Bool(false) => "NO".to_string(),
                    other => other.to_string(),
                }
            })
            .collect();
        self.table.row(row);
    }
}

impl fmt::Display for CellTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.table.fmt(f)
    }
}

/// The canonical JSON payload of a perf record, in a fixed order:
///
/// * throughput — `trials` and `requests` (the exact `u64` counters of
///   the folded trials), `lanes`, the cell's `wall_ms`, and
///   `requests_per_sec`;
/// * the remaining counters of [`Metrics::named`](nonsearch_obs::Metrics::named)
///   — the five work counters, then the three
///   chaos counters (`faults_injected`, `trials_retried`,
///   `trials_skipped`, all zero in fault-free runs) — and
///   `hist_requests_log2`, the per-trial request-count histogram in its
///   trimmed form (bucket `0` counts zero-request trials; bucket `k ≥ 1`
///   counts trials with total requests in `[2^(k−1), 2^k)`);
/// * resources — `workers` (per-worker busy time can total up to
///   `wall_ms × (workers + 1)`, the `+ 1` being the consumer thread that
///   owns the merge phase), the six phase timers, the heap-allocation
///   count harvested across trial bodies, and the `/proc` sample.
///
/// `xp validate` checks the counts are whole, the histogram sums to
/// `trials`, and the phases fit the wall envelope.
pub fn perf_fields(obs: &CellObs) -> Vec<(&'static str, JsonValue)> {
    let m = &obs.metrics;
    let counters = m
        .named()
        .map(|(name, count)| (name, JsonValue::from(count)));
    let (throughput, work) = counters.split_at(2);
    let mut fields = throughput.to_vec();
    fields.extend([
        ("lanes", JsonValue::from(obs.lanes)),
        ("wall_ms", JsonValue::from(obs.wall_ms())),
        ("requests_per_sec", JsonValue::from(obs.requests_per_sec())),
    ]);
    fields.extend_from_slice(work);
    fields.extend([
        (
            "hist_requests_log2",
            JsonValue::Array(
                m.trial_requests
                    .trimmed()
                    .iter()
                    .map(|&count| JsonValue::from(count))
                    .collect(),
            ),
        ),
        ("workers", JsonValue::from(obs.workers)),
    ]);
    fields.extend(
        obs.phases
            .named()
            .into_iter()
            .map(|(name, ns)| (name, JsonValue::from(ns))),
    );
    let r = &obs.resource;
    fields.extend([
        ("allocations", JsonValue::from(obs.allocations)),
        ("peak_rss_bytes", JsonValue::from(r.peak_rss_bytes)),
        ("minor_faults", JsonValue::from(r.minor_faults)),
        ("major_faults", JsonValue::from(r.major_faults)),
        (
            "voluntary_ctx_switches",
            JsonValue::from(r.voluntary_ctx_switches),
        ),
    ]);
    fields
}

/// `git describe --always --dirty`, or `"unknown"` outside a work tree.
pub fn git_describe() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::profile_diff::identity_keys;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_path(tag: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let unique = NEXT.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "nonsearch_engine_{}_{}_{tag}",
            std::process::id(),
            unique
        ))
    }

    /// Writes one demo cell of size `n`.
    fn demo_cell(w: &mut RunWriter, n: usize) {
        let measures = [
            ("mean", JsonValue::from(1.5 * n as f64)),
            ("label, quoted", JsonValue::from("a \"b\",c")),
        ];
        w.record_cell(&CellKey::new().with("n", n), 3usize, &measures);
    }

    #[test]
    fn inert_writer_counts_but_writes_nothing() {
        let mut w = RunWriter::create("demo", 7, &CliOptions::default()).unwrap();
        demo_cell(&mut w, 1);
        let summary = w.finish().unwrap();
        assert_eq!(summary.cells, 1);
        assert!(summary.paths.is_empty());
    }

    #[test]
    fn jsonl_records_parse_and_footer_carries_meta() {
        let path = temp_path("run.jsonl");
        let options = CliOptions {
            out: Some(path.clone()),
            threads: 3,
            quick: true,
            ..CliOptions::default()
        };
        let mut w = RunWriter::create("demo", 0xE1, &options).unwrap();
        demo_cell(&mut w, 128);
        demo_cell(&mut w, 256);
        let summary = w.finish().unwrap();
        assert_eq!(summary.cells, 2);
        assert_eq!(summary.paths, vec![path.clone()]);

        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        for line in &lines {
            json::parse(line).unwrap();
        }
        let first = json::parse(lines[0]).unwrap();
        assert_eq!(first.get("type").and_then(|v| v.as_str()), Some(CELL_TYPE));
        assert_eq!(
            first.get("experiment").and_then(|v| v.as_str()),
            Some("demo")
        );
        assert_eq!(first.get("n").and_then(|v| v.as_f64()), Some(128.0));
        let footer = json::parse(lines[2]).unwrap();
        assert_eq!(footer.get("type").and_then(|v| v.as_str()), Some(RUN_TYPE));
        assert_eq!(footer.get("seed").and_then(|v| v.as_f64()), Some(225.0));
        assert_eq!(footer.get("cells").and_then(|v| v.as_f64()), Some(2.0));
        assert_eq!(footer.get("threads").and_then(|v| v.as_f64()), Some(3.0));
        assert!(footer.get("git").is_some());
        assert!(footer.get("wall_ms").is_some());
        std::fs::remove_file(&path).ok();
    }

    /// A three-trial cell's observation, as the runner would report it.
    fn demo_obs() -> CellObs {
        let mut obs = CellObs {
            lanes: 2,
            workers: 4,
            wall_ns: 12_000_000,
            allocations: 7,
            ..CellObs::default()
        };
        obs.metrics.trials = 2;
        obs.metrics.requests = 100;
        obs.metrics.observe_trial_requests(60);
        obs.metrics.observe_trial_requests(40);
        obs.phases.generate_ns = 1_000;
        obs.phases.search_ns = 5_000;
        obs.phases.analyze_ns = 2_000;
        obs.resource.peak_rss_bytes = 4096;
        obs
    }

    /// Writes one `--profile` run (a cell and one perf record for
    /// [`demo_obs`]) and returns the parsed perf record and the parsed
    /// footer.
    fn perf_run(tag: &str) -> (JsonValue, JsonValue) {
        let path = temp_path(tag);
        let options = CliOptions {
            out: Some(path.clone()),
            profile: true,
            ..CliOptions::default()
        };
        let mut w = RunWriter::create("demo", 1, &options).unwrap();
        demo_cell(&mut w, 64);
        w.record_perf(&CellKey::new().with("n", 64usize), &demo_obs());
        w.finish().unwrap();
        let jsonl = std::fs::read_to_string(&path).unwrap();
        let perf = jsonl
            .lines()
            .find(|l| l.contains("\"type\":\"perf\""))
            .map(|l| json::parse(l).unwrap())
            .expect("perf record in JSONL");
        assert_eq!(perf.get("n").and_then(|v| v.as_f64()), Some(64.0));
        let footer = json::parse(jsonl.lines().last().unwrap()).unwrap();
        std::fs::remove_file(&path).ok();
        (perf, footer)
    }

    fn num(record: &JsonValue, key: &str) -> Option<f64> {
        record.get(key).and_then(|v| v.as_f64())
    }

    /// The throughput section of the perf record (what the retired
    /// `profile` record carried).
    #[test]
    fn profile_records_are_jsonl_only() {
        let (perf, footer) = perf_run("perf_profile.jsonl");
        assert_eq!(num(&perf, "trials"), Some(2.0));
        assert_eq!(num(&perf, "requests"), Some(100.0));
        assert_eq!(num(&perf, "lanes"), Some(2.0));
        assert_eq!(num(&perf, "wall_ms"), Some(12.0));
        assert_eq!(num(&perf, "requests_per_sec"), Some(100.0 / 0.012));
        assert_eq!(num(&footer, "perf"), Some(1.0));

        // Without --profile the same call writes and counts nothing.
        let path = temp_path("perf_off.jsonl");
        let options = CliOptions {
            out: Some(path.clone()),
            ..CliOptions::default()
        };
        let mut w = RunWriter::create("demo", 1, &options).unwrap();
        w.record_perf(&CellKey::new(), &demo_obs());
        w.finish().unwrap();
        let jsonl = std::fs::read_to_string(&path).unwrap();
        assert_eq!(jsonl.lines().count(), 1, "{jsonl}");
        assert!(jsonl.contains("\"perf\":0"), "{jsonl}");
        std::fs::remove_file(&path).ok();
    }

    /// The counter section of the perf record (what the retired
    /// `metrics` record carried).
    #[test]
    fn metrics_records_are_jsonl_only_and_counted() {
        let (perf, _) = perf_run("perf_metrics.jsonl");
        assert_eq!(num(&perf, "trials"), Some(2.0));
        assert_eq!(num(&perf, "requests"), Some(100.0));
        for counter in ["discoveries", "edge_resolutions", "trials_skipped"] {
            assert_eq!(num(&perf, counter), Some(0.0), "{counter}");
        }
        // Both samples land in bucket 6 ([32, 64)); the trimmed array
        // covers buckets 0..=6 and its counts sum to the trial count.
        let hist = perf
            .get("hist_requests_log2")
            .and_then(|v| v.as_array())
            .expect("histogram array");
        assert_eq!(hist.len(), 7);
        assert_eq!(hist.iter().filter_map(|v| v.as_f64()).sum::<f64>(), 2.0);
    }

    /// The resource section of the perf record (what the retired
    /// `resource` record carried).
    #[test]
    fn resource_records_are_jsonl_only_and_counted() {
        let (perf, _) = perf_run("perf_resource.jsonl");
        assert_eq!(num(&perf, "workers"), Some(4.0));
        assert_eq!(num(&perf, "phase_generate_ns"), Some(1000.0));
        assert_eq!(num(&perf, "phase_search_ns"), Some(5000.0));
        assert_eq!(num(&perf, "phase_analyze_ns"), Some(2000.0));
        assert_eq!(num(&perf, "phase_load_ns"), Some(0.0));
        assert_eq!(num(&perf, "allocations"), Some(7.0));
        assert_eq!(num(&perf, "peak_rss_bytes"), Some(4096.0));
        assert_eq!(num(&perf, "voluntary_ctx_switches"), Some(0.0));
    }

    #[test]
    fn perf_requests_count_only_the_folded_trials_under_skip() {
        // Trials 0, 3, 6, … are dropped by the Skip policy. The perf
        // record's `requests` must be the exact sum over the trials that
        // were folded — never the lane mean times the configured trial
        // count, which over-counts the skipped ones.
        use crate::{install_faults, run_lanes_observed, FailurePolicy, FaultInjection};
        use crate::{InjectedFault, TrialMeasure};
        use nonsearch_generators::SeedSequence;
        let trials = 20;
        let seeds = SeedSequence::new(5);
        let requests = |trial: usize| 10 + 3 * trial as u64;
        let _scope = install_faults(FaultInjection {
            policy: FailurePolicy::Skip,
            hook: Some(std::sync::Arc::new(|trial, _| {
                (trial % 3 == 0).then_some(InjectedFault::Panic)
            })),
            cell_deadline_ms: None,
        });
        let (lanes, obs) = run_lanes_observed(
            trials,
            1,
            2,
            &seeds,
            || (),
            |(), o, trial, _| {
                o.metrics.requests = requests(trial);
                vec![TrialMeasure::new(requests(trial) as f64, true)]
            },
        );
        let folded: u64 = (0..trials).filter(|t| t % 3 != 0).map(requests).sum();
        let skipped = (0..trials).filter(|t| t % 3 == 0).count() as u64;
        assert_eq!(lanes[0].count(), trials as u64 - skipped);
        assert!(lanes[0].mean() * trials as f64 > folded as f64 + 1.0);

        let fields = perf_fields(&obs);
        let field = |key: &str| {
            fields
                .iter()
                .find(|(k, _)| *k == key)
                .and_then(|(_, v)| v.as_f64())
        };
        assert_eq!(field("requests"), Some(folded as f64));
        assert_eq!(field("trials"), Some((trials as u64 - skipped) as f64));
        assert_eq!(field("trials_skipped"), Some(skipped as f64));
    }

    #[test]
    fn fault_records_are_jsonl_only_and_counted() {
        let path = temp_path("fault.jsonl");
        let options = CliOptions {
            out: Some(path.clone()),
            ..CliOptions::default()
        };
        let mut w = RunWriter::create("demo", 1, &options).unwrap();
        demo_cell(&mut w, 64);
        w.record_fault(vec![
            ("kind", JsonValue::from("panic")),
            ("trial", JsonValue::from(3usize)),
            ("attempt", JsonValue::from(0usize)),
            ("outcome", JsonValue::from("retried")),
        ]);
        w.finish().unwrap();

        let jsonl = std::fs::read_to_string(&path).unwrap();
        let line = jsonl
            .lines()
            .find(|l| l.contains("\"type\":\"fault\""))
            .expect("fault record in JSONL");
        let parsed = json::parse(line).unwrap();
        assert_eq!(
            parsed.get("type").and_then(|v| v.as_str()),
            Some(FAULT_TYPE)
        );
        assert_eq!(parsed.get("kind").and_then(|v| v.as_str()), Some("panic"));
        assert_eq!(parsed.get("trial").and_then(|v| v.as_f64()), Some(3.0));
        let footer = json::parse(jsonl.lines().last().unwrap()).unwrap();
        assert_eq!(footer.get("faults").and_then(|v| v.as_f64()), Some(1.0));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_failed_write_is_kept_and_returned_by_finish() {
        let full = PathBuf::from("/dev/full");
        if !full.exists() {
            return;
        }
        let options = CliOptions {
            out: Some(full),
            ..CliOptions::default()
        };
        let mut w = RunWriter::create("demo", 1, &options).unwrap();
        // Far more than one buffer's worth, so writes fail mid-run.
        for n in 0..1000 {
            demo_cell(&mut w, n);
        }
        assert!(w.error.is_some());
        assert!(w.finish().is_err());
    }

    /// The field names of a parsed record, in order.
    fn names(record: &JsonValue) -> Vec<&str> {
        match record {
            JsonValue::Object(pairs) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
            _ => Vec::new(),
        }
    }

    #[test]
    fn records_write_the_key_then_trials_seed_and_measures() {
        let path = temp_path("key.jsonl");
        let options = CliOptions {
            out: Some(path.clone()),
            profile: true,
            ..CliOptions::default()
        };
        let key = CellKey::new()
            .with("model", "mori")
            .with("p", 0.5)
            .measure("bound", 8.8)
            .with("n", 512usize);
        let mut w = RunWriter::create("demo", 9, &options).unwrap();
        w.record_cell(&key, 3usize, &[("mean", JsonValue::from(2.0))]);
        w.record_perf(&key, &demo_obs());
        w.finish().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let records: Vec<JsonValue> = text.lines().map(|l| json::parse(l).unwrap()).collect();
        assert_eq!(
            names(&records[0]),
            [
                "type",
                "experiment",
                "model",
                "p",
                "bound",
                "n",
                "trials",
                "seed",
                "mean"
            ]
        );
        assert_eq!(records[0].get("seed").and_then(|v| v.as_u64()), Some(9));

        // The perf record's identity, read back by the positional rule,
        // is exactly the key's identity fields in order: the measure
        // written in key position is not one of them.
        let identity: Vec<(String, JsonValue)> = identity_keys(&records[1]).cloned().collect();
        let want = [
            ("experiment", JsonValue::from("demo")),
            ("model", JsonValue::from("mori")),
            ("p", JsonValue::from(0.5)),
            ("n", JsonValue::from(512usize)),
        ]
        .map(|(k, v)| (k.to_string(), v));
        assert_eq!(identity, want);
    }

    #[test]
    fn keys_reject_the_writers_fields_and_repeats() {
        for name in ["type", "experiment", "trials", "seed"] {
            let result = std::panic::catch_unwind(|| CellKey::new().with(name, 1usize));
            assert!(result.is_err(), "{name} accepted as a key field");
            let result = std::panic::catch_unwind(|| CellKey::new().measure(name, 1usize));
            assert!(result.is_err(), "{name} accepted as a key measure");
        }
        let repeat =
            std::panic::catch_unwind(|| CellKey::new().with("n", 1usize).with("n", 2usize));
        assert!(repeat.is_err());
        let repeat =
            std::panic::catch_unwind(|| CellKey::new().with("n", 1usize).measure("n", 2usize));
        assert!(repeat.is_err());
    }

    #[test]
    fn cell_tables_format_key_and_measure_fields() {
        let mut table = CellTable::new(&[
            ("n", "n", 0),
            ("mean", "mean requests", 1),
            ("exponent", "exponent", 3),
            ("holds", "holds", 0),
        ]);
        let key = CellKey::new().with("n", 512usize);
        for (mean, exponent, holds) in [(198.66, Some(0.5), true), (7.04, None, false)] {
            let measures = [
                ("mean", JsonValue::from(mean)),
                ("exponent", JsonValue::from(exponent)),
                ("holds", JsonValue::from(holds)),
            ];
            table.row(&key, &measures);
        }
        let text = table.to_string();
        let rows: Vec<Vec<&str>> = text
            .lines()
            .skip(2)
            .map(|l| l.split_whitespace().collect())
            .collect();
        assert_eq!(
            rows,
            [["512", "198.7", "0.500", "yes"], ["512", "7.0", "-", "NO"]]
        );
    }

    #[test]
    #[should_panic(expected = "no field \"ci95\"")]
    fn cell_tables_reject_a_missing_field() {
        CellTable::new(&[("ci95", "ci95", 1)]).row(&CellKey::new(), &[]);
    }

    #[test]
    fn git_describe_is_nonempty() {
        assert!(!git_describe().is_empty());
    }
}
