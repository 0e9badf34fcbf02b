//! Structured run records: JSON Lines and CSV alongside pretty tables.
//!
//! A run produces a stream of **cell records** — one JSON object per
//! measured cell, with deterministic content (params, seed, aggregates)
//! — followed by a single **run record** carrying the volatile envelope:
//! wall time, worker threads, git describe. Keeping the volatile fields
//! out of the cell records is what makes "same seed ⇒ byte-identical
//! cell lines, regardless of `--threads`" testable; the determinism
//! suite compares everything but the `"type":"run"` footer. Under
//! `--profile` each measured cell also gets one volatile
//! `"type":"perf"` record, on the JSONL stream only.

use crate::json::JsonValue;
use crate::options::{CliOptions, OutputFormat};
use crate::runner::CellObs;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The JSONL `type` tag of per-cell records.
pub const CELL_TYPE: &str = "cell";
/// The JSONL `type` tag of the run footer.
pub const RUN_TYPE: &str = "run";
/// The JSONL `type` tag of the per-cell performance record (`--profile`):
/// exact work counters, throughput, phase timers, allocation counts and
/// the `/proc` sample of one measured cell. Wall-clock data rides it, so
/// it is JSONL-only and never part of determinism-gated lines.
pub const PERF_TYPE: &str = "perf";
/// The JSONL `type` tag of injected-fault records emitted by chaos runs
/// (`xp chaos`): one per fault a seeded plan injected, carrying the
/// trial/attempt (or file) it hit and how the run absorbed it. Fault
/// records describe the *perturbation*, never the measurements, so they
/// are JSONL-only and determinism gates keep filtering on
/// `"type":"cell"`.
pub const FAULT_TYPE: &str = "fault";
/// The JSONL `type` tag of `xp lint` static-analysis findings (one per
/// flagged source line, waived or not).
pub const DIAGNOSTIC_TYPE: &str = "diagnostic";
/// The JSONL `type` tag of the `xp lint` report footer (file and
/// finding counts for the whole pass).
pub const LINT_TYPE: &str = "lint";

/// Sink for one experiment run's structured records.
///
/// Created inert (no files) when the options carry no `--out`; every
/// method is then a cheap no-op, so experiments emit records
/// unconditionally.
pub struct RunWriter {
    experiment: String,
    quick: bool,
    /// `--profile`: whether [`RunWriter::record_perf`] writes anything.
    profile: bool,
    /// Resolved worker ceiling recorded in the footer (`--threads`, with
    /// `0` resolved to the core count). Individual cells may use fewer
    /// workers — the engine also caps at each cell's trial count.
    threads: usize,
    jsonl: Option<(PathBuf, BufWriter<File>)>,
    csv: Option<CsvSink>,
    cells: usize,
    perfs: usize,
    faults: usize,
    start: Instant,
}

struct CsvSink {
    path: PathBuf,
    writer: BufWriter<File>,
    header: Option<Vec<String>>,
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
    /// Opens the sinks requested by `options` for `experiment`.
    pub fn create(experiment: &str, options: &CliOptions) -> io::Result<RunWriter> {
        let mut jsonl = None;
        let mut csv = None;
        if let Some(out) = &options.out {
            match options.format {
                OutputFormat::Jsonl => jsonl = Some(open(out)?),
                OutputFormat::Csv => csv = Some(CsvSink::open(out)?),
                OutputFormat::Both => {
                    // If --out already ends in .csv, with_extension is a
                    // no-op and both sinks would clobber one file; move
                    // the JSONL stream to a .jsonl sibling instead.
                    let csv_path = out.with_extension("csv");
                    let jsonl_path = if csv_path == *out {
                        out.with_extension("jsonl")
                    } else {
                        out.clone()
                    };
                    jsonl = Some(open(&jsonl_path)?);
                    csv = Some(CsvSink::open(&csv_path)?);
                }
            }
        }
        Ok(RunWriter {
            experiment: experiment.to_string(),
            quick: options.quick,
            profile: options.profile,
            threads: options.resolved_threads(),
            jsonl,
            csv,
            cells: 0,
            perfs: 0,
            faults: 0,
            start: Instant::now(),
        })
    }

    /// An inert writer (no `--out`); useful in tests and library callers.
    pub fn sink(experiment: &str) -> RunWriter {
        RunWriter::create(experiment, &CliOptions::default()).expect("inert writer cannot fail")
    }

    /// `true` when at least one structured sink is open.
    pub fn is_active(&self) -> bool {
        self.jsonl.is_some() || self.csv.is_some()
    }

    /// Writes one cell record. `fields` keep their order; `type` and
    /// `experiment` are prepended. Within one run every cell should use
    /// the same key set, so the CSV rows line up under one header.
    pub fn record_cell(&mut self, fields: Vec<(&str, JsonValue)>) -> io::Result<()> {
        self.record_cell_degraded(fields, false)
    }

    /// [`record_cell`](RunWriter::record_cell) for cells that may have
    /// been abandoned by the chaos watchdog: when `degraded` is true a
    /// trailing `"degraded":true` field marks the record as a partial
    /// aggregate. Healthy cells carry no such field, so fault-free runs
    /// emit byte-identical lines through either method.
    pub fn record_cell_degraded(
        &mut self,
        fields: Vec<(&str, JsonValue)>,
        degraded: bool,
    ) -> io::Result<()> {
        self.cells += 1;
        if !self.is_active() {
            return Ok(());
        }
        let mut pairs = self.tagged(CELL_TYPE, fields);
        if degraded {
            pairs.push(("degraded".into(), JsonValue::from(true)));
        }
        if let Some((_, w)) = &mut self.jsonl {
            writeln!(w, "{}", JsonValue::Object(pairs.clone()))?;
        }
        if let Some(csv) = &mut self.csv {
            csv.row(&pairs)?;
        }
        Ok(())
    }

    /// Writes one perf record (`--profile`; a no-op without it): the
    /// identifying `fields` (model, size, …) followed by
    /// [`perf_fields`]`(obs)`. Perf records carry volatile timing, so
    /// they go to the JSONL stream only — never to CSV, whose single
    /// header is shaped by the deterministic cell rows — and determinism
    /// checks keep filtering on `"type":"cell"`.
    pub fn record_perf(
        &mut self,
        mut fields: Vec<(&str, JsonValue)>,
        obs: &CellObs,
    ) -> io::Result<()> {
        if !self.profile {
            return Ok(());
        }
        self.perfs += 1;
        fields.extend(perf_fields(obs));
        self.write_jsonl_only(PERF_TYPE, fields)
    }

    /// Writes one injected-fault record (`xp chaos`). Like perf
    /// records these carry run-specific perturbation data — which
    /// trial/attempt or file a seeded fault hit and how it was absorbed
    /// — so they ride the JSONL stream only and determinism `cmp` gates
    /// keep filtering on `"type":"cell"`.
    pub fn record_fault(&mut self, fields: Vec<(&str, JsonValue)>) -> io::Result<()> {
        self.faults += 1;
        self.write_jsonl_only(FAULT_TYPE, fields)
    }

    /// Writes one `tag` record to the JSONL sink only (if any).
    fn write_jsonl_only(&mut self, tag: &str, fields: Vec<(&str, JsonValue)>) -> io::Result<()> {
        let pairs = self.tagged(tag, fields);
        if let Some((_, w)) = &mut self.jsonl {
            writeln!(w, "{}", JsonValue::Object(pairs))?;
        }
        Ok(())
    }

    /// `fields` with `type` and `experiment` prepended.
    fn tagged(&self, tag: &str, fields: Vec<(&str, JsonValue)>) -> Vec<(String, JsonValue)> {
        let mut pairs = Vec::with_capacity(fields.len() + 3);
        pairs.push(("type".into(), JsonValue::from(tag)));
        pairs.push(("experiment".into(), JsonValue::Str(self.experiment.clone())));
        pairs.extend(fields.into_iter().map(|(k, v)| (k.to_string(), v)));
        pairs
    }

    /// Writes the run footer (seed, quick, threads, git describe, wall
    /// time, cell count), flushes, and reports what was written.
    pub fn finish(mut self, seed: u64) -> io::Result<RunSummary> {
        let wall_ms = self.start.elapsed().as_millis();
        let mut paths = Vec::new();
        if let Some((path, mut w)) = self.jsonl.take() {
            let footer = JsonValue::object(vec![
                ("type", JsonValue::from(RUN_TYPE)),
                ("experiment", JsonValue::Str(self.experiment.clone())),
                ("seed", JsonValue::from(seed)),
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
        if let Some(mut csv) = self.csv.take() {
            csv.writer.flush()?;
            paths.push(csv.path);
        }
        Ok(RunSummary {
            cells: self.cells,
            wall_ms,
            paths,
        })
    }
}

fn open(path: &Path) -> io::Result<(PathBuf, BufWriter<File>)> {
    Ok((path.to_path_buf(), BufWriter::new(File::create(path)?)))
}

impl CsvSink {
    fn open(path: &Path) -> io::Result<CsvSink> {
        let (path, writer) = open(path)?;
        Ok(CsvSink {
            path,
            writer,
            header: None,
        })
    }

    fn row(&mut self, pairs: &[(String, JsonValue)]) -> io::Result<()> {
        if self.header.is_none() {
            let keys: Vec<String> = pairs.iter().map(|(k, _)| k.clone()).collect();
            let line: Vec<String> = keys.iter().map(|k| csv_escape(k)).collect();
            writeln!(self.writer, "{}", line.join(","))?;
            self.header = Some(keys);
        }
        let header = self.header.as_ref().expect("header just ensured");
        let line: Vec<String> = header
            .iter()
            .map(|key| {
                pairs
                    .iter()
                    .find(|(k, _)| k == key)
                    .map_or(String::new(), |(_, v)| csv_cell(v))
            })
            .collect();
        writeln!(self.writer, "{}", line.join(","))
    }
}

fn csv_cell(value: &JsonValue) -> String {
    match value {
        JsonValue::Null => String::new(),
        JsonValue::Str(s) => csv_escape(s),
        other => csv_escape(&other.to_string()),
    }
}

fn csv_escape(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') || s.contains('\r') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// The canonical JSON payload of a perf record, in a fixed order:
///
/// * throughput — `trials` and `requests` (the exact `u64` counters of
///   the folded trials), `lanes`, the cell's `wall_ms`, and
///   `requests_per_sec`;
/// * the remaining counters — the four work counters, then the three
///   chaos counters (`faults_injected`, `trials_retried`,
///   `trials_skipped`, all zero in fault-free runs) — and
///   `hist_requests_log2`, the per-trial request-count histogram in its
///   trimmed form (bucket `0` counts zero-request trials; bucket `k ≥ 1`
///   counts trials with total requests in `[2^(k−1), 2^k)`);
/// * resources — `workers` (per-worker busy time can total up to
///   `wall_ms × (workers + 1)`, the `+ 1` being the consumer thread that
///   owns the merge phase), the five phase timers, the heap-allocation
///   count harvested across trial bodies, and the `/proc` sample.
///
/// `xp validate` checks the counts are whole, the histogram sums to
/// `trials`, and the phases fit the wall envelope.
pub fn perf_fields(obs: &CellObs) -> Vec<(&'static str, JsonValue)> {
    let m = &obs.metrics;
    let mut fields = vec![
        ("trials", JsonValue::from(m.trials)),
        ("requests", JsonValue::from(m.requests)),
        ("lanes", JsonValue::from(obs.lanes)),
        ("wall_ms", JsonValue::from(obs.wall_ms())),
        ("requests_per_sec", JsonValue::from(obs.requests_per_sec())),
        ("discoveries", JsonValue::from(m.discoveries)),
        ("edge_resolutions", JsonValue::from(m.edge_resolutions)),
        ("frontier_rescans", JsonValue::from(m.frontier_rescans)),
        ("scratch_resets", JsonValue::from(m.scratch_resets)),
        ("faults_injected", JsonValue::from(m.faults_injected)),
        ("trials_retried", JsonValue::from(m.trials_retried)),
        ("trials_skipped", JsonValue::from(m.trials_skipped)),
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
    ];
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

    fn demo_fields(n: usize) -> Vec<(&'static str, JsonValue)> {
        vec![
            ("n", JsonValue::from(n)),
            ("mean", JsonValue::from(1.5 * n as f64)),
            ("label, quoted", JsonValue::from("a \"b\",c")),
        ]
    }

    #[test]
    fn inert_writer_counts_but_writes_nothing() {
        let mut w = RunWriter::sink("demo");
        assert!(!w.is_active());
        w.record_cell(demo_fields(1)).unwrap();
        let summary = w.finish(7).unwrap();
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
        let mut w = RunWriter::create("demo", &options).unwrap();
        w.record_cell(demo_fields(128)).unwrap();
        w.record_cell(demo_fields(256)).unwrap();
        let summary = w.finish(0xE1).unwrap();
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

    #[test]
    fn both_formats_write_csv_sibling() {
        let path = temp_path("run.jsonl");
        let options = CliOptions {
            out: Some(path.clone()),
            format: OutputFormat::Both,
            ..CliOptions::default()
        };
        let mut w = RunWriter::create("demo", &options).unwrap();
        w.record_cell(demo_fields(64)).unwrap();
        let summary = w.finish(1).unwrap();
        let csv_path = path.with_extension("csv");
        assert_eq!(summary.paths, vec![path.clone(), csv_path.clone()]);

        let csv = std::fs::read_to_string(&csv_path).unwrap();
        let mut lines = csv.lines();
        assert_eq!(
            lines.next().unwrap(),
            "type,experiment,n,mean,\"label, quoted\""
        );
        assert_eq!(lines.next().unwrap(), "cell,demo,64,96.0,\"a \"\"b\"\",c\"");
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&csv_path).ok();
    }

    #[test]
    fn both_with_csv_out_path_does_not_clobber() {
        let path = temp_path("run.csv");
        let options = CliOptions {
            out: Some(path.clone()),
            format: OutputFormat::Both,
            ..CliOptions::default()
        };
        let mut w = RunWriter::create("demo", &options).unwrap();
        w.record_cell(vec![("n", JsonValue::from(1usize))]).unwrap();
        let summary = w.finish(0).unwrap();
        let jsonl_path = path.with_extension("jsonl");
        assert_eq!(summary.paths, vec![jsonl_path.clone(), path.clone()]);
        // Both files exist with their own, intact contents.
        let jsonl = std::fs::read_to_string(&jsonl_path).unwrap();
        assert_eq!(jsonl.lines().count(), 2);
        for line in jsonl.lines() {
            json::parse(line).unwrap();
        }
        let csv = std::fs::read_to_string(&path).unwrap();
        assert!(csv.starts_with("type,experiment,n"));
        assert_eq!(csv.lines().count(), 2);
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&jsonl_path).ok();
    }

    #[test]
    fn csv_only_uses_out_path_directly() {
        let path = temp_path("run.csv");
        let options = CliOptions {
            out: Some(path.clone()),
            format: OutputFormat::Csv,
            ..CliOptions::default()
        };
        let mut w = RunWriter::create("demo", &options).unwrap();
        w.record_cell(vec![("n", JsonValue::from(1usize))]).unwrap();
        let summary = w.finish(0).unwrap();
        assert_eq!(summary.paths, vec![path.clone()]);
        let csv = std::fs::read_to_string(&path).unwrap();
        assert_eq!(csv.lines().count(), 2);
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
        obs.resource.peak_rss_bytes = 4096;
        obs
    }

    /// Writes one `--profile` run (a cell and one perf record for
    /// [`demo_obs`]) in both formats and returns the parsed perf record,
    /// the parsed footer, and the CSV sibling's text.
    fn perf_run(tag: &str) -> (JsonValue, JsonValue, String) {
        let path = temp_path(tag);
        let options = CliOptions {
            out: Some(path.clone()),
            format: OutputFormat::Both,
            profile: true,
            ..CliOptions::default()
        };
        let mut w = RunWriter::create("demo", &options).unwrap();
        w.record_cell(demo_fields(64)).unwrap();
        w.record_perf(vec![("n", JsonValue::from(64usize))], &demo_obs())
            .unwrap();
        w.finish(1).unwrap();
        let jsonl = std::fs::read_to_string(&path).unwrap();
        let perf = jsonl
            .lines()
            .find(|l| l.contains("\"type\":\"perf\""))
            .map(|l| json::parse(l).unwrap())
            .expect("perf record in JSONL");
        assert_eq!(perf.get("n").and_then(|v| v.as_f64()), Some(64.0));
        let footer = json::parse(jsonl.lines().last().unwrap()).unwrap();
        let csv_path = path.with_extension("csv");
        let csv = std::fs::read_to_string(&csv_path).unwrap();
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&csv_path).ok();
        (perf, footer, csv)
    }

    fn num(record: &JsonValue, key: &str) -> Option<f64> {
        record.get(key).and_then(|v| v.as_f64())
    }

    /// The throughput section of the perf record (what the retired
    /// `profile` record carried), and the record's JSONL-only routing.
    #[test]
    fn profile_records_are_jsonl_only() {
        let (perf, footer, csv) = perf_run("perf_profile.jsonl");
        assert_eq!(num(&perf, "trials"), Some(2.0));
        assert_eq!(num(&perf, "requests"), Some(100.0));
        assert_eq!(num(&perf, "lanes"), Some(2.0));
        assert_eq!(num(&perf, "wall_ms"), Some(12.0));
        assert_eq!(num(&perf, "requests_per_sec"), Some(100.0 / 0.012));
        assert_eq!(num(&footer, "perf"), Some(1.0));
        // The CSV sibling keeps its single cell-shaped header: no perf
        // rows leak into it.
        assert_eq!(csv.lines().count(), 2);
        assert!(!csv.contains("perf"));

        // Without --profile the same call writes and counts nothing.
        let path = temp_path("perf_off.jsonl");
        let options = CliOptions {
            out: Some(path.clone()),
            ..CliOptions::default()
        };
        let mut w = RunWriter::create("demo", &options).unwrap();
        w.record_perf(vec![], &demo_obs()).unwrap();
        w.finish(1).unwrap();
        let jsonl = std::fs::read_to_string(&path).unwrap();
        assert_eq!(jsonl.lines().count(), 1, "{jsonl}");
        assert!(jsonl.contains("\"perf\":0"), "{jsonl}");
        std::fs::remove_file(&path).ok();
    }

    /// The counter section of the perf record (what the retired
    /// `metrics` record carried).
    #[test]
    fn metrics_records_are_jsonl_only_and_counted() {
        let (perf, _, csv) = perf_run("perf_metrics.jsonl");
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
        assert!(!csv.contains("hist_requests_log2"));
    }

    /// The resource section of the perf record (what the retired
    /// `resource` record carried).
    #[test]
    fn resource_records_are_jsonl_only_and_counted() {
        let (perf, _, csv) = perf_run("perf_resource.jsonl");
        assert_eq!(num(&perf, "workers"), Some(4.0));
        assert_eq!(num(&perf, "phase_generate_ns"), Some(1000.0));
        assert_eq!(num(&perf, "phase_search_ns"), Some(5000.0));
        assert_eq!(num(&perf, "phase_load_ns"), Some(0.0));
        assert_eq!(num(&perf, "allocations"), Some(7.0));
        assert_eq!(num(&perf, "peak_rss_bytes"), Some(4096.0));
        assert_eq!(num(&perf, "voluntary_ctx_switches"), Some(0.0));
        assert!(!csv.contains("peak_rss_bytes"));
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
            format: OutputFormat::Both,
            ..CliOptions::default()
        };
        let mut w = RunWriter::create("demo", &options).unwrap();
        w.record_cell(demo_fields(64)).unwrap();
        w.record_fault(vec![
            ("kind", JsonValue::from("panic")),
            ("trial", JsonValue::from(3usize)),
            ("attempt", JsonValue::from(0usize)),
            ("outcome", JsonValue::from("retried")),
        ])
        .unwrap();
        w.finish(1).unwrap();

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
        // No fault rows leak into the CSV sibling.
        let csv_path = path.with_extension("csv");
        let csv = std::fs::read_to_string(&csv_path).unwrap();
        assert_eq!(csv.lines().count(), 2);
        assert!(!csv.contains("fault"));
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&csv_path).ok();
    }

    #[test]
    fn degraded_cells_carry_the_flag_and_healthy_cells_do_not() {
        let path = temp_path("degraded.jsonl");
        let options = CliOptions {
            out: Some(path.clone()),
            ..CliOptions::default()
        };
        let mut w = RunWriter::create("demo", &options).unwrap();
        w.record_cell_degraded(demo_fields(64), false).unwrap();
        w.record_cell_degraded(demo_fields(128), true).unwrap();
        w.finish(1).unwrap();

        let jsonl = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = jsonl.lines().collect();
        let healthy = json::parse(lines[0]).unwrap();
        assert!(healthy.get("degraded").is_none(), "healthy cell flagged");
        let degraded = json::parse(lines[1]).unwrap();
        assert_eq!(
            degraded.get("degraded").and_then(|v| v.as_bool()),
            Some(true)
        );
        let footer = json::parse(lines[2]).unwrap();
        assert_eq!(footer.get("cells").and_then(|v| v.as_f64()), Some(2.0));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn git_describe_is_nonempty() {
        assert!(!git_describe().is_empty());
    }
}
