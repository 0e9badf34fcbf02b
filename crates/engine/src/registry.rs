//! The experiment registry behind the unified `xp` CLI.
//!
//! Experiments register a [`spec`](ExperimentSpec) — subcommand name,
//! paper id, one-line claim, default seed, run function — and
//! [`Registry::main`] provides the whole command line: `xp list`,
//! `xp validate`, `xp <experiment> [flags]`, with the shared flag set of
//! [`CliOptions`]. [`Registry::run_named`] runs one experiment under
//! already-parsed options.

use crate::json;
use crate::json::JsonValue;
use crate::options::CliOptions;
use crate::record::{
    perf_fields, RunSummary, RunWriter, CELL_TYPE, DIAGNOSTIC_TYPE, FAULT_TYPE, LINT_TYPE,
    PERF_TYPE, RUN_TYPE,
};
use crate::runner::CellObs;
use nonsearch_analysis::Table;
use nonsearch_obs::{PhaseTimes, Tracer};
use std::io;
use std::io::Write;

/// One registered experiment.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentSpec {
    /// Subcommand name (kebab-case, e.g. `theorem1-weak`).
    pub name: &'static str,
    /// Paper-facing experiment id (e.g. `E1`).
    pub id: &'static str,
    /// One-line statement of the claim the experiment reproduces.
    pub claim: &'static str,
    /// Root seed used when `--seed` is not given.
    pub default_seed: u64,
    /// The experiment body.
    pub run: fn(&mut ExpContext),
}

/// Everything an experiment body needs: parsed options, the resolved
/// root seed, and the structured-record sink.
pub struct ExpContext<'a> {
    /// The run's options (quick, threads, sweep overrides, …).
    pub options: &'a CliOptions,
    /// The resolved root seed (`--seed` override or the spec default).
    pub seed: u64,
    /// Structured-record sink; inert without `--out`.
    pub writer: &'a mut RunWriter,
    /// Span tracer; enabled only under `--trace PATH` (clones share one
    /// event buffer, so experiments pass it down to worker scopes).
    pub tracer: Tracer,
}

/// An ordered collection of experiments with CLI dispatch.
#[derive(Default)]
pub struct Registry {
    specs: Vec<ExperimentSpec>,
    usage_notes: Vec<String>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Adds an experiment.
    ///
    /// # Panics
    ///
    /// Panics if `spec.name` is already registered.
    pub fn register(&mut self, spec: ExperimentSpec) -> &mut Registry {
        assert!(
            self.find(spec.name).is_none(),
            "duplicate experiment name {:?}",
            spec.name
        );
        self.specs.push(spec);
        self
    }

    /// The registered experiments, in registration order.
    pub fn specs(&self) -> &[ExperimentSpec] {
        &self.specs
    }

    /// Appends a line to the `xp help` text — for tool subcommands the
    /// front-end binary dispatches before this registry (e.g. `corpus`).
    pub fn add_usage_note(&mut self, line: impl Into<String>) -> &mut Registry {
        self.usage_notes.push(line.into());
        self
    }

    /// Looks an experiment up by subcommand name.
    pub fn find(&self, name: &str) -> Option<&ExperimentSpec> {
        self.specs.iter().find(|s| s.name == name)
    }

    /// Runs one experiment under `options`, returning what was written.
    pub fn run_named(&self, name: &str, options: &CliOptions) -> io::Result<RunSummary> {
        let spec = self.find(name).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::NotFound,
                format!("no experiment named {name:?}; see `xp list`"),
            )
        })?;
        let mut writer = RunWriter::create(spec.name, options)?;
        let tracer = if options.trace.is_some() {
            Tracer::enabled()
        } else {
            Tracer::disabled()
        };
        let mut ctx = ExpContext {
            options,
            seed: options.seed_or(spec.default_seed),
            writer: &mut writer,
            tracer: tracer.clone(),
        };
        {
            let _run_span = tracer.span("run");
            (spec.run)(&mut ctx);
        }
        let seed = ctx.seed;
        let mut summary = writer.finish(seed)?;
        if let (Some(path), Some(json)) = (&options.trace, tracer.to_chrome_trace()) {
            let mut file = io::BufWriter::new(std::fs::File::create(path)?);
            writeln!(file, "{json}")?;
            file.flush()?;
            summary.paths.push(path.clone());
        }
        Ok(summary)
    }

    /// The full `xp` command line. Returns the process exit code.
    pub fn main(&self, args: &[String]) -> i32 {
        match args.first().map(String::as_str) {
            None | Some("help" | "--help" | "-h") => {
                print!("{}", self.usage());
                0
            }
            Some("list") => {
                print!("{}", self.list_table());
                0
            }
            Some("validate") => {
                if args.len() < 2 {
                    eprintln!("usage: xp validate <runs.jsonl | run.trace.json>...");
                    return 2;
                }
                let mut ok = true;
                for path in &args[1..] {
                    match std::fs::read_to_string(path) {
                        // Chrome-trace exports are one JSON document, not
                        // JSONL; route them to the structural trace check.
                        Ok(text) if path.ends_with(".trace.json") => {
                            match validate_chrome_trace(&text) {
                                Ok(events) => {
                                    println!("{path}: {events} trace events — OK")
                                }
                                Err(e) => {
                                    eprintln!("{path}: INVALID — {e}");
                                    ok = false;
                                }
                            }
                        }
                        Ok(text) => match validate_jsonl(&text) {
                            Ok(v) => println!("{path}: {v}"),
                            Err(e) => {
                                eprintln!("{path}: INVALID — {e}");
                                ok = false;
                            }
                        },
                        Err(e) => {
                            eprintln!("{path}: cannot read — {e}");
                            ok = false;
                        }
                    }
                }
                i32::from(!ok)
            }
            Some("profile-diff") => crate::profile_diff::main(&args[1..]),
            Some("report") => crate::report::main(&args[1..]),
            Some(name) => {
                let options = match CliOptions::from_args(args[1..].iter().cloned()) {
                    Ok(options) => options,
                    Err(e) => {
                        eprintln!("xp {name}: {e}");
                        return 2;
                    }
                };
                if self.find(name).is_none() {
                    eprintln!("xp: no experiment named {name:?}; registered experiments:");
                    for spec in &self.specs {
                        eprintln!("  {}", spec.name);
                    }
                    return 2;
                }
                match self.run_named(name, &options) {
                    Ok(summary) => {
                        if summary.paths.is_empty() {
                            println!(
                                "[{name}] {} cells in {} ms (no --out; records discarded)",
                                summary.cells, summary.wall_ms
                            );
                        } else {
                            let paths: Vec<String> = summary
                                .paths
                                .iter()
                                .map(|p| p.display().to_string())
                                .collect();
                            println!(
                                "[{name}] wrote {} cells to {} in {} ms",
                                summary.cells,
                                paths.join(" + "),
                                summary.wall_ms
                            );
                        }
                        0
                    }
                    Err(e) => {
                        eprintln!("xp {name}: {e}");
                        1
                    }
                }
            }
        }
    }

    /// The `xp list` table.
    pub fn list_table(&self) -> Table {
        let mut t = Table::with_columns(&["subcommand", "id", "seed", "claim"]);
        for spec in &self.specs {
            t.row(vec![
                spec.name.to_string(),
                spec.id.to_string(),
                format!("{:#x}", spec.default_seed),
                spec.claim.to_string(),
            ]);
        }
        t
    }

    /// The `xp help` text.
    pub fn usage(&self) -> String {
        let mut out = String::from(
            "xp — unified Monte-Carlo experiment runner\n\
             \n\
             usage:\n\
             \x20 xp list                      enumerate registered experiments\n\
             \x20 xp <experiment> [flags]      run one experiment\n\
             \x20 xp validate <file>...        check emitted JSONL run records (and .trace.json exports)\n\
             \x20 xp profile-diff <suite.json> --baseline FILE\n\
             \x20                             gate an `xp bench` suite record against a committed one\n\
             \x20 xp report <run.jsonl>        render a run's records as a terminal summary\n\
             \n\
             shared flags:\n\
             \x20 --quick            reduced sweep\n\
             \x20 --threads N        trial-engine workers (0 = all cores)\n\
             \x20 --seed S           override the experiment's root seed\n\
             \x20 --out PATH         write structured run records to PATH\n\
             \x20 --format F         jsonl (default) | csv | both\n\
             \x20 --trials N         override the per-cell trial count (N ≥ 1)\n\
             \x20 --sizes A,B,C      override the size sweep\n\
             \x20 --corpus DIR       serve trial graphs from a stored corpus\n\
             \x20 --mmap             zero-copy corpus loads via memory-mapped files\n\
             \x20 --profile          one perf record per cell (counters, throughput, phases) in the JSONL out\n\
             \x20 --trace PATH       write run/cell/trial spans as Chrome Trace Event JSON\n\
             \x20 --heal             quarantine + regenerate corrupt corpus blobs instead of failing\n\
             \n\
             experiments:\n",
        );
        for spec in &self.specs {
            out.push_str(&format!(
                "  {:<18} {:<4} {}\n",
                spec.name, spec.id, spec.claim
            ));
        }
        if !self.usage_notes.is_empty() {
            out.push_str("\ntools:\n");
            for note in &self.usage_notes {
                out.push_str(&format!("  {note}\n"));
            }
        }
        out
    }
}

/// What [`validate_jsonl`] found in a well-formed record stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ValidateSummary {
    /// `"type":"cell"` records.
    pub cells: usize,
    /// `"type":"run"` footers.
    pub runs: usize,
    /// `"type":"perf"` per-cell performance records (`--profile`).
    pub perfs: usize,
    /// `"type":"fault"` injected-fault records (`xp chaos`).
    pub faults: usize,
    /// `"type":"diagnostic"` `xp lint` findings.
    pub diagnostics: usize,
    /// `"type":"lint"` `xp lint` report footers.
    pub lints: usize,
}

impl std::fmt::Display for ValidateSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} cell records, {} run footers, {} perf records, {} fault records, \
             {} diagnostic records, {} lint footers — OK",
            self.cells, self.runs, self.perfs, self.faults, self.diagnostics, self.lints
        )
    }
}

/// The string fields every `"type":"fault"` record must carry, each
/// non-empty: the fault kind (`panic`, `stall`, `storage`, …) and how
/// the run absorbed it (`retried`, `skipped`, `healed`, …).
const FAULT_REQUIRED_STR: [&str; 2] = ["kind", "outcome"];

/// The string fields every `"type":"diagnostic"` record must carry,
/// each non-empty.
const DIAGNOSTIC_REQUIRED_STR: [&str; 3] = ["rule", "path", "message"];

/// The numeric fields every `"type":"lint"` footer must carry, each a
/// finite non-negative number.
const LINT_REQUIRED: [&str; 4] = ["files", "diagnostics", "waived", "violations"];

/// Checks that every non-empty line is a JSON object tagged `cell`,
/// `run`, `perf`, `fault` (`xp chaos` injected-fault records),
/// `diagnostic`, or `lint` (the last two are `xp lint` reports); that
/// each carries its kind's required fields — for perf records, finite
/// non-negative counters with whole `trials`/`requests`, a histogram
/// summing to `trials`, phases within the wall envelope, and (on Linux)
/// a positive peak RSS; and that at least one record is present.
pub fn validate_jsonl(text: &str) -> Result<ValidateSummary, String> {
    let mut summary = ValidateSummary::default();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let value = json::parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let count = match value.get("type").and_then(|t| t.as_str()) {
            Some(t) if t == CELL_TYPE => Ok(&mut summary.cells),
            Some(t) if t == RUN_TYPE => Ok(&mut summary.runs),
            Some(t) if t == PERF_TYPE => check_perf(&value).map(|()| &mut summary.perfs),
            Some(t) if t == FAULT_TYPE => {
                strings(&value, "fault record", &FAULT_REQUIRED_STR).map(|()| &mut summary.faults)
            }
            Some(t) if t == DIAGNOSTIC_TYPE => {
                strings(&value, "diagnostic record", &DIAGNOSTIC_REQUIRED_STR)
                    .and_then(|()| number(&value, "diagnostic record", "line"))
                    .and_then(|_| match value.get("waived").and_then(|v| v.as_bool()) {
                        Some(_) => Ok(&mut summary.diagnostics),
                        None => Err("diagnostic record is missing boolean field \"waived\"".into()),
                    })
            }
            Some(t) if t == LINT_TYPE => LINT_REQUIRED
                .iter()
                .try_for_each(|key| number(&value, "lint footer", key).map(drop))
                .map(|()| &mut summary.lints),
            Some(t) => Err(format!("unknown record type {t:?}")),
            None => Err("record is not an object with a \"type\" tag".to_string()),
        };
        *count.map_err(|e| format!("line {}: {e}", lineno + 1))? += 1;
    }
    let total = summary.cells
        + summary.runs
        + summary.perfs
        + summary.faults
        + summary.diagnostics
        + summary.lints;
    if total == 0 {
        return Err("no records found".to_string());
    }
    Ok(summary)
}

/// `value[key]` as a finite non-negative number; `kind` names the record
/// in the error.
fn number(value: &JsonValue, kind: &str, key: &str) -> Result<f64, String> {
    match value.get(key).and_then(|v| v.as_f64()) {
        Some(x) if x.is_finite() && x >= 0.0 => Ok(x),
        Some(x) => Err(format!(
            "{kind} field {key:?} is not a finite non-negative number (got {x})"
        )),
        None => Err(format!("{kind} is missing numeric field {key:?}")),
    }
}

/// Checks every `keys` field of `value` is a non-empty string.
fn strings(value: &JsonValue, kind: &str, keys: &[&str]) -> Result<(), String> {
    for key in keys {
        match value.get(key).and_then(|v| v.as_str()) {
            Some(s) if !s.is_empty() => {}
            _ => return Err(format!("{kind} is missing non-empty string field {key:?}")),
        }
    }
    Ok(())
}

/// Checks one perf record: `n` and every scalar field [`perf_fields`]
/// writes are finite non-negative numbers; `trials` and `requests` are whole numbers (they
/// come from exact `u64` counters, never a `mean × trials` product); the
/// `hist_requests_log2` buckets are whole and sum to `trials`; the phase
/// times fit the per-worker wall envelope; and (on Linux, where `/proc`
/// sampling always works) the peak RSS is positive.
fn check_perf(value: &JsonValue) -> Result<(), String> {
    let field = |key: &str| number(value, "perf record", key);
    let scalars = perf_fields(&CellObs::default());
    for key in std::iter::once("n").chain(scalars.iter().map(|&(key, _)| key)) {
        if key != "hist_requests_log2" {
            field(key)?;
        }
    }
    for key in ["trials", "requests"] {
        let x = field(key)?;
        if x.fract() != 0.0 {
            return Err(format!(
                "perf field {key:?} is not a whole number (got {x})"
            ));
        }
    }
    let buckets = value
        .get("hist_requests_log2")
        .and_then(|v| v.as_array())
        .ok_or_else(|| "perf record is missing array field \"hist_requests_log2\"".to_string())?;
    let mut bucket_sum = 0.0f64;
    for (i, bucket) in buckets.iter().enumerate() {
        match bucket.as_f64() {
            Some(x) if x.is_finite() && x >= 0.0 && x.fract() == 0.0 => bucket_sum += x,
            _ => {
                return Err(format!(
                    "histogram bucket {i} is not a whole non-negative number"
                ))
            }
        }
    }
    let trials = field("trials")?;
    if bucket_sum != trials {
        return Err(format!(
            "histogram bucket counts sum to {bucket_sum}, but the record claims {trials} trials"
        ));
    }
    // Per-worker busy time is bounded by the wall envelope: wall ×
    // (workers + 1), the +1 being the consumer thread that owns the
    // merge phase; one extra ms of slack absorbs timer granularity.
    let (wall_ms, workers) = (field("wall_ms")?, field("workers")?);
    let phase_sum: f64 = PhaseTimes::new()
        .named()
        .iter()
        .map(|&(key, _)| field(key))
        .sum::<Result<f64, String>>()?;
    let envelope_ns = (wall_ms + 1.0) * 1e6 * (workers + 1.0);
    if phase_sum > envelope_ns {
        return Err(format!(
            "phase times sum to {phase_sum} ns, exceeding the wall envelope of \
             {envelope_ns} ns ({} ms × {} threads)",
            wall_ms + 1.0,
            workers + 1.0
        ));
    }
    if cfg!(target_os = "linux") && field("peak_rss_bytes")? == 0.0 {
        return Err(
            "perf record claims zero peak RSS (the /proc sampler always reports \
                    a positive VmHWM on Linux)"
                .to_string(),
        );
    }
    Ok(())
}

/// Structurally validates a Chrome Trace Event Format export (the
/// `--trace` output): one JSON document with a `traceEvents` array whose
/// entries are complete events (`"ph":"X"`) carrying a non-empty name
/// and finite non-negative `ts`/`dur`/`pid`/`tid`. Returns the event
/// count.
pub fn validate_chrome_trace(text: &str) -> Result<usize, String> {
    let doc = json::parse(text.trim()).map_err(|e| e.to_string())?;
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .ok_or_else(|| "document has no \"traceEvents\" array".to_string())?;
    if events.is_empty() {
        return Err("trace contains no events".to_string());
    }
    for (i, event) in events.iter().enumerate() {
        if event.get("ph").and_then(|v| v.as_str()) != Some("X") {
            return Err(format!(
                "event {i}: expected a complete event (\"ph\":\"X\")"
            ));
        }
        match event.get("name").and_then(|v| v.as_str()) {
            Some(name) if !name.is_empty() => {}
            _ => return Err(format!("event {i}: missing or empty \"name\"")),
        }
        for key in ["ts", "dur", "pid", "tid"] {
            match event.get(key).and_then(|v| v.as_f64()) {
                Some(x) if x.is_finite() && x >= 0.0 => {}
                _ => {
                    return Err(format!(
                        "event {i}: field {key:?} is not a finite non-negative number"
                    ))
                }
            }
        }
    }
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::JsonValue;

    fn demo_run(ctx: &mut ExpContext) {
        for n in ctx.options.sweep(&[8, 16, 32]) {
            ctx.writer
                .record_cell(vec![
                    ("n", JsonValue::from(n)),
                    ("seed", JsonValue::from(ctx.seed)),
                ])
                .expect("write cell record");
        }
    }

    fn demo_registry() -> Registry {
        let mut r = Registry::new();
        r.register(ExperimentSpec {
            name: "demo",
            id: "E0",
            claim: "a demonstration",
            default_seed: 0xD0,
            run: demo_run,
        });
        r
    }

    #[test]
    fn register_find_and_list() {
        let r = demo_registry();
        assert_eq!(r.specs().len(), 1);
        assert!(r.find("demo").is_some());
        assert!(r.find("nope").is_none());
        let listing = r.list_table().to_string();
        assert!(listing.contains("demo"));
        assert!(listing.contains("E0"));
        assert!(r.usage().contains("demo"));
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_names_panic() {
        let mut r = demo_registry();
        r.register(ExperimentSpec {
            name: "demo",
            id: "E0",
            claim: "again",
            default_seed: 0,
            run: demo_run,
        });
    }

    #[test]
    fn run_named_writes_records_and_honours_seed_override() {
        let path = std::env::temp_dir().join(format!("xp_registry_{}.jsonl", std::process::id()));
        let options = CliOptions {
            out: Some(path.clone()),
            seed: Some(99),
            sizes: Some(vec![4, 8]),
            ..CliOptions::default()
        };
        let summary = demo_registry().run_named("demo", &options).unwrap();
        assert_eq!(summary.cells, 2);
        let text = std::fs::read_to_string(&path).unwrap();
        let v = validate_jsonl(&text).unwrap();
        assert_eq!(
            v,
            ValidateSummary {
                cells: 2,
                runs: 1,
                ..Default::default()
            }
        );
        let first = json::parse(text.lines().next().unwrap()).unwrap();
        assert_eq!(first.get("seed").and_then(|x| x.as_f64()), Some(99.0));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn run_named_unknown_is_not_found() {
        let err = demo_registry()
            .run_named("missing", &CliOptions::default())
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
    }

    #[test]
    fn validate_rejects_garbage() {
        assert!(validate_jsonl("").is_err());
        assert!(validate_jsonl("{not json}").is_err());
        assert!(validate_jsonl("{\"type\":\"alien\"}").is_err());
        assert!(validate_jsonl("[1,2]").is_err());
        let ok = validate_jsonl("{\"type\":\"cell\"}\n\n{\"type\":\"run\"}\n").unwrap();
        assert_eq!(
            ok,
            ValidateSummary {
                cells: 1,
                runs: 1,
                ..Default::default()
            }
        );
    }

    /// A well-formed perf record: 3 trials, 21 requests, 10 ms on 2
    /// workers.
    const PERF: &str = "{\"type\":\"perf\",\"n\":128,\"trials\":3,\"requests\":21,\"lanes\":1,\
                        \"wall_ms\":10.0,\"requests_per_sec\":2100.0,\"discoveries\":9,\
                        \"edge_resolutions\":12,\"frontier_rescans\":2,\"scratch_resets\":3,\
                        \"faults_injected\":1,\"trials_retried\":1,\"trials_skipped\":0,\
                        \"hist_requests_log2\":[0,0,0,3],\"workers\":2,\
                        \"phase_generate_ns\":2000000,\"phase_load_ns\":0,\
                        \"phase_search_ns\":18000000,\"phase_harvest_ns\":500000,\
                        \"phase_merge_ns\":1000000,\"allocations\":0,\
                        \"peak_rss_bytes\":52428800,\"minor_faults\":120,\
                        \"major_faults\":0,\"voluntary_ctx_switches\":4}\n";

    #[test]
    fn validate_checks_profile_fields() {
        // The throughput half of the perf record.
        let ok = validate_jsonl(PERF).unwrap();
        assert_eq!(
            ok,
            ValidateSummary {
                perfs: 1,
                ..Default::default()
            }
        );
        // A missing throughput field is an error, not a shrug.
        let missing = PERF.replace(",\"requests_per_sec\":2100.0", "");
        let err = validate_jsonl(&missing).unwrap_err();
        assert!(
            err.contains("missing") && err.contains("requests_per_sec"),
            "{err}"
        );
        // So is a non-finite or negative value.
        let negative = PERF.replace("\"wall_ms\":10.0", "\"wall_ms\":-1");
        let err = validate_jsonl(&negative).unwrap_err();
        assert!(err.contains("wall_ms"), "{err}");
    }

    #[test]
    fn validate_checks_metrics_fields_and_histogram_sum() {
        // The counter half of the perf record. A missing counter is an
        // error.
        let missing = PERF.replace(",\"discoveries\":9", "");
        let err = validate_jsonl(&missing).unwrap_err();
        assert!(
            err.contains("missing") && err.contains("discoveries"),
            "{err}"
        );
        // A missing histogram is an error.
        let no_hist = PERF.replace(",\"hist_requests_log2\":[0,0,0,3]", "");
        let err = validate_jsonl(&no_hist).unwrap_err();
        assert!(err.contains("hist_requests_log2"), "{err}");
        // Bucket counts must sum to the trial count.
        let drifted = PERF.replace("[0,0,0,3]", "[0,0,0,2]");
        let err = validate_jsonl(&drifted).unwrap_err();
        assert!(err.contains("sum"), "{err}");
        // Negative counters are rejected.
        let negative = PERF.replace("\"discoveries\":9", "\"discoveries\":-1");
        let err = validate_jsonl(&negative).unwrap_err();
        assert!(err.contains("discoveries"), "{err}");
        // Counts are exact integers: a `mean × trials` product that
        // lands off a whole number is rejected, for trials too.
        let fractional = PERF.replace("\"requests\":21", "\"requests\":20.999999999999996");
        let err = validate_jsonl(&fractional).unwrap_err();
        assert!(err.contains("requests") && err.contains("whole"), "{err}");
        let fractional = PERF.replace("\"trials\":3", "\"trials\":3.5");
        let err = validate_jsonl(&fractional).unwrap_err();
        assert!(err.contains("trials") && err.contains("whole"), "{err}");
    }

    #[test]
    fn validate_checks_fault_fields() {
        let good = "{\"type\":\"fault\",\"experiment\":\"maxdeg\",\"kind\":\"panic\",\
                    \"trial\":7,\"attempt\":0,\"outcome\":\"retried\"}\n";
        let ok = validate_jsonl(good).unwrap();
        assert_eq!(
            ok,
            ValidateSummary {
                faults: 1,
                ..Default::default()
            }
        );
        // The fault kind and outcome must be present and non-empty.
        let missing = good.replace(",\"kind\":\"panic\"", "");
        let err = validate_jsonl(&missing).unwrap_err();
        assert!(err.contains("kind"), "{err}");
        let empty = good.replace("\"outcome\":\"retried\"", "\"outcome\":\"\"");
        let err = validate_jsonl(&empty).unwrap_err();
        assert!(err.contains("outcome"), "{err}");
    }

    #[test]
    fn validate_checks_resource_fields_and_bounds() {
        // The resource half of the perf record. A missing field is an
        // error.
        let missing = PERF.replace(",\"phase_merge_ns\":1000000", "");
        let err = validate_jsonl(&missing).unwrap_err();
        assert!(err.contains("phase_merge_ns"), "{err}");
        // Non-finite and negative values are rejected.
        let negative = PERF.replace("\"minor_faults\":120", "\"minor_faults\":-1");
        let err = validate_jsonl(&negative).unwrap_err();
        assert!(err.contains("minor_faults"), "{err}");
        // Phase sums beyond the wall × (workers + 1) envelope are
        // rejected: 10+1 ms × 3 threads = 33e6 ns, so 40e6 in one
        // phase breaks the bound.
        let runaway = PERF.replace(
            "\"phase_search_ns\":18000000",
            "\"phase_search_ns\":40000000",
        );
        let err = validate_jsonl(&runaway).unwrap_err();
        assert!(err.contains("envelope"), "{err}");
        // Zero RSS is impossible on Linux, where /proc always answers.
        if cfg!(target_os = "linux") {
            let no_rss = PERF.replace("\"peak_rss_bytes\":52428800", "\"peak_rss_bytes\":0");
            let err = validate_jsonl(&no_rss).unwrap_err();
            assert!(err.contains("RSS"), "{err}");
        }
    }

    #[test]
    fn validate_checks_diagnostic_fields() {
        let good = "{\"type\":\"diagnostic\",\"rule\":\"clock-env\",\
                    \"path\":\"crates/bench/src/lib.rs\",\"line\":190,\
                    \"message\":\"Instant::now outside the obs seam\",\
                    \"waived\":true}\n";
        let ok = validate_jsonl(good).unwrap();
        assert_eq!(
            ok,
            ValidateSummary {
                diagnostics: 1,
                ..Default::default()
            }
        );
        // Every identifying string must be present and non-empty.
        let missing = good.replace(",\"path\":\"crates/bench/src/lib.rs\"", "");
        let err = validate_jsonl(&missing).unwrap_err();
        assert!(err.contains("path"), "{err}");
        let empty = good.replace("\"rule\":\"clock-env\"", "\"rule\":\"\"");
        let err = validate_jsonl(&empty).unwrap_err();
        assert!(err.contains("rule"), "{err}");
        // The line number must be a finite non-negative number.
        let bad_line = good.replace("\"line\":190", "\"line\":-3");
        let err = validate_jsonl(&bad_line).unwrap_err();
        assert!(err.contains("line"), "{err}");
        // Waived must be a boolean, not a reason string.
        let bad_waived = good.replace("\"waived\":true", "\"waived\":\"yes\"");
        let err = validate_jsonl(&bad_waived).unwrap_err();
        assert!(err.contains("waived"), "{err}");
    }

    #[test]
    fn validate_checks_lint_footer_fields() {
        let good = "{\"type\":\"lint\",\"files\":42,\"diagnostics\":3,\
                    \"waived\":3,\"violations\":0}\n";
        let ok = validate_jsonl(good).unwrap();
        assert_eq!(
            ok,
            ValidateSummary {
                lints: 1,
                ..Default::default()
            }
        );
        let missing = good.replace(",\"violations\":0", "");
        let err = validate_jsonl(&missing).unwrap_err();
        assert!(err.contains("violations"), "{err}");
        let negative = good.replace("\"diagnostics\":3", "\"diagnostics\":-1");
        let err = validate_jsonl(&negative).unwrap_err();
        assert!(err.contains("diagnostics"), "{err}");
    }

    #[test]
    fn validate_chrome_trace_checks_structure() {
        let good = "{\"traceEvents\":[{\"name\":\"run\",\"cat\":\"nonsearch\",\"ph\":\"X\",\
                    \"ts\":0,\"dur\":1200,\"pid\":1,\"tid\":1}]}";
        assert_eq!(validate_chrome_trace(good), Ok(1));
        // Trailing newline (as written by run_named) is fine.
        assert_eq!(validate_chrome_trace(&format!("{good}\n")), Ok(1));
        assert!(validate_chrome_trace("{}").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\":[]}").is_err());
        assert!(validate_chrome_trace("not json").is_err());
        let bad_phase = good.replace("\"ph\":\"X\"", "\"ph\":\"B\"");
        assert!(validate_chrome_trace(&bad_phase).is_err());
        let bad_ts = good.replace("\"ts\":0", "\"ts\":-4");
        assert!(validate_chrome_trace(&bad_ts).is_err());
        let no_name = good.replace("\"name\":\"run\",", "");
        assert!(validate_chrome_trace(&no_name).is_err());
    }

    #[test]
    fn run_named_writes_a_chrome_trace_under_trace_flag() {
        let trace_path =
            std::env::temp_dir().join(format!("xp_registry_{}.trace.json", std::process::id()));
        let options = CliOptions {
            trace: Some(trace_path.clone()),
            sizes: Some(vec![4]),
            ..CliOptions::default()
        };
        let summary = demo_registry().run_named("demo", &options).unwrap();
        assert!(summary.paths.contains(&trace_path));
        let text = std::fs::read_to_string(&trace_path).unwrap();
        // At minimum the "run" span around the experiment body exists.
        let events = validate_chrome_trace(&text).unwrap();
        assert!(events >= 1);
        assert!(text.contains("\"name\":\"run\""));
        std::fs::remove_file(&trace_path).ok();
    }

    #[test]
    fn run_named_without_trace_flag_keeps_tracer_disabled() {
        // The spec's run fn can't capture, so probe through a static.
        static TRACER_WAS_ENABLED: std::sync::atomic::AtomicBool =
            std::sync::atomic::AtomicBool::new(true);
        fn probe_run(ctx: &mut ExpContext) {
            TRACER_WAS_ENABLED.store(
                ctx.tracer.is_enabled(),
                std::sync::atomic::Ordering::Relaxed,
            );
        }
        let mut r = Registry::new();
        r.register(ExperimentSpec {
            name: "probe",
            id: "E0",
            claim: "tracer probe",
            default_seed: 0,
            run: probe_run,
        });
        let summary = r.run_named("probe", &CliOptions::default()).unwrap();
        assert!(!TRACER_WAS_ENABLED.load(std::sync::atomic::Ordering::Relaxed));
        assert!(summary.paths.is_empty());
    }
}
