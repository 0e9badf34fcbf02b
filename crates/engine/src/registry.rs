//! The `xp` command table: every subcommand, experiment
//! ([`ExperimentSpec`]) or tool ([`ToolSpec`]), in one [`Registry`].
//! [`Registry::main`] is the whole command line: `xp help`, `xp list`,
//! `xp NAME --help`, and dispatch to the named experiment (its flags
//! parsed into [`CliOptions`]) or tool. [`Registry::run_named`] runs
//! one experiment under already-parsed options.

use crate::json;
use crate::json::JsonValue;
use crate::options::{ArgScanner, CliOptions};
use crate::record::{
    perf_fields, RunSummary, RunWriter, CELL_TYPE, DIAGNOSTIC_TYPE, FAULT_TYPE, LINT_TYPE,
    PERF_TYPE, RUN_TYPE,
};
use crate::runner::CellObs;
use nonsearch_analysis::Table;
use nonsearch_obs::{Metrics, PhaseTimes, Tracer};
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
    /// The experiment body. An error (e.g. a `--corpus` that cannot be
    /// opened) ends the run: `xp` prints it and exits 1.
    pub run: fn(&mut ExpContext) -> io::Result<()>,
}

/// One registered tool: an `xp` subcommand that is not an experiment.
#[derive(Debug, Clone, Copy)]
pub struct ToolSpec {
    /// Subcommand name (e.g. `corpus`).
    pub name: &'static str,
    /// One-line summary for `xp help`.
    pub summary: &'static str,
    /// The help text `xp NAME --help` prints.
    pub usage: fn() -> String,
    /// The tool body: takes the arguments after the name and returns
    /// the exit code (`0` ok, `1` a failed check, `2` a usage or I/O
    /// error).
    pub main: fn(&[String]) -> i32,
}

impl ToolSpec {
    /// Reports the usage error `e` with the tool's help text and
    /// returns the exit code `2`.
    pub fn usage_error(&self, e: impl std::fmt::Display) -> i32 {
        eprint!("xp {}: {e}\n\n{}", self.name, (self.usage)());
        2
    }
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

/// The `xp` command table: experiments and tools, with CLI dispatch.
pub struct Registry {
    specs: Vec<ExperimentSpec>,
    tools: Vec<ToolSpec>,
}

impl Default for Registry {
    /// A table holding the engine's tools (`validate`, `report`,
    /// `profile-diff`) and no experiments.
    fn default() -> Registry {
        Registry {
            specs: Vec::new(),
            tools: vec![
                VALIDATE_TOOL,
                crate::report::TOOL,
                crate::profile_diff::TOOL,
            ],
        }
    }
}

/// The flags every experiment reads, as `xp help` lists them.
const EXPERIMENT_FLAGS: &str = "  --quick            reduced sweep
  --threads N        trial-engine workers (0 = all cores)
  --seed S           override the experiment's root seed
  --out PATH         write JSON Lines run records to PATH
  --trials N         override the per-cell trial count (N ≥ 1)
  --sizes A,B,C      override the size sweep
  --corpus DIR       serve trial graphs from a stored corpus
  --mmap             accepted and ignored (corpus loads always map their files)
  --profile          one perf record per cell (counters, throughput, phases) in the JSONL out
  --trace PATH       write run/cell/trial spans as Chrome Trace Event JSON
  --heal             quarantine + regenerate corrupt corpus blobs instead of failing
";

impl Registry {
    /// Adds an experiment.
    ///
    /// # Panics
    ///
    /// Panics if `spec.name` is already registered.
    pub fn register(&mut self, spec: ExperimentSpec) -> &mut Registry {
        self.assert_new(spec.name);
        self.specs.push(spec);
        self
    }

    /// Adds a tool; panics, as [`register`](Registry::register) does,
    /// if `tool.name` is already registered.
    pub fn register_tool(&mut self, tool: ToolSpec) -> &mut Registry {
        self.assert_new(tool.name);
        self.tools.push(tool);
        self
    }

    fn assert_new(&self, name: &str) {
        assert!(
            self.names().all(|n| n != name),
            "duplicate subcommand name {name:?}"
        );
    }

    /// Every subcommand name in the table: the experiments, then the
    /// tools.
    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        let experiments = self.specs.iter().map(|s| s.name);
        experiments.chain(self.tools.iter().map(|t| t.name))
    }

    /// Looks an experiment up by subcommand name.
    pub fn find(&self, name: &str) -> Option<&ExperimentSpec> {
        self.specs.iter().find(|s| s.name == name)
    }

    /// Runs one experiment under `options`, returning what was written,
    /// or the first error of the experiment body or the record sink.
    pub fn run_named(&self, name: &str, options: &CliOptions) -> io::Result<RunSummary> {
        let spec = self.find(name).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::NotFound,
                format!("no experiment named {name:?}; see `xp list`"),
            )
        })?;
        let seed = options.seed_or(spec.default_seed);
        let mut writer = RunWriter::create(spec.name, seed, options)?;
        let tracer = if options.trace.is_some() {
            Tracer::enabled()
        } else {
            Tracer::disabled()
        };
        let mut ctx = ExpContext {
            options,
            seed,
            writer: &mut writer,
            tracer: tracer.clone(),
        };
        {
            let _run_span = tracer.span("run");
            (spec.run)(&mut ctx)?;
        }
        let mut summary = writer.finish()?;
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
        let Some((name, rest)) = args.split_first() else {
            print!("{}", self.usage());
            return 0;
        };
        let help = matches!(
            rest.first().map(String::as_str),
            Some("--help" | "-h" | "help")
        );
        let tool = self.tools.iter().find(|t| t.name == name);
        match (name.as_str(), tool, self.find(name)) {
            ("help" | "--help" | "-h", ..) => print!("{}", self.usage()),
            ("list", ..) => print!("{}", self.list_table()),
            (_, Some(tool), _) if help => print!("{}", (tool.usage)()),
            (_, Some(tool), _) => return (tool.main)(rest),
            (_, _, Some(spec)) if help => print!(
                "xp {name} — {}: {}\n\nusage: xp {name} [flags]   (default seed {:#x})\n\n\
                 flags:\n{EXPERIMENT_FLAGS}",
                spec.id, spec.claim, spec.default_seed
            ),
            (_, _, Some(spec)) => return self.run_experiment(spec, rest),
            _ => {
                eprintln!("xp: no subcommand named {name:?}; registered subcommands:");
                self.names().for_each(|name| eprintln!("  {name}"));
                return 2;
            }
        }
        0
    }

    /// `xp NAME [flags]` for the experiment `spec`.
    fn run_experiment(&self, spec: &ExperimentSpec, args: &[String]) -> i32 {
        let name = spec.name;
        let options = match CliOptions::from_args(args) {
            Ok(options) => options,
            Err(e) => {
                eprintln!("xp {name}: {e}");
                return 2;
            }
        };
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

    /// The `xp list` table.
    fn list_table(&self) -> Table {
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
             \x20 xp <tool> [args]             run one tool\n\
             \x20 xp <name> --help             help for one experiment or tool\n\
             \n\
             experiments:\n",
        );
        for spec in &self.specs {
            out.push_str(&format!(
                "  {:<18} {:<4} {}\n",
                spec.name, spec.id, spec.claim
            ));
        }
        out.push_str("\ntools:\n");
        for tool in &self.tools {
            out.push_str(&format!("  {:<18} {}\n", tool.name, tool.summary));
        }
        out.push_str("\nexperiment flags:\n");
        out.push_str(EXPERIMENT_FLAGS);
        out
    }
}

/// `xp validate`: checks emitted record files.
const VALIDATE_TOOL: ToolSpec = ToolSpec {
    name: "validate",
    summary: "check emitted JSONL run records (and .trace.json exports)",
    usage: || "usage: xp validate <runs.jsonl | run.trace.json>...\n".to_string(),
    main: validate_main,
};

/// The `xp validate` body. Returns the process exit code.
fn validate_main(args: &[String]) -> i32 {
    let mut paths = Vec::new();
    let scanned = ArgScanner::scan(args, |arg, _| {
        let positional = !arg.starts_with("--");
        if positional {
            paths.push(arg.to_string());
        }
        Ok(positional)
    });
    if let Err(e) = scanned {
        return VALIDATE_TOOL.usage_error(e);
    }
    if paths.is_empty() {
        return VALIDATE_TOOL.usage_error("no files given");
    }
    let mut ok = true;
    for path in &paths {
        let checked = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read — {e}"))
            .and_then(|text| {
                // Chrome-trace exports are one JSON document, not JSONL;
                // route them to the structural trace check.
                let verdict = if path.ends_with(".trace.json") {
                    validate_chrome_trace(&text).map(|events| format!("{events} trace events — OK"))
                } else {
                    validate_jsonl(&text).map(|v| v.to_string())
                };
                verdict.map_err(|e| format!("INVALID — {e}"))
            });
        match checked {
            Ok(verdict) => println!("{path}: {verdict}"),
            Err(e) => {
                eprintln!("{path}: {e}");
                ok = false;
            }
        }
    }
    i32::from(!ok)
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
/// each carries its kind's required fields — for cell records, the
/// layout [`RunWriter::record_cell`](crate::RunWriter::record_cell)
/// writes; for perf records, finite
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
            Some(t) if t == CELL_TYPE => check_cell(&value).map(|()| &mut summary.cells),
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

/// Checks one cell record's layout, the one
/// [`RunWriter::record_cell`](crate::RunWriter::record_cell) writes:
/// `type`, then `experiment` (a non-empty string), then at least one
/// key field, then `trials`, then `seed` (a whole number), then the
/// measures. `trials` is a whole number ≥ 1, or `null` for a cell that
/// is computed exactly and samples nothing (`lemma2-equiv`'s exact
/// checks).
fn check_cell(value: &JsonValue) -> Result<(), String> {
    let JsonValue::Object(fields) = value else {
        return Err("cell record is not an object".to_string());
    };
    let whole = |v: &JsonValue, min: f64| {
        v.as_f64()
            .is_some_and(|x| x.is_finite() && x >= min && x.fract() == 0.0)
    };
    match fields.get(1) {
        Some((key, JsonValue::Str(name))) if key == "experiment" && !name.is_empty() => {}
        _ => {
            return Err(
                "cell record is missing non-empty string field \"experiment\" (second field)"
                    .to_string(),
            )
        }
    }
    let Some(at) = fields.iter().position(|(key, _)| key == "trials") else {
        return Err("cell record is missing field \"trials\"".to_string());
    };
    if at < 3 {
        return Err(
            "cell record has no key field between \"experiment\" and \"trials\"".to_string(),
        );
    }
    let trials = &fields[at].1;
    if *trials != JsonValue::Null && !whole(trials, 1.0) {
        return Err(format!(
            "cell record field \"trials\" is not a whole number >= 1 or null (got {trials})"
        ));
    }
    match fields.get(at + 1) {
        Some((key, seed)) if key == "seed" && whole(seed, 0.0) => Ok(()),
        _ => Err(
            "cell record is missing whole-number field \"seed\" right after \"trials\"".to_string(),
        ),
    }
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
/// writes are finite non-negative numbers; the [`Metrics`] counters are
/// whole numbers (they come from exact `u64` counters, never a
/// `mean × trials` product); the
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
    for (key, _) in Metrics::new().named() {
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
    use crate::record::CellKey;

    fn demo_run(ctx: &mut ExpContext) -> io::Result<()> {
        for n in ctx.options.sweep(&[8, 16, 32]) {
            ctx.writer
                .record_cell(&CellKey::new().with("n", n), JsonValue::Null, &[]);
        }
        Ok(())
    }

    fn demo_registry() -> Registry {
        let mut r = Registry::default();
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
        assert_eq!(r.names().count(), 1 + r.tools.len());
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
        let ok = validate_jsonl(&format!("{CELL}\n\n{{\"type\":\"run\"}}\n")).unwrap();
        assert_eq!(
            ok,
            ValidateSummary {
                cells: 1,
                runs: 1,
                ..Default::default()
            }
        );
    }

    /// A well-formed cell record, as `RunWriter::record_cell` writes it.
    const CELL: &str = "{\"type\":\"cell\",\"experiment\":\"demo\",\"n\":8,\"trials\":3,\
                        \"seed\":208,\"mean\":2.5}";

    #[test]
    fn validate_checks_the_cell_layout() {
        let reject = |text: &str, field: &str| {
            let err = validate_jsonl(&format!("{CELL}\n{text}\n")).unwrap_err();
            assert!(err.starts_with("line 2: "), "{err}");
            assert!(err.contains(&format!("\"{field}\"")), "{field}: {err}");
        };
        reject("{\"type\":\"cell\"}", "experiment");
        reject("{\"type\":\"cell\",\"experiment\":\"x\",\"n\":1}", "trials");
        reject(
            "{\"type\":\"cell\",\"experiment\":\"\",\"n\":1,\"trials\":1,\"seed\":0}",
            "experiment",
        );
        reject(
            "{\"type\":\"cell\",\"n\":1,\"experiment\":\"x\",\"trials\":1,\"seed\":0}",
            "experiment",
        );
        // `trials` before the key: no identity field precedes it.
        reject(
            "{\"type\":\"cell\",\"experiment\":\"x\",\"trials\":3,\"seed\":0,\"n\":1}",
            "trials",
        );
        reject(&CELL.replace("\"trials\":3", "\"trials\":0"), "trials");
        reject(&CELL.replace("\"trials\":3", "\"trials\":2.5"), "trials");
        reject(&CELL.replace("\"seed\":208", "\"seed\":-1"), "seed");
        reject(
            &CELL.replace("\"seed\":208,\"mean\":2.5", "\"mean\":2.5,\"seed\":208"),
            "seed",
        );
        // An exact cell samples nothing: its `trials` is null.
        let exact = CELL.replace("\"trials\":3", "\"trials\":null");
        assert_eq!(validate_jsonl(&exact).unwrap().cells, 1);
    }

    /// A well-formed perf record: 3 trials, 21 requests, 10 ms on 2
    /// workers.
    const PERF: &str = "{\"type\":\"perf\",\"n\":128,\"trials\":3,\"requests\":21,\"lanes\":1,\
                        \"wall_ms\":10.0,\"requests_per_sec\":2100.0,\"discoveries\":9,\
                        \"edge_resolutions\":12,\"frontier_rescans\":2,\"slot_reads\":40,\"scratch_resets\":3,\
                        \"faults_injected\":1,\"trials_retried\":1,\"trials_skipped\":0,\
                        \"hist_requests_log2\":[0,0,0,3],\"workers\":2,\
                        \"phase_generate_ns\":2000000,\"phase_load_ns\":0,\
                        \"phase_search_ns\":18000000,\"phase_analyze_ns\":0,\
                        \"phase_harvest_ns\":500000,\
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
        fn probe_run(ctx: &mut ExpContext) -> io::Result<()> {
            TRACER_WAS_ENABLED.store(
                ctx.tracer.to_chrome_trace().is_some(),
                std::sync::atomic::Ordering::Relaxed,
            );
            Ok(())
        }
        let mut r = Registry::default();
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
