//! `xp chaos` — the deterministic fault-injection gate.
//!
//! Runs a registered experiment twice — once clean, once under a seeded
//! [`FaultPlan`] injecting worker panics through the engine's retry
//! policy — and asserts the `"type":"cell"` records are **byte
//! identical**. Then it exercises the corpus self-healing path (corrupt
//! stored `.nsg` files per the plan, heal, re-verify against the
//! original manifest checksums), the forced mmap-to-heap fallback, and
//! the per-cell watchdog. Every injected fault is logged as a
//! `"type":"fault"` JSONL record under `--out`.
//!
//! The whole gate is reproducible: the plan derives each decision from
//! `(plan seed, trial)` / `(plan seed, file index)` alone, so two runs
//! with the same `--plan-seed` inject exactly the same faults.

use crate::experiments::registry;
use nonsearch_corpus::{build, BuildSpec, Corpus, LoadMode};
use nonsearch_engine::{
    install_faults, run_lanes_observed, CliOptions, FailurePolicy, FaultHook, FaultInjection,
    InjectedFault, JsonValue, RunWriter, TrialMeasure,
};
use nonsearch_fault::{FaultPlan, StorageFault, TrialFault};
use nonsearch_generators::SeedSequence;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Shared log of injected trial faults: `(trial, attempt, kind)`.
type FaultEvents = Arc<Mutex<Vec<(usize, u32, &'static str)>>>;

/// Default seed of the chaos [`FaultPlan`] (`--plan-seed` overrides).
pub const DEFAULT_PLAN_SEED: u64 = 0xFA17;

/// Inject a panic into every `TRIAL_PANIC_EVERY`-th trial roll (on
/// average) during the byte-identity gate.
const TRIAL_PANIC_EVERY: u64 = 3;

/// Storage faults hit every `STORAGE_FAULT_EVERY`-th file roll (on
/// average) during the corpus-healing phase.
const STORAGE_FAULT_EVERY: u64 = 2;

/// The `xp chaos` help text.
pub fn usage() -> String {
    format!(
        "xp chaos — deterministic fault injection + self-healing gate\n\
         \n\
         usage: xp chaos [EXPERIMENT] [flags]\n\
         \n\
         runs EXPERIMENT (default maxdeg) twice — clean, then under a\n\
         seeded fault plan injecting worker panics with a retry policy —\n\
         and fails unless the cell records are byte-identical. Also\n\
         corrupts + heals a throwaway corpus, forces the mmap-to-heap\n\
         fallback, and exercises the per-cell watchdog.\n\
         \n\
         chaos flags:\n\
         \x20 --plan-seed N   fault-plan seed (default {DEFAULT_PLAN_SEED:#x})\n\
         \x20 --no-heal       propagate injected panics instead of retrying\n\
         \x20                 (the gate then fails — CI's must-fail probe)\n\
         \x20 --dir DIR       keep work files (clean.jsonl, chaos.jsonl,\n\
         \x20                 corpus/) in DIR instead of a scratch dir\n\
         \x20 --out FILE      write \"type\":\"fault\" records to FILE\n\
         shared flags pass through to both experiment runs:\n\
         \x20 --quick, --seed, --threads, --trials, --sizes, ...\n"
    )
}

/// Runs `xp chaos <args>`. Returns the process exit code.
pub fn main(args: &[String]) -> i32 {
    if matches!(
        args.first().map(String::as_str),
        Some("help" | "--help" | "-h")
    ) {
        print!("{}", usage());
        return 0;
    }
    match run(args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("xp chaos: {msg}");
            1
        }
    }
}

struct ChaosArgs {
    experiment: String,
    plan_seed: u64,
    heal: bool,
    dir: Option<PathBuf>,
    out: Option<PathBuf>,
    shared: Vec<String>,
}

fn parse(args: &[String]) -> Result<ChaosArgs, String> {
    let mut parsed = ChaosArgs {
        experiment: "maxdeg".to_string(),
        plan_seed: DEFAULT_PLAN_SEED,
        heal: true,
        dir: None,
        out: None,
        shared: Vec::new(),
    };
    // Only the first argument can name the experiment; later bare
    // tokens are values of pass-through flags (e.g. `--trials 6`) and
    // ride along to the engine's strict parser.
    let mut rest = args;
    if let Some(first) = rest.first() {
        if !first.starts_with("--") {
            parsed.experiment = first.clone();
            rest = &rest[1..];
        }
    }
    let mut iter = rest.iter().peekable();
    while let Some(arg) = iter.next() {
        if !arg.starts_with("--") {
            parsed.shared.push(arg.clone());
            continue;
        }
        let (flag, inline) = match arg.split_once('=') {
            Some((f, v)) => (f, Some(v.to_string())),
            None => (arg.as_str(), None),
        };
        let mut value = |name: &str| -> Result<String, String> {
            match &inline {
                Some(v) => Ok(v.clone()),
                None => match iter.peek() {
                    Some(next) if !next.starts_with("--") => {
                        Ok(iter.next().expect("peeked value exists").clone())
                    }
                    _ => Err(format!("{name} requires a value")),
                },
            }
        };
        match flag {
            "--plan-seed" => {
                let v = value("--plan-seed")?;
                parsed.plan_seed = v.parse().map_err(|e| format!("--plan-seed {v:?}: {e}"))?;
            }
            "--no-heal" => parsed.heal = false,
            "--dir" => parsed.dir = Some(PathBuf::from(value("--dir")?)),
            "--out" => parsed.out = Some(PathBuf::from(value("--out")?)),
            _ => parsed.shared.push(arg.clone()),
        }
    }
    Ok(parsed)
}

fn run(args: &[String]) -> Result<i32, String> {
    let chaos = parse(args)?;
    let reg = registry();
    if reg.find(&chaos.experiment).is_none() {
        return Err(format!(
            "no experiment named {:?}; see `xp list`",
            chaos.experiment
        ));
    }

    let (work, scratch) = match &chaos.dir {
        Some(dir) => (dir.clone(), false),
        None => (
            std::env::temp_dir().join(format!("xp_chaos_{}", std::process::id())),
            true,
        ),
    };
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;

    // The fault-record sink (inert without --out, like every experiment).
    let writer_opts = CliOptions {
        out: chaos.out.clone(),
        ..CliOptions::default()
    };
    let mut writer =
        RunWriter::create("chaos", &writer_opts).map_err(|e| format!("fault sink: {e}"))?;

    let clean_path = work.join("clean.jsonl");
    let chaos_path = work.join("chaos.jsonl");
    let gate = trial_fault_gate(&chaos, &reg, &clean_path, &chaos_path, &mut writer)?;
    if gate != 0 {
        return Ok(gate);
    }
    corpus_heal_phase(&chaos, &work, &mut writer)?;
    forced_heap_phase(&work, &mut writer)?;
    watchdog_phase(chaos.plan_seed, &mut writer)?;

    let summary = writer
        .finish(chaos.plan_seed)
        .map_err(|e| format!("fault sink: {e}"))?;
    for path in &summary.paths {
        println!("[chaos] fault records: {}", path.display());
    }
    if scratch {
        std::fs::remove_dir_all(&work).ok();
    } else {
        println!("[chaos] clean cells: {}", clean_path.display());
        println!("[chaos] chaos cells: {}", chaos_path.display());
    }
    println!(
        "[chaos] OK — all phases held under plan seed {:#x}",
        chaos.plan_seed
    );
    Ok(0)
}

/// Phase 1 — the byte-identity gate: clean run vs a run whose trials
/// panic per the plan and are retried. Healing on, the cell records
/// must match byte for byte; healing off, the injected panic propagates
/// and the gate fails (the CI must-fail probe).
fn trial_fault_gate(
    chaos: &ChaosArgs,
    reg: &nonsearch_engine::Registry,
    clean_path: &Path,
    chaos_path: &Path,
    writer: &mut RunWriter,
) -> Result<i32, String> {
    let run_opts = |out: &Path| -> Result<CliOptions, String> {
        let mut args = chaos.shared.clone();
        args.push("--out".to_string());
        args.push(out.display().to_string());
        CliOptions::from_args(args).map_err(|e| e.to_string())
    };

    println!("[chaos] phase 1/4: clean run of {}", chaos.experiment);
    reg.run_named(&chaos.experiment, &run_opts(clean_path)?)
        .map_err(|e| format!("clean run: {e}"))?;

    let plan = FaultPlan::new(chaos.plan_seed).with_trial_panics(TRIAL_PANIC_EVERY);
    let events: FaultEvents = Arc::new(Mutex::new(Vec::new()));
    let hook: FaultHook = {
        let events = Arc::clone(&events);
        Arc::new(move |trial, attempt| {
            let fault = plan.trial_fault(trial, attempt)?;
            let (kind, injected) = match fault {
                TrialFault::Panic => ("panic", InjectedFault::Panic),
                TrialFault::Stall { ms } => ("stall", InjectedFault::Stall { ms }),
            };
            events
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push((trial, attempt, kind));
            Some(injected)
        })
    };
    let policy = if chaos.heal {
        FailurePolicy::Retry { max: 3 }
    } else {
        FailurePolicy::Propagate
    };
    println!(
        "[chaos] phase 1/4: chaos run (panic every ~{TRIAL_PANIC_EVERY} trials, {})",
        if chaos.heal {
            "retrying"
        } else {
            "propagating"
        }
    );
    let scope = install_faults(FaultInjection {
        policy,
        hook: Some(hook),
        cell_deadline_ms: None,
    });
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        reg.run_named(&chaos.experiment, &run_opts(chaos_path)?)
            .map_err(|e| format!("chaos run: {e}"))
    }));
    drop(scope);
    match outcome {
        Ok(result) => {
            result?;
        }
        Err(_) => {
            return Err("the chaos run died on an injected fault (healing off)".to_string());
        }
    }

    let mut injected = events.lock().unwrap_or_else(|e| e.into_inner()).clone();
    injected.sort_unstable();
    for &(trial, attempt, kind) in &injected {
        writer
            .record_fault(vec![
                ("kind", JsonValue::from(kind)),
                ("trial", JsonValue::from(trial)),
                ("attempt", JsonValue::from(attempt as u64)),
                ("outcome", JsonValue::from("retried")),
            ])
            .map_err(|e| format!("fault sink: {e}"))?;
    }

    let clean_cells = cell_lines(clean_path)?;
    let chaos_cells = cell_lines(chaos_path)?;
    if clean_cells != chaos_cells {
        eprintln!(
            "xp chaos: CELL RECORDS DIVERGED under injected faults \
             ({} clean vs {} chaos cells) — retried aggregates are not \
             bit-identical",
            clean_cells.len(),
            chaos_cells.len()
        );
        return Ok(1);
    }
    println!(
        "[chaos] phase 1/4: {} cell records byte-identical ({} faults injected)",
        clean_cells.len(),
        injected.len()
    );
    Ok(0)
}

/// Phase 2 — corrupt a throwaway corpus per the plan's storage stream,
/// heal it, and require the healed files to pass a plain verify against
/// the untouched manifest checksums.
fn corpus_heal_phase(chaos: &ChaosArgs, work: &Path, writer: &mut RunWriter) -> Result<(), String> {
    let corpus_dir = work.join("corpus");
    let spec = BuildSpec {
        model_spec: "mori:p=0.6,m=1".to_string(),
        seed: 0xC0,
        sizes: vec![24, 48],
        trials: 2,
        variants: 1,
        swaps_per_edge: 3,
        threads: 1,
    };
    build(&corpus_dir, &spec).map_err(|e| format!("corpus build: {e}"))?;

    let manifest = Corpus::open(&corpus_dir)
        .map_err(|e| format!("corpus open: {e}"))?
        .manifest()
        .clone();
    let files: Vec<String> = manifest
        .graphs
        .iter()
        .flat_map(|g| {
            std::iter::once(g.file.clone()).chain(g.variants.iter().map(|v| v.file.clone()))
        })
        .collect();

    let plan = FaultPlan::new(chaos.plan_seed).with_storage_faults(STORAGE_FAULT_EVERY);
    let mut corrupted = 0usize;
    for (i, file) in files.iter().enumerate() {
        let path = corpus_dir.join(file);
        let len = std::fs::metadata(&path)
            .map_err(|e| format!("{file}: {e}"))?
            .len() as usize;
        let fault = match plan.storage_fault(i as u64, len) {
            Some(fault) => fault,
            // Guarantee the phase is never vacuous: if the plan spared
            // every file, flip a bit in the first one.
            None if i == files.len() - 1 && corrupted == 0 => StorageFault::BitFlip { bit: 7 },
            None => continue,
        };
        nonsearch_fault::corrupt_file(&path, fault).map_err(|e| format!("{file}: {e}"))?;
        corrupted += 1;
        writer
            .record_fault(vec![
                ("kind", JsonValue::from(storage_kind(fault))),
                ("file", JsonValue::from(file.as_str())),
                ("outcome", JsonValue::from("healed")),
            ])
            .map_err(|e| format!("fault sink: {e}"))?;
    }

    let healing = Corpus::open_healing(&corpus_dir, LoadMode::Mmap, true)
        .map_err(|e| format!("corpus open: {e}"))?;
    let report = healing
        .verify()
        .map_err(|e| format!("healing verify: {e}"))?;
    if report.healed != corrupted {
        return Err(format!(
            "healed {} of {corrupted} corrupted files",
            report.healed
        ));
    }
    // The healed corpus must pass a plain (non-healing) verify against
    // the original manifest checksums — regeneration is byte-exact.
    Corpus::open(&corpus_dir)
        .and_then(|c| c.verify())
        .map_err(|e| format!("post-heal verify: {e}"))?;
    println!(
        "[chaos] phase 2/4: corpus self-heal — {corrupted} of {} files corrupted, \
         {} healed ({} quarantined), clean verify passed",
        files.len(),
        report.healed,
        report.quarantined
    );
    Ok(())
}

/// Phase 3 — load through the aligned heap read instead of the mapping
/// and require the served graph to equal the mapped one.
fn forced_heap_phase(work: &Path, writer: &mut RunWriter) -> Result<(), String> {
    let corpus_dir = work.join("corpus");
    let forced = Corpus::open_with(&corpus_dir, LoadMode::Heap)
        .and_then(|c| c.load(0, None))
        .map_err(|e| format!("forced-heap load: {e}"))?;
    let mapped = Corpus::open_with(&corpus_dir, LoadMode::Mmap)
        .and_then(|c| c.load(0, None))
        .map_err(|e| format!("mapped load: {e}"))?;
    if *forced != *mapped {
        return Err("forced heap fallback served a different graph than the mapping".to_string());
    }
    writer
        .record_fault(vec![
            ("kind", JsonValue::from("mmap-refused")),
            ("outcome", JsonValue::from("heap-fallback")),
        ])
        .map_err(|e| format!("fault sink: {e}"))?;
    println!("[chaos] phase 3/4: forced heap fallback serves the identical graph");
    Ok(())
}

/// Phase 4 — stall every trial past the cell deadline and require the
/// watchdog to mark the cell degraded instead of hanging.
fn watchdog_phase(plan_seed: u64, writer: &mut RunWriter) -> Result<(), String> {
    let plan = FaultPlan::new(plan_seed).with_trial_stalls(1, 150);
    let hook: FaultHook = Arc::new(move |trial, attempt| {
        plan.trial_fault(trial, attempt).map(|fault| match fault {
            TrialFault::Panic => InjectedFault::Panic,
            TrialFault::Stall { ms } => InjectedFault::Stall { ms },
        })
    });
    let scope = install_faults(FaultInjection {
        policy: FailurePolicy::Skip,
        hook: Some(hook),
        cell_deadline_ms: Some(25),
    });
    let (_, obs) = run_lanes_observed(
        4,
        1,
        2,
        &SeedSequence::new(1),
        || (),
        |_pool, _obs, trial, _seeds| vec![TrialMeasure::new(trial as f64, true)],
    );
    drop(scope);
    if !obs.degraded {
        return Err("the watchdog did not degrade a stalled cell".to_string());
    }
    writer
        .record_fault(vec![
            ("kind", JsonValue::from("stall")),
            ("outcome", JsonValue::from("degraded")),
        ])
        .map_err(|e| format!("fault sink: {e}"))?;
    println!("[chaos] phase 4/4: watchdog degraded the stalled cell instead of hanging");
    Ok(())
}

fn storage_kind(fault: StorageFault) -> &'static str {
    match fault {
        StorageFault::BitFlip { .. } => "bit-flip",
        StorageFault::Truncate { .. } => "truncate",
        StorageFault::Remove => "remove",
    }
}

fn cell_lines(path: &Path) -> Result<Vec<String>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(text
        .lines()
        .filter(|line| line.contains("\"type\":\"cell\""))
        .map(str::to_string)
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_args(args: &[&str]) -> i32 {
        main(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("chaos_test_{}_{tag}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn help_and_bad_experiments_exit_cleanly() {
        assert_eq!(run_args(&["--help"]), 0);
        assert_eq!(run_args(&["no-such-experiment"]), 1);
        assert_eq!(run_args(&["--plan-seed", "zebra"]), 1);
    }

    #[test]
    fn parse_splits_chaos_flags_from_shared_flags() {
        let args: Vec<String> = ["lemma1-bound", "--plan-seed=9", "--no-heal", "--quick"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let parsed = parse(&args).unwrap();
        assert_eq!(parsed.experiment, "lemma1-bound");
        assert_eq!(parsed.plan_seed, 9);
        assert!(!parsed.heal);
        assert_eq!(parsed.shared, vec!["--quick".to_string()]);
    }

    #[test]
    fn quick_gate_passes_with_healing_and_fails_without() {
        let dir = temp_dir("gate");
        let dir_str = dir.display().to_string();
        // Healing on: every phase holds, cells byte-identical.
        assert_eq!(
            run_args(&[
                "maxdeg",
                "--quick",
                "--trials",
                "6",
                "--sizes",
                "64,128",
                "--threads",
                "2",
                "--dir",
                &dir_str,
            ]),
            0
        );
        let clean = std::fs::read_to_string(dir.join("clean.jsonl")).unwrap();
        assert!(clean.contains("\"type\":\"cell\""));

        // Healing off: the injected panic propagates and the gate fails.
        let dir2 = temp_dir("gate_noheal");
        assert_eq!(
            run_args(&[
                "maxdeg",
                "--quick",
                "--trials",
                "6",
                "--sizes",
                "64",
                "--no-heal",
                "--dir",
                &dir2.display().to_string(),
            ]),
            1
        );
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&dir2).ok();
    }

    #[test]
    fn fault_records_validate_against_the_schema() {
        let dir = temp_dir("records");
        let out = dir.join("faults.jsonl");
        std::fs::create_dir_all(&dir).unwrap();
        assert_eq!(
            run_args(&[
                "maxdeg",
                "--quick",
                "--trials",
                "6",
                "--sizes",
                "64",
                "--dir",
                &dir.display().to_string(),
                "--out",
                &out.display().to_string(),
            ]),
            0
        );
        let text = std::fs::read_to_string(&out).unwrap();
        assert!(text.contains("\"type\":\"fault\""));
        let summary = nonsearch_engine::validate_jsonl(&text).unwrap();
        assert!(summary.faults > 0, "no fault records in {text}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
