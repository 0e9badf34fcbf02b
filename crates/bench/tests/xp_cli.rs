//! End-to-end tests of the `xp` binary: subcommand listing, JSONL
//! emission, the headline engine guarantee — byte-identical cell
//! records for `--threads 1` vs `--threads 4` with the same seed, and
//! against the committed quick-mode fixtures — and the observability
//! surface (`--trace`, perf records, `profile-diff`).

use nonsearch_engine::{
    parse_json, validate_chrome_trace, validate_jsonl, JsonValue, CELL_TYPE, PERF_TYPE, RUN_TYPE,
};
use nonsearch_obs::Metrics;
use std::path::PathBuf;
use std::process::{Command, Output};

fn xp(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_xp"))
        .args(args)
        .output()
        .expect("xp binary runs")
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("xp_cli_{}_{tag}", std::process::id()))
}

/// The deterministic part of a run file: every `"type":"cell"` line, in
/// order. The `"type":"run"` footer carries wall time and thread count
/// and is legitimately volatile.
fn cell_lines(text: &str) -> Vec<&str> {
    text.lines()
        .filter(|l| {
            parse_json(l)
                .expect("every emitted line parses")
                .get("type")
                .and_then(|t| t.as_str())
                .map(|t| t == CELL_TYPE)
                .unwrap_or(false)
        })
        .collect()
}

#[test]
fn list_enumerates_the_registered_experiments() {
    let out = xp(&["list"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    for name in [
        "theorem1-weak",
        "theorem1-strong",
        "lemma1-bound",
        "lemma2-equiv",
        "lemma3-event",
        "ablation",
        "diameter",
        "adamic",
        "kleinberg",
        "percolation",
        "correlation",
    ] {
        assert!(stdout.contains(name), "xp list misses {name}:\n{stdout}");
    }
}

#[test]
fn unknown_subcommand_and_bad_flags_fail_cleanly() {
    let out = xp(&["no-such-experiment"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("theorem1-weak"), "should list experiments");

    let out = xp(&["theorem1-weak", "--threads", "abc"]);
    assert_eq!(out.status.code(), Some(2));

    let out = xp(&["theorem1-weak", "--wat"]);
    assert_eq!(out.status.code(), Some(2));

    // JSON Lines is the only record format: `--format` is unknown.
    let out = xp(&["theorem1-weak", "--quick", "--format", "csv"]);
    assert_eq!(out.status.code(), Some(2));

    // The regression: `--trials 0` used to run (and record) one trial.
    let out = xp(&["maxdeg", "--trials", "0", "--sizes", "64,128"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("--trials"), "{stderr}");
}

#[test]
fn jsonl_cell_records_are_byte_identical_across_thread_counts() {
    let single = temp_path("t1.jsonl");
    let quad = temp_path("t4.jsonl");
    let common = [
        "theorem1-weak",
        "--quick",
        "--trials",
        "4",
        "--sizes",
        "128,256",
        "--seed",
        "7",
        "--out",
    ];

    let mut args: Vec<&str> = common.to_vec();
    let single_str = single.to_str().unwrap();
    args.push(single_str);
    args.extend(["--threads", "1"]);
    let out = xp(&args);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let mut args: Vec<&str> = common.to_vec();
    let quad_str = quad.to_str().unwrap();
    args.push(quad_str);
    args.extend(["--threads", "4"]);
    let out = xp(&args);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let a = std::fs::read_to_string(&single).unwrap();
    let b = std::fs::read_to_string(&quad).unwrap();

    // Both record streams validate.
    let va = validate_jsonl(&a).unwrap();
    let vb = validate_jsonl(&b).unwrap();
    assert!(va.cells > 0 && va.runs == 1, "{va:?}");
    assert_eq!(va, vb);

    // The deterministic cell lines are byte-identical.
    assert_eq!(cell_lines(&a), cell_lines(&b));

    // Only the volatile run footer differs — and it records the thread
    // count that actually ran.
    let footer = |text: &str| {
        text.lines()
            .find(|l| {
                parse_json(l)
                    .unwrap()
                    .get("type")
                    .and_then(|t| t.as_str())
                    .map(|t| t == RUN_TYPE)
                    .unwrap_or(false)
            })
            .map(|l| parse_json(l).unwrap())
            .expect("run footer present")
    };
    assert_eq!(
        footer(&a).get("threads").and_then(|v| v.as_f64()),
        Some(1.0)
    );
    assert_eq!(
        footer(&b).get("threads").and_then(|v| v.as_f64()),
        Some(4.0)
    );
    assert_eq!(footer(&a).get("seed").and_then(|v| v.as_f64()), Some(7.0));

    // `xp validate` agrees from the command line.
    let out = xp(&["validate", single_str, quad_str]);
    assert!(out.status.success());

    std::fs::remove_file(&single).ok();
    std::fs::remove_file(&quad).ok();
}

/// Every value flag of every command-table entry, each with a value it
/// accepts, after the arguments that select the entry. Experiments read
/// the shared set.
const VALUE_FLAGS: [&str; 9] = [
    "validate:",
    "report:",
    "profile-diff: --baseline b.json --threshold 0.5 --scale 2",
    "corpus build: --model ba:m=2 --variants 1 --swaps 3 --seed 5 --sizes 64 --trials 2 \
     --threads 1 --corpus dir",
    "corpus info: --corpus dir",
    "corpus verify: --corpus dir",
    "bench: --out suite.json",
    "lint: --root . --out lint.jsonl",
    "chaos: --plan-seed 9 --dir work --out f.jsonl --threads 1 --seed 5 --trials 2 --sizes 64 \
     --corpus dir --trace t.json",
];
const EXPERIMENT_VALUE_FLAGS: &str =
    "--threads 1 --seed 5 --out r.jsonl --trials 2 --sizes 64,128 --corpus dir --trace t.json";

#[test]
fn every_table_entry_has_help_and_a_strict_flag_grammar() {
    let registry = nonsearch_bench::experiments::registry();
    let names: Vec<&str> = registry.names().collect();
    assert_eq!(names.len(), 15 + 7, "{names:?}");
    let help = String::from_utf8(xp(&["help"]).stdout).unwrap();
    let mut rows: Vec<String> = VALUE_FLAGS.map(String::from).to_vec();
    for name in names {
        let listed = format!("\n  {name} ");
        assert!(help.contains(&listed), "xp help misses {name}:\n{help}");
        for flag in ["--help", "-h", "help"] {
            let out = xp(&[name, flag]);
            assert_eq!(out.status.code(), Some(0), "xp {name} {flag}");
            assert!(String::from_utf8(out.stdout).unwrap().contains("usage"));
        }
        assert_eq!(xp(&[name, "--wat"]).status.code(), Some(2), "{name}");
        if registry.find(name).is_some() {
            rows.push(format!("{name}: {EXPERIMENT_VALUE_FLAGS}"));
        } else {
            assert!(rows.iter().any(|row| row.starts_with(name)), "{name}");
        }
    }
    // `--flag v` and `--flag=v` are both read, and the scan stops at the
    // trailing unknown flag before anything runs.
    for row in &rows {
        let (entry, flags) = row.split_once(':').unwrap();
        let words: Vec<&str> = flags.split_whitespace().collect();
        for pair in words.chunks(2) {
            let inline = pair.join("=");
            for form in [pair.to_vec(), vec![inline.as_str()]] {
                let mut args: Vec<&str> = entry.split(' ').collect();
                args.extend(form);
                args.push("--wat");
                let out = xp(&args);
                let stderr = String::from_utf8(out.stderr).unwrap();
                assert_eq!(out.status.code(), Some(2), "xp {args:?}: {stderr}");
                assert!(stderr.contains("unknown argument \"--wat\""), "{stderr}");
            }
        }
    }
}

#[test]
fn out_never_takes_the_next_flag_as_its_value() {
    // The regressions: `xp bench --out --quick` ran the full suite and
    // wrote it to a file named `--quick`; `xp lint --out --rules` wrote
    // its report to a file named `--rules`. Both must fail while parsing.
    let fixture = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../lint/fixtures/clock_env");
    let fixture = fixture.to_str().unwrap();
    for (args, swallowed) in [
        (&["bench", "--out", "--quick"][..], "--quick"),
        (&["lint", "--root", fixture, "--out", "--rules"], "--rules"),
    ] {
        let dir = temp_path(swallowed);
        std::fs::create_dir_all(&dir).unwrap();
        let out = Command::new(env!("CARGO_BIN_EXE_xp"))
            .args(args)
            .current_dir(&dir)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains("--out requires a value"), "{stderr}");
        assert!(out.stdout.is_empty(), "{args:?} started working");
        assert!(!dir.join(swallowed).exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn validate_flags_corrupt_files() {
    let path = temp_path("bad.jsonl");
    std::fs::write(&path, "{\"type\":\"cell\"}\nnot json at all\n").unwrap();
    let out = xp(&["validate", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    std::fs::remove_file(&path).ok();
}

#[test]
fn trace_and_metrics_flow_through_a_profiled_run() {
    let run = temp_path("obs.jsonl");
    let trace = temp_path("obs.trace.json");
    let run_str = run.to_str().unwrap();
    let trace_str = trace.to_str().unwrap();
    let out = xp(&[
        "theorem1-weak",
        "--quick",
        "--trials",
        "3",
        "--sizes",
        "64,128",
        "--profile",
        "--trace",
        trace_str,
        "--out",
        run_str,
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // The JSONL stream carries exactly one perf record per measured
    // cell (one per size of the quick (p, m) sweep) and no other
    // per-cell telemetry record kind.
    let text = std::fs::read_to_string(&run).unwrap();
    let summary = validate_jsonl(&text).unwrap();
    assert!(summary.cells > 0, "{summary:?}");
    assert_eq!(summary.perfs, 2, "{summary:?}");
    for other in ["profile", "metrics", "resource"] {
        let tag = format!("\"type\":\"{other}\"");
        assert!(!text.contains(&tag), "{other} record in {text}");
    }

    // The trace is a structurally valid Chrome Trace Event document
    // covering the whole span hierarchy.
    let trace_text = std::fs::read_to_string(&trace).unwrap();
    let events = validate_chrome_trace(&trace_text).unwrap();
    assert!(events > 0);
    for name in ["\"run\"", "\"size-cell\"", "\"trial-batch\"", "\"trial\""] {
        assert!(trace_text.contains(name), "trace misses {name}");
    }

    // `xp validate` accepts both files from the command line.
    let out = xp(&["validate", run_str, trace_str]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("2 perf records"), "{stdout}");

    std::fs::remove_file(&run).ok();
    std::fs::remove_file(&trace).ok();
}

#[test]
fn profile_diff_gates_on_a_doubled_baseline() {
    let suite = temp_path("pd_suite.json");
    let suite_str = suite.to_str().unwrap();
    std::fs::write(
        &suite,
        "{\"schema_version\":1,\"bench\":\"engine_suite\",\"cells\":[\
         {\"section\":\"oracle\",\"key\":\"weak_flood_n1000\",\"throughput\":5000.0},\
         {\"section\":\"thread_scaling\",\"key\":\"threads_2_n1024\",\"throughput\":800.0}]}",
    )
    .unwrap();

    // Self-baseline: ratio 1.0 everywhere, exit 0.
    let out = xp(&["profile-diff", suite_str, "--baseline", suite_str]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // A baseline scaled to 2× the measured throughput regresses at the
    // default 0.7 threshold (ratio 0.5) — and exits nonzero.
    let out = xp(&[
        "profile-diff",
        suite_str,
        "--baseline",
        suite_str,
        "--scale",
        "2.0",
    ]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("regression"), "{stderr}");

    // A run's JSONL record stream is not a suite — usage error.
    let bare = temp_path("pd_bare.jsonl");
    let bare_str = bare.to_str().unwrap();
    let out = xp(&[
        "theorem1-weak",
        "--trials",
        "2",
        "--sizes",
        "32",
        "--out",
        bare_str,
    ]);
    assert!(out.status.success());
    let out = xp(&["profile-diff", bare_str, "--baseline", suite_str]);
    assert_eq!(out.status.code(), Some(2));

    std::fs::remove_file(&suite).ok();
    std::fs::remove_file(&bare).ok();
}

/// The committed quick-mode cell fixtures: the `"type":"cell"` lines of
/// each experiment at `--quick`. The searcher fixtures pin exact request
/// sequences; the five contrast experiments' fixtures were emitted with
/// `--threads 1`, so running them at `--threads 2` here also checks
/// thread invariance. Every profiled run must also validate.
#[test]
fn quick_cell_records_match_the_committed_fixtures() {
    let fixtures = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    for (experiment, fixture) in [
        ("theorem1-weak", "theorem1_weak.quick.cells"),
        ("theorem1-strong", "theorem1_strong.quick.cells"),
        ("ablation", "ablation.quick.cells"),
        ("diameter", "diameter.quick.cells"),
        ("adamic", "adamic.quick.cells"),
        ("kleinberg", "kleinberg.quick.cells"),
        ("percolation", "percolation.quick.cells"),
        ("correlation", "correlation.quick.cells"),
        ("degree-dist", "degree_dist.quick.cells"),
        ("null-model", "null_model.quick.cells"),
        ("theorem2-cf", "theorem2_cf.quick.cells"),
        ("lemma1-bound", "lemma1_bound.quick.cells"),
        ("maxdeg", "maxdeg.quick.cells"),
    ] {
        let run = temp_path(&format!("{fixture}.jsonl"));
        let run_str = run.to_str().unwrap();
        let out = xp(&[
            experiment,
            "--quick",
            "--threads",
            "2",
            "--profile",
            "--out",
            run_str,
        ]);
        assert!(
            out.status.success(),
            "{experiment}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = std::fs::read_to_string(&run).unwrap();
        let records = validate_jsonl(&text).unwrap_or_else(|e| panic!("{experiment}: {e}"));
        assert!(records.perfs > 0, "{experiment}: no perf records");
        let mut cells = cell_lines(&text).join("\n");
        cells.push('\n');
        let expected = std::fs::read_to_string(fixtures.join(fixture)).unwrap();
        assert!(
            cells == expected,
            "{experiment}: cell records differ from fixtures/{fixture}"
        );
        std::fs::remove_file(&run).ok();
    }
}

/// A perf record cut down to its exact part: the cell's identity keys
/// (everything before `trials`), the nine `Metrics::named()` counters
/// and `hist_requests_log2`. Wall time, phases and the `/proc` sample
/// are dropped.
fn exact_counters(record: &JsonValue) -> JsonValue {
    let JsonValue::Object(pairs) = record else {
        panic!("a perf record is an object: {record}");
    };
    let identity = pairs
        .iter()
        .take_while(|(key, _)| key != "trials")
        .filter(|(key, _)| key != "type");
    let field = |key: &str| {
        let value = record
            .get(key)
            .unwrap_or_else(|| panic!("perf record lacks {key:?}: {record}"));
        (key.to_string(), value.clone())
    };
    let counters = Metrics::new().named().map(|(key, _)| field(key));
    JsonValue::Object(
        identity
            .cloned()
            .chain(counters)
            .chain([field("hist_requests_log2")])
            .collect(),
    )
}

#[test]
fn quick_perf_counters_match_the_committed_fixtures() {
    // The work counters are exact integers, merged in trial order, so
    // they are thread-invariant: any change to what the oracle resolves
    // or the cursors rescan shows here, whatever the host.
    let fixtures = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    for (experiment, fixture) in [
        ("theorem1-weak", "theorem1_weak.quick.counters"),
        ("null-model", "null_model.quick.counters"),
    ] {
        let run = temp_path(&format!("{fixture}.jsonl"));
        let run_str = run.to_str().unwrap();
        let out = xp(&[
            experiment,
            "--quick",
            "--threads",
            "2",
            "--profile",
            "--out",
            run_str,
        ]);
        assert!(
            out.status.success(),
            "{experiment}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = std::fs::read_to_string(&run).unwrap();
        let got: Vec<JsonValue> = text
            .lines()
            .map(|l| parse_json(l).expect("every emitted line parses"))
            .filter(|r| r.get("type").and_then(|t| t.as_str()) == Some(PERF_TYPE))
            .map(|r| exact_counters(&r))
            .collect();
        let expected: Vec<JsonValue> = std::fs::read_to_string(fixtures.join(fixture))
            .unwrap()
            .lines()
            .map(|l| parse_json(l).expect("fixture lines parse"))
            .collect();
        assert_eq!(got.len(), expected.len(), "{experiment}: perf record count");
        for (got, want) in got.iter().zip(&expected) {
            assert!(
                got == want,
                "{experiment}: counters differ from fixtures/{fixture}\n got: {got}\nwant: {want}"
            );
        }
        std::fs::remove_file(&run).ok();
    }
}

#[test]
fn quick_with_inline_value_is_rejected_not_misread() {
    // The regression: `--quick=false` used to silently enable quick
    // mode. The strict xp parser now rejects any inline value.
    for arg in ["--quick=false", "--quick=true", "--mmap=1"] {
        let out = xp(&["theorem1-weak", arg]);
        assert_eq!(out.status.code(), Some(2), "{arg} must be rejected");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains("boolean"), "{arg}: {stderr}");
    }
}
