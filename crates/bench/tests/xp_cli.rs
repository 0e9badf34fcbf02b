//! End-to-end tests of the `xp` binary: subcommand listing, JSONL
//! emission, the headline engine guarantee — byte-identical cell
//! records for `--threads 1` vs `--threads 4` with the same seed, and
//! against the committed quick-mode fixtures — and the observability
//! surface (`--trace`, perf records, the `profile-diff` counter gate).

use nonsearch_engine::{parse_json, validate_chrome_trace, validate_jsonl, CELL_TYPE, RUN_TYPE};
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
const VALUE_FLAGS: [&str; 8] = [
    "validate:",
    "report:",
    "profile-diff: --baseline b.counters",
    "corpus build: --model ba:m=2 --variants 1 --swaps 3 --seed 5 --sizes 64 --trials 2 \
     --threads 1 --corpus dir",
    "corpus info: --corpus dir",
    "corpus verify: --corpus dir",
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
    assert_eq!(names.len(), 15 + 6, "{names:?}");
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
    // The regressions: `--out --quick` once ran a full sweep and wrote it
    // to a file named `--quick`; `xp lint --out --rules` wrote its report
    // to a file named `--rules`. Both must fail while parsing.
    let fixture = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../lint/fixtures/clock_env");
    let fixture = fixture.to_str().unwrap();
    for (args, swallowed) in [
        (&["theorem1-weak", "--out", "--quick"][..], "--quick"),
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
fn search_cells_trace_one_span_per_trial() {
    // (experiment, search cells of its quick sweep, trials per cell):
    // E1 races the suite once per size (3 sizes × 4 trials); E2 runs
    // each of 3 strong searchers at each of 3 sizes (3 trials each).
    for (name, cells, trials) in [("theorem1-weak", 3, 4), ("theorem1-strong", 9, 3)] {
        let run = temp_path(&format!("{name}.jsonl"));
        let trace = temp_path(&format!("{name}.trace.json"));
        let out = xp(&[
            name,
            "--quick",
            "--threads",
            "2",
            "--trace",
            trace.to_str().unwrap(),
            "--out",
            run.to_str().unwrap(),
        ]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let trace_text = std::fs::read_to_string(&trace).unwrap();
        validate_chrome_trace(&trace_text).unwrap();
        let spans = |span: &str| trace_text.matches(&format!("\"name\":\"{span}\",")).count();
        assert_eq!(spans("run"), 1, "{name}");
        assert_eq!(spans("size-cell"), cells, "{name}");
        assert_eq!(spans("trial"), cells * trials, "{name}");
        // One batch per worker that ran, at most two per cell.
        assert!(
            (cells..=2 * cells).contains(&spans("trial-batch")),
            "{name}"
        );
        std::fs::remove_file(&run).ok();
        std::fs::remove_file(&trace).ok();
    }
}

#[test]
fn profile_diff_gates_on_a_doubled_baseline() {
    let run = temp_path("pd_run.jsonl");
    let run_str = run.to_str().unwrap();
    let out = xp(&[
        "theorem1-weak",
        "--trials",
        "2",
        "--sizes",
        "32,64",
        "--profile",
        "--out",
        run_str,
    ]);
    assert!(out.status.success());
    let pd = |baseline: &str| xp(&["profile-diff", run_str, "--baseline", baseline]);
    let stderr = |out: &Output| String::from_utf8_lossy(&out.stderr).into_owned();

    // With no baseline the tool prints the projection: a fixture.
    let out = xp(&["profile-diff", run_str]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let projection = String::from_utf8(out.stdout).unwrap();
    // One line per perf record: 3 p × 2 m × 2 sizes.
    assert_eq!(projection.lines().count(), 12, "{projection}");
    let baseline = temp_path("pd_base.counters");
    let baseline_str = baseline.to_str().unwrap();
    std::fs::write(&baseline, &projection).unwrap();

    // A run against its own projection is equal.
    let out = pd(baseline_str);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));

    // One counter bumped by 1, or doubled, is a difference that names
    // the record, the field and both values.
    let second = parse_json(projection.lines().nth(1).unwrap()).unwrap();
    let counted = second.get("slot_reads").and_then(|v| v.as_u64()).unwrap();
    for (bumped, tag) in [(counted + 1, "bumped"), (2 * counted, "doubled")] {
        let (from, to) = (
            format!("\"slot_reads\":{counted},"),
            format!("\"slot_reads\":{bumped},"),
        );
        let lines: String = projection
            .lines()
            .enumerate()
            .map(|(i, l)| match i {
                1 => format!("{}\n", l.replace(&from, &to)),
                _ => format!("{l}\n"),
            })
            .collect();
        let file = temp_path(&format!("pd_{tag}.counters"));
        std::fs::write(&file, lines).unwrap();
        let out = pd(file.to_str().unwrap());
        assert_eq!(out.status.code(), Some(1), "{tag}");
        let err = stderr(&out);
        assert!(err.contains("perf record 2"), "{err}");
        assert!(
            err.contains(&format!("slot_reads got {counted}, want {bumped}")),
            "{err}"
        );
        std::fs::remove_file(&file).ok();
    }

    // A record missing from the run is a difference too.
    let extra = temp_path("pd_extra.counters");
    std::fs::write(
        &extra,
        format!("{projection}{}", projection.lines().next().unwrap()),
    )
    .unwrap();
    let out = pd(extra.to_str().unwrap());
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("missing"), "{}", stderr(&out));

    // A timing-suite document or an unreadable baseline is a usage
    // error, and so is a run without perf records.
    let suite = temp_path("pd_suite.json");
    std::fs::write(
        &suite,
        "{\"schema_version\":1,\"bench\":\"engine_suite\",\"cells\":[\
         {\"section\":\"oracle\",\"key\":\"weak_flood_n1000\",\"throughput\":5000.0}]}\n",
    )
    .unwrap();
    assert_eq!(pd(suite.to_str().unwrap()).status.code(), Some(2));
    assert_eq!(pd("/nonexistent.counters").status.code(), Some(2));
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
    let out = xp(&["profile-diff", bare_str, "--baseline", baseline_str]);
    assert_eq!(out.status.code(), Some(2));

    for file in [&run, &baseline, &extra, &suite, &bare] {
        std::fs::remove_file(file).ok();
    }
}

/// The committed quick-mode fixtures, checked from one `--profile` run
/// of each experiment at `--threads 2`: its `"type":"cell"` lines
/// against `<name>.quick.cells`, and the exact counters of its perf
/// records (the projection `xp profile-diff` prints and compares)
/// against `<name>.quick.counters`. The cell fixtures pin the searchers'
/// request sequences; the counters pin how much work the oracle and the
/// searchers did for them, whatever the host. Most fixtures were
/// emitted at `--threads 1`, so this also checks thread invariance.
#[test]
fn quick_cell_records_match_the_committed_fixtures() {
    let fixtures = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    for experiment in [
        "theorem1-weak",
        "theorem1-strong",
        "theorem2-cf",
        "lemma1-bound",
        "lemma2-equiv",
        "lemma3-event",
        "maxdeg",
        "degree-dist",
        "diameter",
        "adamic",
        "kleinberg",
        "percolation",
        "ablation",
        "correlation",
        "null-model",
    ] {
        let fixture = experiment.replace('-', "_");
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
        validate_jsonl(&text).unwrap_or_else(|e| panic!("{experiment}: {e}"));
        let mut cells = cell_lines(&text).join("\n");
        cells.push('\n');
        let expected = std::fs::read_to_string(fixtures.join(format!("{fixture}.quick.cells")));
        assert!(
            cells == expected.unwrap(),
            "{experiment}: cell records differ from fixtures/{fixture}.quick.cells"
        );
        let counters = fixtures.join(format!("{fixture}.quick.counters"));
        let diff = xp(&[
            "profile-diff",
            run_str,
            "--baseline",
            counters.to_str().unwrap(),
        ]);
        assert!(
            diff.status.success(),
            "{experiment}: counters differ from fixtures/{fixture}.quick.counters\n{}",
            String::from_utf8_lossy(&diff.stderr)
        );
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

/// Every committed `*.quick.cells` fixture passes `validate_jsonl`'s
/// cell-layout check, one cell per line.
#[test]
fn every_committed_quick_cells_fixture_validates() {
    let fixtures = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    let mut checked = 0;
    for entry in std::fs::read_dir(&fixtures).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if !name.ends_with(".quick.cells") {
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let summary = validate_jsonl(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(summary.cells, text.lines().count(), "{name}");
        checked += 1;
    }
    assert_eq!(checked, 15);
}

#[test]
fn an_unopenable_corpus_fails_the_run_without_a_panic() {
    let missing = temp_path("no_such_corpus");
    let old = temp_path("v1_corpus");
    std::fs::create_dir_all(&old).unwrap();
    std::fs::write(
        old.join("manifest.json"),
        "{\"format\":\"nonsearch-corpus\",\"version\":1}\n",
    )
    .unwrap();
    for (dir, hint) in [(&missing, "manifest.json"), (&old, "xp corpus build")] {
        let out = xp(&["maxdeg", "--quick", "--corpus", dir.to_str().unwrap()]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{}: {stderr}", dir.display());
        let named = format!("xp maxdeg: --corpus {}: ", dir.display());
        assert!(stderr.contains(&named), "{stderr}");
        assert!(stderr.contains(hint), "{stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
    }
    std::fs::remove_dir_all(&old).ok();
}
