//! `xp profile-diff` — the throughput-regression gate.
//!
//! Compares an `xp bench` suite record (`BENCH_engine_suite.json`)
//! against a committed baseline suite and exits nonzero when any
//! benchmark's throughput falls below `threshold × baseline` — which is
//! what lets CI fail a PR that quietly slows a hot path down, without
//! ever looking at the volatile numbers by eye.
//!
//! ```text
//! xp profile-diff <suite.json> --baseline FILE [--threshold 0.7] [--scale F]
//! ```
//!
//! * `--baseline FILE` — the committed suite record to compare against.
//!   Cells are matched **exactly** on `section`/`key`: every benchmark
//!   in the suite is a named cell with a uniform higher-is-better
//!   `throughput` field. Measured cells with no baseline entry (e.g. a
//!   `--quick` suite gated against the committed full record) are
//!   skipped with a note, never failed.
//! * `--threshold F` — regression ratio, default `0.7`: a cell fails
//!   when `measured < F × baseline`. Throughput *above* baseline never
//!   fails (improvements are free).
//! * `--scale F` — scales the baseline *up* before the threshold test.
//!   CI uses `--scale 2.0` as a must-fail self-check: if the gate still
//!   passes with the bar doubled, the gate is broken.
//!
//! Exit codes: `0` OK, `1` regression detected, `2` usage or I/O error —
//! the same convention as the rest of `xp`.

use crate::json;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Default regression threshold: fail below 70% of baseline throughput.
pub const DEFAULT_THRESHOLD: f64 = 0.7;

const USAGE: &str =
    "usage: xp profile-diff <suite.json> --baseline FILE [--threshold F] [--scale F]";

/// One named benchmark cell of an `xp bench` suite record.
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteCell {
    /// Suite section (`oracle`, `corpus_load`, `thread_scaling`, …).
    pub section: String,
    /// Unique key within the section (e.g. `weak_flood_n10000`).
    pub key: String,
    /// The uniform higher-is-better measurement (req/s or loads/s).
    pub throughput: f64,
}

/// Parses an `xp bench` suite record
/// (`{"schema_version":1,"bench":"engine_suite","cells":[…]}`),
/// rejecting unknown schema versions and non-finite or non-positive
/// throughput values.
pub fn suite_from_json(text: &str) -> Result<Vec<SuiteCell>, String> {
    let doc = json::parse(text.trim()).map_err(|e| e.to_string())?;
    match doc.get("schema_version").and_then(|v| v.as_f64()) {
        Some(v) if v != 1.0 => return Err(format!("unsupported suite schema_version {v}")),
        Some(_) => {}
        None => return Err("suite record has no \"schema_version\"".to_string()),
    }
    let cells = doc
        .get("cells")
        .and_then(|v| v.as_array())
        .ok_or_else(|| "suite record has no \"cells\" array".to_string())?;
    let mut out = Vec::with_capacity(cells.len());
    for (i, cell) in cells.iter().enumerate() {
        let field = |key: &str| -> Result<String, String> {
            cell.get(key)
                .and_then(|v| v.as_str())
                .map(str::to_string)
                .ok_or_else(|| format!("suite cell {i} has no string field {key:?}"))
        };
        let throughput = cell
            .get("throughput")
            .and_then(|v| v.as_f64())
            .filter(|x| x.is_finite() && *x > 0.0)
            .ok_or_else(|| format!("suite cell {i} has no usable \"throughput\""))?;
        out.push(SuiteCell {
            section: field("section")?,
            key: field("key")?,
            throughput,
        });
    }
    if out.is_empty() {
        return Err("suite \"cells\" array is empty".to_string());
    }
    Ok(out)
}

/// One compared suite cell, matched exactly on `section`/`key`.
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteDiffRow {
    /// `section/key` of the matched benchmark.
    pub name: String,
    /// Measured throughput.
    pub measured: f64,
    /// Baseline throughput (after `--scale`).
    pub baseline: f64,
    /// `measured / baseline`.
    pub ratio: f64,
    /// Whether this cell fell below the threshold.
    pub regressed: bool,
}

/// Compares a measured suite against a baseline suite at `threshold`,
/// with baseline throughput pre-multiplied by `scale`. Returns the
/// compared rows and the names of measured cells the baseline does not
/// carry (skipped, e.g. a quick suite vs the committed full record).
pub fn diff_suite(
    measured: &[SuiteCell],
    baseline: &[SuiteCell],
    threshold: f64,
    scale: f64,
) -> (Vec<SuiteDiffRow>, Vec<String>) {
    let by_name: BTreeMap<(&str, &str), f64> = baseline
        .iter()
        .map(|c| ((c.section.as_str(), c.key.as_str()), c.throughput))
        .collect();
    let mut rows = Vec::new();
    let mut skipped = Vec::new();
    for cell in measured {
        let name = format!("{}/{}", cell.section, cell.key);
        match by_name.get(&(cell.section.as_str(), cell.key.as_str())) {
            Some(&base) => {
                let baseline = base * scale;
                let ratio = cell.throughput / baseline;
                rows.push(SuiteDiffRow {
                    name,
                    measured: cell.throughput,
                    baseline,
                    ratio,
                    regressed: ratio < threshold,
                });
            }
            None => skipped.push(name),
        }
    }
    (rows, skipped)
}

/// Reads and parses one suite record file.
fn read_suite(path: &PathBuf) -> Result<Vec<SuiteCell>, String> {
    std::fs::read_to_string(path)
        .map_err(|e| e.to_string())
        .and_then(|text| suite_from_json(&text))
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// The `xp profile-diff` subcommand body. Returns the process exit code.
pub fn main(args: &[String]) -> i32 {
    let mut run_path: Option<PathBuf> = None;
    let mut baseline_path: Option<PathBuf> = None;
    let mut threshold = DEFAULT_THRESHOLD;
    let mut scale = 1.0f64;

    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut positive = |flag: &str| -> Result<f64, String> {
            let v = iter
                .next()
                .ok_or_else(|| format!("{flag} requires a value"))?;
            v.parse::<f64>()
                .ok()
                .filter(|x| x.is_finite() && *x > 0.0)
                .ok_or_else(|| format!("{flag}: cannot parse {v:?}"))
        };
        let outcome: Result<(), String> = match arg.as_str() {
            "--baseline" => match iter.next() {
                Some(v) => {
                    baseline_path = Some(PathBuf::from(v));
                    Ok(())
                }
                None => Err("--baseline requires a value".to_string()),
            },
            "--threshold" => positive("--threshold").map(|x| threshold = x),
            "--scale" => positive("--scale").map(|x| scale = x),
            other if other.starts_with("--") => Err(format!("unknown argument {other:?}")),
            _ if run_path.is_none() => {
                run_path = Some(PathBuf::from(arg));
                Ok(())
            }
            _ => Err(format!("unexpected extra argument {arg:?}")),
        };
        if let Err(e) = outcome {
            eprintln!("xp profile-diff: {e}");
            eprintln!("{USAGE}");
            return 2;
        }
    }
    let (Some(run_path), Some(baseline_path)) = (run_path, baseline_path) else {
        eprintln!("{USAGE}");
        return 2;
    };
    let (measured, baseline) = match (read_suite(&run_path), read_suite(&baseline_path)) {
        (Ok(measured), Ok(baseline)) => (measured, baseline),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("xp profile-diff: {e}");
            return 2;
        }
    };
    let (rows, skipped) = diff_suite(&measured, &baseline, threshold, scale);
    for name in &skipped {
        println!("note: {name} has no baseline entry — skipped");
    }
    if rows.is_empty() {
        eprintln!(
            "xp profile-diff: no measured suite cell matches the baseline (all {} skipped)",
            skipped.len()
        );
        return 2;
    }
    let mut regressed = false;
    for row in &rows {
        let verdict = if row.regressed {
            regressed = true;
            "REGRESSED"
        } else {
            "ok"
        };
        println!(
            "{:<40} measured {:>14.1} vs baseline {:>14.1} ratio {:.3} [{verdict}]",
            row.name, row.measured, row.baseline, row.ratio
        );
    }
    if regressed {
        eprintln!(
            "xp profile-diff: suite regression — at least one benchmark below {threshold:.2}× \
             baseline"
        );
        1
    } else {
        println!(
            "profile-diff: all {} suite cells within threshold",
            rows.len()
        );
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn suite(cells: &[(&str, &str, f64)]) -> String {
        let cells: Vec<String> = cells
            .iter()
            .map(|(section, key, throughput)| {
                format!(
                    "{{\"section\":\"{section}\",\"key\":\"{key}\",\"throughput\":{throughput}}}"
                )
            })
            .collect();
        format!(
            "{{\"schema_version\":1,\"bench\":\"engine_suite\",\"cells\":[{}]}}",
            cells.join(",")
        )
    }

    fn one(throughput: f64) -> Vec<SuiteCell> {
        suite_from_json(&suite(&[("oracle", "weak_flood_n1000", throughput)])).unwrap()
    }

    #[test]
    fn diff_flags_cells_below_threshold_only() {
        let measured = suite_from_json(&suite(&[
            ("oracle", "weak_flood_n1000", 500.0),
            ("oracle", "weak_flood_n10000", 3000.0),
        ]))
        .unwrap();
        let baseline = suite_from_json(&suite(&[
            ("oracle", "weak_flood_n1000", 1000.0),
            ("oracle", "weak_flood_n10000", 2000.0),
        ]))
        .unwrap();
        let (rows, skipped) = diff_suite(&measured, &baseline, 0.7, 1.0);
        assert!(skipped.is_empty());
        assert_eq!(rows.len(), 2);
        assert!(rows[0].regressed, "0.5× must regress at 0.7");
        assert!(!rows[1].regressed, "1.5× must pass");
        // At a looser threshold the same cell passes.
        let (rows, _) = diff_suite(&measured, &baseline, 0.4, 1.0);
        assert!(!rows[0].regressed);
    }

    #[test]
    fn empty_baseline_documents_are_rejected() {
        // A zero-byte file, an empty object, and an empty cells array
        // are all hard errors — never a silent pass of the gate.
        assert!(suite_from_json("").is_err());
        assert!(suite_from_json("{}").is_err());
        let err = suite_from_json(&suite(&[])).unwrap_err();
        assert!(err.contains("empty"), "{err}");
    }

    #[test]
    fn non_finite_and_negative_throughput_is_rejected() {
        // NaN/Infinity are not valid JSON numbers, so they surface as
        // parse errors; negative and zero throughput is filtered by value.
        assert!(suite_from_json(&suite(&[("a", "b", f64::NAN)])).is_err());
        let err = suite_from_json(&suite(&[("a", "b", -5.0)])).unwrap_err();
        assert!(err.contains("throughput"), "{err}");
        assert!(suite_from_json(&suite(&[("a", "b", 0.0)])).is_err());
    }

    #[test]
    fn threshold_boundary_is_exclusive() {
        // Regression means strictly below threshold × baseline: a cell
        // measuring exactly the boundary passes. 0.7 has no exact binary
        // form, so use 0.5 for the equality case.
        let (rows, _) = diff_suite(&one(500.0), &one(1000.0), 0.5, 1.0);
        assert_eq!(rows[0].ratio, 0.5);
        assert!(
            !rows[0].regressed,
            "measured == threshold × baseline must pass"
        );
        // One ulp above the bar regresses.
        let (rows, _) = diff_suite(&one(500.0), &one(1000.0), 0.5 + f64::EPSILON, 1.0);
        assert!(rows[0].regressed);
    }

    #[test]
    fn suite_records_parse_and_diff_exactly() {
        let measured = suite_from_json(
            "{\"schema_version\":1,\"bench\":\"engine_suite\",\"cells\":[\
             {\"section\":\"oracle\",\"key\":\"weak_flood_n1000\",\"throughput\":5000.0},\
             {\"section\":\"corpus_load\",\"key\":\"heap_n10000\",\"throughput\":800.0},\
             {\"section\":\"oracle\",\"key\":\"only_in_quick\",\"throughput\":1.0}]}",
        )
        .unwrap();
        assert_eq!(measured.len(), 3);
        let baseline = suite_from_json(
            "{\"schema_version\":1,\"bench\":\"engine_suite\",\"cells\":[\
             {\"section\":\"oracle\",\"key\":\"weak_flood_n1000\",\"throughput\":4000.0},\
             {\"section\":\"corpus_load\",\"key\":\"heap_n10000\",\"throughput\":2000.0}]}",
        )
        .unwrap();
        let (rows, skipped) = diff_suite(&measured, &baseline, 0.7, 1.0);
        assert_eq!(rows.len(), 2);
        assert_eq!(skipped, vec!["oracle/only_in_quick".to_string()]);
        assert!(!rows[0].regressed, "1.25× passes");
        assert!(rows[1].regressed, "0.4× regresses");
        // Scaling the baseline 2× fails the previously-passing cell
        // (0.625 < 0.7) — the must-fail self-check CI relies on.
        let (rows, _) = diff_suite(&measured, &baseline, 0.7, 2.0);
        assert!(rows[0].regressed);
        // Schema and value validation.
        assert!(suite_from_json("{\"cells\":[]}").is_err());
        assert!(suite_from_json("{\"schema_version\":2,\"cells\":[]}").is_err());
        let err = suite_from_json(
            "{\"schema_version\":1,\"cells\":[{\"section\":\"a\",\"key\":\"b\",\
             \"throughput\":-1.0}]}",
        )
        .unwrap_err();
        assert!(err.contains("throughput"), "{err}");
    }

    #[test]
    fn suite_main_gates_end_to_end() {
        let dir = std::env::temp_dir();
        let unique = format!("{}_suite", std::process::id());
        let suite_path = dir.join(format!("pd_suite_{unique}.json"));
        std::fs::write(
            &suite_path,
            "{\"schema_version\":1,\"bench\":\"engine_suite\",\"cells\":[\
             {\"section\":\"oracle\",\"key\":\"weak_flood_n1000\",\"throughput\":5000.0}]}",
        )
        .unwrap();
        let s = |x: &str| x.to_string();
        let p = s(suite_path.to_str().unwrap());
        // Against itself: every ratio is 1.0 — passes.
        assert_eq!(main(&[p.clone(), s("--baseline"), p.clone()]), 0);
        // Doubling the baseline via --scale must fail at default 0.7...
        let doubled = [
            p.clone(),
            s("--baseline"),
            p.clone(),
            s("--scale"),
            s("2.0"),
        ];
        assert_eq!(main(&doubled), 1);
        // ...unless the threshold is loosened below the 0.5 ratio.
        let loosened = [&doubled[..], &[s("--threshold"), s("0.4")]].concat();
        assert_eq!(main(&loosened), 0);
        // Usage errors exit 2: no baseline, unknown flags (`--suite` is
        // one: suites are the only input), unreadable or non-suite inputs.
        assert_eq!(main(&[]), 2);
        assert_eq!(main(std::slice::from_ref(&p)), 2);
        assert_eq!(
            main(&[p.clone(), s("--suite"), s("--baseline"), p.clone()]),
            2
        );
        assert_eq!(
            main(&[p.clone(), s("--baseline"), s("/nonexistent.json")]),
            2
        );
        let run = dir.join(format!("pd_run_{unique}.jsonl"));
        std::fs::write(&run, "{\"type\":\"cell\"}\n").unwrap();
        assert_eq!(
            main(&[s(run.to_str().unwrap()), s("--baseline"), p.clone()]),
            2
        );
        std::fs::remove_file(&suite_path).ok();
        std::fs::remove_file(&run).ok();
    }
}
