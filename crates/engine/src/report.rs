//! `xp report` — render a run's JSONL records as a terminal summary.
//!
//! Where `xp validate` checks a record stream and `xp profile-diff`
//! gates its exact work counters against a committed fixture, `xp
//! report` is for *reading* a run: from its `"type":"perf"` records, a
//! per-cell throughput table, a per-phase time breakdown, and an ASCII
//! render of the merged log₂ request histogram. Each cell is labelled
//! by its record's identity keys after `experiment` (e.g.
//! `k=2.3 oracle=weak n=2000`), the keys `xp profile-diff` matches
//! records by.
//!
//! ```text
//! xp report <run.jsonl> [--require-phases]
//! ```
//!
//! * `--require-phases` — exit `1` unless the run carries at least one
//!   perf record with a nonzero phase total (CI's assertion that phase
//!   timing is actually wired through the binaries it smokes).
//!
//! Exit codes: `0` rendered, `1` `--require-phases` unmet, `2` usage or
//! I/O error.

use crate::json::{self, JsonValue};
use crate::options::ArgScanner;
use crate::profile_diff::identity_keys;
use crate::record::{PERF_TYPE, RUN_TYPE};
use crate::registry::ToolSpec;
use nonsearch_analysis::Table;
use nonsearch_obs::{render_log2_histogram, Metrics, PhaseTimes};
use std::path::PathBuf;

/// `xp report`: renders a run's records.
pub const TOOL: ToolSpec = ToolSpec {
    name: "report",
    summary: "render a run's records as a terminal summary",
    usage: || "usage: xp report <run.jsonl> [--require-phases]\n".to_string(),
    main,
};

/// One parsed `"type":"perf"` record.
#[derive(Debug, Clone, PartialEq)]
struct PerfRow {
    label: String,
    trials: u64,
    requests: u64,
    wall_ms: f64,
    requests_per_sec: f64,
    workers: f64,
    phases: Vec<(&'static str, f64)>,
    allocations: f64,
    peak_rss_bytes: f64,
}

/// Everything [`parse_run`] extracts from a run's JSONL stream.
#[derive(Debug, Clone, PartialEq, Default)]
struct RunReport {
    experiment: String,
    perf: Vec<PerfRow>,
    /// The counters of every perf record, merged.
    metrics: Metrics,
    footer: Option<(u64, bool, u64)>, // (seed, quick, wall_ms)
}

fn num(value: &JsonValue, key: &str) -> f64 {
    value.get(key).and_then(|v| v.as_f64()).unwrap_or(0.0)
}

/// A perf record's row label: its identity keys after `experiment`, as
/// `key=value` pairs (`-` when it has none).
fn cell_label(record: &JsonValue) -> String {
    let pairs: Vec<String> = identity_keys(record)
        .filter(|(key, _)| key != "experiment")
        .map(|(key, value)| match value.as_str() {
            Some(text) => format!("{key}={text}"),
            None => format!("{key}={value}"),
        })
        .collect();
    if pairs.is_empty() {
        "-".to_string()
    } else {
        pairs.join(" ")
    }
}

/// Collects the renderable records from a JSONL stream. Lenient by
/// design — `xp validate` is the strict checker; the report renders
/// whatever well-formed records it finds.
fn parse_run(text: &str) -> Result<RunReport, String> {
    let mut report = RunReport::default();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let value = json::parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        if report.experiment.is_empty() {
            if let Some(e) = value.get("experiment").and_then(|v| v.as_str()) {
                report.experiment = e.to_string();
            }
        }
        match value.get("type").and_then(|t| t.as_str()) {
            Some(t) if t == PERF_TYPE => {
                let count = |key: &str| num(&value, key) as u64;
                let m = &mut report.metrics;
                for (key, counter) in m.named_mut() {
                    *counter += count(key);
                }
                if let Some(buckets) = value.get("hist_requests_log2").and_then(|v| v.as_array()) {
                    for (i, bucket) in buckets.iter().enumerate() {
                        if let Some(n) = bucket.as_f64().filter(|x| *x >= 0.0) {
                            m.trial_requests.add_to_bucket(i, n as u64);
                        }
                    }
                }
                report.perf.push(PerfRow {
                    label: cell_label(&value),
                    trials: count("trials"),
                    requests: count("requests"),
                    wall_ms: num(&value, "wall_ms"),
                    requests_per_sec: num(&value, "requests_per_sec"),
                    workers: num(&value, "workers"),
                    phases: PhaseTimes::new()
                        .named()
                        .iter()
                        .map(|&(key, _)| {
                            (key.strip_prefix("phase_").unwrap_or(key), num(&value, key))
                        })
                        .collect(),
                    allocations: num(&value, "allocations"),
                    peak_rss_bytes: num(&value, "peak_rss_bytes"),
                });
            }
            Some(t) if t == RUN_TYPE => {
                report.footer = Some((
                    num(&value, "seed") as u64,
                    value
                        .get("quick")
                        .and_then(|v| v.as_bool())
                        .unwrap_or(false),
                    num(&value, "wall_ms") as u64,
                ));
            }
            _ => {}
        }
    }
    Ok(report)
}

fn render(report: &RunReport) -> String {
    let mut out = String::new();
    let (seed, quick, wall_ms) = report.footer.unwrap_or((0, false, 0));
    out.push_str(&format!(
        "run: {} (seed {:#x}{}, {} ms)\n",
        if report.experiment.is_empty() {
            "<unknown>"
        } else {
            &report.experiment
        },
        seed,
        if quick { ", quick" } else { "" },
        wall_ms
    ));
    if report.perf.is_empty() {
        return out;
    }

    out.push_str("\nthroughput:\n");
    let mut t = Table::with_columns(&["cell", "trials", "requests", "wall_ms", "req/s"]);
    for p in &report.perf {
        t.row(vec![
            p.label.clone(),
            p.trials.to_string(),
            p.requests.to_string(),
            format!("{:.1}", p.wall_ms),
            format!("{:.0}", p.requests_per_sec),
        ]);
    }
    out.push_str(&t.to_string());

    out.push_str("\nphases (per-worker busy ms):\n");
    // One column per `PhaseTimes::named()` field, in record order.
    let phases = PhaseTimes::new().named().map(|(key, _)| {
        key.strip_prefix("phase_")
            .and_then(|k| k.strip_suffix("_ns"))
            .unwrap_or(key)
    });
    let mut columns = vec!["cell", "wall_ms", "workers"];
    columns.extend(phases);
    columns.extend(["allocs", "rss_mb"]);
    let mut t = Table::with_columns(&columns);
    for p in &report.perf {
        let mut row = vec![
            p.label.clone(),
            format!("{:.0}", p.wall_ms),
            format!("{:.0}", p.workers),
        ];
        row.extend(p.phases.iter().map(|&(_, ns)| format!("{:.2}", ns / 1e6)));
        row.push(format!("{:.0}", p.allocations));
        row.push(format!("{:.1}", p.peak_rss_bytes / (1024.0 * 1024.0)));
        t.row(row);
    }
    out.push_str(&t.to_string());

    out.push_str(&format!(
        "\nmetrics ({} perf records merged): {} trials, {} requests, {} discoveries\n",
        report.perf.len(),
        report.metrics.trials,
        report.metrics.requests,
        report.metrics.discoveries
    ));
    out.push_str("per-trial request histogram:\n");
    out.push_str(&render_log2_histogram(&report.metrics.trial_requests, 40));
    out
}

/// The `xp report` subcommand body. Returns the process exit code.
pub fn main(args: &[String]) -> i32 {
    let mut run_path: Option<PathBuf> = None;
    let mut require_phases = false;
    let scanned = ArgScanner::scan(args, |arg, scan| {
        match arg {
            "--require-phases" => require_phases = scan.switch("--require-phases")?,
            path if !path.starts_with("--") && run_path.is_none() => run_path = Some(path.into()),
            _ => return Ok(false),
        }
        Ok(true)
    });
    if let Err(e) = scanned {
        return TOOL.usage_error(e);
    }
    let Some(run_path) = run_path else {
        return TOOL.usage_error("no run file given");
    };
    let report = match std::fs::read_to_string(&run_path)
        .map_err(|e| format!("cannot read {}: {e}", run_path.display()))
        .and_then(|text| parse_run(&text).map_err(|e| format!("{}: {e}", run_path.display())))
    {
        Ok(report) => report,
        Err(e) => {
            eprintln!("xp report: {e}");
            return 2;
        }
    };
    print!("{}", render(&report));

    if require_phases {
        let phase_total: f64 = report
            .perf
            .iter()
            .flat_map(|p| p.phases.iter().map(|&(_, ns)| ns))
            .sum();
        if phase_total <= 0.0 {
            eprintln!(
                "xp report: --require-phases — no perf records with nonzero phase times in {}",
                run_path.display()
            );
            return 1;
        }
        println!(
            "\nrequire-phases: {} perf records, {:.2} ms total phase time — OK",
            report.perf.len(),
            phase_total / 1e6
        );
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = concat!(
        "{\"type\":\"cell\",\"experiment\":\"demo\",\"n\":128,\"mean\":10.0}\n",
        "{\"type\":\"perf\",\"experiment\":\"demo\",\"n\":128,\"trials\":4,\"requests\":512,\
         \"lanes\":1,\"wall_ms\":2.5,\"requests_per_sec\":204800.0,\"discoveries\":32,\
         \"edge_resolutions\":64,\"frontier_rescans\":0,\"slot_reads\":96,\"scratch_resets\":4,\
         \"faults_injected\":0,\"trials_retried\":0,\"trials_skipped\":0,\
         \"hist_requests_log2\":[0,0,0,0,0,0,0,4],\"workers\":2,\
         \"phase_generate_ns\":1000000,\"phase_load_ns\":0,\"phase_search_ns\":4000000,\
         \"phase_analyze_ns\":300000,\"phase_harvest_ns\":200000,\"phase_merge_ns\":100000,\
         \"allocations\":0,\"peak_rss_bytes\":52428800,\"minor_faults\":10,\"major_faults\":0,\
         \"voluntary_ctx_switches\":2}\n",
        "{\"type\":\"run\",\"experiment\":\"demo\",\"seed\":225,\"quick\":true,\"threads\":2,\
         \"git\":\"x\",\"wall_ms\":9,\"cells\":1,\"perf\":1}\n",
    );

    #[test]
    fn parse_collects_every_record_kind() {
        let r = parse_run(SAMPLE).unwrap();
        assert_eq!(r.experiment, "demo");
        assert_eq!(r.perf.len(), 1);
        assert_eq!(r.perf[0].requests, 512);
        assert_eq!(r.perf[0].requests_per_sec, 204800.0);
        assert_eq!(r.perf[0].phases[2], ("search_ns", 4000000.0));
        assert_eq!(r.metrics.trials, 4);
        assert_eq!(r.metrics.trial_requests.total(), 4);
        assert_eq!(r.footer, Some((225, true, 9)));
    }

    #[test]
    fn perf_fields_round_trip_through_parse_run() {
        let mut obs = crate::CellObs::default();
        for (i, (_, counter)) in obs.metrics.named_mut().into_iter().enumerate() {
            *counter = 10 + i as u64;
        }
        obs.metrics.observe_trial_requests(3);
        obs.metrics.observe_trial_requests(700);
        let mut fields = vec![("type", JsonValue::from(PERF_TYPE))];
        fields.extend(crate::perf_fields(&obs));
        let record = JsonValue::object(fields).to_string();
        assert_eq!(parse_run(&record).unwrap().metrics, obs.metrics);
    }

    #[test]
    fn render_covers_throughput_phases_and_histogram() {
        let text = render(&parse_run(SAMPLE).unwrap());
        assert!(text.contains("run: demo"), "{text}");
        assert!(text.contains("quick"), "{text}");
        assert!(text.contains("throughput:"), "{text}");
        assert!(text.contains("204800"), "{text}");
        assert!(text.contains("phases"), "{text}");
        // Every phase gets a column; the analyze one reads 0.30 ms.
        for phase in ["generate", "load", "search", "analyze", "harvest", "merge"] {
            assert!(text.contains(phase), "{phase}: {text}");
        }
        assert!(text.contains("0.30"), "{text}");
        assert!(text.contains("n=128"), "{text}");
        assert!(text.contains("histogram"), "{text}");
        // All four trials land in bucket 7: [64, 128).
        assert!(text.contains("[64, 128)"), "{text}");
    }

    #[test]
    fn cells_are_labelled_by_every_identity_key() {
        let weak = SAMPLE.lines().nth(1).unwrap();
        let strong = weak.replace("\"n\":128,", "\"oracle\":\"strong\",\"n\":128,");
        let weak = weak.replace("\"n\":128,", "\"oracle\":\"weak\",\"n\":128,");
        let report = parse_run(&format!("{weak}\n{strong}\n")).unwrap();
        let labels: Vec<&str> = report.perf.iter().map(|p| p.label.as_str()).collect();
        assert_eq!(labels, ["oracle=weak n=128", "oracle=strong n=128"]);
        let text = render(&report);
        assert!(text.contains("oracle=strong n=128"), "{text}");
    }

    #[test]
    fn main_reports_and_gates_phases_end_to_end() {
        let dir = std::env::temp_dir();
        let unique = format!("{}_report", std::process::id());
        let run = dir.join(format!("rep_{unique}.jsonl"));
        std::fs::write(&run, SAMPLE).unwrap();
        let s = |x: &str| x.to_string();
        let p = s(run.to_str().unwrap());
        assert_eq!(main(std::slice::from_ref(&p)), 0);
        assert_eq!(main(&[p.clone(), s("--require-phases")]), 0);
        // A run with no perf records fails --require-phases.
        let bare = dir.join(format!("rep_bare_{unique}.jsonl"));
        std::fs::write(&bare, "{\"type\":\"cell\",\"experiment\":\"demo\"}\n").unwrap();
        assert_eq!(main(&[s(bare.to_str().unwrap()), s("--require-phases")]), 1);
        // Zeroed phase times also fail the gate.
        let zeroed = dir.join(format!("rep_zero_{unique}.jsonl"));
        std::fs::write(
            &zeroed,
            SAMPLE
                .replace("\"phase_generate_ns\":1000000", "\"phase_generate_ns\":0")
                .replace("\"phase_search_ns\":4000000", "\"phase_search_ns\":0")
                .replace("\"phase_analyze_ns\":300000", "\"phase_analyze_ns\":0")
                .replace("\"phase_harvest_ns\":200000", "\"phase_harvest_ns\":0")
                .replace("\"phase_merge_ns\":100000", "\"phase_merge_ns\":0"),
        )
        .unwrap();
        assert_eq!(
            main(&[s(zeroed.to_str().unwrap()), s("--require-phases")]),
            1
        );
        // Usage errors exit 2; `--baseline` is not a report flag.
        assert_eq!(main(&[]), 2);
        assert_eq!(main(&[p.clone(), s("--wat")]), 2);
        assert_eq!(main(&[p.clone(), s("--baseline"), p.clone()]), 2);
        assert_eq!(main(&[s("/nonexistent/run.jsonl")]), 2);
        std::fs::remove_file(&run).ok();
        std::fs::remove_file(&bare).ok();
        std::fs::remove_file(&zeroed).ok();
    }
}
