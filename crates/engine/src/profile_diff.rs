//! `xp profile-diff` — the exact work-counter gate.
//!
//! Projects every `"type":"perf"` record of a run to its exact part
//! (`exact_counters`: the cell's identity keys, the
//! [`Metrics::named`] counters and `hist_requests_log2`) and compares
//! the projections, record by record and field by field, with a
//! committed `.counters` fixture. The counters are integers merged in
//! trial order, so they are the same at any `--threads` on any host:
//! the gate reads no clock and needs no threshold.
//!
//! ```text
//! xp profile-diff RUN.jsonl [--baseline FILE.counters]
//! ```
//!
//! Without `--baseline` it prints the projected lines — which is how a
//! fixture is written, so the code that checks a fixture is also the
//! code that emits it.
//!
//! Exit codes: `0` the counters are equal (or were printed), `1` they
//! differ — the first differing record and field are named, with the
//! value got and the value wanted; a missing or extra record is a
//! difference — and `2` a usage or I/O error, including a run with no
//! perf records and a baseline that is not a counters fixture.

use crate::json::{self, JsonValue};
use crate::options::ArgScanner;
use crate::record::PERF_TYPE;
use crate::registry::ToolSpec;
use nonsearch_obs::Metrics;
use std::path::PathBuf;

/// `xp profile-diff`: compares a run's exact work counters with a
/// committed fixture.
pub const TOOL: ToolSpec = ToolSpec {
    name: "profile-diff",
    summary: "compare a run's exact perf counters with a .counters fixture (--baseline FILE)",
    usage: || "usage: xp profile-diff RUN.jsonl [--baseline FILE.counters]\n".into(),
    main,
};

/// A perf record's identity keys: every field before `trials`, `type`
/// excepted — `experiment` and the cell's parameters, in record order.
/// They tell one cell's record from another's. The rule holds because
/// [`RunWriter::record_perf`](crate::RunWriter::record_perf) writes the
/// cell's [`CellKey`](crate::CellKey) and then the perf payload, which
/// starts with `trials`.
pub(crate) fn identity_keys(record: &JsonValue) -> impl Iterator<Item = &(String, JsonValue)> {
    let pairs = match record {
        JsonValue::Object(pairs) => pairs.as_slice(),
        _ => &[],
    };
    pairs
        .iter()
        .take_while(|(key, _)| key != "trials")
        .filter(|(key, _)| key != "type")
}

/// A perf record cut down to its exact part: its [`identity_keys`],
/// the [`Metrics::named`] counters and `hist_requests_log2`, in that
/// order. Wall time, phases and the `/proc` sample are dropped.
/// Projecting a projection returns it unchanged.
fn exact_counters(record: &JsonValue) -> Result<JsonValue, String> {
    if !matches!(record, JsonValue::Object(_)) {
        return Err(format!("a perf record is an object, not {record}"));
    }
    let identity = identity_keys(record).cloned();
    let field = |key: &str| {
        record
            .get(key)
            .map(|value| (key.to_string(), value.clone()))
            .ok_or_else(|| format!("no {key:?} field in {record}"))
    };
    let exact = Metrics::new()
        .named()
        .iter()
        .map(|&(key, _)| key)
        .chain(["hist_requests_log2"])
        .map(field)
        .collect::<Result<Vec<_>, String>>()?;
    Ok(JsonValue::Object(identity.chain(exact).collect()))
}

/// The [`exact_counters`] of every perf record in a run's JSON Lines.
fn run_counters(text: &str) -> Result<Vec<JsonValue>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let value = json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        if value.get("type").and_then(|t| t.as_str()) == Some(PERF_TYPE) {
            out.push(exact_counters(&value).map_err(|e| format!("line {}: {e}", i + 1))?);
        }
    }
    Ok(out)
}

/// Reads a `.counters` fixture: one [`exact_counters`] projection per
/// line, which every line must already be.
fn read_baseline(text: &str) -> Result<Vec<JsonValue>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let value = json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        match exact_counters(&value) {
            Ok(projected) if projected == value => out.push(value),
            Ok(_) => return Err(format!("line {}: not a counters record: {line}", i + 1)),
            Err(e) => return Err(format!("line {}: {e}", i + 1)),
        }
    }
    Ok(out)
}

/// The first difference between `got` and `want`, record by record: its
/// index and identity, the first field that differs and both values.
/// `None` when they are equal.
fn first_difference(got: &[JsonValue], want: &[JsonValue]) -> Option<String> {
    let pairs = |record: &JsonValue| match record {
        JsonValue::Object(pairs) => pairs.clone(),
        _ => Vec::new(),
    };
    let index = (0..got.len().max(want.len())).find(|&i| got.get(i) != want.get(i))?;
    let at = |record| {
        let identity: Vec<String> = identity_keys(record)
            .map(|(key, value)| format!("{key}={value}"))
            .collect();
        format!("perf record {} ({})", index + 1, identity.join(" "))
    };
    Some(match (got.get(index), want.get(index)) {
        (Some(g), None) => format!("{}: extra record, not in the baseline", at(g)),
        (None, Some(w)) => format!("{}: missing from the run", at(w)),
        (Some(g), Some(w)) => {
            let show = |v: Option<&JsonValue>| v.map_or("nothing".into(), |v| v.to_string());
            let mut keys = pairs(w).into_iter().chain(pairs(g)).map(|(key, _)| key);
            match keys.find(|key| g.get(key) != w.get(key)) {
                Some(key) => format!(
                    "{}: {key} got {}, want {}",
                    at(w),
                    show(g.get(&key)),
                    show(w.get(&key))
                ),
                None => format!("{}: fields in another order: got {g}, want {w}", at(w)),
            }
        }
        (None, None) => unreachable!("the index is below the longer length"),
    })
}

/// The `xp profile-diff` subcommand body. Returns the process exit code.
pub fn main(args: &[String]) -> i32 {
    let (mut run_path, mut baseline_path): (Option<PathBuf>, Option<PathBuf>) = (None, None);
    let scanned = ArgScanner::scan(args, |arg, scan| {
        match arg {
            "--baseline" => baseline_path = Some(scan.value("--baseline")?.into()),
            path if !path.starts_with("--") && run_path.is_none() => run_path = Some(path.into()),
            _ => return Ok(false),
        }
        Ok(true)
    });
    if let Err(e) = scanned {
        return TOOL.usage_error(e);
    }
    let Some(run_path) = run_path else {
        return TOOL.usage_error("needs a run's JSON Lines file");
    };
    // An empty side is an error, never a silent pass.
    let read = |path: &PathBuf, parse: fn(&str) -> Result<Vec<JsonValue>, String>, empty| {
        std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| parse(&text))
            .and_then(|records| match records.is_empty() {
                true => Err(empty),
                false => Ok(records),
            })
            .map_err(|e| format!("{}: {e}", path.display()))
    };
    let no_perf = "no perf records (was the run made with --profile?)".to_string();
    let got = match read(&run_path, run_counters, no_perf) {
        Ok(got) => got,
        Err(e) => {
            eprintln!("xp profile-diff: {e}");
            return 2;
        }
    };
    let Some(baseline_path) = baseline_path else {
        for record in &got {
            println!("{record}");
        }
        return 0;
    };
    let want = match read(
        &baseline_path,
        read_baseline,
        "no counters records".to_string(),
    ) {
        Ok(want) => want,
        Err(e) => {
            eprintln!("xp profile-diff: {e}");
            return 2;
        }
    };
    match first_difference(&got, &want) {
        Some(difference) => {
            eprintln!(
                "xp profile-diff: counters differ from {}\n{difference}",
                baseline_path.display()
            );
            1
        }
        None => {
            println!(
                "profile-diff: all {} perf records match {}",
                got.len(),
                baseline_path.display()
            );
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A perf record of one cell with `requests` requests.
    fn perf(n: u64, requests: u64) -> String {
        let mut obs = crate::CellObs::default();
        obs.metrics.trials = 2;
        obs.metrics.requests = requests;
        obs.metrics.observe_trial_requests(requests / 2);
        obs.metrics.observe_trial_requests(requests - requests / 2);
        let mut fields = vec![
            ("type", JsonValue::from(PERF_TYPE)),
            ("experiment", JsonValue::from("demo")),
            ("n", JsonValue::from(n)),
        ];
        fields.extend(crate::perf_fields(&obs));
        JsonValue::object(fields).to_string()
    }

    fn lines(records: &[JsonValue]) -> String {
        records.iter().map(|r| format!("{r}\n")).collect()
    }

    #[test]
    fn the_projection_keeps_identity_counters_and_histogram_only() {
        let got = run_counters(&format!("{{\"type\":\"cell\"}}\n{}\n", perf(64, 10))).unwrap();
        assert_eq!(got.len(), 1);
        let JsonValue::Object(pairs) = &got[0] else {
            panic!("{}", got[0]);
        };
        let keys: Vec<&str> = pairs.iter().map(|(key, _)| key.as_str()).collect();
        let mut want = vec!["experiment", "n"];
        want.extend(Metrics::new().named().map(|(key, _)| key));
        want.push("hist_requests_log2");
        assert_eq!(keys, want);
        // A projection projects to itself, so a fixture reads back.
        assert_eq!(exact_counters(&got[0]).unwrap(), got[0]);
        assert_eq!(read_baseline(&lines(&got)).unwrap(), got);
    }

    #[test]
    fn the_first_difference_names_record_field_and_values() {
        let base = run_counters(&format!("{}\n{}\n", perf(64, 10), perf(128, 30))).unwrap();
        assert_eq!(first_difference(&base, &base), None);
        let bumped = run_counters(&format!("{}\n{}\n", perf(64, 10), perf(128, 31))).unwrap();
        let d = first_difference(&bumped, &base).unwrap();
        assert!(
            d.contains("perf record 2 (experiment=\"demo\" n=128)"),
            "{d}"
        );
        assert!(d.contains("requests got 31, want 30"), "{d}");
        let d = first_difference(&base[..1], &base).unwrap();
        assert!(d.contains("perf record 2") && d.contains("missing"), "{d}");
        let d = first_difference(&base, &base[..1]).unwrap();
        assert!(d.contains("perf record 2") && d.contains("extra"), "{d}");
    }

    #[test]
    fn empty_baseline_documents_are_rejected() {
        // An empty file reads as no records, which `main` refuses; an
        // empty object, a whole perf record, a timing-suite document and
        // a record missing a counter are not counters lines at all.
        assert_eq!(read_baseline("").unwrap(), vec![]);
        assert!(read_baseline("{}").is_err());
        assert!(read_baseline(&perf(64, 10)).is_err());
        let suite = "{\"schema_version\":1,\"bench\":\"engine_suite\",\"cells\":[]}";
        assert!(read_baseline(suite).is_err());
        assert!(read_baseline("{\"n\":64,\"trials\":2}").is_err());
        assert!(read_baseline("not json").is_err());
    }
}
