//! The `xp lint` front end.
//!
//! Walks the workspace, runs every rule, prints a human summary, and
//! (under `--out`) writes the findings as JSON Lines through the
//! engine's record vocabulary: one `"type":"diagnostic"` record per
//! finding plus a `"type":"lint"` footer with the totals — both of
//! which `xp validate` checks structurally. Exit codes follow the
//! `xp profile-diff` convention: 0 clean, 1 unwaived findings, 2 usage
//! or I/O error.

use crate::rules::{lint_files, Diagnostic, LintReport, RULES};
use crate::walk::collect_workspace;
use nonsearch_engine::{ArgScanner, JsonValue, ToolSpec, DIAGNOSTIC_TYPE, LINT_TYPE};
use std::io::Write;
use std::path::PathBuf;

/// `xp lint`: the invariant linter.
pub const TOOL: ToolSpec = ToolSpec {
    name: "lint",
    summary: "invariant linter (--root DIR, --out FILE, --rules)",
    usage: || format!("{USAGE}\n"),
    main,
};

const USAGE: &str = "usage: xp lint [--root DIR] [--out FILE] [--rules]

Static analysis for the workspace's determinism contracts. Walks every
.rs file under DIR (default: the current directory), skipping target/,
vendor/, .git/, and fixtures/ trees, and checks the rules `--rules`
lists.

Intentional findings carry an inline waiver on (or directly above) the
flagged line:

  // lint: allow(<rule>): <one-line reason>

Waived findings are reported but do not fail the run. A waiver with no
reason is itself a finding.

flags:
  --root DIR   lint the tree rooted at DIR instead of .
  --out FILE   write JSONL diagnostics (validatable by `xp validate`)
  --rules      print the rule table and exit

exit codes: 0 clean, 1 unwaived findings, 2 usage or I/O error";

/// Runs `xp lint` with `args` (everything after the subcommand).
/// Returns the process exit code.
pub fn main(args: &[String]) -> i32 {
    let mut root = PathBuf::from(".");
    let mut out: Option<PathBuf> = None;
    let mut rules = false;
    let scanned = ArgScanner::scan(args, |arg, scan| {
        match arg {
            "--root" => root = scan.value("--root")?.into(),
            "--out" => out = Some(scan.value("--out")?.into()),
            "--rules" => rules = scan.switch("--rules")?,
            _ => return Ok(false),
        }
        Ok(true)
    });
    if let Err(e) = scanned {
        return TOOL.usage_error(e);
    }
    if rules {
        for rule in RULES {
            println!("{:<20} {}", rule.id, rule.contract);
        }
        return 0;
    }
    let files = match collect_workspace(&root) {
        Ok(files) => files,
        Err(e) => {
            eprintln!("xp lint: cannot read {}: {e}", root.display());
            return 2;
        }
    };
    if files.is_empty() {
        eprintln!("xp lint: no .rs files under {}", root.display());
        return 2;
    }
    let report = lint_files(&files);
    if let Some(path) = &out {
        if let Err(e) = write_jsonl(path, &report) {
            eprintln!("xp lint: cannot write {}: {e}", path.display());
            return 2;
        }
    }
    for d in &report.diagnostics {
        if d.waived.is_none() {
            println!("{}:{}: [{}] {}", d.path, d.line, d.rule, d.message);
        }
    }
    println!(
        "lint: {} files, {} findings ({} waived), {} violations",
        report.files,
        report.diagnostics.len(),
        report.waived(),
        report.violations()
    );
    i32::from(report.violations() > 0)
}

/// One finding as a `"type":"diagnostic"` JSONL record.
fn diagnostic_record(d: &Diagnostic) -> JsonValue {
    JsonValue::object(vec![
        ("type", JsonValue::from(DIAGNOSTIC_TYPE)),
        ("rule", JsonValue::from(d.rule.as_str())),
        ("path", JsonValue::from(d.path.as_str())),
        ("line", JsonValue::from(d.line)),
        ("message", JsonValue::from(d.message.as_str())),
        ("waived", JsonValue::from(d.waived.is_some())),
        ("reason", JsonValue::from(d.waived.clone())),
    ])
}

/// The whole report as JSONL: diagnostics then the `"type":"lint"`
/// footer.
fn write_jsonl(path: &std::path::Path, report: &LintReport) -> std::io::Result<()> {
    let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
    for d in &report.diagnostics {
        writeln!(file, "{}", diagnostic_record(d))?;
    }
    let footer = JsonValue::object(vec![
        ("type", JsonValue::from(LINT_TYPE)),
        ("files", JsonValue::from(report.files)),
        ("diagnostics", JsonValue::from(report.diagnostics.len())),
        ("waived", JsonValue::from(report.waived())),
        ("violations", JsonValue::from(report.violations())),
    ]);
    writeln!(file, "{footer}")?;
    file.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nonsearch_engine::validate_jsonl;

    #[test]
    fn jsonl_report_round_trips_through_xp_validate() {
        let report = LintReport {
            files: 3,
            diagnostics: vec![
                Diagnostic {
                    rule: "determinism".into(),
                    path: "crates/core/src/x.rs".into(),
                    line: 4,
                    message: "HashMap in deterministic-aggregate code".into(),
                    waived: Some("keyed lookup only".into()),
                },
                Diagnostic {
                    rule: "clock-env".into(),
                    path: "crates/search/src/y.rs".into(),
                    line: 9,
                    message: "Instant::now outside the obs seam".into(),
                    waived: None,
                },
            ],
        };
        let path = std::env::temp_dir().join(format!("lint_cli_{}.jsonl", std::process::id()));
        write_jsonl(&path, &report).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let summary = validate_jsonl(&text).unwrap();
        assert_eq!(summary.diagnostics, 2);
        assert_eq!(summary.lints, 1);
        assert!(text.contains("\"violations\":1"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn usage_errors_exit_2() {
        let bad = vec!["--frobnicate".to_string()];
        assert_eq!(main(&bad), 2);
        let no_dir = vec!["--root".to_string()];
        assert_eq!(main(&no_dir), 2);
    }
}
