//! The workspace itself passes `xp lint`, and its clock reads stay
//! behind `nonsearch_obs::PhaseClock`: every phase and cell timer goes
//! through the obs seam, so copy-pasted `Instant::now` timers cannot
//! come back unnoticed.

use nonsearch_lint::lint_tree;
use std::path::Path;

/// The clock reads that legitimately bypass `PhaseClock`: the runner's
/// watchdog deadline (2), the corpus build footer (1), and the `xp
/// bench` suite's measurement loops (2).
const MAX_CLOCK_ENV_WAIVERS: usize = 5;

#[test]
fn workspace_lints_clean_within_the_clock_waiver_budget() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = lint_tree(&root).expect("workspace is readable");
    assert!(report.files > 0, "no sources under {}", root.display());
    let unwaived: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.waived.is_none())
        .collect();
    assert!(unwaived.is_empty(), "unwaived lint findings: {unwaived:#?}");
    let clock: Vec<String> = report
        .diagnostics
        .iter()
        .filter(|d| d.rule == "clock-env")
        .map(|d| format!("{}:{}", d.path, d.line))
        .collect();
    assert!(
        clock.len() <= MAX_CLOCK_ENV_WAIVERS,
        "{} clock-env waivers (at most {MAX_CLOCK_ENV_WAIVERS}); time phases with \
         nonsearch_obs::PhaseClock instead: {clock:#?}",
        clock.len()
    );
}
