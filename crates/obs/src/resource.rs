//! Process resource sampling from `/proc`, with no libc dependency.
//!
//! The container has no network and the workspace vendors no FFI
//! crates, so — in the same hand-rolled spirit as the corpus crate's
//! `mmap(2)` wrapper — peak RSS, page faults, and context switches are
//! read straight out of `/proc/self/status` and `/proc/self/stat` with
//! plain `std::fs` text parsing. On non-Linux targets every field is
//! zero and [`ResourceSample::current`] is an allocation of nothing
//! but honesty.
//!
//! Samples are **process-wide and monotone-ish** (peak RSS never
//! falls; fault and switch counters only grow), so the engine records
//! one per size cell rather than per trial: the per-cell deltas are
//! what a regression reader actually wants, and sampling stays off the
//! allocation-free trial hot path (reading `/proc` allocates).

/// One point-in-time reading of the process's resource counters.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ResourceSample {
    /// Peak resident set size in bytes (`VmHWM`); 0 off Linux.
    pub peak_rss_bytes: u64,
    /// Minor page faults serviced without I/O (`minflt`).
    pub minor_faults: u64,
    /// Major page faults that required I/O (`majflt`).
    pub major_faults: u64,
    /// Voluntary context switches (blocking waits, yields).
    pub voluntary_ctx_switches: u64,
}

impl ResourceSample {
    /// Reads the current process counters. All-zero when `/proc` is
    /// unavailable (non-Linux, or an exotic sandbox).
    pub fn current() -> ResourceSample {
        if cfg!(target_os = "linux") {
            let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
            let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
            ResourceSample::from_proc(&status, &stat)
        } else {
            ResourceSample::default()
        }
    }

    /// Parses the two `/proc` documents; split out for testability
    /// (fields default to 0 when missing or malformed — a resource
    /// sample must never abort a run).
    fn from_proc(status: &str, stat: &str) -> ResourceSample {
        ResourceSample {
            peak_rss_bytes: status_kb(status, "VmHWM:").map_or(0, |kb| kb.saturating_mul(1024)),
            minor_faults: stat_field(stat, 7).unwrap_or(0),
            major_faults: stat_field(stat, 9).unwrap_or(0),
            voluntary_ctx_switches: status_u64(status, "voluntary_ctxt_switches:").unwrap_or(0),
        }
    }
}

/// The numeric value of a `Key:\t  N` line in `/proc/self/status`.
fn status_u64(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|token| token.parse().ok())
}

/// The numeric value of a `Key:\t  N kB` line in `/proc/self/status`.
fn status_kb(status: &str, key: &str) -> Option<u64> {
    status_u64(status, key)
}

/// Zero-based field index into `/proc/self/stat`, counted **after**
/// the `comm` field: `(pid) (comm) state ppid …`. The comm can contain
/// spaces and parentheses, so parsing anchors on the *last* `)` — the
/// kernel guarantees everything after it is space-separated numbers
/// and single-character flags. Index 0 is `state` (stat field 3, one
/// based), so `minflt` (stat field 10) is index 7 and `majflt`
/// (field 12) is index 9.
fn stat_field(stat: &str, index_after_comm: usize) -> Option<u64> {
    let rest = stat.rsplit_once(')').map(|(_, rest)| rest)?;
    rest.split_whitespace()
        .nth(index_after_comm)
        .and_then(|token| token.parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    const STATUS: &str = "Name:\tnonsearch\nVmPeak:\t  202348 kB\nVmHWM:\t   51004 kB\n\
                          VmRSS:\t   50892 kB\nThreads:\t5\n\
                          voluntary_ctxt_switches:\t1289\n\
                          nonvoluntary_ctxt_switches:\t44\n";
    // A comm with spaces and a ')' inside — the adversarial case the
    // last-paren anchor exists for. Fields after the comm:
    // state ppid pgrp session tty tpgid flags minflt cminflt majflt …
    const STAT: &str = "4242 (xp bench) suite) R 1 4242 4242 0 -1 4194304 \
                        31415 0 27 0 12 3 0 0 20 0 5 0 100 2072576 12723";

    #[test]
    fn parses_status_fields() {
        let s = ResourceSample::from_proc(STATUS, STAT);
        assert_eq!(s.peak_rss_bytes, 51004 * 1024);
        assert_eq!(s.voluntary_ctx_switches, 1289);
    }

    #[test]
    fn parses_stat_fields_past_a_hostile_comm() {
        let s = ResourceSample::from_proc(STATUS, STAT);
        assert_eq!(s.minor_faults, 31415);
        assert_eq!(s.major_faults, 27);
    }

    #[test]
    fn malformed_documents_fall_back_to_zero() {
        let s = ResourceSample::from_proc("", "");
        assert_eq!(s, ResourceSample::default());
        let s = ResourceSample::from_proc("VmHWM:\tnot-a-number kB\n", "no parens here");
        assert_eq!(s.peak_rss_bytes, 0);
        assert_eq!(s.minor_faults, 0);
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn live_sample_reports_nonzero_rss() {
        let s = ResourceSample::current();
        assert!(s.peak_rss_bytes > 0, "{s:?}");
        // Fault counters are monotone: a later sample never shrinks.
        let t = ResourceSample::current();
        assert!(t.minor_faults >= s.minor_faults);
        assert!(t.peak_rss_bytes >= s.peak_rss_bytes);
    }
}
