//! `nonsearch_obs` — observability primitives for the trial engine.
//!
//! Two independent facilities, both hand-rolled (the build has no
//! network, so no external metrics/tracing crates):
//!
//! * **Metrics** — a fixed-capacity bundle of per-worker counters and
//!   one log₂ histogram ([`Metrics`], [`Log2Histogram`]). Everything is
//!   inline plain-old-data: updating a counter is an integer add,
//!   recording a histogram sample is an add at a computed index, and
//!   merging two bundles is field-wise `u64` addition — exact and
//!   associative, so aggregates merged in strict trial order are
//!   bit-identical for any worker count, and nothing in the steady
//!   state touches the heap.
//! * **Tracing** — a cheap span tracer ([`Tracer`], [`SpanGuard`])
//!   whose scopes record wall-clock begin/duration pairs and export
//!   them as Chrome Trace Event Format JSON
//!   ([`Tracer::to_chrome_trace`]), loadable in `chrome://tracing` or
//!   Perfetto. A disabled tracer (the default) reduces every scope to
//!   an `Option` check; an enabled one appends to a mutex-guarded
//!   event buffer, which may allocate — tracing is opt-in per run and
//!   sits outside the allocation-free guarantee, which covers the
//!   metrics path only.
//! * **Resources** — fixed-shape per-worker phase timers
//!   ([`PhaseTimes`]) that decompose trial wall time like `Metrics`
//!   decomposes trial work, the stopwatch every timer in the workspace
//!   reads ([`PhaseClock`]), a `/proc`-backed process sampler
//!   ([`ResourceSample`]) for peak RSS / faults / context switches,
//!   and the histogram renderer `xp report` uses
//!   ([`render_log2_histogram`]).
//!
//! This crate is a leaf on purpose: `nonsearch_engine`, `core`, and
//! `bench` all depend on it, so it cannot depend on any of them (the
//! Chrome-trace JSON here is assembled by hand for that reason —
//! span names are static identifiers and numbers are integers, so no
//! escaping is needed).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod phase;
mod render;
mod resource;

pub use phase::{PhaseClock, PhaseTimes};
pub use render::render_log2_histogram;
pub use resource::ResourceSample;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Number of buckets in a [`Log2Histogram`]: one per possible
/// `u64::BITS` magnitude plus the zero bucket.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A fixed-capacity base-2 histogram of `u64` samples.
///
/// Bucket `0` counts exact zeros; bucket `k ≥ 1` counts samples whose
/// highest set bit is `k − 1`, i.e. samples in `[2^(k−1), 2^k)`. With
/// 65 buckets every `u64` has a bucket, so recording can never
/// overflow the index and never allocates.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Log2Histogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Log2Histogram {
            buckets: [0; HISTOGRAM_BUCKETS],
        }
    }
}

impl std::fmt::Debug for Log2Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Log2Histogram")
            .field("total", &self.total())
            .field("buckets", &self.trimmed())
            .finish()
    }
}

impl Log2Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bucket index `value` falls into.
    pub fn bucket_of(value: u64) -> usize {
        (u64::BITS - value.leading_zeros()) as usize
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_of(value)] += 1;
    }

    /// Adds `count` samples directly to bucket `index` — for rebuilding
    /// a histogram from its serialized bucket array (`xp report`).
    ///
    /// # Panics
    ///
    /// Panics if `index >= HISTOGRAM_BUCKETS`.
    pub fn add_to_bucket(&mut self, index: usize, count: u64) {
        self.buckets[index] += count;
    }

    /// Adds every bucket of `other` into `self`.
    pub fn merge(&mut self, other: &Log2Histogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += *theirs;
        }
    }

    /// Total number of recorded samples.
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// All 65 bucket counts (index = [`Log2Histogram::bucket_of`]).
    pub fn buckets(&self) -> &[u64; HISTOGRAM_BUCKETS] {
        &self.buckets
    }

    /// The buckets up to and including the last nonzero one — the
    /// compact form record writers serialize (an empty histogram
    /// serializes as an empty array).
    pub fn trimmed(&self) -> &[u64] {
        let last = self
            .buckets
            .iter()
            .rposition(|&count| count != 0)
            .map_or(0, |i| i + 1);
        &self.buckets[..last]
    }
}

/// The per-worker metrics bundle: counters for everything a trial's
/// oracle work touches, plus a per-trial request-count histogram.
///
/// All fields are plain `u64`s updated by direct addition, so a worker
/// carries one `Metrics` on its stack, zeroes it per trial, and the
/// engine merges the deltas in strict trial order — `u64` addition is
/// exact and associative, so the merged totals are bit-identical for
/// any `--threads` value.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Metrics {
    /// Trials folded into this bundle.
    pub trials: u64,
    /// Oracle requests served (weak + strong).
    pub requests: u64,
    /// Vertices discovered across all searches.
    pub discoveries: u64,
    /// Edges whose second endpoint became known.
    pub edge_resolutions: u64,
    /// Resolved edges skipped by frontier cursor scans.
    pub frontier_rescans: u64,
    /// Times a pooled scratch view was reset for a fresh search.
    pub scratch_resets: u64,
    /// Faults the engine injected into trials (chaos runs only; always
    /// zero in fault-free runs).
    pub faults_injected: u64,
    /// Trial attempts that panicked and were re-run under
    /// `FailurePolicy::Retry` — each retried attempt re-derives the
    /// trial's seed stream, so the retried trial's contribution to the
    /// aggregates is bit-identical to a fault-free run's.
    pub trials_retried: u64,
    /// Trials dropped after exhausting their retry budget (or
    /// immediately, under `FailurePolicy::Skip`). Skipped trials fold
    /// no measurements, so a run with skips is *not* comparable to a
    /// fault-free run — this counter is how you notice.
    pub trials_skipped: u64,
    /// Per-trial total request counts, log₂-bucketed.
    pub trial_requests: Log2Histogram,
}

impl Metrics {
    /// An all-zero bundle.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds every counter and histogram bucket of `other` into `self`.
    pub fn merge(&mut self, other: &Metrics) {
        self.trials += other.trials;
        self.requests += other.requests;
        self.discoveries += other.discoveries;
        self.edge_resolutions += other.edge_resolutions;
        self.frontier_rescans += other.frontier_rescans;
        self.scratch_resets += other.scratch_resets;
        self.faults_injected += other.faults_injected;
        self.trials_retried += other.trials_retried;
        self.trials_skipped += other.trials_skipped;
        self.trial_requests.merge(&other.trial_requests);
    }

    /// Records one trial's total request count into the histogram
    /// (exactly one call per trial keeps the bucket sum equal to the
    /// trial count — `xp validate` checks that invariant).
    pub fn observe_trial_requests(&mut self, requests: u64) {
        self.trial_requests.record(requests);
    }
}

/// One completed span: static name, begin offset, and duration, both
/// in microseconds from the tracer's epoch.
#[derive(Clone, Copy, Debug)]
struct TraceEvent {
    name: &'static str,
    tid: u64,
    ts_us: u64,
    dur_us: u64,
}

struct TracerInner {
    epoch: Instant,
    events: Mutex<Vec<TraceEvent>>,
}

impl std::fmt::Debug for TracerInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let events = self.events.lock().map(|e| e.len()).unwrap_or(0);
        f.debug_struct("TracerInner")
            .field("events", &events)
            .finish()
    }
}

/// Stable small integer per OS thread, so trace rows group by worker.
fn current_tid() -> u64 {
    static NEXT_TID: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|t| *t)
}

/// A hand-rolled span tracer: [`Tracer::span`] returns a guard that
/// records a Chrome-trace complete event when dropped.
///
/// The default tracer is **disabled** — `span` costs an `Option`
/// check and records nothing — so instrumented code paths stay free
/// when no `--trace` was requested. Clones share one event buffer, so
/// worker threads can trace into the same run.
#[derive(Clone, Debug, Default)]
pub struct Tracer {
    inner: Option<Arc<TracerInner>>,
}

impl Tracer {
    /// A disabled tracer (same as `Tracer::default()`).
    pub fn disabled() -> Self {
        Tracer { inner: None }
    }

    /// An enabled tracer collecting events from now on.
    pub fn enabled() -> Self {
        Tracer {
            inner: Some(Arc::new(TracerInner {
                epoch: Instant::now(),
                events: Mutex::new(Vec::new()),
            })),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Opens a span; the returned guard records it on drop. Span names
    /// must be static identifiers (letters, digits, `-`, `_`) — they
    /// are emitted into JSON without escaping.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        SpanGuard {
            inner: self.inner.as_deref(),
            name,
            begin_us: self
                .inner
                .as_deref()
                .map(|i| i.epoch.elapsed().as_micros() as u64),
        }
    }

    /// Number of completed spans recorded so far.
    pub fn event_count(&self) -> usize {
        self.inner
            .as_deref()
            .map_or(0, |i| i.events.lock().expect("tracer lock").len())
    }

    /// Serializes every completed span as one line of Chrome Trace
    /// Event Format JSON (`{"traceEvents":[...]}`), loadable in
    /// Perfetto / `chrome://tracing`. Returns `None` for a disabled
    /// tracer.
    pub fn to_chrome_trace(&self) -> Option<String> {
        let inner = self.inner.as_deref()?;
        let events = inner.events.lock().expect("tracer lock");
        let mut out = String::with_capacity(64 + events.len() * 96);
        out.push_str("{\"traceEvents\":[");
        for (i, event) in events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":\"");
            out.push_str(event.name);
            out.push_str("\",\"cat\":\"nonsearch\",\"ph\":\"X\",\"ts\":");
            out.push_str(&event.ts_us.to_string());
            out.push_str(",\"dur\":");
            out.push_str(&event.dur_us.to_string());
            out.push_str(",\"pid\":1,\"tid\":");
            out.push_str(&event.tid.to_string());
            out.push('}');
        }
        out.push_str("]}");
        Some(out)
    }
}

/// An open span; dropping it records the completed event.
#[derive(Debug)]
pub struct SpanGuard<'t> {
    inner: Option<&'t TracerInner>,
    name: &'static str,
    begin_us: Option<u64>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let (Some(inner), Some(begin_us)) = (self.inner, self.begin_us) {
            let now_us = inner.epoch.elapsed().as_micros() as u64;
            let event = TraceEvent {
                name: self.name,
                tid: current_tid(),
                ts_us: begin_us,
                dur_us: now_us.saturating_sub(begin_us),
            };
            if let Ok(mut events) = inner.events.lock() {
                events.push(event);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_powers_of_two() {
        assert_eq!(Log2Histogram::bucket_of(0), 0);
        assert_eq!(Log2Histogram::bucket_of(1), 1);
        assert_eq!(Log2Histogram::bucket_of(2), 2);
        assert_eq!(Log2Histogram::bucket_of(3), 2);
        assert_eq!(Log2Histogram::bucket_of(4), 3);
        assert_eq!(Log2Histogram::bucket_of(1023), 10);
        assert_eq!(Log2Histogram::bucket_of(1024), 11);
        assert_eq!(Log2Histogram::bucket_of(u64::MAX), 64);
    }

    #[test]
    fn histogram_records_and_merges() {
        let mut a = Log2Histogram::new();
        a.record(0);
        a.record(5);
        a.record(5);
        let mut b = Log2Histogram::new();
        b.record(7);
        b.record(1 << 40);
        a.merge(&b);
        assert_eq!(a.total(), 5);
        assert_eq!(a.buckets()[0], 1);
        assert_eq!(a.buckets()[3], 3); // 5, 5, 7 ∈ [4, 8)
        assert_eq!(a.buckets()[41], 1);
        assert_eq!(a.trimmed().len(), 42);
        assert_eq!(Log2Histogram::new().trimmed().len(), 0);
    }

    #[test]
    fn metrics_merge_is_fieldwise() {
        let mut a = Metrics {
            trials: 1,
            requests: 10,
            discoveries: 4,
            edge_resolutions: 9,
            frontier_rescans: 2,
            scratch_resets: 1,
            ..Metrics::new()
        };
        a.observe_trial_requests(10);
        let mut b = Metrics {
            trials: 1,
            requests: 20,
            ..Metrics::new()
        };
        b.observe_trial_requests(20);
        a.merge(&b);
        assert_eq!(a.trials, 2);
        assert_eq!(a.requests, 30);
        assert_eq!(a.discoveries, 4);
        assert_eq!(a.edge_resolutions, 9);
        assert_eq!(a.trial_requests.total(), 2);
    }

    #[test]
    fn fault_counters_merge_fieldwise() {
        let mut a = Metrics {
            faults_injected: 2,
            trials_retried: 1,
            ..Metrics::new()
        };
        let b = Metrics {
            faults_injected: 1,
            trials_retried: 3,
            trials_skipped: 1,
            ..Metrics::new()
        };
        a.merge(&b);
        assert_eq!(a.faults_injected, 3);
        assert_eq!(a.trials_retried, 4);
        assert_eq!(a.trials_skipped, 1);
        // Fault-free bundles keep the counters at zero.
        assert_eq!(Metrics::new().faults_injected, 0);
    }

    #[test]
    fn merge_order_does_not_matter() {
        // u64 sums are exact, so any fold order gives the same bundle —
        // the property the engine's strict-trial-order merge relies on
        // for cross-thread bit-identity.
        let mut deltas = Vec::new();
        for i in 0..10u64 {
            let mut d = Metrics {
                trials: 1,
                requests: i * i + 1,
                discoveries: i,
                ..Metrics::new()
            };
            d.observe_trial_requests(d.requests);
            deltas.push(d);
        }
        let mut forward = Metrics::new();
        for d in &deltas {
            forward.merge(d);
        }
        let mut backward = Metrics::new();
        for d in deltas.iter().rev() {
            backward.merge(d);
        }
        assert_eq!(forward, backward);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::disabled();
        assert!(!tracer.is_enabled());
        {
            let _span = tracer.span("run");
        }
        assert_eq!(tracer.event_count(), 0);
        assert!(tracer.to_chrome_trace().is_none());
    }

    #[test]
    fn enabled_tracer_emits_chrome_trace_json() {
        let tracer = Tracer::enabled();
        {
            let _outer = tracer.span("run");
            let _inner = tracer.span("size-cell");
        }
        assert_eq!(tracer.event_count(), 2);
        let json = tracer.to_chrome_trace().expect("enabled");
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"name\":\"run\""));
        assert!(json.contains("\"name\":\"size-cell\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(!json.contains('\n'));
    }

    #[test]
    fn clones_share_the_event_buffer() {
        let tracer = Tracer::enabled();
        let clone = tracer.clone();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let _span = clone.span("trial");
            });
        });
        {
            let _span = tracer.span("trial-batch");
        }
        assert_eq!(tracer.event_count(), 2);
    }

    #[test]
    fn span_durations_are_ordered() {
        let tracer = Tracer::enabled();
        {
            let _outer = tracer.span("outer");
            let _inner = tracer.span("inner");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let json = tracer.to_chrome_trace().expect("enabled");
        // Both spans slept, so both durations are >= ~2ms; just check
        // the serialized form carries nonzero durations.
        assert!(json.contains("\"dur\":"));
        assert!(!json.contains("\"dur\":0,"));
    }
}
