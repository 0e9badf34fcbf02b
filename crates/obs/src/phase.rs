//! Fixed-shape per-worker phase timers and the clock that feeds them.
//!
//! A trial's wall time decomposes into a handful of phases the engine
//! cares about separately: getting the graph (generated fresh or loaded
//! from a corpus), running the searchers or analysing the graph,
//! harvesting counters, and the consumer-side merge fold. [`PhaseTimes`] is the `Metrics` analogue
//! for those durations — a plain bundle of `u64` nanosecond
//! accumulators, updated by integer adds from [`PhaseClock`] readings,
//! merged field-wise in the reorder-buffer consumer. Unlike `Metrics`
//! the sums are wall-clock data: they are *not* deterministic across
//! runs and must only ever ride the volatile `"type":"perf"` record,
//! never determinism-gated cell lines.

use std::time::Instant;

/// Nanosecond accumulators for the engine's trial phases.
///
/// All fields are plain `u64` nanosecond totals; recording is an
/// integer add and merging is field-wise addition, so the phase block
/// rides the allocation-free trial hot path for free. Per-worker
/// blocks summed across workers can exceed the cell's wall time —
/// workers run concurrently — so consumers of these numbers must treat
/// them as *CPU-side busy time per phase*, bounded by
/// `wall × (workers + 1)` (the `+ 1` is the consumer thread, which
/// owns the merge phase).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct PhaseTimes {
    /// Generating trial graphs on the fly (generate-backed sources),
    /// or only their degrees where that is all a trial reads.
    pub generate_ns: u64,
    /// Loading trial graphs from a stored corpus (corpus-backed
    /// sources; zero on generate-per-trial runs).
    pub load_ns: u64,
    /// Running the searchers against the oracle.
    pub search_ns: u64,
    /// Analysing a trial graph without searching it (the power-law
    /// fit of its degrees).
    pub analyze_ns: u64,
    /// Harvesting per-trial counter deltas into `Metrics`.
    pub harvest_ns: u64,
    /// The consumer's strict-trial-order fold (aggregates + metrics).
    pub merge_ns: u64,
}

impl PhaseTimes {
    /// An all-zero block.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds every phase of `other` into `self`.
    pub fn merge(&mut self, other: &PhaseTimes) {
        self.generate_ns += other.generate_ns;
        self.load_ns += other.load_ns;
        self.search_ns += other.search_ns;
        self.analyze_ns += other.analyze_ns;
        self.harvest_ns += other.harvest_ns;
        self.merge_ns += other.merge_ns;
    }

    /// The phases with their canonical record-field names, in the
    /// fixed serialization order record writers use.
    pub fn named(&self) -> [(&'static str, u64); 6] {
        [
            ("phase_generate_ns", self.generate_ns),
            ("phase_load_ns", self.load_ns),
            ("phase_search_ns", self.search_ns),
            ("phase_analyze_ns", self.analyze_ns),
            ("phase_harvest_ns", self.harvest_ns),
            ("phase_merge_ns", self.merge_ns),
        ]
    }

    /// Runs `fetch` and charges its time to `load` when the graph comes
    /// from storage, else to `generate`.
    pub fn time_fetch<T>(&mut self, stored: bool, fetch: impl FnOnce() -> T) -> T {
        let clock = PhaseClock::start();
        let fetched = fetch();
        let phase = if stored {
            &mut self.load_ns
        } else {
            &mut self.generate_ns
        };
        *phase += clock.elapsed_ns();
        fetched
    }
}

/// A running monotonic stopwatch: the one clock every phase and cell
/// timer in the workspace reads.
///
/// Readings are `Instant`-based, allocation-free, and never consulted by
/// any RNG stream, so timing a phase cannot perturb a deterministic
/// aggregate. Durations saturate into `u64` nanoseconds.
#[derive(Clone, Copy, Debug)]
pub struct PhaseClock {
    start: Instant,
}

impl PhaseClock {
    /// A clock started now.
    pub fn start() -> PhaseClock {
        PhaseClock {
            start: Instant::now(),
        }
    }

    /// Nanoseconds since the clock started (or was last lapped).
    pub fn elapsed_ns(&self) -> u64 {
        saturating_ns(self.start.elapsed())
    }

    /// Nanoseconds since the clock started (or was last lapped), and
    /// restarts it — one reading per back-to-back phase.
    pub fn lap_ns(&mut self) -> u64 {
        let now = Instant::now();
        let ns = saturating_ns(now - self.start);
        self.start = now;
        ns
    }
}

fn saturating_ns(elapsed: std::time::Duration) -> u64 {
    u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_is_fieldwise_addition() {
        let mut a = PhaseTimes {
            generate_ns: 10,
            load_ns: 1,
            search_ns: 100,
            analyze_ns: 50,
            harvest_ns: 5,
            merge_ns: 2,
        };
        let b = PhaseTimes {
            generate_ns: 1,
            load_ns: 2,
            search_ns: 3,
            analyze_ns: 6,
            harvest_ns: 4,
            merge_ns: 5,
        };
        a.merge(&b);
        assert_eq!(a.generate_ns, 11);
        assert_eq!(a.load_ns, 3);
        assert_eq!(a.search_ns, 103);
        assert_eq!(a.analyze_ns, 56);
        assert_eq!(a.harvest_ns, 9);
        assert_eq!(a.merge_ns, 7);
    }

    #[test]
    fn named_covers_every_field_once() {
        let p = PhaseTimes {
            generate_ns: 1,
            load_ns: 2,
            search_ns: 3,
            analyze_ns: 6,
            harvest_ns: 4,
            merge_ns: 5,
        };
        let named = p.named();
        assert_eq!(named.len(), 6);
        let sum: u64 = named.iter().map(|&(_, v)| v).sum();
        assert_eq!(sum, 1 + 2 + 3 + 6 + 4 + 5);
        let mut names: Vec<&str> = named.iter().map(|&(n, _)| n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 6, "duplicate field names");
        for (name, _) in named {
            assert!(name.starts_with("phase_"), "{name}");
            assert!(name.ends_with("_ns"), "{name}");
        }
    }

    #[test]
    fn elapsed_ns_is_monotone() {
        let mut clock = PhaseClock::start();
        let a = clock.elapsed_ns();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let b = clock.elapsed_ns();
        assert!(b > a);
        assert!(b >= 2_000_000, "slept 2ms but measured {b}ns");
        // A lap reads the same span and restarts the clock.
        assert!(clock.lap_ns() >= b);
        assert!(clock.elapsed_ns() < b);
    }

    #[test]
    fn fetches_are_charged_to_load_or_generate() {
        let mut phases = PhaseTimes::new();
        let slept = |ms| move || std::thread::sleep(std::time::Duration::from_millis(ms));
        phases.time_fetch(false, slept(1));
        assert!(phases.generate_ns >= 1_000_000);
        assert_eq!(phases.load_ns, 0);
        phases.time_fetch(true, slept(1));
        assert!(phases.load_ns >= 1_000_000);
    }
}
