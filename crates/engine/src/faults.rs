//! The engine's fault-injection seam, trial failure policies, and the
//! seeded fault plans chaos runs draw from.
//!
//! Chaos runs need three things from the engine: a way to make trials
//! fail on purpose, a policy for what the runner does when they do, and
//! a reproducible choice of which trials and files to break. All three
//! live here. A [`FaultInjection`] bundles a [`FailurePolicy`] with an
//! optional [`FaultHook`] — a deterministic
//! `(trial, attempt) -> Option<InjectedFault>` function, typically
//! backed by a seeded [`FaultPlan`] — plus an optional per-cell
//! watchdog deadline. [`install_faults`] activates the bundle for the
//! current thread and returns a guard; every
//! [`run_trials`](crate::run_trials) call made while the guard lives
//! snapshots the bundle at cell entry. Trials always run *contained*
//! (each attempt wrapped in `catch_unwind`); with no bundle installed
//! the policy is the default [`FailurePolicy::Propagate`] and no hook
//! fires.
//!
//! The installation is **thread-local**, not process-global: `cargo
//! test` runs many tests concurrently in one process, and a global
//! switch would leak chaos into unrelated cells. The runner reads the
//! bundle on the caller's thread and shares it with its scoped workers
//! by reference, so worker threads never consult their own slot.
//!
//! The retry contract: a retried attempt re-derives the trial's seed
//! stream from the trial index alone (`trial_seeds`), and injected
//! faults fire *before* the trial body touches its per-worker context,
//! so a successful retry contributes bit-identically to what a
//! fault-free run would have produced. `FailurePolicy::Skip` (and an
//! exhausted `Retry`) instead drops the trial's measurements entirely —
//! aggregates then differ from a clean run, which the
//! `trials_skipped` counter makes visible.
//!
//! A [`FaultPlan`] never rolls dice at injection time: every decision
//! ("does trial 17 panic?", "which bit of file 3 flips?") is a pure
//! function of `(plan seed, index)`, derived with the
//! [`SeedSequence::subsequence`] discipline trial streams use. Two runs
//! with the same plan seed inject the same faults into the same trials
//! and files for any worker count. Storage faults ([`StorageFault`],
//! applied by [`corrupt_file`]) exercise the corpus checksum and
//! quarantine-and-regenerate path.

use nonsearch_generators::SeedSequence;
use std::cell::RefCell;
use std::path::Path;
use std::sync::Arc;

/// What the runner does with a trial attempt that panics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FailurePolicy {
    /// Re-raise the panic on the caller (the fault-free default — a
    /// failing trial fails the run).
    #[default]
    Propagate,
    /// Contain the panic and re-run the trial, up to `max` retries;
    /// a trial that still fails after `max` retries is skipped.
    Retry {
        /// Maximum number of *re*-runs per trial (0 behaves like
        /// [`FailurePolicy::Skip`]).
        max: u32,
    },
    /// Contain the panic and drop the trial's measurements (the cell's
    /// aggregate then covers fewer trials; see `Metrics::trials_skipped`).
    Skip,
}

/// A fault the hook asks the runner to inject into one trial attempt,
/// ahead of the trial body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedFault {
    /// Panic in the worker (exercising the configured [`FailurePolicy`]).
    Panic,
    /// Sleep for `ms` milliseconds, simulating a straggling worker
    /// (exercising the backpressure gate and the watchdog deadline).
    Stall {
        /// Stall duration in milliseconds.
        ms: u64,
    },
}

/// A deterministic fault decision function: `(trial, attempt)` to the
/// fault injected ahead of that attempt, if any.
///
/// Hooks must be pure functions of their arguments (no clocks, no
/// shared mutable state feeding the decision) or chaos runs lose the
/// workspace's any-thread-count reproducibility. Returning a fault for
/// `attempt > 0` will defeat `FailurePolicy::Retry` — seeded
/// `FaultPlan` hooks only ever fault attempt 0.
pub type FaultHook = Arc<dyn Fn(usize, u32) -> Option<InjectedFault> + Send + Sync>;

/// The fault-injection bundle the runner snapshots at cell entry:
/// injection hook, failure policy, and watchdog deadline.
///
/// The default bundle (`FaultInjection::default()`) injects nothing,
/// propagates panics, and sets no deadline — installing it is the same
/// as installing nothing.
#[derive(Clone, Default)]
pub struct FaultInjection {
    /// What to do when a trial attempt panics.
    pub policy: FailurePolicy,
    /// Deterministic injector consulted before every attempt.
    pub hook: Option<FaultHook>,
    /// Watchdog: if the cell's consumer sees no progress for this many
    /// milliseconds, the cell is abandoned gracefully — partial
    /// aggregates are returned with `CellObs::degraded` set instead of
    /// hanging the run.
    pub cell_deadline_ms: Option<u64>,
}

impl std::fmt::Debug for FaultInjection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultInjection")
            .field("policy", &self.policy)
            .field("hook", &self.hook.as_ref().map(|_| "<fault hook>"))
            .field("cell_deadline_ms", &self.cell_deadline_ms)
            .finish()
    }
}

thread_local! {
    static ACTIVE: RefCell<Option<Arc<FaultInjection>>> = const { RefCell::new(None) };
}

/// Activates `config` for every cell run from the current thread while
/// the returned guard lives; dropping the guard restores whatever was
/// installed before (installations nest).
#[must_use = "faults are uninstalled when the returned scope drops"]
pub fn install_faults(config: FaultInjection) -> FaultScope {
    let previous = ACTIVE.with(|slot| slot.replace(Some(Arc::new(config))));
    FaultScope { previous }
}

/// The bundle active on this thread, if any — snapshotted by the
/// runner once per cell, on the caller's thread.
pub(crate) fn active() -> Option<Arc<FaultInjection>> {
    ACTIVE.with(|slot| slot.borrow().clone())
}

/// Guard returned by [`install_faults`]; restores the previously
/// installed bundle (usually none) on drop.
#[derive(Debug)]
pub struct FaultScope {
    previous: Option<Arc<FaultInjection>>,
}

impl Drop for FaultScope {
    fn drop(&mut self) {
        let previous = self.previous.take();
        ACTIVE.with(|slot| *slot.borrow_mut() = previous);
    }
}

/// Subsequence index of the per-trial fault stream.
const TRIAL_STREAM: u64 = 0;
/// Subsequence index of the per-file storage fault stream.
const STORAGE_STREAM: u64 = 1;

/// A corruption applied to one stored blob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageFault {
    /// Flip one bit of the file (index taken modulo the bit length).
    BitFlip {
        /// Absolute bit index to flip.
        bit: u64,
    },
    /// Truncate the file to at most `keep` bytes.
    Truncate {
        /// Bytes to keep from the front.
        keep: usize,
    },
    /// Remove the file entirely (a read error, not just bad bytes).
    Remove,
}

/// A seeded, deterministic fault plan.
///
/// Freshly constructed plans inject nothing; the `with_*` builders
/// switch fault families on. `every = N` means indices whose derived
/// roll is `0 (mod N)` fault — so `every = 1` faults everything and
/// larger values thin the faults out deterministically (which indices
/// fault depends on the seed, not on the index being a multiple of N).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    seeds: SeedSequence,
    panic_every: u64,
    stall_every: u64,
    stall_ms: u64,
    storage_every: u64,
}

impl FaultPlan {
    /// A plan rooted at `seed` with every fault family disabled.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seeds: SeedSequence::new(seed),
            panic_every: 0,
            stall_every: 0,
            stall_ms: 0,
            storage_every: 0,
        }
    }

    /// Enables trial panics on roughly one in `every` trials
    /// (0 disables).
    pub fn with_trial_panics(mut self, every: u64) -> FaultPlan {
        self.panic_every = every;
        self
    }

    /// Enables `ms`-millisecond stalls on roughly one in `every` trials
    /// (0 disables). A trial selected for both a panic and a stall
    /// panics — the harsher fault wins.
    pub fn with_trial_stalls(mut self, every: u64, ms: u64) -> FaultPlan {
        self.stall_every = every;
        self.stall_ms = ms;
        self
    }

    /// Enables storage corruption on roughly one in `every` files
    /// (0 disables).
    pub fn with_storage_faults(mut self, every: u64) -> FaultPlan {
        self.storage_every = every;
        self
    }

    /// The fault (if any) for attempt `attempt` of trial `trial` — a
    /// pure function of its arguments, so it can serve as a
    /// [`FaultHook`] as it stands.
    ///
    /// Only attempt 0 ever faults: a retried attempt re-derives the
    /// same trial seed stream and must be allowed to succeed, which is
    /// what makes `FailurePolicy::Retry` aggregates bit-identical to a
    /// fault-free run.
    pub fn trial_fault(&self, trial: usize, attempt: u32) -> Option<InjectedFault> {
        if attempt > 0 {
            return None;
        }
        let roll = self.seeds.subsequence(TRIAL_STREAM).child(trial as u64);
        if selected(roll, self.panic_every) {
            return Some(InjectedFault::Panic);
        }
        if selected(roll >> 16, self.stall_every) {
            return Some(InjectedFault::Stall { ms: self.stall_ms });
        }
        None
    }

    /// The corruption (if any) for the `index`-th stored file of
    /// `len` bytes.
    pub fn storage_fault(&self, index: u64, len: usize) -> Option<StorageFault> {
        let roll = self.seeds.subsequence(STORAGE_STREAM).child(index);
        if !selected(roll, self.storage_every) {
            return None;
        }
        let bits = (len as u64).saturating_mul(8).max(1);
        Some(match (roll >> 8) % 3 {
            0 => StorageFault::BitFlip {
                bit: (roll >> 16) % bits,
            },
            1 => StorageFault::Truncate {
                keep: ((roll >> 16) % (len as u64).max(1)) as usize,
            },
            _ => StorageFault::Remove,
        })
    }
}

/// Deterministic selection: a derived roll `r` is selected at rate
/// `1/every` iff `r % every == 0` (never, when `every` is 0).
fn selected(roll: u64, every: u64) -> bool {
    every > 0 && roll.is_multiple_of(every)
}

/// Applies `fault` to an in-memory blob. `Remove` clears the buffer
/// (the file-level equivalent is deletion — see [`corrupt_file`]).
fn apply_storage_fault(bytes: &mut Vec<u8>, fault: StorageFault) {
    match fault {
        StorageFault::BitFlip { bit } => {
            if !bytes.is_empty() {
                let i = ((bit / 8) as usize) % bytes.len();
                bytes[i] ^= 1 << (bit % 8);
            }
        }
        StorageFault::Truncate { keep } => bytes.truncate(keep),
        StorageFault::Remove => bytes.clear(),
    }
}

/// Applies `fault` to the file at `path`: bit flips and truncations
/// rewrite the file in place, `Remove` deletes it.
///
/// # Errors
///
/// Propagates the underlying filesystem errors.
pub fn corrupt_file(path: &Path, fault: StorageFault) -> std::io::Result<()> {
    if fault == StorageFault::Remove {
        return std::fs::remove_file(path);
    }
    let mut bytes = std::fs::read(path)?;
    apply_storage_fault(&mut bytes, fault);
    std::fs::write(path, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn install_is_scoped_and_nests() {
        assert!(active().is_none());
        {
            let _outer = install_faults(FaultInjection {
                policy: FailurePolicy::Skip,
                ..FaultInjection::default()
            });
            assert_eq!(active().unwrap().policy, FailurePolicy::Skip);
            {
                let _inner = install_faults(FaultInjection {
                    policy: FailurePolicy::Retry { max: 2 },
                    ..FaultInjection::default()
                });
                assert_eq!(active().unwrap().policy, FailurePolicy::Retry { max: 2 });
            }
            // Inner scope dropped: the outer bundle is back.
            assert_eq!(active().unwrap().policy, FailurePolicy::Skip);
        }
        assert!(active().is_none());
    }

    #[test]
    fn install_is_thread_local() {
        let _scope = install_faults(FaultInjection::default());
        assert!(active().is_some());
        std::thread::scope(|s| {
            s.spawn(|| assert!(active().is_none(), "bundle leaked across threads"));
        });
    }

    #[test]
    fn debug_formats_without_exposing_the_hook() {
        let bundle = FaultInjection {
            hook: Some(Arc::new(|_, _| None)),
            ..FaultInjection::default()
        };
        let text = format!("{bundle:?}");
        assert!(text.contains("fault hook"), "{text}");
        assert!(text.contains("Propagate"), "{text}");
    }

    #[test]
    fn fresh_plans_inject_nothing() {
        let plan = FaultPlan::new(7);
        for t in 0..200 {
            assert_eq!(plan.trial_fault(t, 0), None);
        }
        for i in 0..200 {
            assert_eq!(plan.storage_fault(i, 4096), None);
        }
    }

    #[test]
    fn decisions_are_deterministic_per_seed() {
        let a = FaultPlan::new(42)
            .with_trial_panics(3)
            .with_storage_faults(2);
        let b = FaultPlan::new(42)
            .with_trial_panics(3)
            .with_storage_faults(2);
        for t in 0..500 {
            assert_eq!(a.trial_fault(t, 0), b.trial_fault(t, 0));
        }
        for i in 0..500 {
            assert_eq!(a.storage_fault(i, 1000), b.storage_fault(i, 1000));
        }
        // A different seed selects different indices.
        let c = FaultPlan::new(43).with_trial_panics(3);
        let picks = |p: &FaultPlan| -> Vec<usize> {
            (0..500)
                .filter(|&t| p.trial_fault(t, 0).is_some())
                .collect()
        };
        assert_ne!(picks(&a), picks(&c));
    }

    #[test]
    fn faults_fire_at_roughly_the_requested_rate() {
        let plan = FaultPlan::new(1).with_trial_panics(4);
        let hits = (0..2000)
            .filter(|&t| plan.trial_fault(t, 0).is_some())
            .count();
        // 1-in-4 over 2000 trials: wide deterministic bounds.
        assert!((300..700).contains(&hits), "{hits} hits");
    }

    #[test]
    fn only_the_first_attempt_faults() {
        let plan = FaultPlan::new(5).with_trial_panics(1);
        for t in 0..50 {
            assert_eq!(plan.trial_fault(t, 0), Some(InjectedFault::Panic));
            assert_eq!(plan.trial_fault(t, 1), None);
            assert_eq!(plan.trial_fault(t, 7), None);
        }
    }

    #[test]
    fn stall_carries_the_configured_duration() {
        let plan = FaultPlan::new(5).with_trial_stalls(1, 25);
        let fault = plan.trial_fault(0, 0).expect("every=1 always stalls");
        assert_eq!(fault, InjectedFault::Stall { ms: 25 });
        // Panic wins when both families select the same trial.
        let both = FaultPlan::new(5)
            .with_trial_stalls(1, 25)
            .with_trial_panics(1);
        assert_eq!(both.trial_fault(0, 0), Some(InjectedFault::Panic));
    }

    #[test]
    fn storage_faults_stay_in_bounds() {
        let plan = FaultPlan::new(9).with_storage_faults(1);
        for i in 0..200 {
            match plan.storage_fault(i, 100).expect("every=1 always faults") {
                StorageFault::BitFlip { bit } => assert!(bit < 800),
                StorageFault::Truncate { keep } => assert!(keep < 100),
                StorageFault::Remove => {}
            }
        }
        // Zero-length files cannot out-of-bounds the apply step.
        let mut empty = Vec::new();
        if let Some(fault) = plan.storage_fault(0, 0) {
            apply_storage_fault(&mut empty, fault);
        }
        assert!(empty.is_empty());
    }

    #[test]
    fn apply_bit_flip_changes_exactly_one_bit() {
        let mut bytes = vec![0u8; 64];
        apply_storage_fault(&mut bytes, StorageFault::BitFlip { bit: 8 * 3 + 5 });
        assert_eq!(bytes[3], 1 << 5);
        assert_eq!(bytes.iter().map(|b| b.count_ones()).sum::<u32>(), 1);
        // Flipping again restores the original.
        apply_storage_fault(&mut bytes, StorageFault::BitFlip { bit: 8 * 3 + 5 });
        assert!(bytes.iter().all(|&b| b == 0));
    }

    #[test]
    fn corrupt_file_round_trips_through_the_filesystem() {
        let dir = std::env::temp_dir().join(format!("fault_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("blob.bin");
        std::fs::write(&path, [0u8; 16]).unwrap();
        corrupt_file(&path, StorageFault::BitFlip { bit: 1 }).unwrap();
        assert_eq!(std::fs::read(&path).unwrap()[0], 2);
        corrupt_file(&path, StorageFault::Truncate { keep: 4 }).unwrap();
        assert_eq!(std::fs::read(&path).unwrap().len(), 4);
        corrupt_file(&path, StorageFault::Remove).unwrap();
        assert!(!path.exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}
