//! `nonsearch_fault` — deterministic seeded fault plans.
//!
//! Chaos testing is only useful here if it preserves the workspace's
//! core invariant: **byte-reproducibility for any `--threads` value**.
//! So a [`FaultPlan`] never rolls dice at injection time — every
//! decision ("does trial 17 panic?", "which bit of file 3 flips?") is a
//! pure function of `(plan seed, index)`, derived with the exact
//! [`SeedSequence::subsequence`] discipline the trial engine uses for
//! trial RNG streams. Two chaos runs with the same plan seed inject
//! the same faults into the same trials and files regardless of worker
//! scheduling, and the `xp chaos` gate can therefore demand that a
//! healed run's cell records be byte-identical to a fault-free run's.
//!
//! The plan covers two fault families:
//!
//! * **Trial faults** ([`TrialFault`]) — worker panics and slow-worker
//!   stalls, consumed by the engine's fault-injection seam
//!   (`nonsearch_engine::install_faults`). Faults fire only on a
//!   trial's *first* attempt, so a `Retry` policy always converges.
//! * **Storage faults** ([`StorageFault`]) — bit flips, truncation,
//!   and file removal applied to stored `.nsg` blobs
//!   ([`corrupt_file`]), exercising the corpus checksum +
//!   quarantine-and-regenerate healing path for real.
//!
//! This crate deliberately has no external dependencies and touches no
//! clocks or environment — a plan is plain data.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use nonsearch_generators::SeedSequence;
use std::path::Path;

/// Subsequence index of the per-trial fault stream.
pub const TRIAL_STREAM: u64 = 0;
/// Subsequence index of the per-file storage fault stream.
pub const STORAGE_STREAM: u64 = 1;

/// A fault injected into one trial attempt before its body runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrialFault {
    /// The worker panics (contained or propagated per the engine's
    /// `FailurePolicy`).
    Panic,
    /// The worker stalls for `ms` milliseconds, simulating a straggler.
    Stall {
        /// Stall duration in milliseconds.
        ms: u64,
    },
}

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
    root: u64,
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
            root: seed,
            panic_every: 0,
            stall_every: 0,
            stall_ms: 0,
            storage_every: 0,
        }
    }

    /// The root seed the plan derives every decision from.
    pub fn seed(&self) -> u64 {
        self.root
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

    /// Whether the plan injects any trial faults at all.
    pub fn injects_trial_faults(&self) -> bool {
        self.panic_every > 0 || self.stall_every > 0
    }

    /// The fault (if any) for attempt `attempt` of trial `trial`.
    ///
    /// Only attempt 0 ever faults: a retried attempt re-derives the
    /// same trial seed stream and must be allowed to succeed, which is
    /// what makes `FailurePolicy::Retry` aggregates bit-identical to a
    /// fault-free run.
    pub fn trial_fault(&self, trial: usize, attempt: u32) -> Option<TrialFault> {
        if attempt > 0 {
            return None;
        }
        let roll = self.seeds.subsequence(TRIAL_STREAM).child(trial as u64);
        if selected(roll, self.panic_every) {
            return Some(TrialFault::Panic);
        }
        if selected(roll >> 16, self.stall_every) {
            return Some(TrialFault::Stall { ms: self.stall_ms });
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
pub fn apply_storage_fault(bytes: &mut Vec<u8>, fault: StorageFault) {
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
    fn fresh_plans_inject_nothing() {
        let plan = FaultPlan::new(7);
        assert!(!plan.injects_trial_faults());
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
            assert_eq!(plan.trial_fault(t, 0), Some(TrialFault::Panic));
            assert_eq!(plan.trial_fault(t, 1), None);
            assert_eq!(plan.trial_fault(t, 7), None);
        }
    }

    #[test]
    fn stall_carries_the_configured_duration() {
        let plan = FaultPlan::new(5).with_trial_stalls(1, 25);
        let fault = plan.trial_fault(0, 0).expect("every=1 always stalls");
        assert_eq!(fault, TrialFault::Stall { ms: 25 });
        // Panic wins when both families select the same trial.
        let both = FaultPlan::new(5)
            .with_trial_stalls(1, 25)
            .with_trial_panics(1);
        assert_eq!(both.trial_fault(0, 0), Some(TrialFault::Panic));
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
