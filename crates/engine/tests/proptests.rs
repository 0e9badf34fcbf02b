//! Property-based tests: engine determinism and seed-sharding safety
//! under arbitrary parameters.

use nonsearch_engine::{
    install_faults, parse_json, run_lanes, trial_seeds, FailurePolicy, FaultHook, FaultInjection,
    InjectedFault, JsonValue, LaneAggregate, TrialMeasure,
};
use nonsearch_fault::{FaultPlan, TrialFault};
use nonsearch_generators::SeedSequence;
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::Arc;

/// A deterministic synthetic measurement: everything derives from the
/// trial's seed stream, exactly like a real graph-sampling trial.
fn synthetic_measure(seeds: &SeedSequence) -> TrialMeasure {
    let draw = seeds.child(0);
    TrialMeasure::new((draw % 10_000) as f64 / 7.0, !draw.is_multiple_of(5))
}

/// A one-lane cell of [`synthetic_measure`] trials.
fn synthetic_cell(trials: usize, threads: usize, seeds: &SeedSequence) -> LaneAggregate {
    run_lanes(trials, 1, threads, seeds, |_, s| {
        vec![synthetic_measure(&s)]
    })[0]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Sharding trials across workers can never make two trials share a
    /// seed: the per-trial roots (and the graph/search child streams
    /// hanging off them) are pairwise distinct across the whole sweep.
    #[test]
    fn sharded_trial_seeds_never_collide(
        root in 0u64..u64::MAX,
        trials in 1usize..1500,
    ) {
        let seeds = SeedSequence::new(root);
        let mut roots = HashSet::with_capacity(trials);
        let mut child_streams = HashSet::with_capacity(2 * trials);
        for t in 0..trials {
            let trial = trial_seeds(&seeds, t);
            prop_assert!(roots.insert(trial.root()), "trial {t} reuses a root");
            // child 0 seeds the graph sampler, child 1 the searcher.
            prop_assert!(child_streams.insert(trial.child(0)));
            prop_assert!(child_streams.insert(trial.child(1)));
        }
        prop_assert_eq!(roots.len(), trials);
        prop_assert_eq!(child_streams.len(), 2 * trials);
    }

    /// The aggregate of a cell is bit-identical no matter how many
    /// workers the trials were sharded over.
    #[test]
    fn aggregates_do_not_depend_on_worker_count(
        root in 0u64..u64::MAX,
        trials in 1usize..200,
        threads in 2usize..9,
    ) {
        let seeds = SeedSequence::new(root);
        let single = synthetic_cell(trials, 1, &seeds);
        let sharded = synthetic_cell(trials, threads, &seeds);
        prop_assert_eq!(single, sharded);
        prop_assert_eq!(single.count(), trials as u64);
    }

    /// Multi-lane cells aggregate every lane independently and
    /// deterministically.
    #[test]
    fn lanes_are_schedule_independent(
        root in 0u64..u64::MAX,
        trials in 1usize..100,
        lanes in 1usize..6,
    ) {
        let seeds = SeedSequence::new(root);
        let run = |threads: usize| {
            run_lanes(trials, lanes, threads, &seeds, |_, s| {
                (0..lanes)
                    .map(|lane| {
                        let draw = s.child(10 + lane as u64);
                        TrialMeasure::new((draw % 1000) as f64, draw % 2 == 0)
                    })
                    .collect()
            })
        };
        let a = run(1);
        let b = run(4);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.len(), lanes);
        for lane in &a {
            prop_assert_eq!(lane.count(), trials as u64);
        }
    }

    /// `FailurePolicy::Retry` is invisible in the aggregates: a cell
    /// whose trials panic per an arbitrary seeded fault plan and are
    /// retried produces bit-identical results to a fault-free
    /// single-thread run, for any worker count.
    #[test]
    fn retried_aggregates_are_bit_identical_to_fault_free(
        root in 0u64..u64::MAX,
        plan_seed in 0u64..u64::MAX,
        trials in 1usize..60,
        threads in 1usize..5,
        panic_every in 1u64..4,
    ) {
        let seeds = SeedSequence::new(root);
        let reference = synthetic_cell(trials, 1, &seeds);

        let plan = FaultPlan::new(plan_seed).with_trial_panics(panic_every);
        let hook: FaultHook = Arc::new(move |trial, attempt| {
            plan.trial_fault(trial, attempt).map(|fault| match fault {
                TrialFault::Panic => InjectedFault::Panic,
                TrialFault::Stall { ms } => InjectedFault::Stall { ms },
            })
        });
        let scope = install_faults(FaultInjection {
            policy: FailurePolicy::Retry { max: 3 },
            hook: Some(hook),
            cell_deadline_ms: None,
        });
        let retried = synthetic_cell(trials, threads, &seeds);
        drop(scope);

        prop_assert_eq!(reference, retried);
        prop_assert_eq!(retried.count(), trials as u64);
    }

    /// JSON documents built from arbitrary scalars round-trip through
    /// the serializer and parser.
    #[test]
    fn json_scalars_round_trip(
        ints in proptest::collection::vec(-1_000_000i64..1_000_000, 0..8),
        text_seed in 0u64..1_000_000,
        flag in 0u8..2,
    ) {
        // Exercise escaping: quotes, backslashes, newlines, controls.
        let text = format!("run \"{text_seed}\" \\ tab\t nl\n ctrl\u{1} ✓");
        let fractions: Vec<JsonValue> = ints
            .iter()
            .map(|&i| JsonValue::Float(i as f64 / 16.0))
            .collect();
        let doc = JsonValue::object(vec![
            ("ints", JsonValue::from(ints.clone())),
            ("floats", JsonValue::Array(fractions)),
            ("text", JsonValue::from(text.as_str())),
            ("flag", JsonValue::from(flag == 1)),
        ]);
        let parsed = parse_json(&doc.to_string());
        prop_assert_eq!(parsed.as_ref(), Ok(&doc));
    }
}
