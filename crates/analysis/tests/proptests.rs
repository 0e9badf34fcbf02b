//! Property-based tests for the analysis toolkit, including the
//! power-law fit's bit-identity against the 80-step, two-pass reference
//! model.

use nonsearch_analysis::{
    fit_linear, fit_log_log, fit_power_law_mle, log_binned_histogram, pearson, PowerLawFit,
    SampleStats,
};
use nonsearch_generators::{
    rng_from_seed, BarabasiAlbert, CooperFrieze, CooperFriezeConfig, MergedMori, UniformAttachment,
};
use nonsearch_graph::degree_sequence;
use proptest::prelude::*;
use rand::Rng;

/// The power-law fit as it was before the fused, table-driven loop:
/// two separate zeta sums per step and 80 fixed bisection steps. Kept
/// verbatim as the reference model `fit_power_law_mle` must match bit
/// for bit.
mod reference {
    use super::PowerLawFit;

    const ZETA_DIRECT_TERMS: usize = 20_000;
    const K_LO: f64 = 1.0001;
    const K_HI: f64 = 25.0;

    fn zeta(k: f64, a: usize) -> f64 {
        let n = a + ZETA_DIRECT_TERMS;
        let direct: f64 = (a..n).map(|d| (d as f64).powf(-k)).sum();
        let nf = n as f64;
        direct + nf.powf(1.0 - k) / (k - 1.0) + 0.5 * nf.powf(-k)
    }

    fn zeta_log(k: f64, a: usize) -> f64 {
        let n = a + ZETA_DIRECT_TERMS;
        let direct: f64 = (a..n).map(|d| (d as f64).ln() * (d as f64).powf(-k)).sum();
        let nf = n as f64;
        let tail_integral =
            nf.powf(1.0 - k) * (nf.ln() / (k - 1.0) + 1.0 / ((k - 1.0) * (k - 1.0)));
        direct + tail_integral + 0.5 * nf.ln() * nf.powf(-k)
    }

    fn expected_log(k: f64, a: usize) -> f64 {
        zeta_log(k, a) / zeta(k, a)
    }

    pub fn fit_power_law_mle(degrees: &[usize], x_min: usize) -> Option<PowerLawFit> {
        if x_min == 0 {
            return None;
        }
        let tail: Vec<usize> = degrees.iter().copied().filter(|&d| d >= x_min).collect();
        if tail.len() < 10 {
            return None;
        }
        let n = tail.len() as f64;
        let mean_log: f64 = tail.iter().map(|&d| (d as f64).ln()).sum::<f64>() / n;
        if mean_log <= (x_min as f64).ln() + 1e-9 {
            return None; // every observation at the cutoff
        }

        // E_k[ln X] is continuous and strictly decreasing in k; bisect.
        let mut lo = K_LO;
        let mut hi = K_HI;
        if expected_log(hi, x_min) > mean_log {
            // Even the steepest allowed law has a heavier log-mean: clamp.
            let exponent = K_HI;
            let ks = ks_distance(&tail, x_min, exponent);
            return Some(PowerLawFit {
                exponent,
                x_min,
                tail_size: tail.len(),
                ks_distance: ks,
            });
        }
        for _ in 0..80 {
            let mid = 0.5 * (lo + hi);
            if expected_log(mid, x_min) > mean_log {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let exponent = 0.5 * (lo + hi);
        let ks = ks_distance(&tail, x_min, exponent);
        Some(PowerLawFit {
            exponent,
            x_min,
            tail_size: tail.len(),
            ks_distance: ks,
        })
    }

    fn ks_distance(tail: &[usize], x_min: usize, k: f64) -> f64 {
        let max = *tail.iter().max().expect("tail is non-empty");
        let norm = zeta(k, x_min);
        let n = tail.len() as f64;
        let mut counts = vec![0usize; max - x_min + 1];
        for &d in tail {
            counts[d - x_min] += 1;
        }
        let mut model_cdf = 0.0;
        let mut empirical_cdf = 0.0;
        let mut worst: f64 = 0.0;
        for (i, &c) in counts.iter().enumerate() {
            let d = (x_min + i) as f64;
            model_cdf += d.powf(-k) / norm;
            empirical_cdf += c as f64 / n;
            worst = worst.max((model_cdf - empirical_cdf).abs());
        }
        worst
    }
}

/// Asserts `fit_power_law_mle` and the reference model agree on
/// `degrees`: the same `None`-ness, and the same bits in every field.
fn assert_fit_matches_reference(
    degrees: &[usize],
    x_min: usize,
    case: &str,
) -> Option<PowerLawFit> {
    let fit = fit_power_law_mle(degrees, x_min);
    let expected = reference::fit_power_law_mle(degrees, x_min);
    match (fit, expected) {
        (None, None) => {}
        (Some(f), Some(e)) => {
            assert_eq!(
                f.exponent.to_bits(),
                e.exponent.to_bits(),
                "{case}: exponent {f} vs {e}"
            );
            assert_eq!(
                f.ks_distance.to_bits(),
                e.ks_distance.to_bits(),
                "{case}: KS {f} vs {e}"
            );
            assert_eq!((f.x_min, f.tail_size), (e.x_min, e.tail_size), "{case}");
        }
        _ => panic!("{case}: fit {fit:?}, reference {expected:?}"),
    }
    fit
}

/// `count` draws of a discretized Pareto law with exponent `k` on
/// `d ≥ x_min` (inverse CDF), capped at 100 000 so the KS support stays
/// small.
fn zipf_like_sample(k: f64, x_min: usize, count: usize, seed: u64) -> Vec<usize> {
    let mut rng = rng_from_seed(seed);
    (0..count)
        .map(|_| {
            let u = 1.0 - rng.gen::<f64>(); // (0, 1]
            (x_min as f64 * u.powf(-1.0 / (k - 1.0))).min(100_000.0) as usize
        })
        .collect()
}

#[test]
fn power_law_fit_matches_the_reference_on_fixed_cases() {
    // Clamp at K_HI: 1% of the mass one step above a high cutoff.
    let mut steep = vec![100usize; 1000];
    steep.extend([101; 10]);
    let fit = assert_fit_matches_reference(&steep, 100, "clamp").expect("fittable");
    assert_eq!(fit.exponent, 25.0, "the clamp case must hit K_HI");
    // Every observation at the cutoff, a tail under 10, x_min = 0.
    assert!(assert_fit_matches_reference(&[5; 100], 5, "all at cutoff").is_none());
    assert!(
        assert_fit_matches_reference(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 1], 2, "tail of 9").is_none()
    );
    assert!(assert_fit_matches_reference(&[1; 100], 0, "x_min = 0").is_none());
}

#[test]
fn power_law_fit_matches_the_reference_on_e8_models() {
    // One degree sequence from each of E8's six models at n = 20 000,
    // fitted at E8's cutoff of 3.
    const N: usize = 20_000;
    let mut rng = rng_from_seed(0xE8);
    let mut samples = Vec::new();
    for p in [0.3, 0.6, 0.9] {
        let mori = MergedMori::sample(N, 1, p, &mut rng).unwrap();
        samples.push((format!("mori p={p}"), degree_sequence(&mori.undirected())));
    }
    let config = CooperFriezeConfig::balanced(0.7).unwrap();
    let cf = CooperFrieze::sample(N, &config, &mut rng).unwrap();
    samples.push(("cooper-frieze".into(), degree_sequence(&cf.undirected())));
    let ba = BarabasiAlbert::sample(N, 2, &mut rng).unwrap();
    samples.push(("barabasi-albert".into(), degree_sequence(&ba.undirected())));
    let ua = UniformAttachment::sample(N, 1, &mut rng).unwrap();
    samples.push((
        "uniform-attachment".into(),
        degree_sequence(&ua.undirected()),
    ));
    for (model, degrees) in samples {
        assert!(
            assert_fit_matches_reference(&degrees, 3, &model).is_some(),
            "{model}"
        );
    }
}

/// The cutoffs the fit's bit-agreement tests cover.
const X_MINS: [usize; 6] = [1, 2, 3, 5, 10, 100];

/// `E_k[ln X]` for the discrete power law on `x ≥ a` by the reference's
/// formula, summed in one pass (so within about 1e-12 of its value).
fn expected_log(k: f64, a: usize) -> f64 {
    let n = a + 20_000;
    let (mut zeta, mut zeta_log) = (0.0, 0.0);
    for d in a..n {
        let term = (d as f64).powf(-k);
        zeta += term;
        zeta_log += (d as f64).ln() * term;
    }
    let (nf, k1) = (n as f64, k - 1.0);
    let (head, tail) = (nf.powf(-k1), nf.powf(-k));
    zeta += head / k1 + 0.5 * tail;
    zeta_log += head * (nf.ln() / k1 + 1.0 / (k1 * k1)) + 0.5 * nf.ln() * tail;
    zeta_log / zeta
}

/// The mean of `ln d` over `sample`, as the fit computes it.
fn log_mean(sample: &[usize]) -> f64 {
    sample.iter().map(|&d| (d as f64).ln()).sum::<f64>() / sample.len() as f64
}

/// `base` (every value at least `x_min`) moved to a sample whose
/// [`log_mean`] is within about 1e-8 of `target`: observations are
/// doubled or halved until a final one near 5·10⁴ can take up the rest,
/// which it does in steps of about 2·10⁻⁵ of the log sum.
fn sample_with_log_mean(mut sample: Vec<usize>, x_min: usize, target: f64) -> Vec<usize> {
    sample.push(50_000);
    let n = sample.len();
    let deficit = |s: &[usize]| (log_mean(s) - target) * -(n as f64);
    for i in (0..n - 1).cycle().take(100 * n) {
        let d = deficit(&sample);
        if d.abs() < 0.3 {
            break;
        }
        if d > 0.0 && sample[i] <= 50_000 {
            sample[i] *= 2;
        } else if d < 0.0 && sample[i] >= 2 * x_min {
            sample[i] /= 2;
        }
    }
    let d = deficit(&sample);
    assert!(d.abs() < 0.3, "cannot reach log mean {target}");
    sample[n - 1] = (50_000.0 * d.exp()).round() as usize;
    sample
}

#[test]
fn power_law_fit_matches_the_reference_for_each_x_min() {
    for x_min in X_MINS {
        let sample = zipf_like_sample(2.3, x_min, 3000, x_min as u64);
        assert_fit_matches_reference(&sample, x_min, &format!("x_min={x_min}"));
    }
}

#[test]
fn power_law_fit_matches_the_reference_near_bisection_midpoints() {
    // Steps 3 and 5 of the search for k = 2.2, at midpoints 2.5000… and
    // 2.1250…, with the log mean just below and just above E_mid[ln X]
    // respectively. Each lies within half the fit's decision margin
    // (1e-7) of it, so the cheap estimate cannot decide that step and
    // the full evaluation does.
    for x_min in X_MINS {
        let (mut lo, mut hi) = (1.0001f64, 25.0f64);
        for step in 0..6u64 {
            let mid = 0.5 * (lo + hi);
            let offset = match step {
                3 => -4e-8,
                5 => 4e-8,
                _ => 0.0,
            };
            if offset != 0.0 {
                let exact = expected_log(mid, x_min);
                let base = zipf_like_sample(mid, x_min, 2000, step);
                let sample = sample_with_log_mean(base, x_min, exact + offset);
                let case = format!("x_min={x_min} step={step} offset={offset:e}");
                let gap = (log_mean(&sample) - exact).abs();
                assert!(gap < 0.5e-7, "{case}: log mean {gap:e} from E_mid");
                assert_fit_matches_reference(&sample, x_min, &case);
            }
            if mid < 2.2 {
                lo = mid;
            } else {
                hi = mid;
            }
        }
    }
}

proptest! {
    // Fixed case count: keeps CI time bounded and independent of the
    // proptest default.
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn stats_bounds_hold(data in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
        let s = SampleStats::from_slice(&data).unwrap();
        prop_assert!(s.min() <= s.mean() + 1e-6);
        prop_assert!(s.mean() <= s.max() + 1e-6);
        prop_assert!(s.variance() >= 0.0);
        prop_assert_eq!(s.count(), data.len());
    }

    #[test]
    fn shifting_data_shifts_mean_only(
        data in proptest::collection::vec(-1e3f64..1e3, 2..100),
        shift in -1e3f64..1e3,
    ) {
        let s1 = SampleStats::from_slice(&data).unwrap();
        let shifted: Vec<f64> = data.iter().map(|x| x + shift).collect();
        let s2 = SampleStats::from_slice(&shifted).unwrap();
        prop_assert!((s2.mean() - s1.mean() - shift).abs() < 1e-6);
        prop_assert!((s2.variance() - s1.variance()).abs() < 1e-3);
    }

    #[test]
    fn linear_fit_recovers_exact_lines(
        slope in -100.0f64..100.0,
        intercept in -100.0f64..100.0,
        xs in proptest::collection::hash_set(-1000i32..1000, 2..50),
    ) {
        let xs: Vec<f64> = xs.into_iter().map(f64::from).collect();
        let ys: Vec<f64> = xs.iter().map(|x| slope * x + intercept).collect();
        let fit = fit_linear(&xs, &ys).unwrap();
        prop_assert!((fit.slope - slope).abs() < 1e-6 * (1.0 + slope.abs()));
        prop_assert!((fit.intercept - intercept).abs() < 1e-4 * (1.0 + intercept.abs()));
        prop_assert!(fit.r_squared > 1.0 - 1e-9);
    }

    #[test]
    fn log_log_fit_recovers_power_laws(
        exponent in -3.0f64..3.0,
        scale_log in -3.0f64..3.0,
        xs in proptest::collection::hash_set(1u32..10_000, 2..40),
    ) {
        let scale = scale_log.exp();
        let xs: Vec<f64> = xs.into_iter().map(f64::from).collect();
        let ys: Vec<f64> = xs.iter().map(|x| scale * x.powf(exponent)).collect();
        prop_assume!(ys.iter().all(|y| y.is_finite() && *y > 0.0));
        let fit = fit_log_log(&xs, &ys).unwrap();
        prop_assert!((fit.slope - exponent).abs() < 1e-6);
    }

    #[test]
    fn log_bins_partition_positive_mass(
        data in proptest::collection::vec(0usize..100_000, 0..300),
        growth_centi in 110u32..500,
    ) {
        let growth = growth_centi as f64 / 100.0;
        let bins = log_binned_histogram(&data, growth);
        let binned: usize = bins.iter().map(|b| b.count).sum();
        let positive = data.iter().filter(|&&x| x > 0).count();
        prop_assert_eq!(binned, positive);
        // Bins are ordered and disjoint.
        for w in bins.windows(2) {
            prop_assert!(w[0].hi <= w[1].lo);
        }
    }

    #[test]
    fn pearson_is_symmetric_and_bounded(
        pairs in proptest::collection::vec((-1e3f64..1e3, -1e3f64..1e3), 2..100),
    ) {
        let xs: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let ys: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        if let Some(r) = pearson(&xs, &ys) {
            prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r));
            let r2 = pearson(&ys, &xs).unwrap();
            prop_assert!((r - r2).abs() < 1e-12);
        }
    }
}

proptest! {
    // Each case runs the 80-step reference model, so fewer cases than
    // the block above.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn power_law_fit_matches_the_reference_bit_for_bit(
        k_centi in 105u32..=600,
        x_min in 1usize..=8,
        count in 20usize..2000,
        head in 0usize..200,
        seed in 0u64..u64::MAX,
    ) {
        let mut sample = zipf_like_sample(f64::from(k_centi) / 100.0, x_min, count, seed);
        // A head below the cutoff (at it when x_min = 1) that the fit
        // must filter out.
        sample.extend((0..head).map(|i| 1 + i % x_min));
        let case = format!("k={k_centi}/100 x_min={x_min} count={count} head={head} seed={seed}");
        assert_fit_matches_reference(&sample, x_min, &case);
    }
}
