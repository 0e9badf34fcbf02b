//! Scaling exponents: the one place a sweep's log–log slopes are fit.
//!
//! Every claim the reproduction measures is an exponent — `Ω(n^{1/2})`
//! search cost, Móri's `t^p` max degree, Adamic's `n^{2(1−2/k)}`,
//! Kleinberg's polylog — so every slope-fitting experiment hands its
//! per-lane points to a [`ScalingSeries`], which owns the three choices
//! they share: the fit, the floor, and which lane is best.

use nonsearch_analysis::{fit_log_log, LinearFit};
use nonsearch_engine::{CellObs, LaneAggregate};

/// Lanes of `(x, y)` points, one fitted exponent per lane.
///
/// Points are pushed in sweep order, so a lane's last point is its
/// largest size. The caller chooses `x` (the size `n`, a lane's mean
/// giant size, a lattice's vertex count); `y` is the measured mean.
#[derive(Debug)]
pub struct ScalingSeries {
    lanes: Vec<Vec<(f64, f64)>>,
}

impl ScalingSeries {
    /// Every `y` is floored here before the fit, so a lane whose mean
    /// is zero (a search that starts on its target) still has a
    /// logarithm.
    const FLOOR: f64 = 1.0;

    /// An empty series of `lanes` lanes.
    pub fn new(lanes: usize) -> Self {
        ScalingSeries {
            lanes: vec![Vec::new(); lanes],
        }
    }

    /// The series of a sweep of [`search_cell`](crate::search_cell)s,
    /// one cell per size of `sizes`: one lane per searcher, `x = n`, `y` its mean requests.
    pub fn of_sweep(sizes: &[usize], sweep: &[(Vec<LaneAggregate>, CellObs)]) -> Self {
        let mut series = ScalingSeries::new(sweep.first().map_or(0, |(lanes, _)| lanes.len()));
        for (&n, (lanes, _)) in sizes.iter().zip(sweep) {
            for (lane, aggregate) in lanes.iter().enumerate() {
                series.push(lane, n as f64, aggregate.mean());
            }
        }
        series
    }

    /// Appends the point `(x, y)` to `lane`.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn push(&mut self, lane: usize, x: f64, y: f64) {
        self.lanes[lane].push((x, y));
    }

    /// The least-squares fit behind [`Self::exponent`].
    fn fit(&self, lane: usize) -> Option<LinearFit> {
        let (xs, ys): (Vec<f64>, Vec<f64>) = self.lanes[lane]
            .iter()
            .map(|&(x, y)| (x, y.max(Self::FLOOR)))
            .unzip();
        fit_log_log(&xs, &ys)
    }

    /// `lane`'s fitted scaling exponent: the slope of `ln max(y, 1)` on
    /// `ln x` over its points. `None` with fewer than two points or when
    /// [`fit_log_log`] rejects them (a non-positive `x`).
    pub fn exponent(&self, lane: usize) -> Option<f64> {
        self.fit(lane).map(|fit| fit.slope)
    }

    /// The lane with the smallest `y` at its largest size; the first
    /// such lane wins a tie. `None` when no lane has a point.
    pub fn best_lane(&self) -> Option<usize> {
        self.lanes
            .iter()
            .enumerate()
            .filter_map(|(lane, points)| points.last().map(|&(_, y)| (lane, y)))
            .min_by(|(_, a), (_, b)| a.total_cmp(b))
            .map(|(lane, _)| lane)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(lanes: &[&[(f64, f64)]]) -> ScalingSeries {
        let mut s = ScalingSeries::new(lanes.len());
        for (lane, points) in lanes.iter().enumerate() {
            for &(x, y) in *points {
                s.push(lane, x, y);
            }
        }
        s
    }

    /// One lane of each experiment's quick fixture, fed to `fit_log_log`
    /// the way that experiment fed it before the series, floor
    /// included, and the exponent its cells pin where they carry one.
    #[test]
    fn slope_is_bit_identical_to_fit_log_log_on_each_experiments_inputs() {
        let none = |y: f64| y;
        let certify = |y: f64| y.max(1e-9);
        let one = |y: f64| y.max(1.0);
        type Case<'a> = (
            &'a str,
            &'a [(f64, f64)],
            &'a dyn Fn(f64) -> f64,
            Option<f64>,
        );
        let cases: [Case; 7] = [
            // E1, first lane: x = n, y = mean requests.
            (
                "theorem1-weak",
                &[(512.0, 781.25), (1024.0, 3812.25), (2048.0, 6297.75)],
                &certify,
                Some(1.5054901492892079),
            ),
            // E2, strong-bfs.
            (
                "theorem1-strong",
                &[
                    (512.0, 318.6666666666667),
                    (1024.0, 443.33333333333337),
                    (2048.0, 1017.3333333333333),
                ],
                &one,
                None,
            ),
            // E6's bound growth: y = |V|·P(E)/2.
            (
                "lemma1-bound",
                &[
                    (512.0, 8.813607977862372),
                    (1024.0, 12.388759571096058),
                    (2048.0, 17.711883093526925),
                ],
                &none,
                None,
            ),
            // E7, p = 0.2: x = t, y = mean max degree.
            (
                "maxdeg",
                &[
                    (1024.0, 22.666666666666668),
                    (4096.0, 39.333333333333336),
                    (16384.0, 40.333333333333336),
                ],
                &none,
                Some(0.20785009900606374),
            ),
            // E10, high-degree: x = mean giant size.
            (
                "adamic",
                &[(1482.5, 671.75), (2939.5, 1303.0), (5906.0, 3684.25)],
                &one,
                Some(1.2321209180285138),
            ),
            // E11, r = 0: x = side², y = mean hops.
            (
                "kleinberg",
                &[(256.0, 5.76), (1024.0, 8.53), (4096.0, 13.29)],
                &none,
                Some(0.3015500969584656),
            ),
            // E15, rewired bfs-flood.
            (
                "null-model",
                &[
                    (512.0, 253.33333333333331),
                    (1024.0, 577.6666666666666),
                    (2048.0, 1795.0),
                ],
                &one,
                None,
            ),
        ];
        for (name, points, old_floor, pinned) in cases {
            let mut s = ScalingSeries::new(1);
            for &(x, y) in points {
                s.push(0, x, y);
            }
            let (xs, ys): (Vec<f64>, Vec<f64>) =
                points.iter().map(|&(x, y)| (x, old_floor(y))).unzip();
            let want = fit_log_log(&xs, &ys).expect("valid inputs");
            let got = s.exponent(0).expect("valid inputs");
            assert_eq!(got.to_bits(), want.slope.to_bits(), "{name}");
            assert_eq!(s.fit(0), Some(want), "{name}");
            if let Some(pinned) = pinned {
                assert_eq!(got.to_bits(), pinned.to_bits(), "{name}");
            }
        }
    }

    #[test]
    fn a_tie_at_the_largest_size_picks_the_first_lane() {
        let s = series(&[
            &[(1.0, 9.0), (2.0, 30.0)],
            &[(1.0, 1.0), (2.0, 20.0)],
            &[(1.0, 5.0), (2.0, 20.0)],
        ]);
        assert_eq!(s.best_lane(), Some(1));
        // Only the last point counts: being cheaper at a smaller size
        // neither breaks a tie nor wins.
        let s = series(&[&[(1.0, 3.0), (2.0, 7.0)], &[(1.0, 2.0), (2.0, 7.0)]]);
        assert_eq!(s.best_lane(), Some(0));
        let s = series(&[&[(1.0, 1.0), (2.0, 50.0)], &[(1.0, 9.0), (2.0, 40.0)]]);
        assert_eq!(s.best_lane(), Some(1));
    }

    #[test]
    fn empty_lanes_are_never_best() {
        assert_eq!(ScalingSeries::new(0).best_lane(), None);
        assert_eq!(ScalingSeries::new(2).best_lane(), None);
        let s = series(&[&[], &[(1.0, 4.0)]]);
        assert_eq!(s.best_lane(), Some(1));
    }

    #[test]
    fn a_lane_with_fewer_than_two_points_has_no_fit() {
        let s = series(&[&[], &[(16.0, 4.0)], &[(16.0, 4.0), (64.0, 8.0)]]);
        assert!(s.fit(0).is_none());
        assert!(s.exponent(1).is_none());
        assert!((s.exponent(2).unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn the_floor_applies_to_a_mean_of_one_half() {
        // Floored, (0.5 → 1, 1 → 1) is flat; unfloored it would rise
        // with slope 1.
        let s = series(&[&[(2.0, 0.5), (4.0, 1.0)]]);
        assert_eq!(s.exponent(0), Some(0.0));
        let floored = fit_log_log(&[2.0, 4.0], &[1.0, 1.0]).unwrap();
        assert_eq!(s.fit(0), Some(floored));
        // A zero mean (start on the target) is floored, not rejected.
        let s = series(&[&[(2.0, 0.0), (4.0, 4.0)]]);
        assert!((s.exponent(0).unwrap() - 2.0).abs() < 1e-12);
    }
}
