//! Ordinary least-squares regression, including the log–log form used to
//! estimate scaling exponents.
//!
//! Almost every claim in the paper is about an exponent: search cost
//! `Ω(n^{1/2})`, max degree `t^p`, Adamic's `n^{2(1−2/k)}`. Fitting
//! `log y = a·log x + b` recovers the measured exponent `a`.

use std::fmt;

/// Result of an OLS fit `y ≈ slope · x + intercept`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearFit {
    /// Fitted slope.
    pub slope: f64,
    /// Fitted intercept.
    pub intercept: f64,
    /// Coefficient of determination `R²` (1.0 for a perfect fit; defined
    /// as 1.0 when the response is constant and fitted exactly).
    pub r_squared: f64,
}

impl fmt::Display for LinearFit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "slope={:.4} intercept={:.4} R²={:.4}",
            self.slope, self.intercept, self.r_squared
        )
    }
}

/// Fits `y ≈ slope·x + intercept` by least squares.
///
/// Returns `None` if fewer than two points are given, lengths differ,
/// any value is non-finite, or all `x` are identical.
pub fn fit_linear(x: &[f64], y: &[f64]) -> Option<LinearFit> {
    if x.len() != y.len() || x.len() < 2 {
        return None;
    }
    if x.iter().chain(y.iter()).any(|v| !v.is_finite()) {
        return None;
    }
    let n = x.len() as f64;
    let mean_x = x.iter().sum::<f64>() / n;
    let mean_y = y.iter().sum::<f64>() / n;
    let sxx: f64 = x.iter().map(|xi| (xi - mean_x).powi(2)).sum();
    if sxx == 0.0 {
        return None;
    }
    let sxy: f64 = x
        .iter()
        .zip(y.iter())
        .map(|(xi, yi)| (xi - mean_x) * (yi - mean_y))
        .sum();
    let slope = sxy / sxx;
    let intercept = mean_y - slope * mean_x;
    let ss_tot: f64 = y.iter().map(|yi| (yi - mean_y).powi(2)).sum();
    let ss_res: f64 = x
        .iter()
        .zip(y.iter())
        .map(|(xi, yi)| (yi - (slope * xi + intercept)).powi(2))
        .sum();
    let r_squared = if ss_tot == 0.0 {
        1.0
    } else {
        1.0 - ss_res / ss_tot
    };
    Some(LinearFit {
        slope,
        intercept,
        r_squared,
    })
}

/// Fits `y ≈ C · x^slope` by regressing `ln y` on `ln x`.
///
/// The returned [`LinearFit::slope`] is the scaling exponent; the
/// intercept is `ln C`. Returns `None` under the same conditions as
/// [`fit_linear`], or if any value is non-positive (logarithms must
/// exist).
///
/// # Example
///
/// ```
/// use nonsearch_analysis::fit_log_log;
///
/// // y = 2·x^0.5
/// let x = [100.0f64, 400.0, 1600.0, 6400.0];
/// let y: Vec<f64> = x.iter().map(|v| 2.0 * v.sqrt()).collect();
/// let fit = fit_log_log(&x, &y).unwrap();
/// assert!((fit.slope - 0.5).abs() < 1e-9);
/// ```
pub fn fit_log_log(x: &[f64], y: &[f64]) -> Option<LinearFit> {
    if x.iter().chain(y.iter()).any(|&v| v <= 0.0) {
        return None;
    }
    let lx: Vec<f64> = x.iter().map(|v| v.ln()).collect();
    let ly: Vec<f64> = y.iter().map(|v| v.ln()).collect();
    fit_linear(&lx, &ly)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_line_recovered() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y: Vec<f64> = x.iter().map(|v| 3.0 * v - 1.0).collect();
        let fit = fit_linear(&x, &y).unwrap();
        assert!((fit.slope - 3.0).abs() < 1e-12);
        assert!((fit.intercept + 1.0).abs() < 1e-12);
        assert!((fit.r_squared - 1.0).abs() < 1e-12);
        assert!((fit.slope * 5.0 + fit.intercept - 14.0).abs() < 1e-12);
    }

    #[test]
    fn noisy_fit_has_lower_r2() {
        let x = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let y = [1.2, 1.9, 3.3, 3.6, 5.4, 5.8];
        let fit = fit_linear(&x, &y).unwrap();
        assert!(fit.r_squared > 0.9 && fit.r_squared < 1.0);
        assert!((fit.slope - 1.0).abs() < 0.2);
    }

    #[test]
    fn degenerate_inputs_rejected() {
        assert!(fit_linear(&[1.0], &[2.0]).is_none());
        assert!(fit_linear(&[1.0, 2.0], &[1.0]).is_none());
        assert!(fit_linear(&[2.0, 2.0], &[1.0, 3.0]).is_none());
        assert!(fit_linear(&[1.0, f64::NAN], &[1.0, 2.0]).is_none());
    }

    #[test]
    fn constant_response_is_perfect_flat_fit() {
        let fit = fit_linear(&[1.0, 2.0, 3.0], &[5.0, 5.0, 5.0]).unwrap();
        assert_eq!(fit.slope, 0.0);
        assert_eq!(fit.r_squared, 1.0);
    }

    #[test]
    fn log_log_recovers_power_exponent() {
        let x = [10.0, 100.0, 1000.0, 10_000.0];
        let y: Vec<f64> = x.iter().map(|v: &f64| 0.7 * v.powf(1.5)).collect();
        let fit = fit_log_log(&x, &y).unwrap();
        assert!((fit.slope - 1.5).abs() < 1e-9);
        assert!((fit.intercept.exp() - 0.7).abs() < 1e-9);
    }

    #[test]
    fn log_log_rejects_non_positive() {
        assert!(fit_log_log(&[1.0, -2.0], &[1.0, 2.0]).is_none());
        assert!(fit_log_log(&[1.0, 2.0], &[0.0, 2.0]).is_none());
    }

    #[test]
    fn display_mentions_slope() {
        let fit = fit_linear(&[1.0, 2.0], &[1.0, 2.0]).unwrap();
        assert!(fit.to_string().contains("slope=1.0000"));
    }
}
