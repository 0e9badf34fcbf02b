//! Logarithmically binned histograms for heavy-tailed data.
//!
//! Linear binning drowns power-law tails in noise; log binning (bin edges
//! growing geometrically) is the standard presentation for degree
//! distributions.

/// One bin of a logarithmic histogram.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogBin {
    /// Inclusive lower edge.
    pub lo: usize,
    /// Exclusive upper edge.
    pub hi: usize,
    /// Number of observations in `[lo, hi)`.
    pub count: usize,
    /// Count divided by bin width — comparable across bins.
    pub density: f64,
}

/// Bins positive observations into geometrically growing buckets
/// `[1, g), [g, g²), …` with growth factor `growth > 1`.
///
/// Zero observations are ignored (log bins start at 1). Returns an empty
/// vector if no positive observations exist.
///
/// # Panics
///
/// Panics if `growth ≤ 1` or non-finite.
///
/// # Example
///
/// ```
/// use nonsearch_analysis::log_binned_histogram;
///
/// let data = [1usize, 1, 2, 3, 5, 8, 13, 21, 34];
/// let bins = log_binned_histogram(&data, 2.0);
/// let total: usize = bins.iter().map(|b| b.count).sum();
/// assert_eq!(total, 9);
/// ```
pub fn log_binned_histogram(data: &[usize], growth: f64) -> Vec<LogBin> {
    assert!(
        growth.is_finite() && growth > 1.0,
        "growth factor must exceed 1"
    );
    let max = match data.iter().copied().filter(|&x| x > 0).max() {
        Some(m) => m,
        None => return Vec::new(),
    };
    // Build edges 1, ⌈g⌉, ⌈g²⌉, … ensuring strict growth.
    let mut edges: Vec<usize> = vec![1];
    let mut edge = 1.0f64;
    while *edges.last().expect("non-empty") <= max {
        edge *= growth;
        let next = (edge.ceil() as usize).max(edges.last().unwrap() + 1);
        edges.push(next);
    }
    let mut bins: Vec<LogBin> = edges
        .windows(2)
        .map(|w| LogBin {
            lo: w[0],
            hi: w[1],
            count: 0,
            density: 0.0,
        })
        .collect();
    for &x in data {
        if x == 0 {
            continue;
        }
        // Find the bin with lo ≤ x < hi.
        let idx = bins.partition_point(|b| b.hi <= x);
        bins[idx].count += 1;
    }
    for b in &mut bins {
        b.density = b.count as f64 / (b.hi - b.lo) as f64;
    }
    bins.retain(|b| b.count > 0);
    bins
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bins_partition_all_positive_data() {
        let data: Vec<usize> = (1..=1000).collect();
        let bins = log_binned_histogram(&data, 2.0);
        let total: usize = bins.iter().map(|b| b.count).sum();
        assert_eq!(total, 1000);
        // Bins are disjoint and ordered.
        for w in bins.windows(2) {
            assert!(w[0].hi <= w[1].lo);
        }
    }

    #[test]
    fn zeros_are_ignored() {
        let bins = log_binned_histogram(&[0, 0, 1, 2], 2.0);
        let total: usize = bins.iter().map(|b| b.count).sum();
        assert_eq!(total, 2);
    }

    #[test]
    fn empty_or_all_zero_gives_no_bins() {
        assert!(log_binned_histogram(&[], 2.0).is_empty());
        assert!(log_binned_histogram(&[0, 0], 2.0).is_empty());
    }

    #[test]
    fn density_normalizes_width() {
        // 8 observations of value 1 (bin [1,2), width 1) and 8 spread over
        // [8, 16) (width 8): same count, 8× different density.
        let mut data = vec![1usize; 8];
        data.extend(8..16);
        let bins = log_binned_histogram(&data, 2.0);
        let first = bins.iter().find(|b| b.lo == 1).unwrap();
        let last = bins.iter().find(|b| b.lo == 8).unwrap();
        assert_eq!(first.count, 8);
        assert_eq!(last.count, 8);
        assert!((first.density / last.density - 8.0).abs() < 1e-12);
    }

    #[test]
    fn growth_factor_respected() {
        let data: Vec<usize> = (1..=100).collect();
        let coarse = log_binned_histogram(&data, 4.0);
        let fine = log_binned_histogram(&data, 1.5);
        assert!(coarse.len() < fine.len());
    }

    #[test]
    #[should_panic(expected = "growth factor")]
    fn bad_growth_panics() {
        let _ = log_binned_histogram(&[1, 2], 1.0);
    }
}
