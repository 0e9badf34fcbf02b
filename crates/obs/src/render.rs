//! Text rendering for the metrics substrate: an ASCII view of the
//! log₂ request histogram for `xp report`.

use crate::Log2Histogram;

/// Renders the nonzero buckets of a log₂ histogram as right-aligned
/// range labels with `#` bars scaled so the fullest bucket spans
/// `width` columns. An empty histogram renders as a single
/// `(no samples)` line. Bucket `0` is labeled `0`; bucket `k ≥ 1`
/// is labeled `[2^(k-1), 2^k)`.
pub fn render_log2_histogram(histogram: &Log2Histogram, width: usize) -> String {
    let buckets = histogram.trimmed();
    let max = buckets.iter().copied().max().unwrap_or(0);
    if max == 0 {
        return "  (no samples)\n".to_string();
    }
    let width = width.max(1) as u64;
    let mut out = String::new();
    for (k, &count) in buckets.iter().enumerate() {
        if count == 0 {
            continue;
        }
        let label = if k == 0 {
            "0".to_string()
        } else {
            format!("[{}, {})", 1u128 << (k - 1), 1u128 << k)
        };
        // Ceiling division so any nonzero bucket shows at least one mark.
        let bar_len = ((count * width).div_ceil(max)) as usize;
        out.push_str(&format!(
            "  {label:>24} {count:>8} {}\n",
            "#".repeat(bar_len)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_render_scales_to_width() {
        let mut h = Log2Histogram::new();
        for _ in 0..40 {
            h.record(5); // bucket 3: [4, 8)
        }
        h.record(0);
        h.record(1000); // bucket 10: [512, 1024)
        let text = render_log2_histogram(&h, 20);
        assert!(text.contains("[4, 8)"), "{text}");
        assert!(text.contains("[512, 1024)"), "{text}");
        assert!(text.contains(&"#".repeat(20)), "{text}");
        // The singleton buckets still get a visible mark.
        for line in text.lines() {
            assert!(line.contains('#'), "bar-less line: {line}");
        }
        // Zero-count buckets between nonzero ones are skipped.
        assert!(!text.contains("[8, 16)"), "{text}");
    }

    #[test]
    fn empty_histogram_renders_placeholder() {
        let text = render_log2_histogram(&Log2Histogram::new(), 40);
        assert_eq!(text, "  (no samples)\n");
    }
}
