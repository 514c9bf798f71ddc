//! Order statistics used by the reports.

/// The `p`-quantile (0 ≤ p ≤ 1) of an ascending slice, interpolating
/// linearly at position `p·(n−1)` — the rule `obs::Percentiles` uses, so
/// a median or p99 computed here equals the one the simulator publishes.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "no samples");
    let idx = p * (sorted.len() - 1) as f64;
    let (lo, hi) = (idx.floor() as usize, idx.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (idx - lo as f64)
}

/// Ascending copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs"));
    v
}

pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values), 0.5)
}

/// Sum over columns of the smallest entry of each column: the lower
/// envelope of repeated measurements (`rows`) of one sequence of parts.
/// Noise that only ever adds time, in bursts shorter than a row, is left
/// out as long as each part ran undisturbed once.
///
/// # Panics
///
/// Panics when there are no rows.
pub fn envelope(rows: &[Vec<f64>]) -> f64 {
    let parts = rows.iter().map(Vec::len).min().expect("no rows");
    (0..parts)
        .map(|k| rows.iter().map(|r| r[k]).fold(f64::INFINITY, f64::min))
        .sum()
}

/// `(max − min) / median`: how far apart back-to-back repetitions of one
/// input landed. 0 for a single value.
pub fn rep_spread(values: &[f64]) -> f64 {
    let s = sorted(values);
    let m = quantile(&s, 0.5);
    if m == 0.0 {
        0.0
    } else {
        (s[s.len() - 1] - s[0]) / m
    }
}

/// The percentiles a latency report may quote, in tenths of a percent
/// so the ten-beyond count below is exact integer arithmetic.
const LADDER_PER_MILLE: [usize; 6] = [500, 750, 900, 950, 990, 999];

/// The highest percentile of p50, p75, p90, p95, p99, p99.9 that still
/// has at least ten of `n` samples strictly beyond it, or `None` when
/// even the median has fewer. A tail quoted above this rests on a
/// handful of samples.
pub fn supported_percentile(n: usize) -> Option<f64> {
    LADDER_PER_MILLE
        .iter()
        .copied()
        .rfind(|pm| n - (n * pm).div_ceil(1000) >= 10)
        .map(|pm| pm as f64 / 10.0)
}

/// `|a − b| / max(|a|, |b|)`, 0 when both are 0.
pub fn rel_diff(a: f64, b: f64) -> f64 {
    let scale = a.abs().max(b.abs());
    if scale == 0.0 {
        0.0
    } else {
        (a - b).abs() / scale
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_takes_each_part_from_its_fastest_row() {
        let rows = [vec![1.0, 5.0, 2.0], vec![3.0, 1.5, 2.5]];
        assert_eq!(envelope(&rows), 1.0 + 1.5 + 2.0);
        assert_eq!(envelope(&rows[..1]), 8.0);
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        // The sizes the workloads use, and the edges around them.
        assert_eq!(supported_percentile(1000), Some(99.0));
        assert_eq!(supported_percentile(999), Some(95.0));
        assert_eq!(supported_percentile(200), Some(95.0));
        assert_eq!(supported_percentile(199), Some(90.0));
        assert_eq!(supported_percentile(100), Some(90.0));
        assert_eq!(supported_percentile(60), Some(75.0));
        assert_eq!(supported_percentile(40), Some(75.0));
        assert_eq!(supported_percentile(20), Some(50.0));
        assert_eq!(supported_percentile(19), None);
        assert_eq!(supported_percentile(0), None);
        assert_eq!(supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn quantile_matches_the_simulators_estimator() {
        let v: Vec<f64> = (0..60).map(|i| (i * i) as f64 * 0.37).collect();
        let p = algorand_obs::Percentiles::of(&v);
        let s = sorted(&v);
        assert_eq!(quantile(&s, 0.5), p.median);
        assert_eq!(quantile(&s, 0.25), p.p25);
        assert_eq!(quantile(&s, 0.99), p.p99);
        assert_eq!(quantile(&s, 0.0), p.min);
        assert_eq!(quantile(&s, 1.0), p.max);
        assert_eq!(quantile(&[7.0], 0.95), 7.0);
    }

    #[test]
    fn spreads_and_differences() {
        assert_eq!(rep_spread(&[10.0]), 0.0);
        assert!((rep_spread(&[9.0, 10.0, 12.0]) - 0.3).abs() < 1e-12);
        assert_eq!(rel_diff(0.0, 0.0), 0.0);
        assert!((rel_diff(100.0, 90.0) - 0.1).abs() < 1e-12);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
