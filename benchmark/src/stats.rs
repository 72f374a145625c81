//! Percentiles, medians and spreads.

/// Samples a percentile needs beyond it before it is reported.
pub const MIN_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_unstable_by(f64::total_cmp);
    s
}

/// 1-based nearest rank of quantile `q` in a sample of `n`.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile: the smallest sample with at least `q` of the
/// sample at or below it.
///
/// # Panics
/// On an empty sample.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    sorted(values)[rank(values.len(), q) - 1]
}

/// How many samples lie strictly beyond the nearest rank of `q`.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// Whether a sample of `n` supports reporting quantile `q`: at least
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn supports(n: usize, q: f64) -> bool {
    samples_beyond(n, q) >= MIN_BEYOND
}

pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let s = sorted(values);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// The 95th percentile of repeats of one deterministic operation, estimated
/// for samples too few for a nearest rank (whose p95 is then the slowest
/// repeat, that is, the host's worst moment): median + 1.645 σ, with σ taken
/// from the median absolute deviation (× 1.4826, its normal-consistent
/// scale). Up to half the repeats may be disturbed without moving it much,
/// while a change that makes the operation itself less regular still
/// widens it.
pub fn p95_of_repeats(values: &[f64]) -> f64 {
    let m = median(values);
    let deviations: Vec<f64> = values.iter().map(|v| (v - m).abs()).collect();
    m + 1.645 * 1.4826 * median(&deviations)
}

/// First and third quartile as Python's `statistics.quantiles(values,
/// n=4)` computes them (the exclusive method), so spreads printed here are
/// the ones the driver computes.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two samples");
    let s = sorted(values);
    let n = s.len();
    let at = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Inter-quartile distance as a share of the median (0 for fewer than two
/// samples or a zero median).
pub fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / m.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
        // Order of the input does not matter.
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.5), 2.0);
        // 7 samples: p95 is the largest (ceil(6.65) = 7).
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 9.0], 0.95), 9.0);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p95 of 200 samples has exactly 10 beyond it; 199 has 9.
        assert_eq!(samples_beyond(200, 0.95), 10);
        assert!(supports(200, 0.95));
        assert_eq!(samples_beyond(199, 0.95), 9);
        assert!(!supports(199, 0.95));
        assert!(supports(1000, 0.99));
        assert!(!supports(999, 0.99));
        assert!(!supports(0, 0.5));
    }

    #[test]
    fn p95_of_repeats_ignores_a_disturbed_minority() {
        // Identical repeats: no deviation, the estimate is the median.
        assert_eq!(p95_of_repeats(&[2.0; 8]), 2.0);
        // Median 10, absolute deviations {0, 1, 1, 2, 2} with median 1.
        let regular = [8.0, 9.0, 10.0, 11.0, 12.0];
        let expected = 10.0 + 1.645 * 1.4826;
        assert!((p95_of_repeats(&regular) - expected).abs() < 1e-12);
        // One repeat stalled: the nearest rank follows it, the estimate
        // does not.
        let stalled = [8.0, 9.0, 10.0, 11.0, 40.0];
        assert_eq!(percentile(&stalled, 0.95), 40.0);
        assert!((p95_of_repeats(&stalled) - expected).abs() < 1e-12);
        // Wider repeats widen it.
        assert!(p95_of_repeats(&[6.0, 8.0, 10.0, 12.0, 14.0]) > expected);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert_eq!(median(&v), 5.5);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
        // statistics.quantiles([3,1,4,1,5], n=4) == [1.0, 3.0, 4.5]
        let (q1, q3) = quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]);
        assert!((q1 - 1.0).abs() < 1e-12 && (q3 - 4.5).abs() < 1e-12);
        assert_eq!(spread(&[5.0]), 0.0);
    }
}
