//! Order statistics for the benchmark's samples.

/// Median of `values` (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartiles by the exclusive method, the values Python's
/// `statistics.quantiles(values, n=4)` returns (one sample is its own
/// quartiles).
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let s = sorted(values);
    if s.len() == 1 {
        return (s[0], s[0]);
    }
    let m = s.len() + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, s.len() - 1);
        let delta = (i * m) as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    (q(1), q(3))
}

/// Percentiles a tail metric may report, highest first.
const TAIL_PERCENTILES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The highest percentile, at most `cap`, that leaves at least ten of `n`
/// samples beyond it; `None` when even the median does not.
pub fn tail_percentile(n: usize, cap: f64) -> Option<f64> {
    TAIL_PERCENTILES
        .into_iter()
        .filter(|&p| p <= cap)
        .find(|&p| n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// The `p`-th percentile of `values` by the nearest-rank rule.
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let s = sorted(values);
    let rank = (p / 100.0 * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

fn sorted(values: &[f64]) -> Vec<f64> {
    assert!(!values.is_empty(), "statistics of an empty sample");
    let mut s = values.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([5, 7], n=4) == [4.5, 6.0, 7.5]
        assert_eq!(quartiles(&[5.0, 7.0]), (4.5, 7.5));
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(10_000, 99.0), Some(99.0));
        assert_eq!(tail_percentile(10_000, 99.9), Some(99.9));
        assert_eq!(tail_percentile(999, 99.0), Some(95.0));
        assert_eq!(tail_percentile(1000, 99.0), Some(99.0));
        assert_eq!(tail_percentile(200, 99.0), Some(95.0));
        assert_eq!(tail_percentile(199, 99.0), Some(90.0));
        assert_eq!(tail_percentile(40, 99.0), Some(75.0));
        assert_eq!(tail_percentile(20, 99.0), Some(50.0));
        assert_eq!(tail_percentile(19, 99.0), None);
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }
}
