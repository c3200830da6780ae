//! Order statistics the benchmark reports: medians, quartiles, and the
//! "highest percentile with at least ten samples beyond it" rule.

/// Sorts in place (total order, NaN last) and returns the slice.
pub fn sort(values: &mut [f64]) -> &[f64] {
    values.sort_by(|a, b| a.total_cmp(b));
    values
}

/// Median of unsorted values (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    let v = sort(&mut v);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile of already sorted values (0 for an empty slice).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples a tail percentile must leave beyond it to be reported.
pub const MIN_BEYOND: usize = 10;

/// The highest of p99 / p90 / p50 that leaves at least [`MIN_BEYOND`] of
/// `n` samples beyond it. The ladder is coarse on purpose: a run whose
/// sample count hovers near a boundary must not flip between p95 and p90.
pub fn tail_percentile(n: usize) -> f64 {
    [99.0, 90.0]
        .into_iter()
        .find(|p| (n as f64 * (100.0 - p) / 100.0).floor() as usize >= MIN_BEYOND)
        .unwrap_or(50.0)
}

/// `(q1, median, q3)` exactly as Python's `statistics.quantiles(v, n=4)`
/// (the exclusive method), so spreads computed here match the driver's.
/// A single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    let v = sort(&mut v);
    let m = v.len();
    if m < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Interquartile range as a share of the median (0 when the median is 0).
pub fn spread(values: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(5_000), 99.0);
        assert_eq!(tail_percentile(1_000), 99.0, "exactly ten beyond p99");
        assert_eq!(tail_percentile(999), 90.0, "nine beyond p99 is not enough");
        assert_eq!(tail_percentile(280), 90.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(99), 50.0);
        assert_eq!(tail_percentile(0), 50.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[], 99.0), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
    }

    #[test]
    fn median_and_spread() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[0.0, 0.0]), 0.0);
    }
}
