//! Order statistics over raw samples. Percentiles are exact: the samples
//! are sorted and one of them is returned, never a histogram bucket edge.

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `p` percent of the samples at or below it. 0 for no samples.
pub fn percentile_sorted(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sort in place and return the nearest-rank percentile.
pub fn percentile(samples: &mut [u64], p: f64) -> u64 {
    samples.sort_unstable();
    percentile_sorted(samples, p)
}

/// Median of floats (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// First, second and third quartile by the rule of Python's
/// `statistics.quantiles(values, n=4)` (exclusive method), which is what
/// the acceptance check of `BENCHMARK.json` uses. Needs two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    let m = len + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4) {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_exact_on_a_known_vector() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut v, 50.0), 50);
        assert_eq!(percentile(&mut v, 90.0), 90);
        assert_eq!(percentile(&mut v, 99.0), 99);
        assert_eq!(percentile(&mut v, 100.0), 100);
        let mut odd = vec![30, 10, 20];
        assert_eq!(percentile(&mut odd, 50.0), 20);
        assert_eq!(percentile(&mut odd, 90.0), 30);
        assert_eq!(percentile(&mut [], 50.0), 0);
        assert_eq!(percentile(&mut [7], 1.0), 7);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2, 10, 5], n=4) == [1.5, 3.0, 7.5]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0, 10.0, 5.0]), [1.5, 3.0, 7.5]);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
