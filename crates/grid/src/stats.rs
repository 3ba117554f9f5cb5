//! Scalar summary statistics over slices of values.

/// Summary statistics of a slice of `f64` values.
///
/// All quantities are computed in a single pass (plus one for the variance)
/// and ignore nothing: NaN values propagate into `mean`/`variance` and
/// saturate `min`/`max` comparisons, so callers are expected to feed finite
/// data (the generators and the hydro solver only produce finite values).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of values.
    pub count: usize,
    /// Minimum value.
    pub min: f64,
    /// Maximum value.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population variance (divides by `count`).
    pub variance: f64,
}

impl Summary {
    /// Compute the summary of `values`.
    ///
    /// # Panics
    /// Panics if `values` is empty.
    pub fn of(values: &[f64]) -> Summary {
        assert!(!values.is_empty(), "cannot summarize an empty slice");
        Summary::of_iter(values.iter().copied())
    }

    /// Compute the summary of a re-iterable value sequence (two passes).
    ///
    /// This is the one accumulation kernel behind both [`Summary::of`] and
    /// `FieldView::summary`, so owned fields and strided views that visit
    /// the same values in the same order produce bit-identical summaries.
    ///
    /// # Panics
    /// Panics if the sequence is empty.
    pub fn of_iter<I>(values: I) -> Summary
    where
        I: Iterator<Item = f64> + Clone,
    {
        let mut count = 0usize;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut sum = 0.0;
        for v in values.clone() {
            min = min.min(v);
            max = max.max(v);
            sum += v;
            count += 1;
        }
        assert!(count > 0, "cannot summarize an empty sequence");
        let mean = sum / count as f64;
        let mut ssq = 0.0;
        for v in values {
            let d = v - mean;
            ssq += d * d;
        }
        Summary { count, min, max, mean, variance: ssq / count as f64 }
    }

    /// Value range `max - min`.
    pub fn range(&self) -> f64 {
        self.max - self.min
    }
}

/// Maximum absolute difference and mean squared error between two paired
/// value sequences, in one pass. The single accumulation kernel behind
/// `Field2D::max_abs_diff` and `Metrics::compare_view`, so owned and
/// view-based comparisons are bit-identical.
pub fn error_pair_metrics<I>(pairs: I) -> (f64, f64)
where
    I: Iterator<Item = (f64, f64)>,
{
    let mut max_abs = 0.0f64;
    let mut sq_sum = 0.0f64;
    let mut count = 0usize;
    for (a, b) in pairs {
        let d = a - b;
        max_abs = max_abs.max(d.abs());
        sq_sum += d * d;
        count += 1;
    }
    let mse = if count == 0 { 0.0 } else { sq_sum / count as f64 };
    (max_abs, mse)
}

/// Arithmetic mean of a slice. Returns 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Population standard deviation of a slice. Returns 0 for fewer than two
/// values.
pub fn std_dev(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let m = mean(values);
    let ssq: f64 = values.iter().map(|&v| (v - m) * (v - m)).sum();
    (ssq / values.len() as f64).sqrt()
}

/// Median of a slice (average of the two middle values for even lengths).
/// Returns 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("median requires comparable (non-NaN) values"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Pearson linear correlation coefficient between two equally long slices.
/// Returns 0 when either slice has zero variance or fewer than two points.
pub fn pearson(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "pearson requires equally long slices");
    if x.len() < 2 {
        return 0.0;
    }
    let mx = mean(x);
    let my = mean(y);
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (&a, &b) in x.iter().zip(y.iter()) {
        let da = a - mx;
        let db = b - my;
        sxy += da * db;
        sxx += da * da;
        syy += db * db;
    }
    if sxx <= 0.0 || syy <= 0.0 {
        return 0.0;
    }
    sxy / (sxx.sqrt() * syy.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basic() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.count, 4);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert!((s.variance - 1.25).abs() < 1e-12);
        assert_eq!(s.range(), 3.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn summary_empty_panics() {
        let _ = Summary::of(&[]);
    }

    #[test]
    fn of_iter_matches_of_bitwise() {
        let values = [1.5, -2.25, 7.125, 0.0, 3.5];
        let a = Summary::of(&values);
        let b = Summary::of_iter(values.iter().copied());
        assert_eq!(a.mean.to_bits(), b.mean.to_bits());
        assert_eq!(a.variance.to_bits(), b.variance.to_bits());
        assert_eq!((a.min, a.max, a.count), (b.min, b.max, b.count));
    }

    #[test]
    fn error_pair_metrics_basics() {
        let (max_abs, mse) = error_pair_metrics([(1.0, 1.5), (2.0, 2.0)].into_iter());
        assert!((max_abs - 0.5).abs() < 1e-12);
        assert!((mse - 0.125).abs() < 1e-12);
        assert_eq!(error_pair_metrics(std::iter::empty()), (0.0, 0.0));
    }

    #[test]
    fn mean_and_std_edge_cases() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(std_dev(&[]), 0.0);
        assert_eq!(std_dev(&[5.0]), 0.0);
        assert!((std_dev(&[1.0, 3.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn pearson_perfect_and_anti() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&x, &y) - 1.0).abs() < 1e-12);
        let z = [8.0, 6.0, 4.0, 2.0];
        assert!((pearson(&x, &z) + 1.0).abs() < 1e-12);
        // Zero variance input.
        assert_eq!(pearson(&x, &[1.0; 4]), 0.0);
        assert_eq!(pearson(&[1.0], &[2.0]), 0.0);
    }
}
