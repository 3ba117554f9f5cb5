//! Scalar summary statistics over slices of values.
//!
//! There is one accumulation kernel for [`Summary`]: it walks equal-shape
//! [`FieldView`]s together, cell by cell, each view in its own row-major
//! order through its own accumulators. A view's summary therefore does not
//! depend on which views ran beside it, and [`Summary::of`] and
//! `FieldView::summary` are its one-view case — but neighbouring views put
//! several independent add chains in flight where one view alone waits on
//! its sum. [`Summary::side_by_side`] takes up to [`SIDE_BY_SIDE`] views and
//! runs them four at a time.

use crate::FieldView;

/// Most views [`Summary::side_by_side`] takes in one call.
pub const SIDE_BY_SIDE: usize = 8;

/// Views the kernel advances together: with eight, its accumulators no
/// longer fit the registers (eight 64 × 64 views read 0.117 ms a 512² field
/// on a 2-vCPU AVX2 box, two fours 0.099 ms, one at a time 0.25 ms).
const LANES: usize = 4;

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
    /// Placeholder for the slots of [`Summary::side_by_side`]'s buffer that
    /// no view fills; never returned.
    const UNSET: Summary =
        Summary { count: 0, min: f64::NAN, max: f64::NAN, mean: f64::NAN, variance: f64::NAN };

    /// Compute the summary of `values`: the summary of the `1 × n` view of
    /// them.
    ///
    /// # Panics
    /// Panics if `values` is empty.
    pub fn of(values: &[f64]) -> Summary {
        assert!(!values.is_empty(), "cannot summarize an empty slice");
        FieldView::new(values, 1, values.len(), values.len())
            .expect("a non-empty slice is a one-row view")
            .summary()
    }

    /// The summaries of up to [`SIDE_BY_SIDE`] equal-shape views, in order,
    /// accumulated four at a time — each bit-identical to that view's
    /// own `FieldView::summary`, whatever views ran beside it.
    ///
    /// # Panics
    /// Panics if `views` is empty, holds more than [`SIDE_BY_SIDE`] views,
    /// or holds views of different shapes.
    pub fn side_by_side(views: &[FieldView<'_>]) -> impl ExactSizeIterator<Item = Summary> {
        fn fill<const G: usize>(views: &[FieldView<'_>], out: &mut [Summary]) {
            let views: &[FieldView<'_>; G] = views.try_into().expect("G views");
            out.copy_from_slice(&accumulate(views));
        }
        let n = views.len();
        assert!(
            (1..=SIDE_BY_SIDE).contains(&n),
            "side by side takes 1 to {SIDE_BY_SIDE} views, not {n}"
        );
        let shape = views[0].shape();
        assert!(views.iter().all(|v| v.shape() == shape), "side-by-side views differ in shape");
        let mut out = [Summary::UNSET; SIDE_BY_SIDE];
        for (lanes, out) in views.chunks(LANES).zip(out.chunks_mut(LANES)) {
            let out = &mut out[..lanes.len()];
            match lanes.len() {
                1 => fill::<1>(lanes, out),
                2 => fill::<2>(lanes, out),
                3 => fill::<3>(lanes, out),
                _ => fill::<LANES>(lanes, out),
            }
        }
        out.into_iter().take(n)
    }

    /// Value range `max - min`.
    pub fn range(&self) -> f64 {
        self.max - self.min
    }
}

/// The accumulation kernel: the summaries of `G` views, all of the first
/// one's shape (the callers check it), the views advancing cell by cell
/// together, each in its own row-major order through its own min, max, sum
/// and (second pass) squared-deviation accumulators. A min or max moves only on a strictly smaller or larger
/// value, so a NaN never enters it and the first of `±0.0` stays — what
/// `f64::min` / `f64::max` computed here before on x86-64, in one `minpd` /
/// `maxpd` instead of a NaN-checked sequence. Kept out of line: inlined into
/// [`Summary::side_by_side`]'s loop over its lanes, the 64 64 × 64 tiles of
/// a 512² field took 0.129 ms where they take 0.111.
#[inline(never)]
pub(crate) fn accumulate<const G: usize>(views: &[FieldView<'_>; G]) -> [Summary; G] {
    let (ny, nx) = views[0].shape();
    let rows = |i: usize| views.map(|v| &v.row(i)[..nx]);
    let mut min = [f64::INFINITY; G];
    let mut max = [f64::NEG_INFINITY; G];
    let mut sum = [0.0; G];
    for i in 0..ny {
        let rows = rows(i);
        for j in 0..nx {
            let cells = rows.map(|row| row[j]);
            for g in 0..G {
                let v = cells[g];
                min[g] = if v < min[g] { v } else { min[g] };
                max[g] = if v > max[g] { v } else { max[g] };
                sum[g] += v;
            }
        }
    }
    let count = ny * nx;
    let mean = sum.map(|s| s / count as f64);
    let mut ssq = [0.0; G];
    for i in 0..ny {
        let rows = rows(i);
        for j in 0..nx {
            let cells = rows.map(|row| row[j]);
            for g in 0..G {
                let d = cells[g] - mean[g];
                ssq[g] += d * d;
            }
        }
    }
    std::array::from_fn(|g| Summary {
        count,
        min: min[g],
        max: max[g],
        mean: mean[g],
        variance: ssq[g] / count as f64,
    })
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
    fn side_by_side_matches_each_view_bitwise() {
        let values: Vec<f64> =
            (0..7 * 24).map(|k| ((k * 37 % 101) as f64 - 50.0) * 0.125).collect();
        let field = crate::Field2D::from_vec(7, 24, values).unwrap();
        let views: Vec<FieldView<'_>> =
            (0..8).map(|g| field.view().subview(0, 3 * g, 7, 3)).collect();
        for n in 1..=SIDE_BY_SIDE {
            let got: Vec<Summary> = Summary::side_by_side(&views[..n]).collect();
            assert_eq!(got.len(), n);
            for (s, v) in got.iter().zip(&views) {
                let want = Summary::of(&v.to_field().into_vec());
                assert_eq!(s.count, want.count);
                for (a, b) in [(s.min, want.min), (s.max, want.max), (s.mean, want.mean)] {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
                assert_eq!(s.variance.to_bits(), want.variance.to_bits());
            }
        }
    }

    #[test]
    #[should_panic(expected = "differ in shape")]
    fn side_by_side_refuses_mixed_shapes() {
        // The odd view out in the second group of four.
        let field = crate::Field2D::zeros(4, 4);
        let mut views = [field.view().subview(0, 0, 2, 2); 5];
        views[4] = field.view();
        let _ = Summary::side_by_side(&views);
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
