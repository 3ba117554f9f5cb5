//! Logarithmic regression `y = α + β·log(x) + ε`.
//!
//! Every panel of the paper's Figures 3–7 reports the coefficients of a
//! least-squares logarithmic regression of the compression ratio on the
//! correlation statistic; this module provides that fit plus the usual
//! goodness-of-fit summaries, over a small dense matrix and a linear
//! least-squares solve by Householder QR.

use crate::GeostatError;
use lcc_grid::stats;

/// Result of the logarithmic regression `y = α + β·ln(x)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogRegression {
    /// Intercept α.
    pub alpha: f64,
    /// Slope β multiplying `ln(x)`.
    pub beta: f64,
    /// Coefficient of determination R².
    pub r_squared: f64,
    /// Number of (x, y) points used (points with non-positive or non-finite
    /// x are dropped).
    pub n_points: usize,
}

impl LogRegression {
    /// Evaluate the fitted curve at `x`.
    pub fn predict(&self, x: f64) -> f64 {
        self.alpha + self.beta * x.ln()
    }
}

impl std::fmt::Display for LogRegression {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "alpha={:.3} beta={:.3} (R2={:.3}, n={})",
            self.alpha, self.beta, self.r_squared, self.n_points
        )
    }
}

/// Fit `y = α + β·ln(x)` by least squares.
///
/// Points with `x ≤ 0`, non-finite `x`, or non-finite `y` are dropped (they
/// correspond to degenerate statistic estimates). At least three valid
/// points are required.
pub fn log_regression(x: &[f64], y: &[f64]) -> Result<LogRegression, GeostatError> {
    if x.len() != y.len() {
        return Err(GeostatError::DegenerateInput("x and y lengths differ".into()));
    }
    let pairs: Vec<(f64, f64)> = x
        .iter()
        .zip(y.iter())
        .filter(|(&xi, &yi)| xi.is_finite() && xi > 0.0 && yi.is_finite())
        .map(|(&xi, &yi)| (xi.ln(), yi))
        .collect();
    if pairs.len() < 3 {
        return Err(GeostatError::DegenerateInput(format!(
            "need at least 3 valid points, got {}",
            pairs.len()
        )));
    }

    let design = Matrix::from_fn(pairs.len(), 2, |i, j| if j == 0 { 1.0 } else { pairs[i].0 });
    let rhs: Vec<f64> = pairs.iter().map(|&(_, yi)| yi).collect();
    let coeffs = lstsq(&design, &rhs)?;

    // R² against the mean-only model.
    let mean_y = stats::mean(&rhs);
    let ss_tot: f64 = rhs.iter().map(|&v| (v - mean_y) * (v - mean_y)).sum();
    let ss_res: f64 = pairs
        .iter()
        .map(|&(lx, yi)| {
            let pred = coeffs[0] + coeffs[1] * lx;
            (yi - pred) * (yi - pred)
        })
        .sum();
    let r_squared = if ss_tot > 0.0 { 1.0 - ss_res / ss_tot } else { 1.0 };

    Ok(LogRegression { alpha: coeffs[0], beta: coeffs[1], r_squared, n_points: pairs.len() })
}

/// A dense row-major matrix of `f64` values.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Zero matrix of the given shape.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub(crate) fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Build by evaluating `f(i, j)`.
    pub(crate) fn from_fn<F: FnMut(usize, usize) -> f64>(
        rows: usize,
        cols: usize,
        mut f: F,
    ) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m.data[i * cols + j] = f(i, j);
            }
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub(crate) fn cols(&self) -> usize {
        self.cols
    }

    /// Flat row-major data.
    #[inline]
    pub(crate) fn as_slice(&self) -> &[f64] {
        &self.data
    }
}

/// The matrix operations only the tests and the Jacobi SVD oracle use.
#[cfg(test)]
impl Matrix {
    /// Identity matrix of size `n`.
    pub(crate) fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Build from a row-major buffer.
    pub(crate) fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self, GeostatError> {
        if rows == 0 || cols == 0 {
            return Err(GeostatError::DegenerateInput("zero dimension".into()));
        }
        if data.len() != rows * cols {
            return Err(GeostatError::DegenerateInput(format!(
                "expected {} elements, got {}",
                rows * cols,
                data.len()
            )));
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Build from nested rows (each inner slice is one row).
    pub(crate) fn from_rows(rows: &[Vec<f64>]) -> Result<Self, GeostatError> {
        if rows.is_empty() || rows[0].is_empty() {
            return Err(GeostatError::DegenerateInput("empty rows".into()));
        }
        let cols = rows[0].len();
        if rows.iter().any(|r| r.len() != cols) {
            return Err(GeostatError::DegenerateInput("ragged rows".into()));
        }
        let data: Vec<f64> = rows.iter().flat_map(|r| r.iter().copied()).collect();
        Matrix::from_vec(rows.len(), cols, data)
    }

    /// Element read.
    pub(crate) fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.rows && j < self.cols, "index ({i},{j}) out of bounds");
        self.data[i * self.cols + j]
    }

    /// Element write.
    pub(crate) fn set(&mut self, i: usize, j: usize, v: f64) {
        assert!(i < self.rows && j < self.cols, "index ({i},{j}) out of bounds");
        self.data[i * self.cols + j] = v;
    }

    /// Immutable view of row `i`.
    pub(crate) fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row {i} out of bounds");
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copy of column `j`.
    pub(crate) fn column(&self, j: usize) -> Vec<f64> {
        assert!(j < self.cols, "column {j} out of bounds");
        (0..self.rows).map(|i| self.data[i * self.cols + j]).collect()
    }

    /// Matrix transpose.
    pub(crate) fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |i, j| self.get(j, i))
    }

    /// Matrix–matrix product `self * other`.
    pub(crate) fn matmul(&self, other: &Matrix) -> Result<Matrix, GeostatError> {
        if self.cols != other.rows {
            return Err(GeostatError::DegenerateInput(format!(
                "{}x{} * {}x{}",
                self.rows, self.cols, other.rows, other.cols
            )));
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.data[i * self.cols + k];
                if a == 0.0 {
                    continue;
                }
                for j in 0..other.cols {
                    out.data[i * other.cols + j] += a * other.data[k * other.cols + j];
                }
            }
        }
        Ok(out)
    }

    /// Matrix–vector product `self * v`.
    pub(crate) fn matvec(&self, v: &[f64]) -> Result<Vec<f64>, GeostatError> {
        if v.len() != self.cols {
            return Err(GeostatError::DegenerateInput(format!(
                "matrix has {} columns, vector has {} entries",
                self.cols,
                v.len()
            )));
        }
        Ok((0..self.rows)
            .map(|i| self.row(i).iter().zip(v.iter()).map(|(a, b)| a * b).sum())
            .collect())
    }

    /// Maximum absolute element difference to another matrix of equal shape.
    pub(crate) fn max_abs_diff(&self, other: &Matrix) -> f64 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols), "shape mismatch");
        self.data.iter().zip(other.data.iter()).map(|(a, b)| (a - b).abs()).fold(0.0_f64, f64::max)
    }
}

/// Solve the linear least-squares problem `min ||A x - b||₂` for a tall or
/// square matrix `A` (rows ≥ cols) by Householder QR.
///
/// Returns the coefficient vector of length `A.cols()`; a shape mismatch is
/// [`GeostatError::DegenerateInput`], a singular or ill-conditioned `A`
/// [`GeostatError::FitFailed`].
fn lstsq(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, GeostatError> {
    let m = a.rows();
    let n = a.cols();
    if b.len() != m {
        return Err(GeostatError::DegenerateInput(format!(
            "matrix has {m} rows but rhs has {} entries",
            b.len()
        )));
    }
    if m < n {
        return Err(GeostatError::DegenerateInput(format!(
            "under-determined system: {m} rows < {n} cols"
        )));
    }
    let singular = || GeostatError::FitFailed("matrix is singular or ill-conditioned".into());

    // Working copies: R starts as A, y starts as b; Householder reflectors are
    // applied to both simultaneously.
    let mut r: Vec<f64> = a.as_slice().to_vec();
    let mut y: Vec<f64> = b.to_vec();

    for k in 0..n {
        // Build the Householder reflector for column k below the diagonal.
        let mut norm = 0.0;
        for i in k..m {
            norm += r[i * n + k] * r[i * n + k];
        }
        let norm = norm.sqrt();
        if norm == 0.0 {
            return Err(singular());
        }
        let alpha = if r[k * n + k] > 0.0 { -norm } else { norm };
        let mut v = vec![0.0; m - k];
        v[0] = r[k * n + k] - alpha;
        for i in k + 1..m {
            v[i - k] = r[i * n + k];
        }
        let vnorm_sq: f64 = v.iter().map(|x| x * x).sum();
        if vnorm_sq == 0.0 {
            // Column already in triangular form.
            continue;
        }

        // Apply the reflector H = I - 2 v vᵀ / (vᵀ v) to R (columns k..n).
        for j in k..n {
            let mut dot = 0.0;
            for i in k..m {
                dot += v[i - k] * r[i * n + j];
            }
            let scale = 2.0 * dot / vnorm_sq;
            for i in k..m {
                r[i * n + j] -= scale * v[i - k];
            }
        }
        // And to the right-hand side.
        let mut dot = 0.0;
        for i in k..m {
            dot += v[i - k] * y[i];
        }
        let scale = 2.0 * dot / vnorm_sq;
        for i in k..m {
            y[i] -= scale * v[i - k];
        }
    }

    // Back substitution on the upper-triangular R (top n×n block).
    let mut x = vec![0.0; n];
    for k in (0..n).rev() {
        let mut acc = y[k];
        for j in k + 1..n {
            acc -= r[k * n + j] * x[j];
        }
        let diag = r[k * n + k];
        if diag.abs() < 1e-300 {
            return Err(singular());
        }
        x[k] = acc / diag;
    }
    Ok(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn design(xs: &[f64], degree: usize) -> Matrix {
        Matrix::from_fn(xs.len(), degree + 1, |i, j| xs[i].powi(j as i32))
    }

    #[test]
    fn lstsq_solves_an_exact_square_system() {
        // 2x + y = 5 ; x - y = 1  =>  x = 2, y = 1
        let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, -1.0]]).unwrap();
        let x = lstsq(&a, &[5.0, 1.0]).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-10);
        assert!((x[1] - 1.0).abs() < 1e-10);
    }

    #[test]
    fn lstsq_recovers_an_exact_polynomial() {
        // Sampled without noise: least squares must be exact.
        let xs: Vec<f64> = (0..30).map(|i| i as f64 * 0.3 - 4.0).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 1.0 - 0.5 * x + 0.25 * x * x).collect();
        let c = lstsq(&design(&xs, 2), &ys).unwrap();
        for (got, want) in c.iter().zip([1.0, -0.5, 0.25]) {
            assert!((got - want).abs() < 1e-9, "{c:?}");
        }
    }

    #[test]
    fn lstsq_residual_is_orthogonal_to_columns() {
        // Least-squares optimality: Aᵀ (A x - b) == 0.
        let a =
            Matrix::from_rows(&[vec![1.0, 2.0], vec![1.0, -1.0], vec![1.0, 0.5], vec![1.0, 3.0]])
                .unwrap();
        let b = [1.0, 2.0, 0.0, -1.0];
        let x = lstsq(&a, &b).unwrap();
        let ax = a.matvec(&x).unwrap();
        let resid: Vec<f64> = ax.iter().zip(b.iter()).map(|(p, q)| p - q).collect();
        let g = a.transpose().matvec(&resid).unwrap();
        for v in g {
            assert!(v.abs() < 1e-9);
        }
    }

    #[test]
    fn lstsq_reports_singular_and_misshapen_systems() {
        let a = Matrix::from_rows(&[vec![1.0, 1.0], vec![1.0, 1.0], vec![1.0, 1.0]]).unwrap();
        assert!(matches!(lstsq(&a, &[1.0, 2.0, 3.0]), Err(GeostatError::FitFailed(_))));
        let a = Matrix::zeros(3, 2);
        assert!(matches!(lstsq(&a, &[1.0, 2.0]), Err(GeostatError::DegenerateInput(_))));
        let wide = Matrix::zeros(2, 3);
        assert!(matches!(lstsq(&wide, &[1.0, 2.0]), Err(GeostatError::DegenerateInput(_))));
    }

    #[test]
    fn matrix_construction_and_products() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
        assert!(Matrix::from_vec(2, 2, vec![1.0; 3]).is_err());
        assert!(Matrix::from_vec(0, 2, vec![]).is_err());
        assert!(Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0]]).is_err());
        let m = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        assert_eq!((m.rows(), m.cols()), (2, 3));
        let t = m.transpose();
        assert_eq!((t.rows(), t.get(2, 1)), (3, 6.0));
        assert_eq!(m.column(1), vec![2.0, 5.0]);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);

        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]).unwrap();
        assert_eq!(a.matmul(&b).unwrap().as_slice(), &[19.0, 22.0, 43.0, 50.0]);
        assert!(a.matmul(&Matrix::zeros(3, 3)).is_err());
        let id = Matrix::identity(2);
        assert_eq!(a.matmul(&id).unwrap(), a);
        assert_eq!(id.matmul(&a).unwrap(), a);
        assert_eq!(a.matvec(&[1.0, -1.0]).unwrap(), vec![-1.0, -1.0]);
        assert!(a.matvec(&[1.0]).is_err());

        let mut c = id.clone();
        c.set(0, 1, 0.125);
        assert_eq!(id.max_abs_diff(&c), 0.125);
    }

    #[test]
    fn exact_logarithmic_data_is_recovered() {
        let x: Vec<f64> = (1..40).map(|i| i as f64).collect();
        let y: Vec<f64> = x.iter().map(|&v| 2.5 + 3.0 * v.ln()).collect();
        let fit = log_regression(&x, &y).unwrap();
        assert!((fit.alpha - 2.5).abs() < 1e-9);
        assert!((fit.beta - 3.0).abs() < 1e-9);
        assert!((fit.r_squared - 1.0).abs() < 1e-12);
        assert_eq!(fit.n_points, 39);
        assert!((fit.predict(std::f64::consts::E) - 5.5).abs() < 1e-9);
    }

    #[test]
    fn noisy_data_still_yields_reasonable_fit() {
        let x: Vec<f64> = (1..200).map(|i| i as f64 * 0.5).collect();
        let y: Vec<f64> = x
            .iter()
            .enumerate()
            .map(|(i, &v)| 1.0 + 2.0 * v.ln() + 0.05 * (((i * 37) % 11) as f64 - 5.0))
            .collect();
        let fit = log_regression(&x, &y).unwrap();
        assert!((fit.alpha - 1.0).abs() < 0.15);
        assert!((fit.beta - 2.0).abs() < 0.1);
        assert!(fit.r_squared > 0.95);
    }

    #[test]
    fn invalid_points_are_dropped() {
        let x = [0.0, -1.0, f64::NAN, 1.0, 2.0, 4.0, 8.0];
        let y = [9.0, 9.0, 9.0, 1.0, 1.5, 2.0, 2.5];
        let fit = log_regression(&x, &y).unwrap();
        assert_eq!(fit.n_points, 4);
        assert!(fit.beta > 0.0);
    }

    #[test]
    fn too_few_valid_points_is_an_error() {
        assert!(log_regression(&[1.0, 2.0], &[1.0, 2.0]).is_err());
        assert!(log_regression(&[0.0, -1.0, 1.0, 2.0], &[1.0; 4]).is_err());
        assert!(log_regression(&[1.0, 2.0, 3.0], &[1.0, 2.0]).is_err());
    }

    #[test]
    fn constant_y_has_unit_r_squared_and_zero_slope() {
        let x = [1.0, 2.0, 4.0, 8.0];
        let y = [5.0; 4];
        let fit = log_regression(&x, &y).unwrap();
        assert!(fit.beta.abs() < 1e-9);
        assert!((fit.alpha - 5.0).abs() < 1e-9);
        assert!((fit.r_squared - 1.0).abs() < 1e-9);
    }

    #[test]
    fn display_contains_coefficients() {
        let fit = LogRegression { alpha: 1.0, beta: 2.0, r_squared: 0.9, n_points: 10 };
        let s = fit.to_string();
        assert!(s.contains("alpha=1.000"));
        assert!(s.contains("beta=2.000"));
    }
}
