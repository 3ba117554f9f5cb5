//! Dense row-major matrix with the handful of operations the study needs.

use crate::LinalgError;

/// A dense row-major matrix of `f64` values.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Zero matrix of the given shape.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Build from a row-major buffer.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self, LinalgError> {
        if rows == 0 || cols == 0 {
            return Err(LinalgError::DimensionMismatch("zero dimension".into()));
        }
        if data.len() != rows * cols {
            return Err(LinalgError::DimensionMismatch(format!(
                "expected {} elements, got {}",
                rows * cols,
                data.len()
            )));
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Build from nested rows (each inner slice is one row).
    #[cfg(test)]
    pub(crate) fn from_rows(rows: &[Vec<f64>]) -> Result<Self, LinalgError> {
        if rows.is_empty() || rows[0].is_empty() {
            return Err(LinalgError::DimensionMismatch("empty rows".into()));
        }
        let cols = rows[0].len();
        if rows.iter().any(|r| r.len() != cols) {
            return Err(LinalgError::DimensionMismatch("ragged rows".into()));
        }
        let data: Vec<f64> = rows.iter().flat_map(|r| r.iter().copied()).collect();
        Matrix::from_vec(rows.len(), cols, data)
    }

    /// Build by evaluating `f(i, j)`.
    pub fn from_fn<F: FnMut(usize, usize) -> f64>(rows: usize, cols: usize, mut f: F) -> Self {
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
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Flat row-major data.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Element read.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.rows && j < self.cols, "index ({i},{j}) out of bounds");
        self.data[i * self.cols + j]
    }

    /// Element write.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        assert!(i < self.rows && j < self.cols, "index ({i},{j}) out of bounds");
        self.data[i * self.cols + j] = v;
    }

    /// Immutable view of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row {i} out of bounds");
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copy of column `j`.
    pub fn column(&self, j: usize) -> Vec<f64> {
        assert!(j < self.cols, "column {j} out of bounds");
        (0..self.rows).map(|i| self.data[i * self.cols + j]).collect()
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |i, j| self.get(j, i))
    }

    /// Matrix–matrix product `self * other`.
    #[cfg(test)]
    pub(crate) fn matmul(&self, other: &Matrix) -> Result<Matrix, LinalgError> {
        if self.cols != other.rows {
            return Err(LinalgError::DimensionMismatch(format!(
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
    #[cfg(test)]
    pub(crate) fn matvec(&self, v: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if v.len() != self.cols {
            return Err(LinalgError::DimensionMismatch(format!(
                "matrix has {} columns, vector has {} entries",
                self.cols,
                v.len()
            )));
        }
        Ok((0..self.rows)
            .map(|i| self.row(i).iter().zip(v.iter()).map(|(a, b)| a * b).sum())
            .collect())
    }

    /// Frobenius norm.
    #[cfg(test)]
    pub(crate) fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Maximum absolute element difference to another matrix of equal shape.
    pub fn max_abs_diff(&self, other: &Matrix) -> f64 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols), "shape mismatch");
        self.data.iter().zip(other.data.iter()).map(|(a, b)| (a - b).abs()).fold(0.0_f64, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_identity() {
        let m = Matrix::zeros(2, 3);
        assert_eq!((m.rows(), m.cols()), (2, 3));
        let id = Matrix::identity(3);
        assert_eq!(id.get(1, 1), 1.0);
        assert_eq!(id.get(0, 1), 0.0);
    }

    #[test]
    fn from_vec_and_rows_validation() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
        assert!(Matrix::from_vec(2, 2, vec![1.0; 3]).is_err());
        assert!(Matrix::from_vec(0, 2, vec![]).is_err());
        assert!(Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0]]).is_err());
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(m.get(1, 0), 3.0);
    }

    #[test]
    fn transpose_and_column() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        let t = m.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.get(2, 1), 6.0);
        assert_eq!(m.column(1), vec![2.0, 5.0]);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
        assert!(a.matmul(&Matrix::zeros(3, 3)).is_err());
    }

    #[test]
    fn identity_is_matmul_neutral() {
        let a = Matrix::from_fn(3, 3, |i, j| (i * 3 + j) as f64);
        let id = Matrix::identity(3);
        assert_eq!(a.matmul(&id).unwrap(), a);
        assert_eq!(id.matmul(&a).unwrap(), a);
    }

    #[test]
    fn matvec_and_norm() {
        let a = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 2.0]]).unwrap();
        assert_eq!(a.matvec(&[3.0, 4.0]).unwrap(), vec![3.0, 8.0]);
        assert!(a.matvec(&[1.0]).is_err());
        assert!((a.frobenius_norm() - 5.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn max_abs_diff_detects_perturbation() {
        let a = Matrix::identity(2);
        let mut b = a.clone();
        b.set(0, 1, 0.125);
        assert_eq!(a.max_abs_diff(&b), 0.125);
    }
}
