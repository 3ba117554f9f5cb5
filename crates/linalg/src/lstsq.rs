//! Linear least squares via Householder QR, with a normal-equations fallback.

use crate::{LinalgError, Matrix};

/// Solve the linear least-squares problem `min ||A x - b||₂` for a tall or
/// square matrix `A` (rows ≥ cols) using Householder QR.
///
/// Returns the coefficient vector of length `A.cols()`.
pub fn lstsq(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
    let m = a.rows();
    let n = a.cols();
    if b.len() != m {
        return Err(LinalgError::DimensionMismatch(format!(
            "matrix has {m} rows but rhs has {} entries",
            b.len()
        )));
    }
    if m < n {
        return Err(LinalgError::DimensionMismatch(format!(
            "under-determined system: {m} rows < {n} cols"
        )));
    }

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
            return Err(LinalgError::Singular);
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
            return Err(LinalgError::Singular);
        }
        x[k] = acc / diag;
    }
    Ok(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Solve `min ||A x - b||₂` through the normal equations `AᵀA x = Aᵀ b` with
    /// Gaussian elimination and partial pivoting. Less accurate than [`lstsq`]
    /// for ill-conditioned systems but cheaper for very small `n`; used by the
    /// SZ block-regression predictor where `n == 3`.
    fn solve_normal_equations(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let m = a.rows();
        let n = a.cols();
        if b.len() != m {
            return Err(LinalgError::DimensionMismatch("rhs length".into()));
        }
        // Form AtA (n×n) and Atb (n).
        let mut ata = vec![0.0; n * n];
        let mut atb = vec![0.0; n];
        for (i, &rhs) in b.iter().enumerate() {
            let row = a.row(i);
            for p in 0..n {
                atb[p] += row[p] * rhs;
                for q in p..n {
                    ata[p * n + q] += row[p] * row[q];
                }
            }
        }
        for p in 0..n {
            for q in 0..p {
                ata[p * n + q] = ata[q * n + p];
            }
        }
        solve_dense(&mut ata, &mut atb, n)?;
        Ok(atb)
    }

    /// In-place Gaussian elimination with partial pivoting; the solution replaces
    /// `rhs`.
    fn solve_dense(a: &mut [f64], rhs: &mut [f64], n: usize) -> Result<(), LinalgError> {
        for k in 0..n {
            // Pivot.
            let mut piv = k;
            let mut best = a[k * n + k].abs();
            for i in k + 1..n {
                let v = a[i * n + k].abs();
                if v > best {
                    best = v;
                    piv = i;
                }
            }
            if best < 1e-300 {
                return Err(LinalgError::Singular);
            }
            if piv != k {
                for j in 0..n {
                    a.swap(k * n + j, piv * n + j);
                }
                rhs.swap(k, piv);
            }
            // Eliminate below.
            for i in k + 1..n {
                let factor = a[i * n + k] / a[k * n + k];
                if factor == 0.0 {
                    continue;
                }
                for j in k..n {
                    a[i * n + j] -= factor * a[k * n + j];
                }
                rhs[i] -= factor * rhs[k];
            }
        }
        // Back substitution.
        for k in (0..n).rev() {
            let mut acc = rhs[k];
            for j in k + 1..n {
                acc -= a[k * n + j] * rhs[j];
            }
            rhs[k] = acc / a[k * n + k];
        }
        Ok(())
    }

    fn design(xs: &[f64], degree: usize) -> Matrix {
        Matrix::from_fn(xs.len(), degree + 1, |i, j| xs[i].powi(j as i32))
    }

    #[test]
    fn exact_square_system() {
        // 2x + y = 5 ; x - y = 1  =>  x = 2, y = 1
        let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, -1.0]]).unwrap();
        let x = lstsq(&a, &[5.0, 1.0]).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-10);
        assert!((x[1] - 1.0).abs() < 1e-10);
    }

    #[test]
    fn overdetermined_recovers_line() {
        // y = 3 + 2x sampled without noise: least squares must be exact.
        let xs: Vec<f64> = (0..20).map(|i| i as f64 * 0.5).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 + 2.0 * x).collect();
        let a = design(&xs, 1);
        let c = lstsq(&a, &ys).unwrap();
        assert!((c[0] - 3.0).abs() < 1e-9);
        assert!((c[1] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn qr_and_normal_equations_agree() {
        let xs: Vec<f64> = (0..30).map(|i| i as f64 * 0.3 - 4.0).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 1.0 - 0.5 * x + 0.25 * x * x).collect();
        let a = design(&xs, 2);
        let c1 = lstsq(&a, &ys).unwrap();
        let c2 = solve_normal_equations(&a, &ys).unwrap();
        for (p, q) in c1.iter().zip(c2.iter()) {
            assert!((p - q).abs() < 1e-7, "{c1:?} vs {c2:?}");
        }
    }

    #[test]
    fn residual_is_orthogonal_to_columns() {
        // Least-squares optimality: Aᵀ (A x - b) == 0.
        let a =
            Matrix::from_rows(&[vec![1.0, 2.0], vec![1.0, -1.0], vec![1.0, 0.5], vec![1.0, 3.0]])
                .unwrap();
        let b = [1.0, 2.0, 0.0, -1.0];
        let x = lstsq(&a, &b).unwrap();
        let ax = a.matvec(&x).unwrap();
        let resid: Vec<f64> = ax.iter().zip(b.iter()).map(|(p, q)| p - q).collect();
        let at = a.transpose();
        let g = at.matvec(&resid).unwrap();
        for v in g {
            assert!(v.abs() < 1e-9);
        }
    }

    #[test]
    fn singular_matrix_is_reported() {
        let a = Matrix::from_rows(&[vec![1.0, 1.0], vec![1.0, 1.0], vec![1.0, 1.0]]).unwrap();
        assert!(matches!(lstsq(&a, &[1.0, 2.0, 3.0]), Err(LinalgError::Singular)));
        assert!(matches!(solve_normal_equations(&a, &[1.0, 2.0, 3.0]), Err(LinalgError::Singular)));
    }

    #[test]
    fn dimension_errors() {
        let a = Matrix::zeros(3, 2);
        assert!(lstsq(&a, &[1.0, 2.0]).is_err());
        let wide = Matrix::zeros(2, 3);
        assert!(lstsq(&wide, &[1.0, 2.0]).is_err());
        assert!(solve_normal_equations(&a, &[1.0]).is_err());
    }
}
