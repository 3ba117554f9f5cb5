//! The one-sided Jacobi SVD: the accuracy oracle the energy-spectrum
//! truncation level ([`crate::svdstat`]) is tested against.
//!
//! It orthogonalizes the columns of `A` by plane rotations; the column norms
//! of the result are the singular values. It is simple, computes every
//! singular value, small ones included, to high *relative* accuracy, and is
//! the only decomposition here that produces vectors. It is also slow
//! (≈ 0.6 ms for a 32×32 window: three dot products per column pair per
//! sweep, `V` accumulated alongside), so nothing that runs per window calls
//! it.

use crate::regression::Matrix;
use crate::svdstat::energy_level;
use crate::GeostatError;

/// Result of a singular value decomposition `A = U Σ Vᵀ`.
#[derive(Debug, Clone)]
pub(crate) struct SvdResult {
    /// Singular values in non-increasing order.
    pub(crate) singular_values: Vec<f64>,
    /// Left singular vectors as columns (rows × min(rows, cols)).
    pub(crate) u: Matrix,
    /// Right singular vectors as columns (cols × min(rows, cols)).
    pub(crate) v: Matrix,
}

/// Compute the full SVD of `a` (rows ≥ cols is handled directly; wide
/// matrices are transposed internally).
pub(crate) fn svd(a: &Matrix) -> Result<SvdResult, GeostatError> {
    if a.rows() < a.cols() {
        // Work on the transpose and swap U / V at the end.
        let t = a.transpose();
        let r = svd_tall(&t)?;
        return Ok(SvdResult { singular_values: r.singular_values, u: r.v, v: r.u });
    }
    svd_tall(a)
}

/// Singular values only, in non-increasing order, each to the Jacobi route's
/// high relative accuracy (this runs the full [`svd`]).
pub(crate) fn singular_values(a: &Matrix) -> Result<Vec<f64>, GeostatError> {
    Ok(svd(a)?.singular_values)
}

fn svd_tall(a: &Matrix) -> Result<SvdResult, GeostatError> {
    let m = a.rows();
    let n = a.cols();
    // Columns of `work` are rotated until mutually orthogonal.
    let mut work: Vec<Vec<f64>> = (0..n).map(|j| a.column(j)).collect();
    // V accumulates the right-side rotations.
    let mut v = Matrix::identity(n);

    let max_sweeps = 60;
    let eps = 1e-15;
    // Columns whose squared norm falls below this threshold are numerically
    // zero (they arise when the matrix is rank-deficient); rotating them
    // against each other only shuffles rounding noise and prevents the
    // off-diagonal measure from converging, so they are skipped.
    let total_sq: f64 = work.iter().flat_map(|c| c.iter()).map(|x| x * x).sum();
    let negligible = total_sq * 1e-28 + f64::MIN_POSITIVE;
    let mut converged = false;
    for _sweep in 0..max_sweeps {
        let mut off = 0.0f64;
        for p in 0..n {
            for q in p + 1..n {
                let alpha: f64 = work[p].iter().map(|x| x * x).sum();
                let beta: f64 = work[q].iter().map(|x| x * x).sum();
                let gamma: f64 = work[p].iter().zip(work[q].iter()).map(|(x, y)| x * y).sum();
                if alpha <= negligible || beta <= negligible {
                    continue;
                }
                off = off.max(gamma.abs() / (alpha.sqrt() * beta.sqrt()));
                if gamma.abs() <= eps * (alpha * beta).sqrt() {
                    continue;
                }
                // Jacobi rotation that zeroes the (p,q) inner product.
                let zeta = (beta - alpha) / (2.0 * gamma);
                let t = zeta.signum() / (zeta.abs() + (1.0 + zeta * zeta).sqrt());
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = c * t;
                let (lo, hi) = work.split_at_mut(q);
                for (wp, wq) in lo[p].iter_mut().zip(hi[0].iter_mut()) {
                    let (xp, xq) = (*wp, *wq);
                    *wp = c * xp - s * xq;
                    *wq = s * xp + c * xq;
                }
                for i in 0..n {
                    let vp = v.get(i, p);
                    let vq = v.get(i, q);
                    v.set(i, p, c * vp - s * vq);
                    v.set(i, q, s * vp + c * vq);
                }
            }
        }
        if off < 1e-13 {
            converged = true;
            break;
        }
    }
    if !converged {
        // The rotations still produced a usable factorization; only extreme
        // inputs get here. Report non-convergence so callers can decide.
        return Err(GeostatError::FitFailed(format!("no convergence after {max_sweeps} sweeps")));
    }

    // Singular values are the column norms; U's columns are the normalized
    // rotated columns.
    let mut sv: Vec<(f64, usize)> = work
        .iter()
        .enumerate()
        .map(|(j, col)| (col.iter().map(|x| x * x).sum::<f64>().sqrt(), j))
        .collect();
    sv.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("singular values are finite"));

    let mut u = Matrix::zeros(m, n);
    let mut vv = Matrix::zeros(n, n);
    let mut values = Vec::with_capacity(n);
    for (slot, &(sigma, j)) in sv.iter().enumerate() {
        values.push(sigma);
        for (i, &w) in work[j].iter().enumerate() {
            let x = if sigma > 0.0 { w / sigma } else { 0.0 };
            u.set(i, slot, x);
        }
        for i in 0..n {
            vv.set(i, slot, v.get(i, j));
        }
    }
    Ok(SvdResult { singular_values: values, u, v: vv })
}

/// Number of leading singular values whose squared sum reaches `fraction` of
/// the total squared sum (the paper's "99 % of the variance" truncation
/// level). Returns 0 for an all-zero matrix.
pub(crate) fn truncation_level(singular_values: &[f64], fraction: f64) -> usize {
    assert!((0.0..=1.0).contains(&fraction), "fraction must be in [0, 1]");
    energy_level(singular_values.iter().map(|s| s * s), fraction)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reconstruct(r: &SvdResult) -> Matrix {
        let k = r.singular_values.len();
        let mut sigma = Matrix::zeros(k, k);
        for (i, &s) in r.singular_values.iter().enumerate() {
            sigma.set(i, i, s);
        }
        r.u.matmul(&sigma).unwrap().matmul(&r.v.transpose()).unwrap()
    }

    #[test]
    fn diagonal_matrix_has_its_entries_as_singular_values() {
        let mut a = Matrix::zeros(3, 3);
        a.set(0, 0, 3.0);
        a.set(1, 1, 1.0);
        a.set(2, 2, 2.0);
        let r = svd(&a).unwrap();
        let sv = r.singular_values;
        assert!((sv[0] - 3.0).abs() < 1e-10);
        assert!((sv[1] - 2.0).abs() < 1e-10);
        assert!((sv[2] - 1.0).abs() < 1e-10);
    }

    #[test]
    fn reconstruction_matches_input() {
        let a = Matrix::from_rows(&[
            vec![1.0, 2.0, 0.5],
            vec![-1.0, 0.25, 3.0],
            vec![0.0, 1.0, -2.0],
            vec![2.0, 2.0, 2.0],
        ])
        .unwrap();
        let r = svd(&a).unwrap();
        let back = reconstruct(&r);
        assert!(a.max_abs_diff(&back) < 1e-9, "diff = {}", a.max_abs_diff(&back));
    }

    #[test]
    fn wide_matrix_is_handled() {
        let a = Matrix::from_rows(&[vec![1.0, 0.0, 2.0, 1.0], vec![0.0, 3.0, 0.0, -1.0]]).unwrap();
        let r = svd(&a).unwrap();
        assert_eq!(r.singular_values.len(), 2);
        // Largest singular value of A equals sqrt of largest eigenvalue of A Aᵀ.
        let aat = a.matmul(&a.transpose()).unwrap();
        let trace = aat.get(0, 0) + aat.get(1, 1);
        let sumsq: f64 = r.singular_values.iter().map(|s| s * s).sum();
        assert!((trace - sumsq).abs() < 1e-9);
    }

    #[test]
    fn singular_values_are_sorted_and_nonnegative() {
        let a = Matrix::from_fn(6, 4, |i, j| ((i * 7 + j * 3) % 5) as f64 - 2.0);
        let sv = singular_values(&a).unwrap();
        assert!(sv.windows(2).all(|w| w[0] >= w[1] - 1e-12));
        assert!(sv.iter().all(|&s| s >= 0.0));
    }

    #[test]
    fn factors_are_orthonormal() {
        let a = Matrix::from_fn(5, 3, |i, j| (i as f64 + 1.0) * (j as f64 - 1.0) + (i * j) as f64);
        let r = svd(&a).unwrap();
        let utu = r.u.transpose().matmul(&r.u).unwrap();
        let vtv = r.v.transpose().matmul(&r.v).unwrap();
        // Columns associated with non-zero singular values are orthonormal;
        // for this full-rank-ish example all should be.
        for i in 0..3 {
            for j in 0..3 {
                let expect = if i == j { 1.0 } else { 0.0 };
                if r.singular_values[i] > 1e-9 && r.singular_values[j] > 1e-9 {
                    assert!((utu.get(i, j) - expect).abs() < 1e-8);
                }
                assert!((vtv.get(i, j) - expect).abs() < 1e-8);
            }
        }
    }

    #[test]
    fn rank_one_matrix_has_single_nonzero_singular_value() {
        let a = Matrix::from_fn(4, 4, |i, j| (i + 1) as f64 * (j + 1) as f64);
        let sv = singular_values(&a).unwrap();
        assert!(sv[0] > 1.0);
        for s in &sv[1..] {
            assert!(*s < 1e-9);
        }
        assert_eq!(truncation_level(&sv, 0.99), 1);
    }

    #[test]
    fn truncation_level_behaviour() {
        assert_eq!(truncation_level(&[0.0, 0.0], 0.99), 0);
        assert_eq!(truncation_level(&[3.0, 0.0], 0.99), 1);
        // Equal energy in 4 modes: 99 % needs all 4.
        assert_eq!(truncation_level(&[1.0, 1.0, 1.0, 1.0], 0.99), 4);
        // 50 % needs 2 of them.
        assert_eq!(truncation_level(&[1.0, 1.0, 1.0, 1.0], 0.5), 2);
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn truncation_level_rejects_bad_fraction() {
        let _ = truncation_level(&[1.0], 1.5);
    }
}
