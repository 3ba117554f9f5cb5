//! The benchmark's own check of a reconstruction: shape, finiteness and
//! the pointwise absolute bound, compared value by value with the
//! original. It does not look at stream bytes or hashes, so a stream that
//! is legitimately different (better) still passes.

use crate::surface::{Field2D, FieldView};

/// What a passing reconstruction measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quality {
    /// Largest pointwise error as a share of the bound (≤ 1 when passing).
    pub max_err_over_bound: f64,
    pub psnr_db: f64,
}

#[derive(Debug, Clone, PartialEq)]
pub enum Failure {
    /// The layer returned an error.
    Error(String),
    Shape {
        expected: (usize, usize),
        actual: (usize, usize),
    },
    NonFinite,
    Bound {
        max_err_over_bound: f64,
    },
}

pub fn check(original: &FieldView<'_>, recon: &Field2D, bound: f64) -> Result<Quality, Failure> {
    if recon.shape() != original.shape() {
        return Err(Failure::Shape { expected: original.shape(), actual: recon.shape() });
    }
    let (mut max_err, mut sq_sum) = (0.0f64, 0.0f64);
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for (row_o, row_r) in original.rows().zip(recon.as_slice().chunks_exact(recon.nx())) {
        for (&o, &r) in row_o.iter().zip(row_r) {
            if !r.is_finite() {
                return Err(Failure::NonFinite);
            }
            let e = (o - r).abs();
            max_err = max_err.max(e);
            sq_sum += e * e;
            lo = lo.min(o);
            hi = hi.max(o);
        }
    }
    let max_err_over_bound = max_err / bound;
    if max_err > bound {
        return Err(Failure::Bound { max_err_over_bound });
    }
    let mse = sq_sum / original.len() as f64;
    let psnr_db = if mse > 0.0 { 20.0 * (hi - lo).log10() - 10.0 * mse.log10() } else { 0.0 };
    Ok(Quality { max_err_over_bound, psnr_db })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp() -> Field2D {
        Field2D::from_fn(4, 5, |i, j| i as f64 + 0.1 * j as f64)
    }

    #[test]
    fn accepts_errors_up_to_the_bound_and_rejects_beyond() {
        let original = ramp();
        let mut recon = original.clone();
        recon.set(2, 3, original.at(2, 3) + 0.5);
        let q = check(&original.view(), &recon, 0.5).unwrap();
        assert_eq!(q.max_err_over_bound, 1.0);
        assert!(q.psnr_db > 0.0);
        assert!(matches!(check(&original.view(), &recon, 0.49), Err(Failure::Bound { .. })));
    }

    #[test]
    fn rejects_wrong_shape_and_non_finite_values() {
        let original = ramp();
        let wrong = Field2D::zeros(5, 4);
        assert!(matches!(check(&original.view(), &wrong, 1.0), Err(Failure::Shape { .. })));
        let mut nan = original.clone();
        nan.set(0, 0, f64::NAN);
        assert_eq!(check(&original.view(), &nan, 1.0), Err(Failure::NonFinite));
    }

    #[test]
    fn checks_a_strided_window_against_its_reconstruction() {
        let original = ramp();
        let window = original.view().subview(1, 2, 2, 3);
        let recon = window.to_field();
        assert_eq!(check(&window, &recon, 1e-9).unwrap().max_err_over_bound, 0.0);
    }
}
