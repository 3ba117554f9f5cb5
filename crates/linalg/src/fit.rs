//! Curve fitting: Gauss–Newton nonlinear least squares. `gauss_newton` fits
//! the parametric squared-exponential variogram model to the empirical
//! variogram.

use crate::LinalgError;

/// Maximum number of Gauss–Newton iterations.
const MAX_ITERATIONS: usize = 100;
/// Convergence threshold on the parameter update norm.
const TOLERANCE: f64 = 1e-10;
/// Initial Levenberg–Marquardt style damping added to the normal matrix
/// diagonal; adapts up and down as steps are rejected/accepted.
const DAMPING: f64 = 1e-6;

/// Damped Gauss–Newton (Levenberg–Marquardt) minimization of
/// `sum_i (model(x_i, params) - y_i)²` over `P` parameters.
///
/// `model` evaluates the model at one sample; `jacobian` returns the partial
/// derivatives of the model with respect to each parameter at one sample.
/// Returns the fitted parameters. The parameter count is a constant so the
/// normal equations live on the stack: a fit allocates nothing (the study
/// runs 257 of them per field).
pub fn gauss_newton<const P: usize, M, J>(
    x: &[f64],
    y: &[f64],
    initial: &[f64; P],
    model: M,
    jacobian: J,
) -> Result<[f64; P], LinalgError>
where
    M: Fn(f64, &[f64; P]) -> f64,
    J: Fn(f64, &[f64; P]) -> [f64; P],
{
    if x.len() != y.len() {
        return Err(LinalgError::DimensionMismatch("x and y lengths differ".into()));
    }
    if x.len() < P {
        return Err(LinalgError::DimensionMismatch("fewer samples than parameters".into()));
    }
    let mut params = *initial;
    let mut lambda = DAMPING;

    let sse = |p: &[f64; P]| -> f64 {
        x.iter().zip(y.iter()).map(|(&xi, &yi)| (model(xi, p) - yi).powi(2)).sum()
    };
    let mut current_sse = sse(&params);

    for _ in 0..MAX_ITERATIONS {
        // Build JᵀJ and Jᵀr for the current parameters.
        let mut jtj = [[0.0; P]; P];
        let mut jtr = [0.0; P];
        for (&xi, &yi) in x.iter().zip(y.iter()) {
            let r = yi - model(xi, &params);
            let grad = jacobian(xi, &params);
            for p in 0..P {
                jtr[p] += grad[p] * r;
                for q in 0..P {
                    jtj[p][q] += grad[p] * grad[q];
                }
            }
        }

        // Solve the damped system (JᵀJ + λ diag(JᵀJ)) δ = Jᵀ r.
        let mut step = None;
        for _attempt in 0..8 {
            let mut a = jtj;
            for (p, row) in a.iter_mut().enumerate() {
                row[p] += lambda * row[p].max(1e-12);
            }
            let mut rhs = jtr;
            if solve_inplace(&mut a, &mut rhs).is_err() {
                lambda *= 10.0;
                continue;
            }
            let mut candidate = params;
            for (c, d) in candidate.iter_mut().zip(&rhs) {
                *c += d;
            }
            let new_sse = sse(&candidate);
            if new_sse.is_finite() && new_sse <= current_sse {
                step = Some((candidate, rhs, new_sse));
                lambda = (lambda * 0.3).max(1e-14);
                break;
            }
            lambda *= 10.0;
        }

        let Some((candidate, delta, new_sse)) = step else {
            // Could not find a descent step; treat current params as converged.
            return Ok(params);
        };
        let delta_norm: f64 = delta.iter().map(|d| d * d).sum::<f64>().sqrt();
        params = candidate;
        current_sse = new_sse;
        if delta_norm < TOLERANCE {
            return Ok(params);
        }
    }
    Ok(params)
}

/// Gaussian elimination with partial pivoting; the solution replaces `rhs`.
fn solve_inplace<const N: usize>(
    a: &mut [[f64; N]; N],
    rhs: &mut [f64; N],
) -> Result<(), LinalgError> {
    for k in 0..N {
        let mut piv = k;
        let mut best = a[k][k].abs();
        for (i, row) in a.iter().enumerate().skip(k + 1) {
            if row[k].abs() > best {
                best = row[k].abs();
                piv = i;
            }
        }
        if best < 1e-300 {
            return Err(LinalgError::Singular);
        }
        if piv != k {
            a.swap(k, piv);
            rhs.swap(k, piv);
        }
        let pivot_row = a[k];
        for i in k + 1..N {
            let f = a[i][k] / pivot_row[k];
            if f == 0.0 {
                continue;
            }
            for (x, p) in a[i][k..].iter_mut().zip(&pivot_row[k..]) {
                *x -= f * p;
            }
            rhs[i] -= f * rhs[k];
        }
    }
    for k in (0..N).rev() {
        let mut acc = rhs[k];
        for j in k + 1..N {
            acc -= a[k][j] * rhs[j];
        }
        rhs[k] = acc / a[k][k];
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gauss_newton_fits_exponential_decay() {
        // y = A exp(-x / tau) with A = 2, tau = 3.
        let xs: Vec<f64> = (0..40).map(|i| i as f64 * 0.25).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 2.0 * (-x / 3.0).exp()).collect();
        let model = |x: f64, p: &[f64; 2]| p[0] * (-x / p[1]).exp();
        let jac = |x: f64, p: &[f64; 2]| {
            let e = (-x / p[1]).exp();
            [e, p[0] * e * x / (p[1] * p[1])]
        };
        let fitted = gauss_newton(&xs, &ys, &[1.0, 1.0], model, jac).unwrap();
        assert!((fitted[0] - 2.0).abs() < 1e-6, "{fitted:?}");
        assert!((fitted[1] - 3.0).abs() < 1e-6, "{fitted:?}");
    }

    #[test]
    fn gauss_newton_fits_squared_exponential_variogram_shape() {
        // gamma(h) = c0 (1 - exp(-(h/a)^2)) with c0 = 1.2, a = 14.
        let hs: Vec<f64> = (1..60).map(|i| i as f64).collect();
        let ys: Vec<f64> = hs.iter().map(|h| 1.2 * (1.0 - (-(h / 14.0).powi(2)).exp())).collect();
        let model = |h: f64, p: &[f64; 2]| p[0] * (1.0 - (-(h / p[1]).powi(2)).exp());
        let jac = |h: f64, p: &[f64; 2]| {
            let e = (-(h / p[1]).powi(2)).exp();
            [1.0 - e, -p[0] * e * 2.0 * h * h / (p[1] * p[1] * p[1])]
        };
        let fitted = gauss_newton(&hs, &ys, &[0.5, 5.0], model, jac).unwrap();
        assert!((fitted[0] - 1.2).abs() < 1e-5, "{fitted:?}");
        assert!((fitted[1] - 14.0).abs() < 1e-4, "{fitted:?}");
    }

    #[test]
    fn gauss_newton_with_noise_stays_close() {
        let xs: Vec<f64> = (0..200).map(|i| i as f64 * 0.1).collect();
        // Deterministic pseudo-noise so the test is reproducible.
        let ys: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, x)| 5.0 * (-x / 2.0).exp() + 0.01 * ((i * 2654435761) % 1000) as f64 / 1000.0)
            .collect();
        let model = |x: f64, p: &[f64; 2]| p[0] * (-x / p[1]).exp();
        let jac = |x: f64, p: &[f64; 2]| {
            let e = (-x / p[1]).exp();
            [e, p[0] * e * x / (p[1] * p[1])]
        };
        let fitted = gauss_newton(&xs, &ys, &[1.0, 1.0], model, jac).unwrap();
        assert!((fitted[0] - 5.0).abs() < 0.05);
        assert!((fitted[1] - 2.0).abs() < 0.05);
    }

    #[test]
    fn gauss_newton_validates_inputs() {
        let model = |_x: f64, p: &[f64; 1]| p[0];
        let jac = |_x: f64, _p: &[f64; 1]| [1.0];
        assert!(gauss_newton(&[1.0], &[1.0, 2.0], &[0.0], model, jac).is_err());
        assert!(gauss_newton(&[] as &[f64], &[], &[0.0], model, jac).is_err());
    }
}
