//! Prediction schemes: the 2D Lorenzo predictor and the block hyper-plane
//! (regression) predictor, plus per-block predictor selection.

use lcc_grid::{FieldView, Window};

/// Which predictor a block uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockMode {
    /// First-order Lorenzo predictor from reconstructed neighbours.
    Lorenzo,
    /// Least-squares plane fitted over the block.
    Regression,
}

/// Evaluate the block plane `c0 + c1·di + c2·dj` at local offsets
/// `(di, dj)` within the block.
#[inline]
pub fn plane_predict(coeffs: &[f64; 3], di: usize, dj: usize) -> f64 {
    coeffs[0] + coeffs[1] * di as f64 + coeffs[2] * dj as f64
}

/// Fit the least-squares plane to the original values of one block.
///
/// The 3×3 normal equations have a closed form because the design depends
/// only on the block geometry (offsets `di`, `dj`), mirroring how SZ fits its
/// regression coefficients per block.
pub fn fit_block_plane(field: &FieldView<'_>, win: &Window) -> [f64; 3] {
    let h = win.height as f64;
    let w = win.width as f64;
    let n = h * w;

    // Sums over the regular grid of offsets.
    let s_i = (h - 1.0) * h / 2.0 * w; // Σ di
    let s_j = (w - 1.0) * w / 2.0 * h; // Σ dj
    let s_ii = (h - 1.0) * h * (2.0 * h - 1.0) / 6.0 * w; // Σ di²
    let s_jj = (w - 1.0) * w * (2.0 * w - 1.0) / 6.0 * h; // Σ dj²
    let s_ij = ((h - 1.0) * h / 2.0) * ((w - 1.0) * w / 2.0); // Σ di·dj

    let mut s_v = 0.0;
    let mut s_iv = 0.0;
    let mut s_jv = 0.0;
    for di in 0..win.height {
        let row = field.row(win.i0 + di);
        for dj in 0..win.width {
            let v = row[win.j0 + dj];
            s_v += v;
            s_iv += v * di as f64;
            s_jv += v * dj as f64;
        }
    }

    // Solve the symmetric 3x3 system
    // [ n    s_i   s_j  ] [c0]   [ s_v  ]
    // [ s_i  s_ii  s_ij ] [c1] = [ s_iv ]
    // [ s_j  s_ij  s_jj ] [c2]   [ s_jv ]
    let a = [[n, s_i, s_j], [s_i, s_ii, s_ij], [s_j, s_ij, s_jj]];
    let b = [s_v, s_iv, s_jv];
    solve3(a, b).unwrap_or([s_v / n, 0.0, 0.0])
}

/// Solve a 3×3 linear system with partial pivoting; `None` if singular
/// (degenerate 1×k blocks fall back to the block mean).
fn solve3(mut a: [[f64; 3]; 3], mut b: [f64; 3]) -> Option<[f64; 3]> {
    for k in 0..3 {
        // Pivot.
        let mut piv = k;
        for i in k + 1..3 {
            if a[i][k].abs() > a[piv][k].abs() {
                piv = i;
            }
        }
        if a[piv][k].abs() < 1e-12 {
            return None;
        }
        a.swap(k, piv);
        b.swap(k, piv);
        let pivot_row = a[k];
        for i in k + 1..3 {
            let f = a[i][k] / pivot_row[k];
            for (x, p) in a[i].iter_mut().zip(pivot_row).skip(k) {
                *x -= f * p;
            }
            b[i] -= f * b[k];
        }
    }
    let mut x = [0.0; 3];
    for k in (0..3).rev() {
        let mut acc = b[k];
        for j in k + 1..3 {
            acc -= a[k][j] * x[j];
        }
        x[k] = acc / a[k][k];
    }
    Some(x)
}

/// Choose the predictor for a block by comparing, on the original data, the
/// sum of absolute residuals of (a) an original-value Lorenzo pass and (b)
/// the fitted plane. This mirrors SZ's sampled predictor selection; using
/// original (not reconstructed) values for the estimate is the same
/// approximation the reference implementation makes.
pub fn select_mode(field: &FieldView<'_>, win: &Window) -> BlockMode {
    select_mode_with_plane(field, win).0
}

/// [`select_mode`] that also returns the plane it fitted for the
/// comparison, so the encoder of a regression block need not fit it twice.
/// The decision and coefficients are identical to calling [`select_mode`]
/// and [`fit_block_plane`] separately.
pub fn select_mode_with_plane(field: &FieldView<'_>, win: &Window) -> (BlockMode, [f64; 3]) {
    let plane = fit_block_plane(field, win);
    let mut lorenzo_err = 0.0;
    let mut plane_err = 0.0;
    for di in 0..win.height {
        let i = win.i0 + di;
        let row = field.row(i);
        let prev = if i > 0 { field.row(i - 1) } else { &[] as &[f64] };
        for dj in 0..win.width {
            let j = win.j0 + dj;
            let v = row[j];
            let up = if i > 0 { prev[j] } else { 0.0 };
            let left = if j > 0 { row[j - 1] } else { 0.0 };
            let diag = if i > 0 && j > 0 { prev[j - 1] } else { 0.0 };
            lorenzo_err += (v - (up + left - diag)).abs();
            plane_err += (v - plane_predict(&plane, di, dj)).abs();
        }
    }
    let mode = if plane_err < lorenzo_err { BlockMode::Regression } else { BlockMode::Lorenzo };
    (mode, plane)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcc_grid::Field2D;

    fn window(i0: usize, j0: usize, h: usize, w: usize) -> Window {
        Window { i0, j0, height: h, width: w }
    }

    #[test]
    fn plane_fit_recovers_exact_plane() {
        let f = Field2D::from_fn(20, 20, |i, j| 1.0 + 0.3 * i as f64 - 0.7 * j as f64);
        let w = window(2, 3, 16, 16);
        let c = fit_block_plane(&f.view(), &w);
        // The plane is expressed in local offsets, so c0 absorbs the corner value.
        assert!((c[0] - f.get(2, 3)).abs() < 1e-9);
        assert!((c[1] - 0.3).abs() < 1e-9);
        assert!((c[2] + 0.7).abs() < 1e-9);
        for di in 0..16 {
            for dj in 0..16 {
                assert!((plane_predict(&c, di, dj) - f.get(2 + di, 3 + dj)).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn plane_fit_on_degenerate_row_block_falls_back_gracefully() {
        let f = Field2D::from_fn(1, 8, |_, j| j as f64);
        let w = window(0, 0, 1, 8);
        let c = fit_block_plane(&f.view(), &w);
        // A 1-row block has no information about the i-slope; predictions must
        // still be finite.
        for dj in 0..8 {
            assert!(plane_predict(&c, 0, dj).is_finite());
        }
    }

    #[test]
    fn selection_prefers_regression_on_linear_trend_with_noise_free_data() {
        // A pure plane: both are exact, Lorenzo wins ties; add curvature so
        // the plane degrades and Lorenzo is chosen.
        let plane = Field2D::from_fn(32, 32, |i, j| 3.0 * i as f64 + 2.0 * j as f64);
        let w = window(8, 8, 16, 16);
        assert_eq!(select_mode(&plane.view(), &w), BlockMode::Lorenzo);

        // A noisy field favours the regression predictor because Lorenzo
        // amplifies point noise (three noisy neighbours per prediction).
        let mut state = 1234567u64;
        let noisy = Field2D::from_fn(32, 32, |i, j| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            0.1 * (i as f64) + 0.05 * (j as f64) + (state % 1000) as f64 / 1000.0
        });
        assert_eq!(select_mode(&noisy.view(), &w), BlockMode::Regression);
    }

    #[test]
    fn solve3_singular_returns_none() {
        let a = [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 0.0, 1.0]];
        assert!(solve3(a, [1.0, 2.0, 3.0]).is_none());
    }
}
