//! Prediction schemes: the 2D Lorenzo predictor and the block hyper-plane
//! (regression) predictor, plus per-block predictor selection.
//!
//! Selection fits a plane to every block and sums both predictors' absolute
//! residuals over it: two passes over the field, each an add chain per
//! block. [`select_modes`] runs the full-width blocks of a block row
//! `GROUP` (four) at a time so that their chains overlap. On the AVX2 tier a
//! group is one `ymm` lane per block: four cells of each block are loaded
//! and transposed so that lane `g` holds block `g`'s cell, and every lane
//! does the scalar arithmetic in the scalar order — a multiply, then an add,
//! never a fused multiply-add; `abs` is the sign-bit mask — so modes and
//! planes are the same bits at every tier. The scalar `block_sums` and
//! `block_errors` are the scalar tier and the oracle of the vector one.

use lcc_grid::FieldView;
use lcc_lossless::dispatch::SimdLevel;

/// Which predictor a block uses; the discriminant is its byte in the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockMode {
    /// First-order Lorenzo predictor from reconstructed neighbours.
    Lorenzo = 0,
    /// Least-squares plane fitted over the block.
    Regression = 1,
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
#[cfg(test)]
pub(crate) fn fit_block_plane(field: &FieldView<'_>, win: &lcc_grid::Window) -> [f64; 3] {
    let [sums] = block_sums::<1>(field, win.i0, win.j0, win.height, win.width);
    plane_from_sums(win.height, win.width, sums)
}

/// The value sums `[Σv, Σv·di, Σv·dj]` of `G` side-by-side `h × w` blocks,
/// the first at `(i0, j0)`. Every block has its own three accumulators and
/// adds its cells in the same order whatever `G` is — rows top to bottom,
/// cells left to right — so its sums do not depend on its neighbours; the
/// blocks advance cell by cell together so that `3·G` add chains are in
/// flight where one block alone waits on three.
pub(crate) fn block_sums<const G: usize>(
    field: &FieldView<'_>,
    i0: usize,
    j0: usize,
    h: usize,
    w: usize,
) -> [[f64; 3]; G] {
    let mut sums = [[0.0; 3]; G];
    for di in 0..h {
        let row = &field.row(i0 + di)[j0..j0 + G * w];
        for dj in 0..w {
            for (g, s) in sums.iter_mut().enumerate() {
                let v = row[g * w + dj];
                s[0] += v;
                s[1] += v * di as f64;
                s[2] += v * dj as f64;
            }
        }
    }
    sums
}

/// The least-squares plane of an `h × w` block from its value sums
/// `[Σv, Σv·di, Σv·dj]`.
pub(crate) fn plane_from_sums(h: usize, w: usize, [s_v, s_iv, s_jv]: [f64; 3]) -> [f64; 3] {
    let h = h as f64;
    let w = w as f64;
    let n = h * w;

    // Sums over the regular grid of offsets.
    let s_i = (h - 1.0) * h / 2.0 * w; // Σ di
    let s_j = (w - 1.0) * w / 2.0 * h; // Σ dj
    let s_ii = (h - 1.0) * h * (2.0 * h - 1.0) / 6.0 * w; // Σ di²
    let s_jj = (w - 1.0) * w * (2.0 * w - 1.0) / 6.0 * h; // Σ dj²
    let s_ij = ((h - 1.0) * h / 2.0) * ((w - 1.0) * w / 2.0); // Σ di·dj

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
/// the fitted plane, and return the plane with the choice, so the encoder
/// of a regression block need not fit it twice. This mirrors SZ's sampled
/// predictor selection; using original (not reconstructed) values for the
/// estimate is the same approximation the reference implementation makes.
/// The block-at-a-time oracle of [`select_modes`], which the encoder runs.
#[cfg(test)]
pub(crate) fn select_mode_with_plane(
    field: &FieldView<'_>,
    win: &lcc_grid::Window,
) -> (BlockMode, [f64; 3]) {
    let plane = fit_block_plane(field, win);
    let [errors] = block_errors::<1>(field, win.i0, win.j0, win.height, win.width, &[plane]);
    (mode_of(errors), plane)
}

/// `[Σ|v − lorenzo|, Σ|v − plane|]` of `G` side-by-side `h × w` blocks, the
/// first at `(i0, j0)`, each against its own plane; accumulated per block
/// and interleaved across blocks the way [`block_sums`] is.
pub(crate) fn block_errors<const G: usize>(
    field: &FieldView<'_>,
    i0: usize,
    j0: usize,
    h: usize,
    w: usize,
    planes: &[[f64; 3]; G],
) -> [[f64; 2]; G] {
    let mut errors = [[0.0; 2]; G];
    for di in 0..h {
        let i = i0 + di;
        let row = field.row(i);
        let prev = if i > 0 { field.row(i - 1) } else { &[] as &[f64] };
        for dj in 0..w {
            for (g, (e, plane)) in errors.iter_mut().zip(planes).enumerate() {
                let j = j0 + g * w + dj;
                let v = row[j];
                let up = if i > 0 { prev[j] } else { 0.0 };
                let left = if j > 0 { row[j - 1] } else { 0.0 };
                let diag = if i > 0 && j > 0 { prev[j - 1] } else { 0.0 };
                e[0] += (v - (up + left - diag)).abs();
                e[1] += (v - plane_predict(plane, di, dj)).abs();
            }
        }
    }
    errors
}

/// The predictor with the smaller summed residual; Lorenzo on a tie.
fn mode_of([lorenzo_err, plane_err]: [f64; 2]) -> BlockMode {
    if plane_err < lorenzo_err {
        BlockMode::Regression
    } else {
        BlockMode::Lorenzo
    }
}

/// Blocks of one block row whose selection passes run interleaved: twelve
/// add chains in the fitting pass, eight in the comparison (three and two
/// `ymm` chains on the AVX2 tier).
pub(crate) const GROUP: usize = 4;

/// [`block_sums`] of the `GROUP` side-by-side `h × w` blocks at `(i0, j0)`,
/// at tier `level`: the same bits at every tier.
// Sanctioned `unsafe_code` waiver (see `lcc_lossless::dispatch`): the shim
// holds the feature-detection guard that makes the AVX2 kernel legal.
#[allow(unsafe_code)]
pub(crate) fn group_sums_at(
    level: SimdLevel,
    field: &FieldView<'_>,
    i0: usize,
    j0: usize,
    h: usize,
    w: usize,
) -> [[f64; 3]; GROUP] {
    #[cfg(target_arch = "x86_64")]
    if level >= SimdLevel::Avx2 {
        // SAFETY: AVX2 presence is guaranteed by dispatch.
        return unsafe { simd::group_sums(field, i0, j0, h, w) };
    }
    let _ = level;
    block_sums::<GROUP>(field, i0, j0, h, w)
}

/// [`block_errors`] of the `GROUP` side-by-side `h × w` blocks at
/// `(i0, j0)` against their `planes`, at tier `level`: the same bits at
/// every tier.
// Sanctioned `unsafe_code` waiver (see `lcc_lossless::dispatch`): the shim
// holds the feature-detection guard that makes the AVX2 kernel legal.
#[allow(unsafe_code)]
pub(crate) fn group_errors_at(
    level: SimdLevel,
    field: &FieldView<'_>,
    i0: usize,
    j0: usize,
    h: usize,
    w: usize,
    planes: &[[f64; 3]; GROUP],
) -> [[f64; 2]; GROUP] {
    #[cfg(target_arch = "x86_64")]
    if level >= SimdLevel::Avx2 {
        // SAFETY: AVX2 presence is guaranteed by dispatch.
        return unsafe { simd::group_errors(field, i0, j0, h, w, planes) };
    }
    let _ = level;
    block_errors::<GROUP>(field, i0, j0, h, w, planes)
}

/// `select_mode_with_plane` (the test oracle) for every `block_size`-sided
/// block of `field` in [`lcc_grid::WindowIter`] order — same decisions,
/// same plane bits — with full-width blocks taken `GROUP` at a time, at
/// SIMD tier `level`: `modes` gets one entry per block, `planes` one per
/// regression block. Returns whether every block's value sum was finite;
/// where it is, so is every value of the field, and where it is not, a value
/// is non-finite or the sum overflowed.
pub fn select_modes(
    level: SimdLevel,
    field: &FieldView<'_>,
    block_size: usize,
    modes: &mut Vec<BlockMode>,
    planes: &mut Vec<[f64; 3]>,
) -> bool {
    let (ny, nx) = field.shape();
    let mut sums_finite = true;
    let mut keep = |sums: [f64; 3], errors: [f64; 2], plane: [f64; 3]| {
        sums_finite &= sums[0].is_finite();
        let mode = mode_of(errors);
        if mode == BlockMode::Regression {
            planes.push(plane);
        }
        modes.push(mode);
    };
    for i0 in (0..ny).step_by(block_size) {
        let h = block_size.min(ny - i0);
        let mut j0 = 0;
        while j0 + GROUP * block_size <= nx {
            let sums = group_sums_at(level, field, i0, j0, h, block_size);
            let fitted = sums.map(|s| plane_from_sums(h, block_size, s));
            let errors = group_errors_at(level, field, i0, j0, h, block_size, &fitted);
            for g in 0..GROUP {
                keep(sums[g], errors[g], fitted[g]);
            }
            j0 += GROUP * block_size;
        }
        while j0 < nx {
            let w = block_size.min(nx - j0);
            let [sums] = block_sums::<1>(field, i0, j0, h, w);
            let plane = plane_from_sums(h, w, sums);
            let [errors] = block_errors::<1>(field, i0, j0, h, w, &[plane]);
            keep(sums, errors, plane);
            j0 += w;
        }
    }
    sums_finite
}

#[cfg(target_arch = "x86_64")]
mod simd {
    // Sanctioned `unsafe_code` waiver (see `lcc_lossless::dispatch`):
    // `core::arch` intrinsics are unsafe by definition; the caller holds the
    // feature guard and `kernel_identity.rs` pins scalar equivalence.
    #![allow(unsafe_code)]

    use super::GROUP;
    use lcc_grid::FieldView;
    use std::arch::x86_64::*;

    /// Cell `dj` of each of the four `w`-wide blocks laid side by side in
    /// `row`: lane `g` is block `g`'s.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn cell(row: &[f64], w: usize, dj: usize) -> __m256d {
        _mm256_set_pd(row[3 * w + dj], row[2 * w + dj], row[w + dj], row[dj])
    }

    /// Cells `dj..dj + 4` of each of the four blocks, transposed: entry `k`
    /// is cell `dj + k`, lane `g` block `g`'s.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn cells4(row: &[f64], w: usize, dj: usize) -> [__m256d; 4] {
        let load = |g: usize| _mm256_loadu_pd(row[g * w + dj..][..4].as_ptr());
        let (r0, r1, r2, r3) = (load(0), load(1), load(2), load(3));
        let (t0, t1) = (_mm256_unpacklo_pd(r0, r1), _mm256_unpackhi_pd(r0, r1));
        let (t2, t3) = (_mm256_unpacklo_pd(r2, r3), _mm256_unpackhi_pd(r2, r3));
        [
            _mm256_permute2f128_pd::<0x20>(t0, t2),
            _mm256_permute2f128_pd::<0x20>(t1, t3),
            _mm256_permute2f128_pd::<0x31>(t0, t2),
            _mm256_permute2f128_pd::<0x31>(t1, t3),
        ]
    }

    /// The lanes of `v`, lane `g` at index `g`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn lanes(v: __m256d) -> [f64; GROUP] {
        let mut out = [0.0; GROUP];
        _mm256_storeu_pd(out.as_mut_ptr(), v);
        out
    }

    /// `super::block_sums::<GROUP>` with block `g` in lane `g`: per cell
    /// `Σv += v`, `Σv·di += v · di`, `Σv·dj += v · dj`, multiplied then
    /// added.
    ///
    /// # Safety
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn group_sums(
        field: &FieldView<'_>,
        i0: usize,
        j0: usize,
        h: usize,
        w: usize,
    ) -> [[f64; 3]; GROUP] {
        let one = _mm256_set1_pd(1.0);
        let (mut s_v, mut s_iv, mut s_jv) =
            (_mm256_setzero_pd(), _mm256_setzero_pd(), _mm256_setzero_pd());
        for di in 0..h {
            let row = &field.row(i0 + di)[j0..j0 + GROUP * w];
            let div = _mm256_set1_pd(di as f64);
            let mut djv = _mm256_setzero_pd();
            let mut add = |v: __m256d, djv: __m256d| {
                s_v = _mm256_add_pd(s_v, v);
                s_iv = _mm256_add_pd(s_iv, _mm256_mul_pd(v, div));
                s_jv = _mm256_add_pd(s_jv, _mm256_mul_pd(v, djv));
            };
            let mut dj = 0;
            while dj + 4 <= w {
                for v in cells4(row, w, dj) {
                    add(v, djv);
                    djv = _mm256_add_pd(djv, one);
                }
                dj += 4;
            }
            for dj in dj..w {
                add(cell(row, w, dj), djv);
                djv = _mm256_add_pd(djv, one);
            }
        }
        let (s_v, s_iv, s_jv) = (lanes(s_v), lanes(s_iv), lanes(s_jv));
        std::array::from_fn(|g| [s_v[g], s_iv[g], s_jv[g]])
    }

    /// `super::block_errors::<GROUP>` with block `g` in lane `g`: per cell
    /// `|v − ((up + left) − diag)|` and `|v − ((c0 + c1·di) + c2·dj)|`, a
    /// missing neighbour read as `+0.0`, each product rounded before its
    /// add.
    ///
    /// # Safety
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn group_errors(
        field: &FieldView<'_>,
        i0: usize,
        j0: usize,
        h: usize,
        w: usize,
        planes: &[[f64; 3]; GROUP],
    ) -> [[f64; 2]; GROUP] {
        let coeff =
            |c: usize| _mm256_set_pd(planes[3][c], planes[2][c], planes[1][c], planes[0][c]);
        let (c0, c1, c2) = (coeff(0), coeff(1), coeff(2));
        let (one, zero, sign) = (_mm256_set1_pd(1.0), _mm256_setzero_pd(), _mm256_set1_pd(-0.0));
        let width = GROUP * w;
        // The cell left of each block's first: the field's left edge is 0.0.
        let before = |row: &[f64]| {
            let edge = if j0 > 0 { row[j0 - 1] } else { 0.0 };
            _mm256_set_pd(row[j0 + 3 * w - 1], row[j0 + 2 * w - 1], row[j0 + w - 1], edge)
        };
        let (mut lorenzo_err, mut plane_err) = (zero, zero);
        for di in 0..h {
            let i = i0 + di;
            let full_row = field.row(i);
            let row = &full_row[j0..j0 + width];
            let (prev, mut diag) = match i.checked_sub(1).map(|p| field.row(p)) {
                Some(prev) => (Some(&prev[j0..j0 + width]), before(prev)),
                None => (None, zero),
            };
            let mut left = before(full_row);
            let base = _mm256_add_pd(c0, _mm256_mul_pd(c1, _mm256_set1_pd(di as f64)));
            let mut djv = zero;
            let mut add = |v: __m256d, up: __m256d, left: __m256d, diag: __m256d, djv: __m256d| {
                let lorenzo = _mm256_sub_pd(_mm256_add_pd(up, left), diag);
                let residual = _mm256_andnot_pd(sign, _mm256_sub_pd(v, lorenzo));
                lorenzo_err = _mm256_add_pd(lorenzo_err, residual);
                let plane = _mm256_add_pd(base, _mm256_mul_pd(c2, djv));
                let residual = _mm256_andnot_pd(sign, _mm256_sub_pd(v, plane));
                plane_err = _mm256_add_pd(plane_err, residual);
            };
            let mut dj = 0;
            while dj + 4 <= w {
                let values = cells4(row, w, dj);
                let ups = prev.map_or([zero; 4], |prev| cells4(prev, w, dj));
                for (v, up) in values.into_iter().zip(ups) {
                    add(v, up, left, diag, djv);
                    (left, diag) = (v, up);
                    djv = _mm256_add_pd(djv, one);
                }
                dj += 4;
            }
            for dj in dj..w {
                let v = cell(row, w, dj);
                let up = prev.map_or(zero, |prev| cell(prev, w, dj));
                add(v, up, left, diag, djv);
                (left, diag) = (v, up);
                djv = _mm256_add_pd(djv, one);
            }
        }
        let (lorenzo_err, plane_err) = (lanes(lorenzo_err), lanes(plane_err));
        std::array::from_fn(|g| [lorenzo_err[g], plane_err[g]])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcc_grid::{Field2D, Window};

    fn select_mode(field: &FieldView<'_>, win: &Window) -> BlockMode {
        select_mode_with_plane(field, win).0
    }

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

    /// The per-block selection as it was before the passes were shared with
    /// the interleaved form: one block, five serial accumulators. Kept as
    /// the oracle for both.
    fn reference_select(field: &FieldView<'_>, win: &Window) -> (BlockMode, [f64; 3]) {
        let (h, w) = (win.height as f64, win.width as f64);
        let n = h * w;
        let s_i = (h - 1.0) * h / 2.0 * w;
        let s_j = (w - 1.0) * w / 2.0 * h;
        let s_ii = (h - 1.0) * h * (2.0 * h - 1.0) / 6.0 * w;
        let s_jj = (w - 1.0) * w * (2.0 * w - 1.0) / 6.0 * h;
        let s_ij = ((h - 1.0) * h / 2.0) * ((w - 1.0) * w / 2.0);
        let (mut s_v, mut s_iv, mut s_jv) = (0.0, 0.0, 0.0);
        for di in 0..win.height {
            let row = field.row(win.i0 + di);
            for dj in 0..win.width {
                let v = row[win.j0 + dj];
                s_v += v;
                s_iv += v * di as f64;
                s_jv += v * dj as f64;
            }
        }
        let a = [[n, s_i, s_j], [s_i, s_ii, s_ij], [s_j, s_ij, s_jj]];
        let plane = solve3(a, [s_v, s_iv, s_jv]).unwrap_or([s_v / n, 0.0, 0.0]);
        let (mut lorenzo_err, mut plane_err) = (0.0, 0.0);
        for di in 0..win.height {
            let i = win.i0 + di;
            for dj in 0..win.width {
                let j = win.j0 + dj;
                let v = field.at(i, j);
                let up = if i > 0 { field.at(i - 1, j) } else { 0.0 };
                let left = if j > 0 { field.at(i, j - 1) } else { 0.0 };
                let diag = if i > 0 && j > 0 { field.at(i - 1, j - 1) } else { 0.0 };
                lorenzo_err += (v - (up + left - diag)).abs();
                plane_err += (v - plane_predict(&plane, di, dj)).abs();
            }
        }
        let mode = if plane_err < lorenzo_err { BlockMode::Regression } else { BlockMode::Lorenzo };
        (mode, plane)
    }

    #[test]
    fn interleaved_selection_equals_the_per_block_selection_bit_for_bit() {
        // The shapes of `kernel_identity.rs` — 1 × N, N × 1, one block row,
        // widths around a multiple of the block — plus fields wide enough
        // for several groups and a ragged tail of blocks after them.
        let mut shapes = vec![(1, 67), (67, 1), (1, 1), (2, 2), (13, 17), (31, 29), (53, 37)];
        for width in (1..=5).chain(15..=17) {
            shapes.push((19, width));
            shapes.push((width, 23));
        }
        shapes.extend([(16, 64), (16, 130), (40, 64), (33, 200), (5, 257)]);
        let mut state = 0x005E_1EC7_u64;
        let mut noise = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state as f64 / u64::MAX as f64 - 0.5
        };
        let (mut regression, mut lorenzo) = (0usize, 0usize);
        for (ny, nx) in shapes {
            let field = Field2D::from_fn(ny, nx, |i, j| {
                let smooth = (i as f64 * 0.11).sin() + (j as f64 * 0.07).cos();
                // Noisy patches make regression blocks; spikes make planes
                // whose bits a changed summation order would move.
                let rough = if (i / 9 + j / 11) % 2 == 0 { noise() } else { 1e-6 * noise() };
                smooth + rough + if (i * nx + j) % 41 == 7 { 1e9 } else { 0.0 }
            });
            let view = field.view();
            for block_size in (2..=17).chain([32]) {
                let (mut modes, mut planes) = (vec![BlockMode::Regression], vec![[7.0; 3]]);
                modes.clear();
                planes.clear();
                assert!(select_modes(
                    SimdLevel::Scalar,
                    &view,
                    block_size,
                    &mut modes,
                    &mut planes
                ));
                let mut planes = planes.iter();
                let blocks = lcc_grid::WindowIter::over(ny, nx, block_size, block_size);
                assert_eq!(modes.len(), blocks.count_windows());
                for (win, mode) in blocks.zip(&modes) {
                    let what = format!("{ny}x{nx} bs={block_size} block at {:?}", (win.i0, win.j0));
                    let (expected, plane) = reference_select(&view, &win);
                    assert_eq!(*mode, expected, "{what}");
                    assert_eq!(
                        select_mode_with_plane(&view, &win).1.map(f64::to_bits),
                        plane.map(f64::to_bits),
                        "{what}"
                    );
                    match mode {
                        BlockMode::Regression => {
                            regression += 1;
                            let kept = planes.next().expect("a plane per regression block");
                            assert_eq!(kept.map(f64::to_bits), plane.map(f64::to_bits), "{what}");
                        }
                        BlockMode::Lorenzo => lorenzo += 1,
                    }
                }
                assert!(planes.next().is_none(), "no plane without a regression block");
            }
        }
        assert!(regression > 1000 && lorenzo > 1000, "{regression} / {lorenzo}: both modes occur");
    }

    #[test]
    fn block_sums_flag_non_finite_values_and_overflowed_sums_alike() {
        let clean = Field2D::from_fn(20, 70, |i, j| (i + j) as f64);
        let (mut modes, mut planes) = (Vec::new(), Vec::new());
        assert!(select_modes(SimdLevel::Scalar, &clean.view(), 16, &mut modes, &mut planes));
        // Anywhere in a grouped block, a ragged one, or the last row.
        for (i, j, bad) in [(0, 0, f64::NAN), (3, 40, f64::INFINITY), (19, 69, f64::NEG_INFINITY)] {
            let mut field = clean.clone();
            field.set(i, j, bad);
            assert!(
                !select_modes(SimdLevel::Scalar, &field.view(), 16, &mut modes, &mut planes),
                "({i}, {j})"
            );
        }
        // Finite values whose sum is not: flagged too, for the caller's
        // exact scan to clear.
        let huge = Field2D::from_fn(20, 70, |_, _| f64::MAX / 4.0);
        assert!(!select_modes(SimdLevel::Scalar, &huge.view(), 16, &mut modes, &mut planes));
    }

    #[test]
    fn solve3_singular_returns_none() {
        let a = [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 0.0, 1.0]];
        assert!(solve3(a, [1.0, 2.0, 3.0]).is_none());
    }
}
