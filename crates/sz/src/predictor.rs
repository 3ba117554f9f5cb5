//! Prediction schemes: the 2D Lorenzo predictor and the block hyper-plane
//! (regression) predictor, plus per-block predictor selection.

use lcc_grid::FieldView;

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
fn block_sums<const G: usize>(
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
fn plane_from_sums(h: usize, w: usize, [s_v, s_iv, s_jv]: [f64; 3]) -> [f64; 3] {
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
fn block_errors<const G: usize>(
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
/// add chains in the fitting pass, eight in the comparison.
const GROUP: usize = 4;

/// `select_mode_with_plane` (the test oracle) for every `block_size`-sided
/// block of `field` in [`lcc_grid::WindowIter`] order — same decisions,
/// same plane bits — with full-width blocks taken `GROUP` at a time: `modes`
/// gets one entry per block, `planes` one per regression block. Returns whether every
/// block's value sum was finite; where it is, so is every value of the
/// field, and where it is not, a value is non-finite or the sum overflowed.
pub fn select_modes(
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
            let sums = block_sums::<GROUP>(field, i0, j0, h, block_size);
            let fitted = sums.map(|s| plane_from_sums(h, block_size, s));
            let errors = block_errors::<GROUP>(field, i0, j0, h, block_size, &fitted);
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
                assert!(select_modes(&view, block_size, &mut modes, &mut planes));
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
        assert!(select_modes(&clean.view(), 16, &mut modes, &mut planes));
        // Anywhere in a grouped block, a ragged one, or the last row.
        for (i, j, bad) in [(0, 0, f64::NAN), (3, 40, f64::INFINITY), (19, 69, f64::NEG_INFINITY)] {
            let mut field = clean.clone();
            field.set(i, j, bad);
            assert!(!select_modes(&field.view(), 16, &mut modes, &mut planes), "({i}, {j})");
        }
        // Finite values whose sum is not: flagged too, for the caller's
        // exact scan to clear.
        let huge = Field2D::from_fn(20, 70, |_, _| f64::MAX / 4.0);
        assert!(!select_modes(&huge.view(), 16, &mut modes, &mut planes));
    }

    #[test]
    fn solve3_singular_returns_none() {
        let a = [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 0.0, 1.0]];
        assert!(solve3(a, [1.0, 2.0, 3.0]).is_none());
    }
}
