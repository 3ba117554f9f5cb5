//! Hierarchical (multigrid) interpolation decomposition of a 2D field.
//!
//! Level `l` works on the sub-grid of points whose indices are multiples of
//! `2^l`. The points that survive to level `l+1` (indices that are multiples
//! of `2^(l+1)`) are the *coarse* nodes; every other level-`l` point is a
//! *fine* node and is predicted by linear interpolation of its coarse
//! neighbours:
//!
//! * odd row, even column → average of the vertical coarse neighbours,
//! * even row, odd column → average of the horizontal coarse neighbours,
//! * odd row, odd column  → average of the (up to four) diagonal coarse
//!   neighbours,
//!
//! where "odd/even" is relative to the coarse stride and nodes past the grid
//! edge are simply omitted from the average. The forward transform replaces
//! each fine node by its interpolation residual — the *multilevel
//! coefficient* — and recurses on the coarse grid. Because the interpolation
//! weights always sum to one, quantization errors do not amplify as they
//! propagate down the hierarchy; they only accumulate once per level, which
//! is what lets the compressor split its error budget evenly across levels.

use lcc_grid::{Field2D, FieldView};

/// Number of dyadic levels supported by an `ny × nx` grid (enough halvings
/// that the coarsest grid is ~2 points per axis).
pub fn level_count(ny: usize, nx: usize) -> u32 {
    let mut levels = 0u32;
    let mut stride = 1usize;
    while stride * 2 < ny.max(nx) {
        stride *= 2;
        levels += 1;
    }
    levels
}

/// Forward decomposition into a caller-owned workspace (reshaped to the
/// view): `work` ends up holding multilevel coefficients at fine nodes and
/// raw values at the coarsest nodes. The input is a borrowed view, so the
/// compressor can decompose a window or a whole field straight out of the
/// parent buffer, and decompositions in a loop reuse one coefficient
/// allocation.
pub fn forward_into(field: &FieldView<'_>, levels: u32, work: &mut Field2D) {
    work.copy_from_view(field);
    // In place: a level predicts from its coarse nodes only, and those still
    // hold original values (a node is rewritten at the one level where it is
    // fine).
    for level in 0..levels {
        apply_level(work, 1usize << level, |value, prediction| value - prediction);
    }
}

/// Inverse decomposition, operating directly on the coefficient field, so
/// the scratch-threaded decompressor reconstructs in the caller's output
/// buffer without an intermediate coefficient clone.
pub fn inverse_inplace(out: &mut Field2D, levels: u32) {
    // Reconstruct from the coarsest level down to the finest.
    for level in (0..levels).rev() {
        apply_level(out, 1usize << level, |value, prediction| value + prediction);
    }
}

/// Rewrite every fine node of the level with node spacing `stride` as
/// `combine(value, prediction)`. Rows are classified once: a coarse row
/// predicts its fine columns from itself, a fine row with both vertical
/// neighbours predicts from those two rows, and whatever has a neighbour
/// past the grid edge — the last fine row, the last fine column — goes
/// through [`interpolate`] cell by cell. The sums run in `interpolate`'s
/// order from its `0.0`, so the coefficients are the per-cell ones bit for
/// bit.
fn apply_level(data: &mut Field2D, stride: usize, combine: impl Fn(f64, f64) -> f64) {
    let (ny, nx) = data.shape();
    let coarse = stride * 2;
    // Fine columns below `inner_end` have both horizontal neighbours; at
    // most one fine column does not.
    let inner_end = nx.saturating_sub(stride);
    let edge_col = (stride..nx).step_by(coarse).find(|&j| j >= inner_end);
    let per_cell = |data: &mut Field2D, i: usize, j: usize| {
        let prediction = interpolate(&data.view(), i, j, coarse, i % coarse != 0, j % coarse != 0);
        data.set(i, j, combine(data.at(i, j), prediction));
    };
    for i in (0..ny).step_by(stride) {
        if i % coarse == 0 {
            let row = data.row_mut(i);
            for j in (stride..inner_end).step_by(coarse) {
                row[j] = combine(row[j], (0.0 + row[j - stride] + row[j + stride]) / 2.0);
            }
        } else if i + stride < ny {
            let (above, rest) = data.as_mut_slice().split_at_mut(i * nx);
            let lo = &above[(i - stride) * nx..][..nx];
            let (row, below) = rest.split_at_mut(stride * nx);
            let row = &mut row[..nx];
            let hi = &below[..nx];
            for j in (0..nx).step_by(coarse) {
                row[j] = combine(row[j], (0.0 + lo[j] + hi[j]) / 2.0);
            }
            for j in (stride..inner_end).step_by(coarse) {
                let sum = 0.0 + lo[j - stride] + lo[j + stride] + hi[j - stride] + hi[j + stride];
                row[j] = combine(row[j], sum / 4.0);
            }
        } else {
            for j in (0..nx).step_by(stride) {
                per_cell(data, i, j);
            }
            continue;
        }
        if let Some(j) = edge_col {
            per_cell(data, i, j);
        }
    }
}

/// Linear interpolation of the coarse neighbours of a fine node. `source`
/// holds original values during the forward pass and already-reconstructed
/// values during the inverse pass.
fn interpolate(
    source: &FieldView<'_>,
    i: usize,
    j: usize,
    coarse: usize,
    fine_row: bool,
    fine_col: bool,
) -> f64 {
    let (ny, nx) = source.shape();
    let mut sum = 0.0;
    let mut count = 0.0;
    let mut add = |ii: Option<usize>, jj: Option<usize>| {
        if let (Some(ii), Some(jj)) = (ii, jj) {
            if ii < ny && jj < nx {
                sum += source.at(ii, jj);
                count += 1.0;
            }
        }
    };

    let half = coarse / 2;
    let row_lo = i.checked_sub(half);
    let row_hi = Some(i + half);
    let col_lo = j.checked_sub(half);
    let col_hi = Some(j + half);

    match (fine_row, fine_col) {
        (true, false) => {
            add(row_lo, Some(j));
            add(row_hi, Some(j));
        }
        (false, true) => {
            add(Some(i), col_lo);
            add(Some(i), col_hi);
        }
        (true, true) => {
            add(row_lo, col_lo);
            add(row_lo, col_hi);
            add(row_hi, col_lo);
            add(row_hi, col_hi);
        }
        (false, false) => unreachable!("coarse nodes are not interpolated"),
    }
    if count > 0.0 {
        sum / count
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Forward decomposition into a new field.
    fn forward(field: &FieldView<'_>, levels: u32) -> Field2D {
        let mut work = Field2D::zeros(1, 1);
        forward_into(field, levels, &mut work);
        work
    }

    /// Inverse decomposition into a new field.
    fn inverse(coeffs: &Field2D, levels: u32) -> Field2D {
        let mut out = coeffs.clone();
        inverse_inplace(&mut out, levels);
        out
    }

    fn roundtrip(field: &Field2D) {
        let levels = level_count(field.ny(), field.nx());
        let coeffs = forward(&field.view(), levels);
        let back = inverse(&coeffs, levels);
        let err = field.max_abs_diff(&back);
        assert!(err < 1e-9, "roundtrip error {err} on shape {:?}", field.shape());
    }

    /// The per-cell reference the row kernel is held to: every fine node of
    /// every level through `interpolate`, forward reading the original.
    fn forward_per_cell(original: &FieldView<'_>, levels: u32) -> Field2D {
        let mut work = original.to_field();
        let (ny, nx) = original.shape();
        for level in 0..levels {
            let (stride, coarse) = (1usize << level, 2usize << level);
            for i in (0..ny).step_by(stride) {
                for j in (0..nx).step_by(stride) {
                    let (fine_row, fine_col) = (i % coarse != 0, j % coarse != 0);
                    if fine_row || fine_col {
                        let p = interpolate(original, i, j, coarse, fine_row, fine_col);
                        work.set(i, j, original.at(i, j) - p);
                    }
                }
            }
        }
        work
    }

    fn inverse_per_cell(coeffs: &Field2D, levels: u32) -> Field2D {
        let mut out = coeffs.clone();
        let (ny, nx) = out.shape();
        for level in (0..levels).rev() {
            let (stride, coarse) = (1usize << level, 2usize << level);
            for i in (0..ny).step_by(stride) {
                for j in (0..nx).step_by(stride) {
                    let (fine_row, fine_col) = (i % coarse != 0, j % coarse != 0);
                    if fine_row || fine_col {
                        let p = interpolate(&out.view(), i, j, coarse, fine_row, fine_col);
                        out.set(i, j, out.at(i, j) + p);
                    }
                }
            }
        }
        out
    }

    fn bits(field: &Field2D) -> Vec<u64> {
        field.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn row_kernel_equals_the_per_cell_reference_bit_for_bit() {
        // Patches of -0.0 keep the sums honest about the sign of zero.
        let parent = Field2D::from_fn(520, 530, |i, j| {
            if (i / 5 + j / 3) % 4 == 0 {
                -0.0
            } else {
                (i as f64 * 0.37).sin() * 3.0 + (j as f64 * 0.21).cos() - 1e-3 * (i * j) as f64
            }
        });
        let shapes = [(1, 9), (9, 1), (2, 2), (3, 3), (5, 4), (33, 65), (97, 113), (512, 512)];
        for (k, (ny, nx)) in shapes.into_iter().enumerate() {
            // Every other case is a strided subview of the parent.
            let owned = parent.subfield(3, 5, ny, nx);
            let view = if k % 2 == 0 { owned.view() } else { parent.view().subview(3, 5, ny, nx) };
            for levels in 0..=level_count(ny, nx) {
                let coeffs = forward(&view, levels);
                // `assert!`, not `assert_eq!`: a failure must not print 512² cells.
                assert!(
                    bits(&coeffs) == bits(&forward_per_cell(&view, levels)),
                    "forward {ny}x{nx} levels={levels}"
                );
                assert!(
                    bits(&inverse(&coeffs, levels)) == bits(&inverse_per_cell(&coeffs, levels)),
                    "inverse {ny}x{nx} levels={levels}"
                );
            }
        }
    }

    #[test]
    fn level_count_scales_with_size() {
        assert_eq!(level_count(1, 1), 0);
        assert_eq!(level_count(2, 2), 0);
        assert_eq!(level_count(3, 3), 1);
        assert_eq!(level_count(5, 5), 2);
        assert!(level_count(1028, 1028) >= 9);
        assert!(level_count(256, 384) >= 7);
    }

    #[test]
    fn forward_inverse_is_lossless_without_quantization() {
        for (ny, nx) in [(8, 8), (9, 9), (16, 17), (33, 65), (7, 50), (1, 12)] {
            let f = Field2D::from_fn(ny, nx, |i, j| {
                (i as f64 * 0.37).sin() * 3.0 + (j as f64 * 0.21).cos() - 0.01 * (i * j) as f64
            });
            roundtrip(&f);
        }
    }

    #[test]
    fn coefficients_vanish_for_linear_fields_away_from_edges() {
        // A bilinear field is predicted exactly by linear interpolation at
        // nodes with both neighbours present, so most coefficients are ~0.
        let f = Field2D::from_fn(33, 33, |i, j| 2.0 + 0.5 * i as f64 + 0.25 * j as f64);
        let levels = level_count(33, 33);
        let coeffs = forward(&f.view(), levels);
        let near_zero = coeffs.as_slice().iter().filter(|c| c.abs() < 1e-9).count();
        // Interior fine nodes dominate: expect the vast majority of the 1089
        // coefficients to vanish (edge nodes with one-sided neighbourhoods
        // keep non-zero residuals).
        assert!(near_zero > 900, "only {near_zero} coefficients vanish");
    }

    #[test]
    fn smooth_fields_have_smaller_coefficients_than_rough() {
        let smooth = Field2D::from_fn(64, 64, |i, j| ((i + j) as f64 * 0.01).sin());
        let mut s = 3u64;
        let rough = Field2D::from_fn(64, 64, |_, _| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s as f64 / u64::MAX as f64).sin()
        });
        let levels = level_count(64, 64);
        let cs = forward(&smooth.view(), levels);
        let cr = forward(&rough.view(), levels);
        let mean_abs =
            |f: &Field2D| f.as_slice().iter().map(|v| v.abs()).sum::<f64>() / f.len() as f64;
        assert!(mean_abs(&cs) < mean_abs(&cr) / 5.0);
    }

    #[test]
    fn zero_levels_is_identity() {
        let f = Field2D::from_fn(4, 4, |i, j| (i * 4 + j) as f64);
        assert_eq!(forward(&f.view(), 0), f);
        assert_eq!(inverse(&f, 0), f);
    }

    #[test]
    fn quantization_error_accumulates_at_most_once_per_level() {
        // Perturb every coefficient by ±δ and check the reconstruction moves
        // by at most (levels + 1)·δ — the bound the compressor relies on.
        let f = Field2D::from_fn(65, 65, |i, j| ((i * j) as f64 * 0.001).sin() * 2.0);
        let levels = level_count(65, 65);
        let coeffs = forward(&f.view(), levels);
        let delta = 1e-3;
        let mut s = 99u64;
        let mut perturbed = coeffs.clone();
        for v in perturbed.as_mut_slice() {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            *v += if s % 2 == 0 { delta } else { -delta };
        }
        let back = inverse(&perturbed, levels);
        let err = f.max_abs_diff(&back);
        let bound = (levels as f64 + 1.0) * delta;
        assert!(err <= bound + 1e-12, "err {err} > bound {bound}");
    }
}
