//! The Lorenzo block kernel: the one definition of the predictor arithmetic
//! and of the order a block's cells are visited in, shared by the encoder's
//! predict/quantize pass and the decoder's replay.
//!
//! A Lorenzo cell needs its up, left and diagonal neighbours *reconstructed*,
//! so a raster scan is one loop-carried chain: `left → up + left − diag →
//! quantize → store`, one cell in flight. [`replay_block`] instead takes the
//! rows of a block in bands of [`BAND`] and, at step `t`, visits cell
//! `(r0 + k, t − k)` of every band row `k` — a skewed wavefront. The cells of
//! one step do not depend on each other, so `BAND` chains are in flight,
//! while every cell still sees exactly the neighbours (and the caller's
//! exact per-cell arithmetic) it sees in raster order: wavefront order is a
//! topological order of the same dependency graph. That is also why the
//! "reconstruction scratch is never zeroed" invariant survives — no cell is
//! read before it is written.

use lcc_grid::Window;

/// Rows per wavefront band.
const BAND: usize = 4;

/// The 2D Lorenzo prediction from the three reconstructed neighbours.
#[inline(always)]
fn predict(up: f64, left: f64, diag: f64) -> f64 {
    up + left - diag
}

/// Lorenzo prediction at `(i, j)` of a row-major buffer with row stride `nx`:
/// `f[i-1][j] + f[i][j-1] - f[i-1][j-1]`, out-of-domain neighbours read as
/// zero (matching SZ at the field boundary).
#[inline(always)]
pub(crate) fn predict_at(recon: &[f64], nx: usize, i: usize, j: usize) -> f64 {
    let up = if i > 0 { recon[(i - 1) * nx + j] } else { 0.0 };
    let left = if j > 0 { recon[i * nx + j - 1] } else { 0.0 };
    let diag = if i > 0 && j > 0 { recon[(i - 1) * nx + j - 1] } else { 0.0 };
    predict(up, left, diag)
}

/// The order [`replay_block`] visits a block's cells in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Order {
    /// Row by row: the order of the code and exact streams.
    Raster,
    /// Skewed wavefront over bands of [`BAND`] rows; rows left over below
    /// the last full band, and blocks narrower than a band, go in raster
    /// order.
    Wavefront,
}

/// One cell through memory: predict from `recon`, store what `cell` returns.
#[inline(always)]
fn visit<F: FnMut(usize, usize, f64) -> f64>(
    recon: &mut [f64],
    nx: usize,
    win: &Window,
    (di, dj): (usize, usize),
    cell: &mut F,
) {
    let (i, j) = (win.i0 + di, win.j0 + dj);
    let prediction = predict_at(recon, nx, i, j);
    recon[i * nx + j] = cell(di, dj, prediction);
}

/// Visit every cell of block `win` of the row-major buffer `recon` (row
/// stride `nx`) after its up, left and diagonal neighbours: `cell(di, dj,
/// prediction)` gets the block-local offsets and the Lorenzo prediction and
/// returns the cell's reconstructed value, which is stored before any
/// dependent cell is predicted.
#[inline(always)]
pub(crate) fn replay_block<F: FnMut(usize, usize, f64) -> f64>(
    recon: &mut [f64],
    nx: usize,
    win: &Window,
    order: Order,
    mut cell: F,
) {
    let (h, w) = (win.height, win.width);
    let mut r0 = 0usize;
    if order == Order::Wavefront && w >= BAND {
        while r0 + BAND <= h {
            // Ramp-up: steps 0..BAND, through memory (these cells have
            // neighbours in the block to the left and the band above).
            for t in 0..BAND {
                for k in 0..=t {
                    visit(recon, nx, win, (r0 + k, t - k), &mut cell);
                }
            }
            // Steady state: every band row is active and every neighbour but
            // the row above the band was produced one or two steps ago, so
            // the chains run through registers. `prev[k]` / `prev2[k]` hold
            // row k's value of the previous step / the step before.
            let row = |k: usize| (win.i0 + r0 + k) * nx + win.j0;
            let mut prev = [0.0f64; BAND];
            let mut prev2 = [0.0f64; BAND];
            for k in 0..BAND {
                prev[k] = recon[row(k) + BAND - 1 - k];
            }
            for k in 0..BAND - 1 {
                prev2[k] = recon[row(k) + BAND - 2 - k];
            }
            let top = win.i0 + r0 == 0;
            let above = |recon: &[f64], dj: usize| if top { 0.0 } else { recon[row(0) - nx + dj] };
            let mut above_prev = above(recon, BAND - 1);
            for t in BAND..w {
                let above_cur = above(recon, t);
                let mut cur = [0.0f64; BAND];
                cur[0] = cell(r0, t, predict(above_cur, prev[0], above_prev));
                for k in 1..BAND {
                    cur[k] = cell(r0 + k, t - k, predict(prev[k - 1], prev[k], prev2[k - 1]));
                }
                for k in 0..BAND {
                    recon[row(k) + t - k] = cur[k];
                }
                above_prev = above_cur;
                prev2 = prev;
                prev = cur;
            }
            // Ramp-down: the rows still short of the block's right edge.
            for t in w..w + BAND - 1 {
                for k in t + 1 - w..BAND {
                    visit(recon, nx, win, (r0 + k, t - k), &mut cell);
                }
            }
            r0 += BAND;
        }
    }
    for di in r0..h {
        for dj in 0..w {
            visit(recon, nx, win, (di, dj), &mut cell);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcc_grid::Field2D;

    #[test]
    fn lorenzo_is_exact_on_planes() {
        // For f(i,j) = a + b i + c j the Lorenzo prediction is exact away from
        // the boundary.
        let f = Field2D::from_fn(16, 16, |i, j| 2.0 + 0.5 * i as f64 - 0.25 * j as f64);
        for i in 1..16 {
            for j in 1..16 {
                assert!((predict_at(f.as_slice(), 16, i, j) - f.get(i, j)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn lorenzo_boundary_uses_zeros() {
        let f = Field2D::filled(4, 4, 5.0);
        assert_eq!(predict_at(f.as_slice(), 4, 0, 0), 0.0);
        assert_eq!(predict_at(f.as_slice(), 4, 0, 2), 5.0);
        assert_eq!(predict_at(f.as_slice(), 4, 2, 0), 5.0);
        assert_eq!(predict_at(f.as_slice(), 4, 2, 2), 5.0);
    }
}
