//! The Lorenzo kernel: the one definition of the predictor arithmetic and of
//! the order a window's cells are visited in, shared by the encoder's
//! predict/quantize pass ([`quantize_run`]) and the decoder's replay
//! ([`replay`]).
//!
//! A Lorenzo cell needs its up, left and diagonal neighbours *reconstructed*,
//! so a raster scan is one loop-carried chain: `left → up + left − diag →
//! quantize → store`, one cell in flight. [`replay`] instead takes the rows
//! of a window in bands of [`BAND`] and, at step `t`, visits cell
//! `(r0 + k, t − k)` of every band row `k` — a skewed wavefront. The cells of
//! one step do not depend on each other, so `BAND` chains are in flight,
//! while every cell still sees exactly the neighbours (and the caller's
//! exact per-cell arithmetic) it sees in raster order: wavefront order is a
//! topological order of the same dependency graph. That is also why the
//! "reconstruction scratch is never zeroed" invariant survives — no cell is
//! read before it is written.
//!
//! **Windows.** The decoder replays one block at a time. The encoder takes
//! a block row's maximal *run* of consecutive Lorenzo blocks as one window:
//! a run cell's neighbours lie in the run, in the block row above or in the
//! (regression) block to the run's left, all written before the run starts,
//! so the run is the same dependency graph again. Its codes are written by
//! cell and the escapes are collected after the run, so no visiting order
//! shows in the streams. A band pays its ramps — the steps where not every
//! band row has a cell — once per window: inside one 16-wide block an 8-row
//! band spends 44 % of its cells there; a 16-row band spends 23 % across a
//! 64-wide tile and 3 % across 512 columns.
//!
//! **The AVX2 band.** On the AVX2 tier [`quantize_run`] runs the steady
//! state of bands of [`SIMD_BAND`] rows, held as `SIMD_BAND / 4` `ymm`
//! registers, so `SIMD_BAND` chains are in flight. A four-lane band (one
//! register, four rows, inside one block) was tried and lost to the scalar
//! four-row wavefront: the scalar code already overlaps four chains, and
//! each chain still waits on its subtract → divide → round → multiply
//! latency, so the vector saved instructions but no latency. Only a taller
//! band adds chains, and a taller band needs the run's length to amortise
//! its ramps. The ramps, runs narrower than the band, rows below the last
//! full band and the scalar tier take the scalar wavefront.

use crate::quantize::{Quantizer, UNPREDICTABLE};
use lcc_grid::{FieldView, Window};
use lcc_lossless::dispatch::SimdLevel;

/// Rows per band of the scalar wavefront.
const BAND: usize = 4;

/// Rows per band of the AVX2 wavefront: sixteen encode 512² fields faster
/// than eight and 64 × 64 tiles as fast.
#[cfg(target_arch = "x86_64")]
const SIMD_BAND: usize = 16;

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

/// The order [`replay`] visits a window's cells in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Order {
    /// Row by row: the order of the code and exact streams inside a block.
    Raster,
    /// Skewed wavefront over bands of [`BAND`] rows; rows left over below
    /// the last full band, and windows narrower than a band, go in raster
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

/// Steps `0..band` of the `band`-row band at row `r0` of `win`, through
/// memory (these cells have neighbours in the block to the left and the
/// band above). Needs `win.width ≥ band`.
#[inline(always)]
fn ramp_up<F: FnMut(usize, usize, f64) -> f64>(
    recon: &mut [f64],
    nx: usize,
    win: &Window,
    r0: usize,
    band: usize,
    cell: &mut F,
) {
    for t in 0..band {
        for k in 0..=t {
            visit(recon, nx, win, (r0 + k, t - k), cell);
        }
    }
}

/// The steps after the last full one of the band at row `r0`: the rows
/// still short of the window's right edge.
#[inline(always)]
fn ramp_down<F: FnMut(usize, usize, f64) -> f64>(
    recon: &mut [f64],
    nx: usize,
    win: &Window,
    r0: usize,
    band: usize,
    cell: &mut F,
) {
    let w = win.width;
    for t in w..w + band - 1 {
        for k in t + 1 - w..band {
            visit(recon, nx, win, (r0 + k, t - k), cell);
        }
    }
}

/// Visit every cell of window `win` of the row-major buffer `recon` (row
/// stride `nx`) after its up, left and diagonal neighbours: `cell(di, dj,
/// prediction)` gets the window-local offsets and the Lorenzo prediction and
/// returns the cell's reconstructed value, which is stored before any
/// dependent cell is predicted.
#[inline(always)]
pub(crate) fn replay<F: FnMut(usize, usize, f64) -> f64>(
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
            ramp_up(recon, nx, win, r0, BAND, &mut cell);
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
            ramp_down(recon, nx, win, r0, BAND, &mut cell);
            r0 += BAND;
        }
    }
    for di in r0..h {
        for dj in 0..w {
            visit(recon, nx, win, (di, dj), &mut cell);
        }
    }
}

/// One cell through the quantizer: its code and reconstruction, or the
/// escape code and the original, which is stored exactly.
#[inline(always)]
fn quantize_cell(quantizer: &Quantizer, original: f64, prediction: f64) -> (u32, f64) {
    quantizer.quantize(original, prediction).unwrap_or((UNPREDICTABLE, original))
}

/// What [`quantize_run`]'s cells write to: the field, the run's codes by
/// cell, and whether any cell escaped.
struct Run<'a> {
    quantizer: &'a Quantizer,
    field: &'a FieldView<'a>,
    win: &'a Window,
    codes: &'a mut [u32],
    escaped: bool,
}

impl Run<'_> {
    /// Quantize cell `(di, dj)` of the run against `prediction`, record its
    /// code, and return its reconstruction (the original where it escapes).
    #[inline(always)]
    fn cell(&mut self, di: usize, dj: usize, prediction: f64) -> f64 {
        let original = self.field.at(self.win.i0 + di, self.win.j0 + dj);
        let (code, value) = quantize_cell(self.quantizer, original, prediction);
        self.codes[di * self.win.width + dj] = code;
        self.escaped |= code == UNPREDICTABLE;
        value
    }
}

/// Predict and quantize every cell of `win` — one block row's run of
/// Lorenzo blocks — of `field` against the reconstruction buffer `recon`
/// (row stride `nx`), which receives the reconstructed values. Cell
/// `(di, dj)`'s code lands at `codes[di * win.width + dj]`: the escape code
/// where the cell is stored exactly, its reconstruction then the original.
/// Returns whether any cell escaped. Codes and reconstruction are the same,
/// bit for bit, at every tier.
// Sanctioned `unsafe_code` waiver (see `lcc_lossless::dispatch`): the shim
// holds the feature-detection guard that makes the AVX2 band legal.
#[allow(unsafe_code)]
pub(crate) fn quantize_run(
    level: SimdLevel,
    quantizer: &Quantizer,
    field: &FieldView<'_>,
    recon: &mut [f64],
    nx: usize,
    win: &Window,
    codes: &mut [u32],
) -> bool {
    assert_eq!(codes.len(), win.len(), "one code per run cell");
    let mut run = Run { quantizer, field, win, codes, escaped: false };
    let mut r0 = 0usize;
    #[cfg(target_arch = "x86_64")]
    if level >= SimdLevel::Avx2 && win.width >= SIMD_BAND && quantizer.radius() <= 1 << 30 {
        while r0 + SIMD_BAND <= win.height {
            ramp_up(recon, nx, win, r0, SIMD_BAND, &mut |di, dj, p| run.cell(di, dj, p));
            // SAFETY: AVX2 presence is guaranteed by dispatch, the ramp-up
            // visited the band's first steps, and the radius cap keeps the
            // vectorized `q + radius` inside i32.
            run.escaped |=
                unsafe { simd::steady_band(quantizer, field, recon, nx, win, r0, run.codes) };
            ramp_down(recon, nx, win, r0, SIMD_BAND, &mut |di, dj, p| run.cell(di, dj, p));
            r0 += SIMD_BAND;
        }
    }
    let _ = level;
    let rest = Window { i0: win.i0 + r0, height: win.height - r0, ..*win };
    replay(recon, nx, &rest, Order::Wavefront, |di, dj, p| run.cell(r0 + di, dj, p));
    run.escaped
}

#[cfg(target_arch = "x86_64")]
mod simd {
    // Sanctioned `unsafe_code` waiver (see `lcc_lossless::dispatch`):
    // `core::arch` intrinsics are unsafe by definition; the caller holds the
    // feature guard and the kernel-identity suite pins scalar equivalence.
    #![allow(unsafe_code)]

    use super::{quantize_cell, SIMD_BAND};
    use crate::quantize::{Quantizer, UNPREDICTABLE};
    use lcc_grid::{FieldView, Window};
    use lcc_lossless::round::avx2::round_half_away;
    use std::arch::x86_64::*;

    /// Registers per band: lane `l` of register `m` is band row `4m + l`.
    const REGS: usize = SIMD_BAND / 4;

    /// One value per band row.
    type Band = [__m256d; REGS];

    /// The quantizer's constants, broadcast.
    struct Consts {
        two_eb: __m256d,
        eb: __m256d,
        two: __m256d,
        limit: __m256d,
        sign: __m256d,
        radius: __m128i,
    }

    /// `v` moved one row down the band (row `k` takes row `k − 1`'s value),
    /// with `first` in row 0.
    #[inline(always)]
    unsafe fn shift_down(v: &Band, first: __m256d) -> Band {
        // [a3, a0, a1, a2]: each lane takes the one below, lane 0 the top.
        let mut rotated = *v;
        for r in &mut rotated {
            *r = _mm256_permute4x64_pd::<0b10_01_00_11>(*r);
        }
        let mut out = rotated;
        out[0] = _mm256_blend_pd::<0b0001>(rotated[0], first);
        for m in 1..REGS {
            out[m] = _mm256_blend_pd::<0b0001>(rotated[m], rotated[m - 1]);
        }
        out
    }

    /// Four cells through [`Quantizer::quantize`]'s arithmetic, in its
    /// operation order: the reconstructions, the rounded quotients, and
    /// whether all four lanes pass both predictability tests.
    #[inline(always)]
    unsafe fn quantize4(pred: __m256d, value: __m256d, c: &Consts) -> (__m256d, __m256d, bool) {
        let scaled = _mm256_div_pd(_mm256_sub_pd(value, pred), c.two_eb);
        // Test 1, |scaled| < radius − 1: the ordered compare is false for NaN
        // and ±∞, the scalar `!is_finite || abs >= …`.
        let in_radius = _mm256_cmp_pd::<_CMP_LT_OQ>(_mm256_andnot_pd(c.sign, scaled), c.limit);
        let q = round_half_away(scaled);
        // prediction + (q · 2) · ε.
        let recon = _mm256_add_pd(pred, _mm256_mul_pd(_mm256_mul_pd(q, c.two), c.eb));
        // Test 2, |recon − value| > ε rejects; NaN does not, as in the
        // scalar `>`.
        let err = _mm256_andnot_pd(c.sign, _mm256_sub_pd(recon, value));
        let reject = _mm256_cmp_pd::<_CMP_GT_OQ>(err, c.eb);
        (recon, q, _mm256_movemask_pd(_mm256_andnot_pd(reject, in_radius)) == 0xF)
    }

    /// Steps `SIMD_BAND..win.width` of the band at window row `r0`, every
    /// band row active: the wavefront of [`super::replay`] with the rows in
    /// vector lanes. A step's `up` is the previous step's values moved one
    /// row down with the row above the band in row 0, its `left` the
    /// previous step's values, and its `diag` the previous step's `up`. A
    /// step where any lane fails a predictability test is replayed through
    /// the scalar quantizer against the same predictions. Codes land at
    /// `codes[di * win.width + dj]` (the escape code for a cell stored
    /// exactly); returns whether any cell escaped.
    ///
    /// # Safety
    /// Requires AVX2, a quantizer radius of at most 2^30, and steps
    /// `0..SIMD_BAND` of the band already visited.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn steady_band(
        quantizer: &Quantizer,
        field: &FieldView<'_>,
        recon: &mut [f64],
        nx: usize,
        win: &Window,
        r0: usize,
        codes: &mut [u32],
    ) -> bool {
        const B: usize = SIMD_BAND;
        let w = win.width;
        assert!(B <= w && r0 + B <= win.height && win.j0 + w <= nx && codes.len() == win.len());
        assert!((win.i0 + r0 + B - 1) * nx + win.j0 + w <= recon.len());
        let (eb, radius) = (quantizer.error_bound(), quantizer.radius());
        let c = Consts {
            two_eb: _mm256_set1_pd(2.0 * eb),
            eb: _mm256_set1_pd(eb),
            two: _mm256_set1_pd(2.0),
            limit: _mm256_set1_pd((radius - 1) as f64),
            sign: _mm256_set1_pd(-0.0),
            radius: _mm_set1_epi32(radius as i32),
        };
        // Row k of the band, column 0: in the reconstruction, the original,
        // and the codes. Every access below is at a column under `w`.
        let base = recon.as_mut_ptr().add((win.i0 + r0) * nx + win.j0);
        let recon_at = |k: usize, dj: usize| base.add(k * nx + dj);
        let orig: [*const f64; B] =
            std::array::from_fn(|k| field.row(win.i0 + r0 + k)[win.j0..win.j0 + w].as_ptr());
        let code_row = codes.as_mut_ptr().add(r0 * w);
        // The row above the band; the field's top edge reads as zero.
        let above = |dj: usize| {
            if win.i0 + r0 == 0 {
                _mm256_setzero_pd()
            } else {
                _mm256_set1_pd(*base.sub(nx).add(dj))
            }
        };
        let gather = |value: &dyn Fn(usize) -> f64| -> Band {
            std::array::from_fn(|m| {
                let k = 4 * m;
                _mm256_set_pd(value(k + 3), value(k + 2), value(k + 1), value(k))
            })
        };

        // Steps B − 2 and B − 1 (row k at column B − 2 − k, B − 1 − k; row
        // B − 1 has no cell at step B − 2), and the `up` of step B − 1.
        let before = gather(&|k| if k + 2 <= B { *recon_at(k, B - 2 - k) } else { 0.0 });
        let mut up_prev = shift_down(&before, above(B - 1));
        let mut prev = gather(&|k| *recon_at(k, B - 1 - k));
        let mut escaped = false;
        for t in B..w {
            let up = shift_down(&prev, above(t));
            let (mut cur, mut pred, mut q) = (prev, prev, prev);
            let mut all_ok = true;
            for m in 0..REGS {
                let k = 4 * m;
                pred[m] = _mm256_sub_pd(_mm256_add_pd(up[m], prev[m]), up_prev[m]);
                let value = _mm256_set_pd(
                    *orig[k + 3].add(t - k - 3),
                    *orig[k + 2].add(t - k - 2),
                    *orig[k + 1].add(t - k - 1),
                    *orig[k].add(t - k),
                );
                let ok;
                (cur[m], q[m], ok) = quantize4(pred[m], value, &c);
                all_ok &= ok;
            }
            if all_ok {
                let mut lanes = [0.0f64; B];
                let mut lane_codes = [0u32; B];
                for m in 0..REGS {
                    _mm256_storeu_pd(lanes.as_mut_ptr().add(4 * m), cur[m]);
                    // Integral |q| < radius − 1 < 2^30: the narrowing
                    // convert is exact and `q + radius` fits i32.
                    let codes4 = _mm_add_epi32(_mm256_cvtpd_epi32(q[m]), c.radius);
                    _mm_storeu_si128(lane_codes.as_mut_ptr().add(4 * m) as *mut __m128i, codes4);
                }
                for k in 0..B {
                    *recon_at(k, t - k) = lanes[k];
                    *code_row.add(k * w + t - k) = lane_codes[k];
                }
            } else {
                // The cells of a step are independent: replay them all
                // through the scalar quantizer.
                let mut preds = [0.0f64; B];
                for (m, p) in pred.iter().enumerate() {
                    _mm256_storeu_pd(preds.as_mut_ptr().add(4 * m), *p);
                }
                let mut lanes = [0.0f64; B];
                for k in 0..B {
                    let (code, value) = quantize_cell(quantizer, *orig[k].add(t - k), preds[k]);
                    escaped |= code == UNPREDICTABLE;
                    lanes[k] = value;
                    *recon_at(k, t - k) = value;
                    *code_row.add(k * w + t - k) = code;
                }
                cur = gather(&|k| lanes[k]);
            }
            up_prev = up;
            prev = cur;
        }
        escaped
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
