//! Four windows at a time: the layout both local statistics run on.
//!
//! Every full window of a tiling has the same shape, so the per-window
//! kernels run the same steps on every window. [`map_quads`] groups the
//! windows in fours, copies each group once into a lane-interleaved buffer
//! (one [`Lanes`] per cell, lane `k` holding window `k`, see
//! [`interleave`]) and hands it to a kernel whose every step is lane
//! arithmetic: each window runs in its own lane, in exactly its scalar
//! kernel's order, so each window's result keeps its bits. A short last
//! group is padded with copies of its first window, whose results are
//! dropped.
//!
//! The kernels' lane bodies are plain Rust on `[f64; 4]`; compiled as they
//! are they are the scalar tier, and inlined into one
//! `#[target_feature(enable = "avx2")]` function each (the private `simd`
//! module) they are the AVX2 tier, one 256-bit register a lane vector.
//! Neither tier contracts a multiply and an add, so both give the same
//! bits; `lcc_lossless::simd_level()` picks the tier.

use crate::svdstat::{Centred, QuadSpectrum};
use crate::variogram::{WindowPlan, WindowScratch};
use lcc_grid::FieldView;
use lcc_lossless::dispatch::SimdLevel;
use lcc_par::{try_parallel_map_with_state, ThreadPoolConfig};

/// Windows a kernel call runs side by side.
pub(crate) const QUAD: usize = 4;

/// One value of each window of a quad.
pub(crate) type Lanes = [f64; QUAD];

/// `a + b`, lane by lane.
#[inline(always)]
pub(crate) fn add(a: Lanes, b: Lanes) -> Lanes {
    [a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3]]
}

/// `a − b`, lane by lane.
#[inline(always)]
pub(crate) fn sub(a: Lanes, b: Lanes) -> Lanes {
    [a[0] - b[0], a[1] - b[1], a[2] - b[2], a[3] - b[3]]
}

/// `a · b`, lane by lane.
#[inline(always)]
pub(crate) fn mul(a: Lanes, b: Lanes) -> Lanes {
    [a[0] * b[0], a[1] * b[1], a[2] * b[2], a[3] * b[3]]
}

/// `a / b`, lane by lane.
#[inline(always)]
pub(crate) fn div(a: Lanes, b: Lanes) -> Lanes {
    [a[0] / b[0], a[1] / b[1], a[2] / b[2], a[3] / b[3]]
}

/// `a` where `mask` holds, `b` elsewhere.
#[inline(always)]
pub(crate) fn select(mask: [bool; QUAD], a: Lanes, b: Lanes) -> Lanes {
    std::array::from_fn(|k| if mask[k] { a[k] } else { b[k] })
}

/// Copy four windows of one shape into `buf`: row-major, one [`Lanes`] per
/// cell, lane `k` holding window `k`.
#[inline(always)]
pub(crate) fn interleave(quad: &[FieldView<'_>; QUAD], buf: &mut Vec<Lanes>) {
    let (ny, nx) = quad[0].shape();
    buf.clear();
    buf.resize(ny * nx, [0.0; QUAD]);
    for (i, cells) in buf.chunks_exact_mut(nx).enumerate() {
        let rows = [quad[0].row(i), quad[1].row(i), quad[2].row(i), quad[3].row(i)];
        for (j, cell) in cells.iter_mut().enumerate() {
            *cell = [rows[0][j], rows[1][j], rows[2][j], rows[3][j]];
        }
    }
}

/// Run `kernel` on the windows four at a time over `pool`, one `S` per
/// worker, and return one result per window in `windows` order. All
/// windows must share one shape.
pub(crate) fn map_quads<'a, S, R, I, K>(
    pool: ThreadPoolConfig,
    windows: &[FieldView<'a>],
    init: I,
    kernel: K,
) -> Vec<R>
where
    R: Send,
    I: Fn() -> S + Sync,
    K: Fn(&mut S, &[FieldView<'a>; QUAD]) -> [R; QUAD] + Sync,
{
    let quads: Vec<[FieldView<'a>; QUAD]> = windows
        .chunks(QUAD)
        .map(|group| std::array::from_fn(|k| *group.get(k).unwrap_or(&group[0])))
        .collect();
    let results = try_parallel_map_with_state(pool, &quads, init, |s, _, quad| kernel(s, quad))
        .unwrap_or_else(|err| panic!("{err}"));
    results.into_iter().flatten().take(windows.len()).collect()
}

/// [`WindowPlan::sum_quad`] at tier `level`, lowered to one the hardware
/// runs.
#[inline]
pub(crate) fn sum_quad(
    level: SimdLevel,
    plan: &WindowPlan,
    quad: &[FieldView<'_>; QUAD],
    scratch: &mut WindowScratch,
) {
    #[cfg(target_arch = "x86_64")]
    if simd::sum_quad(level, plan, quad, scratch).is_some() {
        return;
    }
    let _ = level;
    plan.sum_quad(quad, scratch)
}

/// [`QuadSpectrum::tridiagonalise_body`] at tier `level`, lowered to one
/// the hardware runs.
#[inline]
pub(crate) fn tridiagonalise_quad(
    level: SimdLevel,
    spectrum: &mut QuadSpectrum,
    quad: &[FieldView<'_>; QUAD],
) -> [Centred; QUAD] {
    #[cfg(target_arch = "x86_64")]
    if let Some(centred) = simd::tridiagonalise_quad(level, spectrum, quad) {
        return centred;
    }
    let _ = level;
    spectrum.tridiagonalise_body(quad)
}

/// The AVX2 tier: each lane body inlined into one function compiled with
/// AVX2 enabled (and FMA not), where `[f64; 4]` arithmetic becomes one
/// 256-bit instruction. Each entry runs it when `level` asks for AVX2 and
/// the CPU has it, and returns `None` otherwise.
#[cfg(target_arch = "x86_64")]
mod simd {
    // Sanctioned `unsafe_code` waiver (see `lcc_lossless::dispatch`):
    // a `target_feature` function is unsafe to call; the entries check
    // the CPU first.
    #![allow(unsafe_code)]

    use super::QUAD;
    use crate::svdstat::{Centred, QuadSpectrum};
    use crate::variogram::{WindowPlan, WindowScratch};
    use lcc_grid::FieldView;
    use lcc_lossless::dispatch::{supported_levels, SimdLevel};

    /// `level` asks for AVX2 and the CPU has it.
    fn avx2(level: SimdLevel) -> bool {
        level >= SimdLevel::Avx2 && supported_levels().contains(&SimdLevel::Avx2)
    }

    pub(super) fn sum_quad(
        level: SimdLevel,
        plan: &WindowPlan,
        quad: &[FieldView<'_>; QUAD],
        scratch: &mut WindowScratch,
    ) -> Option<()> {
        avx2(level).then(|| {
            // SAFETY: `avx2` checked that the CPU has AVX2.
            unsafe { sum_quad_avx2(plan, quad, scratch) }
        })
    }

    pub(super) fn tridiagonalise_quad(
        level: SimdLevel,
        spectrum: &mut QuadSpectrum,
        quad: &[FieldView<'_>; QUAD],
    ) -> Option<[Centred; QUAD]> {
        avx2(level).then(|| {
            // SAFETY: `avx2` checked that the CPU has AVX2.
            unsafe { tridiagonalise_quad_avx2(spectrum, quad) }
        })
    }

    /// [`WindowPlan::sum_quad`]'s lane body compiled for AVX2.
    ///
    /// # Safety
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    unsafe fn sum_quad_avx2(
        plan: &WindowPlan,
        quad: &[FieldView<'_>; QUAD],
        scratch: &mut WindowScratch,
    ) {
        plan.sum_quad(quad, scratch)
    }

    /// [`QuadSpectrum::tridiagonalise_body`] compiled for AVX2.
    ///
    /// # Safety
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    unsafe fn tridiagonalise_quad_avx2(
        spectrum: &mut QuadSpectrum,
        quad: &[FieldView<'_>; QUAD],
    ) -> [Centred; QUAD] {
        spectrum.tridiagonalise_body(quad)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcc_grid::Field2D;

    #[test]
    fn quads_pad_with_their_first_window_and_keep_window_order() {
        let field = Field2D::from_fn(8, 8 * 9, |i, j| (i * 1000 + j) as f64);
        for count in 1..=9 {
            let windows: Vec<_> =
                (0..count).map(|k| field.view().subview(0, 8 * k, 8, 8)).collect();
            let seen =
                map_quads(ThreadPoolConfig::with_threads(2), &windows, Vec::new, |buf, quad| {
                    interleave(quad, buf);
                    // Each lane's first cell names its window; the padding
                    // lanes repeat the group's first.
                    std::array::from_fn(|k| buf[0][k])
                });
            let want: Vec<f64> = windows.iter().map(|w| w.at(0, 0)).collect();
            assert_eq!(seen, want, "{count} windows");
        }
    }

    #[test]
    fn interleave_puts_window_k_in_lane_k() {
        let field = Field2D::from_fn(5, 20, |i, j| (i * 100 + j) as f64);
        let quad: [FieldView<'_>; QUAD] =
            std::array::from_fn(|k| field.view().subview(1, 4 * k + 1, 3, 3));
        let mut buf = Vec::new();
        interleave(&quad, &mut buf);
        assert_eq!(buf.len(), 9);
        for (cell, lanes) in buf.iter().enumerate() {
            for (k, &value) in lanes.iter().enumerate() {
                assert_eq!(value, quad[k].at(cell / 3, cell % 3));
            }
        }
    }
}
