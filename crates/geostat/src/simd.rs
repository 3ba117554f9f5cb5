//! The crate's two SIMD tiers, one entry per kernel.
//!
//! Each kernel's body is plain Rust on `[f64; 4]` lanes (`quad::{add, sub,
//! mul, …}`). Compiled as it is, it is the scalar tier; inlined into one
//! `#[target_feature(enable = "avx2")]` function, it is the AVX2 tier, one
//! 256-bit register a lane vector. Neither tier contracts a multiply and an
//! add, so both give the same bits. Each entry takes the tier as `level`
//! (`lcc_lossless::simd_level()` in production, each of
//! `supported_levels()` in the tests) and runs the AVX2 function when
//! `level` asks for AVX2 and the CPU has it:
//!
//! * [`sum_quad`] — four windows' variograms ([`WindowPlan::sum_quad`]);
//! * [`tridiagonalise_quad`] — four windows' Gram matrices and tridiagonal
//!   forms ([`QuadSpectrum::tridiagonalise_body`]);
//! * [`sweep_band`] — one band job of the global variogram
//!   ([`BandSweep::run`]).

// Sanctioned `unsafe_code` waiver (see `lcc_lossless::dispatch`): a
// `target_feature` function is unsafe to call; each entry checks the CPU
// first.
#![allow(unsafe_code)]

use crate::quad::QUAD;
use crate::svdstat::{Centred, QuadSpectrum};
use crate::variogram::{BandJob, BandSums, BandSweep, WindowPlan, WindowScratch};
use lcc_grid::FieldView;
use lcc_lossless::dispatch::SimdLevel;

/// `level` asks for AVX2 and the CPU has it.
#[cfg(target_arch = "x86_64")]
fn avx2(level: SimdLevel) -> bool {
    use lcc_lossless::dispatch::supported_levels;
    level >= SimdLevel::Avx2 && supported_levels().contains(&SimdLevel::Avx2)
}

/// [`WindowPlan::sum_quad`] at tier `level`, lowered to one the hardware
/// runs.
pub(crate) fn sum_quad(
    level: SimdLevel,
    plan: &WindowPlan,
    quad: &[FieldView<'_>; QUAD],
    scratch: &mut WindowScratch,
) {
    #[cfg(target_arch = "x86_64")]
    if avx2(level) {
        // SAFETY: `avx2` checked that the CPU has AVX2.
        return unsafe { sum_quad_avx2(plan, quad, scratch) };
    }
    let _ = level;
    plan.sum_quad(quad, scratch)
}

/// [`QuadSpectrum::tridiagonalise_body`] at tier `level`, lowered to one
/// the hardware runs.
pub(crate) fn tridiagonalise_quad(
    level: SimdLevel,
    spectrum: &mut QuadSpectrum,
    quad: &[FieldView<'_>; QUAD],
) -> [Centred; QUAD] {
    #[cfg(target_arch = "x86_64")]
    if avx2(level) {
        // SAFETY: `avx2` checked that the CPU has AVX2.
        return unsafe { tridiagonalise_quad_avx2(spectrum, quad) };
    }
    let _ = level;
    spectrum.tridiagonalise_body(quad)
}

/// [`BandSweep::run`] at tier `level`, lowered to one the hardware runs.
pub(crate) fn sweep_band(
    level: SimdLevel,
    sweep: &BandSweep,
    rows: &FieldView<'_>,
    job: &BandJob,
) -> BandSums {
    #[cfg(target_arch = "x86_64")]
    if avx2(level) {
        // SAFETY: `avx2` checked that the CPU has AVX2.
        return unsafe { sweep_band_avx2(sweep, rows, job) };
    }
    let _ = level;
    sweep.run(rows, job)
}

/// [`WindowPlan::sum_quad`] compiled for AVX2.
///
/// # Safety
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
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
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn tridiagonalise_quad_avx2(
    spectrum: &mut QuadSpectrum,
    quad: &[FieldView<'_>; QUAD],
) -> [Centred; QUAD] {
    spectrum.tridiagonalise_body(quad)
}

/// [`BandSweep::run`] compiled for AVX2.
///
/// # Safety
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn sweep_band_avx2(sweep: &BandSweep, rows: &FieldView<'_>, job: &BandJob) -> BandSums {
    sweep.run(rows, job)
}
