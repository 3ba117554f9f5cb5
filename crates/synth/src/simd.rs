//! The FFT passes' two SIMD tiers.
//!
//! A pass's strip body ([`grf::row_pass`], [`grf::column_pass`]) is plain
//! Rust over eight lanes of split real and imaginary parts. Compiled as it
//! is, it is the scalar tier; inlined into one
//! `#[target_feature(enable = "avx2")]` function, it is the AVX2 tier, two
//! 256-bit registers a lane vector. Neither tier contracts a multiply and
//! an add, so both give the same bits. Each entry takes the tier as `level`
//! (`lcc_lossless::simd_level()` in production, each of
//! `supported_levels()` in the tests) and runs the AVX2 function when
//! `level` asks for AVX2 and the CPU has it.

// Sanctioned `unsafe_code` waiver (see `lcc_lossless::dispatch`): a
// `target_feature` function is unsafe to call; each entry checks the CPU
// first.
#![allow(unsafe_code)]

use crate::grf::{self, Axis, Complex, Strip};
use lcc_lossless::dispatch::SimdLevel;

/// `level` asks for AVX2 and the CPU has it.
#[cfg(target_arch = "x86_64")]
fn avx2(level: SimdLevel) -> bool {
    use lcc_lossless::dispatch::supported_levels;
    level >= SimdLevel::Avx2 && supported_levels().contains(&SimdLevel::Avx2)
}

/// [`grf::row_pass`] at tier `level`, lowered to one the hardware runs.
pub(crate) fn row_pass(level: SimdLevel, data: &mut [Complex], axis: &Axis, strip: &mut Strip) {
    #[cfg(target_arch = "x86_64")]
    if avx2(level) {
        // SAFETY: `avx2` checked that the CPU has AVX2.
        return unsafe { row_pass_avx2(data, axis, strip) };
    }
    let _ = level;
    grf::row_pass(data, axis, strip)
}

/// [`grf::column_pass`] at tier `level`, lowered to one the hardware runs.
pub(crate) fn column_pass(
    level: SimdLevel,
    data: &mut [Complex],
    nx: usize,
    axis: &Axis,
    strip: &mut Strip,
) {
    #[cfg(target_arch = "x86_64")]
    if avx2(level) {
        // SAFETY: `avx2` checked that the CPU has AVX2.
        return unsafe { column_pass_avx2(data, nx, axis, strip) };
    }
    let _ = level;
    grf::column_pass(data, nx, axis, strip)
}

/// [`grf::row_pass`] compiled for AVX2.
///
/// # Safety
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn row_pass_avx2(data: &mut [Complex], axis: &Axis, strip: &mut Strip) {
    grf::row_pass(data, axis, strip)
}

/// [`grf::column_pass`] compiled for AVX2.
///
/// # Safety
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn column_pass_avx2(data: &mut [Complex], nx: usize, axis: &Axis, strip: &mut Strip) {
    grf::column_pass(data, nx, axis, strip)
}
