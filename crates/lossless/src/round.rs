//! Exact `f64::round` (half away from zero) without the libm call, scalar
//! and AVX2, plus the dispatched rounding quantizer built on it.
//!
//! The quantizers of the lossy codecs all compute `round(residual / bin)` per
//! cell. On the baseline x86-64 target `f64::round` is a call into libm — on
//! the SZ Lorenzo path it sits on the loop-carried dependency chain, and it
//! has no vector form. Both kernels here use the same emulation instead:
//! truncate, then step one away from zero when the discarded fraction
//! reaches one half. The subtraction that recovers the fraction is exact in
//! binary floating point, so the emulation agrees with `f64::round` on every
//! input, ties included, and streams stay byte-identical at every SIMD tier.

use crate::dispatch::SimdLevel;

/// `x.round() as i64` for `|x| < 2^63` (beyond that, and for NaN, the
/// saturating cast makes the result meaningless — callers range-check
/// first).
#[inline(always)]
pub fn round_half_away(x: f64) -> i64 {
    let truncated = x as i64;
    let frac = x - truncated as f64;
    truncated + i64::from(frac >= 0.5) - i64::from(frac <= -0.5)
}

/// One value through the rounding quantizer: `round(value / bin)` shifted by
/// `radius` so `0` stays free for the escape, or — when the rounded quotient
/// is not inside `(-(radius − 1), radius − 1)` — the escape code and the
/// value itself on the exact stream.
#[inline(always)]
fn quantize_one(value: f64, bin: f64, radius: u32, codes: &mut Vec<u32>, exact: &mut Vec<f64>) {
    // 2^62: anything at or past it (or NaN) is out of every u32 radius, and
    // everything below it is inside `round_half_away`'s domain.
    const ROUNDABLE: f64 = 4_611_686_018_427_387_904.0;
    let scaled = value / bin;
    let radius = i64::from(radius);
    let q = if scaled.abs() < ROUNDABLE { round_half_away(scaled) } else { i64::MAX };
    if q.abs() < radius - 1 {
        codes.push((q + radius) as u32);
    } else {
        codes.push(0);
        exact.push(value);
    }
}

/// Quantize `values` to `round(value / bin) + radius`, appending one code
/// per value to `codes`; a value whose rounded quotient falls outside
/// `(-(radius − 1), radius − 1)` (or is not finite) gets the escape code `0`
/// and is appended to `exact` instead. The AVX2 tier handles four values per
/// step when all four are in range and replays the group through the scalar
/// path otherwise, so both streams are identical at every tier.
// Sanctioned `unsafe_code` waiver (see `crate::dispatch`): the shim holds
// the feature-detection guard that makes the AVX2 kernel legal.
#[allow(unsafe_code)]
pub fn quantize_rounded_at(
    level: SimdLevel,
    values: &[f64],
    bin: f64,
    radius: u32,
    codes: &mut Vec<u32>,
    exact: &mut Vec<f64>,
) {
    codes.reserve(values.len());
    let mut done = 0usize;
    #[cfg(target_arch = "x86_64")]
    if level >= SimdLevel::Avx2 && (2..=1 << 30).contains(&radius) {
        // SAFETY: AVX2 presence is guaranteed by dispatch, the reserve above
        // covers one code per value, and the radius range keeps the
        // vectorized `radius − 1` and `q + radius` inside i32. (Radii 0 and 1
        // have no in-range quotient: the scalar path escapes every value.)
        done = unsafe { avx2::quantize_rounded_chunks(values, bin, radius, codes, exact) };
    }
    let _ = level;
    for &value in &values[done..] {
        quantize_one(value, bin, radius, codes, exact);
    }
}

/// The AVX2 forms. Public so the SZ Lorenzo band (`lcc_sz::lorenzo`) rounds
/// with the same sequence.
#[cfg(target_arch = "x86_64")]
pub mod avx2 {
    // Sanctioned `unsafe_code` waiver (see `crate::dispatch`): `core::arch`
    // intrinsics are unsafe by definition; callers hold the feature guard
    // and the tier-identity tests pin scalar equivalence.
    #![allow(unsafe_code)]

    use std::arch::x86_64::*;

    /// `f64::round` on four lanes: truncate, then add ±1 where the discarded
    /// fraction reaches one half. NaN and ±∞ pass through.
    ///
    /// # Safety
    /// Requires AVX2.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub unsafe fn round_half_away(x: __m256d) -> __m256d {
        let sign_mask = _mm256_set1_pd(-0.0);
        let t = _mm256_round_pd::<{ _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC }>(x);
        let frac = _mm256_sub_pd(x, t);
        let absfrac = _mm256_andnot_pd(sign_mask, frac);
        let ge_half = _mm256_cmp_pd::<_CMP_GE_OQ>(absfrac, _mm256_set1_pd(0.5));
        let signed_one = _mm256_or_pd(_mm256_set1_pd(1.0), _mm256_and_pd(x, sign_mask));
        _mm256_add_pd(t, _mm256_and_pd(ge_half, signed_one))
    }

    /// Quantize `values.len() & !3` values in 4-lane groups; returns the
    /// number handled. A group with every lane in range stores four codes
    /// at once; any other group goes through the scalar path value by value,
    /// which keeps the exact stream in order.
    ///
    /// # Safety
    /// Requires AVX2, spare capacity for `values.len()` codes in `codes`,
    /// and `2 ≤ radius ≤ 2^30`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn quantize_rounded_chunks(
        values: &[f64],
        bin: f64,
        radius: u32,
        codes: &mut Vec<u32>,
        exact: &mut Vec<f64>,
    ) -> usize {
        let n = values.len() & !3;
        let binv = _mm256_set1_pd(bin);
        let limit = _mm256_set1_pd(f64::from(radius - 1));
        let sign_mask = _mm256_set1_pd(-0.0);
        let radius_i = _mm_set1_epi32(radius as i32);
        for group in values[..n].chunks_exact(4) {
            let q = round_half_away(_mm256_div_pd(_mm256_loadu_pd(group.as_ptr()), binv));
            // The ordered compare is false for NaN, and ±∞ is not below the
            // limit: one predicate covers the scalar path's rejections.
            let in_range = _mm256_cmp_pd::<_CMP_LT_OQ>(_mm256_andnot_pd(sign_mask, q), limit);
            if _mm256_movemask_pd(in_range) == 0xF {
                // Integral |q| < radius − 1 < 2^30: the narrowing convert is
                // exact and `q + radius` stays inside i32.
                let codes4 = _mm_add_epi32(_mm256_cvtpd_epi32(q), radius_i);
                let len = codes.len();
                debug_assert!(codes.capacity() - len >= 4);
                _mm_storeu_si128(codes.as_mut_ptr().add(len) as *mut __m128i, codes4);
                codes.set_len(len + 4);
            } else {
                for &value in group {
                    super::quantize_one(value, bin, radius, codes, exact);
                }
            }
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::supported_levels;

    /// The libm-rounding loop the kernels replace (MGARD's historical
    /// coefficient quantizer), kept as the oracle.
    fn reference_quantize(values: &[f64], bin: f64, radius: u32) -> (Vec<u32>, Vec<f64>) {
        let radius = i64::from(radius);
        let (mut codes, mut exact) = (Vec::new(), Vec::new());
        for &c in values {
            let q = (c / bin).round();
            if !q.is_finite() || q.abs() as i64 >= radius - 1 {
                codes.push(0);
                exact.push(c);
            } else {
                codes.push((q as i64 + radius) as u32);
            }
        }
        (codes, exact)
    }

    fn xorshift(state: &mut u64) -> f64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state as f64 / u64::MAX as f64
    }

    #[test]
    fn scalar_rounding_equals_libm_round() {
        let mut state = 0x9E37_79B9u64;
        let mut cases = vec![
            0.0,
            -0.0,
            0.5,
            -0.5,
            1.5,
            -1.5,
            2.5,
            -2.5,
            0.499_999_999_999_999_94,
            -0.499_999_999_999_999_94,
            4_503_599_627_370_495.5, // 2^52 − 0.5, the last half-integer
            4_503_599_627_370_496.0,
            -4_503_599_627_370_497.0,
            9.0e18,
            -9.0e18,
        ];
        for _ in 0..20_000 {
            let magnitude = 10f64.powf(xorshift(&mut state) * 24.0 - 6.0);
            cases.push((xorshift(&mut state) - 0.5) * magnitude);
            cases.push((xorshift(&mut state) * 1e6).floor() + 0.5);
        }
        for x in cases {
            assert_eq!(round_half_away(x), x.round() as i64, "x = {x:e}");
        }
    }

    #[test]
    fn rounding_quantizer_matches_the_libm_loop_at_every_level() {
        let mut state = 0x517C_C1B7u64;
        for (bin, radius) in [(1e-3, 1u32 << 30), (0.25, 16), (1e-300, 1 << 30), (3e300, 4096)] {
            for len in [0usize, 1, 3, 4, 5, 8, 63, 64, 1025] {
                let values: Vec<f64> = (0..len)
                    .map(|k| match k % 9 {
                        0 => (k / 9) as f64 * bin * 0.5, // exact half-bin ties
                        1 => -((k / 9) as f64 + 0.5) * bin,
                        2 => bin * f64::from(radius), // just out of range
                        3 => -bin * (f64::from(radius) - 1.5), // edge of the range
                        4 => 1e300,
                        5 => -1e-300,
                        _ => (xorshift(&mut state) - 0.5) * bin * 2000.0,
                    })
                    .collect();
                let (codes_ref, exact_ref) = reference_quantize(&values, bin, radius);
                for &level in supported_levels() {
                    // Appends: both outputs start non-empty.
                    let (mut codes, mut exact) = (vec![7u32], vec![-1.0f64]);
                    quantize_rounded_at(level, &values, bin, radius, &mut codes, &mut exact);
                    assert_eq!(codes[0], 7);
                    assert_eq!(codes[1..], codes_ref, "bin={bin:e} len={len} level={level:?}");
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(
                        bits(&exact[1..]),
                        bits(&exact_ref),
                        "bin={bin:e} len={len} level={level:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn radii_outside_the_vector_range_take_the_scalar_path() {
        let values = [0.0, 1.0, -1.0, 3e9, -3e9, 0.5, 1e12, 2.5];
        // 0 and 1 leave no in-range quotient (everything escapes), 2 is the
        // smallest radius with a code, u32::MAX is past the i32 cap.
        for radius in [0, 1, 2, u32::MAX] {
            let (codes_ref, exact_ref) = reference_quantize(&values, 1.0, radius);
            for &level in supported_levels() {
                let (mut codes, mut exact) = (Vec::new(), Vec::new());
                quantize_rounded_at(level, &values, 1.0, radius, &mut codes, &mut exact);
                assert_eq!(codes, codes_ref, "radius={radius} level={level:?}");
                assert_eq!(exact, exact_ref, "radius={radius} level={level:?}");
            }
        }
    }
}
