//! Linear-scale quantization of prediction residuals.

use lcc_lossless::dispatch::SimdLevel;
use lcc_lossless::round::round_half_away;

/// Code reserved for values that cannot be represented within the
/// quantization radius and are therefore stored exactly.
pub const UNPREDICTABLE: u32 = 0;

/// Linear-scale quantizer with bin width `2ε` centred on the prediction.
///
/// A residual `r = value − prediction` maps to the integer
/// `code = round(r / 2ε)`; the reconstructed value `prediction + code·2ε`
/// then differs from the original by at most `ε`. Codes are shifted by the
/// radius so they are non-negative `u32` symbols for the Huffman stage, with
/// `0` reserved for "unpredictable".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantizer {
    error_bound: f64,
    radius: u32,
}

impl Quantizer {
    /// Create a quantizer for the given absolute error bound and radius.
    ///
    /// # Panics
    /// Panics if the bound is not positive/finite or the radius is < 2.
    pub fn new(error_bound: f64, radius: u32) -> Self {
        assert!(error_bound.is_finite() && error_bound > 0.0, "error bound must be positive");
        assert!(radius >= 2, "radius must be at least 2");
        Quantizer { error_bound, radius }
    }

    /// The absolute error bound.
    pub fn error_bound(&self) -> f64 {
        self.error_bound
    }

    /// The quantization radius.
    pub fn radius(&self) -> u32 {
        self.radius
    }

    /// Quantize `value` against `prediction`.
    ///
    /// Returns `Some((code, reconstructed))` when the residual fits in the
    /// radius **and** the reconstruction actually satisfies the bound
    /// (guarding against floating-point round-off on huge magnitudes);
    /// `None` means the value must be stored exactly.
    #[inline]
    pub fn quantize(&self, value: f64, prediction: f64) -> Option<(u32, f64)> {
        let diff = value - prediction;
        let scaled = diff / (2.0 * self.error_bound);
        if !scaled.is_finite() || scaled.abs() >= (self.radius - 1) as f64 {
            return None;
        }
        // `scaled.round()` without the libm call, which would sit on the
        // Lorenzo dependency chain (|scaled| < 2^32 here).
        let q = round_half_away(scaled);
        let reconstructed = prediction + q as f64 * 2.0 * self.error_bound;
        if (reconstructed - value).abs() > self.error_bound {
            return None;
        }
        // Shift into the symbol alphabet: code 0 is reserved.
        let code = (q + i64::from(self.radius)) as u32;
        Some((code, reconstructed))
    }

    /// Invert [`Quantizer::quantize`] for a non-zero code.
    #[inline]
    pub fn dequantize(&self, code: u32, prediction: f64) -> f64 {
        debug_assert_ne!(code, UNPREDICTABLE, "unpredictable codes carry no quantized value");
        let q = i64::from(code) - i64::from(self.radius);
        prediction + q as f64 * 2.0 * self.error_bound
    }
}

/// Predict-and-quantize one row of a regression (plane-predicted) block:
/// `prediction = (c0 + c1·di) + c2·dj` per cell, then [`Quantizer::quantize`]
/// into the code/exact streams and the reconstruction row. This is the
/// independent-per-cell half of the SZ encode hot loop (the Lorenzo
/// recurrence runs through the just-written neighbour; `crate::lorenzo`
/// overlaps several of those chains instead), so it vectorizes: the AVX2 tier runs 4 f64 lanes per iteration
/// with the exact scalar rounding sequence — `lcc_lossless::round`'s
/// truncate-plus-half-test, reconstruction multiplied in the scalar's
/// `(q·2)·ε` order — so codes, exact values, and reconstructions are
/// bit-identical at every tier. Chunks with any unpredictable lane replay
/// those four cells through the scalar quantizer to keep the exact-stream
/// order.
// Sanctioned `unsafe_code` waiver (see `lcc_lossless::dispatch`): the shim
// holds the feature-detection guard that makes the AVX2 kernel legal.
#[allow(unsafe_code)]
#[allow(clippy::too_many_arguments)]
pub fn quantize_plane_row_at(
    level: SimdLevel,
    quantizer: &Quantizer,
    plane: &[f64; 3],
    di: usize,
    orig: &[f64],
    recon: &mut [f64],
    codes: &mut Vec<u32>,
    exact: &mut Vec<f64>,
) {
    assert_eq!(orig.len(), recon.len(), "row slices must align");
    let base = plane[0] + plane[1] * di as f64;
    let c2 = plane[2];
    let mut dj = 0usize;
    #[cfg(target_arch = "x86_64")]
    if level >= SimdLevel::Avx2 && orig.len() >= 4 && quantizer.radius <= (1 << 30) {
        // SAFETY: AVX2 presence is guaranteed by dispatch; the slice lengths
        // were just asserted equal, and the radius cap keeps the vectorized
        // `q + radius` inside i32.
        dj = unsafe { simd::quantize_plane_chunks(quantizer, base, c2, orig, recon, codes, exact) };
    }
    let _ = level;
    for j in dj..orig.len() {
        let prediction = base + c2 * j as f64;
        match quantizer.quantize(orig[j], prediction) {
            Some((code, reconstructed)) => {
                codes.push(code);
                recon[j] = reconstructed;
            }
            None => {
                codes.push(UNPREDICTABLE);
                exact.push(orig[j]);
                recon[j] = orig[j];
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod simd {
    // Sanctioned `unsafe_code` waiver (see `lcc_lossless::dispatch`):
    // `core::arch` intrinsics are unsafe by definition; the caller holds the
    // feature guard and the bit-identity suite pins scalar equivalence.
    #![allow(unsafe_code)]

    use super::{Quantizer, UNPREDICTABLE};
    use lcc_lossless::round::avx2::round_half_away;
    use std::arch::x86_64::*;

    /// Quantize `orig.len() & !3` cells in 4-lane chunks; returns the number
    /// of cells handled. Every chunk either passes both predictability tests
    /// in all four lanes (vector store of codes and reconstructions) or is
    /// replayed through the scalar quantizer cell by cell, so the emitted
    /// streams match the scalar loop exactly.
    ///
    /// # Safety
    /// Requires AVX2, `recon.len() == orig.len()`, and
    /// `quantizer.radius ≤ 2^30`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn quantize_plane_chunks(
        quantizer: &Quantizer,
        base: f64,
        c2: f64,
        orig: &[f64],
        recon: &mut [f64],
        codes: &mut Vec<u32>,
        exact: &mut Vec<f64>,
    ) -> usize {
        let n = orig.len() & !3;
        let eb = quantizer.error_bound;
        let radius = quantizer.radius;
        let basev = _mm256_set1_pd(base);
        let c2v = _mm256_set1_pd(c2);
        let two_ebv = _mm256_set1_pd(2.0 * eb);
        let ebv = _mm256_set1_pd(eb);
        let twov = _mm256_set1_pd(2.0);
        let radv = _mm256_set1_pd((radius - 1) as f64);
        let sign_mask = _mm256_set1_pd(-0.0);
        let radius_i = _mm_set1_epi32(radius as i32);
        // One code per cell over the whole row: reserving up front lets the
        // all-predictable path store four codes with one 128-bit write.
        codes.reserve(orig.len());
        let mut j = 0usize;
        while j < n {
            let djv = _mm256_set_pd((j + 3) as f64, (j + 2) as f64, (j + 1) as f64, j as f64);
            let predv = _mm256_add_pd(basev, _mm256_mul_pd(c2v, djv));
            let valv = _mm256_loadu_pd(orig.as_ptr().add(j));
            let scaledv = _mm256_div_pd(_mm256_sub_pd(valv, predv), two_ebv);
            // Predictability test 1: |scaled| < radius − 1. The ordered
            // compare is false for NaN/±inf scaled, matching the scalar
            // `!is_finite || abs >= …` rejection in one predicate.
            let absv = _mm256_andnot_pd(sign_mask, scaledv);
            let in_radius = _mm256_cmp_pd::<_CMP_LT_OQ>(absv, radv);
            let qv = round_half_away(scaledv);
            // Reconstruction in the scalar's operation order: (q · 2) · ε.
            let reconv = _mm256_add_pd(predv, _mm256_mul_pd(_mm256_mul_pd(qv, twov), ebv));
            // Predictability test 2: reject when |recon − value| > ε, with
            // the same NaN behaviour as the scalar `>` (NaN never rejects —
            // the ordered GT is false for NaN).
            let err = _mm256_andnot_pd(sign_mask, _mm256_sub_pd(reconv, valv));
            let reject = _mm256_cmp_pd::<_CMP_GT_OQ>(err, ebv);
            let ok = _mm256_andnot_pd(reject, in_radius);
            if _mm256_movemask_pd(ok) == 0xF {
                _mm256_storeu_pd(recon.as_mut_ptr().add(j), reconv);
                // Integral |q| ≤ radius − 1 < 2^30: the narrowing convert is
                // exact and `q + radius` stays inside i32.
                let codes4 = _mm_add_epi32(_mm256_cvtpd_epi32(qv), radius_i);
                let len = codes.len();
                debug_assert!(codes.capacity() - len >= 4);
                _mm_storeu_si128(codes.as_mut_ptr().add(len) as *mut __m128i, codes4);
                codes.set_len(len + 4);
            } else {
                for k in j..j + 4 {
                    let prediction = base + c2 * k as f64;
                    match quantizer.quantize(orig[k], prediction) {
                        Some((code, reconstructed)) => {
                            codes.push(code);
                            recon[k] = reconstructed;
                        }
                        None => {
                            codes.push(UNPREDICTABLE);
                            exact.push(orig[k]);
                            recon[k] = orig[k];
                        }
                    }
                }
            }
            j += 4;
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantize_respects_bound_for_many_residuals() {
        let q = Quantizer::new(1e-3, 32768);
        for k in -2000..2000 {
            let prediction = 10.0;
            let value = prediction + k as f64 * 1.3e-4;
            let (code, recon) = q.quantize(value, prediction).expect("in range");
            assert_ne!(code, UNPREDICTABLE);
            assert!((recon - value).abs() <= 1e-3 + 1e-15);
            assert_eq!(q.dequantize(code, prediction), recon);
        }
    }

    #[test]
    fn zero_residual_maps_to_radius_code() {
        let q = Quantizer::new(1e-2, 100);
        let (code, recon) = q.quantize(5.0, 5.0).unwrap();
        assert_eq!(code, 100);
        assert_eq!(recon, 5.0);
    }

    #[test]
    fn out_of_radius_residual_is_unpredictable() {
        let q = Quantizer::new(1e-6, 16);
        assert!(q.quantize(1.0, 0.0).is_none());
        // Inside the radius it works.
        assert!(q.quantize(1e-6 * 10.0, 0.0).is_some());
    }

    #[test]
    fn non_finite_scaled_residual_is_unpredictable() {
        let q = Quantizer::new(1e-300, 32768);
        assert!(q.quantize(1e300, -1e300).is_none());
    }

    #[test]
    fn roundtrip_through_codes() {
        let q = Quantizer::new(5e-4, 4096);
        let prediction = -3.25;
        for value in [-3.25, -3.2501, -3.0, -3.3, -2.9] {
            if let Some((code, recon)) = q.quantize(value, prediction) {
                assert_eq!(q.dequantize(code, prediction), recon);
                assert!((recon - value).abs() <= 5e-4 * 1.0000001);
            }
        }
    }

    #[test]
    fn plane_row_kernel_matches_scalar_at_every_level() {
        use lcc_lossless::dispatch::supported_levels;
        let quantizer = Quantizer::new(1e-3, 32768);
        let plane = [2.5f64, 0.125, -0.0625];
        let mut state = 0x243F_6A88u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state as f64 / u64::MAX as f64
        };
        // Rows mixing predictable cells, near-tie residuals (the round
        // emulation's hard case), and unpredictable spikes; lengths cover
        // the chunk boundary and the scalar tail.
        for len in [1usize, 3, 4, 5, 8, 63, 64, 257] {
            for di in [0usize, 7] {
                let orig: Vec<f64> = (0..len)
                    .map(|j| {
                        let pred = (plane[0] + plane[1] * di as f64) + plane[2] * j as f64;
                        match j % 7 {
                            0 => pred + (rng() - 0.5) * 0.04,
                            1 => pred + ((j / 7) as f64) * 1e-3, // exact half-bin ties
                            2 => pred + 1e6,                     // unpredictable spike
                            _ => pred + (rng() - 0.5) * 2e-3,
                        }
                    })
                    .collect();
                let mut recon_ref = vec![0.0f64; len];
                let mut codes_ref = Vec::new();
                let mut exact_ref = Vec::new();
                quantize_plane_row_at(
                    SimdLevel::Scalar,
                    &quantizer,
                    &plane,
                    di,
                    &orig,
                    &mut recon_ref,
                    &mut codes_ref,
                    &mut exact_ref,
                );
                for &level in supported_levels() {
                    let mut recon = vec![0.0f64; len];
                    let mut codes = Vec::new();
                    let mut exact = Vec::new();
                    quantize_plane_row_at(
                        level, &quantizer, &plane, di, &orig, &mut recon, &mut codes, &mut exact,
                    );
                    assert_eq!(codes, codes_ref, "codes len={len} di={di} level={level:?}");
                    assert_eq!(exact, exact_ref, "exact len={len} di={di} level={level:?}");
                    let bits: Vec<u64> = recon.iter().map(|v| v.to_bits()).collect();
                    let bits_ref: Vec<u64> = recon_ref.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(bits, bits_ref, "recon len={len} di={di} level={level:?}");
                }
            }
        }
    }

    #[test]
    fn accessors() {
        let q = Quantizer::new(1e-4, 64);
        assert_eq!(q.error_bound(), 1e-4);
        assert_eq!(q.radius(), 64);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_bound_panics() {
        let _ = Quantizer::new(0.0, 64);
    }

    #[test]
    #[should_panic(expected = "radius")]
    fn tiny_radius_panics() {
        let _ = Quantizer::new(1e-3, 1);
    }
}
