//! Linear-scale quantization of prediction residuals.

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
/// into the code/exact streams and the reconstruction row. The cells are
/// independent (unlike the Lorenzo recurrence, which `crate::lorenzo`
/// overlaps on its own AVX2 band), and one scalar loop serves every tier: a
/// four-lane AVX2 form of it changed no `sz` or `sz-rans8` encode beyond its
/// run-to-run noise, whole fields or 64 × 64 tiles.
pub fn quantize_plane_row(
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
    for (j, (&value, cell)) in orig.iter().zip(recon.iter_mut()).enumerate() {
        let prediction = base + c2 * j as f64;
        match quantizer.quantize(value, prediction) {
            Some((code, reconstructed)) => {
                codes.push(code);
                *cell = reconstructed;
            }
            None => {
                codes.push(UNPREDICTABLE);
                exact.push(value);
                *cell = value;
            }
        }
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
