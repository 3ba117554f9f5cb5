//! Per-block encoding: block-floating-point conversion, transform, and
//! tolerance-driven bit-plane truncation.
//!
//! Each 4×4 block is coded on its own, in field order: classify it, quantize
//! and forward-transform it, then write its bits. Decoding reads a block's
//! bits and inverse-transforms it before the next block is read.

use crate::transform::{fwd_transform, inv_transform, INVERSE_ERROR_GAIN, INVERSE_ERROR_OFFSET};
use crate::BLOCK_LEN;
use lcc_lossless::{BitReader, BitWriter, CodecError};

/// Block wire types.
const TYPE_ZERO: u64 = 0; // every value reconstructs to 0.0 (|v| ≤ eb for all)
const TYPE_CODED: u64 = 1; // transform-coded block
const TYPE_EXACT: u64 = 2; // raw IEEE754 fallback

/// Bias applied to the block exponent so it is stored as an unsigned field.
const EXPONENT_BIAS: i32 = 2048;

/// Encode one 4×4 block under the absolute error bound `eb`. `precision` is
/// at most 48, the widest the stream header admits.
pub fn encode_block(writer: &mut BitWriter, values: &[f64; BLOCK_LEN], eb: f64, precision: u32) {
    debug_assert!(precision <= 48, "precision {precision} exceeds the stream's 48");
    let maxabs = values.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
    if maxabs <= eb {
        writer.write_bits(TYPE_ZERO, 2);
        return;
    }

    // Block-floating-point alignment: maxabs < 2^e.
    let e = maxabs.log2().floor() as i32 + 1;
    let scale = (precision as i32 - e) as f64;
    let s = scale.exp2();
    // eb in integer units, minus the 0.5 fixed-point rounding slack.
    let budget = eb * s - 0.5;

    if budget < 0.0 || !(-(EXPONENT_BIAS - 1)..=EXPONENT_BIAS - 1).contains(&e) {
        // Cannot guarantee the bound within the fixed-point representation.
        write_exact(writer, values);
        return;
    }

    // Quantize to fixed point, then decorrelate.
    let mut coeffs = values.map(|v| (v * s).round() as i64);
    fwd_transform(&mut coeffs);

    // Deepest low bit plane we may drop: GAIN·(2^k − 1) + OFFSET ≤ budget.
    let mut kmin: u32 = 0;
    while kmin < 62 {
        let k = kmin + 1;
        let err =
            INVERSE_ERROR_GAIN as f64 * ((1u64 << k) - 1) as f64 + INVERSE_ERROR_OFFSET as f64;
        if err <= budget {
            kmin = k;
        } else {
            break;
        }
    }

    writer.write_bits(TYPE_CODED, 2);
    writer.write_bits((e + EXPONENT_BIAS) as u64, 12);
    writer.write_bits(u64::from(kmin), 6);
    // Per-coefficient variable-width coding of the truncated magnitudes: a
    // 6-bit width, then (for non-zero magnitudes) a sign bit and the
    // magnitude bits. Smooth blocks spend ~7 bits on each high-frequency
    // coefficient while the DC term keeps full precision — the same "pay
    // for what the block contains" behaviour ZFP's embedded coding has. The
    // three fields go in one append: a coefficient has at most
    // `precision + 3` ≤ 51 bits.
    for &c in &coeffs {
        let mag = c.unsigned_abs() >> kmin;
        let width = 64 - mag.leading_zeros();
        if width == 0 {
            writer.write_bits(0, 6);
        } else {
            let head = (u64::from(width) << 1) | u64::from(c < 0);
            writer.write_bits((head << width) | mag, width + 7);
        }
    }
}

fn write_exact(writer: &mut BitWriter, values: &[f64; BLOCK_LEN]) {
    writer.write_bits(TYPE_EXACT, 2);
    for v in values {
        writer.write_bits(v.to_bits(), 64);
    }
}

/// Decode one block written by [`encode_block`].
pub fn decode_block(
    reader: &mut BitReader<'_>,
    precision: u32,
) -> Result<[f64; BLOCK_LEN], CodecError> {
    let mut out = [0.0; BLOCK_LEN];
    match reader.read_bits(2)? {
        TYPE_ZERO => {}
        TYPE_EXACT => {
            for v in &mut out {
                *v = f64::from_bits(reader.read_bits(64)?);
            }
        }
        TYPE_CODED => {
            let e = reader.read_bits(12)? as i32 - EXPONENT_BIAS;
            let kmin = reader.read_bits(6)? as u32;
            if kmin > 62 {
                return Err(CodecError::Corrupt("implausible truncation depth".into()));
            }
            let mut coeffs = [0i64; BLOCK_LEN];
            for c in &mut coeffs {
                let width = reader.read_bits(6)? as u32;
                if width == 0 {
                    continue;
                }
                // `width + kmin` is the coefficient's bit length, and an
                // `i64` holds 63 magnitude bits. The encoder's values are at
                // most 2^precision and the transform grows them at most 4×:
                // it writes at most `precision + 3` bits.
                if width + kmin > 63 {
                    return Err(CodecError::Corrupt("implausible coefficient width".into()));
                }
                // Sign and magnitude in one read of at most 64 bits.
                let bits = reader.read_bits(width + 1)?;
                let (negative, mag) = (bits >> width == 1, bits & (u64::MAX >> (64 - width)));
                let mag = (mag << kmin) as i64;
                *c = if negative { -mag } else { mag };
            }
            inv_transform(&mut coeffs);
            let s = ((precision as i32 - e) as f64).exp2();
            for (v, &c) in out.iter_mut().zip(coeffs.iter()) {
                *v = c as f64 / s;
            }
        }
        other => return Err(CodecError::Corrupt(format!("unknown block type {other}"))),
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(values: [f64; BLOCK_LEN], eb: f64) -> [f64; BLOCK_LEN] {
        let mut w = BitWriter::new();
        encode_block(&mut w, &values, eb, 40);
        let bytes = w.finish().to_vec();
        let mut r = BitReader::new(&bytes);
        decode_block(&mut r, 40).unwrap()
    }

    fn max_err(a: &[f64; BLOCK_LEN], b: &[f64; BLOCK_LEN]) -> f64 {
        a.iter().zip(b.iter()).map(|(x, y)| (x - y).abs()).fold(0.0, f64::max)
    }

    #[test]
    fn zero_block_type_for_tiny_values() {
        let values = [1e-9; BLOCK_LEN];
        let out = roundtrip(values, 1e-3);
        assert_eq!(out, [0.0; BLOCK_LEN]);
    }

    #[test]
    fn smooth_block_respects_bound_and_is_small() {
        let mut values = [0.0; BLOCK_LEN];
        for i in 0..4 {
            for j in 0..4 {
                values[i * 4 + j] = 5.0 + 0.01 * i as f64 + 0.02 * j as f64;
            }
        }
        for eb in [1e-6, 1e-4, 1e-2] {
            let mut w = BitWriter::new();
            encode_block(&mut w, &values, eb, 40);
            let bits = w.bit_len();
            let bytes = w.finish().to_vec();
            let mut r = BitReader::new(&bytes);
            let out = decode_block(&mut r, 40).unwrap();
            assert!(max_err(&values, &out) <= eb, "eb={eb}");
            // Far below the 16*64 = 1024 bits of raw storage.
            assert!(bits < 700, "eb={eb} used {bits} bits");
        }
    }

    #[test]
    fn random_blocks_respect_bound() {
        let mut s = 42u64;
        for _ in 0..200 {
            let mut values = [0.0; BLOCK_LEN];
            for v in &mut values {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                *v = (s as f64 / u64::MAX as f64) * 20.0 - 10.0;
            }
            for eb in [1e-5, 1e-3, 1e-1] {
                let out = roundtrip(values, eb);
                assert!(max_err(&values, &out) <= eb, "eb={eb}");
            }
        }
    }

    #[test]
    fn exact_fallback_for_extreme_dynamic_range() {
        let mut values = [1e-12; BLOCK_LEN];
        values[3] = 1e9;
        // eb so small relative to the block exponent that coding cannot
        // guarantee it: must fall back to exact storage and be lossless.
        let out = roundtrip(values, 1e-9);
        assert_eq!(out, values);
    }

    #[test]
    fn looser_bounds_use_fewer_bits() {
        let mut values = [0.0; BLOCK_LEN];
        let mut s = 7u64;
        for v in &mut values {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            *v = (s as f64 / u64::MAX as f64).sin();
        }
        let mut bits = Vec::new();
        for eb in [1e-6, 1e-4, 1e-2] {
            let mut w = BitWriter::new();
            encode_block(&mut w, &values, eb, 40);
            bits.push(w.bit_len());
        }
        assert!(bits[0] >= bits[1] && bits[1] >= bits[2], "{bits:?}");
    }

    #[test]
    fn coefficients_stay_within_the_width_check() {
        // Every sign pattern of ±2^40, the corners of a 40-bit block: the
        // transform grows them at most 4×, far below a 63-bit coefficient.
        let bound = 1i64 << 40;
        let mut widest = 0;
        for signs in 0..1u32 << BLOCK_LEN {
            let mut block: [i64; BLOCK_LEN] =
                std::array::from_fn(|k| if signs >> k & 1 == 1 { -bound } else { bound });
            fwd_transform(&mut block);
            for c in block {
                assert!(c.unsigned_abs() <= 4 * bound.unsigned_abs(), "{c}");
                widest = widest.max(64 - c.unsigned_abs().leading_zeros());
            }
        }
        assert_eq!(widest, 43);
    }

    /// One coded block whose first coefficient is `±mag << kmin`, written as
    /// a `width`-bit magnitude, and whose other coefficients are zero.
    fn forged_block(kmin: u64, width: u32, negative: bool, mag: u64) -> Vec<u8> {
        let mut w = BitWriter::new();
        w.write_bits(TYPE_CODED, 2);
        w.write_bits(EXPONENT_BIAS as u64, 12);
        w.write_bits(kmin, 6);
        w.write_bits(u64::from(width), 6);
        w.write_bits(u64::from(negative), 1);
        w.write_bits(mag, width);
        for _ in 1..BLOCK_LEN {
            w.write_bits(0, 6);
        }
        w.finish().to_vec()
    }

    #[test]
    fn coefficients_wider_than_63_bits_are_refused() {
        // 60 magnitude bits above 4 truncated planes: 64 bits, and the shift
        // into an `i64` used to drop the top one without a word.
        for (kmin, width) in [(4, 60), (62, 2), (10, 63), (1, 63)] {
            let bytes = forged_block(kmin, width, false, 1 << (width - 1));
            let got = decode_block(&mut BitReader::new(&bytes), 40);
            assert!(matches!(got, Err(CodecError::Corrupt(_))), "kmin {kmin} width {width}");
        }
        // 63 bits decode, as do narrower coefficients.
        for (kmin, width) in [(3, 60), (0, 63), (8, 55), (0, 55)] {
            let mag = (1 << (width - 1)) | 0x5A5;
            for negative in [false, true] {
                let bytes = forged_block(kmin, width, negative, mag);
                let got = decode_block(&mut BitReader::new(&bytes), 40).expect("plausible width");
                let c = (mag << kmin) as i64;
                let mut expected = [0i64; BLOCK_LEN];
                expected[0] = if negative { -c } else { c };
                inv_transform(&mut expected);
                let expected = expected.map(|c| c as f64 / 2f64.powi(40));
                assert_eq!(got, expected, "kmin {kmin} width {width} negative {negative}");
            }
        }
    }

    #[test]
    fn truncated_block_stream_errors() {
        let mut w = BitWriter::new();
        encode_block(&mut w, &[1.25; BLOCK_LEN], 1e-6, 40);
        let bytes = w.finish().to_vec();
        let mut r = BitReader::new(&bytes[..1]);
        // With only one byte the block payload is missing.
        assert!(decode_block(&mut r, 40).is_err() || bytes.len() <= 1);
    }
}
