//! Per-block encoding: block-floating-point conversion, transform, and
//! tolerance-driven bit-plane truncation.
//!
//! Blocks are encoded and decoded in batches of up to [`TRANSFORM_BATCH`]
//! consecutive blocks: the classification/quantization and bit-level I/O
//! phases run per block, but the decorrelating transforms of a whole batch
//! go through **one** dispatch call
//! ([`crate::transform::fwd_transform_batch_at`]) — the 4×4 lift is
//! load/store/call-bound, so amortizing the call is what makes the AVX2
//! tier pay. The stream is bit-identical to per-block encoding.

use crate::transform::{
    fwd_transform_batch_at, inv_transform_batch_at, INVERSE_ERROR_GAIN, INVERSE_ERROR_OFFSET,
};
use crate::BLOCK_LEN;
use lcc_lossless::{simd_level, BitReader, BitWriter, CodecError};

/// Block wire types.
const TYPE_ZERO: u64 = 0; // every value reconstructs to 0.0 (|v| ≤ eb for all)
const TYPE_CODED: u64 = 1; // transform-coded block
const TYPE_EXACT: u64 = 2; // raw IEEE754 fallback

/// Bias applied to the block exponent so it is stored as an unsigned field.
const EXPONENT_BIAS: i32 = 2048;

/// Number of consecutive blocks buffered per transform dispatch call.
pub const TRANSFORM_BATCH: usize = 4;

/// What the write phase emits for one block, decided in the prepare phase.
enum EncPlan {
    Zero,
    Exact,
    Coded { e: i32, kmin: u32, slot: usize },
}

/// Encode up to [`TRANSFORM_BATCH`] consecutive 4×4 blocks under the
/// absolute error bound `eb`, forward-transforming the whole batch through
/// one dispatch call. Bit-identical to encoding the blocks one per call.
pub fn encode_blocks(writer: &mut BitWriter, blocks: &[[f64; BLOCK_LEN]], eb: f64, precision: u32) {
    assert!(blocks.len() <= TRANSFORM_BATCH);
    let mut plans: [EncPlan; TRANSFORM_BATCH] = std::array::from_fn(|_| EncPlan::Zero);
    let mut coeffs = [[0i64; BLOCK_LEN]; TRANSFORM_BATCH];
    let mut coded = 0usize;

    // Prepare: classify each block and quantize the transform-coded ones.
    for (plan, values) in plans.iter_mut().zip(blocks.iter()) {
        let maxabs = values.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
        if maxabs <= eb {
            *plan = EncPlan::Zero;
            continue;
        }

        // Block-floating-point alignment: maxabs < 2^e.
        let e = maxabs.log2().floor() as i32 + 1;
        let scale = (precision as i32 - e) as f64;
        let s = scale.exp2();
        // eb in integer units, minus the 0.5 fixed-point rounding slack.
        let budget = eb * s - 0.5;

        if budget < 0.0 || !(-(EXPONENT_BIAS - 1)..=EXPONENT_BIAS - 1).contains(&e) {
            // Cannot guarantee the bound within the fixed-point representation.
            *plan = EncPlan::Exact;
            continue;
        }

        // Quantize to fixed point; the batch transform decorrelates below.
        for (c, v) in coeffs[coded].iter_mut().zip(values.iter()) {
            *c = (v * s).round() as i64;
        }

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

        *plan = EncPlan::Coded { e, kmin, slot: coded };
        coded += 1;
    }

    fwd_transform_batch_at(simd_level(), &mut coeffs[..coded]);

    // Write: emit the blocks in their original order.
    for (plan, values) in plans.iter().zip(blocks.iter()) {
        match *plan {
            EncPlan::Zero => writer.write_bits(TYPE_ZERO, 2),
            EncPlan::Exact => write_exact(writer, values),
            EncPlan::Coded { e, kmin, slot } => {
                writer.write_bits(TYPE_CODED, 2);
                writer.write_bits((e + EXPONENT_BIAS) as u64, 12);
                writer.write_bits(u64::from(kmin), 6);
                // Per-coefficient variable-width coding of the truncated
                // magnitudes: a 6-bit width, then (for non-zero magnitudes)
                // a sign bit and the magnitude bits. Smooth blocks spend ~7
                // bits on each high-frequency coefficient while the DC term
                // keeps full precision — the same "pay for what the block
                // contains" behaviour ZFP's embedded coding has.
                for &c in &coeffs[slot] {
                    let mag = c.unsigned_abs() >> kmin;
                    let width = 64 - mag.leading_zeros();
                    writer.write_bits(u64::from(width), 6);
                    if width > 0 {
                        writer.write_bit(c < 0);
                        writer.write_bits(mag, width);
                    }
                }
            }
        }
    }
}

fn write_exact(writer: &mut BitWriter, values: &[f64; BLOCK_LEN]) {
    writer.write_bits(TYPE_EXACT, 2);
    for v in values {
        writer.write_bits(v.to_bits(), 64);
    }
}

/// Decode up to [`TRANSFORM_BATCH`] consecutive blocks into `out`,
/// inverse-transforming the whole batch through one dispatch call. Reads
/// the same bits and reports the same errors as per-block decoding.
pub fn decode_blocks(
    reader: &mut BitReader<'_>,
    _eb: f64,
    precision: u32,
    out: &mut [[f64; BLOCK_LEN]],
) -> Result<(), CodecError> {
    assert!(out.len() <= TRANSFORM_BATCH);
    // `usize::MAX` marks "already materialized" (zero or exact blocks);
    // otherwise the value is the block's coefficient slot.
    let mut slots = [usize::MAX; TRANSFORM_BATCH];
    let mut exps = [0i32; TRANSFORM_BATCH];
    let mut coeffs = [[0i64; BLOCK_LEN]; TRANSFORM_BATCH];
    let mut coded = 0usize;

    for (i, block_out) in out.iter_mut().enumerate() {
        let block_type = reader.read_bits(2)?;
        match block_type {
            TYPE_ZERO => *block_out = [0.0; BLOCK_LEN],
            TYPE_EXACT => {
                for v in block_out.iter_mut() {
                    *v = f64::from_bits(reader.read_bits(64)?);
                }
            }
            TYPE_CODED => {
                let e = reader.read_bits(12)? as i32 - EXPONENT_BIAS;
                let kmin = reader.read_bits(6)? as u32;
                if kmin > 62 {
                    return Err(CodecError::Corrupt("implausible truncation depth".into()));
                }
                for c in &mut coeffs[coded] {
                    let width = reader.read_bits(6)? as u32;
                    if width > 63 {
                        return Err(CodecError::Corrupt("implausible coefficient width".into()));
                    }
                    if width > 0 {
                        let negative = reader.read_bit()?;
                        let mag = (reader.read_bits(width)? as i64) << kmin;
                        // `wrapping_neg`: a damaged stream may code `i64::MIN`.
                        *c = if negative { mag.wrapping_neg() } else { mag };
                    } else {
                        *c = 0;
                    }
                }
                slots[i] = coded;
                exps[i] = e;
                coded += 1;
            }
            other => return Err(CodecError::Corrupt(format!("unknown block type {other}"))),
        }
    }

    inv_transform_batch_at(simd_level(), &mut coeffs[..coded]);

    for (i, block_out) in out.iter_mut().enumerate() {
        if slots[i] == usize::MAX {
            continue;
        }
        let s = ((precision as i32 - exps[i]) as f64).exp2();
        for (v, &c) in block_out.iter_mut().zip(coeffs[slots[i]].iter()) {
            *v = c as f64 / s;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Encode one 4×4 block under the absolute error bound `eb`. Equivalent to
    /// a one-block [`encode_blocks`] batch.
    fn encode_block(writer: &mut BitWriter, values: &[f64; BLOCK_LEN], eb: f64, precision: u32) {
        encode_blocks(writer, std::slice::from_ref(values), eb, precision);
    }

    /// Decode one block previously written by [`encode_block`]. Equivalent to a
    /// one-block [`decode_blocks`] batch.
    fn decode_block(
        reader: &mut BitReader<'_>,
        eb: f64,
        precision: u32,
    ) -> Result<[f64; BLOCK_LEN], CodecError> {
        let mut out = [[0.0; BLOCK_LEN]; 1];
        decode_blocks(reader, eb, precision, &mut out)?;
        Ok(out[0])
    }

    fn roundtrip(values: [f64; BLOCK_LEN], eb: f64) -> [f64; BLOCK_LEN] {
        let mut w = BitWriter::new();
        encode_block(&mut w, &values, eb, 40);
        let bytes = w.as_bytes().to_vec();
        let mut r = BitReader::new(&bytes);
        decode_block(&mut r, eb, 40).unwrap()
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
            let bytes = w.as_bytes().to_vec();
            let mut r = BitReader::new(&bytes);
            let out = decode_block(&mut r, eb, 40).unwrap();
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
    fn truncated_block_stream_errors() {
        let mut w = BitWriter::new();
        encode_block(&mut w, &[1.25; BLOCK_LEN], 1e-6, 40);
        let bytes = w.as_bytes().to_vec();
        let mut r = BitReader::new(&bytes[..1]);
        // With only one byte the block payload is missing.
        assert!(decode_block(&mut r, 1e-6, 40).is_err() || bytes.len() <= 1);
    }
}
