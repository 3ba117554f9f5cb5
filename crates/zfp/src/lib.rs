//! # lcc-zfp — a ZFP-style transform-based error-bounded lossy compressor
//!
//! A from-scratch Rust reimplementation of the ZFP fixed-accuracy pipeline
//! used in the paper, preserving the structural properties the study relies
//! on:
//!
//! 1. the field is partitioned into independent **4×4 blocks** (edge blocks
//!    are padded by replication),
//! 2. each block is converted to a **block-floating-point** fixed-point
//!    representation aligned to the block's largest exponent,
//! 3. a **reversible near-orthogonal integer transform** (a two-level
//!    S-transform applied to rows then columns — playing the role of ZFP's
//!    lifted transform) decorrelates the block,
//! 4. coefficients are coded **most-significant bit plane first** and
//!    truncated at the bit plane allowed by the absolute error tolerance,
//!    exactly like ZFP's accuracy mode: smooth blocks need few planes, rough
//!    blocks need many.
//!
//! Truncation depths are chosen so the worst-case reconstruction error
//! (truncation + fixed-point rounding propagated through the inverse
//! transform) stays below the requested bound; blocks where even that cannot
//! be guaranteed (pathological dynamic range vs. tolerance) are stored
//! exactly. Integration tests assert the observed maximum error against the
//! bound for every dataset family in the study.
//!
//! Blocks are coded one at a time, in row-major block order, by
//! [`codec::encode_block`] / [`codec::decode_block`]. The transform is
//! scalar at every SIMD tier: a batched AVX2 lift won a transform-only
//! kernel row but lost end to end to this per-block loop.
//!
//! ```
//! use lcc_grid::Field2D;
//! use lcc_pressio::{Compressor, ErrorBound};
//! use lcc_zfp::ZfpCompressor;
//!
//! let field = Field2D::from_fn(64, 64, |i, j| (i as f64 * 0.1).sin() * (j as f64 * 0.07).cos());
//! let zfp = ZfpCompressor::default();
//! let r = zfp.compress(&field, ErrorBound::Absolute(1e-3)).unwrap();
//! assert!(r.metrics.max_abs_error <= 1e-3);
//! assert!(r.metrics.compression_ratio > 1.0);
//! ```

pub mod block;
pub mod codec;
pub mod transform;

use lcc_grid::{Field2D, FieldView};
use lcc_lossless::{BitReader, BitWriter};
use lcc_pressio::{validate_finite_view, CompressError, Compressor, ErrorBound, ScratchArena};

/// Side length of a coding block (fixed at 4, as in ZFP's 2D mode).
pub const BLOCK_DIM: usize = 4;
/// Number of values in a coding block.
pub const BLOCK_LEN: usize = BLOCK_DIM * BLOCK_DIM;

/// Fixed-point precision (bits) of the block-floating-point conversion:
/// 40 leaves ample headroom for transform growth in `i64`. Streams record
/// it, and the decoder accepts any recorded value from 16 to 48.
const PRECISION_BITS: u32 = 40;

/// The ZFP-style compressor. See the crate-level documentation. Nothing to
/// configure (the precision is a constant): `default()` constructs it.
#[derive(Debug, Clone, Copy, Default)]
pub struct ZfpCompressor {}

const MAGIC: &[u8; 4] = b"LZF1";

/// Reusable working memory of the ZFP codec: the block bit stream
/// accumulator. One instance per sweep worker, held in a [`ScratchArena`].
#[derive(Debug, Default)]
pub struct ZfpScratch {
    writer: BitWriter,
}

impl ZfpCompressor {
    /// The compress pipeline over explicit scratch memory: what
    /// [`Compressor::compress_view_with`] runs on the arena's scratch. The
    /// stream does not depend on what the scratch held before.
    fn compress_into(
        &self,
        field: &FieldView<'_>,
        bound: ErrorBound,
        s: &mut ZfpScratch,
    ) -> Result<Vec<u8>, CompressError> {
        validate_finite_view(field)?;
        let eb = bound.absolute_for_view(field)?;
        let (ny, nx) = field.shape();

        let writer = &mut s.writer;
        writer.clear();
        // Header (byte-aligned on purpose: written before any block bits).
        for &b in MAGIC {
            writer.write_byte(b);
        }
        writer.write_bits(ny as u64, 32);
        writer.write_bits(nx as u64, 32);
        writer.write_bits(eb.to_bits(), 64);
        writer.write_bits(u64::from(PRECISION_BITS), 8);

        for bi in (0..ny).step_by(BLOCK_DIM) {
            for bj in (0..nx).step_by(BLOCK_DIM) {
                codec::encode_block(writer, &block::gather(field, bi, bj), eb, PRECISION_BITS);
            }
        }

        // Container tag 0, the one tag: the bit stream as it is.
        let bits = s.writer.finish();
        let mut out = Vec::with_capacity(1 + bits.len());
        out.push(0u8);
        out.extend_from_slice(bits);
        Ok(out)
    }
}

impl Compressor for ZfpCompressor {
    fn name(&self) -> &str {
        "zfp"
    }

    fn description(&self) -> &str {
        "ZFP-style 4x4 block transform coding with tolerance-driven bit-plane truncation"
    }

    fn compress_view_with(
        &self,
        field: &FieldView<'_>,
        bound: ErrorBound,
        scratch: &mut ScratchArena,
    ) -> Result<Vec<u8>, CompressError> {
        self.compress_into(field, bound, scratch.get_or_default::<ZfpScratch>())
    }

    fn decompress_view_with(
        &self,
        stream: &[u8],
        _scratch: &mut ScratchArena,
        out: &mut Field2D,
    ) -> Result<(), CompressError> {
        // The bit stream is read in place: decoding needs no scratch.
        let body = match stream {
            [0, body @ ..] => body,
            [] => return Err(CompressError::CorruptStream("empty stream".into())),
            [tag, ..] => {
                return Err(CompressError::CorruptStream(format!("unknown container tag {tag}")))
            }
        };
        let mut reader = BitReader::new(body);
        let mut magic = [0u8; 4];
        for b in &mut magic {
            *b = reader
                .read_byte()
                .map_err(|e| CompressError::CorruptStream(format!("header: {e}")))?;
        }
        if &magic != MAGIC {
            return Err(CompressError::CorruptStream("bad magic".into()));
        }
        let read_err = |e| CompressError::CorruptStream(format!("header: {e}"));
        let ny = reader.read_bits(32).map_err(read_err)? as usize;
        let nx = reader.read_bits(32).map_err(read_err)? as usize;
        // The bound the encoder quantised against; decoding does not use it.
        reader.read_bits(64).map_err(read_err)?;
        let precision = reader.read_bits(8).map_err(read_err)? as u32;
        if ny == 0 || nx == 0 || !(16..=48).contains(&precision) {
            return Err(CompressError::CorruptStream("invalid header".into()));
        }
        // Allocation guard: every 4×4 block costs at least two stream bits
        // (the TYPE_ZERO tag), so a header whose block count exceeds the
        // bits remaining after the 21-byte header is forged — reject it
        // before `resize` turns the claim into memory.
        const HEADER_BYTES: usize = 21; // magic + ny + nx + eb + precision
        let remaining = body.len().saturating_sub(HEADER_BYTES);
        let blocks = ny.div_ceil(BLOCK_DIM) * nx.div_ceil(BLOCK_DIM);
        if blocks > remaining.saturating_mul(8) {
            return Err(CompressError::CorruptStream(format!(
                "header claims {blocks} blocks but only {remaining} stream bytes remain"
            )));
        }

        // Every cell lands in some 4×4 block, so the resized buffer's stale
        // contents are fully overwritten by the scatter loop.
        out.resize(ny, nx);
        let block_err = |e| CompressError::CorruptStream(format!("block: {e}"));
        for bi in (0..ny).step_by(BLOCK_DIM) {
            for bj in (0..nx).step_by(BLOCK_DIM) {
                let values = codec::decode_block(&mut reader, precision).map_err(block_err)?;
                block::scatter(out, bi, bj, &values);
            }
        }
        // `BitWriter::finish` zero-pads the last byte and writes nothing
        // after it: a whole byte or a set pad bit past the last block is
        // not this encoder's.
        let left = reader.remaining();
        if left >= 8 {
            return Err(CompressError::CorruptStream(format!(
                "{} bytes after the last block",
                left / 8
            )));
        }
        if reader.peek_bits(left as u32) != 0 {
            return Err(CompressError::CorruptStream(
                "nonzero pad bits after the last block".into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smooth(n: usize) -> Field2D {
        Field2D::from_fn(n, n, |i, j| {
            (i as f64 * 0.04).sin() * 3.0 + (j as f64 * 0.05).cos() * 2.0 + 10.0
        })
    }

    fn rough(n: usize, seed: u64) -> Field2D {
        let mut s = seed | 1;
        Field2D::from_fn(n, n, |_, _| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s as f64 / u64::MAX as f64) * 4.0 - 2.0
        })
    }

    #[test]
    fn error_bound_holds_smooth_and_rough() {
        let zfp = ZfpCompressor::default();
        for field in [smooth(64), rough(64, 5)] {
            for eb in [1e-5, 1e-4, 1e-3, 1e-2] {
                let r = zfp.compress(&field, ErrorBound::Absolute(eb)).unwrap();
                assert!(
                    r.metrics.max_abs_error <= eb,
                    "eb={eb}: observed {}",
                    r.metrics.max_abs_error
                );
            }
        }
    }

    #[test]
    fn smooth_fields_compress_better() {
        let zfp = ZfpCompressor::default();
        let s = zfp.compress(&smooth(64), ErrorBound::Absolute(1e-3)).unwrap();
        let r = zfp.compress(&rough(64, 9), ErrorBound::Absolute(1e-3)).unwrap();
        assert!(
            s.metrics.compression_ratio > r.metrics.compression_ratio,
            "smooth {} vs rough {}",
            s.metrics.compression_ratio,
            r.metrics.compression_ratio
        );
    }

    #[test]
    fn looser_bound_increases_ratio() {
        let zfp = ZfpCompressor::default();
        let field = smooth(64);
        let tight = zfp.compress(&field, ErrorBound::Absolute(1e-5)).unwrap();
        let loose = zfp.compress(&field, ErrorBound::Absolute(1e-2)).unwrap();
        assert!(loose.metrics.compression_ratio > tight.metrics.compression_ratio);
    }

    #[test]
    fn shapes_not_divisible_by_four_roundtrip() {
        let field = Field2D::from_fn(37, 41, |i, j| (i as f64 * 0.2).cos() + j as f64 * 0.01);
        let zfp = ZfpCompressor::default();
        let r = zfp.compress(&field, ErrorBound::Absolute(1e-4)).unwrap();
        assert_eq!(r.reconstruction.shape(), (37, 41));
        assert!(r.metrics.max_abs_error <= 1e-4);
    }

    #[test]
    fn near_zero_field_compresses_and_respects_bound() {
        let field = Field2D::from_fn(32, 32, |i, j| 1e-9 * ((i + j) as f64));
        let zfp = ZfpCompressor::default();
        let r = zfp.compress(&field, ErrorBound::Absolute(1e-3)).unwrap();
        assert!(r.metrics.max_abs_error <= 1e-3);
        assert!(r.metrics.compression_ratio > 20.0);
    }

    #[test]
    fn huge_dynamic_range_respects_bound() {
        // Mixing magnitudes forces exact-block fallbacks; bound must still hold.
        let field = Field2D::from_fn(16, 16, |i, j| {
            if (i + j) % 5 == 0 {
                1e6
            } else {
                1e-6 * (i as f64 - j as f64)
            }
        });
        let zfp = ZfpCompressor::default();
        let r = zfp.compress(&field, ErrorBound::Absolute(1e-5)).unwrap();
        assert!(r.metrics.max_abs_error <= 1e-5, "{}", r.metrics.max_abs_error);
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        let zfp = ZfpCompressor::default();
        let mut field = Field2D::zeros(8, 8);
        assert!(zfp.compress_view(&field.view(), ErrorBound::Absolute(-1.0)).is_err());
        field.set(0, 0, f64::INFINITY);
        assert!(zfp.compress_view(&field.view(), ErrorBound::Absolute(1e-3)).is_err());
        assert!(zfp.decompress_field(&[]).is_err());
        assert!(zfp.decompress_field(&[9, 1, 2, 3]).is_err());
    }

    #[test]
    fn truncated_stream_is_rejected() {
        let zfp = ZfpCompressor::default();
        let field = smooth(32);
        let stream = zfp.compress_view(&field.view(), ErrorBound::Absolute(1e-3)).unwrap();
        assert!(zfp.decompress_field(&stream[..stream.len() / 3]).is_err());
    }

    #[test]
    fn bytes_and_pad_bits_after_the_last_block_are_refused() {
        let zfp = ZfpCompressor::default();
        let field = smooth(32);
        let stream = zfp.compress_view(&field.view(), ErrorBound::Absolute(1e-3)).unwrap();
        zfp.decompress_field(&stream).expect("the stream as written decodes");
        let refused = |forged: &[u8], what: &str| {
            let result = zfp.decompress_field(forged).map(drop);
            assert!(matches!(result, Err(CompressError::CorruptStream(_))), "{what}: {result:?}");
        };
        for junk in [&[0u8][..], &[0xFF], &[0; 64]] {
            let mut padded = stream.clone();
            padded.extend_from_slice(junk);
            refused(&padded, &format!("{} bytes appended", junk.len()));
        }
        // A 4×4 zero field is one two-bit zero block after the 21-byte
        // header: the last byte holds six pad bits, each of which must read 0.
        let zero = Field2D::zeros(4, 4);
        let stream = zfp.compress_view(&zero.view(), ErrorBound::Absolute(1e-3)).unwrap();
        assert_eq!(stream.len(), 1 + 21 + 1);
        zfp.decompress_field(&stream).expect("the stream as written decodes");
        for bit in 0..6 {
            let mut forged = stream.clone();
            *forged.last_mut().unwrap() |= 1 << bit;
            refused(&forged, &format!("pad bit {bit} set"));
        }
    }

    #[test]
    fn forged_giant_dimensions_are_rejected_before_allocation() {
        // A tiny tag-0 stream with a valid magic but u32::MAX dimensions:
        // the block-count-vs-stream-length guard must reject it instead of
        // attempting a multi-exabyte reconstruction buffer.
        let mut writer = lcc_lossless::BitWriter::new();
        for &b in MAGIC {
            writer.write_byte(b);
        }
        writer.write_bits(u64::from(u32::MAX), 32);
        writer.write_bits(u64::from(u32::MAX), 32);
        writer.write_bits(1e-3f64.to_bits(), 64);
        writer.write_bits(40, 8);
        let mut stream = vec![0u8];
        stream.extend_from_slice(writer.finish());
        let zfp = ZfpCompressor::default();
        assert!(matches!(zfp.decompress_field(&stream), Err(CompressError::CorruptStream(_))));
    }

    #[test]
    fn name_and_recorded_precision() {
        let zfp = ZfpCompressor::default();
        assert_eq!(zfp.name(), "zfp");
        assert!(zfp.description().contains("4x4"));
        // Tag byte, then magic, ny, nx and eb ahead of the precision byte.
        let stream = zfp.compress_view(&smooth(8).view(), ErrorBound::Absolute(1e-3)).unwrap();
        assert_eq!(u32::from(stream[1 + 4 + 4 + 4 + 8]), PRECISION_BITS);
    }
}
