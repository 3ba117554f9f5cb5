//! # lcc-mgard — an MGARD-style multilevel error-bounded lossy compressor
//!
//! A from-scratch Rust reimplementation of the multigrid-inspired MGARD
//! pipeline the paper compares against. The property the study cares about
//! is that MGARD decomposes the field into **multilevel coefficients whose
//! support can span the whole dataset**, so — unlike the block-local SZ and
//! ZFP — it can exploit global correlation structure and its compression
//! ratio reacts less to the variogram range.
//!
//! Pipeline:
//!
//! 1. **hierarchical decomposition** ([`decompose`]): dyadic coarsening of
//!    the 2D grid; fine nodes are predicted by (bi)linear interpolation of
//!    the surrounding coarse nodes and replaced by their residual
//!    (multilevel coefficient), recursively down to a few coarse values that
//!    represent the entire field,
//! 2. **level-aware uniform quantization** of the coefficients with a bin
//!    width chosen so that the worst-case accumulated reconstruction error
//!    across levels stays below the requested absolute bound (coefficients
//!    that cannot be quantized into the code range are stored exactly),
//! 3. **Huffman + LZ77** over the quantized codes (the role Zlib/Zstd play
//!    in MGARD releases).
//!
//! ```
//! use lcc_grid::Field2D;
//! use lcc_mgard::MgardCompressor;
//! use lcc_pressio::{Compressor, ErrorBound};
//!
//! let field = Field2D::from_fn(65, 65, |i, j| ((i + j) as f64 * 0.05).sin());
//! let mgard = MgardCompressor::default();
//! let r = mgard.compress(&field, ErrorBound::Absolute(1e-3)).unwrap();
//! assert!(r.metrics.max_abs_error <= 1e-3);
//! assert!(r.metrics.compression_ratio > 1.0);
//! ```

pub mod decompose;

use lcc_grid::{Field2D, FieldView};
use lcc_lossless::dispatch::simd_level;
use lcc_lossless::round::quantize_rounded_at;
use lcc_lossless::{
    huffman_decode_with, huffman_encode_with, lz77_compress_with, lz77_decompress_into,
    rans8_decode_with, rans8_encode_with, CodecScratch, EntropyBackend, RansScratch,
};
use lcc_pressio::{validate_finite_view, CompressError, Compressor, ErrorBound, ScratchArena};
use std::time::Instant;

/// Configuration of the MGARD-style compressor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MgardConfig {
    /// Maximum number of decomposition levels (the effective number is also
    /// limited by the grid size).
    pub max_levels: u32,
    /// Quantization code radius; residuals outside it are stored exactly.
    pub code_radius: u32,
    /// Entropy backend of the coefficient stream. [`EntropyBackend::Huffman`]
    /// (the default) emits the historical `LMG1` container — Huffman codes
    /// plus the outer LZ77 pass — byte-identical to every earlier release.
    /// [`EntropyBackend::Rans8`] emits the `LM81` container: 8-way
    /// interleaved rANS codes, whose decoder runs wide under SIMD dispatch,
    /// and no outer LZ77 pass (the ratio-vs-throughput ablation's fast
    /// point) — *when the alphabet fits*. rANS frequencies live in a 12-bit
    /// table, and MGARD's coefficient codes routinely number more than its
    /// 4096 slots (2 k–19 k distinct on 512² random fields at
    /// `Absolute(1e-3)`); such a codes section is written in the rANS
    /// stream's Huffman mode (5 of the 8 `benchmarks/e2e` pool fields), and
    /// a `mgard-rans8` ratio or speed row measured there is a Huffman row
    /// without the LZ77 pass. `bench_sweep --stage codecs` counts the streams
    /// that did.
    pub entropy: EntropyBackend,
}

impl Default for MgardConfig {
    fn default() -> Self {
        MgardConfig { max_levels: 16, code_radius: 1 << 30, entropy: EntropyBackend::Huffman }
    }
}

/// The MGARD-style compressor. See the crate-level documentation.
#[derive(Debug, Clone, Copy, Default)]
pub struct MgardCompressor {
    config: MgardConfig,
}

impl MgardCompressor {
    /// Create a compressor with an explicit configuration.
    pub fn new(config: MgardConfig) -> Self {
        assert!(config.max_levels >= 1, "at least one level is required");
        assert!(config.code_radius >= 2, "code radius must be at least 2");
        MgardCompressor { config }
    }

    /// Create the 8-way rANS-backend variant (registry name `mgard-rans8`).
    pub fn rans8() -> Self {
        MgardCompressor::new(MgardConfig {
            entropy: EntropyBackend::Rans8,
            ..MgardConfig::default()
        })
    }

    /// The active configuration.
    pub fn config(&self) -> MgardConfig {
        self.config
    }
}

const MAGIC: &[u8; 4] = b"LMG1";
/// Magic of the 8-way rANS-backend container, emitted at the top level (the
/// `LM81` payload is not LZ77-wrapped). No collision with `LMG1` streams:
/// LZ77 output opens with the decompressed-length varint, and whenever its
/// first byte could read as `b'L'` the next byte is a token tag of
/// `0x00`/`0x01`, never `b'M'`.
const RANS8_MAGIC: &[u8; 4] = b"LM81";

/// Reusable working memory of the MGARD compress path: the multilevel
/// coefficient workspace, the code/exact buffers, the assembled payload and
/// the Huffman/LZ77 internals. One instance per sweep worker, held in a
/// [`ScratchArena`].
#[derive(Debug, Default)]
pub struct MgardScratch {
    codec: CodecScratch,
    /// rANS working memory (the `mgard-rans8` backend).
    rans: RansScratch,
    /// Coefficient workspace of [`decompose::forward_into`] (lazy:
    /// `Field2D` has no empty value).
    work: Option<Field2D>,
    codes: Vec<u32>,
    exact: Vec<f64>,
    huff: Vec<u8>,
    payload: Vec<u8>,
    /// Decode side: the LZ77-expanded container payload.
    dec_payload: Vec<u8>,
}

impl MgardScratch {
    /// Create an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        MgardScratch::default()
    }
}

impl MgardCompressor {
    /// The encode layers of one compress call, in pipeline order: input
    /// validation and bound resolution, the forward multilevel decomposition,
    /// level-aware quantization, entropy coding of the codes, and container
    /// assembly plus the outer LZ77 pass (`mgard`) or the raw payload copy
    /// (`mgard-rans8`).
    pub const ENCODE_LAYERS: [&'static str; 5] =
        ["validate", "decompose", "quantize", "entropy", "container_lz77"];

    /// [`Compressor::compress_view_with`] over an [`MgardScratch`], also
    /// returning the seconds spent in each of [`Self::ENCODE_LAYERS`] — the
    /// same code path, so the bench tools can name the layer behind a
    /// compress ÷ decompress gap.
    pub fn compress_view_timed(
        &self,
        field: &FieldView<'_>,
        bound: ErrorBound,
        scratch: &mut MgardScratch,
    ) -> Result<(Vec<u8>, [f64; 5]), CompressError> {
        let mut marks = vec![Instant::now()];
        let stream = self.compress_into(field, bound, scratch, || marks.push(Instant::now()))?;
        let mut seconds = [0.0; 5];
        for (layer, pair) in seconds.iter_mut().zip(marks.windows(2)) {
            *layer = (pair[1] - pair[0]).as_secs_f64();
        }
        Ok((stream, seconds))
    }

    /// The compress pipeline over explicit scratch memory: what
    /// [`Compressor::compress_view_with`] runs on the arena's scratch. The
    /// stream does not depend on what the scratch held before.
    /// `layer_done` is called after each of [`Self::ENCODE_LAYERS`].
    fn compress_into(
        &self,
        field: &FieldView<'_>,
        bound: ErrorBound,
        s: &mut MgardScratch,
        mut layer_done: impl FnMut(),
    ) -> Result<Vec<u8>, CompressError> {
        validate_finite_view(field)?;
        let eb = bound.absolute_for_view(field)?;
        let (ny, nx) = field.shape();
        let levels = decompose::level_count(ny, nx).min(self.config.max_levels);
        layer_done();

        // Forward multilevel decomposition: `coeffs` holds residuals at fine
        // nodes and raw values at the coarsest nodes.
        let coeffs = s.work.get_or_insert_with(|| Field2D::zeros(1, 1));
        decompose::forward_into(field, levels, coeffs);
        layer_done();

        // Worst-case error accumulation is one quantization error per level
        // plus one for the coarsest values, so split the budget evenly.
        let bin = 2.0 * eb / (levels as f64 + 1.0);

        // Codes are shifted by the radius so 0 stays reserved for the escape
        // (exact value follows).
        s.codes.clear();
        s.exact.clear();
        quantize_rounded_at(
            simd_level(),
            coeffs.as_slice(),
            bin,
            self.config.code_radius,
            &mut s.codes,
            &mut s.exact,
        );
        layer_done();

        s.huff.clear();
        match self.config.entropy {
            EntropyBackend::Huffman => huffman_encode_with(&mut s.codec, &s.codes, &mut s.huff),
            EntropyBackend::Rans8 => rans8_encode_with(&mut s.rans, &s.codes, &mut s.huff),
        }
        layer_done();

        let payload = &mut s.payload;
        payload.clear();
        payload.extend_from_slice(match self.config.entropy {
            EntropyBackend::Huffman => MAGIC,
            EntropyBackend::Rans8 => RANS8_MAGIC,
        });
        payload.extend_from_slice(&(ny as u64).to_le_bytes());
        payload.extend_from_slice(&(nx as u64).to_le_bytes());
        payload.extend_from_slice(&eb.to_le_bytes());
        payload.extend_from_slice(&levels.to_le_bytes());
        payload.extend_from_slice(&self.config.code_radius.to_le_bytes());
        payload.extend_from_slice(&(s.huff.len() as u64).to_le_bytes());
        payload.extend_from_slice(&s.huff);
        payload.extend_from_slice(&(s.exact.len() as u64).to_le_bytes());
        for v in &s.exact {
            payload.extend_from_slice(&v.to_le_bytes());
        }
        let stream = match self.config.entropy {
            EntropyBackend::Huffman => {
                let mut out = Vec::new();
                lz77_compress_with(&mut s.codec, &s.payload, &mut out);
                out
            }
            // The rANS payload ships raw: the coefficient stream is already
            // entropy-coded, so the LZ77 pass would trade most of the encode
            // time for ~no ratio.
            EntropyBackend::Rans8 => s.payload.clone(),
        };
        layer_done();
        Ok(stream)
    }
}

impl Compressor for MgardCompressor {
    fn name(&self) -> &str {
        match self.config.entropy {
            EntropyBackend::Huffman => "mgard",
            EntropyBackend::Rans8 => "mgard-rans8",
        }
    }

    fn description(&self) -> &str {
        match self.config.entropy {
            EntropyBackend::Huffman => {
                "MGARD-style multilevel interpolation decomposition with level-aware quantization"
            }
            EntropyBackend::Rans8 => {
                "MGARD-style multilevel interpolation decomposition with level-aware \
                 quantization and 8-way interleaved rANS"
            }
        }
    }

    fn compress_view_with(
        &self,
        field: &FieldView<'_>,
        bound: ErrorBound,
        scratch: &mut ScratchArena,
    ) -> Result<Vec<u8>, CompressError> {
        self.compress_into(field, bound, scratch.get_or_default::<MgardScratch>(), || {})
    }

    fn decompress_view_with(
        &self,
        stream: &[u8],
        scratch: &mut ScratchArena,
        out: &mut Field2D,
    ) -> Result<(), CompressError> {
        let s = scratch.get_or_default::<MgardScratch>();
        // Streams self-describe their backend: the `LM81` container is raw
        // at the top level, everything else is the historical LZ77 wrapping.
        let payload: &[u8] = if stream.starts_with(RANS8_MAGIC) {
            stream
        } else {
            lz77_decompress_into(stream, &mut s.dec_payload)
                .map_err(|e| CompressError::CorruptStream(format!("lz77: {e}")))?;
            &s.dec_payload
        };
        let mut pos = 0usize;
        let take = |pos: &mut usize, n: usize| -> Result<&[u8], CompressError> {
            // Subtraction side: `*pos + n` could wrap for a forged length.
            if payload.len().saturating_sub(*pos) < n {
                return Err(CompressError::CorruptStream("truncated payload".into()));
            }
            let out = &payload[*pos..*pos + n];
            *pos += n;
            Ok(out)
        };

        let magic = take(&mut pos, 4)?;
        let codes_backend = if magic == MAGIC {
            EntropyBackend::Huffman
        } else if magic == RANS8_MAGIC {
            EntropyBackend::Rans8
        } else {
            return Err(CompressError::CorruptStream("bad magic".into()));
        };
        let ny = u64::from_le_bytes(take(&mut pos, 8)?.try_into().unwrap()) as usize;
        let nx = u64::from_le_bytes(take(&mut pos, 8)?.try_into().unwrap()) as usize;
        let eb = f64::from_le_bytes(take(&mut pos, 8)?.try_into().unwrap());
        let levels = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap());
        let radius = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap());
        // `levels` drives `1usize << level` strides in the inverse pass;
        // any real grid needs < 64, so larger claims are forged.
        if ny == 0 || nx == 0 || !eb.is_finite() || eb <= 0.0 || radius < 2 || levels >= 64 {
            return Err(CompressError::CorruptStream("invalid header".into()));
        }
        let cells = ny
            .checked_mul(nx)
            .ok_or_else(|| CompressError::CorruptStream("cell count overflows".into()))?;
        let huff_len = u64::from_le_bytes(take(&mut pos, 8)?.try_into().unwrap()) as usize;
        let huff = take(&mut pos, huff_len)?;
        match codes_backend {
            EntropyBackend::Huffman => huffman_decode_with(&mut s.codec, huff, &mut s.codes)
                .map_err(|e| CompressError::CorruptStream(format!("huffman: {e}")))?,
            EntropyBackend::Rans8 => rans8_decode_with(&mut s.rans, huff, &mut s.codes)
                .map_err(|e| CompressError::CorruptStream(format!("rans8: {e}")))?,
        };
        if s.codes.len() != cells {
            return Err(CompressError::CorruptStream("code count mismatch".into()));
        }
        let n_exact = u64::from_le_bytes(take(&mut pos, 8)?.try_into().unwrap()) as usize;
        s.exact.clear();
        s.exact.reserve(n_exact.min(payload.len().saturating_sub(pos) / 8));
        for _ in 0..n_exact {
            s.exact.push(f64::from_le_bytes(take(&mut pos, 8)?.try_into().unwrap()));
        }

        // Dequantize straight into the output field (every cell is written),
        // then run the inverse decomposition in place — no intermediate
        // coefficient allocation.
        let bin = 2.0 * eb / (levels as f64 + 1.0);
        out.resize(ny, nx);
        let mut exact_idx = 0usize;
        for (slot, &code) in out.as_mut_slice().iter_mut().zip(&s.codes) {
            if code == 0 {
                if exact_idx >= s.exact.len() {
                    return Err(CompressError::CorruptStream("missing exact coefficient".into()));
                }
                *slot = s.exact[exact_idx];
                exact_idx += 1;
            } else {
                let q = i64::from(code) - i64::from(radius);
                *slot = q as f64 * bin;
            }
        }
        decompose::inverse_inplace(out, levels);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smooth(ny: usize, nx: usize) -> Field2D {
        Field2D::from_fn(ny, nx, |i, j| {
            (i as f64 * 0.03).sin() * 2.0 + (j as f64 * 0.02).cos() * 3.0
        })
    }

    fn rough(n: usize, seed: u64) -> Field2D {
        let mut s = seed | 1;
        Field2D::from_fn(n, n, |_, _| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s as f64 / u64::MAX as f64) * 2.0 - 1.0
        })
    }

    #[test]
    fn error_bound_holds_across_bounds_and_shapes() {
        let mgard = MgardCompressor::default();
        for field in [smooth(64, 64), smooth(61, 83), rough(64, 11)] {
            for eb in [1e-5, 1e-4, 1e-3, 1e-2] {
                let r = mgard.compress(&field, ErrorBound::Absolute(eb)).unwrap();
                assert!(
                    r.metrics.max_abs_error <= eb,
                    "eb={eb} shape={:?}: observed {}",
                    field.shape(),
                    r.metrics.max_abs_error
                );
            }
        }
    }

    #[test]
    fn smooth_fields_compress_better_than_rough() {
        let mgard = MgardCompressor::default();
        let s = mgard.compress(&smooth(96, 96), ErrorBound::Absolute(1e-3)).unwrap();
        let r = mgard.compress(&rough(96, 5), ErrorBound::Absolute(1e-3)).unwrap();
        assert!(s.metrics.compression_ratio > r.metrics.compression_ratio);
    }

    #[test]
    fn looser_bounds_give_higher_ratios() {
        let mgard = MgardCompressor::default();
        let f = smooth(96, 96);
        let tight = mgard.compress(&f, ErrorBound::Absolute(1e-5)).unwrap();
        let loose = mgard.compress(&f, ErrorBound::Absolute(1e-2)).unwrap();
        assert!(loose.metrics.compression_ratio > tight.metrics.compression_ratio);
    }

    #[test]
    fn constant_field_is_exact_and_tiny() {
        let mgard = MgardCompressor::default();
        let f = Field2D::filled(64, 64, -2.5);
        let r = mgard.compress(&f, ErrorBound::Absolute(1e-6)).unwrap();
        assert!(r.metrics.max_abs_error <= 1e-6);
        assert!(r.metrics.compression_ratio > 50.0);
    }

    #[test]
    fn tiny_fields_are_supported() {
        let mgard = MgardCompressor::default();
        for (ny, nx) in [(1, 1), (1, 7), (2, 2), (3, 5)] {
            let f = Field2D::from_fn(ny, nx, |i, j| (i * 10 + j) as f64 * 0.1);
            let r = mgard.compress(&f, ErrorBound::Absolute(1e-4)).unwrap();
            assert_eq!(r.reconstruction.shape(), (ny, nx));
            assert!(r.metrics.max_abs_error <= 1e-4, "({ny},{nx})");
        }
    }

    #[test]
    fn rejects_invalid_input_and_corrupt_streams() {
        let mgard = MgardCompressor::default();
        let mut f = Field2D::zeros(8, 8);
        assert!(mgard.compress_view(&f.view(), ErrorBound::Absolute(0.0)).is_err());
        f.set(2, 2, f64::NAN);
        assert!(mgard.compress_view(&f.view(), ErrorBound::Absolute(1e-3)).is_err());

        let good = mgard.compress_view(&smooth(32, 32).view(), ErrorBound::Absolute(1e-3)).unwrap();
        assert!(mgard.decompress_field(&good[..good.len() / 2]).is_err());
        assert!(mgard.decompress_field(&[]).is_err());
    }

    /// Forge an MGARD container around the given header fields and run it
    /// through the decoder; must produce a CompressError, never a panic.
    fn assert_forged_header_rejected(ny: u64, nx: u64, levels: u32, huff_len: u64) {
        let mut payload = Vec::new();
        payload.extend_from_slice(MAGIC);
        payload.extend_from_slice(&ny.to_le_bytes());
        payload.extend_from_slice(&nx.to_le_bytes());
        payload.extend_from_slice(&1e-3f64.to_le_bytes());
        payload.extend_from_slice(&levels.to_le_bytes());
        payload.extend_from_slice(&(1u32 << 30).to_le_bytes()); // radius
        payload.extend_from_slice(&huff_len.to_le_bytes());
        let stream = lcc_lossless::lz77_compress(&payload);
        assert!(
            matches!(
                MgardCompressor::default().decompress_field(&stream),
                Err(CompressError::CorruptStream(_))
            ),
            "ny={ny} nx={nx} levels={levels} huff_len={huff_len}"
        );
    }

    #[test]
    fn forged_headers_are_rejected_not_wrapped() {
        // huff_len = u64::MAX used to wrap `*pos + n` in the bounds check
        // (inverted slice range in release, add-overflow panic in debug).
        assert_forged_header_rejected(4, 4, 2, u64::MAX);
        // ny*nx wrapping to 0 used to slip past the code-count check.
        assert_forged_header_rejected(1 << 32, 1 << 32, 2, 0);
        // levels >= 64 used to shift-overflow in the inverse decomposition.
        assert_forged_header_rejected(8, 8, 200, 0);
    }

    #[test]
    fn name_and_description() {
        let mgard = MgardCompressor::default();
        assert_eq!(mgard.name(), "mgard");
        assert!(mgard.description().contains("multilevel"));
        assert!(mgard.config().max_levels >= 1);
        let rans8 = MgardCompressor::rans8();
        assert_eq!(rans8.name(), "mgard-rans8");
        assert!(rans8.description().contains("8-way"));
    }

    #[test]
    fn rans_backend_respects_bounds_and_decodes_identically() {
        // The entropy stage is lossless, so both backends must decode to
        // bit-identical fields — and each compressor instance must decode
        // the other's self-describing stream.
        let huff = MgardCompressor::default();
        let rans8 = MgardCompressor::rans8();
        for field in [smooth(64, 64), smooth(61, 83), rough(64, 11)] {
            for eb in [1e-4, 1e-2] {
                let a = huff.compress(&field, ErrorBound::Absolute(eb)).unwrap();
                let c = rans8.compress(&field, ErrorBound::Absolute(eb)).unwrap();
                assert!(c.metrics.max_abs_error <= eb);
                assert_eq!(a.reconstruction, c.reconstruction, "rans8 disagrees at eb={eb}");
                assert!(c.stream.starts_with(RANS8_MAGIC));
                for decoder in [&huff, &rans8] {
                    assert_eq!(decoder.decompress_field(&a.stream).unwrap(), a.reconstruction);
                    assert_eq!(decoder.decompress_field(&c.stream).unwrap(), c.reconstruction);
                }
            }
        }
    }

    #[test]
    fn rans_streams_reject_corruption() {
        let c = MgardCompressor::rans8();
        let stream = c.compress_view(&smooth(32, 32).view(), ErrorBound::Absolute(1e-3)).unwrap();
        assert!(c.decompress_field(&stream[..stream.len() / 2]).is_err());
        assert!(c.decompress_field(&stream[..5]).is_err());
    }
}
