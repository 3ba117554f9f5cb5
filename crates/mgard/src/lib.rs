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
//! 3. codes and exactly stored coefficients leave through
//!    [`lcc_pressio::codes`], which owns entropy coding, the LZ77 pass and
//!    the stream layout (README, *Stream formats*).
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
use lcc_lossless::EntropyBackend;
use lcc_pressio::codes::{self, Format, Header};
use lcc_pressio::{
    validate_finite_view, CodecWork, CompressError, Compressor, ErrorBound, ScratchArena,
};

/// Cap on the decomposition levels (the grid's size sets the count for any
/// field up to 2¹⁷ cells a side).
const MAX_LEVELS: u32 = 16;
/// Quantization code radius; coefficients outside it are stored exactly.
const CODE_RADIUS: u32 = 1 << 30;

/// The MGARD-style compressor. See the crate-level documentation.
///
/// [`MgardCompressor::default`] writes Huffman codes,
/// [`MgardCompressor::rans8`] 8-way rANS codes, whose decoder runs wide under
/// SIMD dispatch — *when the alphabet fits*. rANS frequencies live in a
/// 12-bit table, and MGARD's coefficient codes routinely number more than
/// its 4096 slots (2 k–19 k distinct on 512² random fields at
/// `Absolute(1e-3)`); such a codes section is written in the rANS stream's
/// Huffman mode (5 of the 8 `benchmarks/e2e` pool fields), and a
/// `mgard-rans8` ratio or speed row measured there is a Huffman row without
/// the LZ77 pass. `bench_sweep`'s report counts the streams that did.
#[derive(Debug, Clone, Copy, Default)]
pub struct MgardCompressor {
    entropy: EntropyBackend,
}

impl MgardCompressor {
    /// Create the 8-way rANS-backend variant (registry name `mgard-rans8`).
    pub fn rans8() -> Self {
        MgardCompressor { entropy: EntropyBackend::Rans8 }
    }
}

/// The MGARD codes container: `LMG1` over Huffman codes (`mgard`), `LM81`
/// over rANS codes (`mgard-rans8`), no middle. The header parameter is the
/// level count, which drives `1usize << level` strides in the inverse pass:
/// any real grid needs fewer than 64, so a larger claim is forged.
pub const FORMAT: Format =
    Format { huffman: *b"LMG1", rans8: *b"LM81", param: 0..=63, middle: &[] };

/// MGARD's slot of a [`ScratchArena`]: empty, as every buffer MGARD uses is
/// in the shared [`CodecWork`].
#[derive(Debug, Default)]
struct MgardScratch;

impl MgardCompressor {
    /// The encode layers of one compress call, in pipeline order: input
    /// validation and bound resolution, the forward multilevel decomposition,
    /// level-aware quantization, entropy coding of the codes, and container
    /// assembly plus the outer LZ77 pass (`mgard`) or the raw payload copy
    /// (`mgard-rans8`).
    pub const ENCODE_LAYERS: [&'static str; 5] =
        ["validate", "decompose", "quantize", "entropy", "container_lz77"];

    /// [`Compressor::compress_view_with`], also returning the seconds spent
    /// in each of [`Self::ENCODE_LAYERS`] — the same code path, so the bench
    /// tools can name the layer behind a compress ÷ decompress gap.
    pub fn compress_view_timed(
        &self,
        field: &FieldView<'_>,
        bound: ErrorBound,
        scratch: &mut ScratchArena,
    ) -> Result<(Vec<u8>, [f64; 5]), CompressError> {
        codes::timed_layers(|layer_done| {
            self.compress_into(field, bound, scratch.get_with_work::<MgardScratch>().1, layer_done)
        })
    }

    /// The compress pipeline over the arena's shared working set. The stream
    /// does not depend on what the working set held before. `layer_done` is
    /// called after each of [`Self::ENCODE_LAYERS`].
    fn compress_into(
        &self,
        field: &FieldView<'_>,
        bound: ErrorBound,
        w: &mut CodecWork,
        mut layer_done: impl FnMut(),
    ) -> Result<Vec<u8>, CompressError> {
        validate_finite_view(field)?;
        let eb = bound.absolute_for_view(field)?;
        let (ny, nx) = field.shape();
        let levels = decompose::level_count(ny, nx).min(MAX_LEVELS);
        layer_done();

        // Forward multilevel decomposition: `coeffs` holds residuals at fine
        // nodes and raw values at the coarsest nodes. It borrows the shared
        // cell buffer, sized to this field first, and hands it back below.
        w.cells.resize(ny * nx, 0.0);
        let cells = std::mem::take(&mut w.cells);
        let mut coeffs = Field2D::from_vec(ny, nx, cells).expect("cells sized to the field");
        decompose::forward_into(field, levels, &mut coeffs);
        layer_done();

        // Worst-case error accumulation is one quantization error per level
        // plus one for the coarsest values, so split the budget evenly.
        let bin = 2.0 * eb / (levels as f64 + 1.0);

        // Codes are shifted by the radius so 0 stays reserved for the escape
        // (exact value follows).
        w.codes.clear();
        w.exact.clear();
        let (codes, exact) = (&mut w.codes, &mut w.exact);
        quantize_rounded_at(simd_level(), coeffs.as_slice(), bin, CODE_RADIUS, codes, exact);
        w.cells = coeffs.into_vec();
        layer_done();

        let header = Header { ny, nx, eb, param: levels, radius: CODE_RADIUS };
        Ok(w.encode(&FORMAT, self.entropy, &header, |_| {}, layer_done))
    }
}

impl Compressor for MgardCompressor {
    fn name(&self) -> &str {
        match self.entropy {
            EntropyBackend::Huffman => "mgard",
            EntropyBackend::Rans8 => "mgard-rans8",
        }
    }

    fn description(&self) -> &str {
        match self.entropy {
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
        self.compress_into(field, bound, scratch.get_with_work::<MgardScratch>().1, || {})
    }

    fn decompress_view_with(
        &self,
        stream: &[u8],
        scratch: &mut ScratchArena,
        out: &mut Field2D,
    ) -> Result<(), CompressError> {
        let w = scratch.get_with_work::<MgardScratch>().1;
        let Header { ny, nx, eb, param: levels, radius } = w.decode(&FORMAT, stream)?.header;

        // Dequantize straight into the output field (every cell is written),
        // then run the inverse decomposition in place — no intermediate
        // coefficient allocation.
        let bin = 2.0 * eb / (levels as f64 + 1.0);
        out.resize(ny, nx);
        let mut exact_idx = 0usize;
        for (slot, &code) in out.as_mut_slice().iter_mut().zip(&w.codes) {
            if code == 0 {
                if exact_idx >= w.exact.len() {
                    return Err(CompressError::CorruptStream("missing exact coefficient".into()));
                }
                *slot = w.exact[exact_idx];
                exact_idx += 1;
            } else {
                let q = i64::from(code) - i64::from(radius);
                *slot = q as f64 * bin;
            }
        }
        if exact_idx < w.exact.len() {
            let surplus = w.exact.len() - exact_idx;
            return Err(CompressError::CorruptStream(format!(
                "{surplus} exact coefficients after the last escape"
            )));
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
        payload.extend_from_slice(&FORMAT.huffman);
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
                assert!(c.stream.starts_with(&FORMAT.rans8));
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
