//! # lcc-sz — an SZ-style prediction-based error-bounded lossy compressor
//!
//! A from-scratch Rust reimplementation of the SZ 2.x algorithm family used
//! in the paper, preserving the structural properties the study depends on:
//!
//! 1. the field is scanned **block by block** (16×16 for 2D data, as in the
//!    paper's description),
//! 2. each block is predicted either with the **Lorenzo predictor**
//!    (neighbouring reconstructed values) or a **block regression predictor**
//!    (a hyper-plane fitted to the block),
//! 3. prediction residuals are **linearly quantized** against the absolute
//!    error bound; codes outside the quantization radius are stored exactly
//!    ("unpredictable" values),
//! 4. codes and escapes leave through [`lcc_pressio::codes`], which owns
//!    entropy coding, the LZ77 pass and the stream layout (README, *Stream formats*).
//!
//! Because every reconstructed value is either `prediction + code·2ε`
//! (with `|residual − code·2ε| ≤ ε`) or stored exactly, the absolute error
//! bound holds point-wise by construction.
//!
//! ```
//! use lcc_grid::Field2D;
//! use lcc_pressio::{Compressor, ErrorBound};
//! use lcc_sz::SzCompressor;
//!
//! let field = Field2D::from_fn(64, 64, |i, j| (i as f64 * 0.05).sin() + (j as f64 * 0.04).cos());
//! let sz = SzCompressor::default();
//! let result = sz.compress(&field, ErrorBound::Absolute(1e-3)).unwrap();
//! assert!(result.metrics.max_abs_error <= 1e-3);
//! assert!(result.metrics.compression_ratio > 1.0);
//! ```

mod lorenzo;
pub mod predictor;
pub mod quantize;

use lcc_grid::{Field2D, FieldView, Window, WindowIter};
use lcc_lossless::dispatch::{simd_level, SimdLevel};
use lcc_lossless::EntropyBackend;
use lcc_pressio::codes::{self, Format, Header, Reader};
use lcc_pressio::{
    validate_finite_view, CodecWork, CompressError, Compressor, ErrorBound, ScratchArena,
};
use lorenzo::Order;
use predictor::{plane_predict, BlockMode};
use quantize::Quantizer;

/// Configuration of the SZ-style compressor. Outside this crate's tests (the
/// way the decoder's odd-block and escape paths get exercised) only
/// [`SzCompressor::default`] and [`SzCompressor::rans8`] build one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct SzConfig {
    /// Side length of the square prediction blocks (paper: 16 for 2D).
    pub block_size: usize,
    /// Quantization radius: codes are accepted in `[-radius, radius]`.
    pub quantization_radius: u32,
    /// Enable the block regression (hyper-plane) predictor in addition to
    /// Lorenzo.
    pub enable_regression: bool,
    /// Entropy backend of the codes section, and with it the container's
    /// magic and wrap ([`lcc_pressio::codes`]): Huffman, the default, is the
    /// ratio-first point of the ratio-vs-throughput ablation, 8-way rANS
    /// (a decoder that runs wide under SIMD dispatch) the throughput-first.
    pub entropy: EntropyBackend,
}

impl Default for SzConfig {
    fn default() -> Self {
        SzConfig {
            block_size: 16,
            quantization_radius: 32768,
            enable_regression: true,
            entropy: EntropyBackend::Huffman,
        }
    }
}

/// The SZ-style compressor. See the crate-level documentation.
#[derive(Debug, Clone, Copy, Default)]
pub struct SzCompressor {
    config: SzConfig,
}

impl SzCompressor {
    /// Create a compressor with an explicit configuration.
    pub(crate) fn new(config: SzConfig) -> Self {
        assert!(config.block_size >= 2, "block size must be at least 2");
        assert!(config.quantization_radius >= 2, "quantization radius must be at least 2");
        SzCompressor { config }
    }

    /// Create a Lorenzo-only variant (regression predictor disabled).
    #[cfg(test)]
    pub(crate) fn lorenzo_only() -> Self {
        SzCompressor::new(SzConfig { enable_regression: false, ..SzConfig::default() })
    }

    /// Create the 8-way rANS-backend variant (registry name `sz-rans8`).
    pub fn rans8() -> Self {
        SzCompressor::new(SzConfig { entropy: EntropyBackend::Rans8, ..SzConfig::default() })
    }
}

/// The SZ codes container: `LSZ1` over Huffman codes (`sz`), `LS81` over
/// rANS codes (`sz-rans8`); the header parameter is the block side; the
/// middle is one mode byte per block, then the three `f64` plane
/// coefficients of every regression block.
pub const FORMAT: Format =
    Format { huffman: *b"LSZ1", rans8: *b"LS81", param: 2..=u32::MAX, middle: &[1, 24] };

/// SZ's private slot of a [`ScratchArena`], beside the shared [`CodecWork`]
/// (container, codes, escapes and reconstruction): the block metadata,
/// cleared and refilled by every call.
#[derive(Debug, Default)]
struct SzScratch {
    /// Predictor choice per block.
    modes: Vec<BlockMode>,
    /// Regression coefficients for regression blocks.
    planes: Vec<[f64; 3]>,
    /// The codes of one run of Lorenzo blocks, by cell of the run window.
    run_codes: Vec<u32>,
}

impl SzCompressor {
    /// The encode layers of one compress call, in pipeline order: bound
    /// resolution, block-mode selection (with the finiteness check), predict and
    /// quantize, entropy coding of the codes, and container assembly plus the
    /// outer LZ77 pass (`sz`) or the raw payload copy (`sz-rans8`).
    pub const ENCODE_LAYERS: [&'static str; 5] =
        ["validate", "mode_select", "predict_quantize", "entropy", "container_lz77"];

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
            self.compress_into(simd_level(), field, bound, scratch, layer_done)
        })
    }

    /// [`Compressor::compress_view_with`] with the predict/quantize kernels
    /// at SIMD tier `level` instead of the dispatched one: the stream, and
    /// the reconstruction left in the arena's [`CodecWork::cells`], are the
    /// same at every tier.
    pub fn compress_view_at(
        &self,
        level: SimdLevel,
        field: &FieldView<'_>,
        bound: ErrorBound,
        scratch: &mut ScratchArena,
    ) -> Result<Vec<u8>, CompressError> {
        self.compress_into(level, field, bound, scratch, || {})
    }

    /// The compress pipeline over the arena's scratch, with the
    /// predict/quantize kernels at tier `level`. The stream does not depend
    /// on what the arena held before. `layer_done` is called after each of
    /// [`Self::ENCODE_LAYERS`].
    fn compress_into(
        &self,
        level: SimdLevel,
        field: &FieldView<'_>,
        bound: ErrorBound,
        arena: &mut ScratchArena,
        mut layer_done: impl FnMut(),
    ) -> Result<Vec<u8>, CompressError> {
        let (s, w) = arena.get_with_work::<SzScratch>();
        // Mode selection reads every value, so it is also the finiteness
        // check; a non-finite field is reported before an invalid bound, as
        // when the check was a pass of its own.
        let eb = bound.absolute_for_view(field);
        layer_done();
        self.select_modes(level, field, s)?;
        let eb = eb?;
        layer_done();
        self.predict_quantize_at(level, field, eb, s, w);
        layer_done();
        let (ny, nx) = field.shape();
        let SzConfig { block_size, quantization_radius: radius, entropy, .. } = self.config;
        let header = Header { ny, nx, eb, param: block_size as u32, radius };
        let SzScratch { modes, planes, .. } = s;
        // The middle [`FORMAT`] declares.
        let middle = |w: &mut codes::Writer| {
            w.u64(modes.len() as u64);
            modes.iter().for_each(|m| w.u8(*m as u8));
            w.u64(planes.len() as u64);
            planes.iter().flatten().for_each(|v| w.f64(*v));
        };
        Ok(w.encode(&FORMAT, entropy, &header, middle, layer_done))
    }

    /// Choose every block's predictor from the original data and refuse a
    /// field with a non-finite value. The selection pass already fits the
    /// plane, so regression blocks keep it instead of fitting twice, and its
    /// per-block value sums are finite only if every value is, so the scan
    /// of [`validate_finite_view`] runs only to tell an overflowed sum from
    /// a non-finite value (or when there is no selection pass).
    fn select_modes(
        &self,
        level: SimdLevel,
        field: &FieldView<'_>,
        s: &mut SzScratch,
    ) -> Result<(), CompressError> {
        s.modes.clear();
        s.planes.clear();
        let bs = self.config.block_size;
        if !self.config.enable_regression {
            validate_finite_view(field)?;
            let blocks = WindowIter::over(field.ny(), field.nx(), bs, bs).count_windows();
            s.modes.resize(blocks, BlockMode::Lorenzo);
        } else if !predictor::select_modes(level, field, bs, &mut s.modes, &mut s.planes) {
            validate_finite_view(field)?;
        }
        Ok(())
    }

    /// Predict and quantize every block against the absolute bound `eb` with
    /// the predictors [`SzCompressor::select_modes`] chose for this field —
    /// regression blocks one at a time, each block row's runs of
    /// consecutive Lorenzo blocks as one window, in block order — filling
    /// the code and exact streams in block-raster order (the same streams
    /// at every SIMD tier).
    fn predict_quantize_at(
        &self,
        level: SimdLevel,
        field: &FieldView<'_>,
        eb: f64,
        s: &mut SzScratch,
        w: &mut CodecWork,
    ) {
        let (ny, nx) = field.shape();
        let bs = self.config.block_size;
        let quantizer = Quantizer::new(eb, self.config.quantization_radius);
        let blocks = WindowIter::over(ny, nx, bs, bs);
        debug_assert_eq!(s.modes.len(), blocks.count_windows(), "modes are for another shape");

        // Reconstruction buffer: predictions always read reconstructed values
        // so the decompressor sees the same inputs. It is the shared cell
        // buffer, never zeroed: the block scan writes every cell before any
        // predictor reads it (Lorenzo only looks at already-visited
        // neighbours and treats the field boundary as zero explicitly), so
        // what the last call of any codec left there is never read.
        w.cells.resize(ny * nx, 0.0);
        w.codes.clear();
        w.codes.reserve(ny * nx);
        w.exact.clear();
        let SzScratch { modes, planes, run_codes } = s;
        let mut planes = planes.iter();
        // The block row's run of Lorenzo blocks not yet quantized: it ends at
        // a regression block or the end of the block row.
        let mut run: Option<Window> = None;
        for (win, mode) in blocks.zip(modes.iter()) {
            if *mode == BlockMode::Regression || win.j0 == 0 {
                if let Some(r) = run.take() {
                    self.lorenzo_run(level, &quantizer, field, &r, run_codes, w);
                }
            }
            match mode {
                BlockMode::Regression => {
                    let plane = planes.next().expect("one plane per regression block");
                    for di in 0..win.height {
                        let i = win.i0 + di;
                        let span = win.j0..win.j0 + win.width;
                        quantize::quantize_plane_row(
                            &quantizer,
                            plane,
                            di,
                            &field.row(i)[span.clone()],
                            &mut w.cells[i * nx..][span],
                            &mut w.codes,
                            &mut w.exact,
                        );
                    }
                }
                BlockMode::Lorenzo => {
                    run = Some(match run {
                        Some(r) => Window { width: r.width + win.width, ..r },
                        None => win,
                    });
                }
            }
        }
        if let Some(r) = run {
            self.lorenzo_run(level, &quantizer, field, &r, run_codes, w);
        }
    }

    /// Predict and quantize the run of Lorenzo blocks `run` as one window
    /// ([`lorenzo::quantize_run`], its codes by cell in `run_codes`), then
    /// append its codes block by block, each block in raster order, and its
    /// escaped values in the same order.
    fn lorenzo_run(
        &self,
        level: SimdLevel,
        quantizer: &Quantizer,
        field: &FieldView<'_>,
        run: &Window,
        run_codes: &mut Vec<u32>,
        w: &mut CodecWork,
    ) {
        let nx = field.nx();
        run_codes.resize(run.len(), quantize::UNPREDICTABLE);
        let escaped =
            lorenzo::quantize_run(level, quantizer, field, &mut w.cells, nx, run, run_codes);
        // Every block of the run is `block_size` wide but the field's last.
        let bs = self.config.block_size;
        let blocks = (0..run.width).step_by(bs).map(|dj| dj..(dj + bs).min(run.width));
        for span in blocks.clone() {
            for di in 0..run.height {
                w.codes.extend_from_slice(&run_codes[di * run.width..][span.clone()]);
            }
        }
        if escaped {
            for span in blocks {
                for di in 0..run.height {
                    let codes = &run_codes[di * run.width..][span.clone()];
                    let values = &field.row(run.i0 + di)[run.j0..][span.clone()];
                    let escapes = codes.iter().zip(values);
                    w.exact.extend(
                        escapes.filter(|(&c, _)| c == quantize::UNPREDICTABLE).map(|(_, &v)| v),
                    );
                }
            }
        }
    }
}

/// Read the middle [`FORMAT`] declares.
fn read_middle(
    middle: &[u8],
    modes: &mut Vec<BlockMode>,
    planes: &mut Vec<[f64; 3]>,
) -> Result<(), CompressError> {
    let mut r = Reader::new(middle);
    modes.clear();
    for &mode in r.counted(1)? {
        modes.push(match mode {
            0 => BlockMode::Lorenzo,
            1 => BlockMode::Regression,
            other => {
                return Err(CompressError::CorruptStream(format!("unknown block mode {other}")))
            }
        });
    }
    planes.clear();
    for plane in r.counted(24)?.chunks_exact(24) {
        let mut c = Reader::new(plane);
        planes.push([c.f64()?, c.f64()?, c.f64()?]);
    }
    Ok(())
}

impl Compressor for SzCompressor {
    fn name(&self) -> &str {
        match self.config.entropy {
            EntropyBackend::Huffman => "sz",
            EntropyBackend::Rans8 => "sz-rans8",
        }
    }

    fn description(&self) -> &str {
        match self.config.entropy {
            EntropyBackend::Huffman => {
                "SZ-style block prediction (Lorenzo + regression) with linear quantization, \
                 Huffman and LZ77"
            }
            EntropyBackend::Rans8 => {
                "SZ-style block prediction (Lorenzo + regression) with linear quantization \
                 and 8-way interleaved rANS"
            }
        }
    }

    fn compress_view_with(
        &self,
        field: &FieldView<'_>,
        bound: ErrorBound,
        scratch: &mut ScratchArena,
    ) -> Result<Vec<u8>, CompressError> {
        // One dispatch lookup per stream, threaded into the kernels.
        self.compress_into(simd_level(), field, bound, scratch, || {})
    }

    fn decompress_view_with(
        &self,
        stream: &[u8],
        scratch: &mut ScratchArena,
        out: &mut Field2D,
    ) -> Result<(), CompressError> {
        let (SzScratch { modes, planes, .. }, w) = scratch.get_with_work::<SzScratch>();
        let parts = w.decode(&FORMAT, stream)?;
        read_middle(parts.middle, modes, planes)?;
        let Header { ny, nx, eb, param, radius } = parts.header;
        let block_size = param as usize;
        let quantizer = Quantizer::new(eb, radius);

        // Replay the prediction/quantization chain. `resize` leaves stale
        // contents, but the block scan writes every cell before any Lorenzo
        // read touches it (the encoder's reconstruction buffer relies on the
        // same invariant).
        out.resize(ny, nx);
        let mut codes = w.codes.as_slice();
        let mut exact = w.exact.as_slice();
        let mut planes = planes.iter();
        let blocks = WindowIter::over(ny, nx, block_size, block_size);
        if modes.len() != blocks.count_windows() {
            let (found, expected) = (modes.len(), blocks.count_windows());
            return Err(CompressError::CorruptStream(format!(
                "{found} block modes for {expected} blocks"
            )));
        }

        for (win, &mode) in blocks.zip(modes.iter()) {
            let (block, rest) = codes.split_at(win.len());
            codes = rest;
            let escapes = block.iter().filter(|&&c| c == quantize::UNPREDICTABLE).count();
            if escapes > exact.len() {
                return Err(CompressError::CorruptStream("missing exact value".into()));
            }
            let (block_exact, rest) = exact.split_at(escapes);
            exact = rest;
            let mut block_exact = block_exact.iter();
            match mode {
                BlockMode::Regression => {
                    let Some(plane) = planes.next() else {
                        return Err(CompressError::CorruptStream("missing plane".into()));
                    };
                    for (di, row_codes) in block.chunks_exact(win.width).enumerate() {
                        let row = &mut out.row_mut(win.i0 + di)[win.j0..win.j0 + win.width];
                        for (dj, (slot, &code)) in row.iter_mut().zip(row_codes).enumerate() {
                            *slot = if code == quantize::UNPREDICTABLE {
                                *block_exact.next().expect("escapes were counted")
                            } else {
                                quantizer.dequantize(code, plane_predict(plane, di, dj))
                            };
                        }
                    }
                }
                BlockMode::Lorenzo => {
                    // Exact values are stored in raster order, so a block
                    // holding escapes replays in raster order; every other
                    // block takes the wavefront.
                    let order = if escapes == 0 { Order::Wavefront } else { Order::Raster };
                    lorenzo::replay(out.as_mut_slice(), nx, &win, order, |di, dj, prediction| {
                        match block[di * win.width + dj] {
                            quantize::UNPREDICTABLE => {
                                *block_exact.next().expect("escapes were counted")
                            }
                            code => quantizer.dequantize(code, prediction),
                        }
                    });
                }
            }
        }
        // Every section is consumed: what is left, no encoder wrote.
        if !exact.is_empty() {
            let surplus = exact.len();
            return Err(CompressError::CorruptStream(format!(
                "{surplus} exact values after the last escape"
            )));
        }
        let surplus = planes.len();
        if surplus > 0 {
            return Err(CompressError::CorruptStream(format!(
                "{surplus} planes after the last regression block"
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod kernel_identity;

#[cfg(test)]
mod tests {
    use super::*;

    fn smooth_field(n: usize) -> Field2D {
        Field2D::from_fn(n, n, |i, j| {
            ((i as f64) * 0.02).sin() * 2.0 + ((j as f64) * 0.03).cos() + 0.001 * (i as f64)
        })
    }

    fn rough_field(n: usize, seed: u64) -> Field2D {
        let mut state = seed.max(1);
        Field2D::from_fn(n, n, |_, _| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state as f64 / u64::MAX as f64) * 2.0 - 1.0
        })
    }

    #[test]
    fn error_bound_holds_on_smooth_field() {
        let field = smooth_field(80);
        let sz = SzCompressor::default();
        for eb in [1e-5, 1e-4, 1e-3, 1e-2] {
            let r = sz.compress(&field, ErrorBound::Absolute(eb)).unwrap();
            assert!(r.metrics.max_abs_error <= eb, "eb={eb}: {}", r.metrics.max_abs_error);
        }
    }

    #[test]
    fn error_bound_holds_on_random_field() {
        let field = rough_field(64, 7);
        let sz = SzCompressor::default();
        for eb in [1e-4, 1e-2, 0.3] {
            let r = sz.compress(&field, ErrorBound::Absolute(eb)).unwrap();
            assert!(r.metrics.max_abs_error <= eb, "eb={eb}: {}", r.metrics.max_abs_error);
        }
    }

    #[test]
    fn smooth_fields_compress_better_than_rough() {
        let sz = SzCompressor::default();
        let smooth = sz.compress(&smooth_field(96), ErrorBound::Absolute(1e-3)).unwrap();
        let rough = sz.compress(&rough_field(96, 3), ErrorBound::Absolute(1e-3)).unwrap();
        assert!(
            smooth.metrics.compression_ratio > 2.0 * rough.metrics.compression_ratio,
            "smooth CR {} vs rough CR {}",
            smooth.metrics.compression_ratio,
            rough.metrics.compression_ratio
        );
    }

    #[test]
    fn looser_bounds_give_higher_ratios() {
        let field = smooth_field(96);
        let sz = SzCompressor::default();
        let tight = sz.compress(&field, ErrorBound::Absolute(1e-5)).unwrap();
        let loose = sz.compress(&field, ErrorBound::Absolute(1e-2)).unwrap();
        assert!(loose.metrics.compression_ratio > tight.metrics.compression_ratio);
    }

    #[test]
    fn constant_field_compresses_enormously() {
        let field = Field2D::filled(64, 64, 3.75);
        let sz = SzCompressor::default();
        let r = sz.compress(&field, ErrorBound::Absolute(1e-6)).unwrap();
        assert_eq!(r.metrics.max_abs_error, 0.0);
        assert!(r.metrics.compression_ratio > 50.0, "CR = {}", r.metrics.compression_ratio);
    }

    #[test]
    fn non_square_and_non_multiple_shapes_roundtrip() {
        let field = Field2D::from_fn(37, 53, |i, j| (i as f64 - j as f64) * 0.01);
        let sz = SzCompressor::default();
        let r = sz.compress(&field, ErrorBound::Absolute(1e-4)).unwrap();
        assert_eq!(r.reconstruction.shape(), (37, 53));
        assert!(r.metrics.max_abs_error <= 1e-4);
    }

    #[test]
    fn value_range_relative_bound_is_supported() {
        let field = smooth_field(48);
        let range = field.value_range();
        let sz = SzCompressor::default();
        let r = sz.compress(&field, ErrorBound::ValueRangeRelative(1e-3)).unwrap();
        assert!(r.metrics.max_abs_error <= 1e-3 * range * 1.0000001);
    }

    #[test]
    fn lorenzo_only_variant_still_respects_bound() {
        let field = smooth_field(64);
        let sz = SzCompressor::lorenzo_only();
        assert!(!sz.config.enable_regression);
        let r = sz.compress(&field, ErrorBound::Absolute(1e-3)).unwrap();
        assert!(r.metrics.max_abs_error <= 1e-3);
    }

    #[test]
    fn rejects_invalid_inputs() {
        let mut field = Field2D::zeros(8, 8);
        let sz = SzCompressor::default();
        assert!(sz.compress_view(&field.view(), ErrorBound::Absolute(0.0)).is_err());
        field.set(0, 0, f64::NAN);
        assert!(sz.compress_view(&field.view(), ErrorBound::Absolute(1e-3)).is_err());
    }

    #[test]
    fn the_finiteness_check_inside_mode_selection_keeps_its_verdicts_and_their_order() {
        // Fields wide enough for grouped and ragged blocks, at a tile's size
        // and with one block row.
        for sz in [SzCompressor::default(), SzCompressor::rans8(), SzCompressor::lorenzo_only()] {
            for (ny, nx) in [(64, 64), (9, 150), (40, 3)] {
                let clean = Field2D::from_fn(ny, nx, |i, j| (i as f64 * 0.3).sin() + j as f64);
                for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                    for (i, j) in [(0, 0), (ny / 2, nx / 2), (ny - 1, nx - 1)] {
                        let mut field = clean.clone();
                        field.set(i, j, bad);
                        // Non-finite input is the first error, whatever the bound.
                        for bound in [ErrorBound::Absolute(1e-3), ErrorBound::Absolute(-1.0)] {
                            let err = sz.compress_view(&field.view(), bound).unwrap_err();
                            assert!(
                                matches!(&err, CompressError::InvalidInput(m) if m.contains("non-finite")),
                                "{ny}x{nx} {bad} at ({i}, {j}) under {bound:?}: {err:?}"
                            );
                        }
                    }
                }
                let err = sz.compress_view(&clean.view(), ErrorBound::Absolute(-1.0)).unwrap_err();
                assert!(matches!(err, CompressError::InvalidBound(_)), "{err:?}");
                // Finite values whose block sums overflow are still a valid field.
                let huge = Field2D::from_fn(ny, nx, |i, j| f64::MAX / 2.0 - (i + j) as f64 * 1e300);
                let stream = sz.compress_view(&huge.view(), ErrorBound::Absolute(1e290)).unwrap();
                let back = sz.decompress_field(&stream).unwrap();
                let worst = huge.as_slice().iter().zip(back.as_slice()).map(|(a, b)| (a - b).abs());
                assert!(worst.fold(0.0, f64::max) <= 1e290, "{ny}x{nx}");
            }
        }
    }

    #[test]
    fn corrupt_streams_are_rejected() {
        let field = smooth_field(32);
        let sz = SzCompressor::default();
        let stream = sz.compress_view(&field.view(), ErrorBound::Absolute(1e-3)).unwrap();
        assert!(sz.decompress_field(&stream[..stream.len() / 2]).is_err());
        assert!(sz.decompress_field(&[]).is_err());
        let mut bad = stream.clone();
        if let Some(b) = bad.last_mut() {
            *b ^= 0xFF;
        }
        // Either an error or (if the flipped byte was padding) a valid result;
        // must not panic.
        let _ = sz.decompress_field(&bad);
    }

    #[test]
    fn forged_giant_dimensions_are_rejected_not_wrapped() {
        // ny = nx = 2^32 wraps ny*nx to 0 in a release build, which used to
        // slip past the code-count check and panic in the replay loop; the
        // checked cell count must reject it as a corrupt stream instead.
        let mut payload = Vec::new();
        payload.extend_from_slice(&FORMAT.huffman);
        payload.extend_from_slice(&(1u64 << 32).to_le_bytes()); // ny
        payload.extend_from_slice(&(1u64 << 32).to_le_bytes()); // nx
        payload.extend_from_slice(&1e-3f64.to_le_bytes()); // eb
        payload.extend_from_slice(&16u32.to_le_bytes()); // block size
        payload.extend_from_slice(&32768u32.to_le_bytes()); // radius
        payload.extend_from_slice(&0u64.to_le_bytes()); // n_modes
        payload.extend_from_slice(&0u64.to_le_bytes()); // n_planes
        let huff = lcc_lossless::huffman_encode(&[]);
        payload.extend_from_slice(&(huff.len() as u64).to_le_bytes());
        payload.extend_from_slice(&huff);
        payload.extend_from_slice(&0u64.to_le_bytes()); // n_exact
        let stream = lcc_lossless::lz77_compress(&payload);
        assert!(matches!(
            SzCompressor::default().decompress_field(&stream),
            Err(CompressError::CorruptStream(_))
        ));
    }

    #[test]
    fn name_and_description() {
        let sz = SzCompressor::default();
        assert_eq!(sz.name(), "sz");
        assert!(sz.description().contains("Lorenzo"));
        let rans8 = SzCompressor::rans8();
        assert_eq!(rans8.name(), "sz-rans8");
        assert!(rans8.description().contains("8-way"));
    }

    #[test]
    fn rans_backend_respects_bounds_and_decodes_identically() {
        // The entropy stage is lossless, so both backends must decode to
        // bit-identical fields — and each compressor instance must decode
        // the other's self-describing stream.
        let huff = SzCompressor::default();
        let rans8 = SzCompressor::rans8();
        for field in [smooth_field(80), rough_field(64, 7)] {
            for eb in [1e-4, 1e-2] {
                let a = huff.compress(&field, ErrorBound::Absolute(eb)).unwrap();
                let c = rans8.compress(&field, ErrorBound::Absolute(eb)).unwrap();
                assert!(c.metrics.max_abs_error <= eb);
                assert_eq!(a.reconstruction, c.reconstruction, "rans8 disagrees at eb={eb}");
                assert_ne!(a.stream, c.stream, "containers must differ");
                assert!(c.stream.starts_with(&FORMAT.rans8));
                for decoder in [&huff, &rans8] {
                    assert_eq!(decoder.decompress_field(&a.stream).unwrap(), a.reconstruction);
                    assert_eq!(decoder.decompress_field(&c.stream).unwrap(), c.reconstruction);
                }
            }
        }
    }

    #[test]
    fn rans8_streams_reject_corruption() {
        let rans8 = SzCompressor::rans8();
        let stream =
            rans8.compress_view(&smooth_field(32).view(), ErrorBound::Absolute(1e-3)).unwrap();
        assert!(rans8.decompress_field(&stream[..stream.len() / 2]).is_err());
        assert!(rans8.decompress_field(&stream[..6]).is_err());
        let mut bad = stream.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x55;
        // Must error or (if the flip landed in slack) decode cleanly — never
        // panic.
        let _ = rans8.decompress_field(&bad);
    }
}
