//! # lcc-pressio — unified error-bounded compressor interface
//!
//! The paper drives SZ, ZFP and MGARD through LibPressio so that every
//! compressor is configured and measured the same way. This crate plays that
//! role for the Rust reimplementations:
//!
//! * [`Compressor`] — the trait every lossy compressor implements
//!   (`compress_view_with` / `decompress_view_with`, plus provided
//!   fresh-scratch conveniences and [`Compressor::compress`], which also
//!   reconstructs and measures); compressors read borrowed [`FieldView`]s
//!   directly, so the sweep scheduler never clones a field or window to
//!   compress it,
//! * [`ErrorBound`] — absolute and value-range-relative point-wise bounds
//!   with the paper's conversion between the two,
//! * [`Metrics`] — compression ratio, maximum absolute error, MSE, PSNR and
//!   bitrate computed from original + reconstruction + stream size,
//! * [`Registry`] — a name-indexed collection of boxed compressors used by
//!   the experiment driver and the Table I binary,
//! * [`codes`] — the container SZ and MGARD share from quantisation codes to
//!   bytes, and the little-endian cursor it is written and read with.

pub mod bound;
pub mod codes;
pub mod frame;
pub mod metrics;
pub mod registry;
pub mod scratch;

pub use bound::ErrorBound;
pub use codes::CodecWork;
pub use frame::{FrameIndex, FrameScratch, FrameWorker, FRAME_MAGIC, FRAME_VERSION};
pub use metrics::Metrics;
pub use registry::{CompressorInfo, Registry};
pub use scratch::ScratchArena;

use lcc_grid::{Field2D, FieldView};

/// Errors produced by compression or decompression.
#[derive(Debug, Clone, PartialEq)]
pub enum CompressError {
    /// The requested error bound is not representable (non-positive,
    /// non-finite…).
    InvalidBound(String),
    /// The input field cannot be handled (e.g. contains non-finite values).
    InvalidInput(String),
    /// The compressed stream is corrupt or truncated.
    CorruptStream(String),
    /// A deadline or cancellation fired before the work completed; partial
    /// output must be discarded. Carries the stage that observed expiry.
    DeadlineExceeded(String),
    /// An internal invariant failed — most commonly a job that panicked
    /// inside a parallel worker, isolated per job and surfaced here instead
    /// of aborting the process.
    Internal(String),
}

impl std::fmt::Display for CompressError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompressError::InvalidBound(m) => write!(f, "invalid error bound: {m}"),
            CompressError::InvalidInput(m) => write!(f, "invalid input: {m}"),
            CompressError::CorruptStream(m) => write!(f, "corrupt stream: {m}"),
            CompressError::DeadlineExceeded(m) => write!(f, "deadline exceeded: {m}"),
            CompressError::Internal(m) => write!(f, "internal error: {m}"),
        }
    }
}

impl std::error::Error for CompressError {}

/// Outcome of a measured compression run: the stream, the reconstruction and
/// the quality/size metrics comparing it to the original.
#[derive(Debug, Clone)]
pub struct CompressionResult {
    /// The compressed byte stream.
    pub stream: Vec<u8>,
    /// The field reconstructed from `stream`.
    pub reconstruction: Field2D,
    /// Size and quality metrics.
    pub metrics: Metrics,
}

/// An error-bounded lossy compressor operating on 2D fields.
///
/// An implementation provides [`name`](Compressor::name) and the two
/// scratch-taking primitives, [`compress_view_with`](Compressor::compress_view_with)
/// and [`decompress_view_with`](Compressor::decompress_view_with); everything
/// else is a provided one-liner over that pair.
pub trait Compressor: Send + Sync {
    /// Short identifier, e.g. `"sz"`, `"zfp"`, `"mgard"`.
    fn name(&self) -> &str;

    /// One-line description of the algorithm family (used by Table I).
    fn description(&self) -> &str {
        "error-bounded lossy compressor"
    }

    /// Compress a (possibly strided) borrowed view under `bound`, returning
    /// the self-describing stream — the encode primitive. The sweep
    /// scheduler and the framed codec hand whole-field, window and block
    /// views here without cloning, and the produced stream is identical to
    /// compressing an owned copy of the same rectangle.
    ///
    /// Working memory comes out of `scratch` (via
    /// [`ScratchArena::get_with_work`]), so a caller that keeps one arena
    /// per worker runs allocation-free in steady state; the stream must not
    /// depend on what the arena held before.
    fn compress_view_with(
        &self,
        view: &FieldView<'_>,
        bound: ErrorBound,
        scratch: &mut ScratchArena,
    ) -> Result<Vec<u8>, CompressError>;

    /// Reconstruct a stream into a caller-owned field using caller-owned
    /// scratch memory — the decode primitive.
    ///
    /// Implementations resize `out` to the stream's shape and overwrite
    /// every cell; their internal working memory (decoded payloads, symbol
    /// buffers, coefficient workspaces) comes out of `scratch`, so
    /// decode-heavy loops — the sweep's metric jobs, the framed multi-block
    /// decoder — run allocation-free in steady state.
    fn decompress_view_with(
        &self,
        stream: &[u8],
        scratch: &mut ScratchArena,
        out: &mut Field2D,
    ) -> Result<(), CompressError>;

    /// Compress, reconstruct, and measure a view in one call — what each
    /// sweep worker runs per (field, compressor, bound) cell, reusing one
    /// arena across all its work items. Both directions go through the
    /// arena (only the returned reconstruction itself is freshly allocated).
    fn compress_measured_with(
        &self,
        view: &FieldView<'_>,
        bound: ErrorBound,
        scratch: &mut ScratchArena,
    ) -> Result<CompressionResult, CompressError> {
        let stream = self.compress_view_with(view, bound, scratch)?;
        let mut reconstruction = Field2D::zeros(1, 1);
        self.decompress_view_with(&stream, scratch, &mut reconstruction)?;
        let metrics = Metrics::compare_view(view, &reconstruction, stream.len());
        Ok(CompressionResult { stream, reconstruction, metrics })
    }

    /// [`Compressor::compress_view_with`] with fresh scratch — for tests,
    /// examples and one-off calls.
    fn compress_view(
        &self,
        view: &FieldView<'_>,
        bound: ErrorBound,
    ) -> Result<Vec<u8>, CompressError> {
        self.compress_view_with(view, bound, &mut ScratchArena::new())
    }

    /// [`Compressor::decompress_view_with`] with fresh scratch and a fresh
    /// output field.
    fn decompress_field(&self, stream: &[u8]) -> Result<Field2D, CompressError> {
        let mut out = Field2D::zeros(1, 1);
        self.decompress_view_with(stream, &mut ScratchArena::new(), &mut out)?;
        Ok(out)
    }

    /// [`Compressor::compress_measured_with`] for an owned field, with
    /// fresh scratch.
    fn compress(
        &self,
        field: &Field2D,
        bound: ErrorBound,
    ) -> Result<CompressionResult, CompressError> {
        self.compress_measured_with(&field.view(), bound, &mut ScratchArena::new())
    }
}

/// Validate that a view is finite (compressors share this precondition).
/// Scans whole rows so the check vectorizes (it runs at the head of every
/// compress call).
pub fn validate_finite_view(view: &FieldView<'_>) -> Result<(), CompressError> {
    if view.rows().all(|row| row.iter().all(|v| v.is_finite())) {
        Ok(())
    } else {
        Err(CompressError::InvalidInput("field contains non-finite values".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A do-nothing compressor used to exercise the provided `compress`
    /// method and the registry.
    struct StoreCompressor;

    impl Compressor for StoreCompressor {
        fn name(&self) -> &str {
            "store"
        }

        fn compress_view_with(
            &self,
            view: &FieldView<'_>,
            bound: ErrorBound,
            _scratch: &mut ScratchArena,
        ) -> Result<Vec<u8>, CompressError> {
            bound.absolute_for_view(view)?; // validate the bound
            let mut out = Vec::new();
            out.extend_from_slice(&(view.ny() as u64).to_le_bytes());
            out.extend_from_slice(&(view.nx() as u64).to_le_bytes());
            for v in view.iter() {
                out.extend_from_slice(&v.to_le_bytes());
            }
            Ok(out)
        }

        fn decompress_view_with(
            &self,
            stream: &[u8],
            _scratch: &mut ScratchArena,
            out: &mut Field2D,
        ) -> Result<(), CompressError> {
            if stream.len() < 16 {
                return Err(CompressError::CorruptStream("short header".into()));
            }
            let ny = u64::from_le_bytes(stream[0..8].try_into().unwrap()) as usize;
            let nx = u64::from_le_bytes(stream[8..16].try_into().unwrap()) as usize;
            let mut data = Vec::with_capacity(ny * nx);
            for chunk in stream[16..].chunks_exact(8) {
                data.push(f64::from_le_bytes(chunk.try_into().unwrap()));
            }
            *out = Field2D::from_vec(ny, nx, data)
                .map_err(|e| CompressError::CorruptStream(e.to_string()))?;
            Ok(())
        }
    }

    #[test]
    fn provided_compress_reports_lossless_store() {
        let field = Field2D::from_fn(8, 8, |i, j| (i as f64).sin() + j as f64);
        let c = StoreCompressor;
        let result = c.compress(&field, ErrorBound::Absolute(1e-3)).unwrap();
        assert_eq!(result.reconstruction, field);
        assert_eq!(result.metrics.max_abs_error, 0.0);
        // Stored stream has a 16-byte header, so the ratio is slightly below 1.
        assert!(result.metrics.compression_ratio < 1.0);
        assert!(result.metrics.compression_ratio > 0.9);
    }

    #[test]
    fn provided_conveniences_agree_with_the_scratch_primitives() {
        let field = Field2D::from_fn(6, 5, |i, j| (i + 2 * j) as f64);
        let c = StoreCompressor;
        let mut arena = ScratchArena::new();
        let bound = ErrorBound::Absolute(1.0);
        let direct = c.compress_view(&field.view(), bound).unwrap();
        assert_eq!(direct, c.compress_view_with(&field.view(), bound, &mut arena).unwrap());
        assert_eq!(c.decompress_field(&direct).unwrap(), field);
        let measured = c.compress_measured_with(&field.view(), bound, &mut arena).unwrap();
        assert_eq!(measured.reconstruction, field);
        assert_eq!(measured.stream, direct);
    }

    #[test]
    fn invalid_bound_is_rejected_via_provided_method() {
        let field = Field2D::zeros(4, 4);
        let c = StoreCompressor;
        assert!(matches!(
            c.compress(&field, ErrorBound::Absolute(-1.0)),
            Err(CompressError::InvalidBound(_))
        ));
    }

    #[test]
    fn validate_finite_detects_nan() {
        let mut f = Field2D::zeros(2, 2);
        assert!(validate_finite_view(&f.view()).is_ok());
        f.set(1, 1, f64::NAN);
        assert!(validate_finite_view(&f.view()).is_err());
        f.set(1, 1, f64::INFINITY);
        assert!(validate_finite_view(&f.view()).is_err());
    }

    #[test]
    fn error_display_formats() {
        assert!(CompressError::InvalidBound("x".into()).to_string().contains("bound"));
        assert!(CompressError::InvalidInput("x".into()).to_string().contains("input"));
        assert!(CompressError::CorruptStream("x".into()).to_string().contains("corrupt"));
        assert!(CompressError::DeadlineExceeded("x".into()).to_string().contains("deadline"));
        assert!(CompressError::Internal("x".into()).to_string().contains("internal"));
    }
}
