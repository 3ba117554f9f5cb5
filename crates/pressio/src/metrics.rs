//! Reconstruction-quality and size metrics.

use lcc_grid::{Field2D, FieldView};

/// Size and quality metrics for one compression run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metrics {
    /// Size of the original data in bytes (`8 · n` for `f64` fields).
    pub uncompressed_bytes: usize,
    /// Size of the compressed stream in bytes.
    pub compressed_bytes: usize,
    /// `uncompressed_bytes / compressed_bytes` — the paper's primary statistic.
    pub compression_ratio: f64,
    /// Compressed bits per value.
    pub bitrate: f64,
    /// Maximum absolute point-wise error.
    pub max_abs_error: f64,
    /// Mean squared error.
    pub mse: f64,
    /// Peak signal-to-noise ratio in dB, computed against the original value
    /// range (infinite for a perfect reconstruction).
    pub psnr: f64,
}

impl Metrics {
    /// Compare a (possibly strided) borrowed view of the original against
    /// `reconstruction`, given the compressed stream size. Accumulates in
    /// row-major order, so the result is bit-identical to comparing an owned
    /// copy of the same rectangle.
    ///
    /// # Panics
    /// Panics if the shapes differ or the stream size is 0.
    pub(crate) fn compare_view(
        original: &FieldView<'_>,
        reconstruction: &Field2D,
        compressed_bytes: usize,
    ) -> Metrics {
        assert_eq!(
            original.shape(),
            reconstruction.shape(),
            "shape mismatch in Metrics::compare_view"
        );
        assert!(compressed_bytes > 0, "compressed size must be positive");
        let n = original.len();
        let uncompressed_bytes = n * std::mem::size_of::<f64>();
        let (max_abs_error, mse) = lcc_grid::stats::error_pair_metrics(
            original.iter().zip(reconstruction.as_slice().iter().copied()),
        );
        let range = original.value_range();
        let psnr = if mse <= 0.0 {
            f64::INFINITY
        } else if range > 0.0 {
            20.0 * range.log10() - 10.0 * mse.log10()
        } else {
            // Constant original: fall back to an MSE-only PSNR.
            -10.0 * mse.log10()
        };
        Metrics {
            uncompressed_bytes,
            compressed_bytes,
            compression_ratio: uncompressed_bytes as f64 / compressed_bytes as f64,
            bitrate: compressed_bytes as f64 * 8.0 / n as f64,
            max_abs_error,
            mse,
            psnr,
        }
    }
}

impl std::fmt::Display for Metrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "CR={:.2} bitrate={:.3}bits max_err={:.3e} psnr={:.1}dB",
            self.compression_ratio, self.bitrate, self.max_abs_error, self.psnr
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_reconstruction() {
        let f = Field2D::from_fn(8, 8, |i, j| (i * j) as f64);
        let m = Metrics::compare_view(&f.view(), &f, 64);
        assert_eq!(m.max_abs_error, 0.0);
        assert_eq!(m.mse, 0.0);
        assert!(m.psnr.is_infinite());
        assert!((m.compression_ratio - (64.0 * 8.0 / 64.0)).abs() < 1e-12);
        assert!((m.bitrate - 8.0).abs() < 1e-12);
    }

    #[test]
    fn known_error_metrics() {
        let a = Field2D::filled(2, 2, 0.0);
        let mut b = a.clone();
        b.set(0, 0, 0.1);
        b.set(1, 1, -0.2);
        // Value range of the original is 0, so PSNR uses the MSE-only form.
        let m = Metrics::compare_view(&a.view(), &b, 16);
        assert!((m.max_abs_error - 0.2).abs() < 1e-12);
        assert!((m.mse - (0.01 + 0.04) / 4.0).abs() < 1e-12);
        assert!(m.psnr.is_finite());
    }

    #[test]
    fn psnr_uses_value_range() {
        let a = Field2D::from_fn(4, 4, |i, j| (i * 4 + j) as f64); // range 15
        let mut b = a.clone();
        b.set(0, 0, a.get(0, 0) + 0.15);
        let m = Metrics::compare_view(&a.view(), &b, 10);
        let expected = 20.0 * 15.0f64.log10() - 10.0 * m.mse.log10();
        assert!((m.psnr - expected).abs() < 1e-9);
    }

    #[test]
    fn display_contains_key_numbers() {
        let f = Field2D::from_fn(4, 4, |i, _| i as f64);
        let m = Metrics::compare_view(&f.view(), &f, 32);
        let s = m.to_string();
        assert!(s.contains("CR="));
        assert!(s.contains("psnr"));
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn mismatched_shapes_panic() {
        let a = Field2D::zeros(2, 2);
        let b = Field2D::zeros(2, 3);
        let _ = Metrics::compare_view(&a.view(), &b, 1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_compressed_size_panics() {
        let a = Field2D::zeros(2, 2);
        let _ = Metrics::compare_view(&a.view(), &a, 0);
    }
}
