//! View/owned equivalence guarantees.
//!
//! Every statistics and compression path reads windows as zero-copy,
//! strided `FieldView`s of the parent buffer. These property tests pin that
//! down: for arbitrary fields (including shapes that leave partial edge
//! windows) the view-based pipeline must produce **bit-identical** results
//! to running the same kernels on an owned copy of each window
//! (`FieldView::to_field`).

use lcc::geostat::{
    local_svd_truncation_levels_view, local_svd_truncation_std_view, local_variogram_ranges_view,
    variogram::estimate_range_view, LocalStatConfig,
};
use lcc::grid::Field2D;
use lcc::mgard::MgardCompressor;
use lcc::pressio::{Compressor, ErrorBound};
use lcc::sz::SzCompressor;
use lcc::zfp::ZfpCompressor;
use proptest::prelude::*;

/// A deterministic pseudo-random field with mixed smooth + noise content.
fn arbitrary_field(ny: usize, nx: usize, seed: u64, roughness: f64) -> Field2D {
    let mut state = seed | 1;
    Field2D::from_fn(ny, nx, |i, j| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let noise = (state as f64 / u64::MAX as f64) - 0.5;
        (i as f64 * 0.21).sin() + (j as f64 * 0.13).cos() + roughness * noise
    })
}

/// Every full window of the tiling, copied out of the parent buffer.
fn cloned_full_windows(field: &Field2D, window: usize) -> Vec<Field2D> {
    field
        .windows(window, window)
        .filter(|(win, _)| win.is_full(window, window))
        .map(|(_, view)| view.to_field())
        .collect()
}

/// Reference implementation of the local variogram ranges: one owned
/// `Field2D` per full window.
fn cloned_window_ranges(field: &Field2D, config: &LocalStatConfig) -> Vec<f64> {
    cloned_full_windows(field, config.window)
        .iter()
        .map(|owned| estimate_range_view(&owned.view(), &config.variogram).range)
        .filter(|r| r.is_finite())
        .collect()
}

/// Reference implementation of the local SVD truncation spread: the tiled
/// statistic run on one owned `Field2D` per full window.
fn cloned_window_svd_std(field: &Field2D, window: usize, fraction: f64) -> f64 {
    let levels: Vec<f64> = cloned_full_windows(field, window)
        .iter()
        .flat_map(|owned| {
            local_svd_truncation_levels_view(&owned.view(), window, fraction, Some(1))
        })
        .map(|level| level as f64)
        .collect();
    lcc::grid::stats::std_dev(&levels)
}

proptest! {
    // Each case runs the full windowed estimator twice; keep the case count
    // moderate so the suite stays in tier-1 time.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn local_variogram_ranges_match_cloned_windows_bitwise(
        ny in 36usize..90,
        nx in 36usize..90,
        seed in 0u64..500,
        roughness in 0.0f64..2.0,
    ) {
        // Shapes in 36..90 with window 16 exercise both exact tilings and
        // partial edge windows.
        let field = arbitrary_field(ny, nx, seed, roughness);
        let config = LocalStatConfig { window: 16, threads: Some(2), ..Default::default() };
        let through_views = local_variogram_ranges_view(&field.view(), &config);
        let through_clones = cloned_window_ranges(&field, &config);
        prop_assert_eq!(through_views.len(), through_clones.len());
        for (a, b) in through_views.iter().zip(through_clones.iter()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn local_svd_std_matches_cloned_windows_bitwise(
        ny in 36usize..80,
        nx in 36usize..80,
        seed in 0u64..500,
        roughness in 0.0f64..2.0,
    ) {
        let field = arbitrary_field(ny, nx, seed, roughness);
        let through_views = local_svd_truncation_std_view(&field.view(), 16, 0.99, Some(2));
        let through_clones = cloned_window_svd_std(&field, 16, 0.99);
        prop_assert_eq!(through_views.to_bits(), through_clones.to_bits());
    }

    #[test]
    fn compressing_a_strided_view_equals_compressing_an_owned_copy(
        i0 in 0usize..8,
        j0 in 0usize..8,
        h in 9usize..24,
        w in 9usize..24,
        seed in 0u64..500,
    ) {
        // A window view is strided through the parent buffer; the stream it
        // produces must be byte-identical to compressing an owned copy of
        // the same rectangle.
        let field = arbitrary_field(40, 40, seed, 1.0);
        let view = field.view().subview(i0, j0, h, w);
        let owned = field.subfield(i0, j0, h, w);
        let compressors: Vec<Box<dyn Compressor>> = vec![
            Box::new(SzCompressor::default()),
            Box::new(ZfpCompressor::default()),
            Box::new(MgardCompressor::default()),
        ];
        for compressor in &compressors {
            let from_view = compressor.compress_view(&view, ErrorBound::Absolute(1e-3)).expect("view");
            let from_owned = compressor.compress_view(&owned.view(), ErrorBound::Absolute(1e-3)).expect("owned");
            prop_assert_eq!(&from_view, &from_owned);
            // And the roundtrip reconstructs the viewed rectangle.
            let recon = compressor.decompress_field(&from_view).expect("decompress");
            prop_assert_eq!(recon.shape(), view.shape());
        }
    }
}
