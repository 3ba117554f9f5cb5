//! Local (windowed) variogram statistics.
//!
//! The paper estimates the variogram range on 32×32 windows tiling the
//! entire field and summarizes the spatial heterogeneity of correlation by
//! the **standard deviation** of those local ranges.
//!
//! Every full window has the same shape, so the estimator is laid out once
//! per field (a `WindowPlan`: offsets, strides, bins) and the windows run
//! four at a time, one per lane (`quad`). [`window_range`], the
//! one-window kernel, is the oracle each window's range equals bit for bit.

use crate::quad::map_quads;
use crate::variogram::{estimate_range_view, VariogramConfig, WindowPlan, WindowScratch};
use lcc_grid::{stats, FieldView};
use lcc_lossless::dispatch::{simd_level, SimdLevel};
use lcc_par::ThreadPoolConfig;

/// Configuration of the local (windowed) statistics. Only full
/// `window × window` tiles are measured: partial edge windows are skipped,
/// as in the paper's H × H tiling.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocalStatConfig {
    /// Window side length H (the paper uses 32).
    pub window: usize,
    /// Variogram estimator settings used inside each window.
    pub variogram: VariogramConfig,
    /// Thread count (`None` = automatic).
    pub threads: Option<usize>,
}

impl Default for LocalStatConfig {
    fn default() -> Self {
        LocalStatConfig {
            window: 32,
            variogram: VariogramConfig { max_lag: Some(10), n_bins: 10, ..Default::default() },
            threads: None,
        }
    }
}

/// Estimate the variogram range of a single window view — the per-window
/// kernel [`local_variogram_ranges_view`] equals window by window, public
/// so a benchmark can time one window. Returns NaN when the fit fails.
#[inline]
pub fn window_range(view: &FieldView<'_>, config: &VariogramConfig) -> f64 {
    estimate_range_view(view, config).range
}

/// The full `window × window` tiles of the field, as strided sub-views of
/// the parent buffer in row-major tile order; partial edge tiles are left out.
pub(crate) fn full_windows<'a>(field: &FieldView<'a>, window: usize) -> Vec<FieldView<'a>> {
    field
        .windows(window, window)
        .filter(|(win, _)| win.is_full(window, window))
        .map(|(_, view)| view)
        .collect()
}

/// Estimate the variogram range on every full window tiling the field, in
/// row-major tile order. A window whose variogram is refused (it holds a
/// non-finite value, or its squared differences overflow) reads NaN.
/// Windows are strided sub-views of the parent buffer, copied four at a
/// time into one worker buffer; each range has [`window_range`]'s bits.
pub fn local_variogram_ranges_view(field: &FieldView<'_>, config: &LocalStatConfig) -> Vec<f64> {
    local_variogram_ranges_view_at(simd_level(), field, config)
}

/// [`local_variogram_ranges_view`] at an explicit SIMD tier (lowered to
/// one the hardware runs); every tier gives the same bits.
pub fn local_variogram_ranges_view_at(
    level: SimdLevel,
    field: &FieldView<'_>,
    config: &LocalStatConfig,
) -> Vec<f64> {
    assert!(config.window >= 4, "local windows must be at least 4x4");
    let windows = full_windows(field, config.window);
    let plan = WindowPlan::new(config.window, config.window, &config.variogram)
        .expect("a window of at least 4x4 has lags");
    let pool = config.threads.map_or_else(ThreadPoolConfig::auto, ThreadPoolConfig::with_threads);
    map_quads(pool, &windows, WindowScratch::default, |scratch, quad| {
        crate::quad::sum_quad(level, &plan, quad, scratch);
        std::array::from_fn(|lane| plan.fit_lane(scratch, lane))
    })
}

/// Standard deviation of the local variogram ranges — the paper's
/// "Std estimated of local variogram range (H=32)" statistic. NaN when any
/// full window's range is (its variogram was refused).
pub fn local_range_std_view(field: &FieldView<'_>, config: &LocalStatConfig) -> f64 {
    let ranges = local_variogram_ranges_view(field, config);
    if ranges.iter().any(|r| !r.is_finite()) {
        return f64::NAN;
    }
    stats::std_dev(&ranges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcc_grid::Field2D;
    use lcc_synth::{
        generate_multi_range, generate_single_range, GaussianFieldConfig, MultiRangeConfig,
    };

    #[test]
    fn number_of_windows_matches_tiling() {
        let f = generate_single_range(&GaussianFieldConfig::new(96, 96, 5.0, 1));
        let ranges = local_variogram_ranges_view(&f.view(), &LocalStatConfig::default());
        // 96/32 = 3 windows per axis → 9 full windows.
        assert_eq!(ranges.len(), 9);
        assert!(ranges.iter().all(|r| r.is_finite() && *r > 0.0));
        // 80² leaves 16-wide edges: only the 2x2 full windows are measured.
        let f = generate_single_range(&GaussianFieldConfig::new(80, 80, 5.0, 2));
        assert_eq!(local_variogram_ranges_view(&f.view(), &LocalStatConfig::default()).len(), 4);
    }

    #[test]
    fn heterogeneous_fields_have_larger_spread_than_homogeneous_ones() {
        // The statistic exists to detect spatial heterogeneity of the
        // correlation structure: a field stitched from a short-range half and
        // a long-range half must show a clearly larger spread of local ranges
        // than a homogeneous single-range field.
        let homogeneous = generate_single_range(&GaussianFieldConfig::new(128, 128, 6.0, 11));
        let short = generate_single_range(&GaussianFieldConfig::new(128, 64, 2.5, 12));
        let long = generate_single_range(&GaussianFieldConfig::new(128, 64, 24.0, 13));
        let stitched =
            Field2D::from_fn(
                128,
                128,
                |i, j| {
                    if j < 64 {
                        short.at(i, j)
                    } else {
                        long.at(i, j - 64)
                    }
                },
            );
        let cfg = LocalStatConfig::default();
        let std_homogeneous = local_range_std_view(&homogeneous.view(), &cfg);
        let std_stitched = local_range_std_view(&stitched.view(), &cfg);
        assert!(std_homogeneous.is_finite() && std_stitched.is_finite());
        assert!(
            std_stitched > std_homogeneous,
            "stitched spread {std_stitched} not larger than homogeneous {std_homogeneous}"
        );
        // The multi-range construction from the paper also yields a finite,
        // positive spread (its magnitude depends on the chosen ranges).
        let multi = generate_multi_range(&MultiRangeConfig::two_ranges(128, 128, 3.0, 24.0, 11));
        assert!(local_range_std_view(&multi.view(), &cfg) > 0.0);
    }

    #[test]
    fn local_mean_tracks_the_global_range_ordering() {
        let cfg = LocalStatConfig::default();
        let mean = |range| {
            let field = generate_single_range(&GaussianFieldConfig::new(128, 128, range, 5));
            stats::mean(&local_variogram_ranges_view(&field.view(), &cfg))
        };
        assert!(mean(12.0) > mean(3.0));
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let f = generate_single_range(&GaussianFieldConfig::new(96, 96, 8.0, 4));
        let one = LocalStatConfig { threads: Some(1), ..Default::default() };
        let many = LocalStatConfig { threads: Some(8), ..Default::default() };
        assert_eq!(
            local_variogram_ranges_view(&f.view(), &one),
            local_variogram_ranges_view(&f.view(), &many)
        );
    }

    #[test]
    fn different_window_sizes_are_supported() {
        let f = generate_single_range(&GaussianFieldConfig::new(64, 64, 5.0, 6));
        for window in [16, 32, 64] {
            let cfg = LocalStatConfig { window, ..Default::default() };
            let ranges = local_variogram_ranges_view(&f.view(), &cfg);
            assert!(!ranges.is_empty(), "window {window}");
        }
    }

    #[test]
    #[should_panic(expected = "at least 4x4")]
    fn tiny_window_panics() {
        let f = Field2D::zeros(8, 8);
        let cfg = LocalStatConfig { window: 2, ..Default::default() };
        let _ = local_variogram_ranges_view(&f.view(), &cfg);
    }
}
