//! The local statistics run their windows four at a time, one window per
//! lane; each window must come out exactly as the per-window kernels
//! (`window_range`, `window_truncation_level`) compute it alone, at every
//! SIMD tier the host runs (chosen by argument, not through `LCC_SIMD`).
//!
//! And a field with a NaN, an infinity or values whose squares overflow has
//! none of the four statistics: each reads NaN and no model is selected.

use lcc::core::dataset::StudyDatasets;
use lcc::core::experiment::{run_sweep, SweepConfig};
use lcc::core::registry::sz_zfp_registry;
use lcc::core::statistics::{CorrelationStatistics, StatisticKind, StatisticsConfig};
use lcc::core::CompressionRatioPredictor;
use lcc::geostat::{
    local_svd_truncation_levels_view_at, local_variogram_ranges_view_at, window_range,
    window_truncation_level, LocalStatConfig, VariogramConfig,
};
use lcc::grid::{Field2D, FieldView};
use lcc::lossless::dispatch::supported_levels;
use lcc::pressio::ErrorBound;
use lcc::synth::{generate_single_range, GaussianFieldConfig};
use proptest::prelude::*;

/// The full `window × window` tiles of `view`, row-major.
fn full_windows<'a>(view: &FieldView<'a>, window: usize) -> Vec<FieldView<'a>> {
    view.windows(window, window)
        .filter(|(win, _)| win.is_full(window, window))
        .map(|(_, w)| w)
        .collect()
}

/// A window the spectrum refuses: a non-finite value, or a sum that
/// overflows.
fn has_no_spectrum(view: &FieldView<'_>) -> bool {
    !view.iter().sum::<f64>().is_finite()
}

/// Checks both quad paths against their per-window kernels on every tier;
/// returns the number of windows checked.
fn assert_quads_equal_windows(view: &FieldView<'_>, window: usize, budget: usize) -> usize {
    let variogram = VariogramConfig { max_lag: Some(10), n_bins: 10, sample_budget: budget };
    let config = LocalStatConfig { window, variogram, threads: Some(2) };
    let windows = full_windows(view, window);
    let ranges: Vec<u64> = windows.iter().map(|w| window_range(w, &variogram).to_bits()).collect();
    let levels = if windows.iter().any(has_no_spectrum) {
        None
    } else {
        Some(windows.iter().filter_map(|w| window_truncation_level(w, 0.99)).collect::<Vec<_>>())
    };
    for &level in supported_levels() {
        let quads = local_variogram_ranges_view_at(level, view, &config);
        let quads: Vec<u64> = quads.iter().map(|r| r.to_bits()).collect();
        assert_eq!(quads, ranges, "ranges at {level:?}, {window}² windows");
        let quads = local_svd_truncation_levels_view_at(level, view, window, 0.99, Some(2));
        assert_eq!(quads, levels, "levels at {level:?}, {window}² windows");
    }
    windows.len()
}

/// Ten 32 × 32 windows side by side: a GRF, a constant, a constant whose
/// mean rounds, zero rows after centring, signed zeros, spikes of 1e300 and
/// 1e-300, an exactly rank-1 window, all `-0.0`, and rows falling off by
/// 1e-20 a row (QL deflates).
fn special_windows() -> Field2D {
    let grf = generate_single_range(&GaussianFieldConfig::new(32, 32, 5.0, 4));
    Field2D::from_fn(32, 320, |i, j| {
        let (k, j) = (j / 32, j % 32);
        let sign = if j % 2 == 0 { 1.0 } else { -1.0 };
        match k {
            0 => grf.at(i, j),
            1 => 4.25,
            2 => 4.2,
            3 if i == 7 || i == 31 => 0.0,
            3 => (((i * 7 + (j % 16) * 3) % 5) as f64 - 2.0) * if j < 16 { 1.0 } else { -1.0 },
            4 => 0.0 * sign,
            5 if (i, j) == (7, 19) => 1e300,
            6 if (i, j) == (7, 19) => 1e-300,
            5 | 6 => 0.0,
            7 => (i + 1) as f64 * (j as f64 - 15.5),
            8 => -0.0,
            _ => 1e-20f64.powi(i.abs_diff(16) as i32) * sign,
        }
    })
}

#[test]
fn quads_equal_the_per_window_kernels_at_every_tier() {
    let grf = generate_single_range(&GaussianFieldConfig::new(128, 128, 6.0, 9));
    let mut windows = 0;
    // Window sides 4, 16, 32 and 33; a strided subview; a budget that
    // strides the window variogram's origins.
    windows += assert_quads_equal_windows(&grf.view().subview(0, 0, 24, 24), 4, 200_000);
    for window in [16, 32, 33] {
        windows += assert_quads_equal_windows(&grf.view(), window, 200_000);
    }
    let strided = grf.view().subview(3, 5, 100, 70);
    assert!(!strided.is_contiguous());
    windows += assert_quads_equal_windows(&strided, 32, 200_000);
    windows += assert_quads_equal_windows(&grf.view(), 32, 60);
    // One to ten special windows: every padding of a short last quad.
    let special = special_windows();
    for count in 1..=10 {
        windows +=
            assert_quads_equal_windows(&special.view().subview(0, 0, 32, 32 * count), 32, 200_000);
    }
    // A NaN and an infinite window beside finite ones: their ranges are NaN,
    // the others' are their own, and the field has no levels.
    let mut non_finite = generate_single_range(&GaussianFieldConfig::new(32, 160, 4.0, 6));
    non_finite.set(9, 36, f64::NAN);
    non_finite.set(20, 126, f64::INFINITY);
    windows += assert_quads_equal_windows(&non_finite.view(), 32, 200_000);
    let ranges = local_variogram_ranges_view_at(
        supported_levels()[0],
        &non_finite.view(),
        &LocalStatConfig::default(),
    );
    let nan: Vec<bool> = ranges.iter().map(|r| r.is_nan()).collect();
    assert_eq!(nan, [false, true, false, true, false]);
    assert_eq!(windows, 36 + 64 + 16 + 9 + 6 + 16 + 55 + 5);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn quads_equal_the_per_window_kernels_on_random_tilings(
        window in 4usize..34,
        across in 1usize..10,
        down in 1usize..3,
        seed in 0u64..1_000,
        range in 1.0f64..20.0,
        special in 0usize..6,
        budget in 20usize..2_000,
    ) {
        // A GRF a little larger than the tiling, read through a strided
        // subview, with one window made special.
        let (ny, nx) = (down * window + 3, across * window + 2);
        let mut field = generate_single_range(&GaussianFieldConfig::new(ny, nx, range, seed));
        let (i0, j0) = (1, 2);
        let target = (seed as usize) % (across * down);
        let (ti, tj) = (i0 + (target / across) * window, j0 + (target % across) * window);
        for i in ti..ti + window {
            for j in tj..tj + window {
                let spike = (i - ti, j - tj) == (window / 2, window / 3);
                let value = match special {
                    0 => field.at(i, j),
                    1 => 2.5,
                    2 => if (i + j) % 2 == 0 { 0.0 } else { -0.0 },
                    3 => if spike { 1e300 } else { field.at(i, j) },
                    4 => if spike { f64::NAN } else { field.at(i, j) },
                    _ => field.at(i, j) * 1e-300,
                };
                field.set(i, j, value);
            }
        }
        let view = field.view().subview(i0, j0, down * window, across * window);
        let checked = assert_quads_equal_windows(&view, window, budget);
        prop_assert_eq!(checked, across * down);
    }
}

/// The four statistics of a field, in `CorrelationStatistics` order.
fn four(stats: &CorrelationStatistics) -> [f64; 4] {
    [stats.global_range, stats.global_sill, stats.local_range_std, stats.local_svd_std]
}

#[test]
fn non_finite_and_overflowing_fields_have_no_statistics_and_no_selection() {
    let datasets = StudyDatasets {
        gaussian_size: 64,
        n_ranges: 3,
        min_range: 2.0,
        max_range: 12.0,
        replicates: 1,
        seed: 17,
    };
    let bound = ErrorBound::Absolute(1e-3);
    let sweep = SweepConfig { bounds: vec![bound], threads: Some(2), ..Default::default() };
    let records = run_sweep(&datasets.single_range_fields(), &sz_zfp_registry(), &sweep).unwrap();
    let kinds = [
        StatisticKind::GlobalVariogramRange,
        StatisticKind::LocalVariogramRangeStd,
        StatisticKind::LocalSvdTruncationStd,
    ];
    let predictors: Vec<CompressionRatioPredictor> = kinds
        .iter()
        .map(|&kind| CompressionRatioPredictor::train(&records, kind).unwrap())
        .collect();

    let config = StatisticsConfig { threads: Some(2), ..StatisticsConfig::default() };
    let clean = generate_single_range(&GaussianFieldConfig::new(128, 128, 6.0, 3));
    let stats = CorrelationStatistics::compute_view(&clean.view(), &config);
    assert!(four(&stats).iter().all(|x| x.is_finite()), "{stats:?}");
    for predictor in &predictors {
        assert!(predictor.select_compressor(&stats, bound, &["sz", "zfp"]).is_some());
    }

    // One NaN, one ±∞, or two finite values whose sum and squares overflow
    // (in one 32 × 32 window).
    let mut nan = clean.clone();
    nan.set(40, 70, f64::NAN);
    let mut inf = clean.clone();
    inf.set(40, 70, f64::INFINITY);
    let mut neg_inf = clean.clone();
    neg_inf.set(40, 70, f64::NEG_INFINITY);
    let mut overflow = clean.clone();
    overflow.set(40, 70, 1.5e308);
    overflow.set(41, 70, 1.5e308);
    for (name, field) in [("NaN", nan), ("+inf", inf), ("-inf", neg_inf), ("overflow", overflow)] {
        let stats = CorrelationStatistics::compute_view(&field.view(), &config);
        assert!(four(&stats).iter().all(|x| x.is_nan()), "{name}: {stats:?}");
        for predictor in &predictors {
            let choice = predictor.select_compressor(&stats, bound, &["sz", "zfp"]);
            assert_eq!(choice, None, "{name}: {:?}", predictor.statistic());
        }
    }

    // One finite 1e300: its squared differences overflow, so neither
    // variogram statistic exists, but its window's spectrum does (the
    // spectrum scales each window by a power of two first).
    let mut spike = clean.clone();
    spike.set(40, 70, 1e300);
    let stats = CorrelationStatistics::compute_view(&spike.view(), &config);
    let [range, sill, local_range, local_svd] = four(&stats);
    assert!(range.is_nan() && sill.is_nan() && local_range.is_nan(), "{stats:?}");
    assert!(local_svd.is_finite(), "{stats:?}");
}
