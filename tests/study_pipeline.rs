//! End-to-end pipeline tests: dataset generation → statistics → compression
//! sweep → figure series → prediction, spanning every crate in the
//! workspace.

use lcc::core::dataset::StudyDatasets;
use lcc::core::experiment::{fit_series, run_sweep, SweepConfig};
use lcc::core::figures::{run_figure1, run_figure3, Figure3Config, FigurePanel};
use lcc::core::registry::{default_registry, sz_zfp_registry};
use lcc::core::statistics::{CorrelationStatistics, StatisticKind, StatisticsConfig};
use lcc::core::CompressionRatioPredictor;
use lcc::pressio::ErrorBound;

#[path = "common/fnv.rs"]
mod fnv;

#[test]
fn figure1_pipeline_recovers_a_plausible_range() {
    let data = run_figure1(128, 12.0, 7);
    assert!(data.range > 4.0 && data.range < 40.0, "fitted range {}", data.range);
    assert!(data.sill > 0.3 && data.sill < 3.0, "fitted sill {}", data.sill);
    assert!(!data.empirical.is_empty());
}

#[test]
fn figure3_headline_trends_hold_at_reduced_scale() {
    // The headline qualitative claims of the paper, checked end to end on a
    // reduced workload:
    //  (1) SZ's and ZFP's compression ratios increase with the variogram
    //      range (positive beta),
    //  (2) MGARD's ratios are less sensitive to the range than SZ's,
    //  (3) looser bounds yield larger ratios at a fixed range.
    let data = run_figure3(&Figure3Config::quick());
    let panel = &data.single_range;

    let beta = |name: &str, eps: f64| -> f64 {
        panel
            .series
            .iter()
            .find(|s| s.compressor == name && s.bound.raw_epsilon() == eps)
            .map(|s| s.fit.beta)
            .unwrap_or_else(|| panic!("missing series {name} at {eps}"))
    };
    // (1)
    assert!(beta("sz", 1e-2) > 0.0, "sz beta {}", beta("sz", 1e-2));
    assert!(beta("zfp", 1e-2) > 0.0, "zfp beta {}", beta("zfp", 1e-2));
    // (2)
    assert!(
        beta("mgard", 1e-2) < beta("sz", 1e-2),
        "mgard beta {} vs sz beta {}",
        beta("mgard", 1e-2),
        beta("sz", 1e-2)
    );
    // (3) mean CR at loose bound exceeds mean CR at tighter bound for SZ.
    let mean_cr = |name: &str, eps: f64| -> f64 {
        let records: Vec<f64> = panel
            .records
            .iter()
            .filter(|r| &*r.compressor == name && r.bound.raw_epsilon() == eps)
            .map(|r| r.compression_ratio)
            .collect();
        records.iter().sum::<f64>() / records.len() as f64
    };
    assert!(mean_cr("sz", 1e-2) > mean_cr("sz", 1e-3));

    // (4) Nothing moved: every record's statistics and ratio, and every
    // series' fit, hash to the values captured at the commit before the
    // sweep took its statistics from `compute_view`.
    for (name, panel, pinned) in [
        ("single-range", &data.single_range, 0x9d16_63bc_b214_7bc8),
        ("multi-range", &data.multi_range, 0x1e73_5e20_fb79_279c),
    ] {
        assert_eq!(panel_digest(panel), pinned, "{name} panel moved");
    }
}

/// FNV-1a over the bits of every record's four statistics and ratio, then
/// every series' `(alpha, beta, r_squared, n_points)`.
fn panel_digest(panel: &FigurePanel) -> u64 {
    let records = panel.records.iter().flat_map(|r| {
        let s = r.statistics;
        [s.global_range, s.global_sill, s.local_range_std, s.local_svd_std, r.compression_ratio]
            .map(f64::to_bits)
    });
    let fits = panel.series.iter().flat_map(|s| {
        let f = &s.fit;
        [f.alpha.to_bits(), f.beta.to_bits(), f.r_squared.to_bits(), f.n_points as u64]
    });
    fnv::bytes(&records.chain(fits).flat_map(u64::to_le_bytes).collect::<Vec<u8>>())
}

#[test]
fn sweep_records_feed_prediction_and_selection() {
    let datasets = StudyDatasets {
        gaussian_size: 80,
        n_ranges: 4,
        min_range: 2.0,
        max_range: 16.0,
        replicates: 1,
        seed: 31,
    };
    let registry = sz_zfp_registry();
    let config = SweepConfig { bounds: vec![ErrorBound::Absolute(1e-2)], ..Default::default() };
    let records = run_sweep(&datasets.single_range_fields(), &registry, &config).unwrap();
    assert_eq!(records.len(), 4 * 2);

    let series = fit_series(&records, StatisticKind::GlobalVariogramRange);
    assert_eq!(series.len(), 2);

    let predictor =
        CompressionRatioPredictor::train(&records, StatisticKind::GlobalVariogramRange).unwrap();
    let stats = records[0].statistics;
    let choice = predictor
        .select_compressor(&stats, ErrorBound::Absolute(1e-2), &["sz", "zfp"])
        .expect("selection succeeds");
    assert!(choice.predicted_ratio >= 1.0);
}

/// Full-study runs at the standard experiment scale (256×256 fields, the
/// complete bound grid). Minutes, not seconds — gated behind the
/// `slow-tests` feature so the default tier-1 loop stays fast; CI runs them
/// on a schedule via `cargo test --features slow-tests`.
#[cfg(feature = "slow-tests")]
mod full_study {
    use lcc::core::figures::{run_figure3, run_figure4, Figure3Config, MirandaFigureConfig};

    #[test]
    fn figure3_trends_hold_at_standard_scale() {
        let data = run_figure3(&Figure3Config::standard());
        let panel = &data.single_range;
        // Positive range→ratio slope for SZ at every bound in the grid.
        for series in panel.series.iter().filter(|s| s.compressor == "sz") {
            assert!(series.fit.beta > 0.0, "sz beta {} at {:?}", series.fit.beta, series.bound);
        }
        // The multi-range panel carries the same number of series.
        assert_eq!(data.multi_range.series.len(), panel.series.len());
    }

    #[test]
    fn figure4_miranda_proxy_completes_at_standard_scale() {
        let data = run_figure4(&MirandaFigureConfig::standard());
        assert!(!data.records.is_empty());
        assert!(data.records.iter().all(|r| r.compression_ratio >= 1.0));
    }
}

#[test]
fn statistics_and_registry_are_consistent_across_the_facade() {
    // The facade crate re-exports must expose a coherent API surface.
    let registry = default_registry();
    assert_eq!(registry.names(), vec!["mgard", "sz", "zfp"]);
    let field =
        lcc::synth::generate_single_range(&lcc::synth::GaussianFieldConfig::new(64, 64, 6.0, 3));
    let stats = CorrelationStatistics::compute_view(&field.view(), &StatisticsConfig::default());
    assert!(stats.global_range > 0.0);
    let fit = lcc::geostat::estimate_range_view(&field.view(), &Default::default());
    // The standalone estimator and the bundled statistics agree.
    assert!((fit.range - stats.global_range).abs() < 1e-9);
}
