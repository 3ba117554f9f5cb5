//! End-to-end pipeline tests: dataset generation → statistics → compression
//! sweep → figure series → prediction, spanning every crate in the
//! workspace.

use lcc::core::dataset::StudyDatasets;
use lcc::core::experiment::{fit_series, run_sweep, SweepConfig};
use lcc::core::figures::{run_figure1, run_study, FigurePanel, Study, StudyConfig, PANELS};
use lcc::core::registry::{default_registry, sz_zfp_registry};
use lcc::core::statistics::{CorrelationStatistics, StatisticKind, StatisticsConfig};
use lcc::core::CompressionRatioPredictor;
use lcc::pressio::ErrorBound;
use std::sync::OnceLock;

#[path = "common/fnv.rs"]
mod fnv;

/// The quick study, run once and shared by the tests that read its panels.
fn quick_study() -> &'static Study {
    static STUDY: OnceLock<Study> = OnceLock::new();
    STUDY.get_or_init(|| run_study(&StudyConfig::quick()).expect("the quick study runs"))
}

/// The panel of [`PANELS`] written as `<stem>_records.csv`.
fn study_panel(study: &Study, stem: &str) -> FigurePanel {
    study.panel(PANELS.iter().find(|p| p.stem == stem).expect("a panel of that stem"))
}

#[test]
fn figure1_pipeline_recovers_a_plausible_range() {
    let data = run_figure1(128, 12.0, 7).unwrap();
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
    let panel = &study_panel(quick_study(), "figure3_single_range");

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
}

#[test]
fn every_panel_of_the_quick_study_matches_its_pin() {
    // Every record's statistics and ratio, and every series' fit, hash to
    // the values captured before the figures shared one sweep per family:
    // the figure-3 pins at the commit before the sweep took its statistics
    // from `compute_view`, the other seven from the per-figure runners the
    // study replaced.
    let pins = [
        ("figure3_single_range", 0x9d16_63bc_b214_7bc8),
        ("figure3_multi_range", 0x1e73_5e20_fb79_279c),
        ("figure4_miranda_global_range", 0x2fa3_2428_9af5_0d10),
        ("figure5_single_range", 0x4d63_a753_e99d_5e15),
        ("figure5_multi_range", 0xaf75_45e2_dc2e_53d9),
        ("figure6_single_range", 0xc326_3a7c_3baf_4094),
        ("figure6_multi_range", 0xc46b_f064_db2c_ca73),
        ("figure7_local_range_std", 0x5208_a278_ea31_c7f9),
        ("figure7_local_svd_std", 0x9dc9_588d_d837_929d),
    ];
    assert_eq!(pins.map(|(stem, _)| stem), PANELS.map(|p| p.stem));
    for (stem, pinned) in pins {
        assert_eq!(panel_digest(&study_panel(quick_study(), stem)), pinned, "{stem} panel moved");
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

/// The full study at the standard experiment scale (256×256 fields, 12
/// slices of 192×192, the complete bound grid). Tens of seconds, not
/// seconds — gated behind the `slow-tests` feature so the default tier-1
/// loop stays fast; CI runs it on a schedule via
/// `cargo test --features slow-tests`.
#[cfg(feature = "slow-tests")]
#[test]
fn the_study_trends_hold_at_standard_scale() {
    let study = run_study(&StudyConfig::standard()).unwrap();
    let single = study_panel(&study, "figure3_single_range");
    // Positive range→ratio slope for SZ at every bound in the grid.
    for series in single.series.iter().filter(|s| s.compressor == "sz") {
        assert!(series.fit.beta > 0.0, "sz beta {} at {:?}", series.fit.beta, series.bound);
    }
    // The multi-range panel carries the same number of series.
    assert_eq!(study_panel(&study, "figure3_multi_range").series.len(), single.series.len());
    // Every Miranda-proxy slice compresses.
    assert!(!study.miranda.is_empty());
    assert!(study.miranda.iter().all(|r| r.compression_ratio >= 1.0));
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
