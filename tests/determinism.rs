//! Reproducibility guarantees: the entire study is seed-deterministic and
//! independent of the worker-thread count, so every figure can be
//! regenerated bit-for-bit.

use lcc::core::dataset::StudyDatasets;
use lcc::core::experiment::{run_sweep, SweepConfig};
use lcc::core::registry::sz_zfp_registry;
use lcc::core::statistics::{CorrelationStatistics, StatisticsConfig};
use lcc::hydro::{MirandaProxy, MirandaProxyConfig, Problem};
use lcc::pressio::ErrorBound;
use lcc::synth::{generate_single_range, GaussianFieldConfig};

#[test]
fn synthetic_fields_and_hydro_runs_are_seed_deterministic() {
    let cfg = GaussianFieldConfig::new(96, 96, 7.0, 99);
    assert_eq!(generate_single_range(&cfg), generate_single_range(&cfg));

    let hydro_cfg = MirandaProxyConfig {
        ny: 32,
        nx: 32,
        n_slices: 2,
        steps_between_snapshots: 10,
        problem: Problem::KelvinHelmholtz,
        seed: 5,
    };
    assert_eq!(
        MirandaProxy::new(hydro_cfg).generate_velocityx_slices(),
        MirandaProxy::new(hydro_cfg).generate_velocityx_slices()
    );
}

#[test]
fn compressed_streams_are_bitwise_deterministic() {
    let field = generate_single_range(&GaussianFieldConfig::new(72, 72, 10.0, 3));
    for compressor in sz_zfp_registry().compressors() {
        let a = compressor.compress_view(&field.view(), ErrorBound::Absolute(1e-3)).unwrap();
        let b = compressor.compress_view(&field.view(), ErrorBound::Absolute(1e-3)).unwrap();
        assert_eq!(a, b, "{} produced different streams for identical input", compressor.name());
    }
}

#[test]
fn correlation_statistics_are_bitwise_independent_of_thread_count_and_of_view_versus_owned() {
    // Large enough that the global variogram strides its origins and that
    // every pool worker gets offsets and windows.
    let parent = generate_single_range(&GaussianFieldConfig::new(560, 530, 9.0, 41));
    let view = parent.view().subview(9, 5, 520, 512);
    assert!(!view.is_contiguous());
    let at = |threads| StatisticsConfig { threads: Some(threads), ..StatisticsConfig::default() };
    let bits = |s: CorrelationStatistics| {
        [s.global_range, s.global_sill, s.local_range_std, s.local_svd_std].map(f64::to_bits)
    };
    let serial = bits(CorrelationStatistics::compute_view(&view, &at(1)));
    assert_eq!(bits(CorrelationStatistics::compute_view(&view, &at(4))), serial);
    assert_eq!(bits(CorrelationStatistics::compute_view(&view.to_field().view(), &at(3))), serial);
}

#[test]
fn sweep_results_do_not_depend_on_thread_count() {
    let datasets = StudyDatasets {
        gaussian_size: 64,
        n_ranges: 3,
        min_range: 2.0,
        max_range: 12.0,
        replicates: 1,
        seed: 17,
    };
    let fields = datasets.single_range_fields();
    let registry = sz_zfp_registry();
    let run = |threads: Option<usize>| {
        let config =
            SweepConfig { bounds: vec![ErrorBound::Absolute(1e-3)], threads, ..Default::default() };
        run_sweep(&fields, &registry, &config).unwrap()
    };
    let serial = run(Some(1));
    let parallel = run(None);
    assert_eq!(serial.len(), parallel.len());
    for (a, b) in serial.iter().zip(parallel.iter()) {
        assert_eq!(a.field_name, b.field_name);
        assert_eq!(a.compressor, b.compressor);
        assert_eq!(a.compression_ratio, b.compression_ratio);
        assert_eq!(a.statistics, b.statistics);
    }
}
