//! Ablation benches for the workspace's design choices:
//!
//! * `sz_predictor_ablation` — Lorenzo-only SZ vs Lorenzo+regression SZ
//!   (compression ratio is printed; the bench measures the time cost of the
//!   extra predictor),
//! * `variogram_sampling_ablation` — full-budget vs aggressively sampled
//!   pair enumeration in the variogram estimator,
//! * `window_size_ablation` — local statistics at H = 16 / 32 / 64,
//! * `sweep_parallel_ablation` — the Figure 3 style sweep with 1 thread vs
//!   all cores.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lcc_core::dataset::StudyDatasets;
use lcc_core::experiment::{run_sweep, SweepConfig};
use lcc_core::registry::sz_zfp_registry;
use lcc_geostat::{
    local_range_std, variogram::estimate_range_with, LocalStatConfig, VariogramConfig,
};
use lcc_pressio::{Compressor, ErrorBound};
use lcc_synth::{generate_single_range, GaussianFieldConfig};
use lcc_sz::SzCompressor;

fn sz_predictor_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("sz_predictor_ablation_256x256");
    group.sample_size(10);
    let field = generate_single_range(&GaussianFieldConfig::new(256, 256, 16.0, 3));
    let full = SzCompressor::default();
    let lorenzo = SzCompressor::lorenzo_only();
    // Print the ratio difference once so the ablation's quality impact is
    // visible next to its cost.
    let cr_full =
        full.compress(&field, ErrorBound::Absolute(1e-3)).unwrap().metrics.compression_ratio;
    let cr_lorenzo =
        lorenzo.compress(&field, ErrorBound::Absolute(1e-3)).unwrap().metrics.compression_ratio;
    println!("sz_predictor_ablation: CR full={cr_full:.2} lorenzo-only={cr_lorenzo:.2}");
    group.bench_function("lorenzo+regression", |b| {
        b.iter(|| full.compress_field(&field, ErrorBound::Absolute(1e-3)).unwrap())
    });
    group.bench_function("lorenzo_only", |b| {
        b.iter(|| lorenzo.compress_field(&field, ErrorBound::Absolute(1e-3)).unwrap())
    });
    group.finish();
}

fn variogram_sampling_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("variogram_sampling_ablation_256x256");
    group.sample_size(10);
    let field = generate_single_range(&GaussianFieldConfig::new(256, 256, 16.0, 5));
    for (label, budget) in [("full_budget", 1_000_000usize), ("sampled_1e4", 10_000)] {
        let config = VariogramConfig { sample_budget: budget, ..Default::default() };
        // Report the estimate so the accuracy/cost trade-off is visible.
        let fit = estimate_range_with(&field, &config);
        println!("variogram_sampling_ablation {label}: estimated range {:.2}", fit.range);
        group.bench_with_input(BenchmarkId::from_parameter(label), &config, |b, cfg| {
            b.iter(|| estimate_range_with(&field, cfg))
        });
    }
    group.finish();
}

fn window_size_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("window_size_ablation_256x256");
    group.sample_size(10);
    let field = generate_single_range(&GaussianFieldConfig::new(256, 256, 16.0, 7));
    for window in [16usize, 32, 64] {
        let config = LocalStatConfig::with_window(window);
        group.bench_with_input(BenchmarkId::from_parameter(window), &config, |b, cfg| {
            b.iter(|| local_range_std(&field, cfg))
        });
    }
    group.finish();
}

fn sweep_parallel_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("sweep_parallel_ablation");
    group.sample_size(10);
    let datasets = StudyDatasets {
        gaussian_size: 128,
        n_ranges: 4,
        min_range: 2.0,
        max_range: 24.0,
        replicates: 1,
        seed: 3,
    };
    let fields = datasets.single_range_fields();
    let registry = sz_zfp_registry();
    for threads in [Some(1usize), None] {
        let label = match threads {
            Some(1) => "serial",
            _ => "all_cores",
        };
        let config =
            SweepConfig { bounds: vec![ErrorBound::Absolute(1e-3)], threads, ..Default::default() };
        group.bench_with_input(BenchmarkId::from_parameter(label), &config, |b, cfg| {
            b.iter(|| run_sweep(&fields, &registry, cfg).unwrap())
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    sz_predictor_ablation,
    variogram_sampling_ablation,
    window_size_ablation,
    sweep_parallel_ablation
);
criterion_main!(benches);
