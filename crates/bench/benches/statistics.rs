//! Statistic throughput benches: the global variogram range, the local
//! variogram-range spread and the local SVD truncation spread. The paper's
//! future work notes that the statistics must become cheap relative to the
//! compressors before they can drive online adaptation — these benches
//! quantify exactly that gap (compare against `compressors.rs`). The two
//! `window_*` rows are the per-window kernels the local statistics spend
//! their time in (256 calls each per 512² field).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use lcc_geostat::{
    local_range_std, local_svd_truncation_std, variogram::estimate_range, window_range,
    window_truncation_level, LocalStatConfig,
};
use lcc_synth::{generate_single_range, GaussianFieldConfig};

const FIELD_SIZE: usize = 256;

fn bench_global_variogram(c: &mut Criterion) {
    let mut group = c.benchmark_group("global_variogram_range_256x256");
    group.throughput(Throughput::Bytes((FIELD_SIZE * FIELD_SIZE * 8) as u64));
    group.sample_size(10);
    for range in [4.0, 32.0] {
        let field =
            generate_single_range(&GaussianFieldConfig::new(FIELD_SIZE, FIELD_SIZE, range, 5));
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("range{range}")),
            &field,
            |b, f| b.iter(|| estimate_range(f)),
        );
    }
    group.finish();
}

fn bench_local_variogram_std(c: &mut Criterion) {
    let mut group = c.benchmark_group("local_variogram_range_std_h32_256x256");
    group.sample_size(10);
    let field = generate_single_range(&GaussianFieldConfig::new(FIELD_SIZE, FIELD_SIZE, 16.0, 5));
    group.bench_function("default", |b| {
        b.iter(|| local_range_std(&field, &LocalStatConfig::default()))
    });
    group.finish();
}

fn bench_local_svd_std(c: &mut Criterion) {
    let mut group = c.benchmark_group("local_svd_truncation_std_h32_256x256");
    group.sample_size(10);
    let field = generate_single_range(&GaussianFieldConfig::new(FIELD_SIZE, FIELD_SIZE, 16.0, 5));
    group.bench_function("fraction_0.99", |b| {
        b.iter(|| local_svd_truncation_std(&field, 32, 0.99, None))
    });
    group.finish();
}

fn bench_window_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("window_kernels_32x32");
    group.sample_size(10);
    let field = generate_single_range(&GaussianFieldConfig::new(FIELD_SIZE, FIELD_SIZE, 16.0, 5));
    // An interior window, strided through the parent like every real one.
    let window = field.view().subview(96, 64, 32, 32);
    let variogram = LocalStatConfig::default().variogram;
    group.bench_function("window_truncation_level", |b| {
        b.iter(|| window_truncation_level(&window, 0.99))
    });
    group.bench_function("window_range", |b| b.iter(|| window_range(&window, &variogram)));
    group.finish();
}

fn bench_field_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("gaussian_field_generation");
    group.sample_size(10);
    for size in [256usize, 512] {
        group.bench_with_input(BenchmarkId::from_parameter(size), &size, |b, &n| {
            b.iter(|| generate_single_range(&GaussianFieldConfig::new(n, n, 16.0, 9)))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_global_variogram,
    bench_local_variogram_std,
    bench_local_svd_std,
    bench_window_kernels,
    bench_field_generation
);
criterion_main!(benches);
