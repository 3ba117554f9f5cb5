//! Cross-crate guarantee: every registered compressor — the three study
//! codecs and their rans8-backend variants — respects the requested error
//! bound on every dataset family used in the study.

use lcc::core::default_registry;
use lcc::core::registry::entropy_ablation_registry;
use lcc::grid::Field2D;
use lcc::hydro::{MirandaProxy, MirandaProxyConfig, Problem};
use lcc::pressio::ErrorBound;
use lcc::synth::{
    generate_multi_range, generate_single_range, GaussianFieldConfig, MultiRangeConfig,
};

/// Dataset families exercised by the guarantee tests (small versions).
fn dataset_families() -> Vec<(String, Field2D)> {
    let mut out = Vec::new();
    out.push((
        "gaussian-single-range".to_string(),
        generate_single_range(&GaussianFieldConfig::new(72, 72, 9.0, 4)),
    ));
    out.push((
        "gaussian-multi-range".to_string(),
        generate_multi_range(&MultiRangeConfig::two_ranges(72, 72, 3.0, 20.0, 5)),
    ));
    let slices = MirandaProxy::new(MirandaProxyConfig {
        ny: 48,
        nx: 48,
        n_slices: 2,
        steps_between_snapshots: 25,
        problem: Problem::KelvinHelmholtz,
        seed: 6,
    })
    .generate_velocityx_slices();
    out.push(("miranda-velocityx".to_string(), slices[1].clone()));
    let mut s = 9u64;
    out.push((
        "white-noise".to_string(),
        Field2D::from_fn(64, 64, |_, _| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s as f64 / u64::MAX as f64) * 2.0 - 1.0
        }),
    ));
    out.push(("constant".to_string(), Field2D::filled(64, 64, 1.25)));
    out
}

#[test]
fn every_compressor_respects_every_paper_bound_on_every_family() {
    let registry = entropy_ablation_registry();
    for (family, field) in dataset_families() {
        for compressor in registry.compressors() {
            for bound in ErrorBound::paper_bounds() {
                let result = compressor
                    .compress(&field, bound)
                    .unwrap_or_else(|e| panic!("{} failed on {family}: {e}", compressor.name()));
                let eb = bound.raw_epsilon();
                assert!(
                    result.metrics.max_abs_error <= eb,
                    "{} on {family} at {bound}: max error {} > {eb}",
                    compressor.name(),
                    result.metrics.max_abs_error
                );
                assert_eq!(result.reconstruction.shape(), field.shape());
                assert!(result.metrics.compression_ratio > 0.0);
            }
        }
    }
}

#[test]
fn value_range_relative_bounds_are_honoured_too() {
    let registry = entropy_ablation_registry();
    let field = generate_single_range(&GaussianFieldConfig::new(64, 64, 8.0, 11));
    let range = field.value_range();
    for compressor in registry.compressors() {
        let bound = ErrorBound::ValueRangeRelative(1e-3);
        let result = compressor.compress(&field, bound).unwrap();
        assert!(
            result.metrics.max_abs_error <= 1e-3 * range * 1.0000001,
            "{}: {} > {}",
            compressor.name(),
            result.metrics.max_abs_error,
            1e-3 * range
        );
    }
}

#[test]
fn looser_bounds_never_compress_worse_by_much() {
    // Monotonicity sanity check across the paper's bound ladder: each looser
    // bound should give at least ~the same ratio (small tolerance for coding
    // noise on the almost-incompressible end).
    let registry = default_registry();
    let field = generate_single_range(&GaussianFieldConfig::new(96, 96, 12.0, 13));
    for compressor in registry.compressors() {
        let mut previous = 0.0f64;
        for bound in ErrorBound::paper_bounds() {
            let cr = compressor.compress(&field, bound).unwrap().metrics.compression_ratio;
            assert!(
                cr >= previous * 0.95,
                "{} ratio regressed from {previous} to {cr} at {bound}",
                compressor.name()
            );
            previous = cr;
        }
    }
}
