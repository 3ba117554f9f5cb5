//! The correlation statistics of a field, bit for bit.
//!
//! The global variogram sweeps the field once per lag band instead of once
//! per offset, and the model fit runs on stack arrays. Neither may move a
//! bit: at every pool width the four statistics of
//! `CorrelationStatistics::compute_view` must equal the three stand-alone
//! calls, and the values the estimators produced before either change
//! (constants captured at the commit before the band sweep — per-offset
//! passes and a `Vec`-based Gauss–Newton fit). The study sweep's records
//! carry the same bits.
//!
//! The fields themselves are pinned too, by an FNV-1a digest of their
//! values, and so is the seeded sampler the generators draw from: a lossy
//! stream or a statistic can stay equal over a field that moved.

use lcc::core::dataset::LabeledField;
use lcc::core::experiment::{run_sweep, SweepConfig};
use lcc::core::statistics::{CorrelationStatistics, StatisticsConfig};
use lcc::geostat::{estimate_range_view, local_range_std_view, local_svd_truncation_std_view};
use lcc::grid::Field2D;
use lcc::hydro::{MirandaProxy, MirandaProxyConfig, Problem};
use lcc::pressio::{ErrorBound, Registry};
use lcc::synth::{
    generate_multi_range, generate_single_range, GaussianFieldConfig, GaussianSampler,
    MultiRangeConfig,
};
use lcc::zfp::ZfpCompressor;
use std::sync::Arc;

#[path = "common/fnv.rs"]
mod fnv;

/// `[global_range, global_sill, local_range_std, local_svd_std]` as bits.
type Bits = [u64; 4];

/// Two 512² fields of the e2e pool's kinds, one of its Miranda-proxy slices
/// and one 256² field of its training set's kind, with the digest of their
/// values (captured at the commit before the FFT and the sampler's generator
/// moved into `lcc_synth`) and their statistics at the parent commit.
fn pinned() -> Vec<(&'static str, Field2D, u64, Bits)> {
    let miranda = MirandaProxy::new(MirandaProxyConfig {
        ny: 512,
        nx: 512,
        n_slices: 1,
        steps_between_snapshots: 3,
        problem: Problem::KelvinHelmholtz,
        seed: 2021,
    })
    .generate_velocityx_slices()
    .remove(0);
    vec![
        (
            "grf-a6 512",
            generate_single_range(&GaussianFieldConfig::new(512, 512, 6.0, 101)),
            0xa4b3996eae26aee3,
            [0x401a40ed26cb5b0e, 0x3ff08d56a6d09c32, 0x3ff2f26f0e3e97c8, 0x3fe1a9dc8f6df104],
        ),
        (
            "grf-a8+40 512",
            generate_multi_range(&MultiRangeConfig::two_ranges(512, 512, 8.0, 40.0, 105)),
            0x95899ebf40c4d9e1,
            [0x403498204423c678, 0x3fed2b60cd590e96, 0x3ffdd276066e56d0, 0x3fdeb97e455b9edb],
        ),
        (
            "miranda-vx 512",
            miranda,
            0xd9718ada1ab7b4b4,
            [0x40649c06909f8a40, 0x3fdb74acd2411f04, 0x40120b8acc7fb230, 0x3fdc443f1d4d22af],
        ),
        (
            "train-a9 256",
            generate_single_range(&GaussianFieldConfig::new(256, 256, 9.0, 307)),
            0x69a052f30335b49f,
            [0x4022d4cf9772b0db, 0x3ff09fd191409cbb, 0x400027ce3e275ddc, 0x3fdfeffbfdfebf1f],
        ),
    ]
}

#[test]
fn composite_statistics_equal_the_stand_alone_calls_and_the_parent_commit_at_every_width() {
    for (name, field, _, parent) in pinned() {
        let view = field.view();
        for threads in [1, 2, 3, 8] {
            let config = StatisticsConfig { threads: Some(threads), ..StatisticsConfig::default() };
            let s = CorrelationStatistics::compute_view(&view, &config);
            let composite = [s.global_range, s.global_sill, s.local_range_std, s.local_svd_std]
                .map(f64::to_bits);
            assert_eq!(composite, parent, "{name}, {threads} threads: composite vs parent commit");

            let global = estimate_range_view(&view, &config.variogram);
            let stand_alone = [
                global.range,
                global.sill,
                local_range_std_view(&view, &config.local_config()),
                local_svd_truncation_std_view(
                    &view,
                    config.window,
                    config.svd_fraction,
                    config.threads,
                ),
            ]
            .map(f64::to_bits);
            assert_eq!(stand_alone, parent, "{name}, {threads} threads: stand-alone vs parent");
        }
    }
}

/// The study sweep — what trains the predictor and draws every figure —
/// carries the same four statistics on every record, at every sweep width.
#[test]
fn sweep_records_carry_the_composite_statistics_at_every_width() {
    let (labeled, parents): (Vec<LabeledField>, Vec<Bits>) = pinned()
        .into_iter()
        .map(|(name, field, _, parent)| (LabeledField::new(name, field, None), parent))
        .unzip();
    let mut registry = Registry::new();
    registry.register(Arc::new(ZfpCompressor::default()), "0");
    for threads in [1, 2, 4] {
        let config = SweepConfig {
            bounds: vec![ErrorBound::Absolute(1e-2)],
            threads: Some(threads),
            ..SweepConfig::default()
        };
        let records = run_sweep(&labeled, &registry, &config).unwrap();
        assert_eq!(records.len(), parents.len());
        for (record, parent) in records.iter().zip(&parents) {
            let s = record.statistics;
            let bits = [s.global_range, s.global_sill, s.local_range_std, s.local_svd_std]
                .map(f64::to_bits);
            assert_eq!(bits, *parent, "{}, sweep at {threads} threads", record.field_name);
        }
    }
}

/// FNV-1a over the little-endian bits of `values`.
fn digest(values: impl Iterator<Item = f64>) -> u64 {
    fnv::bytes(&values.flat_map(f64::to_le_bytes).collect::<Vec<u8>>())
}

/// The generated fields and the sampler streams they are drawn from, bit
/// for bit as at the commit before the generator's FFT and random-number
/// generator moved into `lcc_synth`.
#[test]
fn generated_fields_and_sampler_streams_equal_the_parent_commit() {
    for (name, field, parent, _) in pinned() {
        let values = fnv::values(&field.view());
        assert_eq!(values, parent, "{name}: field digest {values:#x}");
    }
    let mut sampler = GaussianSampler::new(7);
    let normals = digest((0..1000).map(|_| sampler.sample()));
    assert_eq!(normals, 0x2b347ed84fdc845e, "sample() digest {normals:#x}");
    let mut sampler = GaussianSampler::new(7);
    let uniforms = digest((0..1000).map(|_| sampler.uniform()));
    assert_eq!(uniforms, 0xd93b80b1b0dd97af, "uniform() digest {uniforms:#x}");
}

/// Fields whose kernels the synthesis treats specially, with the digest of
/// their values captured at the commit before it did: mostly all-zero
/// kernel rows (a = 2), a ring of subnormal kernel values (a = 18),
/// embeddings four times wider than tall and the reverse (64 × 256 and
/// 256 × 64), and a superposition of a short and a long range.
#[test]
fn fields_with_zero_subnormal_and_non_square_kernels_equal_the_parent_commit() {
    let fields = [
        (
            "grf-a2 512",
            generate_single_range(&GaussianFieldConfig::new(512, 512, 2.0, 102)),
            0x1816c3026779dc0f,
        ),
        (
            "grf-a18 512",
            generate_single_range(&GaussianFieldConfig::new(512, 512, 18.0, 118)),
            0x4f5e27f9e064e89e,
        ),
        (
            "grf-a3 40x200",
            generate_single_range(&GaussianFieldConfig::new(40, 200, 3.0, 340)),
            0xa92f8614b48d2af8,
        ),
        (
            "grf-a3 200x40",
            generate_single_range(&GaussianFieldConfig::new(200, 40, 3.0, 341)),
            0x8b651879d82fbc09,
        ),
        (
            "grf-a2+40 256",
            generate_multi_range(&MultiRangeConfig::two_ranges(256, 256, 2.0, 40.0, 240)),
            0xff573b7cdbf2b018,
        ),
    ];
    for (name, field, parent) in fields {
        let values = fnv::values(&field.view());
        assert_eq!(values, parent, "{name}: field digest {values:#x}");
    }
}
