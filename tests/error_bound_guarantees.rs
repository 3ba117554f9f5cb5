//! Cross-crate guarantee: every registered compressor — the three study
//! codecs and their rans8-backend variants — respects the requested error
//! bound on every dataset family used in the study, a value-range-relative
//! bound means the whole field's range on every path, and non-finite input
//! is refused the same way on every path.

use lcc::archive::{Archive, ArchiveWriter};
use lcc::core::default_registry;
use lcc::core::registry::entropy_ablation_registry;
use lcc::grid::Field2D;
use lcc::hydro::{MirandaProxy, MirandaProxyConfig, Problem};
use lcc::par::ThreadPoolConfig;
use lcc::pressio::frame::{compress_frame, compress_framed_with, decompress_framed_with};
use lcc::pressio::{CompressError, Compressor, ErrorBound, FrameIndex, FrameScratch};
use lcc::synth::{
    generate_multi_range, generate_single_range, GaussianFieldConfig, MultiRangeConfig,
};
use lcc::sz::SzCompressor;

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

/// A 32 × 32 field whose top half spans only `top_range` (a checkerboard of
/// 0 and `top_range`) over a smooth bottom half of range about 2.
fn banded_field(top_range: f64) -> Field2D {
    Field2D::from_fn(32, 32, |i, j| {
        if i < 16 {
            if (i + j) % 2 == 0 {
                0.0
            } else {
                top_range
            }
        } else {
            (i as f64 * 0.3).sin() + (j as f64 * 0.2).cos()
        }
    })
}

fn max_abs_error(a: &Field2D, b: &Field2D) -> f64 {
    assert_eq!(a.shape(), b.shape());
    a.as_slice().iter().zip(b.as_slice()).map(|(x, y)| (x - y).abs()).fold(0.0, f64::max)
}

/// Every tile of `frame` must be the bytes `sz` writes for that tile of
/// `field` at `absolute`.
fn assert_tiles_coded_at(frame: &[u8], field: &Field2D, absolute: ErrorBound, path: &str) {
    let sz = SzCompressor::default();
    let index = FrameIndex::parse(frame, frame.len()).unwrap();
    assert!(index.n_blocks() > 1, "{path}: a multi-tile frame");
    for b in 0..index.n_blocks() {
        let (at, len) = index.block_span(b);
        let tile = field.view().window(&index.block_window(b));
        let want = sz.compress_view(&tile, absolute).unwrap();
        assert_eq!(&frame[at..at + len], want.as_slice(), "{path}: tile {b}");
    }
}

#[test]
fn relative_bounds_resolve_against_the_whole_field_on_every_path() {
    // Top halves of range 5e-324 (one subnormal step: 1e-3 of it is 0) and
    // 4e-9: resolved per tile, the first bound is refused and the second
    // codes that band a million times tighter than asked.
    let sz = SzCompressor::default();
    let pool = ThreadPoolConfig::with_threads(2);
    let relative = ErrorBound::ValueRangeRelative(1e-3);
    for top_range in [f64::from_bits(1), 4e-9] {
        let field = banded_field(top_range);
        let eb = 1e-3 * field.value_range();
        let absolute = ErrorBound::Absolute(eb);
        let mut scratch = FrameScratch::new();
        let mut out = Field2D::zeros(1, 1);

        let framed = compress_framed_with(&sz, &field.view(), relative, 2, pool, &mut scratch)
            .unwrap_or_else(|e| panic!("top range {top_range:e}: framed: {e}"));
        assert_tiles_coded_at(&framed, &field, absolute, "compress_framed_with");
        decompress_framed_with(&sz, &framed, pool, &mut scratch, &mut out).unwrap();
        assert!(max_abs_error(&field, &out) <= eb, "framed: {}", max_abs_error(&field, &out));

        let (tiled, _) = compress_frame(
            &sz,
            &field.view(),
            relative,
            (16, 16),
            pool,
            &mut scratch,
            |_, _: &mut [()]| {},
        )
        .unwrap_or_else(|e| panic!("top range {top_range:e}: tiled: {e}"));
        assert_tiles_coded_at(&tiled, &field, absolute, "compress_frame");
        decompress_framed_with(&sz, &tiled, pool, &mut scratch, &mut out).unwrap();
        assert!(max_abs_error(&field, &out) <= eb, "tiled: {}", max_abs_error(&field, &out));

        let mut writer = ArchiveWriter::new();
        writer
            .add_entry("f", 0, &field, &sz, relative, 16, 16, pool, &mut scratch)
            .unwrap_or_else(|e| panic!("top range {top_range:e}: add_entry: {e}"));
        let bytes = writer.finish();
        let archive = Archive::open(bytes.clone()).unwrap();
        let entry = archive.entry(0);
        assert_eq!(entry.bound, relative, "the entry records the bound asked for");
        let span = entry.offset as usize..(entry.offset + entry.length) as usize;
        assert_tiles_coded_at(&bytes[span], &field, absolute, "add_entry");
        archive.read_entry(0, &sz, pool, &mut scratch, &mut out).unwrap();
        assert!(max_abs_error(&field, &out) <= eb, "archive: {}", max_abs_error(&field, &out));
    }
}

#[test]
fn non_finite_input_is_refused_the_same_way_on_every_path() {
    // One NaN or infinity in one tile: every codec, on every path, under
    // either bound mode, calls it invalid input — never an invalid bound,
    // though a relative bound over a field holding infinity is infinite.
    let registry = entropy_ablation_registry();
    let pool = ThreadPoolConfig::with_threads(2);
    let mut scratch = FrameScratch::new();
    let mut combinations = 0;
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let mut field = Field2D::from_fn(32, 32, |i, j| (i as f64 * 0.2).sin() * (j as f64 * 0.1));
        field.set(20, 5, bad);
        let view = field.view();
        for compressor in registry.compressors() {
            let c: &dyn Compressor = compressor.as_ref();
            for bound in [ErrorBound::Absolute(1e-3), ErrorBound::ValueRangeRelative(1e-3)] {
                let mut writer = ArchiveWriter::new();
                let paths: [(&str, Result<(), CompressError>); 4] = [
                    ("single stream", c.compress_view(&view, bound).map(drop)),
                    (
                        "framed",
                        compress_framed_with(c, &view, bound, 4, pool, &mut scratch).map(drop),
                    ),
                    (
                        "tiled",
                        compress_frame(
                            c,
                            &view,
                            bound,
                            (16, 16),
                            pool,
                            &mut scratch,
                            |_, _: &mut [()]| {},
                        )
                        .map(drop),
                    ),
                    (
                        "archive",
                        writer
                            .add_entry("f", 0, &field, c, bound, 16, 16, pool, &mut scratch)
                            .map(drop),
                    ),
                ];
                for (path, result) in paths {
                    assert!(
                        matches!(result, Err(CompressError::InvalidInput(_))),
                        "{} {path} at {bound} with {bad}: {result:?}",
                        c.name()
                    );
                    combinations += 1;
                }
            }
        }
    }
    assert_eq!(combinations, 3 * 5 * 2 * 4);
}
