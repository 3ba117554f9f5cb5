//! Paper-scale statistics tractability gate.
//!
//! The paper's Miranda slices are 1028×1028; with the zero-copy view layer
//! the full correlation-statistics computation on a field of that size is
//! cheap enough to run in the **default** (non-`slow-tests`) suite. This
//! test times it and enforces a generous wall-clock budget (the stage
//! seconds themselves are `bench_sweep`'s to report).
//!
//! The `slow-tests` feature additionally gates the **full paper-scale
//! sweep** (1028×1028 fields × every registered compressor × the paper's
//! bound grid) through the flat scheduler with per-worker codec scratch; it
//! asserts the error-bound guarantee on every record.

use lcc::core::statistics::{CorrelationStatistics, StatisticsConfig};
use lcc::geostat::{local_range_std_view, local_svd_truncation_std_view, LocalStatConfig};
use lcc::grid::Field2D;

const N: usize = 1028;

/// Deterministic 1028×1028 field with multi-scale structure plus noise —
/// built directly (no FFT) so generation stays a small fraction of the
/// statistics cost even in the test profile.
fn paper_scale_field() -> Field2D {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    Field2D::from_fn(N, N, |i, j| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let noise = (state as f64 / u64::MAX as f64) - 0.5;
        let (x, y) = (i as f64, j as f64);
        (x * 0.011).sin() * 2.0 + (y * 0.017).cos() * 1.5 + ((x + y) * 0.041).sin() + 0.2 * noise
    })
}

#[test]
fn full_statistics_at_paper_scale_fit_the_default_suite() {
    let field = paper_scale_field();

    // The public per-statistic entry points…
    let config = StatisticsConfig::default();
    let range_spread = local_range_std_view(&field.view(), &LocalStatConfig::default());
    let svd_spread =
        local_svd_truncation_std_view(&field.view(), config.window, config.svd_fraction, None);

    // …and the headline number: one full `CorrelationStatistics::compute`
    // (global variogram + both local statistics) at paper scale.
    let start = std::time::Instant::now();
    let stats = CorrelationStatistics::compute_view(&field.view(), &config);
    let compute_secs = start.elapsed().as_secs_f64();

    assert!(stats.global_range.is_finite() && stats.global_range > 0.0);
    assert!(stats.local_range_std.is_finite());
    assert!(stats.local_svd_std.is_finite());
    // The stand-alone stages and the bundled computation agree exactly
    // (same kernels, same window enumeration).
    assert_eq!(stats.local_range_std.to_bits(), range_spread.to_bits());
    assert_eq!(stats.local_svd_std.to_bits(), svd_spread.to_bits());

    // Generous tractability budget: the refactor's point is that this runs
    // in seconds; the bound only guards against a regression back to
    // paper-scale intractability.
    assert!(
        compute_secs < 300.0,
        "paper-scale CorrelationStatistics::compute took {compute_secs:.1}s (budget 300s)"
    );
}

/// Full paper-scale sweep gate (the ROADMAP "next scale step"), minutes of
/// work — `slow-tests` only.
#[cfg(feature = "slow-tests")]
mod full_sweep {
    use lcc::core::dataset::StudyDatasets;
    use lcc::core::experiment::{run_sweep, SweepConfig};
    use lcc::core::registry::default_registry;
    use lcc::pressio::ErrorBound;

    /// 1028×1028 fields across the study's range spread × all registered
    /// compressors × the paper's four absolute bounds, scheduled through the
    /// sweep's one queue (per-worker scratch arenas). Every record must
    /// honour its bound.
    #[test]
    fn full_paper_scale_sweep_respects_bounds() {
        // Paper-sized fields; two correlation ranges keep the slow suite in
        // minutes while still spanning the smooth-vs-rough axis.
        let datasets = StudyDatasets {
            gaussian_size: 1028,
            n_ranges: 2,
            min_range: 4.0,
            max_range: 24.0,
            replicates: 1,
            seed: 11,
        };
        let fields = datasets.single_range_fields();
        assert_eq!(fields.len(), 2);
        for f in &fields {
            assert_eq!(f.field.shape(), (1028, 1028));
        }

        let registry = default_registry();
        let config = SweepConfig::default(); // the paper's four bounds
        assert_eq!(config.bounds, ErrorBound::paper_bounds().to_vec());
        let records = run_sweep(&fields, &registry, &config).expect("paper-scale sweep completes");

        assert_eq!(records.len(), fields.len() * registry.len() * config.bounds.len());
        for r in &records {
            let eb = r.bound.raw_epsilon();
            assert!(
                r.max_abs_error <= eb * 1.0000001,
                "{} on {} at {eb}: max error {}",
                r.compressor,
                r.field_name,
                r.max_abs_error
            );
            assert!(r.compression_ratio > 1.0, "{} ratio {}", r.compressor, r.compression_ratio);
            assert!(r.statistics.global_range.is_finite() && r.statistics.global_range > 0.0);
        }
    }
}
