//! Adaptive compressor selection — the study's end goal as a working tool:
//! train compression-ratio predictors on a sweep of synthetic fields, then
//! for new, unseen fields pick the compressor the model predicts to win and
//! compare against the measured winner.
//!
//! ```text
//! cargo run --release --example adaptive_selection
//! ```

use lcc::core::dataset::StudyDatasets;
use lcc::core::experiment::{run_sweep, SweepConfig};
use lcc::core::registry::sz_zfp_registry;
use lcc::core::statistics::{CorrelationStatistics, StatisticKind, StatisticsConfig};
use lcc::core::CompressionRatioPredictor;
use lcc::pressio::ErrorBound;
use lcc::synth::{generate_single_range, GaussianFieldConfig};

fn main() {
    // 1. Train on a sweep of single-range fields.
    let datasets = StudyDatasets {
        gaussian_size: 128,
        n_ranges: 6,
        min_range: 2.0,
        max_range: 32.0,
        replicates: 1,
        seed: 100,
    };
    let registry = sz_zfp_registry();
    let config = SweepConfig {
        bounds: vec![ErrorBound::Absolute(1e-3), ErrorBound::Absolute(1e-2)],
        ..Default::default()
    };
    let records = run_sweep(&datasets.single_range_fields(), &registry, &config).expect("sweep");
    let predictor = CompressionRatioPredictor::train(&records, StatisticKind::GlobalVariogramRange)
        .expect("predictor training");
    println!(
        "trained {} (compressor, bound) models from {} records\n",
        predictor.model_count(),
        records.len()
    );

    // 2. Evaluate on unseen fields.
    let bound = ErrorBound::Absolute(1e-2);
    let mut correct = 0usize;
    let mut total = 0usize;
    println!(
        "{:>6} {:>12} {:>12} {:>12} {:>10} {:>10}",
        "range", "pred_sz", "pred_zfp", "choice", "meas_sz", "meas_zfp"
    );
    for (k, range) in [2.5, 5.0, 9.0, 14.0, 22.0, 30.0].iter().enumerate() {
        let field =
            generate_single_range(&GaussianFieldConfig::new(128, 128, *range, 777 + k as u64));
        let stats =
            CorrelationStatistics::compute_view(&field.view(), &StatisticsConfig::default());
        let pred_sz = predictor.predict(&stats, "sz", bound).unwrap_or(f64::NAN);
        let pred_zfp = predictor.predict(&stats, "zfp", bound).unwrap_or(f64::NAN);
        let choice = predictor.select_compressor(&stats, bound, &["sz", "zfp"]).expect("choice");

        let sz =
            registry.get("sz").unwrap().compress(&field, bound).unwrap().metrics.compression_ratio;
        let zfp =
            registry.get("zfp").unwrap().compress(&field, bound).unwrap().metrics.compression_ratio;
        let actual_best = if sz >= zfp { "sz" } else { "zfp" };
        total += 1;
        if actual_best == choice.compressor {
            correct += 1;
        }
        println!(
            "{:>6.1} {:>12.2} {:>12.2} {:>12} {:>10.2} {:>10.2}",
            range, pred_sz, pred_zfp, choice.compressor, sz, zfp
        );
    }
    println!(
        "\nmodel-driven selection matched the measured winner on {correct}/{total} unseen fields"
    );
}
