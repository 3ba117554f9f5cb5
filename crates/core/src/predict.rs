//! Compression-ratio prediction and adaptive compressor selection.
//!
//! The paper's stated end goal is to *predict compression performance from
//! correlation structure* and eventually adapt compressors to the data.
//! This module implements that step as an extension of the study: the
//! fitted logarithmic regressions become a predictor, and the predictor
//! drives an SZ/ZFP-style automatic compressor selection (the scenario of
//! Tao et al. in the related work).

use crate::experiment::{fit_series, ExperimentRecord};
use crate::statistics::{CorrelationStatistics, StatisticKind};
use crate::CoreError;
use lcc_geostat::LogRegression;
use std::collections::BTreeMap;

/// Predicts the compression ratio of an unseen field from one of its
/// correlation statistics, using per-(compressor, bound) logarithmic models
/// trained on sweep records.
#[derive(Debug, Clone)]
pub struct CompressionRatioPredictor {
    statistic: StatisticKind,
    models: BTreeMap<(String, String), LogRegression>,
}

impl CompressionRatioPredictor {
    /// Train a predictor from sweep records.
    pub fn train(
        records: &[ExperimentRecord],
        statistic: StatisticKind,
    ) -> Result<Self, CoreError> {
        let series = fit_series(records, statistic);
        if series.is_empty() {
            return Err(CoreError::Statistics(
                "no (compressor, bound) series could be fitted".into(),
            ));
        }
        let mut models = BTreeMap::new();
        for s in series {
            models.insert((s.compressor.clone(), s.bound.to_string()), s.fit);
        }
        Ok(CompressionRatioPredictor { statistic, models })
    }

    /// The statistic this predictor consumes.
    pub fn statistic(&self) -> StatisticKind {
        self.statistic
    }

    /// Number of trained (compressor, bound) models.
    pub fn model_count(&self) -> usize {
        self.models.len()
    }

    /// Predict the compression ratio for a field with the given statistics.
    /// Returns `None` when no model was trained for that (compressor, bound).
    pub fn predict(
        &self,
        stats: &CorrelationStatistics,
        compressor: &str,
        bound: lcc_pressio::ErrorBound,
    ) -> Option<f64> {
        let key = (compressor.to_string(), bound.to_string());
        let model = self.models.get(&key)?;
        let x = stats.get(self.statistic);
        if !x.is_finite() || x <= 0.0 {
            return None;
        }
        Some(model.predict(x).max(1.0))
    }

    /// Pick the compressor with the highest predicted ratio for a bound.
    pub fn select_compressor(
        &self,
        stats: &CorrelationStatistics,
        bound: lcc_pressio::ErrorBound,
        candidates: &[&str],
    ) -> Option<CompressorChoice> {
        let mut best: Option<CompressorChoice> = None;
        for &name in candidates {
            if let Some(predicted) = self.predict(stats, name, bound) {
                let better = best.as_ref().map(|b| predicted > b.predicted_ratio).unwrap_or(true);
                if better {
                    best = Some(CompressorChoice {
                        compressor: name.to_string(),
                        predicted_ratio: predicted,
                    });
                }
            }
        }
        best
    }
}

/// The result of an adaptive compressor selection.
#[derive(Debug, Clone, PartialEq)]
pub struct CompressorChoice {
    /// Selected compressor name.
    pub compressor: String,
    /// Its predicted compression ratio.
    pub predicted_ratio: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::StudyDatasets;
    use crate::experiment::{run_sweep, SweepConfig};
    use crate::registry::sz_zfp_registry;
    use crate::statistics::{StatisticKind, StatisticsConfig};
    use lcc_grid::stats;
    use lcc_pressio::ErrorBound;
    use lcc_synth::{generate_single_range, GaussianFieldConfig};

    fn training_records() -> Vec<ExperimentRecord> {
        let datasets = StudyDatasets {
            gaussian_size: 96,
            n_ranges: 4,
            min_range: 2.0,
            max_range: 16.0,
            replicates: 1,
            seed: 5,
        };
        let fields = datasets.single_range_fields();
        let registry = sz_zfp_registry();
        let config = SweepConfig {
            bounds: vec![ErrorBound::Absolute(1e-3), ErrorBound::Absolute(1e-2)],
            ..Default::default()
        };
        run_sweep(&fields, &registry, &config).unwrap()
    }

    #[test]
    fn training_builds_one_model_per_compressor_bound() {
        let records = training_records();
        let predictor =
            CompressionRatioPredictor::train(&records, StatisticKind::GlobalVariogramRange)
                .unwrap();
        assert_eq!(predictor.model_count(), 4); // 2 compressors x 2 bounds
        assert_eq!(predictor.statistic(), StatisticKind::GlobalVariogramRange);
    }

    #[test]
    fn predictions_correlate_with_measured_ratios_on_held_out_fields() {
        let records = training_records();
        let predictor =
            CompressionRatioPredictor::train(&records, StatisticKind::GlobalVariogramRange)
                .unwrap();

        // Held-out fields with different seeds and ranges.
        let bound = ErrorBound::Absolute(1e-2);
        let registry = sz_zfp_registry();
        let sz = registry.get("sz").unwrap();
        let mut predicted = Vec::new();
        let mut measured = Vec::new();
        for (k, range) in [3.0, 6.0, 12.0].iter().enumerate() {
            let field =
                generate_single_range(&GaussianFieldConfig::new(96, 96, *range, 900 + k as u64));
            let stats_k =
                CorrelationStatistics::compute_view(&field.view(), &StatisticsConfig::default());
            predicted.push(predictor.predict(&stats_k, "sz", bound).unwrap());
            measured.push(sz.compress(&field, bound).unwrap().metrics.compression_ratio);
        }
        // The predictor must capture the ordering/trend (strong positive
        // correlation), not necessarily absolute values.
        let r = stats::pearson(&predicted, &measured);
        assert!(r > 0.7, "prediction/measurement correlation {r}: {predicted:?} vs {measured:?}");
    }

    #[test]
    fn selection_returns_the_higher_predicted_compressor() {
        let records = training_records();
        let predictor =
            CompressionRatioPredictor::train(&records, StatisticKind::GlobalVariogramRange)
                .unwrap();
        let field = generate_single_range(&GaussianFieldConfig::new(96, 96, 10.0, 77));
        let stats_f =
            CorrelationStatistics::compute_view(&field.view(), &StatisticsConfig::default());
        let bound = ErrorBound::Absolute(1e-2);
        let choice = predictor.select_compressor(&stats_f, bound, &["sz", "zfp"]).unwrap();
        let sz_pred = predictor.predict(&stats_f, "sz", bound).unwrap();
        let zfp_pred = predictor.predict(&stats_f, "zfp", bound).unwrap();
        assert_eq!(choice.predicted_ratio, sz_pred.max(zfp_pred));
        assert!(["sz", "zfp"].contains(&choice.compressor.as_str()));
    }

    #[test]
    fn unknown_compressor_or_bound_yields_none() {
        let records = training_records();
        let predictor =
            CompressionRatioPredictor::train(&records, StatisticKind::GlobalVariogramRange)
                .unwrap();
        let field = generate_single_range(&GaussianFieldConfig::new(64, 64, 5.0, 1));
        let stats_f =
            CorrelationStatistics::compute_view(&field.view(), &StatisticsConfig::default());
        assert!(predictor.predict(&stats_f, "mgard", ErrorBound::Absolute(1e-2)).is_none());
        assert!(predictor.predict(&stats_f, "sz", ErrorBound::Absolute(0.5)).is_none());
        assert!(predictor
            .select_compressor(&stats_f, ErrorBound::Absolute(0.5), &["sz", "zfp"])
            .is_none());
    }

    #[test]
    fn training_on_empty_records_fails() {
        assert!(CompressionRatioPredictor::train(&[], StatisticKind::GlobalVariogramRange).is_err());
    }
}
