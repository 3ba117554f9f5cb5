//! The per-field correlation statistics of the study.

use lcc_geostat::{
    estimate_range_pooled, local_range_std_view, local_svd_truncation_std_view, LocalStatConfig,
    VariogramConfig,
};
use lcc_grid::FieldView;
use lcc_par::ThreadPoolConfig;

/// Which correlation statistic is on the x-axis of a figure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatisticKind {
    /// "Estimated global variogram range" (Figures 3 and 4).
    GlobalVariogramRange,
    /// "Std estimated of local variogram range (H=32)" (Figures 5 and 7 left).
    LocalVariogramRangeStd,
    /// "Std of truncation level of local SVD (H=32)" (Figures 6 and 7 right).
    LocalSvdTruncationStd,
}

impl StatisticKind {
    /// Axis label used in CSV headers and printed tables.
    pub fn label(&self) -> &'static str {
        match self {
            StatisticKind::GlobalVariogramRange => "estimated_global_variogram_range",
            StatisticKind::LocalVariogramRangeStd => "std_local_variogram_range_h32",
            StatisticKind::LocalSvdTruncationStd => "std_local_svd_truncation_h32",
        }
    }
}

/// All three statistics computed for one field.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorrelationStatistics {
    /// Global variogram range (grid units).
    pub global_range: f64,
    /// Fitted sill of the global variogram (≈ field variance).
    pub global_sill: f64,
    /// Standard deviation of the 32×32-window variogram ranges.
    pub local_range_std: f64,
    /// Standard deviation of the 32×32-window SVD truncation levels (99 %).
    pub local_svd_std: f64,
}

/// Configuration of the statistics computation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StatisticsConfig {
    /// Window size H for the local statistics (paper: 32).
    pub window: usize,
    /// Variance fraction for the SVD truncation level (paper: 0.99).
    pub svd_fraction: f64,
    /// Variogram estimator settings for the global range.
    pub variogram: VariogramConfig,
    /// Thread count (`None` = automatic).
    pub threads: Option<usize>,
}

impl Default for StatisticsConfig {
    fn default() -> Self {
        StatisticsConfig {
            window: 32,
            svd_fraction: 0.99,
            variogram: VariogramConfig::default(),
            threads: None,
        }
    }
}

impl StatisticsConfig {
    /// The local-statistics configuration this statistics configuration
    /// implies — the single place the window size and thread count are
    /// translated, used by [`CorrelationStatistics::compute_view`] and by
    /// callers that time its local-range call on its own.
    pub fn local_config(&self) -> LocalStatConfig {
        LocalStatConfig { window: self.window, threads: self.threads, ..LocalStatConfig::default() }
    }
}

impl CorrelationStatistics {
    /// Compute all three statistics for a (possibly strided) view: every
    /// window of the local statistics is enumerated as a sub-view of the
    /// parent buffer, with no per-window field allocation. All three
    /// statistics run on [`StatisticsConfig::threads`] workers and none of
    /// them depends on that width.
    pub fn compute_view(field: &FieldView<'_>, config: &StatisticsConfig) -> CorrelationStatistics {
        let pool =
            config.threads.map_or_else(ThreadPoolConfig::auto, ThreadPoolConfig::with_threads);
        let global = estimate_range_pooled(field, &config.variogram, pool);
        let local_range = local_range_std_view(field, &config.local_config());
        let local_svd = local_svd_truncation_std_view(
            field,
            config.window,
            config.svd_fraction,
            config.threads,
        );
        CorrelationStatistics {
            global_range: global.range,
            global_sill: global.sill,
            local_range_std: local_range,
            local_svd_std: local_svd,
        }
    }

    /// Fetch the statistic a figure plots on its x-axis.
    pub fn get(&self, kind: StatisticKind) -> f64 {
        match kind {
            StatisticKind::GlobalVariogramRange => self.global_range,
            StatisticKind::LocalVariogramRangeStd => self.local_range_std,
            StatisticKind::LocalSvdTruncationStd => self.local_svd_std,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcc_synth::{generate_single_range, GaussianFieldConfig};

    #[test]
    fn labels_are_distinct() {
        let labels = [
            StatisticKind::GlobalVariogramRange.label(),
            StatisticKind::LocalVariogramRangeStd.label(),
            StatisticKind::LocalSvdTruncationStd.label(),
        ];
        assert_eq!(labels.iter().collect::<std::collections::HashSet<_>>().len(), 3);
    }

    #[test]
    fn statistics_are_finite_and_accessible_by_kind() {
        let field = generate_single_range(&GaussianFieldConfig::new(96, 96, 8.0, 3));
        let stats =
            CorrelationStatistics::compute_view(&field.view(), &StatisticsConfig::default());
        assert!(stats.global_range.is_finite() && stats.global_range > 0.0);
        assert!(stats.global_sill > 0.0);
        assert!(stats.local_range_std.is_finite());
        assert!(stats.local_svd_std.is_finite());
        assert_eq!(stats.get(StatisticKind::GlobalVariogramRange), stats.global_range);
        assert_eq!(stats.get(StatisticKind::LocalVariogramRangeStd), stats.local_range_std);
        assert_eq!(stats.get(StatisticKind::LocalSvdTruncationStd), stats.local_svd_std);
    }

    #[test]
    fn global_range_orders_fields_by_generation_range() {
        let cfg = StatisticsConfig::default();
        let short = generate_single_range(&GaussianFieldConfig::new(128, 128, 3.0, 5));
        let long = generate_single_range(&GaussianFieldConfig::new(128, 128, 18.0, 5));
        let s = CorrelationStatistics::compute_view(&short.view(), &cfg);
        let l = CorrelationStatistics::compute_view(&long.view(), &cfg);
        assert!(l.global_range > s.global_range);
    }
}
