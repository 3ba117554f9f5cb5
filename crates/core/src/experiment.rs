//! The (field × compressor × error bound) sweep driver.
//!
//! One `lcc_par` map drains a field-major queue: per field, one statistics
//! job — [`CorrelationStatistics::compute_view`], the call `select` makes on
//! every request, so the sweep and the predictor's inputs cannot drift apart
//! — then one job per (compressor, bound) cell. The statistics are computed
//! once per field and shared by all of that field's records.

use crate::dataset::LabeledField;
use crate::statistics::{CorrelationStatistics, StatisticsConfig};
use crate::CoreError;
use lcc_geostat::{log_regression, LogRegression};
use lcc_grid::io::CsvSeries;
use lcc_par::{try_parallel_map_with_state, ThreadPoolConfig};
use lcc_pressio::{ErrorBound, Metrics, Registry, ScratchArena};
use std::sync::Arc;

/// Configuration of one sweep.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Error bounds to evaluate (the paper uses 1e-5 … 1e-2 absolute).
    pub bounds: Vec<ErrorBound>,
    /// Statistics configuration applied to every field. Its `threads` is not
    /// read: the sweep's own pool is the parallelism, and each field's
    /// statistics run at width 1 inside it.
    pub statistics: StatisticsConfig,
    /// Worker threads of the sweep's pool (`None` = automatic).
    pub threads: Option<usize>,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            bounds: ErrorBound::paper_bounds().to_vec(),
            statistics: StatisticsConfig::default(),
            threads: None,
        }
    }
}

/// One row of the experiment: a (field, compressor, bound) cell with its
/// compression outcome and the field's correlation statistics.
///
/// Names are shared `Arc<str>`s: a sweep produces one record per
/// (bound × compressor) cell, and cloning a `String` pair into each of them
/// was pure allocation overhead.
#[derive(Debug, Clone)]
pub struct ExperimentRecord {
    /// Name of the field (dataset member).
    pub field_name: Arc<str>,
    /// Ground-truth correlation range for synthetic fields.
    pub true_range: Option<f64>,
    /// Compressor name.
    pub compressor: Arc<str>,
    /// Error bound used.
    pub bound: ErrorBound,
    /// Measured compression ratio.
    pub compression_ratio: f64,
    /// Measured maximum absolute error.
    pub max_abs_error: f64,
    /// Measured PSNR (dB).
    pub psnr: f64,
    /// Correlation statistics of the field.
    pub statistics: CorrelationStatistics,
}

/// One unit of work in the sweep's schedule, field-major: a field's
/// statistics job comes before its compression cells.
enum SweepJob {
    /// The correlation statistics of one field.
    Statistics { field: usize },
    /// One (field, compressor, bound) compression cell.
    Cell { field: usize, compressor: usize, bound: usize },
}

/// The result of one [`SweepJob`], in the same order as the job list.
enum SweepJobOutput {
    Statistics(CorrelationStatistics),
    Cell(Metrics),
}

/// Run the full sweep: every field is measured once per compressor per
/// bound, and its statistics are computed once, by
/// [`CorrelationStatistics::compute_view`], and shared by all of the
/// field's records. One statistics job per field and one job per
/// (field, compressor, bound) cell feed a single parallel queue of
/// [`SweepConfig::threads`] workers; each statistics job runs at width 1, so
/// pools never nest and `config.statistics.threads` is not read (the
/// statistics do not depend on the width).
///
/// Peak-memory model: up to one compression working set — a
/// reconstruction plus codec buffers — can be live **per worker thread**.
/// At paper scale that is roughly 20 MB × threads; bound it with
/// [`SweepConfig::threads`] (or `LCC_THREADS`) on very wide machines.
pub fn run_sweep(
    fields: &[LabeledField],
    registry: &Registry,
    config: &SweepConfig,
) -> Result<Vec<ExperimentRecord>, CoreError> {
    if fields.is_empty() {
        return Ok(Vec::new());
    }
    if registry.is_empty() {
        return Err(CoreError::Compression("no compressors registered".into()));
    }
    let pool = config.threads.map_or_else(ThreadPoolConfig::auto, ThreadPoolConfig::with_threads);
    let compressors = registry.compressors();
    let stats_cfg = StatisticsConfig { threads: Some(1), ..config.statistics };

    let mut jobs = Vec::with_capacity(fields.len() * (1 + compressors.len() * config.bounds.len()));
    for field in 0..fields.len() {
        jobs.push(SweepJob::Statistics { field });
        for compressor in 0..compressors.len() {
            for bound in 0..config.bounds.len() {
                jobs.push(SweepJob::Cell { field, compressor, bound });
            }
        }
    }

    // Each worker thread owns one scratch arena for its whole share of the
    // queue: every compression cell it drains reuses the same codec buffers
    // (histogram, bit streams, hash chains, reconstruction) instead of
    // reallocating them per cell — in both directions, since
    // `compress_measured_with` also decodes through the arena via
    // `decompress_view_with`.
    // A panicking job (a buggy codec on one cell) is isolated by the pool
    // and surfaced here as the sweep's error instead of aborting the
    // process.
    let outputs =
        try_parallel_map_with_state(pool, &jobs, ScratchArena::new, |scratch, _, job| match *job {
            SweepJob::Statistics { field } => Ok(SweepJobOutput::Statistics(
                CorrelationStatistics::compute_view(&fields[field].field.view(), &stats_cfg),
            )),
            SweepJob::Cell { field, compressor, bound } => {
                let (labeled, comp) = (&fields[field], &compressors[compressor]);
                let view = labeled.field.view();
                match comp.compress_measured_with(&view, config.bounds[bound], scratch) {
                    Ok(result) => Ok(SweepJobOutput::Cell(result.metrics)),
                    Err(e) => Err(CoreError::Compression(format!(
                        "{} on {}: {e}",
                        comp.name(),
                        labeled.name
                    ))),
                }
            }
        })
        .map_err(|panic| CoreError::Compression(format!("sweep: {panic}")))?;

    // Assemble the records in job order, i.e. (field, compressor, bound).
    let compressor_names: Vec<Arc<str>> = compressors.iter().map(|c| Arc::from(c.name())).collect();
    let mut out = Vec::with_capacity(jobs.len() - fields.len());
    let mut current = None;
    for (job, output) in jobs.iter().zip(outputs) {
        match (job, output?) {
            (&SweepJob::Statistics { field }, SweepJobOutput::Statistics(statistics)) => {
                current = Some((Arc::<str>::from(fields[field].name.as_str()), statistics));
            }
            (&SweepJob::Cell { field, compressor, bound }, SweepJobOutput::Cell(metrics)) => {
                let (field_name, statistics) =
                    current.as_ref().expect("a field's statistics job precedes its cells");
                out.push(ExperimentRecord {
                    field_name: Arc::clone(field_name),
                    true_range: fields[field].true_range,
                    compressor: Arc::clone(&compressor_names[compressor]),
                    bound: config.bounds[bound],
                    compression_ratio: metrics.compression_ratio,
                    max_abs_error: metrics.max_abs_error,
                    psnr: metrics.psnr,
                    statistics: *statistics,
                });
            }
            _ => unreachable!("job and output streams are index-aligned"),
        }
    }
    Ok(out)
}

/// A fitted (compressor, bound) series of a figure: the x/y points plus the
/// logarithmic regression the paper reports in its legends.
#[derive(Debug, Clone)]
pub struct FittedSeries {
    /// Compressor name.
    pub compressor: String,
    /// Error bound of the series.
    pub bound: ErrorBound,
    /// x values (the correlation statistic).
    pub x: Vec<f64>,
    /// y values (compression ratios).
    pub y: Vec<f64>,
    /// Fitted `CR = α + β·log(x)` regression.
    pub fit: LogRegression,
}

/// Group experiment records by (compressor, bound), extract the requested
/// statistic as x and the compression ratio as y, and fit the log
/// regression. Series with too few valid points are dropped.
pub fn fit_series(
    records: &[ExperimentRecord],
    statistic: crate::statistics::StatisticKind,
) -> Vec<FittedSeries> {
    use std::collections::BTreeMap;
    let mut groups: BTreeMap<(Arc<str>, String), Vec<&ExperimentRecord>> = BTreeMap::new();
    for r in records {
        groups.entry((Arc::clone(&r.compressor), r.bound.to_string())).or_default().push(r);
    }
    let mut out = Vec::new();
    for ((compressor, _), rows) in groups {
        let x: Vec<f64> = rows.iter().map(|r| r.statistics.get(statistic)).collect();
        let y: Vec<f64> = rows.iter().map(|r| r.compression_ratio).collect();
        let Ok(fit) = log_regression(&x, &y) else {
            continue;
        };
        out.push(FittedSeries {
            compressor: compressor.to_string(),
            bound: rows[0].bound,
            x,
            y,
            fit,
        });
    }
    out
}

/// Serialize experiment records as a flat CSV (one row per cell), the format
/// the `study` binary writes next to each panel's fitted-series output.
pub fn records_to_csv(records: &[ExperimentRecord]) -> CsvSeries {
    let mut csv = CsvSeries::new([
        "true_range",
        "error_bound",
        "compression_ratio",
        "max_abs_error",
        "psnr",
        "global_variogram_range",
        "local_range_std",
        "local_svd_std",
        "compressor_id",
    ]);
    for r in records {
        csv.push_row(vec![
            r.true_range.unwrap_or(f64::NAN),
            r.bound.raw_epsilon(),
            r.compression_ratio,
            r.max_abs_error,
            r.psnr,
            r.statistics.global_range,
            r.statistics.local_range_std,
            r.statistics.local_svd_std,
            compressor_id(&r.compressor),
        ]);
    }
    csv
}

/// Stable numeric id for a compressor name (CSV cells are numeric): the one
/// table behind both the records CSV and a panel's fits CSV.
pub(crate) fn compressor_id(name: &str) -> f64 {
    match name {
        "sz" => 0.0,
        "zfp" => 1.0,
        "mgard" => 2.0,
        "sz-rans8" => 3.0,
        "mgard-rans8" => 4.0,
        _ => -1.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::StudyDatasets;
    use crate::registry::default_registry;
    use crate::statistics::StatisticKind;

    fn quick_config() -> SweepConfig {
        SweepConfig {
            bounds: vec![ErrorBound::Absolute(1e-3), ErrorBound::Absolute(1e-2)],
            ..Default::default()
        }
    }

    #[test]
    fn sweep_produces_one_record_per_cell() {
        let fields = StudyDatasets::tiny().single_range_fields();
        let registry = default_registry();
        let records = run_sweep(&fields, &registry, &quick_config()).unwrap();
        assert_eq!(records.len(), fields.len() * registry.len() * 2);
        for r in &records {
            assert!(r.compression_ratio > 0.0);
            assert!(r.max_abs_error <= r.bound.raw_epsilon() * 1.0000001);
            assert!(r.statistics.global_range.is_finite());
        }
    }

    #[test]
    fn empty_inputs_are_handled() {
        let registry = default_registry();
        assert!(run_sweep(&[], &registry, &quick_config()).unwrap().is_empty());
        let fields = StudyDatasets::tiny().single_range_fields();
        let empty = lcc_pressio::Registry::new();
        assert!(run_sweep(&fields, &empty, &quick_config()).is_err());
    }

    #[test]
    fn fitted_series_cover_every_compressor_bound_pair() {
        let fields = StudyDatasets::tiny().single_range_fields();
        let registry = default_registry();
        let records = run_sweep(&fields, &registry, &quick_config()).unwrap();
        let series = fit_series(&records, StatisticKind::GlobalVariogramRange);
        assert_eq!(series.len(), registry.len() * 2);
        for s in &series {
            assert_eq!(s.x.len(), fields.len());
            assert!(s.fit.n_points >= 3);
        }
    }

    #[test]
    fn csv_export_has_one_row_per_record() {
        let fields = StudyDatasets::tiny().single_range_fields();
        let registry = default_registry();
        let records = run_sweep(&fields, &registry, &quick_config()).unwrap();
        let csv = records_to_csv(&records);
        assert_eq!(csv.len(), records.len());
        assert_eq!(csv.header().len(), 9);
        assert!(csv.to_csv_string().contains("compression_ratio"));
    }

    #[test]
    fn every_registry_compressor_has_a_distinct_csv_id() {
        let registry = crate::registry::entropy_ablation_registry();
        let names = registry.names();
        let mut ids: Vec<f64> = names.iter().map(|n| compressor_id(n)).collect();
        assert!(ids.iter().all(|&id| id >= 0.0), "unmapped compressor among {names:?}");
        ids.sort_by(f64::total_cmp);
        ids.dedup();
        assert_eq!(ids.len(), names.len(), "ids collide among {names:?}");

        // A panel's two CSVs name every compressor by the same id.
        let fields = StudyDatasets::tiny().single_range_fields();
        let config = SweepConfig { bounds: vec![ErrorBound::Absolute(1e-2)], ..quick_config() };
        let records = run_sweep(&fields, &registry, &config).unwrap();
        let column = |csv: CsvSeries, column: usize| {
            let mut ids: Vec<f64> = csv.rows().iter().map(|row| row[column]).collect();
            ids.sort_by(f64::total_cmp);
            ids.dedup();
            ids
        };
        assert_eq!(column(records_to_csv(&records), 8), ids);
        let statistic = StatisticKind::GlobalVariogramRange;
        let series = fit_series(&records, statistic);
        let panel = crate::figures::FigurePanel { statistic, series, records };
        assert_eq!(column(panel.fits_to_csv(), 0), ids);
    }

    #[test]
    fn a_panicking_codec_fails_the_sweep_without_aborting() {
        use lcc_grid::FieldView;
        use lcc_pressio::{CompressError, ErrorBound};

        struct Explosive;
        impl lcc_pressio::Compressor for Explosive {
            fn name(&self) -> &str {
                "explosive"
            }
            fn compress_view_with(
                &self,
                _view: &FieldView<'_>,
                _bound: ErrorBound,
                _scratch: &mut lcc_pressio::ScratchArena,
            ) -> Result<Vec<u8>, CompressError> {
                panic!("injected codec panic");
            }
            fn decompress_view_with(
                &self,
                _stream: &[u8],
                _scratch: &mut lcc_pressio::ScratchArena,
                _out: &mut lcc_grid::Field2D,
            ) -> Result<(), CompressError> {
                panic!("injected codec panic");
            }
        }

        let fields = StudyDatasets::tiny().single_range_fields();
        let mut registry = lcc_pressio::Registry::new();
        registry.register(Arc::new(Explosive), "0.0");
        let err = run_sweep(&fields, &registry, &quick_config()).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("panicked") && msg.contains("injected codec panic"), "{msg}");
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let fields = StudyDatasets::tiny().single_range_fields();
        let registry = default_registry();
        let mut cfg = quick_config();
        cfg.threads = Some(1);
        let a = run_sweep(&fields, &registry, &cfg).unwrap();
        cfg.threads = Some(4);
        let b = run_sweep(&fields, &registry, &cfg).unwrap();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.compression_ratio, y.compression_ratio);
            assert_eq!(x.statistics, y.statistics);
        }
    }
}
