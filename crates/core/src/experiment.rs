//! The (field × compressor × error bound) sweep driver.
//!
//! The sweep is scheduled as a **flat queue of work items** rather than one
//! task per field: every window-local statistic (variogram range, SVD
//! truncation level), every global variogram fit and every
//! (field × compressor × bound) compression cell becomes its own job, and a
//! single `lcc_par` map drains them all. A study of 3 fields therefore
//! saturates every core with its ~1024 windows per field and its
//! 3 × 4 compression cells per field, instead of running at most 3 workers.
//! Per-field statistics are assembled once from the window results (a stats
//! cache keyed by field index) and shared by all of that field's records.

use crate::dataset::LabeledField;
use crate::statistics::{CorrelationStatistics, StatisticsConfig};
use crate::CoreError;
use lcc_geostat::variogram::{estimate_range_view, VariogramFit};
use lcc_geostat::{log_regression, window_range, window_truncation_level, LogRegression};
use lcc_grid::io::CsvSeries;
use lcc_grid::{stats, FieldView};
use lcc_par::{try_parallel_map_with_state, CancelToken, ThreadPoolConfig};
use lcc_pressio::{Compressor, ErrorBound, Metrics, Registry, ScratchArena};
use std::sync::Arc;

/// Configuration of one sweep.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Error bounds to evaluate (the paper uses 1e-5 … 1e-2 absolute).
    pub bounds: Vec<ErrorBound>,
    /// Statistics configuration applied to every field.
    pub statistics: StatisticsConfig,
    /// Worker threads (`None` = automatic).
    pub threads: Option<usize>,
    /// Optional deadline/cancellation token: checked before every job, so
    /// an expired sweep fails fast with a "deadline"-tagged
    /// [`CoreError::Compression`] instead of grinding through the
    /// remaining schedule.
    pub cancel: Option<CancelToken>,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            bounds: ErrorBound::paper_bounds().to_vec(),
            statistics: StatisticsConfig::default(),
            threads: None,
            cancel: None,
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

/// One unit of work in the flat sweep schedule. Statistics jobs carry the
/// zero-copy window view they operate on; compression cells re-read the
/// whole-field view by index.
enum SweepJob<'a> {
    /// Global variogram fit of one field.
    Global { field: usize },
    /// Variogram range of one local window of one field.
    RangeWindow { field: usize, view: FieldView<'a> },
    /// SVD truncation level of one local window of one field.
    SvdWindow { field: usize, view: FieldView<'a> },
    /// One (field, compressor, bound) compression cell.
    Cell { field: usize, compressor: usize, bound: usize },
}

/// The result of one [`SweepJob`], in the same order as the job list.
enum SweepJobOutput {
    Global(VariogramFit),
    /// NaN when the window fit failed (dropped at aggregation).
    Range(f64),
    /// NaN when the decomposition failed (dropped at aggregation).
    Svd(f64),
    Cell(Result<Metrics, String>),
}

/// Per-field statistics under assembly: window results accumulate here (in
/// window-iteration order, so aggregation is thread-count independent) and
/// are reduced to one [`CorrelationStatistics`] per field, shared by every
/// record of that field.
#[derive(Default)]
struct FieldStatsAccum {
    global: Option<VariogramFit>,
    ranges: Vec<f64>,
    svd_levels: Vec<f64>,
}

/// Run the full sweep: every field is measured once per compressor per
/// bound, and its statistics are computed once (deduplicated across the
/// field's records via the per-field stats cache). All work — one job per
/// statistics window, one per global fit, one per (field, compressor,
/// bound) cell — feeds a single flat parallel queue, so even a sweep over
/// few fields keeps every core busy.
///
/// Peak-memory model: unlike the old per-field driver (which ran a field's
/// compressions sequentially), up to one compression working set — a
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
    let pool = match config.threads {
        Some(t) => ThreadPoolConfig::with_threads(t),
        None => ThreadPoolConfig::auto(),
    };
    let compressors = registry.compressors();
    let stats_cfg = &config.statistics;
    let local_cfg = stats_cfg.local_config();
    let window = local_cfg.window;
    assert!(window >= 4, "local windows must be at least 4x4");

    // Build the flat schedule, field-major so aggregation below can walk the
    // outputs in one deterministic pass.
    let views: Vec<FieldView<'_>> = fields.iter().map(|labeled| labeled.field.view()).collect();
    let n_cells_per_field = compressors.len() * config.bounds.len();
    let mut jobs: Vec<SweepJob<'_>> = Vec::new();
    for (field, view) in views.iter().enumerate() {
        jobs.push(SweepJob::Global { field });
        for (win, sub) in view.windows(window, window) {
            let full = win.is_full(window, window);
            if full || !local_cfg.skip_partial_windows {
                jobs.push(SweepJob::RangeWindow { field, view: sub });
            }
            if full {
                jobs.push(SweepJob::SvdWindow { field, view: sub });
            }
        }
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
    // process; an expired deadline abandons jobs not yet started.
    let cancel = config.cancel.as_ref();
    let outputs: Vec<Result<SweepJobOutput, CoreError>> =
        try_parallel_map_with_state(pool, &jobs, ScratchArena::new, |scratch, _, job| {
            if cancel.is_some_and(|c| c.is_cancelled()) {
                return Err(CoreError::Compression(
                    "sweep: deadline exceeded, remaining jobs abandoned".into(),
                ));
            }
            Ok(match job {
                SweepJob::Global { field } => SweepJobOutput::Global(estimate_range_view(
                    &views[*field],
                    &stats_cfg.variogram,
                )),
                SweepJob::RangeWindow { view, .. } => {
                    SweepJobOutput::Range(window_range(view, &local_cfg.variogram))
                }
                SweepJob::SvdWindow { view, .. } => SweepJobOutput::Svd(
                    window_truncation_level(view, stats_cfg.svd_fraction)
                        .map_or(f64::NAN, |level| level as f64),
                ),
                SweepJob::Cell { field, compressor, bound } => {
                    let comp: &Arc<dyn Compressor> = &compressors[*compressor];
                    SweepJobOutput::Cell(
                        comp.compress_measured_with(&views[*field], config.bounds[*bound], scratch)
                            .map(|result| result.metrics)
                            .map_err(|e| {
                                format!("{} on {}: {e}", comp.name(), fields[*field].name)
                            }),
                    )
                }
            })
        })
        .map_err(|panic| CoreError::Compression(format!("sweep: {panic}")))?;

    // Aggregate: fold window results into the per-field stats cache and park
    // cell metrics at their (field, compressor, bound) slot.
    let mut stats_cache: Vec<FieldStatsAccum> = Vec::new();
    stats_cache.resize_with(fields.len(), FieldStatsAccum::default);
    let mut cells: Vec<Option<Result<Metrics, String>>> = Vec::new();
    cells.resize_with(fields.len() * n_cells_per_field, || None);
    for (job, output) in jobs.iter().zip(outputs) {
        match (job, output?) {
            (SweepJob::Global { field }, SweepJobOutput::Global(fit)) => {
                stats_cache[*field].global = Some(fit);
            }
            (SweepJob::RangeWindow { field, .. }, SweepJobOutput::Range(range)) => {
                if range.is_finite() {
                    stats_cache[*field].ranges.push(range);
                }
            }
            (SweepJob::SvdWindow { field, .. }, SweepJobOutput::Svd(level)) => {
                if level.is_finite() {
                    stats_cache[*field].svd_levels.push(level);
                }
            }
            (SweepJob::Cell { field, compressor, bound }, SweepJobOutput::Cell(result)) => {
                cells[field * n_cells_per_field + compressor * config.bounds.len() + bound] =
                    Some(result);
            }
            _ => unreachable!("job and output streams are index-aligned"),
        }
    }
    let field_stats: Vec<CorrelationStatistics> = stats_cache
        .into_iter()
        .map(|accum| {
            let global = accum.global.expect("one global job is scheduled per field");
            CorrelationStatistics {
                global_range: global.range,
                global_sill: global.sill,
                local_range_std: stats::std_dev(&accum.ranges),
                local_svd_std: stats::std_dev(&accum.svd_levels),
            }
        })
        .collect();

    // Assemble the records in (field, compressor, bound) order.
    let compressor_names: Vec<Arc<str>> = compressors.iter().map(|c| Arc::from(c.name())).collect();
    let mut cell_iter = cells.into_iter();
    let mut out = Vec::with_capacity(fields.len() * n_cells_per_field);
    for (field, labeled) in fields.iter().enumerate() {
        let field_name: Arc<str> = Arc::from(labeled.name.as_str());
        for compressor_name in &compressor_names {
            for &bound in &config.bounds {
                let metrics = cell_iter
                    .next()
                    .flatten()
                    .expect("every cell is scheduled exactly once")
                    .map_err(CoreError::Compression)?;
                out.push(ExperimentRecord {
                    field_name: Arc::clone(&field_name),
                    true_range: labeled.true_range,
                    compressor: Arc::clone(compressor_name),
                    bound,
                    compression_ratio: metrics.compression_ratio,
                    max_abs_error: metrics.max_abs_error,
                    psnr: metrics.psnr,
                    statistics: field_stats[field],
                });
            }
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
/// the figure binaries write next to their fitted-series output.
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
    for (idx, r) in records.iter().enumerate() {
        let _ = idx;
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

/// Stable numeric id for a compressor name (CSV cells are numeric).
fn compressor_id(name: &str) -> f64 {
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
        let names = crate::registry::entropy_ablation_registry().names();
        let mut ids: Vec<f64> = names.iter().map(|n| compressor_id(n)).collect();
        assert!(ids.iter().all(|&id| id >= 0.0), "unmapped compressor among {names:?}");
        ids.sort_by(f64::total_cmp);
        ids.dedup();
        assert_eq!(ids.len(), names.len(), "ids collide among {names:?}");
    }

    #[test]
    fn expired_deadlines_fail_the_sweep_fast() {
        let fields = StudyDatasets::tiny().single_range_fields();
        let registry = default_registry();
        let mut cfg = quick_config();
        cfg.cancel = Some(CancelToken::with_timeout(std::time::Duration::ZERO));
        let err = run_sweep(&fields, &registry, &cfg).unwrap_err();
        assert!(err.to_string().contains("deadline"), "{err}");

        // A generous deadline changes nothing about the result.
        cfg.cancel = Some(CancelToken::with_timeout(std::time::Duration::from_secs(600)));
        let records = run_sweep(&fields, &registry, &cfg).unwrap();
        assert_eq!(records.len(), fields.len() * registry.len() * 2);
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
