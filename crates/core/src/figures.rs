//! Per-figure experiment assemblies.
//!
//! Each `run_figure*` function regenerates the data behind one figure of the
//! paper's evaluation section: it builds the right dataset family, runs the
//! compression sweep, computes the statistic on the figure's x-axis, fits
//! the logarithmic regressions reported in the legends, and returns both the
//! raw per-cell records and the fitted series. The `lcc-bench` binaries are
//! thin wrappers that print these results and write them as CSV.

use crate::dataset::{LabeledField, StudyDatasets};
use crate::experiment::{
    compressor_id, fit_series, run_sweep, ExperimentRecord, FittedSeries, SweepConfig,
};
use crate::registry::{default_registry, sz_zfp_registry};
use crate::statistics::StatisticKind;
use crate::CoreError;
use lcc_geostat::variogram::{
    empirical_variogram_view, fit_squared_exponential, model_gamma, VariogramConfig,
};
use lcc_grid::io::CsvSeries;
use lcc_synth::{generate_single_range, GaussianFieldConfig};

/// One panel of a figure: every (compressor, bound) series against a single
/// correlation statistic.
#[derive(Debug, Clone)]
pub struct FigurePanel {
    /// Statistic on the x-axis.
    pub statistic: StatisticKind,
    /// Fitted series, one per (compressor, bound).
    pub series: Vec<FittedSeries>,
    /// The raw records behind the panel.
    pub records: Vec<ExperimentRecord>,
}

impl FigurePanel {
    fn from_records(records: Vec<ExperimentRecord>, statistic: StatisticKind) -> FigurePanel {
        let series = fit_series(&records, statistic);
        FigurePanel { statistic, series, records }
    }

    /// Serialize the fitted series (one row per series) as CSV: compressor
    /// id, bound, α, β, R².
    pub fn fits_to_csv(&self) -> CsvSeries {
        let mut csv =
            CsvSeries::new(["compressor_id", "error_bound", "alpha", "beta", "r_squared", "n"]);
        for s in &self.series {
            csv.push_row(vec![
                compressor_id(&s.compressor),
                s.bound.raw_epsilon(),
                s.fit.alpha,
                s.fit.beta,
                s.fit.r_squared,
                s.fit.n_points as f64,
            ]);
        }
        csv
    }
}

// ---------------------------------------------------------------------------
// Figure 1: example variogram
// ---------------------------------------------------------------------------

/// Data behind Figure 1: an empirical variogram and its fitted model curve.
#[derive(Debug, Clone)]
pub struct Figure1Data {
    /// Empirical (distance, semi-variance) points.
    pub empirical: Vec<(f64, f64)>,
    /// Fitted model curve sampled densely.
    pub model: Vec<(f64, f64)>,
    /// Fitted sill.
    pub sill: f64,
    /// Fitted range.
    pub range: f64,
}

/// Regenerate Figure 1 from a synthetic field with the given correlation
/// range.
pub fn run_figure1(size: usize, range: f64, seed: u64) -> Figure1Data {
    let field = generate_single_range(&GaussianFieldConfig::new(size, size, range, seed));
    let vg = empirical_variogram_view(&field.view(), &VariogramConfig::default());
    let fit = fit_squared_exponential(&vg).unwrap_or(lcc_geostat::VariogramFit {
        sill: 0.0,
        range: f64::NAN,
        residual: f64::NAN,
    });
    let max_h = vg.distances.iter().cloned().fold(1.0, f64::max);
    let model: Vec<(f64, f64)> = (0..100)
        .map(|k| {
            let h = max_h * (k as f64 + 1.0) / 100.0;
            (h, model_gamma(&fit, h))
        })
        .collect();
    Figure1Data {
        empirical: vg.distances.iter().cloned().zip(vg.gammas.iter().cloned()).collect(),
        model,
        sill: fit.sill,
        range: fit.range,
    }
}

// ---------------------------------------------------------------------------
// Figure 3 / 5 / 6: Gaussian-field sweeps
// ---------------------------------------------------------------------------

/// Configuration shared by the Gaussian-field figures (3, 5, 6).
#[derive(Debug, Clone)]
pub struct GaussianFigureConfig {
    /// Dataset generation settings.
    pub datasets: StudyDatasets,
    /// Sweep settings (bounds, statistics, threads).
    pub sweep: SweepConfig,
}

impl GaussianFigureConfig {
    /// A reduced configuration suitable for tests and smoke runs.
    pub fn quick() -> Self {
        GaussianFigureConfig {
            datasets: StudyDatasets {
                gaussian_size: 96,
                n_ranges: 4,
                min_range: 2.0,
                max_range: 16.0,
                replicates: 1,
                seed: 11,
            },
            sweep: SweepConfig {
                bounds: vec![
                    lcc_pressio::ErrorBound::Absolute(1e-3),
                    lcc_pressio::ErrorBound::Absolute(1e-2),
                ],
                ..Default::default()
            },
        }
    }

    /// The default experiment scale (256×256 fields, 10 ranges, 4 bounds).
    pub fn standard() -> Self {
        GaussianFigureConfig { datasets: StudyDatasets::default(), sweep: SweepConfig::default() }
    }

    /// The paper-scale configuration (1028×1028 fields).
    pub fn paper_scale() -> Self {
        GaussianFigureConfig {
            datasets: StudyDatasets::paper_scale(),
            sweep: SweepConfig::default(),
        }
    }
}

/// Alias used by the figure-3 entry points.
pub type Figure3Config = GaussianFigureConfig;

/// Data behind Figure 3 (and reused by Figures 5 and 6): sweeps over the
/// single-range and multi-range Gaussian datasets.
#[derive(Debug, Clone)]
pub struct GaussianSweepData {
    /// Panel computed on the single-range fields.
    pub single_range: FigurePanel,
    /// Panel computed on the multi-range fields.
    pub multi_range: FigurePanel,
}

fn run_gaussian_figure(
    config: &GaussianFigureConfig,
    registry: &lcc_pressio::Registry,
    statistic: StatisticKind,
) -> Result<GaussianSweepData, CoreError> {
    let single = config.datasets.single_range_fields();
    let multi = config.datasets.multi_range_fields();
    let single_records = run_sweep(&single, registry, &config.sweep)?;
    let multi_records = run_sweep(&multi, registry, &config.sweep)?;
    Ok(GaussianSweepData {
        single_range: FigurePanel::from_records(single_records, statistic),
        multi_range: FigurePanel::from_records(multi_records, statistic),
    })
}

/// Figure 3: compression ratio vs the **global variogram range** on single-
/// and multi-range Gaussian fields.
pub fn run_figure3(config: &Figure3Config) -> GaussianSweepData {
    run_gaussian_figure(config, &default_registry(), StatisticKind::GlobalVariogramRange)
        .expect("the study compressors never fail on finite synthetic fields")
}

/// Figure 5: compression ratio vs the **std of local variogram ranges**.
pub fn run_figure5(config: &GaussianFigureConfig) -> GaussianSweepData {
    run_gaussian_figure(config, &default_registry(), StatisticKind::LocalVariogramRangeStd)
        .expect("the study compressors never fail on finite synthetic fields")
}

/// Figure 6: compression ratio vs the **std of local SVD truncation levels**
/// (SZ and ZFP only, as in the paper).
pub fn run_figure6(config: &GaussianFigureConfig) -> GaussianSweepData {
    run_gaussian_figure(config, &sz_zfp_registry(), StatisticKind::LocalSvdTruncationStd)
        .expect("the study compressors never fail on finite synthetic fields")
}

// ---------------------------------------------------------------------------
// Figure 4 / 7: Miranda-proxy sweeps
// ---------------------------------------------------------------------------

/// Configuration of the Miranda-proxy figures (4 and 7).
#[derive(Debug, Clone)]
pub struct MirandaFigureConfig {
    /// Number of velocityx slices analysed.
    pub slices: usize,
    /// Side length of each slice.
    pub slice_size: usize,
    /// Base seed of the simulation.
    pub seed: u64,
    /// Sweep settings.
    pub sweep: SweepConfig,
}

impl MirandaFigureConfig {
    /// Reduced configuration for tests.
    pub fn quick() -> Self {
        MirandaFigureConfig {
            slices: 5,
            slice_size: 96,
            seed: 2021,
            sweep: SweepConfig {
                bounds: vec![
                    lcc_pressio::ErrorBound::Absolute(1e-3),
                    lcc_pressio::ErrorBound::Absolute(1e-2),
                ],
                ..Default::default()
            },
        }
    }

    /// Default experiment scale.
    pub fn standard() -> Self {
        MirandaFigureConfig {
            slices: 12,
            slice_size: 192,
            seed: 2021,
            sweep: SweepConfig::default(),
        }
    }

    /// Paper-scale slices (384×384, 16 slices).
    pub fn paper_scale() -> Self {
        MirandaFigureConfig {
            slices: 16,
            slice_size: 384,
            seed: 2021,
            sweep: SweepConfig::default(),
        }
    }
}

/// Data behind Figures 4 and 7: per-slice records with panels for each
/// statistic the two figures plot.
#[derive(Debug, Clone)]
pub struct MirandaSweepData {
    /// CR vs global variogram range (Figure 4).
    pub global_range: FigurePanel,
    /// CR vs std of local variogram range (Figure 7, left column).
    pub local_range_std: FigurePanel,
    /// CR vs std of local SVD truncation level (Figure 7, right column).
    pub local_svd_std: FigurePanel,
    /// The slice fields that were analysed (name + ground-truth-free).
    pub slice_names: Vec<String>,
}

/// Run the Miranda-proxy sweep once and derive all three panels.
pub fn run_miranda_figures(config: &MirandaFigureConfig) -> Result<MirandaSweepData, CoreError> {
    let datasets = StudyDatasets { seed: config.seed, ..StudyDatasets::default() };
    let slices: Vec<LabeledField> = datasets.miranda_slices(config.slices, config.slice_size);
    let registry = default_registry();
    let records = run_sweep(&slices, &registry, &config.sweep)?;
    Ok(MirandaSweepData {
        global_range: FigurePanel::from_records(
            records.clone(),
            StatisticKind::GlobalVariogramRange,
        ),
        local_range_std: FigurePanel::from_records(
            records.clone(),
            StatisticKind::LocalVariogramRangeStd,
        ),
        local_svd_std: FigurePanel::from_records(records, StatisticKind::LocalSvdTruncationStd),
        slice_names: slices.iter().map(|s| s.name.clone()).collect(),
    })
}

/// Figure 4 = the global-range panel of the Miranda sweep.
pub fn run_figure4(config: &MirandaFigureConfig) -> FigurePanel {
    run_miranda_figures(config)
        .expect("the study compressors never fail on finite hydro fields")
        .global_range
}

/// Figure 7 = the two local-statistic panels of the Miranda sweep.
pub fn run_figure7(config: &MirandaFigureConfig) -> (FigurePanel, FigurePanel) {
    let data = run_miranda_figures(config)
        .expect("the study compressors never fail on finite hydro fields");
    (data.local_range_std, data.local_svd_std)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_data_has_points_and_model() {
        let data = run_figure1(96, 8.0, 3);
        assert!(data.empirical.len() >= 5);
        assert_eq!(data.model.len(), 100);
        assert!(data.range > 0.0 && data.sill > 0.0);
        // The model curve is monotonically non-decreasing in h.
        assert!(data.model.windows(2).all(|w| w[1].1 >= w[0].1 - 1e-12));
    }

    #[test]
    fn figure3_quick_produces_series_with_positive_slope_for_sz() {
        let data = run_figure3(&Figure3Config::quick());
        assert!(!data.single_range.series.is_empty());
        // On single-range fields the CR of the block-local compressors grows
        // with the variogram range: β > 0 for SZ at the loosest bound.
        let sz_loose = data
            .single_range
            .series
            .iter()
            .find(|s| s.compressor == "sz" && s.bound.raw_epsilon() == 1e-2)
            .expect("series exists");
        assert!(sz_loose.fit.beta > 0.0, "beta = {}", sz_loose.fit.beta);
        // CSV export includes one row per series.
        let csv = data.single_range.fits_to_csv();
        assert_eq!(csv.len(), data.single_range.series.len());
    }

    #[test]
    fn figure6_excludes_mgard() {
        let data = run_figure6(&GaussianFigureConfig::quick());
        assert!(data.single_range.series.iter().all(|s| s.compressor != "mgard"));
        assert!(data.single_range.series.iter().any(|s| s.compressor == "sz"));
        assert!(data.single_range.series.iter().any(|s| s.compressor == "zfp"));
    }

    #[test]
    fn miranda_figures_produce_all_three_panels() {
        let data = run_miranda_figures(&MirandaFigureConfig::quick()).unwrap();
        assert_eq!(data.slice_names.len(), 5);
        assert!(!data.global_range.series.is_empty());
        assert!(!data.local_range_std.series.is_empty());
        assert!(!data.local_svd_std.series.is_empty());
        // Every record respected its error bound.
        for r in &data.global_range.records {
            assert!(r.max_abs_error <= r.bound.raw_epsilon() * 1.0000001);
        }
    }
}
