//! The experiments behind the paper's evaluation figures.
//!
//! [`run_figure1`] fits the example variogram of Figure 1. [`run_study`]
//! regenerates Figures 3–7: it runs the compression sweep once per dataset
//! family — single-range Gaussian fields, multi-range Gaussian fields and
//! Miranda-proxy slices — and [`PANELS`] names the nine panels, each one
//! statistic plotted against one family's records. [`Study::panel`] fits
//! the logarithmic regressions a panel's legend reports. The `study` binary
//! of `lcc-bench` prints every panel and writes its CSV files.

use crate::dataset::StudyDatasets;
use crate::experiment::{
    compressor_id, fit_series, run_sweep, ExperimentRecord, FittedSeries, SweepConfig,
};
use crate::registry::default_registry;
use crate::statistics::StatisticKind;
use crate::CoreError;
use lcc_geostat::variogram::{
    empirical_variogram_view, fit_squared_exponential, model_gamma, VariogramConfig,
};
use lcc_grid::io::CsvSeries;
use lcc_pressio::ErrorBound;
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
/// range. A field whose variogram cannot be fitted (too few lags) is an
/// error, not a model curve of NaNs.
pub fn run_figure1(size: usize, range: f64, seed: u64) -> Result<Figure1Data, CoreError> {
    let field = generate_single_range(&GaussianFieldConfig::new(size, size, range, seed));
    let vg = empirical_variogram_view(&field.view(), &VariogramConfig::default());
    let fit = fit_squared_exponential(&vg).map_err(|e| CoreError::Statistics(e.to_string()))?;
    let max_h = vg.distances.iter().cloned().fold(1.0, f64::max);
    let model: Vec<(f64, f64)> = (0..100)
        .map(|k| {
            let h = max_h * (k as f64 + 1.0) / 100.0;
            (h, model_gamma(&fit, h))
        })
        .collect();
    Ok(Figure1Data {
        empirical: vg.distances.iter().cloned().zip(vg.gammas.iter().cloned()).collect(),
        model,
        sill: fit.sill,
        range: fit.range,
    })
}

// ---------------------------------------------------------------------------
// Figures 3–7: one sweep per dataset family
// ---------------------------------------------------------------------------

/// The three dataset families of the study (Section IV-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Single-range Gaussian fields, one correlation range each.
    SingleRange,
    /// Gaussian fields mixing a sweep range with a fixed long range.
    MultiRange,
    /// Miranda-proxy velocityx slices (the application dataset).
    Miranda,
}

/// One panel of Figures 3–7: which family's records it plots against
/// which statistic.
#[derive(Debug, Clone, Copy)]
pub struct PanelSpec {
    /// Stem of the panel's CSV files, `<stem>_records.csv` and
    /// `<stem>_fits.csv`.
    pub stem: &'static str,
    /// Heading printed above the panel's series.
    pub title: &'static str,
    /// The family whose records the panel plots.
    pub family: Family,
    /// The statistic on the x-axis.
    pub statistic: StatisticKind,
    /// Whether MGARD's records are plotted: the paper omits MGARD from
    /// Figure 6, whose local-SVD statistic it is insensitive to.
    pub mgard: bool,
}

/// The nine panels of Figures 3–7, in figure order.
pub const PANELS: [PanelSpec; 9] = {
    use Family::*;
    use StatisticKind::*;
    [
        PanelSpec {
            stem: "figure3_single_range",
            title: "Figure 3, left: single-range Gaussian fields",
            family: SingleRange,
            statistic: GlobalVariogramRange,
            mgard: true,
        },
        PanelSpec {
            stem: "figure3_multi_range",
            title: "Figure 3, right: multi-range Gaussian fields",
            family: MultiRange,
            statistic: GlobalVariogramRange,
            mgard: true,
        },
        PanelSpec {
            stem: "figure4_miranda_global_range",
            title: "Figure 4: Miranda-proxy velocityx slices",
            family: Miranda,
            statistic: GlobalVariogramRange,
            mgard: true,
        },
        PanelSpec {
            stem: "figure5_single_range",
            title: "Figure 5, left: single-range Gaussian fields",
            family: SingleRange,
            statistic: LocalVariogramRangeStd,
            mgard: true,
        },
        PanelSpec {
            stem: "figure5_multi_range",
            title: "Figure 5, right: multi-range Gaussian fields",
            family: MultiRange,
            statistic: LocalVariogramRangeStd,
            mgard: true,
        },
        PanelSpec {
            stem: "figure6_single_range",
            title: "Figure 6, left: single-range Gaussian fields, no MGARD",
            family: SingleRange,
            statistic: LocalSvdTruncationStd,
            mgard: false,
        },
        PanelSpec {
            stem: "figure6_multi_range",
            title: "Figure 6, right: multi-range Gaussian fields, no MGARD",
            family: MultiRange,
            statistic: LocalSvdTruncationStd,
            mgard: false,
        },
        PanelSpec {
            stem: "figure7_local_range_std",
            title: "Figure 7, left: Miranda-proxy velocityx slices",
            family: Miranda,
            statistic: LocalVariogramRangeStd,
            mgard: true,
        },
        PanelSpec {
            stem: "figure7_local_svd_std",
            title: "Figure 7, right: Miranda-proxy velocityx slices",
            family: Miranda,
            statistic: LocalSvdTruncationStd,
            mgard: true,
        },
    ]
};

/// Configuration of one study run: the datasets of the three families and
/// the one sweep all three go through.
#[derive(Debug, Clone)]
pub struct StudyConfig {
    /// The two Gaussian families: field size, ranges, replicates and seed.
    pub datasets: StudyDatasets,
    /// Number of Miranda-proxy velocityx slices.
    pub slices: usize,
    /// Side length of each slice.
    pub slice_size: usize,
    /// Seed of the Miranda-proxy simulation.
    pub miranda_seed: u64,
    /// Bounds and statistics of every sweep, and the sweep's threads.
    pub sweep: SweepConfig,
}

impl StudyConfig {
    /// A reduced configuration for tests and smoke runs (96×96 fields and
    /// slices, 2 bounds).
    pub fn quick() -> Self {
        StudyConfig {
            datasets: StudyDatasets {
                gaussian_size: 96,
                n_ranges: 4,
                min_range: 2.0,
                max_range: 16.0,
                replicates: 1,
                seed: 11,
            },
            slices: 5,
            slice_size: 96,
            miranda_seed: 2021,
            sweep: SweepConfig {
                bounds: vec![ErrorBound::Absolute(1e-3), ErrorBound::Absolute(1e-2)],
                ..Default::default()
            },
        }
    }

    /// The default experiment scale (256×256 fields, 10 ranges, 12 slices
    /// of 192×192, 4 bounds).
    pub fn standard() -> Self {
        StudyConfig {
            datasets: StudyDatasets::default(),
            slices: 12,
            slice_size: 192,
            miranda_seed: 2021,
            sweep: SweepConfig::default(),
        }
    }

    /// The paper-scale configuration (1028×1028 fields, 16 slices of
    /// 384×384).
    pub fn paper_scale() -> Self {
        StudyConfig {
            datasets: StudyDatasets::paper_scale(),
            slices: 16,
            slice_size: 384,
            miranda_seed: 2021,
            sweep: SweepConfig::default(),
        }
    }
}

/// The sweep records of one study run, one set per family.
#[derive(Debug, Clone)]
pub struct Study {
    /// Records of the single-range Gaussian fields.
    pub single_range: Vec<ExperimentRecord>,
    /// Records of the multi-range Gaussian fields.
    pub multi_range: Vec<ExperimentRecord>,
    /// Records of the Miranda-proxy slices.
    pub miranda: Vec<ExperimentRecord>,
}

impl Study {
    /// Build one panel: its family's records (without MGARD's where the
    /// panel omits it) and their series fitted against its statistic.
    pub fn panel(&self, spec: &PanelSpec) -> FigurePanel {
        let records = match spec.family {
            Family::SingleRange => &self.single_range,
            Family::MultiRange => &self.multi_range,
            Family::Miranda => &self.miranda,
        };
        let records =
            records.iter().filter(|r| spec.mgard || &*r.compressor != "mgard").cloned().collect();
        FigurePanel::from_records(records, spec.statistic)
    }
}

/// Run the study: one sweep of the [`default_registry`] per family, each
/// family generated just before its sweep.
pub fn run_study(config: &StudyConfig) -> Result<Study, CoreError> {
    let registry = default_registry();
    let miranda = StudyDatasets { seed: config.miranda_seed, ..config.datasets };
    Ok(Study {
        single_range: run_sweep(&config.datasets.single_range_fields(), &registry, &config.sweep)?,
        multi_range: run_sweep(&config.datasets.multi_range_fields(), &registry, &config.sweep)?,
        miranda: run_sweep(
            &miranda.miranda_slices(config.slices, config.slice_size),
            &registry,
            &config.sweep,
        )?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_data_has_points_and_model() {
        let data = run_figure1(96, 8.0, 3).unwrap();
        assert!(data.empirical.len() >= 5);
        assert_eq!(data.model.len(), 100);
        assert!(data.range > 0.0 && data.sill > 0.0);
        // The model curve is monotonically non-decreasing in h.
        assert!(data.model.windows(2).all(|w| w[1].1 >= w[0].1 - 1e-12));
        // A 2×2 field has too few lags to fit: an error, not NaN.
        assert!(matches!(run_figure1(2, 8.0, 3), Err(CoreError::Statistics(_))));
    }

    #[test]
    fn every_panel_is_its_familys_records_fitted_against_its_statistic() {
        let config = StudyConfig {
            datasets: StudyDatasets::tiny(),
            slices: 3,
            slice_size: 48,
            miranda_seed: 5,
            sweep: SweepConfig { bounds: vec![ErrorBound::Absolute(1e-2)], ..Default::default() },
        };
        let study = run_study(&config).unwrap();
        // Three compressors, one bound: three records a field.
        assert_eq!(study.single_range.len(), 3 * 3);
        assert_eq!(study.multi_range.len(), 3 * 3);
        assert_eq!(study.miranda.len(), 3 * 3);
        let mut stems: Vec<&str> = PANELS.iter().map(|p| p.stem).collect();
        stems.sort_unstable();
        stems.dedup();
        assert_eq!(stems.len(), PANELS.len());
        for spec in &PANELS {
            let panel = study.panel(spec);
            assert_eq!(panel.statistic, spec.statistic);
            let compressors = if spec.mgard { 3 } else { 2 };
            assert_eq!(panel.records.len(), 3 * compressors, "{}", spec.stem);
            // A series whose statistic is 0 on every tiny field has no
            // log fit and is dropped.
            assert!(panel.series.len() <= compressors, "{}", spec.stem);
            assert_eq!(panel.fits_to_csv().len(), panel.series.len());
            assert!(panel.series.iter().all(|s| spec.mgard || s.compressor != "mgard"));
            for r in &panel.records {
                assert!(r.max_abs_error <= r.bound.raw_epsilon() * 1.0000001, "{}", spec.stem);
            }
        }
        assert_eq!(study.panel(&PANELS[0]).series.len(), 3);
        assert!(study.miranda.iter().all(|r| r.field_name.starts_with("miranda-velocityx")));
        assert!(study.multi_range.iter().all(|r| r.field_name.starts_with("gauss-multi")));
    }
}
