//! # lcc-core — the correlation → compressibility study pipeline
//!
//! This crate is the paper's primary contribution turned into a library: it
//! ties the data generators, the correlation statistics and the
//! error-bounded compressors together into reproducible experiments and
//! exposes the resulting functional models.
//!
//! * [`registry`] — the default compressor registry (SZ-, ZFP- and
//!   MGARD-style implementations with Table I-like version strings),
//! * [`dataset`] — labelled field collections: the single-range Gaussian
//!   sweep, the multi-range Gaussian sweep, and the Miranda-proxy velocityx
//!   slices,
//! * [`statistics`] — the three correlation statistics of the paper
//!   (global variogram range, std of local variogram ranges, std of local
//!   SVD truncation levels) computed per field,
//! * [`experiment`] — the (field × compressor × error bound) sweep driver,
//!   parallelized with `lcc-par`, producing one record per cell,
//! * [`figures`] — the study behind the paper's evaluation figures: one
//!   sweep per dataset family, and the nine panels of Figures 3–7 built
//!   from those records as CSV series plus fitted logarithmic regression
//!   coefficients,
//! * [`predict`] — the study's stated end goal, implemented as an
//!   extension: predict the compression ratio of an unseen field from its
//!   correlation statistics, and use the prediction to select a compressor
//!   (the SZ/ZFP auto-selection scenario of the related work).
//!
//! ```no_run
//! use lcc_core::figures::{run_study, StudyConfig, PANELS};
//!
//! // A reduced-scale study: three sweeps, nine panels.
//! let study = run_study(&StudyConfig::quick()).unwrap();
//! // Figure 3, left: CR vs global variogram range on single-range fields.
//! let panel = study.panel(&PANELS[0]);
//! for series in &panel.series {
//!     println!("{} {}: alpha={:.2} beta={:.2}", series.compressor, series.bound, series.fit.alpha, series.fit.beta);
//! }
//! ```

pub mod dataset;
pub mod experiment;
pub mod figures;
pub mod predict;
pub mod registry;
pub mod statistics;

pub use dataset::{LabeledField, StudyDatasets};
pub use experiment::{run_sweep, ExperimentRecord, SweepConfig};
pub use predict::{CompressionRatioPredictor, CompressorChoice};
pub use registry::default_registry;
pub use statistics::{CorrelationStatistics, StatisticKind};

/// Errors produced by the experiment pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// A compressor failed on a field.
    Compression(String),
    /// A statistic or regression could not be computed.
    Statistics(String),
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::Compression(m) => write!(f, "compression failed: {m}"),
            CoreError::Statistics(m) => write!(f, "statistics failed: {m}"),
        }
    }
}

impl std::error::Error for CoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        assert!(CoreError::Compression("x".into()).to_string().contains("compression"));
        assert!(CoreError::Statistics("x".into()).to_string().contains("statistics"));
    }
}
