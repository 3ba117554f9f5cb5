//! # lcc — Lossy Compressibility from Correlation Structure
//!
//! Facade crate for the reproduction of *"Exploring Lossy Compressibility
//! through Statistical Correlations of Scientific Datasets"* (SC 2021).
//! It re-exports every sub-crate of the workspace so downstream users can
//! depend on a single crate:
//!
//! ```
//! use lcc::synth::{GaussianFieldConfig, generate_single_range};
//! use lcc::geostat::{estimate_range_view, VariogramConfig};
//! use lcc::sz::SzCompressor;
//! use lcc::pressio::{Compressor, ErrorBound};
//!
//! // Generate a small correlated Gaussian field ...
//! let field = generate_single_range(&GaussianFieldConfig::new(64, 64, 8.0, 42));
//! // ... estimate its variogram range ...
//! let range = estimate_range_view(&field.view(), &VariogramConfig::default()).range;
//! // ... and compress it with an absolute error bound.
//! let sz = SzCompressor::default();
//! let result = sz.compress(&field, ErrorBound::Absolute(1e-3)).unwrap();
//! assert!(range > 0.0);
//! assert!(result.metrics.compression_ratio > 1.0);
//! ```
//!
//! The layering (bottom-up) is:
//!
//! | layer | crates |
//! |---|---|
//! | containers & kernels | [`grid`], [`par`], [`lossless`] |
//! | compressors | [`pressio`] (traits/metrics), [`sz`], [`zfp`], [`mgard`] |
//! | data | [`synth`] (Gaussian random fields over a private FFT), [`hydro`] (Miranda-like solver) |
//! | statistics | [`geostat`] (variograms, local SVD, regressions, and the small dense solvers behind them) |
//! | study | [`core`] (experiment pipelines regenerating every figure) |

pub use lcc_archive as archive;
pub use lcc_core as core;
pub use lcc_geostat as geostat;
pub use lcc_grid as grid;
pub use lcc_hydro as hydro;
pub use lcc_lossless as lossless;
pub use lcc_mgard as mgard;
pub use lcc_par as par;
pub use lcc_pressio as pressio;
pub use lcc_synth as synth;
pub use lcc_sz as sz;
pub use lcc_zfp as zfp;
