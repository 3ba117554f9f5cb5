//! # lcc-geostat — correlation statistics of gridded fields
//!
//! The statistical toolbox of the study (the role gstat + numpy play in the
//! paper):
//!
//! * [`variogram`] — the empirical (Matheron) semi-variogram of a 2D field
//!   (Equation 1 of the paper), a squared-exponential model fit by damped
//!   Gauss–Newton, and [`variogram::estimate_range_view`] returning the paper's
//!   "estimated variogram range",
//! * [`local`] — the same statistic estimated on `H × H` windows tiling the
//!   field, and its standard deviation ("Std estimated of local variogram
//!   range (H=32)"),
//! * [`svdstat`] — the number of singular modes needed to capture 99 % of a
//!   window's variance, and the standard deviation of that truncation level
//!   across windows ("Std of truncation level of local SVD (H=32)"),
//! * [`regression`] — the logarithmic regression `CR = α + β·log(a) + ε`
//!   used in every figure legend, with goodness-of-fit summaries.
//!
//! The two windowed statistics run their full windows four at a time, one
//! window per lane of an interleaved copy (the private `quad` module, at
//! the tier `lcc_lossless::simd_level()` picks), and every window keeps the
//! bits of its one-window kernel, [`window_range`] or
//! [`window_truncation_level`].
//!
//! The statistics only ever need *small* dense numerics, and each routine
//! lives, private, beside its one caller:
//!
//! * the Gauss–Newton (Levenberg–Marquardt) least-squares fit of the
//!   variogram model, in [`variogram`]: two parameters, normal equations
//!   on the stack, so a fit allocates nothing;
//! * a dense row-major matrix and linear least squares by Householder QR,
//!   in [`regression`];
//! * the values-only energy spectrum of a window (Gram matrix →
//!   Householder tridiagonalisation → implicit QL), in [`svdstat`]. Its
//!   eigenvalues carry an *absolute* error of about `n·ε·λ_max`, so a
//!   99 % energy threshold is decided exactly as a full SVD decides it
//!   (except within rounding of the threshold), but singular values below
//!   `≈ 1e-7·σ_max` are noise. The tests hold it to a one-sided Jacobi SVD,
//!   which resolves every singular value to high *relative* accuracy and is
//!   kept only as that test oracle (≈ 17× slower per 32×32 window).

#[cfg(test)]
mod jacobi;
pub mod local;
mod quad;
pub mod regression;
pub mod svdstat;
#[cfg(test)]
mod test_fields;
pub mod variogram;

pub use local::{
    local_range_std_view, local_variogram_ranges_view, local_variogram_ranges_view_at,
    window_range, LocalStatConfig,
};
pub use regression::{log_regression, LogRegression};
pub use svdstat::{
    local_svd_truncation_levels_view, local_svd_truncation_levels_view_at,
    local_svd_truncation_std_view, window_truncation_level,
};
pub use variogram::{
    empirical_variogram_view, estimate_range_pooled, estimate_range_view, fit_squared_exponential,
    EmpiricalVariogram, VariogramConfig, VariogramFit,
};

/// Errors produced by the statistics routines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GeostatError {
    /// The input is too small or degenerate for the requested statistic.
    DegenerateInput(String),
    /// The model fit did not converge to a usable estimate.
    FitFailed(String),
}

impl std::fmt::Display for GeostatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GeostatError::DegenerateInput(m) => write!(f, "degenerate input: {m}"),
            GeostatError::FitFailed(m) => write!(f, "variogram fit failed: {m}"),
        }
    }
}

impl std::error::Error for GeostatError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        assert!(GeostatError::DegenerateInput("x".into()).to_string().contains("degenerate"));
        assert!(GeostatError::FitFailed("y".into()).to_string().contains("fit"));
    }
}
