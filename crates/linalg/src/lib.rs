//! # lcc-linalg — small dense linear algebra for the statistics pipeline
//!
//! The correlation statistics in the study only ever need *small* dense
//! problems: least-squares fits with a handful of unknowns (variogram model,
//! logarithmic regression, SZ's block regression predictor) and singular
//! value decompositions of 32×32 windows. This crate implements exactly
//! those pieces from scratch:
//!
//! * [`Matrix`] — a column-count-aware dense row-major matrix,
//! * [`lstsq`](mod@lstsq) — linear least squares via QR (Householder) factorization,
//! * [`svd`](mod@svd) — one-sided Jacobi SVD (singular values and factors; the
//!   accuracy oracle) and the values-only [`svd::EnergySpectrum`] the
//!   per-window truncation statistic runs on,
//! * [`fit`] — Gauss–Newton nonlinear least squares used by the variogram
//!   model fit.

pub mod fit;
pub mod lstsq;
pub mod matrix;
pub mod svd;

pub use fit::{gauss_newton, GaussNewtonOptions};
pub use lstsq::lstsq;
pub use matrix::Matrix;
pub use svd::{singular_values, svd, SvdResult};

/// Errors produced by the linear-algebra routines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinalgError {
    /// Matrix dimensions are incompatible with the requested operation.
    DimensionMismatch(String),
    /// The system is singular or too ill-conditioned to solve.
    Singular,
    /// An iterative routine failed to converge.
    NoConvergence {
        /// Number of iterations performed before giving up.
        iterations: usize,
    },
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::DimensionMismatch(msg) => write!(f, "dimension mismatch: {msg}"),
            LinalgError::Singular => write!(f, "matrix is singular or ill-conditioned"),
            LinalgError::NoConvergence { iterations } => {
                write!(f, "no convergence after {iterations} iterations")
            }
        }
    }
}

impl std::error::Error for LinalgError {}
