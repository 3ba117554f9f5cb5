//! # lcc-grid — gridded scientific field containers
//!
//! Dense 2D floating-point fields with the operations the
//! lossy-compressibility study needs:
//!
//! * the row-major [`Field2D`] container with bounds-checked and unchecked
//!   accessors, and borrowed [`FieldView`] windows into it,
//! * tiled window iteration ([`WindowIter`], [`Field2D::windows`]) used for
//!   local variogram / local SVD statistics,
//! * summary statistics ([`stats::Summary`]) and value-range helpers used to
//!   convert absolute error bounds to value-range-relative bounds,
//! * simple portable exports (PGM images, CSV matrices) for inspecting fields
//!   and figure series, and raw `f64` reads: a volume is read as a stack of
//!   2D slices, one [`FieldView::subview`] each (the paper analyses the
//!   Miranda volume slice by slice).
//!
//! The containers are deliberately plain (a `Vec<f64>` plus dimensions): every
//! downstream consumer (compressors, variogram estimators, the hydro solver)
//! indexes directly into the flat buffer, which keeps the hot loops friendly
//! to the optimizer and allows zero-copy views.

pub mod disjoint;
pub mod field2d;
pub mod io;
pub mod stats;
pub mod view;
pub mod window;

pub use disjoint::disjoint_window_rows;
pub use field2d::Field2D;
pub use stats::Summary;
pub use view::{FieldView, WindowViews};
pub use window::{Window, WindowIter};

/// Errors produced by grid construction and I/O helpers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GridError {
    /// The provided buffer length does not match the requested dimensions.
    ShapeMismatch {
        /// Number of elements expected from the dimensions.
        expected: usize,
        /// Number of elements actually provided.
        actual: usize,
    },
    /// A dimension was zero.
    EmptyDimension,
    /// An I/O error occurred while reading or writing a field.
    Io(String),
}

impl std::fmt::Display for GridError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GridError::ShapeMismatch { expected, actual } => {
                write!(f, "shape mismatch: expected {expected} elements, got {actual}")
            }
            GridError::EmptyDimension => write!(f, "field dimensions must be non-zero"),
            GridError::Io(msg) => write!(f, "i/o error: {msg}"),
        }
    }
}

impl std::error::Error for GridError {}

impl From<std::io::Error> for GridError {
    fn from(e: std::io::Error) -> Self {
        GridError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_informative() {
        let e = GridError::ShapeMismatch { expected: 4, actual: 3 };
        assert!(e.to_string().contains("expected 4"));
        assert!(GridError::EmptyDimension.to_string().contains("non-zero"));
        assert!(GridError::Io("boom".into()).to_string().contains("boom"));
    }
}
