//! Point-wise error-bound modes.

use crate::CompressError;
use lcc_grid::FieldView;

/// A point-wise reconstruction error bound.
///
/// The paper runs every compressor in *absolute* error-bound mode
/// (1e-5 … 1e-2) and notes the formal equivalence with value-range-relative
/// bounds; both modes are provided here and every compressor resolves the
/// bound to an absolute tolerance with [`ErrorBound::absolute_for_view`] before
/// coding.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ErrorBound {
    /// `|x - x̂| ≤ ε` for every point.
    Absolute(f64),
    /// `|x - x̂| ≤ ε · (max(x) - min(x))` for every point.
    ValueRangeRelative(f64),
}

impl ErrorBound {
    /// Resolve the bound to an absolute tolerance for the given view.
    ///
    /// A value-range-relative bound on a constant field resolves to a tiny
    /// positive tolerance (the field is exactly representable anyway).
    pub fn absolute_for_view(&self, view: &FieldView<'_>) -> Result<f64, CompressError> {
        let eps = match *self {
            ErrorBound::Absolute(e) => e,
            ErrorBound::ValueRangeRelative(e) => {
                let range = view.value_range();
                if range > 0.0 {
                    e * range
                } else {
                    e * f64::EPSILON
                }
            }
        };
        if !eps.is_finite() || eps <= 0.0 {
            return Err(CompressError::InvalidBound(format!(
                "resolved absolute bound must be positive and finite, got {eps}"
            )));
        }
        Ok(eps)
    }

    /// The raw epsilon carried by the bound (before any range scaling).
    pub fn raw_epsilon(&self) -> f64 {
        match *self {
            ErrorBound::Absolute(e) | ErrorBound::ValueRangeRelative(e) => e,
        }
    }

    /// Short mode string: `"abs"` or `"rel"`.
    pub fn mode(&self) -> &'static str {
        match self {
            ErrorBound::Absolute(_) => "abs",
            ErrorBound::ValueRangeRelative(_) => "rel",
        }
    }

    /// The four absolute bounds used throughout the paper's evaluation.
    pub fn paper_bounds() -> [ErrorBound; 4] {
        [
            ErrorBound::Absolute(1e-5),
            ErrorBound::Absolute(1e-4),
            ErrorBound::Absolute(1e-3),
            ErrorBound::Absolute(1e-2),
        ]
    }
}

impl std::fmt::Display for ErrorBound {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ErrorBound::Absolute(e) => write!(f, "abs={e:.0e}"),
            ErrorBound::ValueRangeRelative(e) => write!(f, "rel={e:.0e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcc_grid::Field2D;

    #[test]
    fn absolute_passthrough() {
        let f = Field2D::from_fn(4, 4, |i, j| (i + j) as f64);
        assert_eq!(ErrorBound::Absolute(1e-3).absolute_for_view(&f.view()).unwrap(), 1e-3);
    }

    #[test]
    fn relative_scales_by_value_range() {
        let f = Field2D::from_fn(2, 2, |i, j| (i * 2 + j) as f64 * 10.0); // range 30
        let abs = ErrorBound::ValueRangeRelative(1e-2).absolute_for_view(&f.view()).unwrap();
        assert!((abs - 0.3).abs() < 1e-12);
    }

    #[test]
    fn relative_on_constant_field_is_tiny_but_positive() {
        let f = Field2D::filled(3, 3, 5.0);
        let abs = ErrorBound::ValueRangeRelative(1e-2).absolute_for_view(&f.view()).unwrap();
        assert!(abs > 0.0);
        assert!(abs < 1e-15);
    }

    #[test]
    fn invalid_bounds_are_rejected() {
        let f = Field2D::zeros(2, 2);
        assert!(ErrorBound::Absolute(0.0).absolute_for_view(&f.view()).is_err());
        assert!(ErrorBound::Absolute(-1e-3).absolute_for_view(&f.view()).is_err());
        assert!(ErrorBound::Absolute(f64::NAN).absolute_for_view(&f.view()).is_err());
        assert!(ErrorBound::ValueRangeRelative(f64::INFINITY)
            .absolute_for_view(&f.view())
            .is_err());
    }

    #[test]
    fn accessors_and_display() {
        let b = ErrorBound::Absolute(1e-4);
        assert_eq!(b.raw_epsilon(), 1e-4);
        assert_eq!(b.mode(), "abs");
        assert_eq!(b.to_string(), "abs=1e-4");
        let r = ErrorBound::ValueRangeRelative(1e-2);
        assert_eq!(r.mode(), "rel");
        assert!(r.to_string().starts_with("rel="));
    }

    #[test]
    fn paper_bounds_are_the_four_from_the_study() {
        let bounds = ErrorBound::paper_bounds();
        let eps: Vec<f64> = bounds.iter().map(|b| b.raw_epsilon()).collect();
        assert_eq!(eps, vec![1e-5, 1e-4, 1e-3, 1e-2]);
    }
}
