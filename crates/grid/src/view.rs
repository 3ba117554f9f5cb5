//! Zero-copy, strided views into a [`Field2D`] buffer.
//!
//! The local statistics of the paper tile every field into `32 × 32` windows
//! and evaluate an estimator per window; at paper scale (1028×1028) that is
//! ~1024 windows per field, and cloning each window into an owned
//! [`Field2D`] dominated the statistics runtime. A [`FieldView`] is a
//! borrowed rectangle over the parent's row-major buffer — a slice, a shape
//! and a row stride — so windowed consumers (variogram pair enumeration,
//! local SVD, the compressors) read the parent storage directly.

use crate::window::{Window, WindowIter};
use crate::{Field2D, GridError, Summary};

/// A borrowed, possibly strided rectangular view over `f64` grid data.
///
/// Element `(i, j)` lives at flat offset `i * row_stride + j` of `data`;
/// `row_stride >= nx`, and `row_stride == nx` means the view is contiguous.
/// Views are `Copy`: sub-views of a view borrow the same parent buffer.
///
/// ```
/// use lcc_grid::Field2D;
/// let f = Field2D::from_fn(4, 6, |i, j| (i * 6 + j) as f64);
/// let v = f.view().subview(1, 2, 2, 3);
/// assert_eq!(v.shape(), (2, 3));
/// assert_eq!(v.at(0, 0), f.at(1, 2));
/// assert_eq!(v.to_field(), f.subfield(1, 2, 2, 3));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct FieldView<'a> {
    data: &'a [f64],
    ny: usize,
    nx: usize,
    row_stride: usize,
}

impl<'a> FieldView<'a> {
    /// Wrap a row-major buffer with an explicit row stride.
    ///
    /// `data` must hold at least `(ny - 1) * row_stride + nx` elements and
    /// `row_stride` must be at least `nx`.
    pub fn new(
        data: &'a [f64],
        ny: usize,
        nx: usize,
        row_stride: usize,
    ) -> Result<Self, GridError> {
        if ny == 0 || nx == 0 {
            return Err(GridError::EmptyDimension);
        }
        if row_stride < nx {
            return Err(GridError::ShapeMismatch { expected: nx, actual: row_stride });
        }
        let required = (ny - 1) * row_stride + nx;
        if data.len() < required {
            return Err(GridError::ShapeMismatch { expected: required, actual: data.len() });
        }
        Ok(FieldView { data, ny, nx, row_stride })
    }

    /// Number of rows (slow axis extent).
    #[inline]
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// Number of columns (fast axis extent).
    #[inline]
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// `(ny, nx)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.ny, self.nx)
    }

    /// Distance (in elements) between the starts of consecutive rows.
    #[inline]
    pub fn row_stride(&self) -> usize {
        self.row_stride
    }

    /// Number of grid points covered by the view.
    #[inline]
    pub fn len(&self) -> usize {
        self.ny * self.nx
    }

    /// Always false: constructed views cover at least one point.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Element read without bounds checks beyond the slice's own.
    #[inline]
    pub fn at(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.ny && j < self.nx);
        self.data[i * self.row_stride + j]
    }

    /// Bounds-checked element read.
    ///
    /// # Panics
    /// Panics if `i >= ny` or `j >= nx`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.ny && j < self.nx, "index ({i},{j}) out of bounds");
        self.data[i * self.row_stride + j]
    }

    /// Contiguous slice of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &'a [f64] {
        assert!(i < self.ny, "row {i} out of bounds");
        &self.data[i * self.row_stride..i * self.row_stride + self.nx]
    }

    /// Iterate over the rows as contiguous slices.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = &'a [f64]> + '_ {
        (0..self.ny).map(move |i| self.row(i))
    }

    /// Iterate over the values in row-major order (the same order an owned
    /// copy would store them).
    pub fn iter(&self) -> impl Iterator<Item = f64> + Clone + 'a {
        let (data, ny, nx, stride) = (self.data, self.ny, self.nx, self.row_stride);
        (0..ny).flat_map(move |i| data[i * stride..i * stride + nx].iter().copied())
    }

    /// True when the rows are adjacent in memory.
    #[inline]
    pub fn is_contiguous(&self) -> bool {
        self.row_stride == self.nx
    }

    /// Copy the viewed rectangle into an owned [`Field2D`].
    pub fn to_field(&self) -> Field2D {
        let mut out = Field2D::zeros(self.ny, self.nx);
        for (i, row) in self.rows().enumerate() {
            out.row_mut(i).copy_from_slice(row);
        }
        out
    }

    /// Sub-view starting at `(i0, j0)` with shape `(h, w)`, clamped to the
    /// view boundary (mirrors [`Field2D::subfield`] without copying).
    ///
    /// # Panics
    /// Panics if the clamped rectangle is empty.
    pub fn subview(&self, i0: usize, j0: usize, h: usize, w: usize) -> FieldView<'a> {
        let i1 = (i0 + h).min(self.ny);
        let j1 = (j0 + w).min(self.nx);
        assert!(i0 < i1 && j0 < j1, "empty subview requested");
        FieldView {
            data: &self.data[i0 * self.row_stride + j0..],
            ny: i1 - i0,
            nx: j1 - j0,
            row_stride: self.row_stride,
        }
    }

    /// The sub-view covered by a [`Window`] placement.
    pub fn window(&self, win: &Window) -> FieldView<'a> {
        self.subview(win.i0, win.j0, win.height, win.width)
    }

    /// Iterate over the non-overlapping `h × w` tiles covering the view,
    /// yielding each tile's placement and its zero-copy sub-view (trailing
    /// partial tiles at the right/bottom edges are included).
    pub fn windows(&self, h: usize, w: usize) -> WindowViews<'a> {
        WindowViews { base: *self, inner: WindowIter::over(self.ny, self.nx, h, w) }
    }

    /// Summary statistics of the viewed values.
    ///
    /// The one-view case of the side-by-side kernel
    /// ([`Summary::side_by_side`]): accumulates in row-major order, so the
    /// result is bit-identical to summarizing an owned copy of the same
    /// rectangle.
    pub fn summary(&self) -> Summary {
        let [summary] = crate::stats::accumulate(&[*self]);
        summary
    }

    /// `max - min` of the viewed values.
    pub fn value_range(&self) -> f64 {
        let s = self.summary();
        s.max - s.min
    }
}

impl<'a> From<&'a Field2D> for FieldView<'a> {
    fn from(field: &'a Field2D) -> Self {
        field.view()
    }
}

impl PartialEq for FieldView<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.shape() == other.shape() && self.rows().eq(other.rows())
    }
}

/// Iterator over the `(placement, sub-view)` tiles of a [`FieldView`]
/// (returned by [`FieldView::windows`] and [`Field2D::windows`]).
#[derive(Debug, Clone)]
pub struct WindowViews<'a> {
    base: FieldView<'a>,
    inner: WindowIter,
}

impl<'a> WindowViews<'a> {
    /// Number of windows this iterator produces in total.
    pub fn count_windows(&self) -> usize {
        self.inner.count_windows()
    }
}

impl<'a> Iterator for WindowViews<'a> {
    type Item = (Window, FieldView<'a>);

    fn next(&mut self) -> Option<Self::Item> {
        let win = self.inner.next()?;
        Some((win, self.base.window(&win)))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl ExactSizeIterator for WindowViews<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(ny: usize, nx: usize) -> Field2D {
        Field2D::from_fn(ny, nx, |i, j| (i * nx + j) as f64)
    }

    #[test]
    fn full_view_matches_field() {
        let f = ramp(3, 5);
        let v = f.view();
        assert_eq!(v.shape(), (3, 5));
        assert_eq!(v.len(), 15);
        assert!(!v.is_empty());
        assert!(v.is_contiguous());
        assert_eq!(v.row_stride(), 5);
        for i in 0..3 {
            assert_eq!(v.row(i), f.row(i));
            for j in 0..5 {
                assert_eq!(v.at(i, j), f.at(i, j));
                assert_eq!(v.get(i, j), f.get(i, j));
            }
        }
        assert_eq!(v.to_field(), f);
        let w: FieldView<'_> = (&f).into();
        assert_eq!(w, v);
    }

    #[test]
    fn strided_subview_reads_parent_storage() {
        let f = ramp(6, 8);
        let v = f.view().subview(2, 3, 3, 4);
        assert_eq!(v.shape(), (3, 4));
        assert!(!v.is_contiguous());
        assert_eq!(v.row_stride(), 8);
        assert_eq!(v.at(0, 0), f.at(2, 3));
        assert_eq!(v.at(2, 3), f.at(4, 6));
        assert_eq!(v.to_field(), f.subfield(2, 3, 3, 4));
        // Nested sub-view keeps the parent stride.
        let inner = v.subview(1, 1, 2, 2);
        assert_eq!(inner.at(0, 0), f.at(3, 4));
        assert_eq!(inner.row_stride(), 8);
    }

    #[test]
    fn subview_clamps_like_subfield() {
        let f = ramp(5, 5);
        let v = f.view().subview(3, 3, 10, 10);
        assert_eq!(v.shape(), (2, 2));
        assert_eq!(v.to_field(), f.subfield(3, 3, 10, 10));
    }

    #[test]
    #[should_panic(expected = "empty subview")]
    fn empty_subview_panics() {
        let f = ramp(3, 3);
        let _ = f.view().subview(3, 0, 1, 1);
    }

    #[test]
    fn iter_is_row_major() {
        let f = ramp(4, 6);
        let v = f.view().subview(1, 2, 2, 3);
        let values: Vec<f64> = v.iter().collect();
        assert_eq!(values, v.to_field().as_slice());
        assert_eq!(v.rows().len(), 2);
    }

    #[test]
    fn summary_is_bit_identical_to_owned_copy() {
        let f = Field2D::from_fn(7, 9, |i, j| ((i * 31 + j * 17) as f64).sin() * 1e3);
        for (win, view) in f.windows(3, 4) {
            let owned = f.subfield(win.i0, win.j0, win.height, win.width);
            let a = view.summary();
            let b = owned.summary();
            assert_eq!(a.mean.to_bits(), b.mean.to_bits());
            assert_eq!(a.variance.to_bits(), b.variance.to_bits());
            assert_eq!(a.min, b.min);
            assert_eq!(a.max, b.max);
            assert_eq!(view.value_range(), owned.value_range());
        }
    }

    #[test]
    fn windows_cover_everything_without_cloning() {
        let f = ramp(5, 7);
        let wins: Vec<(Window, FieldView<'_>)> = f.windows(2, 3).collect();
        let total: usize = wins.iter().map(|(_, v)| v.len()).sum();
        assert_eq!(total, f.len());
        assert_eq!(f.windows(2, 3).count_windows(), wins.len());
        for (win, view) in &wins {
            assert_eq!(view.shape(), (win.height, win.width));
            assert_eq!(view.at(0, 0), f.at(win.i0, win.j0));
        }
    }

    #[test]
    fn constructor_validates_shape_and_stride() {
        let data = vec![0.0; 10];
        assert!(FieldView::new(&data, 2, 5, 5).is_ok());
        assert!(FieldView::new(&data, 2, 4, 6).is_ok()); // (2-1)*6+4 = 10
        assert_eq!(FieldView::new(&data, 0, 5, 5).unwrap_err(), GridError::EmptyDimension);
        assert!(matches!(
            FieldView::new(&data, 2, 5, 4),
            Err(GridError::ShapeMismatch { expected: 5, actual: 4 })
        ));
        assert!(matches!(FieldView::new(&data, 3, 5, 5), Err(GridError::ShapeMismatch { .. })));
    }
}
