//! Row-major dense 2D field of `f64` values.

use crate::view::{FieldView, WindowViews};
use crate::{GridError, Summary};

/// A dense, row-major 2D field of `f64` values.
///
/// `ny` is the number of rows (the slow axis), `nx` the number of columns
/// (the fast axis). Element `(i, j)` — row `i`, column `j` — lives at flat
/// offset `i * nx + j`.
///
/// ```
/// use lcc_grid::Field2D;
/// let mut f = Field2D::zeros(4, 6);
/// f.set(2, 3, 1.5);
/// assert_eq!(f.get(2, 3), 1.5);
/// assert_eq!(f.len(), 24);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Field2D {
    ny: usize,
    nx: usize,
    data: Vec<f64>,
}

impl Field2D {
    /// Create a field of the given shape filled with zeros.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn zeros(ny: usize, nx: usize) -> Self {
        assert!(ny > 0 && nx > 0, "field dimensions must be non-zero");
        Field2D { ny, nx, data: vec![0.0; ny * nx] }
    }

    /// Create a field of the given shape filled with `value`.
    pub fn filled(ny: usize, nx: usize, value: f64) -> Self {
        assert!(ny > 0 && nx > 0, "field dimensions must be non-zero");
        Field2D { ny, nx, data: vec![value; ny * nx] }
    }

    /// Wrap an existing row-major buffer.
    ///
    /// Returns [`GridError::ShapeMismatch`] if `data.len() != ny * nx` and
    /// [`GridError::EmptyDimension`] if either dimension is zero.
    pub fn from_vec(ny: usize, nx: usize, data: Vec<f64>) -> Result<Self, GridError> {
        if ny == 0 || nx == 0 {
            return Err(GridError::EmptyDimension);
        }
        let expected = ny.checked_mul(nx);
        if expected != Some(data.len()) {
            let expected = expected.unwrap_or(usize::MAX);
            return Err(GridError::ShapeMismatch { expected, actual: data.len() });
        }
        Ok(Field2D { ny, nx, data })
    }

    /// Overwrite this field with the contents (and shape) of a borrowed
    /// view, reusing the existing buffer allocation — the scratch-friendly
    /// counterpart of [`FieldView::to_field`](crate::FieldView::to_field).
    pub fn copy_from_view(&mut self, view: &FieldView<'_>) {
        let (ny, nx) = view.shape();
        self.ny = ny;
        self.nx = nx;
        self.data.clear();
        self.data.reserve(ny * nx);
        for row in view.rows() {
            self.data.extend_from_slice(row);
        }
    }

    /// Copy a borrowed view into the rectangle of this field whose top-left
    /// corner is `(dst_i0, dst_j0)` and whose shape is the view's shape,
    /// leaving every cell outside that rectangle untouched. This is the
    /// sub-rect write primitive region decodes use to stitch decoded tiles
    /// into a caller-shaped output window.
    ///
    /// # Panics
    /// Panics if the destination rectangle does not fit inside the field.
    pub fn copy_window_from(&mut self, dst_i0: usize, dst_j0: usize, src: &FieldView<'_>) {
        let (h, w) = src.shape();
        assert!(
            dst_i0 + h <= self.ny && dst_j0 + w <= self.nx,
            "window {h}x{w} at ({dst_i0},{dst_j0}) exceeds field {}x{}",
            self.ny,
            self.nx
        );
        for (di, row) in src.rows().enumerate() {
            let at = (dst_i0 + di) * self.nx + dst_j0;
            self.data[at..at + w].copy_from_slice(row);
        }
    }

    /// Reshape this field to `ny × nx`, reusing the existing buffer
    /// allocation where possible. The contents after a resize are
    /// unspecified (a mix of stale values and zeros): this is the decode
    /// counterpart of [`Field2D::copy_from_view`], for consumers that
    /// overwrite every cell — the scratch-threaded decompressors resize
    /// their caller's output field and then write the full grid.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn resize(&mut self, ny: usize, nx: usize) {
        assert!(ny > 0 && nx > 0, "field dimensions must be non-zero");
        self.ny = ny;
        self.nx = nx;
        self.data.resize(ny * nx, 0.0);
    }

    /// Build a field by evaluating `f(i, j)` at every grid point.
    pub fn from_fn<F: FnMut(usize, usize) -> f64>(ny: usize, nx: usize, mut f: F) -> Self {
        let mut out = Field2D::zeros(ny, nx);
        for i in 0..ny {
            for j in 0..nx {
                out.data[i * nx + j] = f(i, j);
            }
        }
        out
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

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the field holds no elements (never true for a constructed field).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable flat view of the row-major data.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable flat view of the row-major data.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consume the field and return the flat buffer.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Bounds-checked element read.
    ///
    /// # Panics
    /// Panics if `i >= ny` or `j >= nx`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.ny && j < self.nx, "index ({i},{j}) out of bounds");
        self.data[i * self.nx + j]
    }

    /// Element read without bounds checks beyond the slice's own.
    #[inline]
    pub fn at(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.ny && j < self.nx);
        self.data[i * self.nx + j]
    }

    /// Bounds-checked element write.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, value: f64) {
        assert!(i < self.ny && j < self.nx, "index ({i},{j}) out of bounds");
        self.data[i * self.nx + j] = value;
    }

    /// Immutable view of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.ny, "row {i} out of bounds");
        &self.data[i * self.nx..(i + 1) * self.nx]
    }

    /// Mutable view of row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(i < self.ny, "row {i} out of bounds");
        &mut self.data[i * self.nx..(i + 1) * self.nx]
    }

    /// Extract the rectangular sub-field starting at `(i0, j0)` with shape
    /// `(h, w)`, clamped to the field boundary.
    pub fn subfield(&self, i0: usize, j0: usize, h: usize, w: usize) -> Field2D {
        let i1 = (i0 + h).min(self.ny);
        let j1 = (j0 + w).min(self.nx);
        assert!(i0 < i1 && j0 < j1, "empty subfield requested");
        let mut out = Field2D::zeros(i1 - i0, j1 - j0);
        for (oi, i) in (i0..i1).enumerate() {
            let src = &self.data[i * self.nx + j0..i * self.nx + j1];
            out.row_mut(oi).copy_from_slice(src);
        }
        out
    }

    /// Zero-copy view of the whole field.
    #[inline]
    pub fn view(&self) -> FieldView<'_> {
        FieldView::new(&self.data, self.ny, self.nx, self.nx)
            .expect("a constructed field is always a valid view")
    }

    /// Iterate over non-overlapping `h × w` tiles covering the field
    /// (trailing partial tiles at the right/bottom edges are included),
    /// yielding each tile's placement and a zero-copy [`FieldView`] of it.
    pub fn windows(&self, h: usize, w: usize) -> WindowViews<'_> {
        self.view().windows(h, w)
    }

    /// Summary statistics of the field values.
    pub fn summary(&self) -> Summary {
        Summary::of(&self.data)
    }

    /// `max - min` of the field, used to convert value-range-relative error
    /// bounds to absolute bounds.
    pub fn value_range(&self) -> f64 {
        let s = self.summary();
        s.max - s.min
    }

    /// Element-wise addition of another field of identical shape.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn add_assign_field(&mut self, other: &Field2D) {
        assert_eq!(self.shape(), other.shape(), "shape mismatch in add_assign_field");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += *b;
        }
    }

    /// Scale every element by `s`.
    pub fn scale(&mut self, s: f64) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Maximum absolute difference to another field of identical shape.
    pub fn max_abs_diff(&self, other: &Field2D) -> f64 {
        assert_eq!(self.shape(), other.shape(), "shape mismatch in max_abs_diff");
        crate::stats::error_pair_metrics(self.data.iter().copied().zip(other.data.iter().copied()))
            .0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(ny: usize, nx: usize) -> Field2D {
        Field2D::from_fn(ny, nx, |i, j| (i * nx + j) as f64)
    }

    #[test]
    fn copy_from_view_reuses_the_buffer_and_matches_to_field() {
        let parent = ramp(6, 7);
        let mut target = Field2D::zeros(1, 1);
        // Strided interior view, then a full contiguous view: both must
        // land exactly as `to_field`, reshaping the target each time.
        for view in [parent.view().subview(1, 2, 4, 3), parent.view()] {
            target.copy_from_view(&view);
            assert_eq!(target, view.to_field());
        }
        assert_eq!(target.shape(), (6, 7));
    }

    #[test]
    fn copy_window_from_writes_only_the_target_rectangle() {
        let src = ramp(3, 4);
        let mut dst = Field2D::filled(6, 7, -1.0);
        dst.copy_window_from(2, 1, &src.view());
        for i in 0..6 {
            for j in 0..7 {
                let inside = (2..5).contains(&i) && (1..5).contains(&j);
                let expect = if inside { src.get(i - 2, j - 1) } else { -1.0 };
                assert_eq!(dst.get(i, j), expect, "cell ({i},{j})");
            }
        }
        // Strided source views land identically to their owned copy.
        let sub = src.view().subview(1, 1, 2, 2);
        dst.copy_window_from(0, 0, &sub);
        assert_eq!(dst.subfield(0, 0, 2, 2), sub.to_field());
    }

    #[test]
    #[should_panic(expected = "exceeds field")]
    fn copy_window_from_rejects_out_of_bounds_rectangles() {
        let src = ramp(3, 3);
        let mut dst = Field2D::zeros(4, 4);
        dst.copy_window_from(2, 2, &src.view());
    }

    #[test]
    fn resize_reshapes_reusing_the_buffer() {
        let mut f = ramp(4, 4);
        f.resize(2, 9);
        assert_eq!(f.shape(), (2, 9));
        assert_eq!(f.len(), 18);
        // Shrinking keeps the invariant data.len() == ny * nx.
        f.resize(3, 2);
        assert_eq!(f.as_slice().len(), 6);
        // Contents are unspecified after resize; writing every cell is the
        // contract, and reads must then see exactly what was written.
        for i in 0..3 {
            for j in 0..2 {
                f.set(i, j, (i * 2 + j) as f64);
            }
        }
        assert_eq!(f.as_slice(), &[0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn resize_rejects_empty_dimensions() {
        ramp(2, 2).resize(0, 4);
    }

    #[test]
    fn zeros_and_shape() {
        let f = Field2D::zeros(3, 5);
        assert_eq!(f.shape(), (3, 5));
        assert_eq!(f.len(), 15);
        assert!(!f.is_empty());
        assert!(f.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zeros_panics_on_zero_dim() {
        let _ = Field2D::zeros(0, 5);
    }

    #[test]
    fn from_vec_checks_shape() {
        assert!(Field2D::from_vec(2, 2, vec![1.0; 4]).is_ok());
        assert_eq!(
            Field2D::from_vec(2, 2, vec![1.0; 5]).unwrap_err(),
            GridError::ShapeMismatch { expected: 4, actual: 5 }
        );
        assert_eq!(Field2D::from_vec(0, 2, vec![]).unwrap_err(), GridError::EmptyDimension);
    }

    #[test]
    fn from_vec_refuses_a_shape_whose_product_overflows() {
        assert_eq!(
            Field2D::from_vec(usize::MAX, 2, vec![]).unwrap_err(),
            GridError::ShapeMismatch { expected: usize::MAX, actual: 0 }
        );
    }

    #[test]
    fn get_set_roundtrip() {
        let mut f = Field2D::zeros(4, 7);
        f.set(3, 6, 2.25);
        assert_eq!(f.get(3, 6), 2.25);
        assert_eq!(f.at(3, 6), 2.25);
        assert_eq!(f.get(0, 0), 0.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        let f = Field2D::zeros(2, 2);
        let _ = f.get(2, 0);
    }

    #[test]
    fn rows_are_row_major_slices() {
        let f = ramp(3, 4);
        assert_eq!(f.row(1), &[4.0, 5.0, 6.0, 7.0]);
    }

    #[test]
    fn subfield_extracts_and_clamps() {
        let f = ramp(4, 4);
        let s = f.subfield(1, 1, 2, 2);
        assert_eq!(s.shape(), (2, 2));
        assert_eq!(s.as_slice(), &[5.0, 6.0, 9.0, 10.0]);
        // Clamped at the boundary.
        let s = f.subfield(3, 3, 5, 5);
        assert_eq!(s.shape(), (1, 1));
        assert_eq!(s.get(0, 0), 15.0);
    }

    #[test]
    fn max_abs_diff_of_one_changed_cell() {
        let a = ramp(2, 3);
        let mut b = a.clone();
        b.set(1, 2, b.get(1, 2) + 0.5);
        assert!((a.max_abs_diff(&b) - 0.5).abs() < 1e-12);
        assert_eq!(a.max_abs_diff(&a), 0.0);
    }

    #[test]
    fn value_range_and_summary() {
        let f = ramp(2, 2);
        assert_eq!(f.value_range(), 3.0);
        let s = f.summary();
        assert_eq!(s.min, 0.0);
        assert_eq!(s.max, 3.0);
        assert!((s.mean - 1.5).abs() < 1e-12);
    }

    #[test]
    fn scale_add() {
        let mut f = ramp(2, 2);
        f.scale(2.0);
        assert_eq!(f.as_slice(), &[0.0, 2.0, 4.0, 6.0]);
        let g = f.clone();
        f.add_assign_field(&g);
        assert_eq!(f.as_slice(), &[0.0, 4.0, 8.0, 12.0]);
    }
}
