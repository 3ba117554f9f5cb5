//! Row-major dense 3D field, sliceable into 2D planes.

use crate::{Field2D, GridError, Summary};

/// A dense 3D field with shape `(n0, n1, n2)` stored row-major
/// (`n2` fastest). This mirrors the Miranda `velocityx` volume layout in the
/// paper (`256 × 384 × 384`), which is analysed as 2D slices along axis 0.
#[derive(Debug, Clone, PartialEq)]
pub struct Field3D {
    n0: usize,
    n1: usize,
    n2: usize,
    data: Vec<f64>,
}

impl Field3D {
    /// Create a zero-filled volume.
    ///
    /// # Panics
    /// Panics if any dimension is zero.
    pub fn zeros(n0: usize, n1: usize, n2: usize) -> Self {
        assert!(n0 > 0 && n1 > 0 && n2 > 0, "field dimensions must be non-zero");
        Field3D { n0, n1, n2, data: vec![0.0; n0 * n1 * n2] }
    }

    /// Wrap an existing row-major buffer.
    pub fn from_vec(n0: usize, n1: usize, n2: usize, data: Vec<f64>) -> Result<Self, GridError> {
        if n0 == 0 || n1 == 0 || n2 == 0 {
            return Err(GridError::EmptyDimension);
        }
        let expected = n0.checked_mul(n1).and_then(|n| n.checked_mul(n2));
        if expected != Some(data.len()) {
            let expected = expected.unwrap_or(usize::MAX);
            return Err(GridError::ShapeMismatch { expected, actual: data.len() });
        }
        Ok(Field3D { n0, n1, n2, data })
    }

    /// Build a volume by evaluating `f(k, i, j)` at every point.
    pub fn from_fn<F: FnMut(usize, usize, usize) -> f64>(
        n0: usize,
        n1: usize,
        n2: usize,
        mut f: F,
    ) -> Self {
        let mut out = Field3D::zeros(n0, n1, n2);
        for k in 0..n0 {
            for i in 0..n1 {
                for j in 0..n2 {
                    out.data[(k * n1 + i) * n2 + j] = f(k, i, j);
                }
            }
        }
        out
    }

    /// Extent of axis 0 (slowest).
    #[inline]
    pub fn n0(&self) -> usize {
        self.n0
    }

    /// Extent of axis 1.
    #[inline]
    pub fn n1(&self) -> usize {
        self.n1
    }

    /// Extent of axis 2 (fastest).
    #[inline]
    pub fn n2(&self) -> usize {
        self.n2
    }

    /// `(n0, n1, n2)` triple.
    #[inline]
    pub fn shape(&self) -> (usize, usize, usize) {
        (self.n0, self.n1, self.n2)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the volume holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable flat view of the data.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable flat view of the data.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Bounds-checked element read.
    #[inline]
    pub fn get(&self, k: usize, i: usize, j: usize) -> f64 {
        assert!(k < self.n0 && i < self.n1 && j < self.n2, "index out of bounds");
        self.data[(k * self.n1 + i) * self.n2 + j]
    }

    /// Bounds-checked element write.
    #[inline]
    pub fn set(&mut self, k: usize, i: usize, j: usize, value: f64) {
        assert!(k < self.n0 && i < self.n1 && j < self.n2, "index out of bounds");
        self.data[(k * self.n1 + i) * self.n2 + j] = value;
    }

    /// Debug-checked element read used in hot loops.
    #[inline]
    pub fn at(&self, k: usize, i: usize, j: usize) -> f64 {
        debug_assert!(k < self.n0 && i < self.n1 && j < self.n2);
        self.data[(k * self.n1 + i) * self.n2 + j]
    }

    /// Extract the 2D slice at index `k` along axis 0 — the paper's
    /// "equally spaced slices along the first dimension".
    pub fn slice_axis0(&self, k: usize) -> Field2D {
        assert!(k < self.n0, "slice index {k} out of bounds for axis of extent {}", self.n0);
        let start = k * self.n1 * self.n2;
        let end = start + self.n1 * self.n2;
        Field2D::from_vec(self.n1, self.n2, self.data[start..end].to_vec())
            .expect("slice dimensions are consistent by construction")
    }

    /// Extract `count` equally spaced slices along axis 0.
    ///
    /// Slice indices are `round(t * (n0 - 1) / (count - 1))`; with `count == 1`
    /// the middle slice is returned.
    pub fn equally_spaced_slices(&self, count: usize) -> Vec<(usize, Field2D)> {
        assert!(count > 0, "slice count must be positive");
        if count == 1 {
            let k = self.n0 / 2;
            return vec![(k, self.slice_axis0(k))];
        }
        let mut out = Vec::with_capacity(count);
        let mut last = usize::MAX;
        for t in 0..count {
            let k = ((t as f64) * (self.n0 - 1) as f64 / (count - 1) as f64).round() as usize;
            if k != last {
                out.push((k, self.slice_axis0(k)));
                last = k;
            }
        }
        out
    }

    /// Summary statistics over the whole volume.
    pub fn summary(&self) -> Summary {
        Summary::of(&self.data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n0: usize, n1: usize, n2: usize) -> Field3D {
        Field3D::from_fn(n0, n1, n2, |k, i, j| ((k * n1 + i) * n2 + j) as f64)
    }

    #[test]
    fn construction_and_shape() {
        let f = Field3D::zeros(2, 3, 4);
        assert_eq!(f.shape(), (2, 3, 4));
        assert_eq!(f.len(), 24);
        assert!(!f.is_empty());
    }

    #[test]
    fn from_vec_validates() {
        assert!(Field3D::from_vec(2, 2, 2, vec![0.0; 8]).is_ok());
        assert!(matches!(
            Field3D::from_vec(2, 2, 2, vec![0.0; 7]),
            Err(GridError::ShapeMismatch { expected: 8, actual: 7 })
        ));
        assert!(matches!(Field3D::from_vec(0, 2, 2, vec![]), Err(GridError::EmptyDimension)));
    }

    #[test]
    fn from_vec_refuses_a_shape_whose_product_overflows() {
        assert_eq!(
            Field3D::from_vec(2, usize::MAX, 1, vec![]).unwrap_err(),
            GridError::ShapeMismatch { expected: usize::MAX, actual: 0 }
        );
    }

    #[test]
    fn get_set_and_at() {
        let mut f = Field3D::zeros(2, 3, 4);
        f.set(1, 2, 3, 9.0);
        assert_eq!(f.get(1, 2, 3), 9.0);
        assert_eq!(f.at(1, 2, 3), 9.0);
    }

    #[test]
    fn slice_axis0_matches_direct_indexing() {
        let f = ramp(3, 4, 5);
        let s = f.slice_axis0(2);
        assert_eq!(s.shape(), (4, 5));
        for i in 0..4 {
            for j in 0..5 {
                assert_eq!(s.get(i, j), f.get(2, i, j));
            }
        }
    }

    #[test]
    fn equally_spaced_slices_span_the_volume() {
        let f = ramp(9, 2, 2);
        let slices = f.equally_spaced_slices(3);
        let indices: Vec<usize> = slices.iter().map(|(k, _)| *k).collect();
        assert_eq!(indices, vec![0, 4, 8]);
        let single = f.equally_spaced_slices(1);
        assert_eq!(single[0].0, 4);
    }

    #[test]
    fn equally_spaced_slices_deduplicates() {
        let f = ramp(2, 2, 2);
        // Asking for more slices than planes must not duplicate indices.
        let slices = f.equally_spaced_slices(5);
        let indices: Vec<usize> = slices.iter().map(|(k, _)| *k).collect();
        assert_eq!(indices, vec![0, 1]);
    }

    #[test]
    fn summary_over_volume() {
        let f = ramp(2, 2, 2);
        let s = f.summary();
        assert_eq!(s.min, 0.0);
        assert_eq!(s.max, 7.0);
        assert_eq!(s.count, 8);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_out_of_bounds_panics() {
        let f = Field3D::zeros(2, 2, 2);
        let _ = f.slice_axis0(2);
    }
}
