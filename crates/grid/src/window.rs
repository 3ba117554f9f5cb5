//! Tiled window iteration over a 2D field.
//!
//! The paper computes local statistics (variogram range, SVD truncation
//! level) on `32 × 32` windows that tile the entire field; [`WindowIter`]
//! produces exactly that tiling, including the partial tiles that remain at
//! the right and bottom edges when the field extent is not a multiple of the
//! window size. The iterator only needs the grid extents, so decompressors
//! can replay a tiling without materializing a field; pairing each placement
//! with a zero-copy sub-view is [`crate::view::WindowViews`]
//! ([`Field2D::windows`]).

use crate::Field2D;

/// Placement of one tile within a field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window {
    /// Row of the window's top-left corner.
    pub i0: usize,
    /// Column of the window's top-left corner.
    pub j0: usize,
    /// Number of rows in the window (may be smaller at the bottom edge).
    pub height: usize,
    /// Number of columns in the window (may be smaller at the right edge).
    pub width: usize,
}

impl Window {
    /// Number of grid points covered by the window.
    pub fn len(&self) -> usize {
        self.height * self.width
    }

    /// True if the window covers no points (never produced by [`WindowIter`]).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when the window has the full requested extent (not clipped by an
    /// edge).
    pub fn is_full(&self, h: usize, w: usize) -> bool {
        self.height == h && self.width == w
    }
}

/// Iterator over the non-overlapping `h × w` tile placements covering an
/// `ny × nx` grid.
#[derive(Debug, Clone)]
pub struct WindowIter {
    field_ny: usize,
    field_nx: usize,
    h: usize,
    w: usize,
    i: usize,
    j: usize,
}

impl WindowIter {
    /// Tiling iterator over an `ny × nx` grid. Window sizes must be positive.
    pub fn over(ny: usize, nx: usize, h: usize, w: usize) -> Self {
        assert!(h > 0 && w > 0, "window dimensions must be positive");
        WindowIter { field_ny: ny, field_nx: nx, h, w, i: 0, j: 0 }
    }

    /// Tiling iterator over a field's extents.
    pub fn new(field: &Field2D, h: usize, w: usize) -> Self {
        WindowIter::over(field.ny(), field.nx(), h, w)
    }

    /// Number of windows this iterator will produce in total.
    pub fn count_windows(&self) -> usize {
        self.field_ny.div_ceil(self.h) * self.field_nx.div_ceil(self.w)
    }
}

impl Iterator for WindowIter {
    type Item = Window;

    fn next(&mut self) -> Option<Window> {
        if self.i >= self.field_ny {
            return None;
        }
        let i0 = self.i;
        let j0 = self.j;
        let height = self.h.min(self.field_ny - i0);
        let width = self.w.min(self.field_nx - j0);
        // Advance in row-major order over tiles.
        self.j += self.w;
        if self.j >= self.field_nx {
            self.j = 0;
            self.i += self.h;
        }
        Some(Window { i0, j0, height, width })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        // Remaining tiles: full rows of tiles below the current tile row plus
        // the remaining tiles in the current row.
        if self.i >= self.field_ny {
            return (0, Some(0));
        }
        let tiles_per_row = self.field_nx.div_ceil(self.w);
        let full_rows_left = (self.field_ny - self.i - 1) / self.h;
        let in_this_row = tiles_per_row - self.j / self.w;
        let n = full_rows_left * tiles_per_row + in_this_row;
        (n, Some(n))
    }
}

impl ExactSizeIterator for WindowIter {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_tiling_covers_field_once() {
        let wins: Vec<Window> = WindowIter::over(64, 64, 32, 32).collect();
        assert_eq!(wins.len(), 4);
        assert!(wins.iter().all(|w| w.is_full(32, 32)));
        let covered: usize = wins.iter().map(Window::len).sum();
        assert_eq!(covered, 64 * 64);
    }

    #[test]
    fn partial_edges_are_clipped() {
        let wins: Vec<Window> = WindowIter::over(70, 50, 32, 32).collect();
        // 3 tile rows (32, 32, 6) x 2 tile cols (32, 18)
        assert_eq!(wins.len(), 6);
        let covered: usize = wins.iter().map(Window::len).sum();
        assert_eq!(covered, 70 * 50);
        assert_eq!(wins.last().unwrap().height, 6);
        assert_eq!(wins.last().unwrap().width, 18);
    }

    #[test]
    fn count_windows_matches_iteration() {
        for (ny, nx, h, w) in [(10, 10, 3, 4), (32, 32, 32, 32), (33, 17, 8, 8), (5, 5, 7, 7)] {
            let it = WindowIter::over(ny, nx, h, w);
            assert_eq!(it.count_windows(), it.clone().count(), "{ny}x{nx} h={h} w={w}");
        }
    }

    #[test]
    fn size_hint_is_exact() {
        let mut it = WindowIter::over(33, 17, 8, 8);
        let mut remaining = it.count_windows();
        assert_eq!(it.size_hint(), (remaining, Some(remaining)));
        while let Some(_) = it.next() {
            remaining -= 1;
            assert_eq!(it.size_hint(), (remaining, Some(remaining)));
        }
    }

    #[test]
    fn window_helpers() {
        let w = Window { i0: 0, j0: 0, height: 4, width: 8 };
        assert_eq!(w.len(), 32);
        assert!(!w.is_empty());
        assert!(w.is_full(4, 8));
        assert!(!w.is_full(8, 8));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_window_size_panics() {
        let f = Field2D::zeros(4, 4);
        let _ = f.windows(0, 4);
    }
}
