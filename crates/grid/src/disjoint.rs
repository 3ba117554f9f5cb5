//! Safe disjoint mutable access to window rectangles of one flat buffer.
//!
//! Parallel region decode writes several tiles of the *same* output field
//! concurrently. The workspace denies `unsafe`, so instead of raw-pointer
//! arithmetic the buffer is carved up front into per-window row segments
//! with `chunks_mut` + `split_at_mut`: each window ends up owning a vector
//! of disjoint `&mut [f64]` row slices that can be handed to different
//! workers.

use crate::window::Window;
use std::borrow::Borrow;

/// Split a row-major `ny × nx` buffer (`ny = data.len() / nx`) into one
/// mutable row-segment list per window: `result[k]` holds, top to bottom,
/// a `&mut [f64]` per row of the `k`-th window.
///
/// The windows must be pairwise disjoint and lie inside the buffer; the
/// split is purely safe code (per-row `split_at_mut` walks), so overlap
/// or out-of-bounds placements panic rather than alias.
///
/// # Panics
/// Panics if `nx == 0`, `data.len()` is not a multiple of `nx`, any window
/// is empty or extends past the buffer, or two windows overlap.
pub fn disjoint_window_rows<'a>(
    data: &'a mut [f64],
    nx: usize,
    windows: impl IntoIterator<Item = impl Borrow<Window>>,
) -> Vec<Vec<&'a mut [f64]>> {
    assert!(nx > 0, "row width must be non-zero");
    assert!(data.len() % nx == 0, "buffer length {} is not a multiple of nx {nx}", data.len());
    let ny = data.len() / nx;
    // Each window with its index in the caller's order, sorted by first row.
    let mut pending: Vec<(Window, usize)> =
        windows.into_iter().enumerate().map(|(k, w)| (*w.borrow(), k)).collect();
    for (w, _) in &pending {
        assert!(w.height > 0 && w.width > 0, "empty window {w:?}");
        assert!(
            w.i0 + w.height <= ny && w.j0 + w.width <= nx,
            "window {w:?} exceeds buffer {ny}x{nx}"
        );
    }
    let mut segments: Vec<Vec<&'a mut [f64]>> =
        pending.iter().map(|(w, _)| Vec::with_capacity(w.height)).collect();
    pending.sort_unstable_by_key(|(w, _)| w.i0);

    // Sweep the rows top to bottom, keeping the windows that cover the
    // current row ordered left to right, and split every covered column
    // span off the row in one walk.
    let mut pending = pending.into_iter().peekable();
    let mut cover: Vec<(Window, usize)> = Vec::new();
    for (i, mut rest) in data.chunks_mut(nx).enumerate() {
        cover.retain(|(w, _)| i < w.i0 + w.height);
        let carried = cover.len();
        while let Some(entry) = pending.next_if(|(w, _)| w.i0 == i) {
            cover.push(entry);
        }
        if cover.len() > carried {
            cover.sort_unstable_by_key(|(w, _)| w.j0);
        } else if cover.is_empty() && pending.peek().is_none() {
            break;
        }
        let mut consumed = 0usize;
        for &(w, k) in &cover {
            assert!(w.j0 >= consumed, "windows overlap in row {i} at column {}", w.j0);
            let (_, tail) = rest.split_at_mut(w.j0 - consumed);
            let (seg, tail) = tail.split_at_mut(w.width);
            segments[k].push(seg);
            rest = tail;
            consumed = w.j0 + w.width;
        }
    }
    segments
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::WindowIter;

    fn win(i0: usize, j0: usize, h: usize, w: usize) -> Window {
        Window { i0, j0, height: h, width: w }
    }

    #[test]
    fn full_tiling_covers_every_cell_exactly_once() {
        let ny = 5;
        let nx = 7;
        let mut data = vec![0.0; ny * nx];
        let windows: Vec<Window> = WindowIter::over(ny, nx, 2, 3).collect();
        let mut segments = disjoint_window_rows(&mut data, nx, &windows);
        assert_eq!(segments.len(), windows.len());
        for (k, (w, segs)) in windows.iter().zip(&mut segments).enumerate() {
            assert_eq!(segs.len(), w.height);
            for seg in segs {
                assert_eq!(seg.len(), w.width);
                for v in seg.iter_mut() {
                    *v += (k + 1) as f64;
                }
            }
        }
        drop(segments);
        // Each cell belongs to exactly one window, so each cell was bumped once.
        assert!(data.iter().all(|&v| v >= 1.0));
        let total: f64 = data.iter().sum();
        let expect: f64 = windows.iter().enumerate().map(|(k, w)| ((k + 1) * w.len()) as f64).sum();
        assert_eq!(total, expect);
    }

    #[test]
    fn sparse_windows_leave_the_rest_untouched() {
        let mut data = vec![0.0; 4 * 4];
        let windows = [win(0, 0, 2, 2), win(2, 2, 2, 2)];
        let segments = disjoint_window_rows(&mut data, 4, windows);
        for segs in &segments {
            for seg in segs {
                assert_eq!(seg.len(), 2);
            }
        }
        drop(segments);
        assert!(data.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn segments_map_back_to_window_coordinates() {
        let nx = 6;
        let mut data: Vec<f64> = (0..4 * nx).map(|v| v as f64).collect();
        let w = win(1, 2, 2, 3);
        let segments = disjoint_window_rows(&mut data, nx, [w]);
        assert_eq!(segments[0][0], &[8.0, 9.0, 10.0]);
        assert_eq!(segments[0][1], &[14.0, 15.0, 16.0]);
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn overlapping_windows_panic() {
        let mut data = vec![0.0; 4 * 4];
        disjoint_window_rows(&mut data, 4, [win(0, 0, 2, 3), win(1, 2, 2, 2)]);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn out_of_bounds_window_panics() {
        let mut data = vec![0.0; 4 * 4];
        disjoint_window_rows(&mut data, 4, [win(3, 3, 2, 2)]);
    }
}
