//! Deterministic fields whose bits are pinned: stream hashes and committed
//! fixtures were captured on them, so the tests that share one share this
//! definition (`#[path]`-included; each test binary uses what it needs).

#![allow(dead_code)]

use lcc_grid::Field2D;

/// The 97 × 113 field behind `PINNED` and the `tests/fixtures/*.bin` streams.
pub fn pinned_field() -> Field2D {
    let mut s = 42u64;
    Field2D::from_fn(97, 113, |i, j| {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        ((i as f64) * 0.07).sin()
            + ((j as f64) * 0.05).cos()
            + 0.05 * ((s as f64 / u64::MAX as f64) - 0.5)
    })
}

/// The field behind the archive digest's degenerate-shape entries.
pub fn ripple(ny: usize, nx: usize) -> Field2D {
    let mut s = (ny * 1000 + nx) as u64 | 1;
    Field2D::from_fn(ny, nx, |i, j| {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (i as f64 * 0.13).sin() + (j as f64 * 0.09).cos() + 0.05 * (s as f64 / u64::MAX as f64)
    })
}
