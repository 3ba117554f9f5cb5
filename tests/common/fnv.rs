//! FNV-1a, the fingerprint behind the pinned stream hashes, the figure-3
//! digests and the serving references (`#[path]`-included; each test binary
//! uses what it needs).

#![allow(dead_code)]

use lcc_grid::FieldView;

/// FNV-1a over `bytes`.
pub fn bytes(bytes: &[u8]) -> u64 {
    fold(bytes.iter().copied())
}

/// FNV-1a over a view's values: each value's little-endian bits, row-major.
pub fn values(view: &FieldView<'_>) -> u64 {
    fold(view.iter().flat_map(f64::to_le_bytes))
}

fn fold(bytes: impl Iterator<Item = u8>) -> u64 {
    bytes.fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
