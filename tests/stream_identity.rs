//! Compressed-stream identity gate.
//!
//! Every registered compressor must emit the exact bytes pinned below on a
//! deterministic field — through the plain `compress_field` path *and*
//! through `compress_view_with` on a worker-style reused [`ScratchArena`] —
//! so caches keyed by stream content stay valid and a refactor cannot move a
//! stream byte unnoticed. The gate lives in the facade package so that
//! tier-1 (`cargo test -q` at the root) sees a stream change.
//!
//! Two kinds of pin. `PINNED` pins what the encoders *emit*: a PR that
//! changes a stream on purpose re-captures the rows (and the `lcc_lossless`
//! fixtures) and says so in its change log — PR 15 did for the `sz` /
//! `mgard` rows (LZ77 encoder policy: miss-skipping and literal-run
//! fallback; token format unchanged). `tests/fixtures/*_pre_skip.bin` pin
//! what the decoders *accept*: they are the streams those rows pinned
//! before, and they must decode forever.

use lcc_core::registry::entropy_ablation_registry;
use lcc_grid::Field2D;
use lcc_pressio::{ErrorBound, ScratchArena};

fn fnv(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// The deterministic 97×113 field the hashes were captured on.
fn pinned_field() -> Field2D {
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

/// (compressor, bound, stream length, FNV-1a hash). The `zfp` rows were
/// captured pre-refactor, the `*-rans8` rows at the commit before the 2-way
/// rANS mode and `zfp-rans*` were deleted, the `sz` / `mgard` rows in PR 15.
const PINNED: &[(&str, f64, usize, u64)] = &[
    ("mgard", 1e-4, 32570, 0xfd84723a24c1c714),
    ("mgard", 1e-2, 7604, 0x6a222e7dbd1e91bc),
    ("mgard-rans8", 1e-4, 32867, 0x4b9f3abe8224dae6),
    ("mgard-rans8", 1e-2, 7621, 0x2c25fbb4d07a4f97),
    ("sz", 1e-4, 15980, 0x14cb14bd32d164cc),
    ("sz", 1e-2, 4114, 0x8af3f9ad5bb965ba),
    ("sz-rans8", 1e-4, 16144, 0xe178d0e15a2db58d),
    ("sz-rans8", 1e-2, 4148, 0xc25c2cec33cc2d81),
    ("zfp", 1e-4, 29928, 0x6138c086316688d7),
    ("zfp", 1e-2, 20335, 0x5fe34963db75c8bf),
];

#[test]
fn every_compressor_stream_matches_its_pin() {
    let field = pinned_field();
    let registry = entropy_ablation_registry();
    // One arena reused across all compressors and bounds, like a sweep
    // worker would: cross-call state leaks would surface here.
    let mut arena = ScratchArena::new();
    for &(name, eb, expected_len, expected_hash) in PINNED {
        let compressor = registry.get(name).expect("registered compressor");
        let bound = ErrorBound::Absolute(eb);
        let fresh = compressor.compress_field(&field, bound).expect("compress");
        assert_eq!(fresh.len(), expected_len, "{name}@{eb}: stream length changed");
        assert_eq!(fnv(&fresh), expected_hash, "{name}@{eb}: stream bytes changed");
        let reused =
            compressor.compress_view_with(&field.view(), bound, &mut arena).expect("compress");
        assert_eq!(reused, fresh, "{name}@{eb}: scratch reuse changed the stream");
        // And the stream still honours its bound after reconstruction.
        let recon = compressor.decompress_field(&fresh).expect("decompress");
        assert!(field.max_abs_diff(&recon) <= eb, "{name}@{eb}: bound violated");
    }
    assert_eq!(arena.len(), 3, "each compressor materializes exactly one scratch type");
}

#[test]
fn repeated_reuse_on_one_arena_stays_stable() {
    // Ten rounds over the same arena: the first call grows the buffers, the
    // rest must reuse them without drifting a single byte.
    let field = pinned_field();
    let registry = entropy_ablation_registry();
    let mut arena = ScratchArena::new();
    for compressor in registry.compressors() {
        let bound = ErrorBound::Absolute(1e-3);
        let reference = compressor.compress_field(&field, bound).expect("compress");
        for round in 0..10 {
            let stream =
                compressor.compress_view_with(&field.view(), bound, &mut arena).expect("compress");
            assert_eq!(stream, reference, "{} round {round}", compressor.name());
        }
    }
}

#[test]
fn streams_written_before_lz77_miss_skipping_still_decode() {
    let field = pinned_field();
    let registry = entropy_ablation_registry();
    let fixtures = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    // (compressor, bound, file tag, FNV-1a hash the row pinned through PR 14)
    for (name, eb, tag, hash) in [
        ("mgard", 1e-4, "1e-4", 0x2f8a01fa2032b9e2u64),
        ("mgard", 1e-2, "1e-2", 0x40c022411b87cddd),
        ("sz", 1e-4, "1e-4", 0x5d5dd10c8a36d5db),
        ("sz", 1e-2, "1e-2", 0xc2ba3253f995c204),
    ] {
        let path = fixtures.join(format!("{name}_{tag}_pre_skip.bin"));
        let old = std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!(fnv(&old), hash, "{name}@{eb}: fixture is not the stream PR 14 pinned");
        let compressor = registry.get(name).expect("registered compressor");
        let recon = compressor.decompress_field(&old).expect("old stream decodes");
        assert_eq!(recon.shape(), field.shape());
        assert!(field.max_abs_diff(&recon) <= eb, "{name}@{eb}: bound violated");
        // The lossy stages did not move, so today's stream decodes to the
        // same field bit for bit.
        let new = compressor.compress_field(&field, ErrorBound::Absolute(eb)).expect("compress");
        assert_eq!(compressor.decompress_field(&new).expect("decompress"), recon, "{name}@{eb}");
    }
}
