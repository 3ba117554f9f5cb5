//! Compressed-stream identity gate.
//!
//! Every registered compressor must emit the exact bytes pinned below on a
//! deterministic field — through the plain `compress_field` path *and*
//! through `compress_view_with` on a worker-style reused [`ScratchArena`] —
//! so caches keyed by stream content stay valid and a refactor cannot move a
//! stream byte unnoticed. The gate lives in the facade package so that
//! tier-1 (`cargo test -q` at the root) sees a stream change.
//!
//! Two kinds of pin. `PINNED` pins what the encoders *emit*: a change that
//! moves a stream on purpose re-captures the rows (and the `lcc_lossless`
//! fixtures) and says so in its change log, as happened for the `sz` /
//! `mgard` rows (LZ77 encoder policy: miss-skipping and literal-run
//! fallback; token format unchanged) and for the `sz-rans8` / `mgard-rans8`
//! rows (rANS stream mode 3: the frequency table run-coded instead of
//! written as absolute pairs). A change of *format* also deletes the old
//! decoder (`FORMAT.md` lists the retired forms, and
//! `tests/entropy_backend.rs` pins their refusal). `tests/fixtures/*_pre_skip.bin`
//! pin the other kind of change, an encoder *policy* over a format that is
//! still written: the `sz` / `mgard` streams the rows pinned before the LZ77
//! policy moved, which must still decode.
use lcc_core::registry::entropy_ablation_registry;
use lcc_lossless::EntropyBackend;
use lcc_pressio::{codes, ErrorBound, ScratchArena};

#[path = "common/fields.rs"]
mod fields;
#[path = "common/fnv.rs"]
mod fnv;
use fields::pinned_field;

/// (compressor, bound, stream length, FNV-1a hash). The `zfp` rows were
/// captured pre-refactor, the `sz` / `mgard` rows in PR 15, the `*-rans8`
/// rows at 1e-4 and 1e-2 in PR 21 (all four are rANS streams, none the
/// Huffman fallback). The 1e-5 rows were captured before the Huffman tables
/// were built by two queues and a counting sort: their codes take
/// [`WIDE_ALPHABET`] distinct values, most of them seen once, so the code
/// lengths hang on how equal counts are tie-broken, and the `mgard-rans8`
/// row is the Huffman fallback. The `zfp` 1e-9 row was captured at the
/// commit before ZFP lost its AVX2 lift: at 1e-4 and 1e-2 the encoder drops
/// the low bit planes in which a wrong lift order shows (coding the columns
/// before the rows left both rows unchanged), and at 1e-9 it keeps them.
const PINNED: &[(&str, f64, usize, u64)] = &[
    ("mgard", 1e-5, 70758, 0x486c81ba8d5be8f1),
    ("mgard", 1e-4, 32570, 0xfd84723a24c1c714),
    ("mgard", 1e-2, 7604, 0x6a222e7dbd1e91bc),
    ("mgard-rans8", 1e-5, 70752, 0xc3091021611272bc),
    ("mgard-rans8", 1e-4, 19610, 0x888c0134fcf4c546),
    ("mgard-rans8", 1e-2, 7028, 0x73cc4f909a1cec4f),
    ("sz", 1e-4, 15980, 0x14cb14bd32d164cc),
    ("sz", 1e-2, 4114, 0x8af3f9ad5bb965ba),
    ("sz-rans8", 1e-4, 13993, 0x3f383aa63474971a),
    ("sz-rans8", 1e-2, 4116, 0xc3224041bf197059),
    ("zfp", 1e-9, 51850, 0x88ea7efb15f40a70),
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
        let fresh = compressor.compress_view(&field.view(), bound).expect("compress");
        assert_eq!(fresh.len(), expected_len, "{name}@{eb}: stream length changed");
        assert_eq!(fnv::bytes(&fresh), expected_hash, "{name}@{eb}: stream bytes changed");
        let reused =
            compressor.compress_view_with(&field.view(), bound, &mut arena).expect("compress");
        assert_eq!(reused, fresh, "{name}@{eb}: scratch reuse changed the stream");
        // And the stream still honours its bound after reconstruction.
        let recon = compressor.decompress_field(&fresh).expect("decompress");
        assert!(field.max_abs_diff(&recon) <= eb, "{name}@{eb}: bound violated");
    }
    assert_eq!(arena.len(), 3, "each compressor materializes exactly one scratch type");
}

/// Distinct MGARD codes of [`pinned_field`] at 1e-5: more than the 4 096
/// symbols of the 12-bit rANS table.
const WIDE_ALPHABET: usize = 8796;

#[test]
fn the_1e_5_rows_code_a_wide_alphabet_with_huffman() {
    let field = pinned_field();
    let registry = entropy_ablation_registry();
    for name in ["mgard", "mgard-rans8"] {
        let stream = registry
            .get(name)
            .expect("registered compressor")
            .compress_view(&field.view(), ErrorBound::Absolute(1e-5))
            .expect("compress");
        let mut expanded = Vec::new();
        let parts = codes::open(&lcc_mgard::FORMAT, &stream, &mut expanded).expect("opens");
        let huffman = match parts.backend {
            EntropyBackend::Huffman => parts.section,
            // rANS mode 1: the alphabet overflowed the table, Huffman follows.
            EntropyBackend::Rans8 => {
                assert_eq!(parts.section[0], 1, "{name}: not the Huffman fallback");
                &parts.section[1..]
            }
        };
        let (mut symbols, _) = lcc_lossless::huffman_decode(huffman).expect("decodes");
        symbols.sort_unstable();
        symbols.dedup();
        assert_eq!(symbols.len(), WIDE_ALPHABET, "{name}");
    }
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
        let reference = compressor.compress_view(&field.view(), bound).expect("compress");
        for round in 0..10 {
            let stream =
                compressor.compress_view_with(&field.view(), bound, &mut arena).expect("compress");
            assert_eq!(stream, reference, "{} round {round}", compressor.name());
        }
    }
}

#[test]
fn xxh64_digests_match_their_pin() {
    // Xorshift bytes of every length class on both sides of the 32-byte
    // stripe threshold, and stripe-heavy lengths, at two seeds; the FNV-1a
    // of their digests was taken while an AVX2 stripe loop still ran beside
    // the scalar one and agreed with it. `lcc_lossless::xxhash`'s unit
    // tests hold the digests one by one.
    let mut digests = Vec::new();
    for n in (0..64).chain([100, 127, 128, 255, 1000, 4096, 65_537]) {
        let mut state = n as u64 + 1;
        let data: Vec<u8> = (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 24) as u8
            })
            .collect();
        for seed in [0, 0x1234_5678_9ABC_DEF0] {
            digests.extend(lcc_lossless::xxh64(&data, seed).to_le_bytes());
        }
    }
    assert_eq!(fnv::bytes(&digests), 0x62dd_84cf_3807_2d9f);
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
        assert_eq!(fnv::bytes(&old), hash, "{name}@{eb}: fixture is not the stream PR 14 pinned");
        let compressor = registry.get(name).expect("registered compressor");
        let recon = compressor.decompress_field(&old).expect("old stream decodes");
        assert_eq!(recon.shape(), field.shape());
        assert!(field.max_abs_diff(&recon) <= eb, "{name}@{eb}: bound violated");
        // The lossy stages did not move, so today's stream decodes to the
        // same field bit for bit.
        let new =
            compressor.compress_view(&field.view(), ErrorBound::Absolute(eb)).expect("compress");
        assert_eq!(compressor.decompress_field(&new).expect("decompress"), recon, "{name}@{eb}");
    }
}
