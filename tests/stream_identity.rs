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
//! fallback; token format unchanged), PR 21 for the `sz-rans8` /
//! `mgard-rans8` rows (rANS stream mode 3: the frequency table run-coded
//! instead of written as absolute pairs; the lanes after it unchanged).
//! `tests/fixtures/` pins what the decoders *accept*: `*_pre_skip.bin` and
//! `*_pair_table.bin` are the streams those rows pinned before, and
//! `archive_pair_table.lcca` an archive of pair-table tile streams built at
//! the commit before PR 21; they must decode forever.
//! `sz_frame_v1*.bin` are row-band (format v1) frames, which the encoder no
//! longer writes; they decode forever too.

use lcc_archive::Archive;
use lcc_core::registry::entropy_ablation_registry;
use lcc_grid::{Field2D, Window};
use lcc_par::ThreadPoolConfig;
use lcc_pressio::frame::decompress_framed_with;
use lcc_pressio::{
    ErrorBound, FrameIndex, FrameScratch, ScratchArena, FLAG_CHECKSUM, FRAME_VERSION,
};

#[path = "common/fields.rs"]
mod fields;
#[path = "common/fnv.rs"]
mod fnv;
use fields::{pinned_field, ripple};

/// (compressor, bound, stream length, FNV-1a hash). The `zfp` rows were
/// captured pre-refactor, the `sz` / `mgard` rows in PR 15, the `*-rans8`
/// rows in PR 21 (all four are rANS streams, none the Huffman fallback).
const PINNED: &[(&str, f64, usize, u64)] = &[
    ("mgard", 1e-4, 32570, 0xfd84723a24c1c714),
    ("mgard", 1e-2, 7604, 0x6a222e7dbd1e91bc),
    ("mgard-rans8", 1e-4, 19610, 0x888c0134fcf4c546),
    ("mgard-rans8", 1e-2, 7028, 0x73cc4f909a1cec4f),
    ("sz", 1e-4, 15980, 0x14cb14bd32d164cc),
    ("sz", 1e-2, 4114, 0x8af3f9ad5bb965ba),
    ("sz-rans8", 1e-4, 13993, 0x3f383aa63474971a),
    ("sz-rans8", 1e-2, 4116, 0xc3224041bf197059),
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

#[test]
fn streams_written_before_run_coded_tables_still_decode() {
    let field = pinned_field();
    let registry = entropy_ablation_registry();
    let fixtures = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    // (compressor, bound, file tag, length and FNV-1a hash the row pinned
    // through PR 20)
    for (name, eb, tag, len, hash) in [
        ("mgard-rans8", 1e-4, "1e-4", 32867, 0x4b9f3abe8224dae6u64),
        ("mgard-rans8", 1e-2, "1e-2", 7621, 0x2c25fbb4d07a4f97),
        ("sz-rans8", 1e-4, "1e-4", 16144, 0xe178d0e15a2db58d),
        ("sz-rans8", 1e-2, "1e-2", 4148, 0xc25c2cec33cc2d81),
    ] {
        let path = fixtures.join(format!("{name}_{tag}_pair_table.bin"));
        let old = std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!(
            (old.len(), fnv::bytes(&old)),
            (len, hash),
            "{name}@{eb}: not the stream PR 20 pinned"
        );
        let compressor = registry.get(name).expect("registered compressor");
        let recon = compressor.decompress_field(&old).expect("old stream decodes");
        assert!(field.max_abs_diff(&recon) <= eb, "{name}@{eb}: bound violated");
        // The symbols did not move, so today's (shorter) stream decodes to
        // the same field bit for bit.
        let new =
            compressor.compress_view(&field.view(), ErrorBound::Absolute(eb)).expect("compress");
        assert!(new.len() < old.len(), "{name}@{eb}: {} against {}", new.len(), old.len());
        assert_eq!(compressor.decompress_field(&new).expect("decompress"), recon, "{name}@{eb}");
    }

    // An archive of such streams: `ripple(48, 80)` as 16 × 32 `sz-rans8`
    // tiles and `ripple(40, 56)` as 24 × 24 `mgard-rans8` tiles, both at
    // `Absolute(1e-3)`, written by `ArchiveWriter` at the commit before PR 21.
    let bytes = std::fs::read(fixtures.join("archive_pair_table.lcca")).expect("archive fixture");
    assert_eq!((bytes.len(), lcc_lossless::xxh64(&bytes, 0)), (17967, 0x7234db5b95fcc551));
    let archive = Archive::open(bytes).expect("old archive opens");
    assert_eq!(archive.len(), 2);
    let pool = ThreadPoolConfig::with_threads(2);
    let mut scratch = FrameScratch::new();
    for (k, (name, (ny, nx))) in
        [("sz-rans8", (48, 80)), ("mgard-rans8", (40, 56))].into_iter().enumerate()
    {
        let compressor = registry.get(name).expect("registered compressor");
        assert_eq!(archive.entry(k).codec, name);
        let field = ripple(ny, nx);
        let mut full = Field2D::zeros(1, 1);
        archive
            .read_entry(k, compressor.as_ref(), pool, &mut scratch, &mut full)
            .expect("entry decodes");
        assert!(field.max_abs_diff(&full) <= 1e-3, "{name}: bound violated");
        // Tile by tile, the old entry is today's streams' reconstruction.
        let entry = archive.entry(k);
        for w in lcc_grid::WindowIter::over(ny, nx, entry.tile_ny, entry.tile_nx) {
            let tile = field.view().window(&w);
            let today = compressor.compress_view(&tile, ErrorBound::Absolute(1e-3)).unwrap();
            let recon = compressor.decompress_field(&today).unwrap();
            let old: Vec<f64> = full.view().window(&w).iter().collect();
            assert_eq!(recon.as_slice(), old.as_slice(), "{name} tile at ({}, {})", w.i0, w.j0);
        }
        // A window straddling tile seams reads as the full decode's window.
        let window = Window { i0: 9, j0: 17, height: 23, width: 31 };
        let mut region = Field2D::zeros(1, 1);
        archive
            .read_region(k, &window, compressor.as_ref(), pool, &mut scratch, &mut region)
            .expect("region decodes");
        let want: Vec<f64> = full.view().window(&window).iter().collect();
        assert_eq!(region.as_slice(), want.as_slice(), "{name}: region read differs");
    }
}

#[test]
fn row_band_frames_still_decode() {
    // `pinned_field()` as a four-band `sz` frame at `Absolute(1e-3)`, plain
    // and checksummed, written at the last commit whose encoder wrote row
    // bands. Its 97 rows make
    // bands of 25, 24, 24, 24 where equal tiles would be 25, 25, 25, 22, so
    // a change to the v1 band rule fails the decoder's shape check.
    let field = pinned_field();
    let sz = entropy_ablation_registry().get("sz").expect("registered compressor");
    let fixtures = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    // (file, version byte, length and FNV-1a hash the parent wrote)
    for (file, version, len, hash) in [
        ("sz_frame_v1.bin", FRAME_VERSION, 10393, 0xe83be8874614c9d3u64),
        ("sz_frame_v1_ck.bin", FRAME_VERSION | FLAG_CHECKSUM, 10425, 0xad35c622079f88fe),
    ] {
        let old = std::fs::read(fixtures.join(file)).unwrap_or_else(|e| panic!("{file}: {e}"));
        assert_eq!((old.len(), fnv::bytes(&old), old[4]), (len, hash, version), "{file}");
        let index = FrameIndex::parse(&old, old.len()).expect("old frame parses");
        let heights: Vec<usize> =
            (0..index.n_blocks()).map(|b| index.block_window(b).height).collect();
        assert_eq!((index.tile, heights), (None, vec![25, 24, 24, 24]), "{file}");
        let mut out = Field2D::zeros(1, 1);
        let (pool, scratch) = (ThreadPoolConfig::with_threads(2), &mut FrameScratch::new());
        decompress_framed_with(sz.as_ref(), &old, pool, scratch, &mut out)
            .expect("old frame decodes");
        assert_eq!(fnv::values(&out.view()), 0x7a585d091ddeaf9e, "{file}: the decode moved");
        assert!(field.max_abs_diff(&out) <= 1e-3, "{file}: bound violated");
    }
}
