//! Framed multi-block container: property tests over the real compressors.
//!
//! The frame module's own unit tests pin the container logic against a
//! store-everything codec; this suite drives the actual SZ/ZFP/MGARD
//! pipelines through it:
//!
//! * framed round-trips across block counts 1..=8, including non-divisible
//!   row tails and 1×N / N×1 degenerate fields, always hold the error bound,
//!   and `blocks` always means full-width tiles of `ny.div_ceil(blocks)` rows,
//! * a single-block frame is a `0x61` frame whose one block is
//!   byte-identical to the unframed stream, and the frame decoder refuses
//!   the unframed stream itself,
//! * a multi-block frame decodes to exactly the values obtained by
//!   decoding each block's stand-alone stream and stitching the rows,
//! * the scratch-threaded `decompress_view_with` path is bit-identical to
//!   `decompress_field` under heavy arena reuse,
//! * corrupt frames (bad version, truncated table, overflowing/overlapping
//!   lengths) error out instead of panicking for every compressor,
//! * the general `compress_frame` form agrees with the pinned plain entry
//!   points over both tile shapes they write, and every flipped tile-body
//!   byte of either frame is refused by its block's digest,
//! * every header forgery is refused by class without an allocation sized
//!   by what the header claims, and so is a retired row-band header.

use lcc::grid::{Field2D, FieldView};
use lcc::lossless::xxh64;
use lcc::mgard::MgardCompressor;
use lcc::par::ThreadPoolConfig;
use lcc::pressio::frame::{
    compress_frame, compress_framed_with, compress_tiled_with, decompress_framed_with,
};
use lcc::pressio::{
    CompressError, Compressor, ErrorBound, FrameIndex, FrameScratch, ScratchArena, FRAME_MAGIC,
    FRAME_VERSION,
};
use lcc::sz::SzCompressor;
use lcc::zfp::ZfpCompressor;
use proptest::prelude::*;

fn compressors() -> Vec<Box<dyn Compressor>> {
    vec![
        Box::new(SzCompressor::default()),
        Box::new(ZfpCompressor::default()),
        Box::new(MgardCompressor::default()),
    ]
}

fn wavy(ny: usize, nx: usize, seed: u64) -> Field2D {
    let mut s = seed | 1;
    Field2D::from_fn(ny, nx, |i, j| {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (i as f64 * 0.11).sin() * 2.0
            + (j as f64 * 0.07).cos()
            + 0.02 * ((s as f64 / u64::MAX as f64) - 0.5)
    })
}

fn pool(threads: usize) -> ThreadPoolConfig {
    ThreadPoolConfig::with_threads(threads)
}

/// Whether `result` is a `CorruptStream` whose message contains `names`.
fn refused<T>(result: &Result<T, CompressError>, names: &str) -> bool {
    matches!(result, Err(CompressError::CorruptStream(msg)) if msg.contains(names))
}

/// Decode a frame with fresh scratch into an owned field.
fn decompress_framed(
    compressor: &dyn Compressor,
    stream: &[u8],
    pool: ThreadPoolConfig,
) -> Result<Field2D, CompressError> {
    let mut out = Field2D::zeros(1, 1);
    decompress_framed_with(compressor, stream, pool, &mut FrameScratch::new(), &mut out)?;
    Ok(out)
}

#[test]
fn single_block_frame_is_byte_identical_to_the_unframed_stream() {
    let field = wavy(48, 37, 5);
    let bound = ErrorBound::Absolute(1e-3);
    for comp in compressors() {
        let raw = comp.compress_view(&field.view(), bound).unwrap();
        let framed = compress_framed_with(
            comp.as_ref(),
            &field.view(),
            bound,
            1,
            pool(3),
            &mut FrameScratch::new(),
        )
        .unwrap();
        // One block: the header, one length, one digest, then the
        // unframed stream byte for byte.
        let index = FrameIndex::parse(&framed, framed.len()).unwrap();
        assert_eq!((index.n_blocks(), index.tile), (1, (48, 37)), "{}", comp.name());
        let (at, len) = index.block_span(0);
        assert_eq!(framed[..5], [b'L', b'C', b'C', b'F', FRAME_VERSION], "{}", comp.name());
        assert_eq!(at, FrameIndex::PREFIX_LEN + 16, "{}", comp.name());
        assert_eq!(framed[at - 8..at], xxh64(&raw, 0).to_le_bytes(), "{}", comp.name());
        assert_eq!(framed[at..at + len], raw[..], "{}: the one block", comp.name());
        let back = decompress_framed(comp.as_ref(), &framed, pool(3)).unwrap();
        assert_eq!(back, comp.decompress_field(&raw).unwrap(), "{}", comp.name());
        // The frame decoder reads frames only: the unframed stream is
        // refused as one without the magic.
        let result = decompress_framed(comp.as_ref(), &raw, pool(3));
        assert!(refused(&result, "missing magic"), "{}: {result:?}", comp.name());
    }
}

#[test]
fn framed_roundtrip_holds_the_bound_across_block_counts() {
    // 53 rows: blocks 2..=8 all produce non-divisible row tails.
    let field = wavy(53, 41, 9);
    let eb = 1e-3;
    for comp in compressors() {
        for blocks in 1..=8usize {
            let stream = compress_framed_with(
                comp.as_ref(),
                &field.view(),
                ErrorBound::Absolute(eb),
                blocks,
                pool(4),
                &mut FrameScratch::new(),
            )
            .unwrap();
            assert_eq!(stream[..4], FRAME_MAGIC, "{} blocks={blocks}", comp.name());
            let index = FrameIndex::parse(&stream, stream.len()).unwrap();
            assert_eq!(index.n_blocks(), blocks, "{} blocks={blocks}", comp.name());
            let back = decompress_framed(comp.as_ref(), &stream, pool(4)).unwrap();
            assert_eq!(back.shape(), field.shape(), "{} blocks={blocks}", comp.name());
            assert!(
                field.max_abs_diff(&back) <= eb,
                "{} blocks={blocks}: bound violated",
                comp.name()
            );
        }
    }
}

#[test]
fn degenerate_row_and_column_fields_roundtrip() {
    let eb = 1e-4;
    for comp in compressors() {
        // 1×N: the block count clamps to one row → a one-tile frame.
        // N×1: genuinely multi-block single-column frames.
        for (ny, nx) in [(1, 64), (64, 1), (1, 1), (2, 39)] {
            let field = wavy(ny, nx, 11);
            for blocks in [1, 3, 8] {
                let stream = compress_framed_with(
                    comp.as_ref(),
                    &field.view(),
                    ErrorBound::Absolute(eb),
                    blocks,
                    pool(2),
                    &mut FrameScratch::new(),
                )
                .unwrap();
                let back = decompress_framed(comp.as_ref(), &stream, pool(2)).unwrap();
                assert_eq!(back.shape(), (ny, nx), "{} {ny}x{nx}/{blocks}", comp.name());
                assert!(
                    field.max_abs_diff(&back) <= eb,
                    "{} {ny}x{nx}/{blocks}: bound violated",
                    comp.name()
                );
            }
        }
    }
}

#[test]
fn framed_decode_matches_stitched_per_block_single_streams() {
    // A multi-block frame's decoded values must be exactly what decoding
    // each block as its own stand-alone stream yields — the frame container
    // adds structure, never distortion.
    let field = wavy(47, 29, 21);
    let bound = ErrorBound::Absolute(1e-3);
    let blocks = 4usize;
    for comp in compressors() {
        let stream = compress_framed_with(
            comp.as_ref(),
            &field.view(),
            bound,
            blocks,
            pool(4),
            &mut FrameScratch::new(),
        )
        .unwrap();
        let framed_decode = decompress_framed(comp.as_ref(), &stream, pool(4)).unwrap();

        let index = FrameIndex::parse(&stream, stream.len()).unwrap();
        assert_eq!(index.n_blocks(), blocks);
        let mut stitched = Field2D::zeros(field.ny(), field.nx());
        for w in (0..blocks).map(|b| index.block_window(b)) {
            let sub_stream = comp.compress_view(&field.view().window(&w), bound).unwrap();
            let sub_back = comp.decompress_field(&sub_stream).unwrap();
            assert_eq!(sub_back.shape(), (w.height, w.width));
            stitched.copy_window_from(w.i0, w.j0, &sub_back.view());
        }
        assert_eq!(framed_decode, stitched, "{}: framed != stitched blocks", comp.name());
    }
}

#[test]
fn framed_stream_is_deterministic_across_pool_widths() {
    let field = wavy(40, 33, 3);
    let bound = ErrorBound::Absolute(1e-3);
    for comp in compressors() {
        let mut streams = Vec::new();
        for threads in [1, 2, 7] {
            streams.push(
                compress_framed_with(
                    comp.as_ref(),
                    &field.view(),
                    bound,
                    5,
                    pool(threads),
                    &mut FrameScratch::new(),
                )
                .unwrap(),
            );
        }
        assert_eq!(streams[0], streams[1], "{}", comp.name());
        assert_eq!(streams[0], streams[2], "{}", comp.name());
    }
}

#[test]
fn scratch_decode_is_bit_identical_to_compat_wrapper_under_reuse() {
    // One arena shared across compressors, bounds and rounds — the decode
    // counterpart of the compress-side stream-identity gate.
    let field = wavy(50, 61, 13);
    let mut arena = ScratchArena::new();
    let mut out = Field2D::zeros(1, 1);
    for comp in compressors() {
        for eb in [1e-4, 1e-2] {
            let stream = comp.compress_view(&field.view(), ErrorBound::Absolute(eb)).unwrap();
            let reference = comp.decompress_field(&stream).unwrap();
            for round in 0..3 {
                comp.decompress_view_with(&stream, &mut arena, &mut out).unwrap();
                assert_eq!(out, reference, "{} eb={eb} round={round}", comp.name());
            }
        }
    }
    assert!(!arena.is_empty(), "real codecs materialize decode scratch");
}

#[test]
fn corrupt_frames_error_for_every_compressor() {
    let field = wavy(36, 24, 7);
    let bound = ErrorBound::Absolute(1e-3);
    for comp in compressors() {
        let good = compress_framed_with(
            comp.as_ref(),
            &field.view(),
            bound,
            4,
            pool(2),
            &mut FrameScratch::new(),
        )
        .unwrap();
        assert_eq!(good[..4], FRAME_MAGIC);
        // The length table sits before the digest table, which sits right
        // before the first block's bytes.
        let index = FrameIndex::parse(&good, good.len()).unwrap();
        let table = index.block_span(0).0 - 16 * index.n_blocks();
        let (first, second) = (table..table + 8, table + 8..table + 16);
        let (len0, len1) = (index.block_span(0).1 as u64, index.block_span(1).1 as u64);

        let decode = |bytes: &[u8]| decompress_framed(comp.as_ref(), bytes, pool(2));

        // Bad version byte.
        let mut bad = good.clone();
        bad[4] = 0x7f;
        assert!(
            matches!(decode(&bad), Err(CompressError::CorruptStream(_))),
            "{}: version",
            comp.name()
        );

        // Truncated frame table (header claims blocks the table can't hold).
        let forged = forged_frame(V, (512, 512), 500, Some((23, 23)), &[0, 0], 0);
        assert!(refused(&decode(&forged), "exceeds"), "{}: truncated table", comp.name());

        // Overflowing block length.
        let mut bad = good.clone();
        bad[first.clone()].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(decode(&bad).is_err(), "{}: overflowing length", comp.name());

        // Overlapping lengths: grow the first entry so the blocks overlap
        // and the sum no longer matches the payload.
        let mut bad = good.clone();
        bad[first.clone()].copy_from_slice(&(len0 + 7).to_le_bytes());
        assert!(decode(&bad).is_err(), "{}: overlapping lengths", comp.name());

        // Truncated payload.
        assert!(decode(&good[..good.len() - 5]).is_err(), "{}: truncated body", comp.name());

        // Forged giant dimensions over a tiny valid-looking table: all
        // checks up to the allocation guard pass (two full-width tiles
        // cover 2^32 rows, the table fits, lengths sum to the empty body),
        // but the claimed cell count must be rejected before `out` is
        // resized to exabytes.
        let giant = Some((1 << 31, 1 << 16));
        let forged = forged_frame(V, (1 << 32, 1 << 16), 2, giant, &[0, 0], 0);
        assert!(refused(&decode(&forged), "cells"), "{}: forged giant shape", comp.name());

        // A block whose substream decodes to the wrong shape: swap the
        // lengths so block boundaries land mid-stream (only meaningful when
        // the two blocks compressed to different sizes).
        if len0 != len1 {
            let mut bad = good.clone();
            bad[first].copy_from_slice(&len1.to_le_bytes());
            bad[second].copy_from_slice(&len0.to_le_bytes());
            assert!(decode(&bad).is_err(), "{}: swapped lengths", comp.name());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Arbitrary shapes and block counts: the frame must round-trip inside
    /// the bound regardless of the worker count, and `blocks` must become
    /// at most `blocks` full-width tiles of `ny.div_ceil(blocks)` rows, the
    /// last one possibly shorter.
    #[test]
    fn framed_roundtrip_property(
        ny in 1usize..64,
        nx in 1usize..64,
        blocks in 1usize..9,
        threads in 1usize..5,
        seed in any::<u64>(),
    ) {
        let field = wavy(ny, nx, seed);
        let eb = 1e-3;
        for comp in compressors() {
            let stream = compress_framed_with(
                comp.as_ref(),
                &field.view(),
                ErrorBound::Absolute(eb),
                blocks,
                pool(threads),
                &mut FrameScratch::new(),
            )
            .unwrap();
            let rows = ny.div_ceil(blocks);
            prop_assert!(stream[..4] == FRAME_MAGIC, "{}: no frame magic", comp.name());
            prop_assert!(stream[4] == FRAME_VERSION, "{}: not a 0x61 frame", comp.name());
            let index = FrameIndex::parse(&stream, stream.len()).unwrap();
            let n_blocks = index.n_blocks();
            prop_assert_eq!(n_blocks, ny.div_ceil(rows));
            prop_assert!(n_blocks <= blocks, "{n_blocks} tiles for {blocks} blocks");
            for b in 0..n_blocks {
                let w = index.block_window(b);
                prop_assert_eq!((w.i0, w.j0, w.width), (b * rows, 0, nx));
                prop_assert!(w.height == rows || b + 1 == n_blocks, "tile {b}: {w:?}");
            }
            let mut out = Field2D::zeros(1, 1);
            decompress_framed_with(
                comp.as_ref(),
                &stream,
                pool(threads),
                &mut FrameScratch::new(),
                &mut out,
            )
            .unwrap();
            prop_assert_eq!(out.shape(), (ny, nx));
            prop_assert!(field.max_abs_diff(&out) <= eb, "{}: bound violated", comp.name());
        }
    }
}

#[test]
fn the_general_forms_agree_with_the_pinned_entry_points_over_every_option() {
    let field = wavy(48, 40, 17);
    let view = field.view();
    let eb = 1e-3;
    let bound = ErrorBound::Absolute(eb);
    let sz = SzCompressor::default();
    let scratch = &mut FrameScratch::new();
    // What the benchmark's surface measures: the pinned plain names, each
    // beside the tile shape it writes (four blocks of 48 rows: 12-row tiles).
    for (tile, pinned) in [
        ((12, 40), compress_framed_with(&sz, &view, bound, 4, pool(2), scratch)),
        ((16, 16), compress_tiled_with(&sz, &view, bound, 16, 16, pool(2), scratch)),
    ] {
        let pinned = pinned.unwrap();
        assert_eq!(pinned[4], FRAME_VERSION, "{tile:?}");
        let index = FrameIndex::parse(&pinned, pinned.len()).unwrap();
        assert_eq!(index.tile, tile);
        let n_blocks = index.n_blocks();
        let pinned_decode = decompress_framed(&sz, &pinned, pool(2)).unwrap();
        assert!(field.max_abs_diff(&pinned_decode) <= eb);

        // One worker against the pinned name's two: the bytes depend on
        // neither the pool nor the hook.
        let cell_counts = |tiles: &[FieldView<'_>], cells: &mut [usize]| {
            tiles.iter().zip(cells).for_each(|(tile, cell)| *cell = tile.len());
        };
        let (frame, cells) =
            compress_frame(&sz, &view, bound, tile, pool(1), scratch, cell_counts).unwrap();
        let windows = (0..n_blocks).map(|b| index.block_window(b));
        let want: Vec<usize> = windows.map(|w| w.height * w.width).collect();
        assert_eq!(cells, want, "{tile:?}: one hook result a block, in block order");
        assert_eq!(frame, pinned, "{tile:?}: drifted from the pinned name");

        // Every flipped body byte of every tile is refused by that tile's
        // digest, before its decoder sees the bytes.
        let mut bad = frame.clone();
        for b in 0..n_blocks {
            let (at, len) = index.block_span(b);
            let want =
                Err(CompressError::CorruptStream(format!("frame: block {b} checksum mismatch")));
            for pos in at..at + len {
                bad[pos] ^= 0x20;
                assert_eq!(decompress_framed(&sz, &bad, pool(1)), want, "{tile:?}: byte {pos}");
                bad[pos] ^= 0x20;
            }
        }
    }
}

#[path = "common/alloc_probe.rs"]
mod alloc_probe;

#[global_allocator]
static ALLOC: alloc_probe::Probe = alloc_probe::Probe;

/// The version byte of every frame.
const V: u8 = FRAME_VERSION;

/// A frame header (with `tile`, the tiled layout's; without, a retired
/// row-band header) under `version`, followed by `lengths`, a zeroed digest
/// a length where `version` carries the digest bit `0x40` (as every layout
/// that had a digest table laid it out), and `body` zero bytes.
fn forged_frame(
    version: u8,
    (ny, nx): (u64, u64),
    n_blocks: u32,
    tile: Option<(u32, u32)>,
    lengths: &[u64],
    body: usize,
) -> Vec<u8> {
    let mut bytes = FRAME_MAGIC.to_vec();
    bytes.push(version);
    bytes.extend_from_slice(&ny.to_le_bytes());
    bytes.extend_from_slice(&nx.to_le_bytes());
    bytes.extend_from_slice(&n_blocks.to_le_bytes());
    if let Some((tile_ny, tile_nx)) = tile {
        bytes.extend_from_slice(&tile_ny.to_le_bytes());
        bytes.extend_from_slice(&tile_nx.to_le_bytes());
    }
    for len in lengths {
        bytes.extend_from_slice(&len.to_le_bytes());
    }
    if version & 0x40 != 0 {
        bytes.resize(bytes.len() + 8 * lengths.len(), 0);
    }
    bytes.resize(bytes.len() + body, 0);
    bytes
}

#[test]
fn forged_headers_of_either_layout_are_refused_without_reserving() {
    let t = Some((4u32, 4u32));
    // The table of two blocks cut inside their digests.
    let mut digests_cut = forged_frame(V, (8, 4), 2, t, &[8; 2], 0);
    digests_cut.truncate(digests_cut.len() - 8);
    // (what is forged, the forgery, what its refusal names)
    let forgeries: Vec<(&str, Vec<u8>, &str)> = vec![
        ("zero tiles", forged_frame(V, (8, 8), 0, t, &[], 16), "does not cover"),
        ("count is not the cover", forged_frame(V, (8, 8), 3, t, &[4; 3], 12), "does not cover"),
        ("zero tile height", forged_frame(V, (8, 8), 4, Some((0, 4)), &[4; 4], 16), "tile shape"),
        (
            "tile wider than the field",
            forged_frame(V, (8, 8), 2, Some((4, 9)), &[8; 2], 16),
            "tile shape",
        ),
        ("empty shape", forged_frame(V, (0, 8), 2, t, &[8, 8], 16), "empty field shape"),
        ("table past the end", forged_frame(V, (1000, 1000), 62_500, t, &[0, 0], 0), "exceeds"),
        ("digest table past the end", digests_cut, "exceeds"),
        ("length overflows", forged_frame(V, (8, 8), 4, t, &[u64::MAX, 8, 8, 8], 32), "overflow"),
        ("lengths fall short", forged_frame(V, (8, 8), 4, t, &[4; 4], 17), "lengths end at"),
        (
            "cell-count guard",
            forged_frame(V, (1 << 32, 1 << 16), 2, Some((1 << 31, 1 << 16)), &[8; 2], 16),
            "plausible yield",
        ),
        (
            "cell count overflows",
            forged_frame(V, (1 << 33, 1 << 33), 9, Some((u32::MAX, u32::MAX)), &[8; 9], 72),
            "cell count overflows",
        ),
        ("unknown bit 0x80", forged_frame(V | 0x80, (8, 8), 4, t, &[4; 4], 16), "byte 0xe1"),
        ("unknown bit 0x10", forged_frame(V | 0x10, (8, 8), 4, t, &[4; 4], 16), "byte 0x71"),
        ("version 2", forged_frame(0x62, (8, 8), 4, t, &[4; 4], 16), "byte 0x62"),
        (
            "the retired frame without digests",
            forged_frame(0x21, (8, 8), 4, t, &[4; 4], 16),
            "byte 0x21",
        ),
        (
            "v1 row bands are refused by version",
            forged_frame(0x01, (8, 8), 2, None, &[8, 8], 16),
            "byte 0x01",
        ),
    ];

    let sz = SzCompressor::default();
    let mut scratch = FrameScratch::new();
    let mut out = Field2D::zeros(1, 1);
    for (what, bytes, names) in &forgeries {
        assert!(bytes.len() >= FrameIndex::PREFIX_LEN, "{what}: the forgery must reach the parser");
        assert_eq!(bytes[..4], FRAME_MAGIC, "{what}: the forgery must reach the frame parser");
        let (result, largest) = alloc_probe::largest_request_during(|| {
            decompress_framed_with(&sz, bytes, pool(1), &mut scratch, &mut out)
        });
        assert!(refused(&result, names), "{what}: {result:?}");
        assert!(
            largest <= 4 * bytes.len() + 256,
            "{what}: a {}-byte stream made the decoder request {largest} bytes",
            bytes.len()
        );
        let (parsed, largest) =
            alloc_probe::largest_request_during(|| FrameIndex::parse(bytes, bytes.len()));
        assert!(refused(&parsed, names), "{what}: {parsed:?}");
        assert!(largest <= 4 * bytes.len() + 256, "{what}: parse requested {largest} bytes");
    }

    // One tile is a frame like any other: the forgery parses, and its
    // zeroed digest refuses the block before the codec sees its bytes. A
    // genuine one-tile frame warms the scratch first, so the probe sees only
    // what the forgery asks for.
    let one_tile = forged_frame(V, (4, 4), 1, t, &[16], 16);
    let small = wavy(4, 4, 3);
    let bound = ErrorBound::Absolute(1e-3);
    let genuine =
        compress_framed_with(&sz, &small.view(), bound, 1, pool(1), &mut scratch).unwrap();
    decompress_framed_with(&sz, &genuine, pool(1), &mut scratch, &mut out).unwrap();
    assert!(small.max_abs_diff(&out) <= 1e-3);
    let (parsed, largest) =
        alloc_probe::largest_request_during(|| FrameIndex::parse(&one_tile, one_tile.len()));
    assert_eq!(parsed.map(|index| (index.n_blocks(), index.block_span(0))), Ok((1, (49, 16))));
    assert!(largest <= 4 * one_tile.len() + 256, "one tile: parse requested {largest} bytes");
    let (result, largest) = alloc_probe::largest_request_during(|| {
        decompress_framed_with(&sz, &one_tile, pool(1), &mut scratch, &mut out)
    });
    assert!(refused(&result, "block 0 checksum mismatch"), "one tile: {result:?}");
    assert!(largest <= 4 * one_tile.len() + 256, "one tile: decode requested {largest} bytes");

    // A stream cut inside the header is no frame: the frame decoder refuses
    // it, and so does the index parse.
    let cut = forged_frame(V, (8, 8), 4, None, &[], 4);
    assert!(refused(&decompress_framed(&sz, &cut, pool(1)), "header truncated"));
    assert!(refused(&FrameIndex::parse(&cut, cut.len()), "truncated"));

    // Control: the same builder, given true lengths and digests, makes
    // frames that parse and decode.
    let field = wavy(8, 8, 3);
    let bound = ErrorBound::Absolute(1e-3);
    let streams: Vec<Vec<u8>> = (0..2)
        .map(|b| sz.compress_view(&field.view().subview(4 * b, 0, 4, 8), bound).unwrap())
        .collect();
    let lengths: Vec<u64> = streams.iter().map(|s| s.len() as u64).collect();
    let mut good = forged_frame(V, (8, 8), 2, Some((4, 8)), &lengths, 0);
    good.truncate(good.len() - 16);
    for stream in &streams {
        good.extend_from_slice(&xxh64(stream, 0).to_le_bytes());
    }
    good.extend(streams.concat());
    let decoded = decompress_framed(&sz, &good, pool(1)).unwrap();
    assert!(field.max_abs_diff(&decoded) <= 1e-3);
}
