//! Framed multi-block container: property tests over the real compressors.
//!
//! The frame module's own unit tests pin the container logic against a
//! store-everything codec; this suite drives the actual SZ/ZFP/MGARD
//! pipelines through it:
//!
//! * framed round-trips across block counts 1..=8, including non-divisible
//!   row tails and 1×N / N×1 degenerate fields, always hold the error bound,
//!   and `blocks` always means full-width tiles of `ny.div_ceil(blocks)` rows,
//! * a single-block frame is byte-identical to the unframed stream
//!   (version-0 passthrough),
//! * a multi-block frame decodes to exactly the values obtained by
//!   decoding each block's stand-alone stream and stitching the rows,
//! * the scratch-threaded `decompress_view_with` path is bit-identical to
//!   `decompress_field` under heavy arena reuse,
//! * corrupt frames (bad version, truncated table, overflowing/overlapping
//!   lengths) error out instead of panicking for every compressor,
//! * the general `compress_frame` form agrees with the pinned plain entry
//!   points over both tile shapes they write × checksum,
//! * every header forgery of either layout (v1 row bands, decode-only, and
//!   v2 tiles) is refused by class without an allocation sized by what the
//!   header claims.

use lcc::grid::Field2D;
use lcc::mgard::MgardCompressor;
use lcc::par::ThreadPoolConfig;
use lcc::pressio::frame::{
    compress_frame, compress_framed_with, compress_tiled_with, decompress_framed_with, is_framed,
};
use lcc::pressio::{
    CompressError, Compressor, ErrorBound, FrameIndex, FrameScratch, ScratchArena, FLAG_CHECKSUM,
    FLAG_TILED, FRAME_MAGIC, FRAME_VERSION,
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

/// Decode a (framed or raw) stream with fresh scratch into an owned field.
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
        assert_eq!(framed, raw, "{}: single-block passthrough", comp.name());
        assert!(!is_framed(&framed), "{}", comp.name());
        // And the framed decoder transparently decodes legacy raw streams.
        let back = decompress_framed(comp.as_ref(), &raw, pool(3)).unwrap();
        assert_eq!(back, comp.decompress_field(&raw).unwrap(), "{}", comp.name());
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
            assert_eq!(is_framed(&stream), blocks > 1, "{} blocks={blocks}", comp.name());
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
        // 1×N: the block count clamps to one row → passthrough.
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
        assert!(is_framed(&good));
        // The length table sits right before the first block's bytes.
        let index = FrameIndex::parse(&good, good.len()).unwrap();
        let table = index.block_span(0).0 - 8 * index.n_blocks();
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
        let mut forged = Vec::new();
        forged.extend_from_slice(&FRAME_MAGIC);
        forged.push(FRAME_VERSION);
        forged.extend_from_slice(&512u64.to_le_bytes());
        forged.extend_from_slice(&512u64.to_le_bytes());
        forged.extend_from_slice(&500u32.to_le_bytes());
        forged.extend_from_slice(&[0u8; 16]);
        assert!(
            matches!(decode(&forged), Err(CompressError::CorruptStream(_))),
            "{}: truncated table",
            comp.name()
        );

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
        // checks up to the allocation guard pass (2 blocks <= 2^40 rows,
        // table fits, lengths sum to the empty body), but the claimed cell
        // count must be rejected before `out` is resized to exabytes.
        let mut forged = Vec::new();
        forged.extend_from_slice(&FRAME_MAGIC);
        forged.push(FRAME_VERSION);
        forged.extend_from_slice(&(1u64 << 40).to_le_bytes());
        forged.extend_from_slice(&(1u64 << 16).to_le_bytes());
        forged.extend_from_slice(&2u32.to_le_bytes());
        forged.extend_from_slice(&0u64.to_le_bytes());
        forged.extend_from_slice(&0u64.to_le_bytes());
        assert!(
            matches!(decode(&forged), Err(CompressError::CorruptStream(_))),
            "{}: forged giant shape",
            comp.name()
        );

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
            prop_assert_eq!(is_framed(&stream), rows < ny);
            if is_framed(&stream) {
                prop_assert!(stream[4] & FLAG_TILED != 0, "{}: not a tiled frame", comp.name());
                let index = FrameIndex::parse(&stream, stream.len()).unwrap();
                let n_blocks = index.n_blocks();
                prop_assert!(n_blocks <= blocks, "{n_blocks} tiles for {blocks} blocks");
                for b in 0..n_blocks {
                    let w = index.block_window(b);
                    prop_assert_eq!((w.i0, w.j0, w.width), (b * rows, 0, nx));
                    prop_assert!(w.height == rows || b + 1 == n_blocks, "tile {b}: {w:?}");
                }
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
        let plain_index = FrameIndex::parse(&pinned, pinned.len()).unwrap();
        assert_eq!(plain_index.tile, Some(tile));
        let n_blocks = plain_index.n_blocks();
        let pinned_decode = decompress_framed(&sz, &pinned, pool(2)).unwrap();
        assert!(field.max_abs_diff(&pinned_decode) <= eb);

        for checksum in [false, true] {
            let what = format!("{tile:?} checksum={checksum}");
            // One worker against the pinned name's two: the bytes depend on
            // neither the pool nor the hook.
            let (frame, cells) =
                compress_frame(&sz, &view, bound, tile, checksum, pool(1), scratch, |b| b.len())
                    .unwrap();
            let windows = (0..n_blocks).map(|b| plain_index.block_window(b));
            let want: Vec<usize> = windows.map(|w| w.height * w.width).collect();
            assert_eq!(cells, want, "{what}: one hook result a block, in block order");
            if checksum {
                assert_eq!(frame[4], FRAME_VERSION | FLAG_TILED | FLAG_CHECKSUM, "{what}");
                // The digest table is strictly additive.
                let index = FrameIndex::parse(&frame, frame.len()).unwrap();
                let (at, plain_at) = (index.block_span(0).0, plain_index.block_span(0).0);
                assert_eq!(at, plain_at + 8 * n_blocks, "{what}");
                assert_eq!(frame[5..plain_at], pinned[5..plain_at], "{what}");
                assert_eq!(frame[at..], pinned[plain_at..], "{what}: block bytes");
            } else {
                assert_eq!(frame, pinned, "{what}: drifted from the pinned name");
            }
            assert_eq!(decompress_framed(&sz, &frame, pool(2)).unwrap(), pinned_decode, "{what}");

            // One flipped body byte: a checksummed frame names the block, an
            // unchecksummed one still never panics.
            let index = FrameIndex::parse(&frame, frame.len()).unwrap();
            for b in [0, n_blocks / 2, n_blocks - 1] {
                let (at, len) = index.block_span(b);
                let mut bad = frame.clone();
                bad[at + len / 2] ^= 0x20;
                let result = decompress_framed(&sz, &bad, pool(2));
                if checksum {
                    let want = format!("frame: block {b} checksum mismatch");
                    assert_eq!(result, Err(CompressError::CorruptStream(want)), "{what}");
                } else if let Ok(decoded) = result {
                    assert_eq!(decoded.shape(), field.shape());
                }
            }
        }
    }
}

#[path = "common/alloc_probe.rs"]
mod alloc_probe;

#[global_allocator]
static ALLOC: alloc_probe::Probe = alloc_probe::Probe;

/// A frame header of either layout (`tile` present: v2) with `flags` OR-ed
/// into the version byte, followed by `lengths` and `body` zero bytes.
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
    bytes.resize(bytes.len() + body, 0);
    bytes
}

#[test]
fn forged_headers_of_either_layout_are_refused_without_reserving() {
    const V1: u8 = FRAME_VERSION;
    const V2: u8 = FRAME_VERSION | FLAG_TILED;
    let t = Some((4u32, 4u32));
    let forgeries: Vec<(&str, Vec<u8>)> = vec![
        // Row bands (v1).
        ("v1: zero blocks", forged_frame(V1, (8, 8), 0, None, &[], 16)),
        ("v1: one block", forged_frame(V1, (8, 8), 1, None, &[16], 16)),
        ("v1: more blocks than rows", forged_frame(V1, (2, 8), 3, None, &[4, 4, 4], 12)),
        ("v1: table past the end", forged_frame(V1, (1000, 8), 200, None, &[0, 0], 0)),
        ("v1: length overflows", forged_frame(V1, (8, 8), 2, None, &[u64::MAX, 8], 16)),
        ("v1: lengths fall short", forged_frame(V1, (8, 8), 2, None, &[4, 4], 9)),
        ("v1: lengths run over", forged_frame(V1, (8, 8), 2, None, &[8, 8], 9)),
        ("v1: cell-count guard", forged_frame(V1, (1 << 40, 1 << 16), 2, None, &[0, 0], 0)),
        ("v1: cell count overflows", forged_frame(V1, (1 << 62, 1 << 62), 2, None, &[8, 8], 16)),
        ("v1: empty shape", forged_frame(V1, (0, 8), 2, None, &[8, 8], 16)),
        ("v1: unknown flag bit 0x80", forged_frame(V1 | 0x80, (8, 8), 2, None, &[8, 8], 16)),
        ("v1: unknown flag bit 0x10", forged_frame(V1 | 0x10, (8, 8), 2, None, &[8, 8], 16)),
        ("v1: version 2", forged_frame(2, (8, 8), 2, None, &[8, 8], 16)),
        (
            "v1 checksummed: digest table past the end",
            forged_frame(V1 | FLAG_CHECKSUM, (8, 8), 2, None, &[8, 8], 8),
        ),
        // Tiles (v2).
        ("v2: zero tiles", forged_frame(V2, (8, 8), 0, t, &[], 16)),
        ("v2: one tile", forged_frame(V2, (4, 4), 1, t, &[16], 16)),
        ("v2: count is not the cover", forged_frame(V2, (8, 8), 3, t, &[4, 4, 4], 12)),
        ("v2: zero tile height", forged_frame(V2, (8, 8), 4, Some((0, 4)), &[4; 4], 16)),
        ("v2: tile wider than the field", forged_frame(V2, (8, 8), 2, Some((4, 9)), &[8, 8], 16)),
        ("v2: table past the end", forged_frame(V2, (1000, 1000), 62_500, t, &[0, 0], 0)),
        ("v2: header cut short", forged_frame(V2, (8, 8), 4, None, &[], 4)),
        ("v2: length overflows", forged_frame(V2, (8, 8), 4, t, &[u64::MAX, 8, 8, 8], 32)),
        ("v2: lengths fall short", forged_frame(V2, (8, 8), 4, t, &[4; 4], 17)),
        (
            "v2: cell-count guard",
            forged_frame(V2, (1 << 32, 1 << 32), 4, Some((1 << 31, 1 << 31)), &[8; 4], 32),
        ),
        ("v2: unknown flag bit 0x80", forged_frame(V2 | 0x80, (8, 8), 4, t, &[4; 4], 16)),
    ];

    let sz = SzCompressor::default();
    let mut scratch = FrameScratch::new();
    let mut out = Field2D::zeros(1, 1);
    for (what, bytes) in &forgeries {
        assert!(is_framed(bytes), "{what}: the forgery must reach the frame parser");
        let (result, largest) = alloc_probe::largest_request_during(|| {
            decompress_framed_with(&sz, bytes, pool(1), &mut scratch, &mut out)
        });
        assert!(matches!(result, Err(CompressError::CorruptStream(_))), "{what}: {result:?}");
        assert!(
            largest <= 4 * bytes.len() + 256,
            "{what}: a {}-byte stream made the decoder request {largest} bytes",
            bytes.len()
        );
        let (parsed, largest) =
            alloc_probe::largest_request_during(|| FrameIndex::parse(bytes, bytes.len()));
        assert!(matches!(parsed, Err(CompressError::CorruptStream(_))), "{what}: {parsed:?}");
        assert!(largest <= 4 * bytes.len() + 256, "{what}: parse requested {largest} bytes");
    }

    // Control: the same builder, given true lengths, makes frames that parse.
    let field = wavy(8, 8, 3);
    let bound = ErrorBound::Absolute(1e-3);
    let streams: Vec<Vec<u8>> = (0..2)
        .map(|b| sz.compress_view(&field.view().subview(4 * b, 0, 4, 8), bound).unwrap())
        .collect();
    let lengths: Vec<u64> = streams.iter().map(|s| s.len() as u64).collect();
    let mut good = forged_frame(V1, (8, 8), 2, None, &lengths, 0);
    good.extend(streams.concat());
    let decoded = decompress_framed(&sz, &good, pool(1)).unwrap();
    assert!(field.max_abs_diff(&decoded) <= 1e-3);
}
