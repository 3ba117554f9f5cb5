//! Block-parallel framed multi-block container (`LCCF`).
//!
//! A single field normally compresses as one sequential stream, so the
//! latency of serving one compressibility estimate is bound to one core.
//! This module cuts a [`FieldView`] into independent `tile_ny × tile_nx`
//! **tiles** (the frame's blocks), encodes/decodes each on its own worker (a
//! [`lcc_par`] scoped block map with one persistent [`ScratchArena`] per
//! worker), and concatenates the per-tile streams under a small versioned
//! header, the same trick production SZ3/ZFP builds use to scale a single
//! field across cores.
//!
//! Every operation has one pinned plain entry point
//! ([`compress_framed_with`], [`compress_tiled_with`],
//! [`decompress_framed_with`]). Encoding has one general form,
//! [`compress_frame`], which takes the tile shape, a checksum switch and a
//! per-block hook; the plain encoders are one-line calls into it, and
//! `compress_framed_with`'s `blocks` are full-width tiles of
//! `ny.div_ceil(blocks)` rows. Decoding has one block step,
//! [`FrameIndex::decode_block`], shared by the frame decoder and the
//! archive's region reader.
//!
//! Because each block is compressed as an independent field, a frame's
//! decoded values equal decoding each block's stream on its own and
//! stitching the windows — but not the single-stream encoding of the whole
//! field (predictors do not see across block seams). The error bound still
//! holds point-wise: it is enforced per block. A tile shape that covers the
//! field in **one block** is, by definition, the inner compressor's raw
//! stream with no header at all, byte-identical to
//! [`Compressor::compress_view`]; that passthrough carries no digest,
//! whatever `checksum` says.
//!
//! ## Tiled frames (format version 2, flag bit `0x20`)
//!
//! Blocks are `tile_ny × tile_nx` rectangles covering the field in
//! row-major tile order (exactly [`lcc_grid::WindowIter::over`]'s tiling,
//! edge tiles clipped):
//!
//! ```text
//! offset  size        field
//! 0       4           magic  b"LCCF"
//! 4       1           version byte: 1 | FLAG_TILED (0x20), optionally
//!                     | FLAG_CHECKSUM (0x40)
//! 5       8           ny  (u64 LE, total rows)
//! 13      8           nx  (u64 LE, columns)
//! 21      4           n_blocks (u32 LE, == tiles_y * tiles_x, >= 2)
//! 25      4           tile_ny (u32 LE)
//! 29      4           tile_nx (u32 LE)
//! 33      8*n_blocks  per-tile compressed byte length (u64 LE each)
//! …       8*n_blocks  per-tile XXH64 digest — only with FLAG_CHECKSUM
//! …       …           the n_blocks tile streams, concatenated
//! ```
//!
//! Because block order is fixed, the length table doubles as a **seek
//! index**: prefix-summing it locates any block's bytes without touching
//! the rest of the stream. [`FrameIndex`] is that index, which is what
//! archive-style region readers use to decode only the tiles overlapping a
//! query window.
//!
//! ## Row-band frames (format version 1, decode-only)
//!
//! No encoder writes them any more; every committed one decodes forever.
//! The header is the tiled one without the flag bit and the tile shape:
//!
//! ```text
//! offset  size        field
//! 0       4           magic  b"LCCF"
//! 4       1           version byte: 1, OR-ed with FLAG_CHECKSUM (0x40)
//! 5       8           ny  (u64 LE, total rows)
//! 13      8           nx  (u64 LE, columns)
//! 21      4           n_blocks (u32 LE, 2 ..= ny)
//! 25      8*n_blocks  per-block compressed byte length (u64 LE each)
//! …       8*n_blocks  per-block XXH64 digest (u64 LE each) — only with
//!                     FLAG_CHECKSUM
//! …       …           the n_blocks compressed streams, concatenated
//! ```
//!
//! Block `b` is the `b`-th of `n_blocks` contiguous full-width row bands
//! whose heights differ by at most one, the taller ones first (10 rows in 4
//! bands are 3, 3, 2, 2) — not the uniform tiles of v2.
//!
//! ## Encoding
//!
//! The encoder does not wait for every block before assembling the frame:
//! it reserves the header and zeroed length (and digest) tables up front,
//! and each block's worker appends the block's bytes, backfilling its table
//! slots, the moment all earlier blocks have landed — later blocks are still
//! encoding while early ones are copied into place. The produced bytes are
//! those of a barrier-then-concatenate assembly and do not depend on the
//! pool's width. With `checksum` each block's compressed bytes are hashed
//! ([`lcc_lossless::xxh64`], seed 0) on the worker that encoded them.
//!
//! ## Decoding
//!
//! [`decompress_framed_with`] dispatches on the magic: no `LCCF` prefix
//! means the stream is the inner compressor's own (the one-block
//! passthrough, and every stream written before this container existed).
//! No inner stream opens with `LCCF`. The `sz*` / `mgard*` codes containers
//! (`crate::codes`) open either with their rANS magic (`LS81` / `LM81`),
//! whose second byte is never `b'C'`, or with LZ77 output under their
//! Huffman magic (`LSZ1` / `LMG1`): a decoded-length varint which, where it
//! is the single byte `b'L'`, is followed by a token tag `0x00` or `0x01`,
//! never `b'C'`. ZFP streams open with container tag 0 or 1, never `b'L'`.
//!
//! A framed stream of either version goes through one parser,
//! [`FrameIndex::parse`], which refuses — before anything sized by a header
//! claim is allocated — an unknown version or flag bit, a block count below
//! two, above the row count (v1) or different from the tile cover (v2), a
//! table that does not fit the stream, block lengths that overflow or do
//! not sum exactly to the body, and a cell count implausible for the body's
//! bytes. Then every block goes through [`FrameIndex::decode_block`] on a
//! worker: its digest, when the frame carries one, is verified *before* the
//! inner decoder touches the bytes (so bit corruption is a
//! [`CompressError::CorruptStream`] naming the block, never a garbled
//! entropy-decode failure or a silently wrong field), and the decoded shape
//! is checked against the block's window; the rows are then copied into the
//! block's disjoint segments of the output.

use crate::{CompressError, Compressor, ErrorBound, ScratchArena};
use lcc_grid::{disjoint_window_rows, Field2D, FieldView, Window, WindowIter};
use lcc_lossless::xxh64;
use lcc_par::{try_parallel_block_map, JobPanicked, ThreadPoolConfig};
use std::ops::Range;
use std::sync::Mutex;

/// A panicking block job, isolated per job by `lcc_par`, surfaces as an
/// internal error instead of aborting the process.
fn job_panic(err: JobPanicked) -> CompressError {
    CompressError::Internal(format!("frame: {err}"))
}

fn corrupt(msg: &str) -> CompressError {
    CompressError::CorruptStream(format!("frame: {msg}"))
}

/// Magic prefix of a multi-block frame.
pub const FRAME_MAGIC: [u8; 4] = *b"LCCF";
/// Current frame-format version byte.
pub const FRAME_VERSION: u8 = 1;
/// Version-byte flag bit: the length table is followed by a per-block
/// XXH64 digest table, verified before each block decodes.
pub const FLAG_CHECKSUM: u8 = 0x40;
/// Version-byte flag bit: blocks are 2D `tile_ny × tile_nx` tiles in
/// row-major tile order (frame format v2) and the header carries the tile
/// shape. Every frame the encoder writes carries it.
pub const FLAG_TILED: u8 = 0x20;

/// Fixed header bytes of a row-band (v1) frame.
const HEADER_LEN: usize = 4 + 1 + 8 + 8 + 4;
/// Fixed header bytes of a tiled (v2) frame: the v1 header plus tile dims.
const TILED_HEADER_LEN: usize = HEADER_LEN + 4 + 4;
/// Decode-side allocation guard: the most cells a frame header may claim
/// per payload byte. Real streams sit orders of magnitude below this (a
/// constant paper-scale field compresses to roughly 700 cells/byte), so the
/// cap only trips on forged headers trying to turn a tiny stream into a
/// huge `out` allocation.
const MAX_CELLS_PER_STREAM_BYTE: usize = 1 << 16;

/// Rows of band `part` of a `parts`-band (v1) frame over `total` rows:
/// contiguous ranges whose lengths differ by at most one, the longer ones
/// first.
fn split_range(total: usize, parts: usize, part: usize) -> Range<usize> {
    let (base, extra) = (total / parts, total % parts);
    let start = part * base + part.min(extra);
    start..start + base + usize::from(part < extra)
}

/// Per-worker state of the framed codec, persistent across calls: one
/// scratch arena (the inner compressor's buffers) plus one reusable decode
/// field per worker. Hold one `FrameScratch` per serving thread and every
/// framed compress/decompress through it is allocation-free in steady state
/// apart from the output stream/field themselves.
#[derive(Debug, Default)]
pub struct FrameScratch {
    workers: Vec<FrameWorker>,
    /// Length of the last multi-block frame encoded through this scratch:
    /// the capacity the next one starts with, so a frame is not grown by
    /// doubling from its header.
    frame_len: usize,
}

/// One worker's persistent state: the inner compressor's scratch arena plus
/// a reusable per-block decode field. Public so external block-parallel
/// consumers (the archive's region reader) can drive the same per-worker
/// reuse discipline the framed codec uses.
#[derive(Debug, Default)]
pub struct FrameWorker {
    /// The inner compressor's reusable buffers.
    pub arena: ScratchArena,
    /// Reusable per-block decode target (lazy: `Field2D` has no empty value).
    pub block: Option<Field2D>,
}

impl FrameScratch {
    /// Create an empty scratch; per-worker states materialize on first use.
    pub fn new() -> Self {
        FrameScratch::default()
    }

    /// The first `n` worker states, growing the pool if needed.
    pub fn workers(&mut self, n: usize) -> &mut [FrameWorker] {
        if self.workers.len() < n {
            self.workers.resize_with(n, FrameWorker::default);
        }
        &mut self.workers[..n]
    }
}

/// True when `stream` carries a multi-block frame header (as opposed to a
/// raw single stream of an inner compressor).
pub fn is_framed(stream: &[u8]) -> bool {
    stream.len() >= HEADER_LEN && stream[..4] == FRAME_MAGIC
}

/// Compress a view as a frame of at most `blocks` full-width tiles, each
/// `ny.div_ceil(blocks)` rows high but the last, encoded in parallel over
/// `pool` with per-worker arenas from `scratch`: [`compress_tiled_with`]
/// with that tile shape.
pub fn compress_framed_with(
    compressor: &dyn Compressor,
    view: &FieldView<'_>,
    bound: ErrorBound,
    blocks: usize,
    pool: ThreadPoolConfig,
    scratch: &mut FrameScratch,
) -> Result<Vec<u8>, CompressError> {
    let (ny, nx) = view.shape();
    let rows = ny.div_ceil(blocks.clamp(1, ny));
    compress_tiled_with(compressor, view, bound, rows, nx, pool, scratch)
}

/// Compress a view as a frame of `tile_ny × tile_nx` tiles, whose length
/// table doubles as a seek index over the tiles: [`compress_frame`] without
/// digests or a per-block hook.
pub fn compress_tiled_with(
    compressor: &dyn Compressor,
    view: &FieldView<'_>,
    bound: ErrorBound,
    tile_ny: usize,
    tile_nx: usize,
    pool: ThreadPoolConfig,
    scratch: &mut FrameScratch,
) -> Result<Vec<u8>, CompressError> {
    compress_frame(compressor, view, bound, (tile_ny, tile_nx), false, pool, scratch, |_| ())
        .map(|(frame, _)| frame)
}

/// Compress a view as a frame of `tile_ny × tile_nx` tiles (each dimension
/// clamped to the field's; zero is [`CompressError::InvalidInput`]),
/// encoded in parallel over `pool` with per-worker arenas from `scratch` —
/// the general encoder behind [`compress_framed_with`] and
/// [`compress_tiled_with`]. With `checksum` the frame carries a per-tile
/// XXH64 digest table (the version byte gains [`FLAG_CHECKSUM`]), so a
/// decoder refuses a damaged tile before decoding it. The produced stream
/// is independent of the pool width; a tile shape that covers the field in
/// one tile emits the inner compressor's raw stream, byte-identical to
/// [`Compressor::compress_view`], with no header and no digest.
///
/// `per_block` is handed every block's view inside that block's job, on the
/// worker that has just encoded it, and its results come back in block
/// order beside the frame: the hook by which an archive computes per-tile
/// metadata while the tile is still in that core's cache, instead of in a
/// later pass over the field. A panic in it is caught like one in the
/// encoder and fails the frame with [`CompressError::Internal`]; a one-tile
/// frame calls it once, on the calling thread, with the whole view.
#[allow(clippy::too_many_arguments)]
pub fn compress_frame<R: Send>(
    compressor: &dyn Compressor,
    view: &FieldView<'_>,
    bound: ErrorBound,
    (tile_ny, tile_nx): (usize, usize),
    checksum: bool,
    pool: ThreadPoolConfig,
    scratch: &mut FrameScratch,
    per_block: impl Fn(&FieldView<'_>) -> R + Sync,
) -> Result<(Vec<u8>, Vec<R>), CompressError> {
    if tile_ny == 0 || tile_nx == 0 {
        return Err(CompressError::InvalidInput("tile dimensions must be non-zero".into()));
    }
    let (ny, nx) = view.shape();
    let (tile_ny, tile_nx) = (tile_ny.min(ny), tile_nx.min(nx));
    let n_blocks = ny.div_ceil(tile_ny) * nx.div_ceil(tile_nx);
    if n_blocks == 1 {
        let stream =
            compressor.compress_view_with(view, bound, &mut scratch.workers(1)[0].arena)?;
        return Ok((stream, vec![per_block(view)]));
    }
    let sub_views: Vec<FieldView<'_>> =
        WindowIter::over(ny, nx, tile_ny, tile_nx).map(|w| view.window(&w)).collect();
    debug_assert_eq!(sub_views.len(), n_blocks);

    // The fixed header, then zeroed length (and digest) tables to backfill,
    // in a buffer with room for a frame as long as the last one.
    let flags = FLAG_TILED | if checksum { FLAG_CHECKSUM } else { 0 };
    let mut out = Vec::with_capacity(TILED_HEADER_LEN.max(scratch.frame_len));
    out.extend_from_slice(&FRAME_MAGIC);
    out.push(FRAME_VERSION | flags);
    out.extend_from_slice(&(ny as u64).to_le_bytes());
    out.extend_from_slice(&(nx as u64).to_le_bytes());
    out.extend_from_slice(&(n_blocks as u32).to_le_bytes());
    out.extend_from_slice(&(tile_ny as u32).to_le_bytes());
    out.extend_from_slice(&(tile_nx as u32).to_le_bytes());
    out.resize(TILED_HEADER_LEN + if checksum { 16 } else { 8 } * n_blocks, 0);
    let assembler = Mutex::new(FrameAssembler {
        out,
        next: 0,
        pending: (0..n_blocks).map(|_| None).collect(),
        error: None,
        hash_table_at: checksum.then_some(TILED_HEADER_LEN + 8 * n_blocks),
    });

    let workers = scratch.workers(pool.threads().min(n_blocks));
    let results = try_parallel_block_map(pool, workers, sub_views, |worker, b, sub| {
        // The digest is computed here, on the encoding worker, so hashing
        // of one block overlaps with encoding of the others.
        let result = compressor.compress_view_with(&sub, bound, &mut worker.arena).map(|stream| {
            let digest = checksum.then(|| xxh64(&stream, 0));
            (stream, digest)
        });
        let encoded = result.is_ok();
        assembler.lock().unwrap_or_else(|poisoned| poisoned.into_inner()).submit(b, result);
        encoded.then(|| per_block(&sub))
    })
    .map_err(job_panic)?;

    let assembler = assembler.into_inner().unwrap_or_else(|poisoned| poisoned.into_inner());
    match assembler.error {
        Some(error) => Err(error),
        None => {
            debug_assert_eq!(assembler.next, n_blocks, "every block was appended");
            scratch.frame_len = assembler.out.len();
            let results = results.into_iter().map(|r| r.expect("every block encoded")).collect();
            Ok((assembler.out, results))
        }
    }
}

/// In-order assembly state of a multi-block frame under construction: the
/// output already holds the header and the reserved (zeroed) tables; blocks
/// arriving out of order park in `pending` until their turn.
struct FrameAssembler {
    out: Vec<u8>,
    /// Next block index to append.
    next: usize,
    /// Encoded streams (and optional digests) of blocks that finished
    /// before their predecessors.
    pending: Vec<Option<(Vec<u8>, Option<u64>)>>,
    /// First compression error observed (the frame is abandoned).
    error: Option<CompressError>,
    /// Byte offset of the reserved digest table, when checksumming.
    hash_table_at: Option<usize>,
}

impl FrameAssembler {
    /// Record one block's encode result: append it (and any unblocked
    /// successors) to the stream, backfilling the reserved table slots.
    fn submit(&mut self, block: usize, result: Result<(Vec<u8>, Option<u64>), CompressError>) {
        match result {
            Err(error) => {
                if self.error.is_none() {
                    self.error = Some(error);
                }
            }
            Ok(entry) => {
                self.pending[block] = Some(entry);
                while let Some((stream, digest)) =
                    self.pending.get_mut(self.next).and_then(Option::take)
                {
                    let slot = TILED_HEADER_LEN + 8 * self.next;
                    self.out[slot..slot + 8].copy_from_slice(&(stream.len() as u64).to_le_bytes());
                    if let (Some(base), Some(digest)) = (self.hash_table_at, digest) {
                        let slot = base + 8 * self.next;
                        self.out[slot..slot + 8].copy_from_slice(&digest.to_le_bytes());
                    }
                    self.out.extend_from_slice(&stream);
                    self.next += 1;
                }
            }
        }
    }
}

/// Parsed header + seek index of a frame of either version: everything a
/// reader needs to locate one block's compressed bytes, the window of the
/// field it decodes to, and to decode it, without touching the rest of the
/// stream. Parsing consumes only the frame's leading bytes — read
/// [`FrameIndex::PREFIX_LEN`] bytes, size the rest with
/// [`FrameIndex::table_span`], then hand that prefix to
/// [`FrameIndex::parse`] — so an archive can index a multi-megabyte entry
/// from a few kilobytes of it.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameIndex {
    /// Field rows.
    pub ny: usize,
    /// Field columns.
    pub nx: usize,
    /// Tile height and width of a tiled (v2) frame, edge tiles clipped;
    /// `None` for a row-band (v1) frame.
    pub tile: Option<(usize, usize)>,
    /// Byte offset of every block within the frame, then the frame's length.
    offsets: Vec<usize>,
    /// Per-block XXH64 digest of a checksummed frame.
    digests: Option<Vec<u64>>,
}

impl FrameIndex {
    /// Bytes of a frame a reader must fetch before
    /// [`table_span`](Self::table_span) can size the rest of the prefix.
    pub const PREFIX_LEN: usize = TILED_HEADER_LEN;

    /// Total header + table span (in bytes) of the frame whose first
    /// [`PREFIX_LEN`](Self::PREFIX_LEN) bytes are `prefix` (a row-band
    /// frame needs only its 25), validated against the total frame length so
    /// a forged block count cannot demand more bytes than the frame holds.
    pub fn table_span(prefix: &[u8], frame_len: usize) -> Result<usize, CompressError> {
        if !is_framed(prefix) {
            return Err(corrupt("header truncated or missing magic"));
        }
        // The version byte carries flag bits above the version number; mask
        // the known flags off before comparing, so plain v1 streams keep
        // decoding whatever flags later encoders add to *new* streams.
        if prefix[4] & !(FLAG_CHECKSUM | FLAG_TILED) != FRAME_VERSION {
            return Err(corrupt(&format!("unsupported version byte {:#04x}", prefix[4])));
        }
        let fixed = if prefix[4] & FLAG_TILED != 0 { TILED_HEADER_LEN } else { HEADER_LEN };
        let per_block = if prefix[4] & FLAG_CHECKSUM != 0 { 16 } else { 8 };
        let n_blocks = u32::from_le_bytes(prefix[21..25].try_into().unwrap()) as usize;
        n_blocks
            .checked_mul(per_block)
            .and_then(|t| t.checked_add(fixed))
            .filter(|&t| t <= frame_len)
            .ok_or_else(|| corrupt(&format!("block table for {n_blocks} blocks exceeds stream")))
    }

    /// Parse the index from a frame's leading bytes. `prefix` must hold at
    /// least [`table_span`](Self::table_span) bytes (the whole stream also
    /// works); `frame_len` is the total frame size the block lengths must
    /// sum to. Every claim is validated before anything sized by it is
    /// allocated, so a forged header costs at most one bounded table read.
    pub fn parse(prefix: &[u8], frame_len: usize) -> Result<FrameIndex, CompressError> {
        let span = Self::table_span(prefix, frame_len)?;
        if prefix.len() < span {
            return Err(corrupt("block table truncated"));
        }
        let ny = usize::try_from(u64::from_le_bytes(prefix[5..13].try_into().unwrap()))
            .map_err(|_| corrupt("row count overflows usize"))?;
        let nx = usize::try_from(u64::from_le_bytes(prefix[13..21].try_into().unwrap()))
            .map_err(|_| corrupt("column count overflows usize"))?;
        let n_blocks = u32::from_le_bytes(prefix[21..25].try_into().unwrap()) as usize;
        if ny == 0 || nx == 0 {
            return Err(corrupt("empty field shape"));
        }
        // No encoder writes a one-block frame (that is the raw passthrough
        // stream), and every frame holds exactly one block per band or per
        // tile of the cover, so any other count is corrupt by construction.
        let (tile, table_at) = if prefix[4] & FLAG_TILED == 0 {
            if n_blocks < 2 || n_blocks > ny {
                return Err(corrupt(&format!("block count {n_blocks} invalid for {ny} rows")));
            }
            (None, HEADER_LEN)
        } else {
            let tile_ny = u32::from_le_bytes(prefix[25..29].try_into().unwrap()) as usize;
            let tile_nx = u32::from_le_bytes(prefix[29..33].try_into().unwrap()) as usize;
            if tile_ny == 0 || tile_nx == 0 || tile_ny > ny || tile_nx > nx {
                return Err(corrupt(&format!(
                    "tile shape {tile_ny}x{tile_nx} invalid for a {ny}x{nx} field"
                )));
            }
            let tiles = ny
                .div_ceil(tile_ny)
                .checked_mul(nx.div_ceil(tile_nx))
                .ok_or_else(|| corrupt("tile count overflows usize"))?;
            if n_blocks != tiles || n_blocks < 2 {
                return Err(corrupt(&format!(
                    "tile count {n_blocks} does not cover a {ny}x{nx} field \
                     with {tile_ny}x{tile_nx} tiles (expected {tiles})"
                )));
            }
            (Some((tile_ny, tile_nx)), TILED_HEADER_LEN)
        };
        let (lengths, digests) = prefix[table_at..span].split_at(8 * n_blocks);
        let mut offsets = Vec::with_capacity(n_blocks + 1);
        let mut at = span;
        for entry in lengths.chunks_exact(8) {
            let len = usize::try_from(u64::from_le_bytes(entry.try_into().unwrap()))
                .map_err(|_| corrupt("block length overflows usize"))?;
            offsets.push(at);
            at = at.checked_add(len).ok_or_else(|| corrupt("block lengths overflow"))?;
        }
        offsets.push(at);
        if at != frame_len {
            return Err(corrupt(&format!(
                "block lengths end at byte {at} but the frame holds {frame_len}"
            )));
        }
        // Bound the output allocation by the actual payload: even a constant
        // field costs the inner codecs well over one stream byte per 64 Ki
        // cells, so a header claiming more is forged.
        let cells = ny.checked_mul(nx).ok_or_else(|| corrupt("cell count overflows usize"))?;
        if cells > (frame_len - span).saturating_mul(MAX_CELLS_PER_STREAM_BYTE) {
            return Err(corrupt(&format!(
                "claimed {cells} cells exceed the plausible yield of {} payload bytes",
                frame_len - span
            )));
        }
        let digests = (prefix[4] & FLAG_CHECKSUM != 0).then(|| {
            digests.chunks_exact(8).map(|e| u64::from_le_bytes(e.try_into().unwrap())).collect()
        });
        Ok(FrameIndex { ny, nx, tile, offsets, digests })
    }

    /// The index of a `len`-byte raw stream standing for a whole `ny × nx`
    /// field: the one-tile passthrough, which carries no header to parse.
    pub fn single_tile(ny: usize, nx: usize, len: usize) -> FrameIndex {
        FrameIndex { ny, nx, tile: Some((ny, nx)), offsets: vec![0, len], digests: None }
    }

    /// Number of blocks.
    pub fn n_blocks(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The field rectangle block `b` decodes to.
    pub fn block_window(&self, b: usize) -> Window {
        match self.tile {
            None => {
                let rows = split_range(self.ny, self.n_blocks(), b);
                Window { i0: rows.start, j0: 0, height: rows.len(), width: self.nx }
            }
            Some((tile_ny, tile_nx)) => {
                let tiles_x = self.nx.div_ceil(tile_nx);
                let (i0, j0) = (b / tiles_x * tile_ny, b % tiles_x * tile_nx);
                let (height, width) = (tile_ny.min(self.ny - i0), tile_nx.min(self.nx - j0));
                Window { i0, j0, height, width }
            }
        }
    }

    /// `(offset, length)` of block `b`'s compressed bytes within the frame.
    pub fn block_span(&self, b: usize) -> (usize, usize) {
        (self.offsets[b], self.offsets[b + 1] - self.offsets[b])
    }

    /// Decode block `b` from its compressed `bytes` into `worker.block` and
    /// return it — the block step of [`decompress_framed_with`] and of the
    /// archive's region reads. A checksummed frame's digest is verified
    /// before the inner decoder touches the bytes, and the decoded shape must
    /// be [`block_window`](Self::block_window)`(b)`'s; either failure is a
    /// [`CompressError::CorruptStream`] naming the block.
    pub fn decode_block<'w>(
        &self,
        b: usize,
        bytes: &[u8],
        compressor: &dyn Compressor,
        worker: &'w mut FrameWorker,
    ) -> Result<&'w Field2D, CompressError> {
        if self.digests.as_ref().is_some_and(|digests| xxh64(bytes, 0) != digests[b]) {
            return Err(corrupt(&format!("block {b} checksum mismatch")));
        }
        let block = worker.block.get_or_insert_with(|| Field2D::zeros(1, 1));
        compressor.decompress_view_with(bytes, &mut worker.arena, block)?;
        let w = self.block_window(b);
        if block.shape() != (w.height, w.width) {
            return Err(corrupt(&format!(
                "block {b} decoded to {:?}, expected ({}, {})",
                block.shape(),
                w.height,
                w.width
            )));
        }
        Ok(block)
    }
}

/// Decompress a frame of either version, or a raw single stream (which
/// passes straight through to [`Compressor::decompress_view_with`]), into
/// `out`, resized to the decoded shape, decoding blocks in parallel over
/// `pool` with per-worker arenas and reusable block fields from `scratch`;
/// the module docs list what it refuses. `out` holds unspecified contents
/// after an error.
pub fn decompress_framed_with(
    compressor: &dyn Compressor,
    stream: &[u8],
    pool: ThreadPoolConfig,
    scratch: &mut FrameScratch,
    out: &mut Field2D,
) -> Result<(), CompressError> {
    if !is_framed(stream) {
        return compressor.decompress_view_with(stream, &mut scratch.workers(1)[0].arena, out);
    }
    let index = FrameIndex::parse(stream, stream.len())?;
    let n_blocks = index.n_blocks();
    let windows: Vec<Window> = (0..n_blocks).map(|b| index.block_window(b)).collect();
    out.resize(index.ny, index.nx);
    // Carve `out` into per-block disjoint row segments (safe `split_at_mut`
    // slicing, no aliasing), so every block decodes straight into its window.
    let segments = disjoint_window_rows(out.as_mut_slice(), index.nx, &windows);
    let workers = scratch.workers(pool.threads().min(n_blocks));
    let decoded: Vec<Result<(), CompressError>> =
        try_parallel_block_map(pool, workers, segments, |worker, b, mut segs| {
            let (at, len) = index.block_span(b);
            let block = index.decode_block(b, &stream[at..at + len], compressor, worker)?;
            for (seg, row) in segs.iter_mut().zip(block.view().rows()) {
                seg.copy_from_slice(row);
            }
            Ok(())
        })
        .map_err(job_panic)?;
    decoded.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Store-everything compressor over the trait's provided methods: good
    /// enough to exercise the frame container without a real codec.
    struct Store;

    impl Compressor for Store {
        fn name(&self) -> &str {
            "store"
        }

        fn compress_view_with(
            &self,
            view: &FieldView<'_>,
            bound: ErrorBound,
            _scratch: &mut ScratchArena,
        ) -> Result<Vec<u8>, CompressError> {
            bound.absolute_for_view(view)?;
            let mut out = Vec::new();
            out.extend_from_slice(&(view.ny() as u32).to_le_bytes());
            out.extend_from_slice(&(view.nx() as u32).to_le_bytes());
            for v in view.iter() {
                out.extend_from_slice(&v.to_le_bytes());
            }
            Ok(out)
        }

        fn decompress_view_with(
            &self,
            stream: &[u8],
            _scratch: &mut ScratchArena,
            out: &mut Field2D,
        ) -> Result<(), CompressError> {
            if stream.len() < 8 {
                return Err(CompressError::CorruptStream("short store header".into()));
            }
            let ny = u32::from_le_bytes(stream[0..4].try_into().unwrap()) as usize;
            let nx = u32::from_le_bytes(stream[4..8].try_into().unwrap()) as usize;
            if ny == 0 || nx == 0 || stream.len() != 8 + 8 * ny * nx {
                return Err(CompressError::CorruptStream("bad store payload".into()));
            }
            out.resize(ny, nx);
            for (slot, chunk) in out.as_mut_slice().iter_mut().zip(stream[8..].chunks_exact(8)) {
                *slot = f64::from_le_bytes(chunk.try_into().unwrap());
            }
            Ok(())
        }
    }

    fn ramp(ny: usize, nx: usize) -> Field2D {
        Field2D::from_fn(ny, nx, |i, j| (i * nx + j) as f64)
    }

    fn pool() -> ThreadPoolConfig {
        ThreadPoolConfig::with_threads(3)
    }

    /// Decode with fresh scratch into an owned field.
    fn decode(compressor: &dyn Compressor, stream: &[u8]) -> Result<Field2D, CompressError> {
        let mut out = Field2D::zeros(1, 1);
        decompress_framed_with(compressor, stream, pool(), &mut FrameScratch::new(), &mut out)?;
        Ok(out)
    }

    /// A `Store` frame of `field` in `tile`s, with fresh scratch.
    fn tiled(field: &Field2D, tile: (usize, usize), checksum: bool) -> Vec<u8> {
        let (bound, scratch) = (ErrorBound::Absolute(1.0), &mut FrameScratch::new());
        let encoded =
            compress_frame(&Store, &field.view(), bound, tile, checksum, pool(), scratch, |_| ());
        encoded.unwrap().0
    }

    /// A row-band (v1) `Store` frame of `field` in `n` bands, assembled by
    /// hand: no encoder writes them, but they decode forever.
    fn v1_frame(field: &Field2D, n: usize, checksum: bool) -> Vec<u8> {
        let (ny, nx) = field.shape();
        let streams: Vec<Vec<u8>> = (0..n)
            .map(|b| split_range(ny, n, b))
            .map(|rows| field.view().subview(rows.start, 0, rows.len(), nx))
            .map(|band| Store.compress_view(&band, ErrorBound::Absolute(1.0)).unwrap())
            .collect();
        let mut out = FRAME_MAGIC.to_vec();
        out.push(FRAME_VERSION | if checksum { FLAG_CHECKSUM } else { 0 });
        out.extend_from_slice(&(ny as u64).to_le_bytes());
        out.extend_from_slice(&(nx as u64).to_le_bytes());
        out.extend_from_slice(&(n as u32).to_le_bytes());
        for stream in &streams {
            out.extend_from_slice(&(stream.len() as u64).to_le_bytes());
        }
        for stream in streams.iter().filter(|_| checksum) {
            out.extend_from_slice(&xxh64(stream, 0).to_le_bytes());
        }
        out.extend(streams.concat());
        out
    }

    /// Byte offset of the length-table entry of block `b`.
    fn length_slot(frame: &[u8], b: usize) -> usize {
        let index = FrameIndex::parse(frame, frame.len()).unwrap();
        let per_block = if index.digests.is_some() { 16 } else { 8 };
        index.block_span(0).0 - per_block * index.n_blocks() + 8 * b
    }

    #[test]
    fn single_block_is_the_raw_stream() {
        // Blocks or tile dims that cover the field once collapse to one
        // block: the output equals the unframed stream, byte for byte, and
        // carries no digest even when asked for one.
        let field = ramp(8, 5);
        let bound = ErrorBound::Absolute(1.0);
        let raw = Store.compress_view(&field.view(), bound).unwrap();
        let framed =
            compress_framed_with(&Store, &field.view(), bound, 1, pool(), &mut FrameScratch::new())
                .unwrap();
        assert_eq!(framed, raw, "version-0 passthrough must not add a header");
        assert!(!is_framed(&framed));
        assert_eq!(decode(&Store, &framed).unwrap(), field);
        for (ty, tx) in [(8, 5), (100, 100), (8, 9)] {
            assert_eq!(tiled(&field, (ty, tx), true), raw, "{ty}x{tx} tiles");
        }
    }

    #[test]
    fn multi_block_roundtrips_and_carries_the_header() {
        let field = ramp(23, 7); // non-divisible row tail
        let bound = ErrorBound::Absolute(1.0);
        for blocks in 2..=8 {
            let mut scratch = FrameScratch::new();
            let framed =
                compress_framed_with(&Store, &field.view(), bound, blocks, pool(), &mut scratch)
                    .unwrap();
            assert!(is_framed(&framed), "{blocks} blocks");
            assert_eq!(framed[4], FRAME_VERSION | FLAG_TILED);
            let index = FrameIndex::parse(&framed, framed.len()).unwrap();
            assert_eq!(index.tile, Some((23usize.div_ceil(blocks), 7)), "{blocks} blocks");
            let back = decode(&Store, &framed).unwrap();
            assert_eq!(back, field, "{blocks} blocks");
        }
    }

    /// Inner compressor that panics on every call: pillar-1 coverage that a
    /// panicking block job surfaces as `CompressError::Internal` instead of
    /// taking down the process.
    struct PanicStore;

    impl Compressor for PanicStore {
        fn name(&self) -> &str {
            "panic-store"
        }

        fn compress_view_with(
            &self,
            _view: &FieldView<'_>,
            _bound: ErrorBound,
            _scratch: &mut ScratchArena,
        ) -> Result<Vec<u8>, CompressError> {
            panic!("injected compressor panic");
        }

        fn decompress_view_with(
            &self,
            _stream: &[u8],
            _scratch: &mut ScratchArena,
            _out: &mut Field2D,
        ) -> Result<(), CompressError> {
            panic!("injected decoder panic");
        }
    }

    #[test]
    fn panicking_block_job_surfaces_as_internal_error() {
        let field = ramp(64, 8);
        let bound = ErrorBound::Absolute(1.0);
        let err = compress_framed_with(
            &PanicStore,
            &field.view(),
            bound,
            4,
            pool(),
            &mut FrameScratch::new(),
        )
        .unwrap_err();
        match &err {
            CompressError::Internal(m) => assert!(m.contains("injected compressor panic"), "{m}"),
            other => panic!("expected Internal, got {other:?}"),
        }

        let framed =
            compress_framed_with(&Store, &field.view(), bound, 4, pool(), &mut FrameScratch::new())
                .unwrap();
        let mut out = Field2D::zeros(1, 1);
        let err = decompress_framed_with(
            &PanicStore,
            &framed,
            pool(),
            &mut FrameScratch::new(),
            &mut out,
        )
        .unwrap_err();
        assert!(matches!(err, CompressError::Internal(_)), "{err:?}");
    }

    #[test]
    fn stream_is_independent_of_pool_width() {
        let field = ramp(40, 26);
        let bound = ErrorBound::Absolute(1.0);
        for (ty, tx) in [(10, 26), (16, 16)] {
            let streams: Vec<Vec<u8>> = [1, 2, 5]
                .into_iter()
                .map(|threads| {
                    let pool = ThreadPoolConfig::with_threads(threads);
                    let scratch = &mut FrameScratch::new();
                    compress_tiled_with(&Store, &field.view(), bound, ty, tx, pool, scratch)
                        .unwrap()
                })
                .collect();
            assert_eq!(streams[0], streams[1], "{ty}x{tx}");
            assert_eq!(streams[0], streams[2], "{ty}x{tx}");
        }
    }

    #[test]
    fn block_count_is_clamped_to_rows() {
        let field = ramp(3, 9);
        let framed = compress_framed_with(
            &Store,
            &field.view(),
            ErrorBound::Absolute(1.0),
            64,
            pool(),
            &mut FrameScratch::new(),
        )
        .unwrap();
        let n_blocks = u32::from_le_bytes(framed[21..25].try_into().unwrap());
        assert_eq!(n_blocks, 3);
        assert_eq!(decode(&Store, &framed).unwrap(), field);
    }

    #[test]
    fn scratch_reuse_is_byte_stable() {
        let field = ramp(33, 11);
        let bound = ErrorBound::Absolute(1.0);
        let mut scratch = FrameScratch::new();
        let reference =
            compress_framed_with(&Store, &field.view(), bound, 4, pool(), &mut scratch).unwrap();
        let mut out = Field2D::zeros(1, 1);
        for round in 0..5 {
            let stream =
                compress_framed_with(&Store, &field.view(), bound, 4, pool(), &mut scratch)
                    .unwrap();
            assert_eq!(stream, reference, "round {round}");
            decompress_framed_with(&Store, &stream, pool(), &mut scratch, &mut out).unwrap();
            assert_eq!(out, field, "round {round}");
        }
    }

    /// A compressor that fails on any block containing the marker value,
    /// exercising the assembler's error path.
    struct FailOnMarker;

    impl Compressor for FailOnMarker {
        fn name(&self) -> &str {
            "fail-on-marker"
        }

        fn compress_view_with(
            &self,
            view: &FieldView<'_>,
            bound: ErrorBound,
            _scratch: &mut ScratchArena,
        ) -> Result<Vec<u8>, CompressError> {
            if view.iter().any(|v| v == -999.0) {
                return Err(CompressError::InvalidInput("marker block".into()));
            }
            Store.compress_view(view, bound)
        }

        fn decompress_view_with(
            &self,
            stream: &[u8],
            scratch: &mut ScratchArena,
            out: &mut Field2D,
        ) -> Result<(), CompressError> {
            Store.decompress_view_with(stream, scratch, out)
        }
    }

    #[test]
    fn block_error_abandons_the_frame() {
        // Poison a block in the middle: the pipelined assembler must
        // surface the error instead of emitting a half-assembled frame.
        let mut field = ramp(24, 8);
        field.set(12, 3, -999.0);
        let result = compress_framed_with(
            &FailOnMarker,
            &field.view(),
            ErrorBound::Absolute(1.0),
            4,
            pool(),
            &mut FrameScratch::new(),
        );
        assert!(matches!(result, Err(CompressError::InvalidInput(_))));
    }

    #[test]
    fn checksummed_frame_is_the_plain_frame_plus_digest_table() {
        // Same header fields, same lengths, same payload — the digest table
        // is strictly additive, so the checksummed encoder cannot change
        // what the blocks themselves contain.
        let field = ramp(40, 6);
        let bound = ErrorBound::Absolute(1.0);
        let plain =
            compress_framed_with(&Store, &field.view(), bound, 4, pool(), &mut FrameScratch::new())
                .unwrap();
        let summed = tiled(&field, (10, 6), true);
        let table_end = TILED_HEADER_LEN + 8 * 4;
        assert_eq!(summed[..4], plain[..4]);
        assert_eq!(summed[4], plain[4] | FLAG_CHECKSUM);
        assert_eq!(summed[5..table_end], plain[5..table_end], "header + length table");
        assert_eq!(summed[table_end + 8 * 4..], plain[table_end..], "block payloads");
        // And each digest in the table matches an independent hash of the
        // block bytes it covers.
        let index = FrameIndex::parse(&summed, summed.len()).unwrap();
        for b in 0..4 {
            let (at, len) = index.block_span(b);
            let digest = u64::from_le_bytes(summed[table_end + 8 * b..][..8].try_into().unwrap());
            assert_eq!(digest, xxh64(&summed[at..at + len], 0), "block {b}");
        }
    }

    #[test]
    fn checksum_catches_payload_corruption() {
        let field = ramp(24, 8);
        for good in [tiled(&field, (6, 8), true), v1_frame(&field, 4, true)] {
            // Flip one payload bit in each block's last byte: the digest
            // check must reject it with the block-naming message. (The Store
            // codec would otherwise happily decode some of these corruptions
            // into a wrong field — the checksum is what catches them.)
            let index = FrameIndex::parse(&good, good.len()).unwrap();
            for b in 0..index.n_blocks() {
                let (at, len) = index.block_span(b);
                let mut bad = good.clone();
                bad[at + len - 1] ^= 0x10;
                match decode(&Store, &bad) {
                    Err(CompressError::CorruptStream(msg)) => {
                        assert_eq!(msg, format!("frame: block {b} checksum mismatch"));
                    }
                    other => panic!("block {b}: expected checksum mismatch, got {other:?}"),
                }
            }

            // A flipped digest-table bit is equally fatal.
            let mut bad = good.clone();
            bad[length_slot(&good, index.n_blocks())] ^= 1;
            assert!(matches!(
                decode(&Store, &bad),
                Err(CompressError::CorruptStream(msg)) if msg.contains("checksum mismatch")
            ));

            // The untouched stream still decodes to the original field.
            assert_eq!(decode(&Store, &good).unwrap(), field);
        }
    }

    #[test]
    fn checksummed_header_too_short_for_both_tables_is_rejected() {
        // A forged checksummed header claiming more blocks than the stream
        // can hold tables for must fail the early size check.
        let mut bad = Vec::new();
        bad.extend_from_slice(&FRAME_MAGIC);
        bad.push(FRAME_VERSION | FLAG_CHECKSUM);
        bad.extend_from_slice(&1000u64.to_le_bytes());
        bad.extend_from_slice(&8u64.to_le_bytes());
        bad.extend_from_slice(&200u32.to_le_bytes());
        bad.extend_from_slice(&[0u8; 32]);
        assert!(matches!(decode(&Store, &bad), Err(CompressError::CorruptStream(_))));
    }

    #[test]
    fn tiled_frames_roundtrip_across_tile_shapes() {
        let field = ramp(23, 17); // non-divisible on both axes
        let bound = ErrorBound::Absolute(1.0);
        for (ty, tx) in [(8, 8), (23, 5), (5, 17), (7, 11), (1, 1)] {
            let mut scratch = FrameScratch::new();
            let tiled =
                compress_tiled_with(&Store, &field.view(), bound, ty, tx, pool(), &mut scratch)
                    .unwrap();
            assert!(is_framed(&tiled), "{ty}x{tx}");
            assert_eq!(tiled[4], FRAME_VERSION | FLAG_TILED, "{ty}x{tx}");
            let back = decode(&Store, &tiled).unwrap();
            assert_eq!(back, field, "{ty}x{tx} tiles");
        }
    }

    #[test]
    fn tiled_checksummed_frames_roundtrip_and_flag_both_bits() {
        let field = ramp(23, 17);
        let bound = ErrorBound::Absolute(1.0);
        let scratch = &mut FrameScratch::new();
        let (tiled, cells) =
            compress_frame(&Store, &field.view(), bound, (8, 8), true, pool(), scratch, |tile| {
                tile.len()
            })
            .unwrap();
        assert_eq!(cells, [64, 64, 8, 64, 64, 8, 56, 56, 7], "one result a tile, in tile order");
        assert_eq!(tiled[4], FRAME_VERSION | FLAG_TILED | FLAG_CHECKSUM);
        assert_eq!(decode(&Store, &tiled).unwrap(), field);
    }

    #[test]
    fn the_index_locates_every_block_of_either_layout_exactly() {
        // Each block's (offset, length) span must decode, on its own, to the
        // matching window of the field — the property the archive's seek
        // path and the one decode loop rest on.
        let field = ramp(23, 17);
        for checksum in [false, true] {
            for (frame, tile, n_blocks) in [
                (tiled(&field, (8, 8), checksum), Some((8, 8)), 9),
                (v1_frame(&field, 4, checksum), None, 4),
                (v1_frame(&field, 23, checksum), None, 23),
            ] {
                let what = format!("{n_blocks} blocks, checksum={checksum}");
                let index = FrameIndex::parse(&frame, frame.len()).unwrap();
                assert_eq!((index.ny, index.nx, index.tile), (23, 17, tile), "{what}");
                assert_eq!(index.n_blocks(), n_blocks, "{what}");
                let mut worker = FrameWorker::default();
                let mut cells = 0;
                for b in 0..index.n_blocks() {
                    let w = index.block_window(b);
                    let (at, len) = index.block_span(b);
                    let bytes = &frame[at..at + len];
                    let digest = index.digests.as_ref().map(|d| d[b]);
                    assert_eq!(digest, checksum.then(|| xxh64(bytes, 0)), "{what}");
                    let block = index.decode_block(b, bytes, &Store, &mut worker).unwrap();
                    let want = field.subfield(w.i0, w.j0, w.height, w.width);
                    assert_eq!(*block, want, "{what}: block {b}");
                    cells += w.height * w.width;
                }
                assert_eq!(cells, 23 * 17, "{what}: the windows cover the field");
                // The two-step prefix parse (header, then exactly table_span
                // bytes) must agree with parsing the whole stream.
                let span =
                    FrameIndex::table_span(&frame[..FrameIndex::PREFIX_LEN], frame.len()).unwrap();
                assert_eq!(span, index.block_span(0).0);
                assert_eq!(FrameIndex::parse(&frame[..span], frame.len()).unwrap(), index);
            }
        }
    }

    #[test]
    fn decode_block_refuses_a_block_of_the_wrong_shape() {
        // Block 0's bytes stand in for the shorter last band: the shape
        // check names the block instead of copying a wrong-sized field.
        let field = ramp(10, 3);
        let frame = v1_frame(&field, 4, false);
        let index = FrameIndex::parse(&frame, frame.len()).unwrap();
        let (at, len) = index.block_span(0);
        let mut worker = FrameWorker::default();
        let err = index.decode_block(3, &frame[at..at + len], &Store, &mut worker).unwrap_err();
        let want = "frame: block 3 decoded to (3, 3), expected (2, 3)";
        assert_eq!(err, CompressError::CorruptStream(want.into()));
    }

    #[test]
    fn split_range_parts_are_contiguous_balanced_and_cover_everything() {
        for (total, parts) in [(10usize, 3usize), (7, 7), (5, 9), (0, 4), (100, 1), (23, 4)] {
            let mut next = 0;
            for part in 0..parts {
                let r = split_range(total, parts, part);
                assert_eq!(r.start, next, "{total}/{parts} part {part}");
                assert!(r.len() == total / parts || r.len() == total / parts + 1);
                next = r.end;
            }
            assert_eq!(next, total);
        }
        assert_eq!(split_range(10, 4, 0), 0..3);
        assert_eq!(split_range(10, 4, 3), 8..10);
    }

    #[test]
    fn corrupt_tiled_frames_are_rejected() {
        let field = ramp(23, 17);
        let bound = ErrorBound::Absolute(1.0);
        let good = compress_tiled_with(
            &Store,
            &field.view(),
            bound,
            8,
            8,
            pool(),
            &mut FrameScratch::new(),
        )
        .unwrap();

        // Zero tile dims at encode time are invalid input, not a panic.
        assert!(matches!(
            compress_tiled_with(
                &Store,
                &field.view(),
                bound,
                0,
                8,
                pool(),
                &mut FrameScratch::new()
            ),
            Err(CompressError::InvalidInput(_))
        ));

        // Tile dims that don't cover the field: claimed 4x4 tiling of a
        // 23x17 field needs 30 tiles, but the header still says 9.
        let mut bad = good.clone();
        bad[25..29].copy_from_slice(&4u32.to_le_bytes());
        bad[29..33].copy_from_slice(&4u32.to_le_bytes());
        assert!(matches!(
            decode(&Store, &bad),
            Err(CompressError::CorruptStream(msg)) if msg.contains("does not cover")
        ));

        // Zero tile dims in the header.
        let mut bad = good.clone();
        bad[25..29].copy_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            decode(&Store, &bad),
            Err(CompressError::CorruptStream(msg)) if msg.contains("tile shape")
        ));

        // Overflowing tile length in the seek index.
        let mut bad = good.clone();
        let slot = length_slot(&good, 0);
        bad[slot..slot + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(decode(&Store, &bad).is_err());

        // Truncated stream: lengths no longer reach the end of the frame.
        assert!(decode(&Store, &good[..good.len() - 3]).is_err());

        // An unknown flag bit on a tiled frame is an unsupported version.
        let mut bad = good.clone();
        bad[4] |= 0x80;
        assert!(matches!(
            decode(&Store, &bad),
            Err(CompressError::CorruptStream(msg)) if msg.contains("unsupported version")
        ));

        // A forged tiled header claiming a huge field over a tiny payload
        // trips the allocation guard before `out` is sized.
        let mut bad = Vec::new();
        bad.extend_from_slice(&FRAME_MAGIC);
        bad.push(FRAME_VERSION | FLAG_TILED);
        bad.extend_from_slice(&(1u64 << 32).to_le_bytes());
        bad.extend_from_slice(&(1u64 << 32).to_le_bytes());
        bad.extend_from_slice(&4u32.to_le_bytes());
        bad.extend_from_slice(&(1u32 << 31).to_le_bytes());
        bad.extend_from_slice(&(1u32 << 31).to_le_bytes());
        for len in [8u64, 8, 8, 8] {
            bad.extend_from_slice(&len.to_le_bytes());
        }
        bad.extend_from_slice(&[0u8; 32]);
        assert!(matches!(decode(&Store, &bad), Err(CompressError::CorruptStream(_))));

        // The untouched stream still decodes.
        assert_eq!(decode(&Store, &good).unwrap(), field);
    }

    #[test]
    fn corrupt_frames_are_rejected() {
        let field = ramp(24, 8);
        let good = v1_frame(&field, 4, false);
        assert_eq!(decode(&Store, &good).unwrap(), field, "the untouched v1 frame decodes");

        // Bad version byte.
        let mut bad = good.clone();
        bad[4] = 9;
        assert!(matches!(decode(&Store, &bad), Err(CompressError::CorruptStream(_))));

        // Truncated frame table: a forged header claims 200 blocks but only
        // a few table bytes follow — must fail before allocating anything
        // sized by the claim.
        let mut bad = Vec::new();
        bad.extend_from_slice(&FRAME_MAGIC);
        bad.push(FRAME_VERSION);
        bad.extend_from_slice(&1000u64.to_le_bytes());
        bad.extend_from_slice(&8u64.to_le_bytes());
        bad.extend_from_slice(&200u32.to_le_bytes());
        bad.extend_from_slice(&[0u8; 10]);
        assert!(matches!(decode(&Store, &bad), Err(CompressError::CorruptStream(_))));

        // Block count exceeding the row count.
        let mut bad = good.clone();
        bad[21..25].copy_from_slice(&100u32.to_le_bytes());
        assert!(decode(&Store, &bad).is_err());

        // Overflowing block length.
        let slot = length_slot(&good, 0);
        let mut bad = good.clone();
        bad[slot..slot + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(decode(&Store, &bad).is_err());

        // Lengths that no longer sum to the payload.
        let mut bad = good.clone();
        let first = u64::from_le_bytes(bad[slot..slot + 8].try_into().unwrap());
        bad[slot..slot + 8].copy_from_slice(&(first - 1).to_le_bytes());
        assert!(decode(&Store, &bad).is_err());

        // Truncated payload.
        assert!(decode(&Store, &good[..good.len() - 3]).is_err());

        // Zero blocks.
        let mut bad = good;
        bad[21..25].copy_from_slice(&0u32.to_le_bytes());
        assert!(decode(&Store, &bad).is_err());
    }
}
