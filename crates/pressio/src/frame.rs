//! Block-parallel framed multi-block container.
//!
//! A single field normally compresses as one sequential stream, so the
//! latency of serving one compressibility estimate is bound to one core.
//! This module splits a [`FieldView`] into independent **row blocks**,
//! encodes/decodes each block on its own worker (a [`lcc_par`] scoped block
//! map with one persistent [`ScratchArena`] per worker), and concatenates
//! the per-block streams as length-prefixed frames under a small versioned
//! header — the same trick production SZ3/ZFP builds use to scale a single
//! field across cores.
//!
//! ## Frame format (version 1)
//!
//! ```text
//! offset  size        field
//! 0       4           magic  b"LCCF"
//! 4       1           version (1, OR-ed with flag bits; see below)
//! 5       8           ny  (u64 LE, total rows)
//! 13      8           nx  (u64 LE, columns)
//! 21      4           n_blocks (u32 LE, >= 2)
//! 25      8*n_blocks  per-block compressed byte length (u64 LE each)
//! …       8*n_blocks  per-block XXH64 digest (u64 LE each) — only when
//!                     the `FLAG_CHECKSUM` bit is set in the version byte
//! …       …           the n_blocks compressed streams, concatenated
//! ```
//!
//! Rows are split by [`lcc_par::split_ranges`]: block `b` covers a
//! contiguous row range, every block is a self-describing stream of the
//! *inner* compressor, and the block lengths must sum exactly to the bytes
//! that follow the table(s).
//!
//! ## Frame format version 2: tiled blocks (flag bit `0x20`)
//!
//! A v2 frame replaces row bands with **2D tiles**: blocks are
//! `tile_ny × tile_nx` rectangles covering the field in row-major tile
//! order (exactly [`lcc_grid::WindowIter::over`]'s tiling, edge tiles
//! clipped), and the header grows two fields:
//!
//! ```text
//! offset  size        field
//! 0       4           magic  b"LCCF"
//! 4       1           version (1 | 0x20, optionally | 0x40)
//! 5       8           ny  (u64 LE, total rows)
//! 13      8           nx  (u64 LE, columns)
//! 21      4           n_blocks (u32 LE, == tiles_y * tiles_x, >= 2)
//! 25      4           tile_ny (u32 LE)
//! 29      4           tile_nx (u32 LE)
//! 33      8*n_blocks  per-tile compressed byte length (u64 LE each)
//! …       8*n_blocks  per-tile XXH64 digest — only with `FLAG_CHECKSUM`
//! …       …           the n_blocks tile streams, concatenated
//! ```
//!
//! Because tile order is fixed, the length table doubles as a **seek
//! index**: prefix-summing it locates any tile's bytes without touching the
//! rest of the stream ([`TiledIndex`] exposes exactly that), which is what
//! archive-style region readers use to decode only the tiles overlapping a
//! query window. A tiling that collapses to one tile is the
//! raw inner stream (same passthrough rule as v1), and v1 row-band frames
//! keep decoding forever — the decoder masks both flag bits and branches on
//! `FLAG_TILED`.
//!
//! ## Per-block checksums
//!
//! The high bit group of the version byte carries flags: `0x41` is a
//! version-1 frame whose length table is followed by a table of XXH64
//! digests ([`lcc_lossless::xxh64`] with seed 0), one per block, hashed
//! over that block's compressed bytes. The decoder verifies each block's
//! digest *before* handing the bytes to the inner block decoder, turning
//! silent bit corruption into a crisp [`CompressError::CorruptStream`]
//! instead of whatever a damaged entropy stream happens to decode to.
//! Plain `0x01` frames (every stream written before the flag existed)
//! carry no digest table and decode exactly as they always have.
//!
//! ## Version-0 passthrough
//!
//! A **single-block** "frame" is, by definition, the inner compressor's raw
//! stream with no header at all — byte-identical to what
//! [`Compressor::compress_view`] produces today, so every stream written
//! before this container existed decodes through [`decompress_framed_with`]
//! unchanged, and the bit-identity/stream-identity fixture suites pin the
//! same bytes they always have. [`decompress_framed_with`] dispatches on the
//! magic: no `LCCF` prefix means passthrough. The magic cannot collide with
//! the inner codecs' streams (SZ/MGARD Huffman streams open with an LZ77
//! varint whose next byte is a token tag of `0x00`/`0x01`, never `b'C'`;
//! their rANS containers open with the magics `LSR1`/`LMR1`, whose second
//! byte is never `b'C'`; ZFP streams open with a `0`/`1`/`2` container tag,
//! never `b'L'`).
//!
//! ## Pipelined encode assembly
//!
//! The encoder does not wait for every block before assembling the frame: it
//! reserves the header and a zeroed length table up front, and each block's
//! worker appends the block's bytes (backfilling its table slot) the moment
//! all earlier blocks have landed — later blocks are still encoding while
//! early ones are copied into place. The produced bytes are identical to a
//! barrier-then-concatenate assembly.
//!
//! Because each block is compressed as an independent field, a multi-block
//! frame's decoded values are identical to decoding each block's stream on
//! its own and stitching the rows — but not to the single-stream encoding of
//! the whole field (predictors no longer see across block seams). The error
//! bound still holds point-wise: it is enforced per block.

use crate::{CompressError, Compressor, ErrorBound, ScratchArena};
use lcc_grid::{disjoint_window_rows, Field2D, FieldView, Window, WindowIter};
use lcc_lossless::xxh64;
use lcc_par::{split_ranges, try_parallel_block_map, CancelToken, JobPanicked, ThreadPoolConfig};
use std::sync::Mutex;

/// A panicking block job, isolated per job by `lcc_par`, surfaces as an
/// internal error instead of aborting the process.
fn job_panic(err: JobPanicked) -> CompressError {
    CompressError::Internal(format!("frame: {err}"))
}

/// True when an optional cancellation token has fired — the per-block check
/// both the encoder and decoder poll before touching a block.
fn expired(cancel: Option<&CancelToken>) -> bool {
    cancel.is_some_and(|c| c.is_cancelled())
}

/// Magic prefix of a version-1 multi-block frame.
pub const FRAME_MAGIC: [u8; 4] = *b"LCCF";
/// Current frame-format version byte.
pub const FRAME_VERSION: u8 = 1;
/// Version-byte flag bit: the length table is followed by a per-block
/// XXH64 digest table, verified before each block decodes.
pub const FLAG_CHECKSUM: u8 = 0x40;
/// Version-byte flag bit: blocks are 2D `tile_ny × tile_nx` tiles in
/// row-major tile order (frame format v2) and the header carries the tile
/// shape; the length table is then a seek index over the tiles.
pub const FLAG_TILED: u8 = 0x20;

/// Fixed header bytes before the block-length table.
const HEADER_LEN: usize = 4 + 1 + 8 + 8 + 4;
/// Fixed header bytes of a tiled (v2) frame: the v1 header plus tile dims.
const TILED_HEADER_LEN: usize = HEADER_LEN + 4 + 4;
/// Decode-side allocation guard: the most cells a frame header may claim
/// per payload byte. Real streams sit orders of magnitude below this (a
/// constant paper-scale field compresses to roughly 700 cells/byte), so the
/// cap only trips on forged headers trying to turn a tiny stream into a
/// huge `out` allocation.
const MAX_CELLS_PER_STREAM_BYTE: usize = 1 << 16;

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

    /// An empty frame buffer for a `fixed`-byte header, with room for a
    /// frame as long as the last one.
    fn frame_buffer(&self, fixed: usize) -> Vec<u8> {
        Vec::with_capacity(fixed.max(self.frame_len))
    }
}

/// True when `stream` carries a version-1+ multi-block frame header (as
/// opposed to a raw single stream of an inner compressor).
pub fn is_framed(stream: &[u8]) -> bool {
    stream.len() >= HEADER_LEN && stream[..4] == FRAME_MAGIC
}

/// Compress a view as a `blocks`-block frame, encoding blocks in parallel
/// over `pool` with per-worker arenas from `scratch`.
///
/// `blocks` is clamped to the row count; a clamped-or-requested count of 1
/// emits the inner compressor's raw stream (the version-0 passthrough), so
/// single-block output is byte-identical to [`Compressor::compress_view`].
/// The produced stream is independent of the pool width — only wall time
/// changes with `pool`.
pub fn compress_framed_with(
    compressor: &dyn Compressor,
    view: &FieldView<'_>,
    bound: ErrorBound,
    blocks: usize,
    pool: ThreadPoolConfig,
    scratch: &mut FrameScratch,
) -> Result<Vec<u8>, CompressError> {
    compress_framed_impl(compressor, view, bound, blocks, pool, scratch, false, None)
}

/// [`compress_framed_with`] under a [`CancelToken`]: the token is polled
/// before every block encodes, so an expired deadline abandons the frame at
/// block granularity with [`CompressError::DeadlineExceeded`] — in-flight
/// sibling blocks stop as soon as they observe the token.
#[allow(clippy::too_many_arguments)]
pub fn compress_framed_deadline_with(
    compressor: &dyn Compressor,
    view: &FieldView<'_>,
    bound: ErrorBound,
    blocks: usize,
    pool: ThreadPoolConfig,
    scratch: &mut FrameScratch,
    cancel: &CancelToken,
) -> Result<Vec<u8>, CompressError> {
    compress_framed_impl(compressor, view, bound, blocks, pool, scratch, false, Some(cancel))
}

/// [`compress_framed_with`] plus a per-block XXH64 digest table: the
/// version byte gains [`FLAG_CHECKSUM`] and every block's compressed bytes
/// are hashed on the worker that encoded them, so
/// [`decompress_framed_with`] can reject corruption before block decode.
///
/// A single-block output is still the inner compressor's raw stream —
/// passthrough streams carry no frame header to hang a digest off, and
/// keeping them byte-identical to [`Compressor::compress_view`] is the
/// stronger invariant.
pub fn compress_framed_checksummed_with(
    compressor: &dyn Compressor,
    view: &FieldView<'_>,
    bound: ErrorBound,
    blocks: usize,
    pool: ThreadPoolConfig,
    scratch: &mut FrameScratch,
) -> Result<Vec<u8>, CompressError> {
    compress_framed_impl(compressor, view, bound, blocks, pool, scratch, true, None)
}

#[allow(clippy::too_many_arguments)]
fn compress_framed_impl(
    compressor: &dyn Compressor,
    view: &FieldView<'_>,
    bound: ErrorBound,
    blocks: usize,
    pool: ThreadPoolConfig,
    scratch: &mut FrameScratch,
    checksum: bool,
    cancel: Option<&CancelToken>,
) -> Result<Vec<u8>, CompressError> {
    if expired(cancel) {
        return Err(CompressError::DeadlineExceeded("frame: encode abandoned".into()));
    }
    let (ny, nx) = view.shape();
    let blocks = blocks.clamp(1, ny);
    if blocks == 1 {
        return compressor.compress_view_with(view, bound, &mut scratch.workers(1)[0].arena);
    }

    let ranges = split_ranges(ny, blocks);
    let sub_views: Vec<FieldView<'_>> =
        ranges.iter().map(|r| view.subview(r.start, 0, r.len(), nx)).collect();
    let n_blocks = sub_views.len();

    let mut header = scratch.frame_buffer(HEADER_LEN);
    header.extend_from_slice(&FRAME_MAGIC);
    header.push(if checksum { FRAME_VERSION | FLAG_CHECKSUM } else { FRAME_VERSION });
    header.extend_from_slice(&(ny as u64).to_le_bytes());
    header.extend_from_slice(&(nx as u64).to_le_bytes());
    header.extend_from_slice(&(n_blocks as u32).to_le_bytes());
    encode_blocks(compressor, sub_views, bound, pool, scratch, checksum, header, cancel, |_| ())
        .map(|(frame, _)| frame)
}

/// Compress a view as a v2 **tiled** frame: blocks are `tile_ny × tile_nx`
/// rectangles covering the field in row-major tile order (exactly
/// [`WindowIter::over`]'s tiling), so the length table doubles as a seek
/// index over the tiles. Tile dims are clamped to the field; a tiling that
/// collapses to a single tile emits the inner compressor's raw stream,
/// byte-identical to [`Compressor::compress_view`]. The produced stream is
/// independent of the pool width.
pub fn compress_tiled_with(
    compressor: &dyn Compressor,
    view: &FieldView<'_>,
    bound: ErrorBound,
    tile_ny: usize,
    tile_nx: usize,
    pool: ThreadPoolConfig,
    scratch: &mut FrameScratch,
) -> Result<Vec<u8>, CompressError> {
    compress_tiled_impl(compressor, view, bound, tile_ny, tile_nx, pool, scratch, false, |_| ())
        .map(|(frame, _)| frame)
}

/// [`compress_tiled_with`] plus the per-tile XXH64 digest table of
/// [`compress_framed_checksummed_with`]: the version byte carries both
/// `FLAG_TILED` and `FLAG_CHECKSUM`, and every tile's digest is verified
/// before that tile decodes — including single-tile region reads.
///
/// `per_tile` is handed every tile's view inside that tile's block job, on
/// the worker that has just encoded it, and its results come back in tile
/// order beside the frame: the hook by which an archive computes per-tile
/// metadata while the tile is still in that core's cache, instead of in a
/// later pass over the field. A panic in it is caught like one in the
/// encoder and fails the frame with [`CompressError::Internal`]; a tiling
/// that collapses to one tile calls it once, on the calling thread, with
/// the whole view.
#[allow(clippy::too_many_arguments)]
pub fn compress_tiled_checksummed_with<R: Send>(
    compressor: &dyn Compressor,
    view: &FieldView<'_>,
    bound: ErrorBound,
    tile_ny: usize,
    tile_nx: usize,
    pool: ThreadPoolConfig,
    scratch: &mut FrameScratch,
    per_tile: impl Fn(&FieldView<'_>) -> R + Sync,
) -> Result<(Vec<u8>, Vec<R>), CompressError> {
    compress_tiled_impl(compressor, view, bound, tile_ny, tile_nx, pool, scratch, true, per_tile)
}

#[allow(clippy::too_many_arguments)]
fn compress_tiled_impl<R: Send>(
    compressor: &dyn Compressor,
    view: &FieldView<'_>,
    bound: ErrorBound,
    tile_ny: usize,
    tile_nx: usize,
    pool: ThreadPoolConfig,
    scratch: &mut FrameScratch,
    checksum: bool,
    per_tile: impl Fn(&FieldView<'_>) -> R + Sync,
) -> Result<(Vec<u8>, Vec<R>), CompressError> {
    if tile_ny == 0 || tile_nx == 0 {
        return Err(CompressError::InvalidInput("tile dimensions must be non-zero".into()));
    }
    let (ny, nx) = view.shape();
    let tile_ny = tile_ny.min(ny);
    let tile_nx = tile_nx.min(nx);
    let windows: Vec<Window> = WindowIter::over(ny, nx, tile_ny, tile_nx).collect();
    if windows.len() == 1 {
        let stream =
            compressor.compress_view_with(view, bound, &mut scratch.workers(1)[0].arena)?;
        return Ok((stream, vec![per_tile(view)]));
    }
    let sub_views: Vec<FieldView<'_>> = windows.iter().map(|w| view.window(w)).collect();
    let n_blocks = sub_views.len();

    let mut header = scratch.frame_buffer(TILED_HEADER_LEN);
    header.extend_from_slice(&FRAME_MAGIC);
    header.push(FRAME_VERSION | FLAG_TILED | if checksum { FLAG_CHECKSUM } else { 0 });
    header.extend_from_slice(&(ny as u64).to_le_bytes());
    header.extend_from_slice(&(nx as u64).to_le_bytes());
    header.extend_from_slice(&(n_blocks as u32).to_le_bytes());
    header.extend_from_slice(&(tile_ny as u32).to_le_bytes());
    header.extend_from_slice(&(tile_nx as u32).to_le_bytes());
    encode_blocks(compressor, sub_views, bound, pool, scratch, checksum, header, None, per_tile)
}

/// Encode `sub_views` as the blocks of a frame whose fixed header is
/// already in `header`, reserving and backfilling the length (and optional
/// digest) tables. Shared by the row-band (v1) and tiled (v2) encoders —
/// the formats differ only in the header prefix and how the views tile the
/// field.
///
/// Pipelined stream assembly: the header and zeroed length (and, when
/// checksummed, digest) tables are reserved up front, and every finished
/// block appends its bytes and backfills its table slots as soon as all
/// earlier blocks have landed — assembly of early blocks overlaps with
/// encoding of later ones instead of waiting at a barrier and concatenating
/// afterwards. The emitted bytes are identical to the barrier version: same
/// header, same tables, same in-order concatenation.
///
/// `per_block` sees each block's view inside that block's job, after the
/// block has encoded; its results come back in block order.
#[allow(clippy::too_many_arguments)]
fn encode_blocks<R: Send>(
    compressor: &dyn Compressor,
    sub_views: Vec<FieldView<'_>>,
    bound: ErrorBound,
    pool: ThreadPoolConfig,
    scratch: &mut FrameScratch,
    checksum: bool,
    mut header: Vec<u8>,
    cancel: Option<&CancelToken>,
    per_block: impl Fn(&FieldView<'_>) -> R + Sync,
) -> Result<(Vec<u8>, Vec<R>), CompressError> {
    let n_blocks = sub_views.len();
    let tables = if checksum { 16 } else { 8 };
    let table_at = header.len();
    header.resize(table_at + tables * n_blocks, 0);
    let assembler = Mutex::new(FrameAssembler {
        out: header,
        next: 0,
        pending: (0..n_blocks).map(|_| None).collect(),
        error: None,
        table_at,
        hash_table_at: checksum.then_some(table_at + 8 * n_blocks),
    });

    let workers = scratch.workers(pool.threads().min(n_blocks));
    let results = try_parallel_block_map(pool, workers, sub_views, |worker, b, sub| {
        // Poll the deadline before paying for the block: once the token
        // fires, every not-yet-encoded block submits DeadlineExceeded
        // immediately (first-error-wins) instead of finishing its work.
        let result = if expired(cancel) {
            Err(CompressError::DeadlineExceeded(format!("frame: block {b} abandoned")))
        } else {
            // The digest is computed here, on the encoding worker, so
            // hashing of one block overlaps with encoding of the others.
            compressor.compress_view_with(&sub, bound, &mut worker.arena).map(|stream| {
                let digest = checksum.then(|| xxh64(&stream, 0));
                (stream, digest)
            })
        };
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
/// output already holds the header and the reserved (zeroed) length table;
/// blocks arriving out of order park in `pending` until their turn.
struct FrameAssembler {
    out: Vec<u8>,
    /// Next block index to append.
    next: usize,
    /// Encoded streams (and optional digests) of blocks that finished
    /// before their predecessors.
    pending: Vec<Option<(Vec<u8>, Option<u64>)>>,
    /// First compression error observed (the frame is abandoned).
    error: Option<CompressError>,
    /// Byte offset of the reserved length table (header-format dependent:
    /// 25 for v1 row-band frames, 33 for v2 tiled frames).
    table_at: usize,
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
                    let slot = self.table_at + 8 * self.next;
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

/// Parsed header + seek index of a v2 tiled frame: everything a reader
/// needs to locate one tile's compressed bytes without touching the rest of
/// the stream. Parsing consumes only the frame's leading bytes — read
/// [`TiledIndex::PREFIX_LEN`] bytes, size the rest with
/// [`TiledIndex::table_span`], then hand that prefix to
/// [`TiledIndex::parse`] — so an archive can index a multi-megabyte entry
/// from a few kilobytes of it.
#[derive(Debug, Clone, PartialEq)]
pub struct TiledIndex {
    /// Field rows.
    pub ny: usize,
    /// Field columns.
    pub nx: usize,
    /// Tile height (edge tiles may be shorter).
    pub tile_ny: usize,
    /// Tile width (edge tiles may be narrower).
    pub tile_nx: usize,
    /// Whether a digest table follows the length table.
    pub checksummed: bool,
    /// Byte offset (within the frame) of the first tile's stream.
    pub body_at: usize,
    /// Per-tile compressed byte length, row-major tile order.
    pub lengths: Vec<usize>,
    /// Per-tile byte offset within the frame (prefix sums over `lengths`).
    pub offsets: Vec<usize>,
    /// Per-tile XXH64 digest when `checksummed`.
    pub digests: Option<Vec<u64>>,
}

impl TiledIndex {
    /// Bytes of a tiled frame a reader must fetch before
    /// [`table_span`](Self::table_span) can size the rest of the prefix.
    pub const PREFIX_LEN: usize = TILED_HEADER_LEN;

    /// Total header + table span (in bytes) of the tiled frame whose first
    /// [`PREFIX_LEN`](Self::PREFIX_LEN) bytes are `prefix`, validated
    /// against the total frame length so a forged block count cannot demand
    /// more bytes than the frame holds.
    pub fn table_span(prefix: &[u8], frame_len: usize) -> Result<usize, CompressError> {
        let corrupt = |msg: &str| CompressError::CorruptStream(format!("frame: {msg}"));
        if prefix.len() < TILED_HEADER_LEN || prefix[..4] != FRAME_MAGIC {
            return Err(corrupt("tiled header truncated or missing magic"));
        }
        if prefix[4] & !(FLAG_CHECKSUM | FLAG_TILED) != FRAME_VERSION || prefix[4] & FLAG_TILED == 0
        {
            return Err(corrupt(&format!("version byte {:#04x} is not a tiled frame", prefix[4])));
        }
        let per_block = if prefix[4] & FLAG_CHECKSUM != 0 { 16 } else { 8 };
        let n_blocks = u32::from_le_bytes(prefix[21..25].try_into().unwrap()) as usize;
        n_blocks
            .checked_mul(per_block)
            .and_then(|t| t.checked_add(TILED_HEADER_LEN))
            .filter(|&t| t <= frame_len)
            .ok_or_else(|| corrupt(&format!("tile table for {n_blocks} tiles exceeds stream")))
    }

    /// Parse the seek index from a tiled frame's leading bytes. `prefix`
    /// must hold at least [`table_span`](Self::table_span) bytes (the whole
    /// stream also works); `frame_len` is the total frame size the tile
    /// lengths must sum to. Every claim is validated before anything sized
    /// by it is allocated, so a forged header costs at most one bounded
    /// table read.
    pub fn parse(prefix: &[u8], frame_len: usize) -> Result<TiledIndex, CompressError> {
        let corrupt = |msg: &str| CompressError::CorruptStream(format!("frame: {msg}"));
        let span = Self::table_span(prefix, frame_len)?;
        if prefix.len() < span {
            return Err(corrupt("tile table truncated"));
        }
        let checksummed = prefix[4] & FLAG_CHECKSUM != 0;
        let ny = usize::try_from(u64::from_le_bytes(prefix[5..13].try_into().unwrap()))
            .map_err(|_| corrupt("row count overflows usize"))?;
        let nx = usize::try_from(u64::from_le_bytes(prefix[13..21].try_into().unwrap()))
            .map_err(|_| corrupt("column count overflows usize"))?;
        let n_blocks = u32::from_le_bytes(prefix[21..25].try_into().unwrap()) as usize;
        let tile_ny = u32::from_le_bytes(prefix[25..29].try_into().unwrap()) as usize;
        let tile_nx = u32::from_le_bytes(prefix[29..33].try_into().unwrap()) as usize;
        if ny == 0 || nx == 0 {
            return Err(corrupt("empty field shape"));
        }
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
            // The encoder writes exactly one block per tile of the cover
            // (single-tile output is raw passthrough), so a mismatch means
            // the claimed tiling does not cover the claimed field.
            return Err(corrupt(&format!(
                "tile count {n_blocks} does not cover a {ny}x{nx} field \
                 with {tile_ny}x{tile_nx} tiles (expected {tiles})"
            )));
        }
        let mut lengths = Vec::with_capacity(n_blocks);
        let mut offsets = Vec::with_capacity(n_blocks);
        let mut at = span;
        for entry in prefix[TILED_HEADER_LEN..TILED_HEADER_LEN + 8 * n_blocks].chunks_exact(8) {
            let len = usize::try_from(u64::from_le_bytes(entry.try_into().unwrap()))
                .map_err(|_| corrupt("tile length overflows usize"))?;
            offsets.push(at);
            at = at.checked_add(len).ok_or_else(|| corrupt("tile lengths overflow"))?;
            lengths.push(len);
        }
        if at != frame_len {
            return Err(corrupt(&format!(
                "tile lengths end at byte {at} but the frame holds {frame_len}"
            )));
        }
        // Same decode-side allocation guard as v1: the claimed cell count
        // must be plausible for the actual payload bytes.
        let cells = ny.checked_mul(nx).ok_or_else(|| corrupt("cell count overflows usize"))?;
        if cells > (frame_len - span).saturating_mul(MAX_CELLS_PER_STREAM_BYTE) {
            return Err(corrupt(&format!(
                "claimed {cells} cells exceed the plausible yield of {} payload bytes",
                frame_len - span
            )));
        }
        let digests = checksummed.then(|| {
            prefix[TILED_HEADER_LEN + 8 * n_blocks..span]
                .chunks_exact(8)
                .map(|e| u64::from_le_bytes(e.try_into().unwrap()))
                .collect()
        });
        Ok(TiledIndex {
            ny,
            nx,
            tile_ny,
            tile_nx,
            checksummed,
            body_at: span,
            lengths,
            offsets,
            digests,
        })
    }

    /// Number of tiles (== frame blocks).
    pub fn n_tiles(&self) -> usize {
        self.lengths.len()
    }

    /// Tiles per row of the tile grid.
    pub fn tiles_x(&self) -> usize {
        self.nx.div_ceil(self.tile_nx)
    }

    /// Tile rows of the tile grid.
    pub fn tiles_y(&self) -> usize {
        self.ny.div_ceil(self.tile_ny)
    }

    /// The field rectangle tile `t` covers (edge tiles are clipped).
    pub fn tile_window(&self, t: usize) -> Window {
        let (ty, tx) = (t / self.tiles_x(), t % self.tiles_x());
        let i0 = ty * self.tile_ny;
        let j0 = tx * self.tile_nx;
        Window {
            i0,
            j0,
            height: self.tile_ny.min(self.ny - i0),
            width: self.tile_nx.min(self.nx - j0),
        }
    }

    /// `(offset, length)` of tile `t`'s compressed bytes within the frame.
    pub fn tile_span(&self, t: usize) -> (usize, usize) {
        (self.offsets[t], self.lengths[t])
    }

    /// Row-major ids of the tiles overlapping `window`, ascending (clipped
    /// to the field; empty when the window lies entirely outside it).
    pub fn tiles_overlapping(&self, window: &Window) -> impl ExactSizeIterator<Item = usize> {
        let i1 = window.i0.saturating_add(window.height).min(self.ny);
        let j1 = window.j0.saturating_add(window.width).min(self.nx);
        // Tile-grid rectangle [ty0, ty1) × [tx0, tx1); zero rows when empty.
        let (ty0, tx0) = (window.i0 / self.tile_ny, window.j0 / self.tile_nx);
        let (ty1, tx1) = if window.i0 < i1 && window.j0 < j1 {
            ((i1 - 1) / self.tile_ny + 1, (j1 - 1) / self.tile_nx + 1)
        } else {
            (ty0, tx0 + 1)
        };
        let (across, tiles_x) = (tx1 - tx0, self.tiles_x());
        (0..(ty1 - ty0) * across).map(move |n| (ty0 + n / across) * tiles_x + tx0 + n % across)
    }
}

/// Decompress a (framed or raw) stream with fresh scratch, returning an
/// owned field.
pub fn decompress_framed(
    compressor: &dyn Compressor,
    stream: &[u8],
    pool: ThreadPoolConfig,
) -> Result<Field2D, CompressError> {
    let mut out = Field2D::zeros(1, 1);
    decompress_framed_with(compressor, stream, pool, &mut FrameScratch::new(), &mut out)?;
    Ok(out)
}

/// Decompress a stream that may be a multi-block frame or a raw single
/// stream, decoding blocks in parallel over `pool` with per-worker arenas
/// and reusable block fields from `scratch`. `out` is resized to the decoded
/// shape; raw streams pass straight through to
/// [`Compressor::decompress_view_with`].
///
/// Frame validation is strict and allocates nothing proportional to claimed
/// sizes before the claims are checked against the actual stream length:
/// unknown version bytes, a block table that exceeds the remaining bytes,
/// and block lengths that overflow or do not sum exactly to the remaining
/// payload all return [`CompressError::CorruptStream`].
pub fn decompress_framed_with(
    compressor: &dyn Compressor,
    stream: &[u8],
    pool: ThreadPoolConfig,
    scratch: &mut FrameScratch,
    out: &mut Field2D,
) -> Result<(), CompressError> {
    decompress_framed_cancel(compressor, stream, pool, scratch, out, None)
}

/// [`decompress_framed_with`] under a [`CancelToken`], polled before every
/// block/tile decodes: an expired deadline returns
/// [`CompressError::DeadlineExceeded`] at block granularity and sibling
/// workers stop early. `out` holds unspecified contents after an error.
pub fn decompress_framed_deadline_with(
    compressor: &dyn Compressor,
    stream: &[u8],
    pool: ThreadPoolConfig,
    scratch: &mut FrameScratch,
    out: &mut Field2D,
    cancel: &CancelToken,
) -> Result<(), CompressError> {
    decompress_framed_cancel(compressor, stream, pool, scratch, out, Some(cancel))
}

fn decompress_framed_cancel(
    compressor: &dyn Compressor,
    stream: &[u8],
    pool: ThreadPoolConfig,
    scratch: &mut FrameScratch,
    out: &mut Field2D,
    cancel: Option<&CancelToken>,
) -> Result<(), CompressError> {
    if expired(cancel) {
        return Err(CompressError::DeadlineExceeded("frame: decode abandoned".into()));
    }
    if !is_framed(stream) {
        return compressor.decompress_view_with(stream, &mut scratch.workers(1)[0].arena, out);
    }
    let corrupt = |msg: &str| CompressError::CorruptStream(format!("frame: {msg}"));
    // The version byte carries flag bits above the version number; mask
    // the known flags off before comparing so checksummed (0x41), tiled
    // (0x21) and plain (0x01) frames all decode — and so plain v1 streams
    // keep decoding forever, whatever flags later encoders add to *new*
    // streams.
    if stream[4] & !(FLAG_CHECKSUM | FLAG_TILED) != FRAME_VERSION {
        return Err(corrupt(&format!("unsupported version byte {:#04x}", stream[4])));
    }
    if stream[4] & FLAG_TILED != 0 {
        return decompress_tiled(compressor, stream, pool, scratch, out, cancel);
    }
    let checksummed = stream[4] & FLAG_CHECKSUM != 0;
    let ny = u64::from_le_bytes(stream[5..13].try_into().unwrap());
    let nx = u64::from_le_bytes(stream[13..21].try_into().unwrap());
    let n_blocks = u32::from_le_bytes(stream[21..25].try_into().unwrap()) as usize;
    let ny = usize::try_from(ny).map_err(|_| corrupt("row count overflows usize"))?;
    let nx = usize::try_from(nx).map_err(|_| corrupt("column count overflows usize"))?;
    if ny == 0 || nx == 0 {
        return Err(corrupt("empty field shape"));
    }
    if n_blocks < 2 || n_blocks > ny {
        // The encoder never writes single-block frames (those are raw
        // passthrough streams), so a framed header claiming < 2 blocks is
        // corrupt by construction.
        return Err(corrupt(&format!("block count {n_blocks} invalid for {ny} rows")));
    }
    // The tables themselves must fit before anything sized by them is
    // allocated (a checksummed frame carries two: lengths, then digests).
    let rest = &stream[HEADER_LEN..];
    let per_block = if checksummed { 16 } else { 8 };
    let table_bytes = n_blocks
        .checked_mul(per_block)
        .filter(|&t| t <= rest.len())
        .ok_or_else(|| corrupt(&format!("block table for {n_blocks} blocks exceeds stream")))?;
    let (table, body) = rest.split_at(table_bytes);
    let (length_table, digest_table) = table.split_at(8 * n_blocks);
    let mut lengths = Vec::with_capacity(n_blocks);
    let mut total = 0usize;
    for entry in length_table.chunks_exact(8) {
        let len = u64::from_le_bytes(entry.try_into().unwrap());
        let len = usize::try_from(len).map_err(|_| corrupt("block length overflows usize"))?;
        total = total.checked_add(len).ok_or_else(|| corrupt("block lengths overflow"))?;
        lengths.push(len);
    }
    let digests: Option<Vec<u64>> = checksummed.then(|| {
        digest_table
            .chunks_exact(8)
            .map(|entry| u64::from_le_bytes(entry.try_into().unwrap()))
            .collect()
    });
    if total != body.len() {
        return Err(corrupt(&format!(
            "block lengths sum to {total} but {} payload bytes remain",
            body.len()
        )));
    }
    // Bound the output allocation by the actual payload: even a constant
    // field costs the inner codecs well over one stream byte per 64 Ki
    // cells, so a header claiming more is forged — reject it before
    // `out.resize` turns the claim into memory.
    let cells = ny.checked_mul(nx).ok_or_else(|| corrupt("cell count overflows usize"))?;
    if cells > body.len().saturating_mul(MAX_CELLS_PER_STREAM_BYTE) {
        return Err(corrupt(&format!(
            "claimed {cells} cells exceed the plausible yield of {} payload bytes",
            body.len()
        )));
    }

    // Split the output rows and the payload bytes per block, then decode
    // every block on its own worker: substream → the worker's reusable
    // field (validated against the expected shape) → memcpy into the
    // block's disjoint slice of `out`.
    let ranges = split_ranges(ny, n_blocks);
    out.resize(ny, nx);
    let mut items: Vec<(usize, &[u8], &mut [f64])> = Vec::with_capacity(n_blocks);
    {
        let mut body = body;
        let mut data = out.as_mut_slice();
        for (range, &len) in ranges.iter().zip(&lengths) {
            let (sub, body_rest) = body.split_at(len);
            let (chunk, data_rest) = data.split_at_mut(range.len() * nx);
            items.push((range.len(), sub, chunk));
            body = body_rest;
            data = data_rest;
        }
    }
    let workers = scratch.workers(pool.threads().min(n_blocks));
    let decoded: Vec<Result<(), CompressError>> =
        try_parallel_block_map(pool, workers, items, |worker, b, (rows, sub, chunk)| {
            if expired(cancel) {
                return Err(CompressError::DeadlineExceeded(format!("frame: block {b} abandoned")));
            }
            // Verify the digest before the inner decoder touches the bytes:
            // corruption surfaces as this crisp error, never as a garbled
            // entropy-decode failure (or, worse, a silently wrong field).
            if let Some(digests) = &digests {
                if xxh64(sub, 0) != digests[b] {
                    return Err(CompressError::CorruptStream(format!(
                        "frame: block {b} checksum mismatch"
                    )));
                }
            }
            let block = worker.block.get_or_insert_with(|| Field2D::zeros(1, 1));
            compressor.decompress_view_with(sub, &mut worker.arena, block)?;
            if block.shape() != (rows, nx) {
                return Err(CompressError::CorruptStream(format!(
                    "frame: block {b} decoded to {:?}, expected ({rows}, {nx})",
                    block.shape()
                )));
            }
            chunk.copy_from_slice(block.as_slice());
            Ok(())
        })
        .map_err(job_panic)?;
    decoded.into_iter().collect()
}

/// One tile's decode work item: its rectangle, its compressed bytes, and
/// the disjoint output row segments it writes.
type TileItem<'a> = (Window, &'a [u8], Vec<&'a mut [f64]>);

/// Decode a whole v2 tiled frame: parse the seek index, carve `out` into
/// per-tile disjoint row segments ([`disjoint_window_rows`] — safe
/// `split_at_mut` slicing, no aliasing), and decode every tile on its own
/// worker straight into its rectangle.
fn decompress_tiled(
    compressor: &dyn Compressor,
    stream: &[u8],
    pool: ThreadPoolConfig,
    scratch: &mut FrameScratch,
    out: &mut Field2D,
    cancel: Option<&CancelToken>,
) -> Result<(), CompressError> {
    let index = TiledIndex::parse(stream, stream.len())?;
    let n_tiles = index.n_tiles();
    let windows: Vec<Window> = (0..n_tiles).map(|t| index.tile_window(t)).collect();
    out.resize(index.ny, index.nx);
    let segments = disjoint_window_rows(out.as_mut_slice(), index.nx, &windows);
    let items: Vec<TileItem<'_>> = windows
        .iter()
        .zip(segments)
        .enumerate()
        .map(|(t, (w, segs))| {
            let (at, len) = index.tile_span(t);
            (*w, &stream[at..at + len], segs)
        })
        .collect();
    let digests = index.digests.as_deref();
    let workers = scratch.workers(pool.threads().min(n_tiles));
    let decoded: Vec<Result<(), CompressError>> =
        try_parallel_block_map(pool, workers, items, |worker, t, (win, sub, mut segs)| {
            if expired(cancel) {
                return Err(CompressError::DeadlineExceeded(format!("frame: tile {t} abandoned")));
            }
            if let Some(digests) = digests {
                if xxh64(sub, 0) != digests[t] {
                    return Err(CompressError::CorruptStream(format!(
                        "frame: tile {t} checksum mismatch"
                    )));
                }
            }
            let block = worker.block.get_or_insert_with(|| Field2D::zeros(1, 1));
            compressor.decompress_view_with(sub, &mut worker.arena, block)?;
            if block.shape() != (win.height, win.width) {
                return Err(CompressError::CorruptStream(format!(
                    "frame: tile {t} decoded to {:?}, expected ({}, {})",
                    block.shape(),
                    win.height,
                    win.width
                )));
            }
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

        fn compress_view(
            &self,
            view: &FieldView<'_>,
            bound: ErrorBound,
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

    #[test]
    fn single_block_is_the_raw_stream() {
        let field = ramp(8, 5);
        let bound = ErrorBound::Absolute(1.0);
        let raw = Store.compress_view(&field.view(), bound).unwrap();
        let framed =
            compress_framed_with(&Store, &field.view(), bound, 1, pool(), &mut FrameScratch::new())
                .unwrap();
        assert_eq!(framed, raw, "version-0 passthrough must not add a header");
        assert!(!is_framed(&framed));
        assert_eq!(decompress_framed(&Store, &framed, pool()).unwrap(), field);
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
            assert_eq!(framed[4], FRAME_VERSION);
            let back = decompress_framed(&Store, &framed, pool()).unwrap();
            assert_eq!(back, field, "{blocks} blocks");
        }
    }

    #[test]
    fn expired_deadline_abandons_encode_and_decode() {
        let field = ramp(64, 8);
        let bound = ErrorBound::Absolute(1.0);
        let expired = CancelToken::with_deadline(std::time::Instant::now());
        let err = compress_framed_deadline_with(
            &Store,
            &field.view(),
            bound,
            4,
            pool(),
            &mut FrameScratch::new(),
            &expired,
        )
        .unwrap_err();
        assert!(matches!(err, CompressError::DeadlineExceeded(_)), "{err}");

        let framed =
            compress_framed_with(&Store, &field.view(), bound, 4, pool(), &mut FrameScratch::new())
                .unwrap();
        let mut out = Field2D::zeros(1, 1);
        let err = decompress_framed_deadline_with(
            &Store,
            &framed,
            pool(),
            &mut FrameScratch::new(),
            &mut out,
            &expired,
        )
        .unwrap_err();
        assert!(matches!(err, CompressError::DeadlineExceeded(_)), "{err}");

        // A live token decodes normally through the same entry point.
        let live = CancelToken::new();
        decompress_framed_deadline_with(
            &Store,
            &framed,
            pool(),
            &mut FrameScratch::new(),
            &mut out,
            &live,
        )
        .unwrap();
        assert_eq!(out, field);
    }

    /// Inner compressor that panics on every call: pillar-1 coverage that a
    /// panicking block job surfaces as `CompressError::Internal` instead of
    /// taking down the process.
    struct PanicStore;

    impl Compressor for PanicStore {
        fn name(&self) -> &str {
            "panic-store"
        }

        fn compress_view(
            &self,
            _view: &FieldView<'_>,
            _bound: ErrorBound,
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
        let field = ramp(40, 6);
        let bound = ErrorBound::Absolute(1.0);
        let mut streams = Vec::new();
        for threads in [1, 2, 5] {
            streams.push(
                compress_framed_with(
                    &Store,
                    &field.view(),
                    bound,
                    4,
                    ThreadPoolConfig::with_threads(threads),
                    &mut FrameScratch::new(),
                )
                .unwrap(),
            );
        }
        assert_eq!(streams[0], streams[1]);
        assert_eq!(streams[0], streams[2]);
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
        assert_eq!(decompress_framed(&Store, &framed, pool()).unwrap(), field);
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

        fn compress_view(
            &self,
            view: &FieldView<'_>,
            bound: ErrorBound,
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
        // Poison a row band in the middle: the pipelined assembler must
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
    fn checksummed_frames_roundtrip_and_flag_the_version_byte() {
        let field = ramp(23, 7);
        let bound = ErrorBound::Absolute(1.0);
        for blocks in 2..=8 {
            let mut scratch = FrameScratch::new();
            let framed = compress_framed_checksummed_with(
                &Store,
                &field.view(),
                bound,
                blocks,
                pool(),
                &mut scratch,
            )
            .unwrap();
            assert!(is_framed(&framed), "{blocks} blocks");
            assert_eq!(framed[4], FRAME_VERSION | FLAG_CHECKSUM);
            let back = decompress_framed(&Store, &framed, pool()).unwrap();
            assert_eq!(back, field, "{blocks} blocks");
        }
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
        let summed = compress_framed_checksummed_with(
            &Store,
            &field.view(),
            bound,
            4,
            pool(),
            &mut FrameScratch::new(),
        )
        .unwrap();
        let table_end = HEADER_LEN + 8 * 4;
        assert_eq!(summed[..4], plain[..4]);
        assert_eq!(summed[4], plain[4] | FLAG_CHECKSUM);
        assert_eq!(summed[5..table_end], plain[5..table_end], "header + length table");
        assert_eq!(summed[table_end + 8 * 4..], plain[table_end..], "block payloads");
        // And each digest in the table matches an independent hash of the
        // block bytes it covers.
        let mut block_at = table_end + 8 * 4;
        for b in 0..4 {
            let len =
                u64::from_le_bytes(summed[HEADER_LEN + 8 * b..][..8].try_into().unwrap()) as usize;
            let digest = u64::from_le_bytes(summed[table_end + 8 * b..][..8].try_into().unwrap());
            assert_eq!(
                digest,
                lcc_lossless::xxh64(&summed[block_at..block_at + len], 0),
                "block {b}"
            );
            block_at += len;
        }
    }

    #[test]
    fn checksummed_single_block_is_still_the_raw_stream() {
        let field = ramp(8, 5);
        let bound = ErrorBound::Absolute(1.0);
        let raw = Store.compress_view(&field.view(), bound).unwrap();
        let framed = compress_framed_checksummed_with(
            &Store,
            &field.view(),
            bound,
            1,
            pool(),
            &mut FrameScratch::new(),
        )
        .unwrap();
        assert_eq!(framed, raw, "single-block passthrough must stay unframed");
    }

    #[test]
    fn checksum_catches_payload_corruption() {
        let field = ramp(24, 8);
        let bound = ErrorBound::Absolute(1.0);
        let good = compress_framed_checksummed_with(
            &Store,
            &field.view(),
            bound,
            4,
            pool(),
            &mut FrameScratch::new(),
        )
        .unwrap();
        let body_at = HEADER_LEN + 16 * 4;

        // Flip one payload bit in each block's first byte: the digest check
        // must reject it with the block-naming message. (The Store codec
        // would otherwise happily decode some of these corruptions into a
        // wrong field — the checksum is what catches them.)
        let lengths: Vec<usize> = (0..4)
            .map(|b| {
                u64::from_le_bytes(good[HEADER_LEN + 8 * b..][..8].try_into().unwrap()) as usize
            })
            .collect();
        let mut at = body_at;
        for (b, len) in lengths.iter().enumerate() {
            let mut bad = good.clone();
            bad[at + len - 1] ^= 0x10;
            match decompress_framed(&Store, &bad, pool()) {
                Err(CompressError::CorruptStream(msg)) => {
                    assert_eq!(msg, format!("frame: block {b} checksum mismatch"));
                }
                other => panic!("block {b}: expected checksum mismatch, got {other:?}"),
            }
            at += len;
        }

        // A flipped digest-table bit is equally fatal.
        let mut bad = good.clone();
        bad[HEADER_LEN + 8 * 4] ^= 1;
        assert!(matches!(
            decompress_framed(&Store, &bad, pool()),
            Err(CompressError::CorruptStream(msg)) if msg.contains("checksum mismatch")
        ));

        // The untouched stream still decodes to the original field.
        assert_eq!(decompress_framed(&Store, &good, pool()).unwrap(), field);
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
        assert!(matches!(
            decompress_framed(&Store, &bad, pool()),
            Err(CompressError::CorruptStream(_))
        ));
    }

    #[test]
    fn tiled_single_tile_is_the_raw_stream() {
        // Tile dims >= the field collapse to one tile: the v2 single-tile
        // output must equal the unframed stream, byte for byte.
        let field = ramp(8, 5);
        let bound = ErrorBound::Absolute(1.0);
        let raw = Store.compress_view(&field.view(), bound).unwrap();
        for (ty, tx) in [(8, 5), (100, 100), (8, 9)] {
            let tiled = compress_tiled_with(
                &Store,
                &field.view(),
                bound,
                ty,
                tx,
                pool(),
                &mut FrameScratch::new(),
            )
            .unwrap();
            assert_eq!(tiled, raw, "{ty}x{tx} tiles");
            assert!(!is_framed(&tiled));
        }
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
            let back = decompress_framed(&Store, &tiled, pool()).unwrap();
            assert_eq!(back, field, "{ty}x{tx} tiles");
        }
    }

    #[test]
    fn tiled_checksummed_frames_roundtrip_and_flag_both_bits() {
        let field = ramp(23, 17);
        let bound = ErrorBound::Absolute(1.0);
        let mut scratch = FrameScratch::new();
        let (tiled, cells) = compress_tiled_checksummed_with(
            &Store,
            &field.view(),
            bound,
            8,
            8,
            pool(),
            &mut scratch,
            |tile| tile.len(),
        )
        .unwrap();
        assert_eq!(cells, [64, 64, 8, 64, 64, 8, 56, 56, 7], "one result a tile, in tile order");
        assert_eq!(tiled[4], FRAME_VERSION | FLAG_TILED | FLAG_CHECKSUM);
        assert_eq!(decompress_framed(&Store, &tiled, pool()).unwrap(), field);

        // A flipped payload bit is caught by the per-tile digest.
        let mut bad = tiled.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x08;
        assert!(matches!(
            decompress_framed(&Store, &bad, pool()),
            Err(CompressError::CorruptStream(msg)) if msg.contains("checksum mismatch")
        ));
    }

    #[test]
    fn tiled_stream_is_independent_of_pool_width() {
        let field = ramp(40, 26);
        let bound = ErrorBound::Absolute(1.0);
        let mut streams = Vec::new();
        for threads in [1, 2, 5] {
            streams.push(
                compress_tiled_with(
                    &Store,
                    &field.view(),
                    bound,
                    16,
                    16,
                    ThreadPoolConfig::with_threads(threads),
                    &mut FrameScratch::new(),
                )
                .unwrap(),
            );
        }
        assert_eq!(streams[0], streams[1]);
        assert_eq!(streams[0], streams[2]);
    }

    #[test]
    fn tiled_index_locates_every_tile_exactly() {
        // Each tile's (offset, length) span must decode, on its own, to the
        // matching subfield — the property the archive's seek path rests on.
        let field = ramp(23, 17);
        let bound = ErrorBound::Absolute(1.0);
        let tiled = compress_tiled_with(
            &Store,
            &field.view(),
            bound,
            8,
            8,
            pool(),
            &mut FrameScratch::new(),
        )
        .unwrap();
        let index = TiledIndex::parse(&tiled, tiled.len()).unwrap();
        assert_eq!((index.ny, index.nx), (23, 17));
        assert_eq!((index.tile_ny, index.tile_nx), (8, 8));
        assert_eq!(index.n_tiles(), 9);
        assert_eq!((index.tiles_y(), index.tiles_x()), (3, 3));
        let mut scratch = ScratchArena::new();
        let mut block = Field2D::zeros(1, 1);
        for t in 0..index.n_tiles() {
            let w = index.tile_window(t);
            let (at, len) = index.tile_span(t);
            Store.decompress_view_with(&tiled[at..at + len], &mut scratch, &mut block).unwrap();
            assert_eq!(block, field.subfield(w.i0, w.j0, w.height, w.width), "tile {t}");
        }
        // The two-step prefix parse (header, then exactly table_span bytes)
        // must agree with parsing the whole stream.
        let span = TiledIndex::table_span(&tiled[..TiledIndex::PREFIX_LEN], tiled.len()).unwrap();
        assert_eq!(span, index.body_at);
        assert_eq!(TiledIndex::parse(&tiled[..span], tiled.len()).unwrap(), index);
    }

    #[test]
    fn tiled_index_tiles_overlapping_matches_geometry() {
        let field = ramp(23, 17);
        let tiled = compress_tiled_with(
            &Store,
            &field.view(),
            ErrorBound::Absolute(1.0),
            8,
            8,
            pool(),
            &mut FrameScratch::new(),
        )
        .unwrap();
        let index = TiledIndex::parse(&tiled, tiled.len()).unwrap();
        // One interior cell: exactly one tile.
        let tiles = |w: Window| index.tiles_overlapping(&w).collect::<Vec<_>>();
        assert_eq!(tiles(Window { i0: 9, j0: 9, height: 1, width: 1 }), [4]);
        // A window crossing both seams: the 2x2 tile block around it.
        assert_eq!(tiles(Window { i0: 6, j0: 6, height: 4, width: 4 }), [0, 1, 3, 4]);
        // The whole field: every tile.
        assert_eq!(
            tiles(Window { i0: 0, j0: 0, height: 23, width: 17 }),
            (0..9).collect::<Vec<_>>()
        );
        // Entirely outside: none.
        assert!(tiles(Window { i0: 23, j0: 0, height: 4, width: 4 }).is_empty());
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
            decompress_framed(&Store, &bad, pool()),
            Err(CompressError::CorruptStream(msg)) if msg.contains("does not cover")
        ));

        // Zero tile dims in the header.
        let mut bad = good.clone();
        bad[25..29].copy_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            decompress_framed(&Store, &bad, pool()),
            Err(CompressError::CorruptStream(msg)) if msg.contains("tile shape")
        ));

        // Overflowing tile length in the seek index.
        let mut bad = good.clone();
        bad[33..41].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(decompress_framed(&Store, &bad, pool()).is_err());

        // Truncated stream: lengths no longer reach the end of the frame.
        assert!(decompress_framed(&Store, &good[..good.len() - 3], pool()).is_err());

        // An unknown flag bit on a tiled frame is an unsupported version.
        let mut bad = good.clone();
        bad[4] |= 0x80;
        assert!(matches!(
            decompress_framed(&Store, &bad, pool()),
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
        assert!(matches!(
            decompress_framed(&Store, &bad, pool()),
            Err(CompressError::CorruptStream(_))
        ));

        // The untouched stream still decodes.
        assert_eq!(decompress_framed(&Store, &good, pool()).unwrap(), field);
    }

    #[test]
    fn corrupt_frames_are_rejected() {
        let field = ramp(24, 8);
        let bound = ErrorBound::Absolute(1.0);
        let good =
            compress_framed_with(&Store, &field.view(), bound, 4, pool(), &mut FrameScratch::new())
                .unwrap();

        // Bad version byte.
        let mut bad = good.clone();
        bad[4] = 9;
        assert!(matches!(
            decompress_framed(&Store, &bad, pool()),
            Err(CompressError::CorruptStream(_))
        ));

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
        assert!(matches!(
            decompress_framed(&Store, &bad, pool()),
            Err(CompressError::CorruptStream(_))
        ));

        // Block count exceeding the row count.
        let mut bad = good.clone();
        bad[21..25].copy_from_slice(&100u32.to_le_bytes());
        assert!(decompress_framed(&Store, &bad, pool()).is_err());

        // Overflowing block length.
        let mut bad = good.clone();
        bad[25..33].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(decompress_framed(&Store, &bad, pool()).is_err());

        // Lengths that no longer sum to the payload.
        let mut bad = good.clone();
        let first = u64::from_le_bytes(bad[25..33].try_into().unwrap());
        bad[25..33].copy_from_slice(&(first - 1).to_le_bytes());
        assert!(decompress_framed(&Store, &bad, pool()).is_err());

        // Truncated payload.
        assert!(decompress_framed(&Store, &good[..good.len() - 3], pool()).is_err());

        // Zero blocks.
        let mut bad = good;
        bad[21..25].copy_from_slice(&0u32.to_le_bytes());
        assert!(decompress_framed(&Store, &bad, pool()).is_err());
    }
}
