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
//! [`compress_frame`], which takes the tile shape and a per-run hook; the
//! plain encoders are one-line calls into it, and
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
//! field once is an ordinary frame of one block, header and digest included.
//!
//! ## Layout
//!
//! Blocks are `tile_ny × tile_nx` rectangles covering the field in
//! row-major tile order (exactly [`lcc_grid::WindowIter::over`]'s tiling,
//! edge tiles clipped):
//!
//! ```text
//! offset  size        field
//! 0       4           magic  b"LCCF"
//! 4       1           version byte FRAME_VERSION (0x61)
//! 5       8           ny  (u64 LE, total rows)
//! 13      8           nx  (u64 LE, columns)
//! 21      4           n_blocks (u32 LE, == tiles_y * tiles_x)
//! 25      4           tile_ny (u32 LE)
//! 29      4           tile_nx (u32 LE)
//! 33      8*n_blocks  per-tile compressed byte length (u64 LE each)
//! …       8*n_blocks  per-tile XXH64 digest (seed 0) of its stream
//! …       …           the n_blocks tile streams, concatenated
//! ```
//!
//! Because block order is fixed, the length table doubles as a **seek
//! index**: prefix-summing it locates any block's bytes without touching
//! the rest of the stream. [`FrameIndex`] is that index, which is what
//! archive-style region readers use to decode only the tiles overlapping a
//! query window. Any other version byte — the retired frames without a
//! digest table (`0x21`) or a tile shape (`0x01` / `0x41`) among them
//! (`FORMAT.md`) — is refused by value.
//!
//! ## Encoding
//!
//! The encoder does not wait for every block before assembling the frame:
//! it reserves the header and zeroed length and digest tables up front,
//! and each block's worker appends the block's bytes, backfilling its table
//! slots, the moment all earlier blocks have landed — later blocks are still
//! encoding while early ones are copied into place. The produced bytes are
//! those of a barrier-then-concatenate assembly and do not depend on the
//! pool's width. Each block's compressed bytes are hashed
//! ([`lcc_lossless::xxh64`]) on the worker that encoded them.
//!
//! ## Decoding
//!
//! [`decompress_framed_with`] reads frames only: a stream without the
//! `LCCF` magic — an inner compressor's single stream among them — is
//! refused. Single streams are read by [`Compressor::decompress_view_with`].
//!
//! Every frame goes through one parser, [`FrameIndex::parse`], which
//! refuses — before anything sized by a header claim is allocated — any
//! version byte but `0x61`, a tile shape that is empty or larger than the
//! field, a block count different from the tile cover, tables that do not
//! fit the stream, block lengths that overflow or do not sum exactly to the
//! body, and a cell count implausible for the body's bytes.
//! Then every block goes through [`FrameIndex::decode_block`] on a worker:
//! its digest is verified *before* the inner decoder touches the bytes (so
//! bit corruption is a [`CompressError::CorruptStream`] naming the block,
//! never a garbled entropy-decode failure or a silently wrong field), and
//! the decoded shape is checked against the block's window; the rows are
//! then copied into the block's disjoint segments of the output.

use crate::codes::Reader;
use crate::{validate_finite_view, CompressError, Compressor, ErrorBound, ScratchArena};
use lcc_grid::{disjoint_window_rows, Field2D, FieldView, Window};
use lcc_lossless::xxh64;
use lcc_par::{try_parallel_block_map, JobPanicked, ThreadPoolConfig};
use std::sync::Mutex;

/// A panicking block job, isolated per job by `lcc_par`, surfaces as an
/// internal error instead of aborting the process.
fn job_panic(err: JobPanicked) -> CompressError {
    CompressError::Internal(format!("frame: {err}"))
}

fn corrupt(msg: &str) -> CompressError {
    CompressError::CorruptStream(format!("frame: {msg}"))
}

/// Magic prefix of every frame.
pub const FRAME_MAGIC: [u8; 4] = *b"LCCF";
/// The version byte of every frame: blocks are `tile_ny × tile_nx` tiles
/// in row-major tile order, the header carries the tile shape, and the
/// length table is followed by a per-block XXH64 digest table, verified
/// before each block decodes.
pub const FRAME_VERSION: u8 = 0x61;

/// Fixed header bytes: magic, version byte, shape, block count, tile shape.
const HEADER_LEN: usize = 4 + 1 + 8 + 8 + 4 + 4 + 4;
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
    /// Length of the last frame encoded through this scratch:
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
/// a per-run hook.
pub fn compress_tiled_with(
    compressor: &dyn Compressor,
    view: &FieldView<'_>,
    bound: ErrorBound,
    tile_ny: usize,
    tile_nx: usize,
    pool: ThreadPoolConfig,
    scratch: &mut FrameScratch,
) -> Result<Vec<u8>, CompressError> {
    compress_frame(compressor, view, bound, (tile_ny, tile_nx), pool, scratch, |_, _: &mut [()]| {})
        .map(|(frame, _)| frame)
}

/// Most tiles one job of [`compress_frame`] encodes and hands to its hook
/// together (the run length).
pub const RUN: usize = lcc_grid::stats::SIDE_BY_SIDE;

/// Compress a view as a frame of `tile_ny × tile_nx` tiles (each dimension
/// clamped to the field's; zero is [`CompressError::InvalidInput`]),
/// encoded in parallel over `pool` with per-worker arenas from `scratch` —
/// the general encoder behind [`compress_framed_with`] and
/// [`compress_tiled_with`]. The frame carries a per-tile XXH64 digest
/// table, so a decoder refuses a damaged tile before decoding it; a tile
/// shape that covers the field once writes a frame of one tile. The
/// produced stream is independent of the pool width. A
/// [`ErrorBound::ValueRangeRelative`] bound is relative to the whole
/// field's range: every tile is coded at the absolute bound it resolves
/// to.
///
/// One job is a **run**: up to [`RUN`] side-by-side tiles of one tile row,
/// all of the same shape (a clipped last tile of a row is a run of its
/// own). The job encodes the run's tiles in order, then hands their views
/// to `per_run` together with the run's slots of the result, on the worker
/// that has just encoded them; the slots come back in block order beside
/// the frame. This is the hook by which an archive computes per-tile
/// metadata while the tiles are still in that core's cache, instead of in a
/// later pass over the field, and several tiles at once. A panic in it is
/// caught like one in the encoder and fails the frame with
/// [`CompressError::Internal`].
pub fn compress_frame<R: Send + Default>(
    compressor: &dyn Compressor,
    view: &FieldView<'_>,
    bound: ErrorBound,
    (tile_ny, tile_nx): (usize, usize),
    pool: ThreadPoolConfig,
    scratch: &mut FrameScratch,
    per_run: impl Fn(&[FieldView<'_>], &mut [R]) + Sync,
) -> Result<(Vec<u8>, Vec<R>), CompressError> {
    if tile_ny == 0 || tile_nx == 0 {
        return Err(CompressError::InvalidInput("tile dimensions must be non-zero".into()));
    }
    let (ny, nx) = view.shape();
    let (tile_ny, tile_nx) = (tile_ny.min(ny), tile_nx.min(nx));
    let tiles_x = nx.div_ceil(tile_nx);
    let n_blocks = ny.div_ceil(tile_ny) * tiles_x;
    let mut results: Vec<R> = Vec::new();
    results.resize_with(n_blocks, R::default);
    // A relative bound is the field's, not each tile's: resolve it once,
    // against the whole view. Non-finite input is refused first, as a tile
    // would refuse it, rather than read as an infinite range.
    let bound = match bound {
        ErrorBound::Absolute(_) => bound,
        ErrorBound::ValueRangeRelative(_) => {
            validate_finite_view(view)?;
            ErrorBound::Absolute(bound.absolute_for_view(view)?)
        }
    };
    // Each run is its first block and its slots of `results`: the full
    // tiles of a row in chunks of `RUN`, then a clipped last tile alone.
    let full_x = nx / tile_nx;
    let mut runs = Vec::with_capacity(ny.div_ceil(tile_ny) * (full_x.div_ceil(RUN) + 1));
    for (row, slots) in results.chunks_mut(tiles_x).enumerate() {
        let (full, clipped) = slots.split_at_mut(full_x);
        let mut first = row * tiles_x;
        for run in full.chunks_mut(RUN).chain((!clipped.is_empty()).then_some(clipped)) {
            let len = run.len();
            runs.push((first, run));
            first += len;
        }
    }
    let n_runs = runs.len();

    // The fixed header, then zeroed length and digest tables to backfill,
    // in a buffer with room for a frame as long as the last one.
    let mut out = Vec::with_capacity(HEADER_LEN.max(scratch.frame_len));
    out.extend_from_slice(&FRAME_MAGIC);
    out.push(FRAME_VERSION);
    out.extend_from_slice(&(ny as u64).to_le_bytes());
    out.extend_from_slice(&(nx as u64).to_le_bytes());
    out.extend_from_slice(&(n_blocks as u32).to_le_bytes());
    out.extend_from_slice(&(tile_ny as u32).to_le_bytes());
    out.extend_from_slice(&(tile_nx as u32).to_le_bytes());
    out.resize(HEADER_LEN + 16 * n_blocks, 0);
    let assembler = Mutex::new(FrameAssembler {
        out,
        next: 0,
        pending: (0..n_blocks).map(|_| None).collect(),
        error: None,
    });

    let workers = scratch.workers(pool.threads().min(n_runs));
    try_parallel_block_map(pool, workers, runs, |worker, _, (first, slots)| {
        let mut tiles = [*view; RUN];
        for (k, tile) in tiles[..slots.len()].iter_mut().enumerate() {
            let b = first + k;
            let (i0, j0) = (b / tiles_x * tile_ny, b % tiles_x * tile_nx);
            *tile = view.subview(i0, j0, tile_ny, tile_nx);
            // The digest is computed here, on the encoding worker, so
            // hashing of one block overlaps with encoding of the others.
            let result = compressor
                .compress_view_with(tile, bound, &mut worker.arena)
                .map(|stream| (xxh64(&stream, 0), stream));
            let encoded = result.is_ok();
            assembler.lock().unwrap_or_else(|poisoned| poisoned.into_inner()).submit(b, result);
            if !encoded {
                return;
            }
        }
        per_run(&tiles[..slots.len()], slots);
    })
    .map_err(job_panic)?;

    let assembler = assembler.into_inner().unwrap_or_else(|poisoned| poisoned.into_inner());
    match assembler.error {
        Some(error) => Err(error),
        None => {
            debug_assert_eq!(assembler.next, n_blocks, "every block was appended");
            scratch.frame_len = assembler.out.len();
            Ok((assembler.out, results))
        }
    }
}

/// In-order assembly state of a frame under construction: the
/// output already holds the header and the reserved (zeroed) tables; blocks
/// arriving out of order park in `pending` until their turn.
struct FrameAssembler {
    out: Vec<u8>,
    /// Next block index to append.
    next: usize,
    /// Digests and encoded streams of blocks that finished before their
    /// predecessors, one slot a block.
    pending: Vec<Option<(u64, Vec<u8>)>>,
    /// First compression error observed (the frame is abandoned).
    error: Option<CompressError>,
}

impl FrameAssembler {
    /// Record one block's encode result: append it (and any unblocked
    /// successors) to the stream, backfilling its length and digest slots.
    fn submit(&mut self, block: usize, result: Result<(u64, Vec<u8>), CompressError>) {
        match result {
            Err(error) => {
                if self.error.is_none() {
                    self.error = Some(error);
                }
            }
            Ok(entry) => {
                self.pending[block] = Some(entry);
                while let Some((digest, stream)) =
                    self.pending.get_mut(self.next).and_then(Option::take)
                {
                    let slot = HEADER_LEN + 8 * self.next;
                    self.out[slot..slot + 8].copy_from_slice(&(stream.len() as u64).to_le_bytes());
                    let slot = slot + 8 * self.pending.len();
                    self.out[slot..slot + 8].copy_from_slice(&digest.to_le_bytes());
                    self.out.extend_from_slice(&stream);
                    self.next += 1;
                }
            }
        }
    }
}

/// The fixed header of a frame, as written.
struct FrameHeader {
    ny: u64,
    nx: u64,
    n_blocks: usize,
    tile: (usize, usize),
}

impl FrameHeader {
    /// Read the header from a frame's first [`HEADER_LEN`] bytes, after
    /// checking the magic and the version byte.
    fn read(prefix: &[u8]) -> Result<FrameHeader, CompressError> {
        if prefix.len() < HEADER_LEN || prefix[..4] != FRAME_MAGIC {
            return Err(corrupt("header truncated or missing magic"));
        }
        if prefix[4] != FRAME_VERSION {
            return Err(corrupt(&format!("unsupported version byte {:#04x}", prefix[4])));
        }
        let mut r = Reader::new(&prefix[5..HEADER_LEN]);
        Ok(FrameHeader {
            ny: r.u64()?,
            nx: r.u64()?,
            n_blocks: r.u32()? as usize,
            tile: (r.u32()? as usize, r.u32()? as usize),
        })
    }
}

/// Parsed header + seek index of a frame: everything a reader needs to
/// locate one block's compressed bytes, the window of the field it decodes
/// to, and to decode it, without touching the rest of the stream. Parsing
/// consumes only the frame's leading bytes — read
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
    /// Tile height and width, edge tiles clipped.
    pub tile: (usize, usize),
    /// Byte offset of every block within the frame, then the frame's length.
    offsets: Vec<usize>,
    /// Per-block XXH64 digest of the block's bytes.
    digests: Vec<u64>,
}

impl FrameIndex {
    /// Bytes of a frame a reader must fetch before
    /// [`table_span`](Self::table_span) can size the rest of the prefix.
    pub const PREFIX_LEN: usize = HEADER_LEN;

    /// Total header + table span (in bytes) of the frame whose first
    /// [`PREFIX_LEN`](Self::PREFIX_LEN) bytes are `prefix`, validated against
    /// the total frame length so a forged block count cannot demand more
    /// bytes than the frame holds.
    pub fn table_span(prefix: &[u8], frame_len: usize) -> Result<usize, CompressError> {
        let n_blocks = FrameHeader::read(prefix)?.n_blocks;
        n_blocks
            .checked_mul(16)
            .and_then(|t| t.checked_add(HEADER_LEN))
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
        let FrameHeader { ny, nx, n_blocks, tile: (tile_ny, tile_nx) } = FrameHeader::read(prefix)?;
        let ny = usize::try_from(ny).map_err(|_| corrupt("row count overflows usize"))?;
        let nx = usize::try_from(nx).map_err(|_| corrupt("column count overflows usize"))?;
        if ny == 0 || nx == 0 {
            return Err(corrupt("empty field shape"));
        }
        if tile_ny == 0 || tile_nx == 0 || tile_ny > ny || tile_nx > nx {
            return Err(corrupt(&format!(
                "tile shape {tile_ny}x{tile_nx} invalid for a {ny}x{nx} field"
            )));
        }
        // Every frame holds exactly one block per tile of the cover, so any
        // other count is corrupt by construction.
        let tiles = ny
            .div_ceil(tile_ny)
            .checked_mul(nx.div_ceil(tile_nx))
            .ok_or_else(|| corrupt("tile count overflows usize"))?;
        if n_blocks != tiles {
            return Err(corrupt(&format!(
                "tile count {n_blocks} does not cover a {ny}x{nx} field \
                 with {tile_ny}x{tile_nx} tiles (expected {tiles})"
            )));
        }
        // The length table, then the digest table: `span` holds both.
        let mut tables = Reader::new(&prefix[HEADER_LEN..span]);
        let mut offsets = Vec::with_capacity(n_blocks + 1);
        let mut at = span;
        for _ in 0..n_blocks {
            let len = usize::try_from(tables.u64()?)
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
        let digests = (0..n_blocks).map(|_| tables.u64()).collect::<Result<_, _>>()?;
        Ok(FrameIndex { ny, nx, tile: (tile_ny, tile_nx), offsets, digests })
    }

    /// Number of blocks.
    pub fn n_blocks(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The field rectangle block `b` decodes to.
    pub fn block_window(&self, b: usize) -> Window {
        let (tile_ny, tile_nx) = self.tile;
        let tiles_x = self.nx.div_ceil(tile_nx);
        let (i0, j0) = (b / tiles_x * tile_ny, b % tiles_x * tile_nx);
        let (height, width) = (tile_ny.min(self.ny - i0), tile_nx.min(self.nx - j0));
        Window { i0, j0, height, width }
    }

    /// `(offset, length)` of block `b`'s compressed bytes within the frame.
    pub fn block_span(&self, b: usize) -> (usize, usize) {
        (self.offsets[b], self.offsets[b + 1] - self.offsets[b])
    }

    /// Decode block `b` from its compressed `bytes` into `worker.block` and
    /// return it — the block step of [`decompress_framed_with`] and of the
    /// archive's region reads. The block's digest is verified before the
    /// inner decoder touches the bytes, and the decoded shape must
    /// be [`block_window`](Self::block_window)`(b)`'s; either failure is a
    /// [`CompressError::CorruptStream`] naming the block.
    pub fn decode_block<'w>(
        &self,
        b: usize,
        bytes: &[u8],
        compressor: &dyn Compressor,
        worker: &'w mut FrameWorker,
    ) -> Result<&'w Field2D, CompressError> {
        if xxh64(bytes, 0) != self.digests[b] {
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

/// Decompress a frame into `out`, resized to the decoded shape, decoding
/// blocks in parallel over `pool` with per-worker arenas and reusable block
/// fields from `scratch`; the module docs list what it refuses. `out` holds
/// unspecified contents after an error.
pub fn decompress_framed_with(
    compressor: &dyn Compressor,
    stream: &[u8],
    pool: ThreadPoolConfig,
    scratch: &mut FrameScratch,
    out: &mut Field2D,
) -> Result<(), CompressError> {
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
    fn tiled(field: &Field2D, (ty, tx): (usize, usize)) -> Vec<u8> {
        let (bound, scratch) = (ErrorBound::Absolute(1.0), &mut FrameScratch::new());
        compress_tiled_with(&Store, &field.view(), bound, ty, tx, pool(), scratch).unwrap()
    }

    /// Byte offset of the length-table entry of block `b`; `b = n_blocks`
    /// is the digest table's first entry.
    fn length_slot(frame: &[u8], b: usize) -> usize {
        let index = FrameIndex::parse(frame, frame.len()).unwrap();
        index.block_span(0).0 - 16 * index.n_blocks() + 8 * b
    }

    #[test]
    fn single_block_is_the_raw_stream() {
        // Blocks or tile dims that cover the field once collapse to one
        // block: a frame like any other, whose one block is the unframed
        // stream, byte for byte, under its length and digest.
        let field = ramp(8, 5);
        let bound = ErrorBound::Absolute(1.0);
        let raw = Store.compress_view(&field.view(), bound).unwrap();
        let mut want = FRAME_MAGIC.to_vec();
        want.push(FRAME_VERSION);
        want.extend_from_slice(&8u64.to_le_bytes());
        want.extend_from_slice(&5u64.to_le_bytes());
        for word in [1u32, 8, 5] {
            want.extend_from_slice(&word.to_le_bytes());
        }
        want.extend_from_slice(&(raw.len() as u64).to_le_bytes());
        want.extend_from_slice(&xxh64(&raw, 0).to_le_bytes());
        want.extend_from_slice(&raw);
        let framed =
            compress_framed_with(&Store, &field.view(), bound, 1, pool(), &mut FrameScratch::new())
                .unwrap();
        assert_eq!(framed, want, "one block: header, length, digest, stream");
        assert_eq!(decode(&Store, &framed).unwrap(), field);
        for (ty, tx) in [(8, 5), (100, 100), (8, 9)] {
            assert_eq!(tiled(&field, (ty, tx)), want, "{ty}x{tx} tiles");
        }
        // The frame decoder reads frames only: the unframed stream is refused
        // as one without the magic, and so is a one-block frame whose stream
        // no longer matches its digest.
        let missing =
            Err(CompressError::CorruptStream("frame: header truncated or missing magic".into()));
        assert_eq!(decode(&Store, &raw), missing);
        let mut bad = framed.clone();
        *bad.last_mut().unwrap() ^= 1;
        let mismatch = Err(CompressError::CorruptStream("frame: block 0 checksum mismatch".into()));
        assert_eq!(decode(&Store, &bad), mismatch);
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
            assert_eq!(framed[..4], FRAME_MAGIC, "{blocks} blocks");
            assert_eq!(framed[4], FRAME_VERSION);
            let index = FrameIndex::parse(&framed, framed.len()).unwrap();
            assert_eq!(index.tile, (23usize.div_ceil(blocks), 7), "{blocks} blocks");
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
    fn the_frame_is_its_header_tables_and_block_streams() {
        // The layout of the module docs, assembled by hand from each
        // tile's stand-alone stream: header, lengths, digests, streams.
        let field = ramp(40, 6);
        let bound = ErrorBound::Absolute(1.0);
        let framed =
            compress_framed_with(&Store, &field.view(), bound, 4, pool(), &mut FrameScratch::new())
                .unwrap();
        let streams: Vec<Vec<u8>> = (0..4)
            .map(|b| Store.compress_view(&field.view().subview(10 * b, 0, 10, 6), bound).unwrap())
            .collect();
        let mut want = FRAME_MAGIC.to_vec();
        want.push(0x61);
        want.extend_from_slice(&40u64.to_le_bytes());
        want.extend_from_slice(&6u64.to_le_bytes());
        for word in [4u32, 10, 6] {
            want.extend_from_slice(&word.to_le_bytes());
        }
        for stream in &streams {
            want.extend_from_slice(&(stream.len() as u64).to_le_bytes());
        }
        for stream in &streams {
            want.extend_from_slice(&xxh64(stream, 0).to_le_bytes());
        }
        want.extend(streams.concat());
        assert_eq!(framed, want);
    }

    #[test]
    fn checksum_catches_payload_corruption() {
        let field = ramp(24, 8);
        for good in [tiled(&field, (6, 8)), tiled(&field, (8, 3))] {
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
    fn header_too_short_for_both_tables_is_rejected() {
        // A forged header claiming 200 blocks over bytes that would hold
        // their lengths but not their digests too must fail the early size
        // check.
        let mut bad = Vec::new();
        bad.extend_from_slice(&FRAME_MAGIC);
        bad.push(FRAME_VERSION);
        bad.extend_from_slice(&1000u64.to_le_bytes());
        bad.extend_from_slice(&8u64.to_le_bytes());
        bad.extend_from_slice(&200u32.to_le_bytes());
        bad.extend_from_slice(&5u32.to_le_bytes());
        bad.extend_from_slice(&8u32.to_le_bytes());
        bad.extend_from_slice(&[0u8; 8 * 200]);
        assert!(matches!(
            decode(&Store, &bad),
            Err(CompressError::CorruptStream(msg)) if msg.contains("exceeds stream")
        ));
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
            assert_eq!(tiled[..4], FRAME_MAGIC, "{ty}x{tx}");
            assert_eq!(tiled[4], FRAME_VERSION, "{ty}x{tx}");
            let back = decode(&Store, &tiled).unwrap();
            assert_eq!(back, field, "{ty}x{tx} tiles");
        }
    }

    #[test]
    fn the_hook_returns_one_result_a_tile_in_tile_order() {
        let field = ramp(23, 17);
        let bound = ErrorBound::Absolute(1.0);
        let scratch = &mut FrameScratch::new();
        let (frame, cells) =
            compress_frame(&Store, &field.view(), bound, (8, 8), pool(), scratch, cell_counts)
                .unwrap();
        assert_eq!(cells, [64, 64, 8, 64, 64, 8, 56, 56, 7]);
        assert_eq!(frame, tiled(&field, (8, 8)), "the hook leaves the bytes alone");
        assert_eq!(decode(&Store, &frame).unwrap(), field);
    }

    /// A per-run hook that stores each tile's cell count in its slot.
    fn cell_counts(tiles: &[FieldView<'_>], slots: &mut [usize]) {
        for (tile, slot) in tiles.iter().zip(slots) {
            *slot = tile.len();
        }
    }

    #[test]
    fn runs_are_up_to_eight_equal_tiles_of_one_row() {
        // 10 × 43 in 4 × 5 tiles: each of the three tile rows holds eight
        // full tiles and a clipped 3-wide one, the last row 2 high.
        let field = ramp(10, 43);
        let bound = ErrorBound::Absolute(1.0);
        for threads in [1, 3] {
            let runs = Mutex::new(Vec::new());
            let (frame, cells) = compress_frame(
                &Store,
                &field.view(),
                bound,
                (4, 5),
                ThreadPoolConfig::with_threads(threads),
                &mut FrameScratch::new(),
                |tiles: &[FieldView<'_>], slots: &mut [usize]| {
                    let shapes: Vec<_> = tiles.iter().map(FieldView::shape).collect();
                    runs.lock().unwrap().push((tiles[0].at(0, 0), shapes));
                    cell_counts(tiles, slots);
                },
            )
            .unwrap();
            let mut runs = runs.into_inner().unwrap();
            runs.sort_by(|a, b| a.0.total_cmp(&b.0));
            let expected: Vec<_> = [(0, 4), (4, 4), (8, 2)]
                .into_iter()
                .flat_map(|(i0, h)| {
                    [(field.at(i0, 0), vec![(h, 5); 8]), (field.at(i0, 40), vec![(h, 3)])]
                })
                .collect();
            assert_eq!(runs, expected, "width {threads}");
            let want: Vec<usize> = [4, 4, 2]
                .into_iter()
                .flat_map(|h| std::iter::repeat_n(5 * h, 8).chain([3 * h]))
                .collect();
            assert_eq!(cells, want, "width {threads}");
            assert_eq!(decode(&Store, &frame).unwrap(), field);
        }
    }

    #[test]
    fn the_index_locates_every_block_exactly() {
        // Each block's (offset, length) span must decode, on its own, to the
        // matching window of the field — the property the archive's seek
        // path and the one decode loop rest on.
        let field = ramp(23, 17);
        for (tile, n_blocks) in [((8, 8), 9), ((6, 17), 4), ((1, 17), 23)] {
            let frame = tiled(&field, tile);
            let what = format!("{n_blocks} blocks");
            let index = FrameIndex::parse(&frame, frame.len()).unwrap();
            assert_eq!((index.ny, index.nx, index.tile), (23, 17, tile), "{what}");
            assert_eq!(index.n_blocks(), n_blocks, "{what}");
            let mut worker = FrameWorker::default();
            let mut cells = 0;
            for b in 0..index.n_blocks() {
                let w = index.block_window(b);
                let (at, len) = index.block_span(b);
                let bytes = &frame[at..at + len];
                assert_eq!(index.digests[b], xxh64(bytes, 0), "{what}");
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

    #[test]
    fn decode_block_refuses_a_block_of_the_wrong_shape() {
        // Block 0's bytes stand in for the shorter last tile, under a digest
        // that vouches for them: the shape check names the block instead of
        // copying a wrong-sized field.
        let field = ramp(10, 3);
        let frame = tiled(&field, (3, 3));
        let mut index = FrameIndex::parse(&frame, frame.len()).unwrap();
        index.digests[3] = index.digests[0];
        let (at, len) = index.block_span(0);
        let mut worker = FrameWorker::default();
        let err = index.decode_block(3, &frame[at..at + len], &Store, &mut worker).unwrap_err();
        let want = "frame: block 3 decoded to (3, 3), expected (1, 3)";
        assert_eq!(err, CompressError::CorruptStream(want.into()));
    }

    #[test]
    fn corrupt_frames_are_rejected() {
        let field = ramp(23, 17);
        let bound = ErrorBound::Absolute(1.0);
        let good = tiled(&field, (8, 8));
        let refused = |bad: &[u8], names: &str| {
            let result = decode(&Store, bad);
            assert!(
                matches!(&result, Err(CompressError::CorruptStream(msg)) if msg.contains(names)),
                "expected a refusal naming {names:?}, got {result:?}"
            );
        };

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

        // Any version byte but 0x61: a stray high bit, a version number no
        // encoder wrote, and the retired forms — the frame without its
        // digest table (0x21), and a frame of full-width tiles without the
        // tile shape in its header (0x01 without digests, 0x41 with them).
        for version in [FRAME_VERSION | 0x80, 9] {
            let mut bad = good.clone();
            bad[4] = version;
            refused(&bad, &format!("unsupported version byte {version:#04x}"));
        }
        // (version byte, without the digest table, without the tile shape)
        for (version, no_digests, no_tile) in
            [(0x21, true, false), (0x01, true, true), (0x41, false, true)]
        {
            let mut retired = tiled(&field, (6, 17));
            retired[4] = version;
            if no_digests {
                retired.drain(HEADER_LEN + 8 * 4..HEADER_LEN + 16 * 4);
            }
            if no_tile {
                retired.drain(25..HEADER_LEN);
            }
            refused(&retired, &format!("unsupported version byte {version:#04x}"));
        }

        // Tile dims that don't cover the field: claimed 4x4 tiling of a
        // 23x17 field needs 30 tiles, but the header still says 9.
        let mut bad = good.clone();
        bad[25..29].copy_from_slice(&4u32.to_le_bytes());
        bad[29..33].copy_from_slice(&4u32.to_le_bytes());
        refused(&bad, "does not cover");

        // Zero blocks, and zero tile dims in the header.
        let mut bad = good.clone();
        bad[21..25].copy_from_slice(&0u32.to_le_bytes());
        refused(&bad, "does not cover");
        let mut bad = good.clone();
        bad[25..29].copy_from_slice(&0u32.to_le_bytes());
        refused(&bad, "tile shape");

        // A forged header claims 200 blocks but only a few table bytes
        // follow — must fail before allocating anything sized by the claim.
        let mut bad = good[..HEADER_LEN + 10].to_vec();
        bad[21..25].copy_from_slice(&200u32.to_le_bytes());
        refused(&bad, "exceeds stream");

        // Overflowing tile length in the seek index, and lengths that no
        // longer sum to the payload.
        let slot = length_slot(&good, 0);
        let mut bad = good.clone();
        bad[slot..slot + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        refused(&bad, "block lengths overflow");
        let mut bad = good.clone();
        let first = u64::from_le_bytes(bad[slot..slot + 8].try_into().unwrap());
        bad[slot..slot + 8].copy_from_slice(&(first - 1).to_le_bytes());
        refused(&bad, "block lengths end at byte");

        // Truncated stream: lengths no longer reach the end of the frame.
        refused(&good[..good.len() - 3], "block lengths end at byte");

        // A forged header claiming a huge field over a tiny payload trips
        // the allocation guard before `out` is sized.
        let mut bad = Vec::new();
        bad.extend_from_slice(&FRAME_MAGIC);
        bad.push(FRAME_VERSION);
        bad.extend_from_slice(&(1u64 << 32).to_le_bytes());
        bad.extend_from_slice(&(1u64 << 16).to_le_bytes());
        bad.extend_from_slice(&2u32.to_le_bytes());
        bad.extend_from_slice(&(1u32 << 31).to_le_bytes());
        bad.extend_from_slice(&(1u32 << 16).to_le_bytes());
        for len in [8u64, 8] {
            bad.extend_from_slice(&len.to_le_bytes());
        }
        bad.extend_from_slice(&[0u8; 16 + 16]);
        refused(&bad, "plausible yield");

        // The untouched stream still decodes.
        assert_eq!(decode(&Store, &good).unwrap(), field);
    }
}
