//! Magic-detected archive reader with seek-only region decode.

use crate::cache::{Lookup, TileCache, TileKey};
use crate::format::{
    parse_entry, ArchiveEntry, ARCHIVE_MAGIC, ARCHIVE_VERSION, FOOTER_LEN, HEAD_LEN,
    MIN_ENTRY_RECORD,
};
use lcc_grid::{disjoint_window_rows, Field2D, FieldView, Window};
use lcc_par::{try_parallel_block_map, JobPanicked, ThreadPoolConfig};
use lcc_pressio::codes::Reader;
use lcc_pressio::frame::{decompress_framed_with, FrameWorker};
use lcc_pressio::{CompressError, Compressor, FrameIndex, FrameScratch};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Positioned reads over an archive byte source. Implementations exist for
/// in-memory buffers and (on unix) `std::fs::File`, and the trait is the
/// seam where mmap or remote blob backends plug in. `Sync` because region
/// reads fan tile fetches out across the pool.
pub trait ReadAt: Sync {
    /// Total length of the source in bytes.
    fn len(&self) -> u64;

    /// Fill `buf` from `offset`; a short source is an error, not a partial
    /// read.
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<(), CompressError>;

    /// True when the source holds no bytes.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl ReadAt for Vec<u8> {
    fn len(&self) -> u64 {
        self.as_slice().len() as u64
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<(), CompressError> {
        let at = usize::try_from(offset).ok().filter(|&at| at <= self.as_slice().len());
        match at.and_then(|at| self.as_slice().get(at..at + buf.len())) {
            Some(src) => {
                buf.copy_from_slice(src);
                Ok(())
            }
            None => Err(CompressError::CorruptStream(format!(
                "archive: read of {} bytes at {offset} exceeds the {}-byte source",
                buf.len(),
                self.as_slice().len()
            ))),
        }
    }
}

#[cfg(unix)]
impl ReadAt for std::fs::File {
    fn len(&self) -> u64 {
        self.metadata().map(|m| m.len()).unwrap_or(0)
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<(), CompressError> {
        use std::os::unix::fs::FileExt;
        self.read_exact_at(buf, offset).map_err(|e| {
            CompressError::CorruptStream(format!("archive: read at {offset} failed: {e}"))
        })
    }
}

/// What one [`Archive::read_region`] call did, for cache accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RegionStats {
    /// Tiles the window overlapped.
    pub tiles: usize,
    /// Of those, tiles served from the decoded-tile cache.
    pub tiles_from_cache: usize,
    /// Tiles whose first copy (cached or freshly fetched) was corrupt but
    /// whose one-shot re-read from the source decoded cleanly.
    pub tiles_recovered: usize,
}

struct EntryState {
    meta: ArchiveEntry,
    index: FrameIndex,
}

/// Process-unique ids for open archives, so cache keys from a re-opened
/// (possibly different) file never alias a previous generation's tiles.
static NEXT_ARCHIVE_ID: AtomicU64 = AtomicU64::new(1);

/// An open archive: validated entry metadata plus each entry's parsed tile
/// seek index, over any [`ReadAt`] source. Opening reads only the head,
/// footer, entry table and per-entry frame prefixes — never a tile payload
/// — so opening a multi-gigabyte archive stays cheap.
pub struct Archive<R: ReadAt> {
    source: R,
    id: u64,
    entries: Vec<EntryState>,
    cache: Option<Arc<TileCache>>,
}

/// Per-worker reusable tile-fetch buffer, parked in the worker's
/// [`ScratchArena`](lcc_pressio::ScratchArena) between reads.
#[derive(Default)]
struct TileReadBuf(Vec<u8>);

/// The intersection geometry of one uncached tile with the requested
/// window: the destination rectangle (window coords) and the source corner
/// (tile coords).
struct Miss {
    tile: usize,
    dst: Window,
    src_i0: usize,
    src_j0: usize,
    /// The cache held this tile but it failed its integrity digest; a
    /// successful source fetch then counts as recovered, not merely uncached.
    cache_corrupt: bool,
}

fn job_panic(err: JobPanicked) -> CompressError {
    CompressError::Internal(format!("archive: {err}"))
}

/// Fetch tile `tile` of `state`'s entry and decode it into `worker.block`
/// through the frame's block step ([`FrameIndex::decode_block`]: digest,
/// decode, shape). Every call issues a fresh positioned read, so a retry
/// observes the source anew rather than replaying a bad buffer.
fn fetch_tile<R: ReadAt>(
    source: &R,
    state: &EntryState,
    compressor: &dyn Compressor,
    worker: &mut FrameWorker,
    tile: usize,
) -> Result<(), CompressError> {
    let (at, len) = state.index.block_span(tile);
    let mut buf = std::mem::take(&mut worker.arena.get_or_default::<TileReadBuf>().0);
    buf.resize(len, 0);
    let decoded = source
        .read_at(state.meta.offset + at as u64, &mut buf)
        .and_then(|()| state.index.decode_block(tile, &buf, compressor, worker).map(|_| ()));
    worker.arena.get_or_default::<TileReadBuf>().0 = buf;
    decoded
}

/// Offer a freshly decoded tile to the cache, buffer and all, and return the
/// worker's next decode target: the same storage when the cache declined the
/// tile, the recycled storage of an evicted tile when it took it (or `None`
/// when nothing could be recycled). The next decode sets the shape.
fn offer_tile(cache: &TileCache, key: TileKey, block: Field2D) -> Option<Field2D> {
    let (ny, nx) = block.shape();
    let mut data = block.into_vec();
    cache.insert(key, &mut data, ny, nx);
    Field2D::from_vec(1, data.len(), data).ok()
}

impl<R: ReadAt> Archive<R> {
    /// Open and validate an archive. Every structural claim — footer
    /// magic/version, table placement, entry offsets and overlaps, tile
    /// index consistency — is checked here, and every allocation is bounded
    /// by bytes the source actually holds.
    pub fn open(source: R) -> Result<Self, CompressError> {
        let corrupt = |msg: String| CompressError::CorruptStream(format!("archive: {msg}"));
        let total = source.len();
        if total < (HEAD_LEN + FOOTER_LEN) as u64 {
            return Err(corrupt(format!("{total} bytes is too short for an archive")));
        }
        let mut head = [0u8; HEAD_LEN];
        source.read_at(0, &mut head)?;
        if head[..4] != ARCHIVE_MAGIC {
            return Err(corrupt("missing LCCA magic".into()));
        }
        if head[4] != ARCHIVE_VERSION {
            return Err(corrupt(format!("unsupported archive version {}", head[4])));
        }
        let mut footer = [0u8; FOOTER_LEN];
        source.read_at(total - FOOTER_LEN as u64, &mut footer)?;
        if footer[21..25] != ARCHIVE_MAGIC || footer[20] != ARCHIVE_VERSION {
            return Err(corrupt("footer magic/version mismatch (truncated archive?)".into()));
        }
        let mut tail = Reader::new(&footer);
        let (table_offset, table_bytes) = (tail.u64()?, tail.u64()?);
        let n_entries = tail.u32()? as usize;
        // The table must sit flush between the payloads and the footer;
        // anything else means forged or inconsistent offsets.
        if table_offset < HEAD_LEN as u64
            || table_offset.checked_add(table_bytes) != Some(total - FOOTER_LEN as u64)
        {
            return Err(corrupt(format!(
                "entry table [{table_offset}, +{table_bytes}) does not fit the archive"
            )));
        }
        // Bound the table allocation and the entry count by actual bytes.
        if (n_entries as u64).saturating_mul(MIN_ENTRY_RECORD as u64) > table_bytes {
            return Err(corrupt(format!(
                "{n_entries} entries cannot fit in a {table_bytes}-byte table"
            )));
        }
        let mut table = vec![0u8; table_bytes as usize];
        source.read_at(table_offset, &mut table)?;
        let mut cursor = Reader::new(&table);
        let mut metas = Vec::with_capacity(n_entries);
        for _ in 0..n_entries {
            let meta = parse_entry(&mut cursor)?;
            // The payload span must lie strictly between head and table;
            // offset+length overflowing u64 is as forged as any other
            // out-of-bounds span.
            let end = meta.offset.checked_add(meta.length);
            if meta.length == 0
                || meta.offset < HEAD_LEN as u64
                || end.map_or(true, |e| e > table_offset)
            {
                return Err(corrupt(format!(
                    "entry '{}' span [{}, +{}) is outside the payload region",
                    meta.name, meta.offset, meta.length
                )));
            }
            metas.push(meta);
        }
        if cursor.remaining() != 0 {
            return Err(corrupt(format!(
                "{} stray bytes after the last entry record",
                cursor.remaining()
            )));
        }
        // Entries must not overlap one another.
        let mut order: Vec<usize> = (0..metas.len()).collect();
        order.sort_by_key(|&k| metas[k].offset);
        for pair in order.windows(2) {
            let (a, b) = (&metas[pair[0]], &metas[pair[1]]);
            if a.offset.checked_add(a.length).map_or(true, |e| e > b.offset) {
                return Err(corrupt(format!("entries '{}' and '{}' overlap", a.name, b.name)));
            }
        }
        // Index every entry from its frame prefix (header + tables only).
        let mut entries = Vec::with_capacity(metas.len());
        for meta in metas {
            let index = Self::index_entry(&source, &meta)?;
            entries.push(EntryState { meta, index });
        }
        Ok(Archive {
            source,
            id: NEXT_ARCHIVE_ID.fetch_add(1, Ordering::Relaxed),
            entries,
            cache: None,
        })
    }

    /// Parse the tile seek index of one entry, reading only the frame's
    /// header and tables.
    fn index_entry(source: &R, meta: &ArchiveEntry) -> Result<FrameIndex, CompressError> {
        let corrupt = |msg: String| CompressError::CorruptStream(format!("archive: {msg}"));
        let frame_len = meta.length as usize;
        let mut prefix = vec![0u8; FrameIndex::PREFIX_LEN.min(frame_len)];
        source.read_at(meta.offset, &mut prefix)?;
        let span = FrameIndex::table_span(&prefix, frame_len)?;
        prefix.resize(span, 0);
        source.read_at(meta.offset, &mut prefix)?;
        let index = FrameIndex::parse(&prefix, frame_len)?;
        let (tile_ny, tile_nx) = index.tile;
        if (index.ny, index.nx, tile_ny, tile_nx) != (meta.ny, meta.nx, meta.tile_ny, meta.tile_nx)
        {
            return Err(corrupt(format!(
                "entry '{}' metadata ({}x{} in {}x{} tiles) disagrees with its \
                 frame header ({}x{} in {tile_ny}x{tile_nx} tiles)",
                meta.name, meta.ny, meta.nx, meta.tile_ny, meta.tile_nx, index.ny, index.nx
            )));
        }
        if index.n_blocks() != meta.tile_stats.len() {
            return Err(corrupt(format!(
                "entry '{}' carries {} tile stats for {} tiles",
                meta.name,
                meta.tile_stats.len(),
                index.n_blocks()
            )));
        }
        Ok(index)
    }

    /// Attach a shared decoded-tile cache; subsequent region reads consult
    /// and fill it.
    pub fn with_cache(mut self, cache: Arc<TileCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// The cache key this archive uses for tile `tile` of entry `entry`,
    /// carrying the archive's process-unique generation id.
    pub(crate) fn tile_key(&self, entry: usize, tile: usize) -> TileKey {
        TileKey { archive: self.id, entry: entry as u32, tile: tile as u32 }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the archive holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Metadata of entry `k`.
    ///
    /// # Panics
    /// Panics if `k` is out of range.
    pub fn entry(&self, k: usize) -> &ArchiveEntry {
        &self.entries[k].meta
    }

    /// Entry `k`, once `compressor` is known to be the codec that wrote it:
    /// any other would fetch every tile twice and report its own stream
    /// check failing as corruption.
    fn entry_for(
        &self,
        k: usize,
        compressor: &dyn Compressor,
    ) -> Result<&EntryState, CompressError> {
        let state = self.entries.get(k).ok_or_else(|| {
            CompressError::InvalidInput(format!("archive: entry {k} out of range"))
        })?;
        if state.meta.codec != compressor.name() {
            return Err(CompressError::InvalidInput(format!(
                "archive: entry '{}' was written by '{}', not '{}'",
                state.meta.name,
                state.meta.codec,
                compressor.name()
            )));
        }
        Ok(state)
    }

    /// Decode entry `k` in full into `out` (the whole-frame path — region
    /// reads should beat this by the ratio of window to field).
    pub fn read_entry(
        &self,
        k: usize,
        compressor: &dyn Compressor,
        pool: ThreadPoolConfig,
        scratch: &mut FrameScratch,
        out: &mut Field2D,
    ) -> Result<(), CompressError> {
        let state = self.entry_for(k, compressor)?;
        let mut frame = vec![0u8; state.meta.length as usize];
        self.source.read_at(state.meta.offset, &mut frame)?;
        decompress_framed_with(compressor, &frame, pool, scratch, out)
    }

    /// Decode exactly the tiles of entry `k` overlapping `window` into
    /// `out` (resized to the window's shape), without a deadline:
    /// [`Archive::read_region_with`] under `None`.
    pub fn read_region(
        &self,
        k: usize,
        window: &Window,
        compressor: &dyn Compressor,
        pool: ThreadPoolConfig,
        scratch: &mut FrameScratch,
        out: &mut Field2D,
    ) -> Result<RegionStats, CompressError> {
        self.read_region_with(k, window, compressor, pool, scratch, out, None)
    }

    /// Decode exactly the tiles of entry `k` overlapping `window` into
    /// `out` (resized to the window's shape). Cached tiles are copied on
    /// the calling thread; missing tiles are fetched (one positioned read
    /// each), digest-verified, decoded in parallel over `pool` into
    /// disjoint sub-rectangles of `out`, and inserted into the cache.
    ///
    /// A tile whose cached copy fails the cache's integrity digest, or
    /// whose fetched bytes fail their checksum or decode, is retried once
    /// from the source; if the retry fails too, so does the call.
    /// `compressor` must be the codec the entry records, or the call is
    /// [`CompressError::InvalidInput`] before any tile is touched. Once
    /// `deadline` has passed — checked before the read, before each tile
    /// fetch and after each decode — the call is
    /// [`CompressError::DeadlineExceeded`].
    ///
    /// The decoded window is bit-identical to the same window of a
    /// full-frame decode, with or without a cache attached.
    #[allow(clippy::too_many_arguments)]
    pub fn read_region_with(
        &self,
        k: usize,
        window: &Window,
        compressor: &dyn Compressor,
        pool: ThreadPoolConfig,
        scratch: &mut FrameScratch,
        out: &mut Field2D,
        deadline: Option<Instant>,
    ) -> Result<RegionStats, CompressError> {
        let expired = move || deadline.is_some_and(|d| Instant::now() >= d);
        if expired() {
            return Err(CompressError::DeadlineExceeded("archive: region read abandoned".into()));
        }
        let state = self.entry_for(k, compressor)?;
        let index = &state.index;
        if window.height == 0
            || window.width == 0
            || window.i0.checked_add(window.height).map_or(true, |e| e > index.ny)
            || window.j0.checked_add(window.width).map_or(true, |e| e > index.nx)
        {
            return Err(CompressError::InvalidInput(format!(
                "archive: window {window:?} does not fit the {}x{} entry",
                index.ny, index.nx
            )));
        }
        out.resize(window.height, window.width);
        let tiles = tiles_overlapping(&state.meta, window);
        let mut stats = RegionStats { tiles: tiles.len(), tiles_from_cache: 0, tiles_recovered: 0 };
        let mut misses: Vec<Miss> = Vec::new();
        for t in tiles {
            let tile_win = index.block_window(t);
            let i0 = tile_win.i0.max(window.i0);
            let j0 = tile_win.j0.max(window.j0);
            let i1 = (tile_win.i0 + tile_win.height).min(window.i0 + window.height);
            let j1 = (tile_win.j0 + tile_win.width).min(window.j0 + window.width);
            let dst =
                Window { i0: i0 - window.i0, j0: j0 - window.j0, height: i1 - i0, width: j1 - j0 };
            let lookup = self.cache.as_ref().map(|c| c.get_checked(&self.tile_key(k, t)));
            if let Some(Lookup::Hit(cached)) = lookup {
                // Hit: pure memcpy of the intersection, no decode.
                let tile_view = FieldView::new(&cached.data, cached.ny, cached.nx, cached.nx)
                    .expect("cached tile shape is validated on insert")
                    .subview(i0 - tile_win.i0, j0 - tile_win.j0, dst.height, dst.width);
                out.copy_window_from(dst.i0, dst.j0, &tile_view);
                stats.tiles_from_cache += 1;
            } else {
                // A corrupt cached copy was evicted by `get_checked`; the
                // tile falls through to a source fetch and, on success,
                // counts as recovered.
                misses.push(Miss {
                    tile: t,
                    dst,
                    src_i0: i0 - tile_win.i0,
                    src_j0: j0 - tile_win.j0,
                    cache_corrupt: matches!(lookup, Some(Lookup::Corrupt)),
                });
            }
        }
        if misses.is_empty() {
            return Ok(stats);
        }
        let segments =
            disjoint_window_rows(out.as_mut_slice(), window.width, misses.iter().map(|m| m.dst));
        let source = &self.source;
        let cache = self.cache.as_deref();
        let misses = &misses;
        let workers = scratch.workers(pool.threads().min(misses.len()));
        // Each miss answers whether it needed the retry (or replaced a
        // corrupt cached copy).
        let decoded: Vec<Result<bool, CompressError>> =
            try_parallel_block_map(pool, workers, segments, move |worker, j, mut segs| {
                let miss = &misses[j];
                if expired() {
                    return Err(CompressError::DeadlineExceeded(format!(
                        "archive: tile {} abandoned",
                        miss.tile
                    )));
                }
                // First attempt, then at most one retry whose fresh
                // positioned read bypasses whatever buffer went bad.
                let mut recovered = miss.cache_corrupt;
                if fetch_tile(source, state, compressor, worker, miss.tile).is_err() {
                    recovered = true;
                    fetch_tile(source, state, compressor, worker, miss.tile)?;
                }
                if expired() {
                    return Err(CompressError::DeadlineExceeded(format!(
                        "archive: tile {} finished past the deadline",
                        miss.tile
                    )));
                }
                let block = worker.block.take().expect("decode filled the block");
                let tile_view =
                    block.view().subview(miss.src_i0, miss.src_j0, miss.dst.height, miss.dst.width);
                for (seg, row) in segs.iter_mut().zip(tile_view.rows()) {
                    seg.copy_from_slice(row);
                }
                worker.block = match cache {
                    Some(cache) => offer_tile(cache, self.tile_key(k, miss.tile), block),
                    None => Some(block),
                };
                Ok(recovered)
            })
            .map_err(job_panic)?;
        for recovered in decoded {
            stats.tiles_recovered += usize::from(recovered?);
        }
        Ok(stats)
    }
}

/// Row-major ids of the tiles of `entry` overlapping `window` (which lies
/// inside the entry's field), ascending.
pub(crate) fn tiles_overlapping(
    entry: &ArchiveEntry,
    window: &Window,
) -> impl ExactSizeIterator<Item = usize> {
    // Tile-grid rectangle [ty0, ty1) × [tx0, tx1).
    let (ty0, tx0) = (window.i0 / entry.tile_ny, window.j0 / entry.tile_nx);
    let ty1 = (window.i0 + window.height - 1) / entry.tile_ny + 1;
    let tx1 = (window.j0 + window.width - 1) / entry.tile_nx + 1;
    let (across, tiles_x) = (tx1 - tx0, entry.tiles_x());
    (0..(ty1 - ty0) * across).map(move |n| (ty0 + n / across) * tiles_x + tx0 + n % across)
}
