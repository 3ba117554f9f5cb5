//! Streaming archive builder: entries append as tiled frames, the metadata
//! table lands at the tail on `finish`.

use crate::format::{
    write_entry, ArchiveEntry, TileStats, ARCHIVE_MAGIC, ARCHIVE_VERSION, FOOTER_LEN,
};
use lcc_grid::{Field2D, Summary};
use lcc_par::ThreadPoolConfig;
use lcc_pressio::frame::compress_frame;
use lcc_pressio::{CompressError, Compressor, ErrorBound, FrameScratch};

/// Builds an LCCA archive in memory: add one entry per (field, timestep),
/// then [`finish`](ArchiveWriter::finish) to append the entry table and
/// footer. Entry payloads are LCCF `0x61` frames, so every tile a region
/// read touches is digest-verified before decode.
#[derive(Debug, Default)]
pub struct ArchiveWriter {
    bytes: Vec<u8>,
    entries: Vec<ArchiveEntry>,
}

impl ArchiveWriter {
    /// Empty archive (magic + version head only).
    pub fn new() -> Self {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&ARCHIVE_MAGIC);
        bytes.push(ARCHIVE_VERSION);
        ArchiveWriter { bytes, entries: Vec::new() }
    }

    /// Number of entries added so far.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True before the first entry is added.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Compress `field` as a `0x61` frame of `tile_ny × tile_nx` tiles and
    /// append it as an entry, computing the per-tile windowed summary
    /// statistics that ride in the metadata. Tile dims are clamped to the
    /// field; a tiling that covers it once is a frame of one tile. Returns
    /// the entry's index.
    #[allow(clippy::too_many_arguments)]
    pub fn add_entry(
        &mut self,
        name: &str,
        timestep: u64,
        field: &Field2D,
        compressor: &dyn Compressor,
        bound: ErrorBound,
        tile_ny: usize,
        tile_nx: usize,
        pool: ThreadPoolConfig,
        scratch: &mut FrameScratch,
    ) -> Result<usize, CompressError> {
        if name.len() > u16::MAX as usize || compressor.name().len() > u16::MAX as usize {
            return Err(CompressError::InvalidInput("entry name too long".into()));
        }
        // Each run's statistics are taken by the worker that has just
        // encoded its tiles, while they are in that core's cache, and side
        // by side, so the tiles' add chains overlap.
        let (frame, tile_stats) = compress_frame(
            compressor,
            &field.view(),
            bound,
            (tile_ny, tile_nx),
            pool,
            scratch,
            |tiles, stats: &mut [TileStats]| {
                for (s, slot) in Summary::side_by_side(tiles).zip(stats) {
                    *slot =
                        TileStats { min: s.min, max: s.max, mean: s.mean, variance: s.variance };
                }
            },
        )?;
        let (ny, nx) = field.shape();
        let tile_ny = tile_ny.min(ny);
        let tile_nx = tile_nx.min(nx);
        let offset = self.bytes.len() as u64;
        let length = frame.len() as u64;
        self.bytes.extend_from_slice(&frame);
        self.entries.push(ArchiveEntry {
            name: name.to_string(),
            timestep,
            codec: compressor.name().to_string(),
            ny,
            nx,
            tile_ny,
            tile_nx,
            bound,
            offset,
            length,
            tile_stats,
        });
        Ok(self.entries.len() - 1)
    }

    /// Append the entry table and footer, returning the finished archive
    /// bytes (open them with [`crate::Archive::open`], or write them to a
    /// file and open that).
    pub fn finish(mut self) -> Vec<u8> {
        let table_offset = self.bytes.len() as u64;
        for entry in &self.entries {
            write_entry(&mut self.bytes, entry);
        }
        let table_bytes = self.bytes.len() as u64 - table_offset;
        self.bytes.reserve(FOOTER_LEN);
        self.bytes.extend_from_slice(&table_offset.to_le_bytes());
        self.bytes.extend_from_slice(&table_bytes.to_le_bytes());
        self.bytes.extend_from_slice(&(self.entries.len() as u32).to_le_bytes());
        self.bytes.push(ARCHIVE_VERSION);
        self.bytes.extend_from_slice(&ARCHIVE_MAGIC);
        self.bytes
    }
}
