//! # lcc_archive — indexed multi-field archives with tiled region reads
//!
//! Serving-side container over the LCCF `0x61` frame (tiles, each with its
//! XXH64 digest): many fields across many timesteps in one byte stream,
//! each entry independently seekable down to the tile. Three pieces:
//!
//! * [`ArchiveWriter`] — appends each field as a `0x61` frame (one tile
//!   or many) and lands the metadata table (names, timesteps, codec, error bound, per-tile windowed
//!   statistics) at the tail, found via a fixed-size footer.
//! * [`Archive`] — opens any [`ReadAt`] source (in-memory bytes, a file),
//!   validates every structural claim up front, and serves
//!   [`read_region`](Archive::read_region): decode **only the tiles
//!   overlapping a window**, in parallel, writing disjoint bands of the
//!   output. Full-frame decode stays available as
//!   [`read_entry`](Archive::read_entry).
//! * [`TileCache`] — a process-wide sharded, byte-budgeted cache of decoded
//!   tiles, so repeated reads of hot tiles skip entropy decode entirely
//!   and become a lock + memcpy. The LRU tile of a shard is the eviction
//!   victim, but a new tile displaces it only if it was looked up at least
//!   as often lately; a refused tile is decoded into the window and goes
//!   no further.
//!
//! Region reads are bit-identical to the matching window of a full-frame
//! decode, cache or no cache, at any pool width — the property the
//! `archive_region` proptests pin down.
//!
//! ## Resilience
//!
//! A region read is strict: it returns the whole window or an error. A
//! corrupt cached tile (caught by the cache's opt-in integrity digests) or a
//! bad fetch/decode is retried once from the source before the read gives
//! up, and a verifying cache re-checks every hit.
//! [`read_region_with`](Archive::read_region_with) adds an optional
//! `Instant` deadline, checked at tile granularity, so a stalled source is a
//! `DeadlineExceeded` error, never a hang. Every read form refuses a
//! compressor other than the one the entry records.

pub mod cache;
pub mod format;
pub mod reader;
pub mod writer;

pub use cache::{CacheStats, TileCache};
pub use format::{ArchiveEntry, TileStats, ARCHIVE_MAGIC, ARCHIVE_VERSION};
pub use reader::{Archive, ReadAt, RegionStats};
pub use writer::ArchiveWriter;

#[cfg(test)]
mod tests {
    use super::*;
    use lcc_grid::{Field2D, FieldView, Window};
    use lcc_par::ThreadPoolConfig;
    use lcc_pressio::{
        CompressError, Compressor, ErrorBound, FrameIndex, FrameScratch, ScratchArena,
    };
    use std::sync::Arc;

    /// Store-everything codec, as in `lcc_pressio::frame`'s tests: enough
    /// to exercise the container without a real compressor.
    struct Store;

    impl Compressor for Store {
        fn name(&self) -> &str {
            "store"
        }

        fn compress_view_with(
            &self,
            view: &FieldView<'_>,
            _bound: ErrorBound,
            _scratch: &mut ScratchArena,
        ) -> Result<Vec<u8>, CompressError> {
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

    fn ramp(ny: usize, nx: usize, salt: f64) -> Field2D {
        Field2D::from_fn(ny, nx, |i, j| (i * nx + j) as f64 + salt)
    }

    fn pool() -> ThreadPoolConfig {
        ThreadPoolConfig::with_threads(3)
    }

    fn bound() -> ErrorBound {
        ErrorBound::Absolute(1e-6)
    }

    fn build_archive() -> Vec<u8> {
        let mut scratch = FrameScratch::default();
        let mut writer = ArchiveWriter::new();
        writer
            .add_entry(
                "density",
                0,
                &ramp(23, 17, 0.0),
                &Store,
                bound(),
                8,
                8,
                pool(),
                &mut scratch,
            )
            .unwrap();
        writer
            .add_entry(
                "density",
                1,
                &ramp(23, 17, 0.5),
                &Store,
                bound(),
                8,
                8,
                pool(),
                &mut scratch,
            )
            .unwrap();
        writer
            .add_entry("energy", 0, &ramp(9, 9, 2.0), &Store, bound(), 16, 16, pool(), &mut scratch)
            .unwrap();
        writer.finish()
    }

    #[test]
    fn archive_roundtrips_entries_and_metadata() {
        let bytes = build_archive();
        let archive = Archive::open(bytes).unwrap();
        let keys: Vec<(&str, u64)> = (0..archive.len())
            .map(|k| (&*archive.entry(k).name, archive.entry(k).timestep))
            .collect();
        assert_eq!(keys, [("density", 0), ("density", 1), ("energy", 0)]);

        let entry = archive.entry(0);
        assert_eq!((entry.ny, entry.nx), (23, 17));
        assert_eq!((entry.tile_ny, entry.tile_nx), (8, 8));
        assert_eq!(entry.codec, "store");
        assert_eq!(entry.n_tiles(), 9);
        assert_eq!(entry.tile_stats.len(), 9);
        // Tile (0,0) of the ramp: rows 0..8, cols 0..8 → min 0, max 7*17+7.
        let s = &entry.tile_stats[0];
        assert_eq!((s.min, s.max), (0.0, (7 * 17 + 7) as f64));

        let mut scratch = FrameScratch::default();
        let mut out = Field2D::zeros(1, 1);
        for (k, want) in [ramp(23, 17, 0.0), ramp(23, 17, 0.5), ramp(9, 9, 2.0)].iter().enumerate()
        {
            archive.read_entry(k, &Store, pool(), &mut scratch, &mut out).unwrap();
            assert_eq!(out.as_slice(), want.as_slice(), "entry {k}");
        }
    }

    #[test]
    fn single_tile_entries_store_the_raw_stream() {
        // The "energy" entry is one 9x9 tile: its payload is a one-block
        // `0x61` frame whose one block is the codec's raw stream, under its
        // length and digest.
        let bytes = build_archive();
        let archive = Archive::open(bytes.clone()).unwrap();
        let entry = archive.entry(2).clone();
        assert_eq!(entry.n_tiles(), 1);
        let payload = &bytes[entry.offset as usize..(entry.offset + entry.length) as usize];
        assert_eq!(payload[..5], [b'L', b'C', b'C', b'F', lcc_pressio::FRAME_VERSION]);
        let index = FrameIndex::parse(payload, payload.len()).unwrap();
        assert_eq!((index.ny, index.nx, index.tile, index.n_blocks()), (9, 9, (9, 9), 1));
        let raw = Store.compress_view(&ramp(9, 9, 2.0).view(), bound()).unwrap();
        let (at, len) = index.block_span(0);
        assert_eq!(at, FrameIndex::PREFIX_LEN + 16, "one length, one digest");
        assert_eq!(&payload[at..at + len], raw.as_slice());

        // And read_region still serves windows out of it.
        let mut scratch = FrameScratch::default();
        let mut out = Field2D::zeros(1, 1);
        let window = Window { i0: 2, j0: 3, height: 4, width: 5 };
        let stats =
            archive.read_region(2, &window, &Store, pool(), &mut scratch, &mut out).unwrap();
        assert_eq!(stats, RegionStats { tiles: 1, tiles_from_cache: 0, tiles_recovered: 0 });
        let full = ramp(9, 9, 2.0);
        let want: Vec<f64> = full.view().window(&window).iter().collect();
        assert_eq!(out.as_slice(), want.as_slice());

        // The one tile is digest-checked like any other: a flipped digest
        // byte still opens, and fails the read.
        let mut bad = bytes;
        bad[entry.offset as usize + FrameIndex::PREFIX_LEN + 8] ^= 1;
        let archive = Archive::open(bad).unwrap();
        let err =
            archive.read_region(2, &window, &Store, pool(), &mut scratch, &mut out).unwrap_err();
        let want = "frame: block 0 checksum mismatch";
        assert_eq!(err, CompressError::CorruptStream(want.into()));
    }

    #[test]
    fn read_region_matches_the_windowed_full_decode() {
        let bytes = build_archive();
        let archive = Archive::open(bytes).unwrap();
        let mut scratch = FrameScratch::default();
        let mut full = Field2D::zeros(1, 1);
        archive.read_entry(1, &Store, pool(), &mut scratch, &mut full).unwrap();

        let mut out = Field2D::zeros(1, 1);
        for window in [
            Window { i0: 0, j0: 0, height: 23, width: 17 },
            Window { i0: 8, j0: 8, height: 8, width: 8 },
            Window { i0: 5, j0: 3, height: 11, width: 9 },
            Window { i0: 22, j0: 16, height: 1, width: 1 },
        ] {
            let stats =
                archive.read_region(1, &window, &Store, pool(), &mut scratch, &mut out).unwrap();
            assert!(stats.tiles > 0);
            assert_eq!(out.shape(), (window.height, window.width));
            let want: Vec<f64> = full.view().window(&window).iter().collect();
            assert_eq!(out.as_slice(), want.as_slice(), "window {window:?}");
        }
    }

    #[test]
    fn region_reads_fill_and_then_hit_the_cache() {
        let bytes = build_archive();
        let cache = Arc::new(TileCache::new(1 << 20));
        let archive = Archive::open(bytes).unwrap().with_cache(cache.clone());
        let mut scratch = FrameScratch::default();
        let mut out = Field2D::zeros(1, 1);
        let window = Window { i0: 4, j0: 4, height: 8, width: 8 };

        let cold = archive.read_region(0, &window, &Store, pool(), &mut scratch, &mut out).unwrap();
        assert_eq!(cold, RegionStats { tiles: 4, tiles_from_cache: 0, tiles_recovered: 0 });
        let first = out.clone();

        let hot = archive.read_region(0, &window, &Store, pool(), &mut scratch, &mut out).unwrap();
        assert_eq!(hot, RegionStats { tiles: 4, tiles_from_cache: 4, tiles_recovered: 0 });
        assert_eq!(out.as_slice(), first.as_slice(), "hit path is bit-identical");

        let stats = cache.stats();
        assert_eq!(stats.hits, 4);
        assert_eq!(stats.entries, 4);

        // A different entry's tiles do not alias entry 0's cache lines.
        archive.read_region(1, &window, &Store, pool(), &mut scratch, &mut out).unwrap();
        let want: Vec<f64> = ramp(23, 17, 0.5).view().window(&window).iter().collect();
        assert_eq!(out.as_slice(), want.as_slice());
    }

    #[test]
    fn out_of_range_windows_and_entries_are_invalid_input() {
        let archive = Archive::open(build_archive()).unwrap();
        let mut scratch = FrameScratch::default();
        let mut out = Field2D::zeros(1, 1);
        let oob = Window { i0: 20, j0: 0, height: 8, width: 8 };
        assert!(matches!(
            archive.read_region(0, &oob, &Store, pool(), &mut scratch, &mut out),
            Err(CompressError::InvalidInput(_))
        ));
        let window = Window { i0: 0, j0: 0, height: 2, width: 2 };
        assert!(matches!(
            archive.read_region(9, &window, &Store, pool(), &mut scratch, &mut out),
            Err(CompressError::InvalidInput(_))
        ));
        assert!(matches!(
            archive.read_entry(9, &Store, pool(), &mut scratch, &mut out),
            Err(CompressError::InvalidInput(_))
        ));
    }

    #[test]
    fn tampered_cache_tiles_recover_from_the_source() {
        let bytes = build_archive();
        let cache = Arc::new(TileCache::new(1 << 20).with_verification(true));
        let archive = Archive::open(bytes).unwrap().with_cache(cache.clone());
        let mut scratch = FrameScratch::default();
        let mut out = Field2D::zeros(1, 1);
        let window = Window { i0: 4, j0: 4, height: 8, width: 8 };

        archive.read_region(0, &window, &Store, pool(), &mut scratch, &mut out).unwrap();
        let clean = out.clone();
        assert!(cache.tamper(&archive.tile_key(0, 0)), "tile 0 is resident after the cold read");

        // The verified hit path catches the flip, evicts, and the re-read
        // from source produces bytes identical to the clean pass.
        let stats =
            archive.read_region(0, &window, &Store, pool(), &mut scratch, &mut out).unwrap();
        assert_eq!(stats, RegionStats { tiles: 4, tiles_from_cache: 3, tiles_recovered: 1 });
        assert_eq!(out.as_slice(), clean.as_slice(), "recovered read is bit-identical");
        assert_eq!(cache.stats().integrity_failures, 1);

        // The recovery re-populated the cache with a good copy.
        let warm = archive.read_region(0, &window, &Store, pool(), &mut scratch, &mut out).unwrap();
        assert_eq!(warm, RegionStats { tiles: 4, tiles_from_cache: 4, tiles_recovered: 0 });
    }

    #[test]
    fn tiles_the_source_cannot_heal_fail_the_read() {
        let mut bytes = build_archive();
        // Locate tile 0 of entry 0 in the byte stream and corrupt it at the
        // source, so the one-shot retry re-reads the same bad bytes.
        let (tile_at, tile_len) = {
            let entry = Archive::open(bytes.clone()).unwrap().entry(0).clone();
            let frame = &bytes[entry.offset as usize..][..entry.length as usize];
            let (at, len) =
                lcc_pressio::FrameIndex::parse(frame, frame.len()).unwrap().block_span(0);
            (entry.offset as usize + at, len)
        };
        bytes[tile_at + tile_len / 2] ^= 0xFF;
        let archive = Archive::open(bytes).unwrap();
        let mut scratch = FrameScratch::default();
        let mut out = Field2D::zeros(1, 1);
        let window = Window { i0: 4, j0: 4, height: 8, width: 8 };
        assert!(matches!(
            archive.read_region(0, &window, &Store, pool(), &mut scratch, &mut out),
            Err(CompressError::CorruptStream(_))
        ));
    }

    #[test]
    fn expired_deadlines_abandon_region_reads() {
        use std::time::{Duration, Instant};
        let archive = Archive::open(build_archive()).unwrap();
        let mut scratch = FrameScratch::default();
        let mut out = Field2D::zeros(1, 1);
        let window = Window { i0: 0, j0: 0, height: 16, width: 16 };
        let mut read = |deadline: Instant| {
            let deadline = Some(deadline);
            archive.read_region_with(0, &window, &Store, pool(), &mut scratch, &mut out, deadline)
        };

        let expired = Instant::now();
        assert!(matches!(read(expired), Err(CompressError::DeadlineExceeded(_))));

        let generous = Instant::now() + Duration::from_secs(60);
        let stats = read(generous).unwrap();
        assert_eq!(stats, RegionStats { tiles: 4, tiles_from_cache: 0, tiles_recovered: 0 });
        let want: Vec<f64> = ramp(23, 17, 0.0).view().window(&window).iter().collect();
        assert_eq!(out.as_slice(), want.as_slice());
    }

    #[test]
    fn tiles_overlapping_a_window_match_the_tile_geometry() {
        let archive = Archive::open(build_archive()).unwrap();
        let tiles = |window: Window| {
            reader::tiles_overlapping(archive.entry(0), &window).collect::<Vec<_>>()
        };
        // One interior cell: exactly one tile of the 3x3 grid over 23x17.
        assert_eq!(tiles(Window { i0: 9, j0: 9, height: 1, width: 1 }), [4]);
        // A window crossing both seams: the 2x2 tile block around it.
        assert_eq!(tiles(Window { i0: 6, j0: 6, height: 4, width: 4 }), [0, 1, 3, 4]);
        // The last row and column alone: the clipped corner tile.
        assert_eq!(tiles(Window { i0: 22, j0: 16, height: 1, width: 1 }), [8]);
        // The whole field: every tile.
        assert_eq!(
            tiles(Window { i0: 0, j0: 0, height: 23, width: 17 }),
            (0..9).collect::<Vec<_>>()
        );
    }

    #[cfg(unix)]
    #[test]
    fn archives_open_from_files_too() {
        let bytes = build_archive();
        let mut path = std::env::temp_dir();
        path.push(format!("lcc_archive_test_{}.lcca", std::process::id()));
        std::fs::write(&path, &bytes).unwrap();
        let file = std::fs::File::open(&path).unwrap();
        let archive = Archive::open(file).unwrap();
        let mut scratch = FrameScratch::default();
        let mut out = Field2D::zeros(1, 1);
        let window = Window { i0: 3, j0: 2, height: 9, width: 10 };
        archive.read_region(0, &window, &Store, pool(), &mut scratch, &mut out).unwrap();
        let want: Vec<f64> = ramp(23, 17, 0.0).view().window(&window).iter().collect();
        assert_eq!(out.as_slice(), want.as_slice());
        std::fs::remove_file(&path).ok();
    }
}
