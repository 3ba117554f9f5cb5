//! The write side of the archive: an entry's tiles are encoded, hashed and
//! summarized on the pool's workers — the calling thread among them — and
//! none of that may show in the bytes. Archives of the study's field
//! families and of degenerate shapes must be byte-identical at every pool
//! width and equal to an archive assembled here by hand, one stand-alone
//! tile stream and one serial `summary()` at a time; a tile that fails and a
//! tile closure that panics must each surface as one `CompressError`.

use lcc::archive::format::{write_entry, ArchiveEntry};
use lcc::archive::{Archive, ArchiveWriter, TileStats, ARCHIVE_MAGIC, ARCHIVE_VERSION};
use lcc::grid::{Field2D, FieldView, WindowIter};
use lcc::hydro::{MirandaProxy, MirandaProxyConfig, Problem};
use lcc::lossless::xxh64;
use lcc::mgard::MgardCompressor;
use lcc::par::ThreadPoolConfig;
use lcc::pressio::frame::compress_frame;
use lcc::pressio::{
    CompressError, Compressor, ErrorBound, FrameScratch, ScratchArena, FLAG_CHECKSUM, FLAG_TILED,
    FRAME_MAGIC, FRAME_VERSION,
};
use lcc::synth::{
    generate_multi_range, generate_single_range, GaussianFieldConfig, MultiRangeConfig,
};
use lcc::sz::SzCompressor;
use lcc::zfp::ZfpCompressor;
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};
use std::thread::ThreadId;

#[path = "common/fields.rs"]
mod fields;
use fields::ripple;

const BOUND: ErrorBound = ErrorBound::Absolute(1e-3);
const WIDTHS: [usize; 4] = [1, 2, 3, 8];

/// One archive entry to be: a field, its tile shape and its codec.
struct Entry {
    name: &'static str,
    field: Field2D,
    tile: (usize, usize),
    codec: Box<dyn Compressor>,
}

fn entry(
    name: &'static str,
    field: Field2D,
    tile: (usize, usize),
    codec: impl Compressor + 'static,
) -> Entry {
    Entry { name, field, tile, codec: Box::new(codec) }
}

/// The study's families at a small size, every shipped codec on one of
/// them, and the shapes a tiling can degenerate to.
fn entries() -> Vec<Entry> {
    let grf = |range, seed| generate_single_range(&GaussianFieldConfig::new(96, 96, range, seed));
    let two = generate_multi_range(&MultiRangeConfig::two_ranges(96, 96, 2.0, 24.0, 5));
    let slice = MirandaProxy::new(MirandaProxyConfig {
        ny: 64,
        nx: 64,
        n_slices: 1,
        steps_between_snapshots: 3,
        problem: Problem::KelvinHelmholtz,
        seed: 11,
    })
    .generate_velocityx_slices()
    .remove(0);
    vec![
        entry("grf-a2", grf(2.0, 1), (32, 32), SzCompressor::rans8()),
        entry("grf-a16", grf(16.0, 2), (32, 32), SzCompressor::rans8()),
        entry("grf-a2+24", two, (32, 32), SzCompressor::rans8()),
        entry("miranda-vx", slice, (16, 16), SzCompressor::rans8()),
        entry("grf-a6/sz", grf(6.0, 3), (32, 48), SzCompressor::default()),
        entry("grf-a6/zfp", grf(6.0, 3), (24, 24), ZfpCompressor::default()),
        entry("grf-a6/mgard", grf(6.0, 3), (48, 32), MgardCompressor::default()),
        entry("grf-a6/mgard-rans8", grf(6.0, 3), (32, 32), MgardCompressor::rans8()),
        entry("row", ripple(1, 97), (1, 16), SzCompressor::rans8()),
        entry("column", ripple(89, 1), (16, 1), SzCompressor::rans8()),
        entry("prime-sided", ripple(53, 37), (16, 16), SzCompressor::rans8()),
        // Tiles that straddle the 16-cell prediction blocks and leave a
        // ragged last row and column of tiles.
        entry("straddling", ripple(70, 130), (24, 40), SzCompressor::rans8()),
        entry("one-tile", ripple(20, 30), (64, 64), SzCompressor::rans8()),
    ]
}

fn pool(threads: usize) -> ThreadPoolConfig {
    ThreadPoolConfig::with_threads(threads)
}

fn build(entries: &[Entry], threads: usize, scratch: &mut FrameScratch) -> Vec<u8> {
    let mut writer = ArchiveWriter::new();
    for (k, e) in entries.iter().enumerate() {
        let (tile_ny, tile_nx) = e.tile;
        let index = writer
            .add_entry(
                e.name,
                k as u64,
                &e.field,
                e.codec.as_ref(),
                BOUND,
                tile_ny,
                tile_nx,
                pool(threads),
                scratch,
            )
            .unwrap();
        assert_eq!(index, k);
    }
    writer.finish()
}

/// The archive as it was built before tiles were summarized on the workers,
/// and without the block map: every tile a stand-alone stream of its codec,
/// framed and hashed here, then a serial pass of `summary()` over the field.
fn reference_archive(entries: &[Entry]) -> Vec<u8> {
    let mut bytes = ARCHIVE_MAGIC.to_vec();
    bytes.push(ARCHIVE_VERSION);
    let mut table = Vec::new();
    for (k, e) in entries.iter().enumerate() {
        let view = e.field.view();
        let (ny, nx) = view.shape();
        let (tile_ny, tile_nx) = (e.tile.0.min(ny), e.tile.1.min(nx));
        let tiles: Vec<FieldView<'_>> =
            WindowIter::over(ny, nx, tile_ny, tile_nx).map(|w| view.window(&w)).collect();
        let streams: Vec<Vec<u8>> =
            tiles.iter().map(|tile| e.codec.compress_view(tile, BOUND).unwrap()).collect();
        let offset = bytes.len() as u64;
        if let [only] = streams.as_slice() {
            bytes.extend_from_slice(only);
        } else {
            bytes.extend_from_slice(&FRAME_MAGIC);
            bytes.push(FRAME_VERSION | FLAG_TILED | FLAG_CHECKSUM);
            bytes.extend_from_slice(&(ny as u64).to_le_bytes());
            bytes.extend_from_slice(&(nx as u64).to_le_bytes());
            bytes.extend_from_slice(&(streams.len() as u32).to_le_bytes());
            bytes.extend_from_slice(&(tile_ny as u32).to_le_bytes());
            bytes.extend_from_slice(&(tile_nx as u32).to_le_bytes());
            for stream in &streams {
                bytes.extend_from_slice(&(stream.len() as u64).to_le_bytes());
            }
            for stream in &streams {
                bytes.extend_from_slice(&xxh64(stream, 0).to_le_bytes());
            }
            for stream in &streams {
                bytes.extend_from_slice(stream);
            }
        }
        let tile_stats = tiles
            .iter()
            .map(|tile| {
                let s = tile.summary();
                TileStats { min: s.min, max: s.max, mean: s.mean, variance: s.variance }
            })
            .collect();
        let record = ArchiveEntry {
            name: e.name.to_string(),
            timestep: k as u64,
            codec: e.codec.name().to_string(),
            ny,
            nx,
            tile_ny,
            tile_nx,
            bound: BOUND,
            offset,
            length: bytes.len() as u64 - offset,
            tile_stats,
        };
        write_entry(&mut table, &record);
    }
    let table_offset = bytes.len() as u64;
    bytes.extend_from_slice(&table);
    bytes.extend_from_slice(&table_offset.to_le_bytes());
    bytes.extend_from_slice(&(table.len() as u64).to_le_bytes());
    bytes.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    bytes.push(ARCHIVE_VERSION);
    bytes.extend_from_slice(&ARCHIVE_MAGIC);
    bytes
}

/// XXH64 of the archive of [`entries`] (`add_entry` at width 2, then
/// `finish`). Taken at the commit before tiles were summarized on the
/// workers (`0xd824_94f6_7f85_a1dd`) and re-captured once since, in PR 21,
/// when the `*-rans8` tile streams moved to run-coded frequency tables (the
/// nine `sz-rans8` / `mgard-rans8` entries; the `sz`, `zfp` and `mgard`
/// entries, the frames and the container did not move —
/// `tests/fixtures/archive_pair_table.lcca` keeps an archive of the old
/// streams readable, see `tests/stream_identity.rs`).
const ARCHIVE_DIGEST: u64 = 0x3086_6a00_356a_9efc;

#[test]
fn archives_are_byte_identical_at_every_pool_width_and_to_the_serial_build() {
    let entries = entries();
    let reference = reference_archive(&entries);
    assert_eq!(xxh64(&reference, 0), ARCHIVE_DIGEST, "the archive bytes moved");
    for threads in WIDTHS {
        // One scratch for the whole archive, as an ingest loop holds it, and
        // a second build over the warm scratch.
        let mut scratch = FrameScratch::new();
        for round in 0..2 {
            let built = build(&entries, threads, &mut scratch);
            assert!(built == reference, "width {threads}, round {round}: archive bytes differ");
        }
    }
}

#[test]
fn tile_statistics_are_the_serial_summaries_bit_for_bit() {
    let entries = entries();
    for threads in WIDTHS {
        let archive = Archive::open(build(&entries, threads, &mut FrameScratch::new())).unwrap();
        assert_eq!(archive.len(), entries.len());
        for (k, e) in entries.iter().enumerate() {
            let record = archive.entry(k);
            let (ny, nx) = e.field.shape();
            let tiles = WindowIter::over(ny, nx, record.tile_ny, record.tile_nx);
            assert_eq!(record.tile_stats.len(), tiles.count_windows(), "{}", e.name);
            for (w, stats) in tiles.zip(&record.tile_stats) {
                let s = e.field.view().window(&w).summary();
                let got = [stats.min, stats.max, stats.mean, stats.variance].map(f64::to_bits);
                let want = [s.min, s.max, s.mean, s.variance].map(f64::to_bits);
                assert_eq!(got, want, "{} tile at ({}, {}), width {threads}", e.name, w.i0, w.j0);
            }
        }
    }
}

/// `SzCompressor::rans8()` behind a rendezvous: every worker of a
/// `width`-wide pool is held at a barrier on the first tile it claims, so
/// each of them — the calling thread too — provably encodes at least one
/// tile. Tiles claimed on `fail_on` fail to encode.
struct Rendezvous {
    inner: SzCompressor,
    barrier: Barrier,
    arrived: Mutex<HashSet<ThreadId>>,
    fail_on: Option<ThreadId>,
}

impl Rendezvous {
    fn new(width: usize, fail_on: Option<ThreadId>) -> Self {
        Rendezvous {
            inner: SzCompressor::rans8(),
            barrier: Barrier::new(width),
            arrived: Mutex::new(HashSet::new()),
            fail_on,
        }
    }

    fn workers(&self) -> usize {
        self.arrived.lock().unwrap().len()
    }
}

impl Compressor for Rendezvous {
    fn name(&self) -> &str {
        "rendezvous"
    }

    fn compress_view_with(
        &self,
        view: &FieldView<'_>,
        bound: ErrorBound,
        scratch: &mut ScratchArena,
    ) -> Result<Vec<u8>, CompressError> {
        let me = std::thread::current().id();
        let first = self.arrived.lock().unwrap().insert(me);
        if first {
            self.barrier.wait();
        }
        if self.fail_on == Some(me) {
            return Err(CompressError::Internal("the caller's tile failed".into()));
        }
        self.inner.compress_view_with(view, bound, scratch)
    }

    fn decompress_view_with(
        &self,
        stream: &[u8],
        scratch: &mut ScratchArena,
        out: &mut Field2D,
    ) -> Result<(), CompressError> {
        self.inner.decompress_view_with(stream, scratch, out)
    }
}

#[test]
fn a_failing_tile_and_a_panicking_tile_closure_each_surface_as_one_error() {
    let field = ripple(96, 96);
    let view = field.view();
    let caller = std::thread::current().id();
    let mut scratch = FrameScratch::new();
    let sz = SzCompressor::rans8();
    let (clean, cells) =
        compress_frame(&sz, &view, BOUND, (16, 16), true, pool(2), &mut scratch, |t| t.len())
            .unwrap();
    assert_eq!(cells, vec![256; 36]);

    for width in [2, 3, 8] {
        // A tile that fails to encode on the calling thread's share.
        let codec = Rendezvous::new(width, Some(caller));
        let result = compress_frame(
            &codec,
            &view,
            BOUND,
            (16, 16),
            true,
            pool(width),
            &mut scratch,
            |tile| tile.len(),
        );
        assert_eq!(codec.workers(), width, "the caller and {width} - 1 spawned workers");
        assert!(
            matches!(&result, Err(CompressError::Internal(m)) if m == "the caller's tile failed"),
            "width {width}: {result:?}"
        );

        // A tile closure that panics on the calling thread's share.
        let codec = Rendezvous::new(width, None);
        let (started, finished) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let result = compress_frame(
            &codec,
            &view,
            BOUND,
            (16, 16),
            true,
            pool(width),
            &mut scratch,
            |tile| {
                started.fetch_add(1, Ordering::SeqCst);
                if std::thread::current().id() == caller {
                    panic!("tile closure went bad");
                }
                finished.fetch_add(1, Ordering::SeqCst);
                tile.len()
            },
        );
        assert_eq!(codec.workers(), width);
        match &result {
            Err(CompressError::Internal(message)) => {
                assert!(message.contains("panicked"), "{message}");
                assert!(message.contains("tile closure went bad"), "{message}");
            }
            other => panic!("width {width}: expected one internal error, got {other:?}"),
        }
        // Every worker has been joined: no closure is still running, and
        // exactly one call did not return — the caller's, whose panic
        // stopped its share; the others stop claiming once they see it.
        assert_eq!(started.load(Ordering::SeqCst), finished.load(Ordering::SeqCst) + 1);

        // A non-finite tile is refused by the codec itself, whichever worker
        // claims it.
        let mut poisoned = field.clone();
        poisoned.set(40, 70, f64::NAN);
        let result = compress_frame(
            &sz,
            &poisoned.view(),
            BOUND,
            (16, 16),
            true,
            pool(width),
            &mut scratch,
            |tile| tile.len(),
        );
        assert!(matches!(result, Err(CompressError::InvalidInput(_))), "width {width}");

        // The scratch the failed frames ran over is as good as new.
        let (again, _) =
            compress_frame(&sz, &view, BOUND, (16, 16), true, pool(width), &mut scratch, |_| ())
                .unwrap();
        assert!(again == clean, "width {width}: bytes after the failures differ");
    }
}
