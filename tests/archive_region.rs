//! Region-read equivalence: for arbitrary fields, tilings and windows,
//! [`Archive::read_region`] must produce **bit-identical** values to
//! slicing the same window out of a full-frame decode — with no cache,
//! with a cold cache, with a warm cache, and at every pool width. The
//! cache and the parallel tile fan-out are allowed to change timing only,
//! never a single bit of output.

use lcc::archive::{Archive, ArchiveWriter, TileCache};
use lcc::grid::{Field2D, Window};
use lcc::par::ThreadPoolConfig;
use lcc::pressio::{CompressError, ErrorBound, FrameScratch};
use lcc::sz::SzCompressor;
use proptest::prelude::*;
use std::sync::Arc;

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn read_region_equals_windowed_full_decode(
        ny in 1usize..48,
        nx in 1usize..48,
        tile_ny in 1usize..17,
        tile_nx in 1usize..17,
        wi in any::<u32>(),
        wj in any::<u32>(),
        wh in any::<u32>(),
        ww in any::<u32>(),
        seed in any::<u64>(),
    ) {
        // Map the raw draws onto an in-bounds, non-empty window.
        let i0 = wi as usize % ny;
        let j0 = wj as usize % nx;
        let window = Window {
            i0,
            j0,
            height: 1 + wh as usize % (ny - i0),
            width: 1 + ww as usize % (nx - j0),
        };

        let sz = SzCompressor::default();
        let bound = ErrorBound::Absolute(1e-3);
        let field = wavy(ny, nx, seed);
        let mut scratch = FrameScratch::default();
        let mut writer = ArchiveWriter::new();
        writer.add_entry(
            "f", 0, &field, &sz, bound, tile_ny, tile_nx,
            ThreadPoolConfig::with_threads(2), &mut scratch,
        ).unwrap();
        let bytes = writer.finish();

        // Reference: the window of a full-frame decode.
        let uncached = Archive::open(bytes.clone()).unwrap();
        let mut full = Field2D::zeros(1, 1);
        uncached
            .read_entry(0, &sz, ThreadPoolConfig::with_threads(2), &mut scratch, &mut full)
            .unwrap();
        let want: Vec<f64> = full.view().window(&window).iter().collect();

        let cached = Archive::open(bytes).unwrap().with_cache(Arc::new(TileCache::new(1 << 22)));
        let mut out = Field2D::zeros(1, 1);
        for threads in [1usize, 4] {
            let pool = ThreadPoolConfig::with_threads(threads);
            // No cache attached.
            let stats = uncached.read_region(0, &window, &sz, pool, &mut scratch, &mut out).unwrap();
            prop_assert_eq!(out.as_slice(), want.as_slice());
            prop_assert!(stats.tiles > 0 && stats.tiles_from_cache == 0);
            // Cache attached: first read fills, second read must be served
            // from it — both bit-identical to the reference.
            let cold = cached.read_region(0, &window, &sz, pool, &mut scratch, &mut out).unwrap();
            prop_assert_eq!(out.as_slice(), want.as_slice());
            let hot = cached.read_region(0, &window, &sz, pool, &mut scratch, &mut out).unwrap();
            prop_assert_eq!(out.as_slice(), want.as_slice());
            prop_assert_eq!(hot.tiles, cold.tiles);
            prop_assert_eq!(hot.tiles_from_cache, hot.tiles);
        }
    }
}

#[test]
fn degenerate_windows_are_rejected_as_invalid_input() {
    let sz = SzCompressor::default();
    let mut scratch = FrameScratch::default();
    let mut writer = ArchiveWriter::new();
    writer
        .add_entry(
            "f",
            0,
            &wavy(16, 16, 7),
            &sz,
            ErrorBound::Absolute(1e-3),
            8,
            8,
            ThreadPoolConfig::with_threads(1),
            &mut scratch,
        )
        .unwrap();
    let archive = Archive::open(writer.finish()).unwrap();
    let mut out = Field2D::zeros(1, 1);
    let pool = ThreadPoolConfig::with_threads(1);
    for window in [
        Window { i0: 0, j0: 0, height: 0, width: 1 },
        Window { i0: 0, j0: 0, height: 1, width: 0 },
        Window { i0: 8, j0: 0, height: 9, width: 1 },
        Window { i0: 0, j0: 8, height: 1, width: 9 },
        // Extents whose corner + size overflows usize must be InvalidInput,
        // not a wrap-around that sneaks past the bounds check.
        Window { i0: 1, j0: 0, height: usize::MAX, width: 1 },
        Window { i0: 0, j0: 1, height: 1, width: usize::MAX },
    ] {
        match archive.read_region(0, &window, &sz, pool, &mut scratch, &mut out) {
            Err(CompressError::InvalidInput(_)) => {}
            other => panic!("window {window:?}: expected InvalidInput, got {other:?}"),
        }
    }
}

/// The cache may refuse, evict and recycle as it likes — at no budget does
/// a window come back different from the uncached read or the full-frame
/// decode.
#[test]
fn every_cache_budget_reads_the_same_bits() {
    const N: usize = 96;
    const TILE: usize = 16;
    let sz = SzCompressor::rans8();
    let mut scratch = FrameScratch::default();
    let mut writer = ArchiveWriter::new();
    let pool = ThreadPoolConfig::with_threads(2);
    writer
        .add_entry(
            "f",
            0,
            &wavy(N, N, 11),
            &sz,
            ErrorBound::Absolute(1e-3),
            TILE,
            TILE,
            pool,
            &mut scratch,
        )
        .unwrap();
    let bytes = writer.finish();
    let uncached = Archive::open(bytes.clone()).unwrap();
    let mut full = Field2D::zeros(1, 1);
    uncached.read_entry(0, &sz, pool, &mut scratch, &mut full).unwrap();

    // A skewed, repeating window stream: a few windows come back every few
    // reads, most are seen once or twice.
    let mut s = 0x2545_f491_4f6c_dd1du64;
    let mut draw = |n: usize| {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s >> 11) as usize % n
    };
    let candidates: Vec<Window> = (0..48)
        .map(|_| {
            let (height, width) = (1 + draw(40), 1 + draw(40));
            Window { i0: draw(N - height + 1), j0: draw(N - width + 1), height, width }
        })
        .collect();
    let stream: Vec<Window> = (0..240)
        .map(|_| {
            let head = 1 + draw(48);
            candidates[draw(head)]
        })
        .collect();

    // Budget bytes of one tile and of the whole decoded archive, as the
    // cache charges them (values plus 96 bytes of bookkeeping).
    let tile_bytes = TILE * TILE * 8 + 96;
    let archive_bytes = (N / TILE) * (N / TILE) * tile_bytes;
    let mut out = Field2D::zeros(1, 1);
    let mut want = Field2D::zeros(1, 1);
    for budget in [0, tile_bytes, archive_bytes / 4, 4 * archive_bytes] {
        let cache = Arc::new(TileCache::new(budget));
        let cached = Archive::open(bytes.clone()).unwrap().with_cache(Arc::clone(&cache));
        for window in &stream {
            uncached.read_region(0, window, &sz, pool, &mut scratch, &mut want).unwrap();
            let from_full: Vec<f64> = full.view().window(window).iter().collect();
            assert_eq!(want.as_slice(), from_full.as_slice());
            let stats = cached.read_region(0, window, &sz, pool, &mut scratch, &mut out).unwrap();
            assert_eq!(out.as_slice(), want.as_slice(), "budget {budget}, window {window:?}");
            assert!(stats.tiles_from_cache <= stats.tiles && stats.tiles_recovered == 0);
        }
        let stats = cache.stats();
        assert!(stats.bytes <= budget as u64, "budget {budget}: {} resident", stats.bytes);
        match budget {
            0 => {
                assert_eq!((stats.hits, stats.entries), (0, 0), "a zero budget admits nothing")
            }
            b if b == tile_bytes => assert_eq!(stats.entries, 1),
            b if b < archive_bytes => {
                assert!(stats.hits > 0 && stats.evictions > 0 && stats.refusals > 0, "{stats:?}")
            }
            _ => assert_eq!((stats.evictions, stats.refusals), (0, 0), "room for everything"),
        }
    }
}
