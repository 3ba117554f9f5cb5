//! Corrupt-archive suite: every structural lie an LCCA byte stream can
//! tell must surface as a [`CompressError`] — never a panic, never an
//! allocation sized by forged metadata instead of actual bytes.
//!
//! Covered: truncation at arbitrary cuts, forged head/footer magic and
//! versions, entry offsets outside the payload region, overlapping
//! entries, footer entry counts the table cannot hold, frame headers that
//! disagree with the entry metadata, tile-length overflow in the frame's
//! seek index, stray table bytes, raw (unframed) payloads under one-tile or
//! multi-tile metadata, entries holding a retired row-band frame or a frame
//! without its digest table, every flipped bit of a one-tile entry, reads
//! with a codec other than the entry's writer, and entry records no writer
//! produces (a bound that is not positive and finite, impossible tile
//! statistics).

use lcc::archive::format::{write_entry, ARCHIVE_MAGIC, ARCHIVE_VERSION, FOOTER_LEN, HEAD_LEN};
use lcc::archive::{Archive, ArchiveEntry, ArchiveWriter, ReadAt};
use lcc::grid::Field2D;
use lcc::par::ThreadPoolConfig;
use lcc::pressio::{CompressError, Compressor, ErrorBound, FrameIndex, FrameScratch};
use lcc::sz::SzCompressor;

#[path = "common/alloc_probe.rs"]
mod alloc_probe;

#[global_allocator]
static ALLOC: alloc_probe::Probe = alloc_probe::Probe;

fn wavy(ny: usize, nx: usize) -> Field2D {
    Field2D::from_fn(ny, nx, |i, j| (i as f64 * 0.13).sin() + (j as f64 * 0.09).cos())
}

/// A small, genuine archive: one 32×24 sz entry in 8×8 tiles (12 tiles)
/// plus one 9×9 entry in a single tile (a one-block frame).
fn build() -> Vec<u8> {
    let mut scratch = FrameScratch::default();
    let mut writer = ArchiveWriter::new();
    let sz = SzCompressor::default();
    let bound = ErrorBound::Absolute(1e-3);
    let pool = ThreadPoolConfig::with_threads(2);
    writer.add_entry("density", 0, &wavy(32, 24), &sz, bound, 8, 8, pool, &mut scratch).unwrap();
    writer.add_entry("energy", 0, &wavy(9, 9), &sz, bound, 16, 16, pool, &mut scratch).unwrap();
    writer.finish()
}

fn open_err(bytes: Vec<u8>) -> String {
    match Archive::open(bytes) {
        Err(CompressError::CorruptStream(msg)) => msg,
        Err(other) => panic!("expected CorruptStream, got {other:?}"),
        Ok(_) => panic!("corrupt archive opened successfully"),
    }
}

/// The archive's parsed structure: (payload bytes after the head, entry
/// metadata, original table offset) — enough to reassemble with forged
/// metadata via [`reassemble`].
fn dissect(bytes: &[u8]) -> (Vec<u8>, Vec<ArchiveEntry>) {
    let foot = &bytes[bytes.len() - FOOTER_LEN..];
    let table_offset = u64::from_le_bytes(foot[0..8].try_into().unwrap()) as usize;
    let payload = bytes[HEAD_LEN..table_offset].to_vec();
    let archive = Archive::open(bytes.to_vec()).expect("dissect needs a valid archive");
    let entries = (0..archive.len()).map(|k| archive.entry(k).clone()).collect();
    (payload, entries)
}

/// Rebuild an archive from a payload and (possibly forged) entry records.
fn reassemble(payload: &[u8], entries: &[ArchiveEntry]) -> Vec<u8> {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&ARCHIVE_MAGIC);
    bytes.push(ARCHIVE_VERSION);
    bytes.extend_from_slice(payload);
    let table_offset = bytes.len() as u64;
    for e in entries {
        write_entry(&mut bytes, e);
    }
    let table_bytes = bytes.len() as u64 - table_offset;
    bytes.extend_from_slice(&table_offset.to_le_bytes());
    bytes.extend_from_slice(&table_bytes.to_le_bytes());
    bytes.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    bytes.push(ARCHIVE_VERSION);
    bytes.extend_from_slice(&ARCHIVE_MAGIC);
    bytes
}

#[test]
fn reassembled_archive_is_valid_as_a_control() {
    let bytes = build();
    let (payload, entries) = dissect(&bytes);
    assert_eq!(reassemble(&payload, &entries), bytes, "dissect/reassemble is the identity");
}

#[test]
fn truncation_anywhere_is_rejected() {
    let bytes = build();
    for cut in [0, 3, 4, 5, HEAD_LEN + 1, bytes.len() / 2, bytes.len() - 1] {
        assert!(
            Archive::open(bytes[..cut].to_vec()).is_err(),
            "truncated to {cut} bytes still opened"
        );
    }
}

#[test]
fn forged_magic_and_versions_are_rejected() {
    let good = build();
    let n = good.len();

    let mut bad = good.clone();
    bad[0] ^= 0xff;
    assert!(open_err(bad).contains("magic"));

    let mut bad = good.clone();
    bad[4] = 99;
    assert!(open_err(bad).contains("version"));

    let mut bad = good.clone();
    bad[n - 1] ^= 0xff; // footer magic
    assert!(open_err(bad).contains("footer"));

    let mut bad = good.clone();
    bad[n - 5] = 99; // footer version byte
    assert!(open_err(bad).contains("footer"));
}

#[test]
fn entry_offsets_outside_the_payload_region_are_rejected() {
    let (payload, entries) = dissect(&build());

    // Offset pointing past the payload into the table.
    let mut forged = entries.clone();
    forged[0].offset = (HEAD_LEN + payload.len()) as u64;
    assert!(open_err(reassemble(&payload, &forged)).contains("outside the payload region"));

    // Offset fine, length reaching past the payload.
    let mut forged = entries.clone();
    forged[1].length += payload.len() as u64;
    assert!(open_err(reassemble(&payload, &forged)).contains("outside the payload region"));

    // Offset inside the 5-byte head.
    let mut forged = entries.clone();
    forged[0].offset = 2;
    assert!(open_err(reassemble(&payload, &forged)).contains("outside the payload region"));

    // Zero-length entry.
    let mut forged = entries;
    forged[0].length = 0;
    assert!(open_err(reassemble(&payload, &forged)).contains("outside the payload region"));
}

#[test]
fn entry_spans_overflowing_u64_are_rejected() {
    // offset + length wrapping past u64::MAX must read as an out-of-bounds
    // span (None from checked_add), not slip past the comparison — for the
    // tiled entry and for the one-tile one, whose forged length would
    // otherwise reach a read-time allocation.
    let (payload, entries) = dissect(&build());
    for k in 0..entries.len() {
        let mut forged = entries.clone();
        forged[k].length = u64::MAX - forged[k].offset + 3; // end wraps to 2
        assert!(
            open_err(reassemble(&payload, &forged)).contains("outside the payload region"),
            "entry {k}: overflowing span was not rejected"
        );
    }
}

#[test]
fn overlapping_entries_are_rejected() {
    let (payload, mut entries) = dissect(&build());
    entries[1].offset = entries[0].offset + 1;
    assert!(open_err(reassemble(&payload, &entries)).contains("overlap"));
}

#[test]
fn entry_counts_the_table_cannot_hold_are_rejected() {
    // A forged footer claiming u32::MAX entries must be refused by
    // arithmetic on the actual table size, not by attempting to parse (or
    // preallocate) four billion records.
    let mut bytes = build();
    let n = bytes.len();
    bytes[n - 9..n - 5].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(open_err(bytes).contains("cannot fit"));
}

#[test]
fn table_span_must_sit_flush_against_the_footer() {
    let good = build();
    let n = good.len();

    // table_offset shifted by one: [offset, +bytes) no longer ends at the
    // footer.
    let mut bad = good.clone();
    let table_offset = u64::from_le_bytes(bad[n - FOOTER_LEN..n - 17].try_into().unwrap());
    bad[n - FOOTER_LEN..n - 17].copy_from_slice(&(table_offset + 1).to_le_bytes());
    assert!(open_err(bad).contains("does not fit"));

    // table_bytes forged huge: rejected before any allocation of that size.
    let mut bad = good;
    bad[n - 17..n - 9].copy_from_slice(&(u64::MAX / 2).to_le_bytes());
    assert!(open_err(bad).contains("does not fit"));
}

#[test]
fn stray_bytes_after_the_last_entry_record_are_rejected() {
    let (payload, entries) = dissect(&build());
    let mut bytes = reassemble(&payload, &entries);
    // Splice one extra byte into the table span and grow table_bytes to
    // match, keeping the footer arithmetic consistent.
    let n = bytes.len();
    let table_bytes = u64::from_le_bytes(bytes[n - 17..n - 9].try_into().unwrap());
    bytes[n - 17..n - 9].copy_from_slice(&(table_bytes + 1).to_le_bytes());
    bytes.insert(n - FOOTER_LEN, 0);
    assert!(open_err(bytes).contains("stray bytes"));
}

#[test]
fn frame_headers_disagreeing_with_metadata_are_rejected() {
    // Forge the metadata to a 4×24 tiling of the 32×24 field (8 tiles,
    // with stats re-counted to match, so the record itself parses) — the
    // frame header still says 8×8, and that disagreement must be fatal.
    let (payload, mut entries) = dissect(&build());
    entries[0].tile_ny = 4;
    entries[0].tile_nx = 24;
    let n_tiles = entries[0].n_tiles();
    entries[0].tile_stats =
        vec![lcc::archive::TileStats { min: 0.0, max: 0.0, mean: 0.0, variance: 0.0 }; n_tiles];
    assert!(open_err(reassemble(&payload, &entries)).contains("disagrees"));
}

/// [`build`]'s archive with its last entry, the one-tile "energy", holding
/// the codec's raw stream of the field instead of a frame around it, under
/// the entry's own metadata: the form a one-tile entry took before every
/// tiling became a frame.
fn raw_one_tile_entry() -> (Vec<u8>, Vec<ArchiveEntry>) {
    let (mut payload, mut entries) = dissect(&build());
    let at = entries[1].offset as usize - HEAD_LEN;
    let frame = payload.split_off(at);
    let raw = SzCompressor::default()
        .compress_view(&wavy(9, 9).view(), ErrorBound::Absolute(1e-3))
        .unwrap();
    let index = FrameIndex::parse(&frame, frame.len()).unwrap();
    let (block, len) = index.block_span(0);
    assert_eq!(frame[block..block + len], raw[..], "the frame's one block is the raw stream");
    payload.extend_from_slice(&raw);
    entries[1].length = raw.len() as u64;
    (payload, entries)
}

#[test]
fn raw_payloads_claiming_multiple_tiles_are_rejected() {
    // The one-tile entry's raw stream, under metadata forged to claim a
    // 5×9 tiling (2 tiles) of the same 9×9 field: no frame magic.
    let (payload, mut entries) = raw_one_tile_entry();
    entries[1].tile_ny = 5;
    entries[1].tile_nx = 9;
    entries[1].tile_stats =
        vec![lcc::archive::TileStats { min: 0.0, max: 0.0, mean: 0.0, variance: 0.0 }; 2];
    let msg = open_err(reassemble(&payload, &entries));
    assert_eq!(msg, "frame: header truncated or missing magic");
}

#[test]
fn raw_payloads_under_one_tile_metadata_are_rejected() {
    // The same raw stream under the entry's true one-tile metadata is no
    // frame either: `Archive::open` refuses it before reading a tile, with
    // no allocation larger than the archive.
    let (payload, entries) = raw_one_tile_entry();
    let bytes = reassemble(&payload, &entries);
    let (opened, largest) =
        alloc_probe::largest_request_during(|| Archive::open(bytes.clone()).map(drop));
    let want = "frame: header truncated or missing magic";
    assert_eq!(opened, Err(CompressError::CorruptStream(want.into())));
    assert!(largest <= bytes.len(), "a {largest}-byte allocation for {} bytes", bytes.len());
}

#[test]
fn every_flipped_bit_of_a_one_tile_entry_is_refused() {
    // A one-tile entry is a frame with one digest: no flipped bit of its
    // payload may open and read back as a field, right or wrong.
    use lcc::grid::Window;
    let (bound, pool) = (ErrorBound::Absolute(1e-3), ThreadPoolConfig::with_threads(1));
    let sz = SzCompressor::rans8();
    let mut writer = ArchiveWriter::new();
    let mut scratch = FrameScratch::default();
    writer.add_entry("energy", 0, &wavy(9, 9), &sz, bound, 16, 16, pool, &mut scratch).unwrap();
    let good = writer.finish();
    let archive = Archive::open(good.clone()).unwrap();
    let entry = archive.entry(0).clone();
    let raw = sz.compress_view(&wavy(9, 9).view(), bound).unwrap();
    assert_eq!(entry.n_tiles(), 1);
    assert_eq!(entry.length as usize, FrameIndex::PREFIX_LEN + 16 + raw.len(), "a frame of one");
    let window = Window { i0: 0, j0: 0, height: 9, width: 9 };
    let mut out = Field2D::zeros(1, 1);
    archive.read_region(0, &window, &sz, pool, &mut scratch, &mut out).unwrap();
    assert!(wavy(9, 9).max_abs_diff(&out) <= 1e-3, "the pristine entry reads");

    let (start, end) = (entry.offset as usize, (entry.offset + entry.length) as usize);
    for bit in 8 * start..8 * end {
        let mut bad = good.clone();
        bad[bit / 8] ^= 1 << (bit % 8);
        let read = Archive::open(bad)
            .and_then(|archive| archive.read_region(0, &window, &sz, pool, &mut scratch, &mut out));
        assert!(read.is_err(), "flipping bit {} of byte {} read {read:?}", bit % 8, bit / 8);
    }
}

#[test]
fn entries_holding_a_retired_row_band_frame_are_rejected() {
    // Full-width 8-row tiles of a 32-row field are the bands a row-band
    // frame held: dropping the tile shape from the header and the tiled flag
    // from the version byte turns the entry into one (checksummed, `0x41`),
    // digests and all, under metadata that still describes its blocks.
    let mut writer = ArchiveWriter::new();
    let (bound, pool) = (ErrorBound::Absolute(1e-3), ThreadPoolConfig::with_threads(2));
    let (sz, mut scratch) = (SzCompressor::default(), FrameScratch::default());
    writer.add_entry("bands", 0, &wavy(32, 24), &sz, bound, 8, 24, pool, &mut scratch).unwrap();
    let (mut payload, mut entries) = dissect(&writer.finish());
    let at = entries[0].offset as usize - HEAD_LEN;
    assert_eq!(payload[at + 4], 0x61, "a checksummed tiled frame");
    payload[at + 4] = 0x41;
    payload.drain(at + 25..at + 33);
    entries[0].length -= 8;
    let msg = open_err(reassemble(&payload, &entries));
    assert!(msg.contains("unsupported version byte 0x41"), "{msg}");
}

#[test]
fn entries_holding_an_unchecksummed_frame_are_rejected() {
    // Entry 0's twelve 8×8 tiles with their digest table cut out and the
    // version byte's digest flag cleared are the retired `0x21` frame: its
    // tiles would decode unverified, so the entry must not open.
    use lcc::grid::Window;
    let (mut payload, mut entries) = dissect(&build());
    let at = entries[0].offset as usize - HEAD_LEN;
    let n_blocks = entries[0].tile_stats.len();
    assert_eq!(n_blocks, 12);
    assert_eq!(payload[at + 4], 0x61, "a checksummed tiled frame");
    payload[at + 4] = 0x21;
    let digests = at + 33 + 8 * n_blocks;
    payload.drain(digests..digests + 8 * n_blocks);
    entries[0].length -= 8 * n_blocks as u64;
    entries[1].offset -= 8 * n_blocks as u64;
    match Archive::open(reassemble(&payload, &entries)) {
        Err(CompressError::CorruptStream(msg)) => {
            assert!(msg.contains("unsupported version byte 0x21"), "{msg}");
        }
        Err(other) => panic!("expected CorruptStream, got {other:?}"),
        Ok(archive) => {
            let (sz, pool) = (SzCompressor::default(), ThreadPoolConfig::with_threads(1));
            let (mut scratch, mut out) = (FrameScratch::default(), Field2D::zeros(1, 1));
            let window = Window { i0: 0, j0: 0, height: 32, width: 24 };
            let read = archive.read_region(0, &window, &sz, pool, &mut scratch, &mut out);
            panic!("an entry without digests opened, and a full-window read gave {read:?}");
        }
    }
}

#[test]
fn every_single_byte_flip_is_survived() {
    // Exhaustive single-byte fuzz: flip all eight bits of EVERY byte of the
    // archive, one position at a time, and demand that `Archive::open` plus a
    // full-window `read_region` of every entry either succeeds or fails with
    // a clean `CompressError` — never a panic, never an abort. This is the
    // blanket guarantee the targeted structural tests above sample from.
    use lcc::grid::Window;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    let good = build();
    let shapes: Vec<(usize, usize)> = {
        let archive = Archive::open(good.clone()).expect("pristine archive opens");
        (0..archive.len()).map(|k| (archive.entry(k).ny, archive.entry(k).nx)).collect()
    };

    let sz = SzCompressor::default();
    let pool = ThreadPoolConfig::with_threads(1);
    for pos in 0..good.len() {
        let mut bad = good.clone();
        bad[pos] ^= 0xFF;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let Ok(archive) = Archive::open(bad) else { return };
            let mut scratch = FrameScratch::default();
            let mut out = lcc::grid::Field2D::zeros(1, 1);
            for (k, &(ny, nx)) in shapes.iter().enumerate() {
                if k >= archive.len() {
                    break;
                }
                let window = Window { i0: 0, j0: 0, height: ny, width: nx };
                // Errors are legitimate (the flip may hit a tile checksum);
                // only panics and runaway allocations are not.
                let _ = archive.read_region(k, &window, &sz, pool, &mut scratch, &mut out);
            }
        }));
        assert!(outcome.is_ok(), "flipping byte {pos} of {} caused a panic", good.len());
    }
}

#[test]
fn tile_length_overflow_in_the_seek_index_is_rejected() {
    // Corrupt the first u64 of the tiled frame's length table in place:
    // the seek index must refuse it at open time (overflow-checked prefix
    // sums), long before any tile is fetched.
    let bytes = build();
    let (_, entries) = dissect(&bytes);
    let table_at = entries[0].offset as usize + 33; // the frame header is 33 bytes
    let mut bad = bytes.clone();
    bad[table_at..table_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    assert!(Archive::open(bad).is_err());

    // And a truncated frame: shrink the entry's claimed length so the tile
    // lengths no longer sum to it.
    let (payload, mut entries) = dissect(&bytes);
    entries[0].length -= 1;
    assert!(Archive::open(reassemble(&payload, &entries)).is_err());
}

/// An in-memory source that counts the positioned reads it serves.
struct CountingSource {
    bytes: Vec<u8>,
    reads: std::sync::Arc<std::sync::atomic::AtomicUsize>,
}

impl ReadAt for CountingSource {
    fn len(&self) -> u64 {
        self.bytes.len() as u64
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<(), CompressError> {
        self.reads.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.bytes.read_at(offset, buf)
    }
}

#[test]
fn reads_with_a_codec_other_than_the_writer_are_refused_before_any_tile_is_touched() {
    // The entries were written by `sz`. Any other compressor used to fetch
    // every tile twice and report `CorruptStream`.
    use lcc::grid::{Field2D, Window};
    use std::sync::atomic::Ordering;
    use std::time::{Duration, Instant};

    let reads = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
    let source = CountingSource { bytes: build(), reads: reads.clone() };
    let archive = Archive::open(source).unwrap();
    let opened = reads.load(Ordering::Relaxed);
    let pool = ThreadPoolConfig::with_threads(2);
    let mut scratch = FrameScratch::default();
    let mut out = Field2D::zeros(1, 1);
    let window = Window { i0: 4, j0: 4, height: 8, width: 8 };
    let live = Some(Instant::now() + Duration::from_secs(600));

    let wrong: [&dyn lcc::pressio::Compressor; 2] =
        [&lcc::zfp::ZfpCompressor::default(), &SzCompressor::rans8()];
    for codec in wrong {
        let refusals = [
            archive.read_entry(0, codec, pool, &mut scratch, &mut out).unwrap_err(),
            archive.read_region(0, &window, codec, pool, &mut scratch, &mut out).unwrap_err(),
            archive
                .read_region_with(0, &window, codec, pool, &mut scratch, &mut out, live)
                .unwrap_err(),
        ];
        for err in refusals {
            let want = format!(
                "archive: entry 'density' was written by 'sz', not '{}'",
                lcc::pressio::Compressor::name(codec)
            );
            assert_eq!(err, CompressError::InvalidInput(want));
        }
    }
    assert_eq!(reads.load(Ordering::Relaxed), opened, "a refused read must not touch the source");

    // The recorded codec still reads, through the same counting source.
    let sz = SzCompressor::default();
    let stats = archive.read_region(0, &window, &sz, pool, &mut scratch, &mut out).unwrap();
    assert_eq!(stats.tiles, 4);
    assert_eq!(reads.load(Ordering::Relaxed), opened + 4, "one positioned read a tile");
}

#[test]
fn bounds_no_writer_accepts_are_rejected() {
    let (payload, entries) = dissect(&build());
    for eps in [f64::NAN, -1e-3, 0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY] {
        for bound in [ErrorBound::Absolute(eps), ErrorBound::ValueRangeRelative(eps)] {
            let mut forged = entries.clone();
            forged[1].bound = bound;
            let msg = open_err(reassemble(&payload, &forged));
            assert!(msg.contains("entry 'energy'"), "{bound:?}: {msg}");
            assert!(msg.contains("not positive and finite"), "{bound:?}: {msg}");
        }
    }
    // A relative bound the writer accepts still opens.
    let mut forged = entries;
    forged[1].bound = ErrorBound::ValueRangeRelative(1e-2);
    assert!(Archive::open(reassemble(&payload, &forged)).is_ok());
}

#[test]
fn tile_statistics_no_summary_produces_are_rejected() {
    use lcc::archive::TileStats;
    let (payload, entries) = dissect(&build());
    let real = entries[0].tile_stats[5];
    let forgeries = [
        TileStats { min: real.max + 1.0, ..real },
        TileStats { mean: f64::NAN, ..real },
        TileStats { variance: -1e-9, ..real },
        TileStats { variance: f64::NAN, ..real },
        TileStats { min: f64::NAN, ..real },
        TileStats { max: f64::NAN, ..real },
        TileStats { min: f64::NEG_INFINITY, ..real },
        TileStats { max: f64::INFINITY, ..real },
        // Every rule broken at once.
        TileStats { min: 1.0, max: -1.0, mean: f64::NAN, variance: -1.0 },
    ];
    for stats in forgeries {
        let mut forged = entries.clone();
        forged[0].tile_stats[5] = stats;
        let msg = open_err(reassemble(&payload, &forged));
        assert!(msg.contains("entry 'density' tile 5"), "{stats:?}: {msg}");
    }
    // What a summary of finite values can be: an overflowed mean and
    // variance, a one-valued tile, and the all-zero statistics the forgeries
    // above start from elsewhere in this suite.
    let valid = [
        TileStats { mean: f64::INFINITY, variance: f64::INFINITY, ..real },
        TileStats { mean: f64::NEG_INFINITY, variance: f64::INFINITY, ..real },
        TileStats { min: 2.5, max: 2.5, mean: 2.5, variance: 0.0 },
        TileStats { min: 0.0, max: 0.0, mean: 0.0, variance: 0.0 },
    ];
    for stats in valid {
        let mut forged = entries.clone();
        forged[0].tile_stats[5] = stats;
        assert!(Archive::open(reassemble(&payload, &forged)).is_ok(), "{stats:?}");
    }
}

#[test]
fn tiles_whose_sums_overflow_are_written_and_read_back() {
    // Values near ±1.7e308: each tile's sum overflows, so its mean is ±∞
    // and its variance +∞ — still what the writer stores, and still opened.
    let huge = Field2D::from_fn(16, 16, |i, j| {
        let sign = if i < 8 { 1.0 } else { -1.0 };
        sign * (1.7e308 - (i * 16 + j) as f64 * 1e292)
    });
    let mut scratch = FrameScratch::default();
    let mut writer = ArchiveWriter::new();
    let sz = SzCompressor::default();
    let pool = ThreadPoolConfig::with_threads(2);
    let bound = ErrorBound::Absolute(1e300);
    writer.add_entry("huge", 0, &huge, &sz, bound, 8, 8, pool, &mut scratch).unwrap();
    let archive = Archive::open(writer.finish()).unwrap();
    let stats = &archive.entry(0).tile_stats;
    assert_eq!(stats.len(), 4);
    for (t, s) in stats.iter().enumerate() {
        let sign = if t < 2 { 1.0 } else { -1.0 };
        assert_eq!(s.mean, sign * f64::INFINITY, "tile {t}: {s:?}");
        assert_eq!(s.variance, f64::INFINITY, "tile {t}: {s:?}");
        assert!(s.min.is_finite() && s.max.is_finite() && s.min <= s.max, "tile {t}: {s:?}");
    }
    let window = lcc::grid::Window { i0: 0, j0: 0, height: 16, width: 16 };
    let mut out = Field2D::zeros(1, 1);
    archive.read_region(0, &window, &sz, pool, &mut scratch, &mut out).unwrap();
    assert!(huge.max_abs_diff(&out) <= 1e300);
}
