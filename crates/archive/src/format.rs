//! On-disk layout of the LCCA archive container.
//!
//! ```text
//! offset            size   field
//! 0                 4      magic b"LCCA"
//! 4                 1      archive version (1)
//! 5                 …      entry payloads, back to back: each one LCCF
//!                          `0x61` frame, one-tile entries included
//! table_offset      …      entry metadata records (layout below)
//! len - 25          25     footer:
//!                            table_offset (u64 LE)
//!                            table_bytes  (u64 LE)
//!                            n_entries    (u32 LE)
//!                            version      (1)
//!                            magic b"LCCA"
//! ```
//!
//! The entry table sits at the **tail** so entries stream out as they are
//! written; a reader finds it from the fixed-size footer. One metadata
//! record per entry:
//!
//! ```text
//! name_len  (u16 LE) + name (UTF-8)
//! codec_len (u16 LE) + codec name (UTF-8)
//! timestep  (u64 LE)
//! ny, nx    (u64 LE each)
//! tile_ny, tile_nx (u32 LE each)
//! bound tag (u8: 0 = absolute, 1 = value-range-relative) + ε (f64 LE bits)
//! offset, length (u64 LE each — the entry's byte span in the file)
//! n_tiles   (u32 LE)
//! n_tiles × windowed stats: min, max, mean, variance (f64 LE bits each)
//! ```
//!
//! A record no writer produces is refused: an ε that is not positive and
//! finite, and tile statistics outside what a summary of finite values
//! can be (a non-finite `min` or `max`, `min > max`, a NaN mean, a NaN or
//! negative variance).
//!
//! The per-tile windowed statistics are the paper's compressibility
//! predictors, stored so a router can rank or prefetch tiles without
//! decoding anything.

use lcc_pressio::codes::Reader;
use lcc_pressio::{CompressError, ErrorBound};

/// Magic prefix (and footer suffix) of an LCCA archive.
pub const ARCHIVE_MAGIC: [u8; 4] = *b"LCCA";
/// Current archive-format version byte.
pub const ARCHIVE_VERSION: u8 = 1;
/// Bytes of the leading magic + version head.
pub const HEAD_LEN: usize = 5;
/// Bytes of the fixed tail footer.
pub const FOOTER_LEN: usize = 8 + 8 + 4 + 1 + 4;
/// Smallest possible metadata record (empty names, one tile): bounds the
/// entry count a footer may claim against the actual table bytes.
pub(crate) const MIN_ENTRY_RECORD: usize = 2 + 2 + 8 + 8 + 8 + 4 + 4 + 1 + 8 + 8 + 8 + 4 + 32;

/// Windowed summary statistics of one tile, stored in the entry metadata.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TileStats {
    /// Minimum value in the tile.
    pub min: f64,
    /// Maximum value in the tile.
    pub max: f64,
    /// Arithmetic mean of the tile.
    pub mean: f64,
    /// Population variance of the tile.
    pub variance: f64,
}

impl TileStats {
    /// Whether the writer can produce these statistics: it summarizes only
    /// finite values, so `min` and `max` are finite with `min ≤ max`, the
    /// mean is never NaN and the variance never NaN or negative — where a
    /// tile's sum overflows, the mean is ±∞ and the variance +∞.
    fn is_plausible(&self) -> bool {
        let TileStats { min, max, mean, variance } = *self;
        min.is_finite() && max.is_finite() && min <= max && !mean.is_nan() && variance >= 0.0
    }
}

/// Metadata record of one archive entry (one field at one timestep).
#[derive(Debug, Clone, PartialEq)]
pub struct ArchiveEntry {
    /// Field name (e.g. `"density"`).
    pub name: String,
    /// Timestep index the field belongs to.
    pub timestep: u64,
    /// Name of the compressor that wrote the entry (decode must use the
    /// same codec; the archive stores the name, not the codec).
    pub codec: String,
    /// Field rows.
    pub ny: usize,
    /// Field columns.
    pub nx: usize,
    /// Tile height the entry was written with (clamped to the field).
    pub tile_ny: usize,
    /// Tile width the entry was written with (clamped to the field).
    pub tile_nx: usize,
    /// Error bound the entry was compressed under.
    pub bound: ErrorBound,
    /// Byte offset of the entry's frame within the archive.
    pub offset: u64,
    /// Byte length of the entry's frame.
    pub length: u64,
    /// Per-tile windowed statistics, row-major tile order.
    pub tile_stats: Vec<TileStats>,
}

impl ArchiveEntry {
    /// Tiles per row of the entry's tile grid.
    pub fn tiles_x(&self) -> usize {
        self.nx.div_ceil(self.tile_nx)
    }

    /// Tile rows of the entry's tile grid.
    pub fn tiles_y(&self) -> usize {
        self.ny.div_ceil(self.tile_ny)
    }

    /// Total tile count of the entry's tiling.
    pub fn n_tiles(&self) -> usize {
        self.tiles_y() * self.tiles_x()
    }
}

/// Serialize one metadata record onto `out`.
pub fn write_entry(out: &mut Vec<u8>, e: &ArchiveEntry) {
    out.extend_from_slice(&(e.name.len() as u16).to_le_bytes());
    out.extend_from_slice(e.name.as_bytes());
    out.extend_from_slice(&(e.codec.len() as u16).to_le_bytes());
    out.extend_from_slice(e.codec.as_bytes());
    out.extend_from_slice(&e.timestep.to_le_bytes());
    out.extend_from_slice(&(e.ny as u64).to_le_bytes());
    out.extend_from_slice(&(e.nx as u64).to_le_bytes());
    out.extend_from_slice(&(e.tile_ny as u32).to_le_bytes());
    out.extend_from_slice(&(e.tile_nx as u32).to_le_bytes());
    let (tag, eps) = match e.bound {
        ErrorBound::Absolute(eps) => (0u8, eps),
        ErrorBound::ValueRangeRelative(eps) => (1u8, eps),
    };
    out.push(tag);
    out.extend_from_slice(&eps.to_le_bytes());
    out.extend_from_slice(&e.offset.to_le_bytes());
    out.extend_from_slice(&e.length.to_le_bytes());
    out.extend_from_slice(&(e.tile_stats.len() as u32).to_le_bytes());
    for s in &e.tile_stats {
        for v in [s.min, s.max, s.mean, s.variance] {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
}

/// A `u16`-length-prefixed UTF-8 string.
fn string(cur: &mut Reader<'_>) -> Result<String, CompressError> {
    let len = cur.u16()? as usize;
    String::from_utf8(cur.bytes(len)?.to_vec())
        .map_err(|_| CompressError::CorruptStream("archive: entry name is not UTF-8".into()))
}

/// Parse one metadata record off the cursor. Every length read is bounded
/// by the bytes actually remaining in the table — a forged record cannot
/// demand an allocation larger than the table itself.
pub(crate) fn parse_entry(cur: &mut Reader<'_>) -> Result<ArchiveEntry, CompressError> {
    let corrupt = |msg: String| CompressError::CorruptStream(format!("archive: {msg}"));
    let name = string(cur)?;
    let codec = string(cur)?;
    let timestep = cur.u64()?;
    let ny =
        usize::try_from(cur.u64()?).map_err(|_| corrupt("row count overflows usize".into()))?;
    let nx =
        usize::try_from(cur.u64()?).map_err(|_| corrupt("column count overflows usize".into()))?;
    let tile_ny = cur.u32()? as usize;
    let tile_nx = cur.u32()? as usize;
    let tag = cur.u8()?;
    let eps = cur.f64()?;
    let bound = match tag {
        0 => ErrorBound::Absolute(eps),
        1 => ErrorBound::ValueRangeRelative(eps),
        other => return Err(corrupt(format!("unknown bound tag {other}"))),
    };
    let offset = cur.u64()?;
    let length = cur.u64()?;
    let n_tiles = cur.u32()? as usize;
    // The writer refuses a bound that does not resolve to a positive,
    // finite value, so no stored ε is anything else.
    if !(eps.is_finite() && eps > 0.0) {
        return Err(corrupt(format!(
            "entry '{name}' has error bound {eps}: not positive and finite"
        )));
    }
    if ny == 0 || nx == 0 {
        return Err(corrupt(format!("entry '{name}' has an empty field shape")));
    }
    if tile_ny == 0 || tile_nx == 0 || tile_ny > ny || tile_nx > nx {
        return Err(corrupt(format!(
            "entry '{name}' tile shape {tile_ny}x{tile_nx} invalid for a {ny}x{nx} field"
        )));
    }
    let expected = ny
        .div_ceil(tile_ny)
        .checked_mul(nx.div_ceil(tile_nx))
        .ok_or_else(|| corrupt(format!("entry '{name}' tile count overflows")))?;
    if n_tiles != expected {
        return Err(corrupt(format!(
            "entry '{name}' claims {n_tiles} tile stats but its \
             {tile_ny}x{tile_nx} tiling of {ny}x{nx} has {expected} tiles"
        )));
    }
    // The stats span is validated against the remaining table bytes before
    // the vector is sized by it.
    if n_tiles * 32 > cur.remaining() {
        return Err(corrupt(format!(
            "entry '{name}' tile stats exceed the entry table ({} bytes left)",
            cur.remaining()
        )));
    }
    let mut tile_stats = Vec::with_capacity(n_tiles);
    for t in 0..n_tiles {
        let stats =
            TileStats { min: cur.f64()?, max: cur.f64()?, mean: cur.f64()?, variance: cur.f64()? };
        if !stats.is_plausible() {
            return Err(corrupt(format!("entry '{name}' tile {t} has statistics {stats:?}")));
        }
        tile_stats.push(stats);
    }
    Ok(ArchiveEntry {
        name,
        timestep,
        codec,
        ny,
        nx,
        tile_ny,
        tile_nx,
        bound,
        offset,
        length,
        tile_stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ArchiveEntry {
        ArchiveEntry {
            name: "density".into(),
            timestep: 42,
            codec: "sz-rans8".into(),
            ny: 8,
            nx: 6,
            tile_ny: 4,
            tile_nx: 3,
            bound: ErrorBound::ValueRangeRelative(1e-3),
            offset: 5,
            length: 1234,
            tile_stats: (0..4)
                .map(|k| TileStats { min: -(k as f64), max: k as f64, mean: 0.5, variance: 1.25 })
                .collect(),
        }
    }

    #[test]
    fn entry_records_roundtrip() {
        let entry = sample();
        let mut bytes = Vec::new();
        write_entry(&mut bytes, &entry);
        let mut cur = Reader::new(&bytes);
        assert_eq!(parse_entry(&mut cur).unwrap(), entry);
        assert_eq!(cur.remaining(), 0);
        assert!(bytes.len() >= MIN_ENTRY_RECORD);
    }

    #[test]
    fn truncated_records_fail_without_huge_allocations() {
        let entry = sample();
        let mut bytes = Vec::new();
        write_entry(&mut bytes, &entry);
        for cut in [0, 1, 3, 20, bytes.len() - 1] {
            let mut cur = Reader::new(&bytes[..cut]);
            assert!(parse_entry(&mut cur).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn tile_count_must_match_the_tiling() {
        let mut entry = sample();
        entry.tile_stats.pop();
        let mut bytes = Vec::new();
        write_entry(&mut bytes, &entry);
        let mut cur = Reader::new(&bytes);
        assert!(matches!(
            parse_entry(&mut cur),
            Err(CompressError::CorruptStream(msg)) if msg.contains("tile stats")
        ));
    }
}
