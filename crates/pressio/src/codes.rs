//! The codes container: what happens between quantisation and bytes.
//!
//! SZ and MGARD differ up to quantisation (block prediction against
//! multilevel decomposition); from there both hold one `u32` code per cell
//! plus the exactly stored escape values, and hand them here. This module is
//! the one writer ([`write_payload`]), the one reader and the one validation
//! site ([`open`]) of the stream that results; README, *Stream formats*,
//! tabulates its prefix, codec middle and tail.
//!
//! A codec declares a [`Format`]. Under its Huffman magic the payload
//! goes through an LZ77 pass (Zstd's role in the reference codecs); under
//! its rANS magic it ships raw — the dominant section is already at its
//! entropy, so the pass would cost most of the encode time for no ratio. A
//! stream that opens with the rANS magic is therefore the payload itself
//! and any other stream is LZ77 output, which cannot be mistaken for one:
//! it opens with its decoded-length varint, and where that is the single
//! byte `b'L'` the next byte is a token tag, `0x00` or `0x01`.

use crate::CompressError;
use lcc_lossless::{
    huffman_decode_with, huffman_encode_with, lz77_compress_with, lz77_decompress_into,
    rans8_decode_with, rans8_encode_with, EntropyBackend, RansScratch,
};
use std::time::Instant;

fn corrupt(msg: impl Into<String>) -> CompressError {
    CompressError::CorruptStream(msg.into())
}

/// Little-endian appends onto the byte buffer it wraps.
#[derive(Debug, Default, Clone)]
pub struct Writer(pub Vec<u8>);

impl Writer {
    /// Append raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.0.extend_from_slice(bytes);
    }

    /// Append a `u8`.
    pub fn u8(&mut self, v: u8) {
        self.0.push(v);
    }

    /// Append a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Append a little-endian `f64`.
    pub fn f64(&mut self, v: f64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// Bounds-checked little-endian cursor matching [`Writer`]: every read is
/// checked against the bytes actually left, so no length found in the
/// input can index, or size an allocation, past it.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Create a reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Read `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], CompressError> {
        if self.remaining() < n {
            return Err(corrupt(format!("need {n} bytes, {} remaining", self.remaining())));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], CompressError> {
        Ok(self.bytes(N)?.try_into().expect("slice length checked"))
    }

    /// Read a `u8`.
    pub fn u8(&mut self) -> Result<u8, CompressError> {
        Ok(self.bytes(1)?[0])
    }

    /// Read a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, CompressError> {
        self.array().map(u16::from_le_bytes)
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CompressError> {
        self.array().map(u32::from_le_bytes)
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CompressError> {
        self.array().map(u64::from_le_bytes)
    }

    /// Read a little-endian `f64`.
    pub fn f64(&mut self) -> Result<f64, CompressError> {
        self.array().map(f64::from_le_bytes)
    }

    /// Read a `u64` element count and the `width`-byte elements it
    /// announces. The bytes are taken before anything is sized by the
    /// count, so a forged count is refused, not reserved for.
    pub fn counted(&mut self, width: usize) -> Result<&'a [u8], CompressError> {
        let n = self.u64()?;
        let len = usize::try_from(n)
            .ok()
            .and_then(|n| n.checked_mul(width))
            .ok_or_else(|| corrupt(format!("{n} elements of {width} bytes overflow")))?;
        self.bytes(len)
    }
}

/// A codec's declaration of its container: a magic per entropy backend of
/// the codes section (so per wrap, see the module documentation), and what
/// lies between the common prefix and tail.
#[derive(Debug)]
pub struct Format {
    /// Huffman codes, the payload behind an LZ77 pass.
    pub huffman: [u8; 4],
    /// 8-way rANS codes, the payload shipped raw.
    pub rans8: [u8; 4],
    /// The values of [`Header::param`] the decoder can act on.
    pub param: std::ops::RangeInclusive<u32>,
    /// The codec's middle: the element width of each counted array (`u64`
    /// count, then the elements) it writes between prefix and tail.
    pub middle: &'static [usize],
}

/// The fields every codes container opens with, after the magic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Header {
    /// Field rows.
    pub ny: usize,
    /// Field columns.
    pub nx: usize,
    /// The absolute error bound the codes were quantised against.
    pub eb: f64,
    /// The codec's parameter: SZ's block side, MGARD's level count.
    pub param: u32,
    /// Quantisation radius.
    pub radius: u32,
}

/// An opened container: its validated header and the byte spans of its
/// sections, nothing decoded.
#[derive(Debug, Clone, Copy)]
pub struct Parts<'a> {
    /// Entropy backend of [`Parts::section`], from the magic.
    pub backend: EntropyBackend,
    /// The validated prefix.
    pub header: Header,
    /// The codec's middle: the counted arrays [`Format::middle`] declares.
    pub middle: &'a [u8],
    /// The entropy-coded codes.
    pub section: &'a [u8],
    /// The escape values, eight little-endian bytes each.
    pub exact: &'a [u8],
}

/// Write a container payload (no LZ77 pass) onto `w`: the prefix under
/// `backend`'s magic, the counted arrays `middle` writes, the codes section
/// `section` appends (its length is patched in after), `exact`.
pub fn write_payload(
    w: &mut Writer,
    format: &Format,
    backend: EntropyBackend,
    header: &Header,
    middle: impl FnOnce(&mut Writer),
    section: impl FnOnce(&mut Vec<u8>),
    exact: &[f64],
) {
    w.bytes(match backend {
        EntropyBackend::Huffman => &format.huffman,
        EntropyBackend::Rans8 => &format.rans8,
    });
    w.u64(header.ny as u64);
    w.u64(header.nx as u64);
    w.f64(header.eb);
    w.u32(header.param);
    w.u32(header.radius);
    middle(w);
    let at = w.0.len() + 8;
    w.u64(0);
    section(&mut w.0);
    let len = (w.0.len() - at) as u64;
    w.0[at - 8..at].copy_from_slice(&len.to_le_bytes());
    w.u64(exact.len() as u64);
    for v in exact {
        w.f64(*v);
    }
}

/// Open a stream written under `format`: undo the LZ77 pass where there is
/// one (into `expanded`), validate the prefix, and bound every counted array
/// by the bytes present. A header no encoder writes — an empty or
/// overflowing shape, a bound not finite and positive, a radius below 2, a
/// parameter outside the codec's range — is `CorruptStream` here, before
/// any codec state is built from it, and so are bytes after the exact
/// section (or after the LZ77 stream).
pub fn open<'a>(
    format: &Format,
    stream: &'a [u8],
    expanded: &'a mut Vec<u8>,
) -> Result<Parts<'a>, CompressError> {
    let payload: &'a [u8] = if stream.starts_with(&format.rans8) {
        stream
    } else {
        lz77_decompress_into(stream, expanded).map_err(|e| corrupt(format!("lz77: {e}")))?;
        expanded
    };
    let mut r = Reader::new(payload);
    let magic = r.bytes(4)?;
    let backend = if magic == format.huffman {
        EntropyBackend::Huffman
    } else if magic == format.rans8 {
        EntropyBackend::Rans8
    } else {
        return Err(corrupt("bad magic"));
    };
    let (ny, nx, eb, param, radius) = (r.u64()?, r.u64()?, r.f64()?, r.u32()?, r.u32()?);
    // `ny · nx` must fit: the code-count check and the caller's `resize`
    // multiply them (and where the product fits, so does each factor).
    let cells = ny.checked_mul(nx).and_then(|cells| usize::try_from(cells).ok());
    let valid = cells.is_some_and(|c| c > 0) && eb.is_finite() && eb > 0.0 && radius >= 2;
    if !valid || !format.param.contains(&param) {
        return Err(corrupt("invalid header"));
    }
    let header = Header { ny: ny as usize, nx: nx as usize, eb, param, radius };
    let at = r.pos;
    for &width in format.middle {
        r.counted(width)?;
    }
    let middle = &payload[at..r.pos];
    let section = r.counted(1)?;
    let exact = r.counted(8)?;
    if r.remaining() > 0 {
        return Err(corrupt(format!("{} bytes after the exact section", r.remaining())));
    }
    Ok(Parts { backend, header, middle, section, exact })
}

/// The working set every codes-container codec on a worker shares, held
/// once in its [`ScratchArena`](crate::ScratchArena), so a worker's steady
/// state allocates only the stream it returns: the coders' state — one
/// [`RansScratch`], whose embedded
/// [`CodecScratch`](lcc_lossless::CodecScratch) also codes the Huffman
/// backend and runs the LZ77 pass — one payload buffer for both directions
/// (the encoder entropy-codes straight into it, the decoder expands an
/// LZ77-wrapped stream into it), and the codecs' per-cell buffers. Each
/// holds whatever the last codec left there: a borrower sizes it first.
#[derive(Debug, Default)]
pub struct CodecWork {
    rans: RansScratch,
    payload: Writer,
    /// Quantization code per cell.
    pub codes: Vec<u32>,
    /// Exactly stored values (quantizer escapes).
    pub exact: Vec<f64>,
    /// One value per cell: SZ's reconstruction, MGARD's coefficients.
    pub cells: Vec<f64>,
}

impl CodecWork {
    /// Assemble the container around [`CodecWork::codes`] entropy-coded
    /// with `backend` and [`CodecWork::exact`], and return the stream: the
    /// payload through the LZ77 pass for the Huffman backend, a copy of it
    /// for rANS. `layer_done` is called after the entropy layer (which
    /// includes the prefix and middle written ahead of the section) and
    /// after the container layer.
    pub fn encode(
        &mut self,
        format: &Format,
        backend: EntropyBackend,
        header: &Header,
        middle: impl FnOnce(&mut Writer),
        mut layer_done: impl FnMut(),
    ) -> Vec<u8> {
        let CodecWork { rans, payload, codes, exact, .. } = self;
        payload.0.clear();
        let section = |out: &mut Vec<u8>| {
            match backend {
                EntropyBackend::Huffman => huffman_encode_with(rans.huffman(), codes, out),
                EntropyBackend::Rans8 => rans8_encode_with(rans, codes, out),
            }
            layer_done();
        };
        write_payload(payload, format, backend, header, middle, section, exact);
        let stream = match backend {
            EntropyBackend::Huffman => {
                let mut out = Vec::new();
                lz77_compress_with(rans.huffman(), &payload.0, &mut out);
                out
            }
            EntropyBackend::Rans8 => payload.0.clone(),
        };
        layer_done();
        stream
    }

    /// [`open`] `stream`, decode its section into [`CodecWork::codes`] (one
    /// per cell, or the stream is corrupt; the entropy stream must fill the
    /// section) and its escape values into [`CodecWork::exact`]. The rANS
    /// container is read in place; only an LZ77-wrapped payload is copied.
    pub fn decode<'a>(
        &'a mut self,
        format: &Format,
        stream: &'a [u8],
    ) -> Result<Parts<'a>, CompressError> {
        let CodecWork { rans, payload, codes, exact, .. } = self;
        let parts = open(format, stream, &mut payload.0)?;
        let used = match parts.backend {
            EntropyBackend::Huffman => huffman_decode_with(rans.huffman(), parts.section, codes)
                .map_err(|e| corrupt(format!("huffman: {e}")))?,
            EntropyBackend::Rans8 => rans8_decode_with(rans, parts.section, codes)
                .map_err(|e| corrupt(format!("rans8: {e}")))?,
        };
        if used != parts.section.len() {
            let surplus = parts.section.len() - used;
            return Err(corrupt(format!(
                "{surplus} bytes after the entropy stream of the codes section"
            )));
        }
        let cells = parts.header.ny * parts.header.nx;
        if codes.len() != cells {
            return Err(corrupt(format!("expected {cells} codes, found {}", codes.len())));
        }
        exact.clear();
        let values = parts.exact.chunks_exact(8);
        exact.extend(values.map(|b| f64::from_le_bytes(b.try_into().expect("chunks of eight"))));
        Ok(parts)
    }
}

/// Run an encode that reports the end of each of its five layers — all
/// five, where it succeeds — through the callback it is handed (the last two
/// reports are [`CodecWork::encode`]'s) and return, beside its result, the
/// seconds each layer took.
pub fn timed_layers<T>(
    encode: impl FnOnce(&mut dyn FnMut()) -> Result<T, CompressError>,
) -> Result<(T, [f64; 5]), CompressError> {
    let mut marks = vec![Instant::now()];
    let out = encode(&mut || marks.push(Instant::now()))?;
    Ok((out, std::array::from_fn(|k| (marks[k + 1] - marks[k]).as_secs_f64())))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_types() {
        let mut w = Writer::default();
        assert!(w.0.is_empty());
        w.u8(0xAB);
        w.u32(0xDEADBEEF);
        w.u64(u64::MAX - 3);
        w.f64(-123.456e-7);
        w.bytes(b"tail");
        w.bytes(&0xBEEFu16.to_le_bytes());
        assert_eq!(w.0.len(), 1 + 4 + 8 + 8 + 4 + 2);

        let mut r = Reader::new(&w.0);
        assert_eq!(r.u8().unwrap(), 0xAB);
        assert_eq!(r.u32().unwrap(), 0xDEADBEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.f64().unwrap(), -123.456e-7);
        assert_eq!(r.bytes(4).unwrap(), b"tail");
        assert_eq!(r.u16().unwrap(), 0xBEEF);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn reading_past_the_end_is_an_error() {
        let bytes = [1u8, 2, 3];
        let mut r = Reader::new(&bytes);
        assert!(r.u32().is_err());
        assert_eq!(r.u8().unwrap(), 1);
        assert!(r.bytes(5).is_err());
        assert_eq!(r.bytes(2).unwrap(), &[2, 3]);
        assert!(r.u8().is_err());
    }

    #[test]
    fn nan_and_infinity_roundtrip_bitwise() {
        let mut w = Writer::default();
        w.f64(f64::INFINITY);
        w.f64(f64::NEG_INFINITY);
        let mut r = Reader::new(&w.0);
        assert_eq!(r.f64().unwrap(), f64::INFINITY);
        assert_eq!(r.f64().unwrap(), f64::NEG_INFINITY);
    }

    #[test]
    fn a_counted_span_is_bounded_by_the_bytes_present() {
        let mut w = Writer::default();
        w.u64(2);
        w.bytes(&[7; 48]);
        let mut r = Reader::new(&w.0);
        assert_eq!(r.counted(24).unwrap(), &[7; 48]);
        for (count, width) in [(3u64, 24usize), (u64::MAX, 1), (u64::MAX / 2, 8), (1 << 61, 8)] {
            let mut w = Writer::default();
            w.u64(count);
            w.bytes(&[7; 48]);
            let mut r = Reader::new(&w.0);
            assert!(r.counted(width).is_err(), "{count} x {width}");
        }
    }
}
