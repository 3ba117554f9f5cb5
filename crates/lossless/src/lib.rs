//! # lcc-lossless — lossless back-end coders for the lossy compressors
//!
//! SZ and MGARD both end their pipelines with an entropy stage (Huffman over
//! quantization codes) followed by a general-purpose lossless compressor
//! (Zstd in the reference implementations). This crate provides those
//! building blocks from scratch:
//!
//! * [`bitstream`] — MSB-first bit-level writer/reader used by every coder
//!   (and by the ZFP-style embedded bit-plane coder),
//! * [`huffman`] — canonical Huffman coding over `u32` symbols with an
//!   embedded code-length table (table-driven encode; decode through a
//!   64-bit window and a table of code pairs),
//! * [`lz77`] — greedy hash-chain LZ77 with byte-oriented token encoding
//!   (scalar; an AVX2 match comparator changed no encode end to end),
//! * [`rans`] — the 8-way interleaved byte-oriented rANS coder (12-bit
//!   normalized tables, self-describing mode byte), the fast-path entropy
//!   backend of the ratio-vs-throughput ablation; the payload is split into
//!   per-lane buffers so the decoder runs eight independent chains (AVX2:
//!   two 4×u64 state vectors with gathered slot lookups);
//!   [`pipeline::EntropyBackend`] names the Huffman/rANS-8 choice the
//!   compressors thread through their streams,
//! * [`dispatch`] — one-time runtime SIMD feature detection
//!   ([`SimdLevel`]: scalar or AVX2, and the `LCC_SIMD` override); the rANS
//!   decode loop and the rounding quantizer run their AVX2 implementation
//!   at the AVX2 tier, with byte-identical streams at both tiers,
//! * [`round`] — exact `f64::round` without the libm call (scalar and AVX2)
//!   and the dispatched rounding quantizer the lossy codecs' quantization
//!   loops share,
//! * [`xxhash`] — XXH64 checksums (scalar; an AVX2 stripe loop lost to it)
//!   used for the framed container's optional per-block integrity
//!   checksums,
//! * [`scratch`] — the [`CodecScratch`] arena holding every reusable buffer
//!   of the Huffman/LZ77 hot paths; the `*_with` entry points
//!   ([`huffman_encode_with`], [`huffman_decode_with`],
//!   [`lz77_compress_with`], [`lz77_decompress_into`]) are allocation-free
//!   in steady state.
//!
//! All encoders produce self-describing byte streams (length-prefixed
//! sections), so decoding needs no out-of-band metadata.

pub mod bitstream;
pub mod dispatch;
pub mod huffman;
pub mod lz77;
pub mod pipeline;
pub mod rans;
pub mod round;
pub mod scratch;
pub mod xxhash;

pub use bitstream::{BitReader, BitWriter};
pub use dispatch::{simd_level, supported_levels, SimdLevel};
pub use huffman::{huffman_decode, huffman_decode_with, huffman_encode, huffman_encode_with};
pub use lz77::{lz77_compress, lz77_compress_with, lz77_decompress, lz77_decompress_into};
pub use pipeline::EntropyBackend;
pub use rans::{
    rans8_decode, rans8_decode_with, rans8_decode_with_at, rans8_encode, rans8_encode_with,
    rans8_stream_info, Rans8StreamInfo, RansScratch,
};
pub use scratch::CodecScratch;
pub use xxhash::xxh64;

/// Errors produced while decoding a lossless stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The stream ended before the decoder expected it to.
    UnexpectedEof,
    /// The stream contains a structural inconsistency (bad header, invalid
    /// code, impossible back-reference…).
    Corrupt(String),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::UnexpectedEof => write!(f, "unexpected end of stream"),
            CodecError::Corrupt(msg) => write!(f, "corrupt stream: {msg}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Write a `u64` as a variable-length LEB128-style integer.
pub fn write_varint(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
    }
}

/// Read a varint written by [`write_varint`]; returns the value and the
/// number of bytes consumed. A `u64` fills nine bytes and one bit of a
/// tenth: a tenth byte carrying more than that bit is refused rather than
/// having its high bits shifted out.
pub fn read_varint(bytes: &[u8]) -> Result<(u64, usize), CodecError> {
    let mut value = 0u64;
    let mut shift = 0u32;
    for (i, &b) in bytes.iter().enumerate() {
        if shift >= 64 {
            return Err(CodecError::Corrupt("varint too long".into()));
        }
        if shift == 63 && b & 0x7f > 1 {
            return Err(CodecError::Corrupt("varint overflows u64".into()));
        }
        value |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Ok((value, i + 1));
        }
        shift += 7;
    }
    Err(CodecError::UnexpectedEof)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrip() {
        for v in [0u64, 1, 127, 128, 255, 300, 16_383, 16_384, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            let (back, used) = read_varint(&buf).unwrap();
            assert_eq!(back, v);
            assert_eq!(used, buf.len());
        }
    }

    #[test]
    fn varint_tenth_byte_holds_one_bit() {
        // `u64::MAX` is nine full bytes and a tenth of 0x01, and still
        // round-trips; a tenth byte of 0x7f would have its six high bits
        // shifted out and read as `u64::MAX` too.
        let mut max = Vec::new();
        write_varint(&mut max, u64::MAX);
        assert_eq!(max, [[0xff; 9].as_slice(), &[0x01]].concat());
        assert_eq!(read_varint(&max), Ok((u64::MAX, 10)));
        for tenth in [0x02u8, 0x7f, 0x82, 0xff] {
            let bad = [[0xff; 9].as_slice(), &[tenth]].concat();
            assert_eq!(
                read_varint(&bad),
                Err(CodecError::Corrupt("varint overflows u64".into())),
                "tenth byte {tenth:#04x}"
            );
        }
        // 2^63 alone: the tenth byte's one bit.
        let mut top = Vec::new();
        write_varint(&mut top, 1 << 63);
        assert_eq!(read_varint(&top), Ok((1 << 63, 10)));
    }

    #[test]
    fn varint_detects_truncation() {
        let mut buf = Vec::new();
        write_varint(&mut buf, 1_000_000);
        buf.pop();
        assert_eq!(read_varint(&buf), Err(CodecError::UnexpectedEof));
        assert_eq!(read_varint(&[]), Err(CodecError::UnexpectedEof));
    }

    #[test]
    fn varint_rejects_overlong() {
        let buf = [0x80u8; 11];
        assert!(matches!(read_varint(&buf), Err(CodecError::Corrupt(_))));
    }

    #[test]
    fn error_display() {
        assert!(CodecError::UnexpectedEof.to_string().contains("end of stream"));
        assert!(CodecError::Corrupt("x".into()).to_string().contains("x"));
    }
}
