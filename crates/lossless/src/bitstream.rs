//! MSB-first bit-level writer and reader.

use crate::CodecError;

/// Accumulates bits most-significant-bit first into a byte vector.
#[derive(Debug, Clone, Default)]
pub struct BitWriter {
    bytes: Vec<u8>,
    /// Number of bits already used in the trailing partial byte (0..=7).
    bit_pos: u8,
}

impl BitWriter {
    /// Create an empty writer.
    pub fn new() -> Self {
        BitWriter::default()
    }

    /// Forget everything written so far but keep the byte buffer's
    /// allocation — the reuse entry point for scratch-held writers.
    pub fn clear(&mut self) {
        self.bytes.clear();
        self.bit_pos = 0;
    }

    /// Number of whole bits written so far.
    pub fn bit_len(&self) -> usize {
        if self.bit_pos == 0 {
            self.bytes.len() * 8
        } else {
            (self.bytes.len() - 1) * 8 + self.bit_pos as usize
        }
    }

    /// Append a single bit.
    #[inline]
    pub fn write_bit(&mut self, bit: bool) {
        if self.bit_pos == 0 {
            self.bytes.push(0);
        }
        if bit {
            let last = self.bytes.len() - 1;
            self.bytes[last] |= 1 << (7 - self.bit_pos);
        }
        self.bit_pos = (self.bit_pos + 1) % 8;
    }

    /// Append the lowest `count` bits of `value`, most significant first.
    ///
    /// Bits land in the same MSB-first layout as repeated [`write_bit`]
    /// calls, but are moved in three chunked steps — top up the trailing
    /// partial byte, push whole bytes, open a new partial byte — with no
    /// per-bit work. The Huffman payload loop spends most of its time here.
    ///
    /// [`write_bit`]: BitWriter::write_bit
    #[inline]
    pub fn write_bits(&mut self, value: u64, count: u32) {
        assert!(count <= 64, "cannot write more than 64 bits at once");
        let mut remaining = count;
        // Top up the trailing partial byte in one masked OR.
        if self.bit_pos != 0 && remaining > 0 {
            let free = 8 - u32::from(self.bit_pos);
            let take = free.min(remaining);
            let chunk = ((value >> (remaining - take)) & ((1 << take) - 1)) as u8;
            let last = self.bytes.len() - 1;
            self.bytes[last] |= chunk << (free - take);
            self.bit_pos = ((u32::from(self.bit_pos) + take) % 8) as u8;
            remaining -= take;
        }
        // Byte-aligned middle: one push per 8 bits.
        while remaining >= 8 {
            remaining -= 8;
            self.bytes.push(((value >> remaining) & 0xFF) as u8);
        }
        // Tail bits open a new partial byte, left-aligned.
        if remaining > 0 {
            let chunk = (value & ((1 << remaining) - 1)) as u8;
            self.bytes.push(chunk << (8 - remaining));
            self.bit_pos = remaining as u8;
        }
    }

    /// Append a whole byte (8 bits).
    pub fn write_byte(&mut self, byte: u8) {
        self.write_bits(u64::from(byte), 8);
    }

    /// Borrow the bytes written so far (including the partial last byte).
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }
}

/// Largest `count` accepted by [`BitReader::peek_bits`]: the peek gathers 8
/// bytes starting at the cursor's byte, of which up to 7 leading bits belong
/// to an earlier position.
pub const PEEK_MAX_BITS: u32 = 56;

/// Reads bits most-significant-bit first from a byte slice.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    /// Next bit to read, counted from the start of the stream.
    cursor: usize,
}

impl<'a> BitReader<'a> {
    /// Create a reader over `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        BitReader { bytes, cursor: 0 }
    }

    /// Rewind to the start of the stream (reuse entry point mirroring
    /// [`BitWriter::clear`]).
    #[cfg(test)]
    pub(crate) fn reset(&mut self) {
        self.cursor = 0;
    }

    /// Total number of bits available.
    pub fn bit_len(&self) -> usize {
        self.bytes.len() * 8
    }

    /// Number of bits remaining.
    pub fn remaining(&self) -> usize {
        self.bit_len().saturating_sub(self.cursor)
    }

    /// Read one bit.
    #[inline]
    pub fn read_bit(&mut self) -> Result<bool, CodecError> {
        if self.cursor >= self.bit_len() {
            return Err(CodecError::UnexpectedEof);
        }
        let byte = self.bytes[self.cursor / 8];
        let bit = (byte >> (7 - (self.cursor % 8))) & 1 == 1;
        self.cursor += 1;
        Ok(bit)
    }

    /// Read `count` bits (MSB first) into the low bits of a `u64`.
    pub fn read_bits(&mut self, count: u32) -> Result<u64, CodecError> {
        assert!(count <= 64, "cannot read more than 64 bits at once");
        if count <= PEEK_MAX_BITS && self.cursor + count as usize <= self.bit_len() {
            let value = self.peek_bits(count);
            self.cursor += count as usize;
            return Ok(value);
        }
        let mut value = 0u64;
        for _ in 0..count {
            value = (value << 1) | u64::from(self.read_bit()?);
        }
        Ok(value)
    }

    /// Look ahead `count` bits (MSB first) without consuming them; bits past
    /// the end of the stream read as zero. This is the primitive behind the
    /// table-driven Huffman decoder: peek a LUT index, then
    /// [`skip_bits`](BitReader::skip_bits) the decoded code length.
    #[inline]
    pub fn peek_bits(&self, count: u32) -> u64 {
        assert!(count <= PEEK_MAX_BITS, "cannot peek more than {PEEK_MAX_BITS} bits");
        if count == 0 {
            return 0;
        }
        let idx = self.cursor / 8;
        let off = (self.cursor % 8) as u32;
        // Gather the 8 bytes covering [cursor, cursor + 56) into a
        // big-endian accumulator, then slide the window to the cursor.
        let acc = match self.bytes.get(idx..idx + 8) {
            Some(window) => u64::from_be_bytes(window.try_into().expect("8 bytes")),
            None => {
                // Within 8 bytes of the end: zero-fill the missing tail.
                let mut acc = 0u64;
                for k in 0..8 {
                    acc = (acc << 8) | u64::from(self.bytes.get(idx + k).copied().unwrap_or(0));
                }
                acc
            }
        };
        (acc << off) >> (64 - count)
    }

    /// Advance the cursor by `count` bits; EOF if the stream is shorter.
    #[inline]
    pub fn skip_bits(&mut self, count: u32) -> Result<(), CodecError> {
        if self.cursor + count as usize > self.bit_len() {
            return Err(CodecError::UnexpectedEof);
        }
        self.cursor += count as usize;
        Ok(())
    }

    /// Read a whole byte.
    pub fn read_byte(&mut self) -> Result<u8, CodecError> {
        Ok(self.read_bits(8)? as u8)
    }

    /// Current bit position from the start of the stream.
    pub fn position(&self) -> usize {
        self.cursor
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_bits_roundtrip() {
        let pattern = [true, false, true, true, false, false, true, false, true, true, true];
        let mut w = BitWriter::new();
        for &b in &pattern {
            w.write_bit(b);
        }
        assert_eq!(w.bit_len(), pattern.len());
        let bytes = w.as_bytes().to_vec();
        let mut r = BitReader::new(&bytes);
        for &b in &pattern {
            assert_eq!(r.read_bit().unwrap(), b);
        }
        // Padding bits are zero.
        while r.remaining() > 0 {
            assert!(!r.read_bit().unwrap());
        }
        assert_eq!(r.read_bit(), Err(CodecError::UnexpectedEof));
    }

    #[test]
    fn multi_bit_values_roundtrip() {
        let values: [(u64, u32); 6] =
            [(0, 1), (1, 1), (5, 3), (0xDEADBEEF, 32), (u64::MAX, 64), (0b1011, 4)];
        let mut w = BitWriter::new();
        for &(v, n) in &values {
            w.write_bits(v, n);
        }
        let bytes = w.as_bytes().to_vec();
        let mut r = BitReader::new(&bytes);
        for &(v, n) in &values {
            assert_eq!(r.read_bits(n).unwrap(), v, "value {v} width {n}");
        }
    }

    #[test]
    fn bytes_roundtrip_and_alignment() {
        let mut w = BitWriter::new();
        w.write_bit(true); // force misalignment
        for b in 0u8..=255 {
            w.write_byte(b);
        }
        let bytes = w.as_bytes().to_vec();
        let mut r = BitReader::new(&bytes);
        assert!(r.read_bit().unwrap());
        for b in 0u8..=255 {
            assert_eq!(r.read_byte().unwrap(), b);
        }
    }

    #[test]
    fn bit_len_and_position_track_progress() {
        let mut w = BitWriter::new();
        assert_eq!(w.bit_len(), 0);
        w.write_bits(0b101, 3);
        assert_eq!(w.bit_len(), 3);
        w.write_bits(0xFF, 8);
        assert_eq!(w.bit_len(), 11);
        let bytes = w.as_bytes().to_vec();
        assert_eq!(bytes.len(), 2);
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.bit_len(), 16);
        let _ = r.read_bits(5).unwrap();
        assert_eq!(r.position(), 5);
        assert_eq!(r.remaining(), 11);
    }

    #[test]
    fn eof_is_detected_mid_value() {
        let bytes = [0xAB];
        let mut r = BitReader::new(&bytes);
        assert!(r.read_bits(8).is_ok());
        assert_eq!(r.read_bits(1), Err(CodecError::UnexpectedEof));
    }

    #[test]
    fn clear_and_reset_support_reuse() {
        let mut w = BitWriter::new();
        w.write_bits(0xABCD, 16);
        w.clear();
        assert_eq!(w.bit_len(), 0);
        w.write_bits(0b101, 3);
        assert_eq!(w.as_bytes(), &[0b1010_0000]);

        let bytes = [0xF0u8, 0x0F];
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(12).unwrap(), 0xF00);
        r.reset();
        assert_eq!(r.position(), 0);
        assert_eq!(r.read_bits(4).unwrap(), 0xF);
    }

    #[test]
    fn peek_does_not_consume_and_zero_fills_past_end() {
        let bytes = [0b1011_0110u8, 0xFF];
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.peek_bits(5), 0b10110);
        assert_eq!(r.peek_bits(5), 0b10110, "peek must not advance");
        r.skip_bits(3).unwrap();
        assert_eq!(r.peek_bits(8), 0b1011_0111);
        // 13 bits remain; a 16-bit peek zero-fills the missing tail.
        assert_eq!(r.peek_bits(16), 0b1011_0111_1111_1000);
        assert_eq!(r.peek_bits(0), 0);
        assert!(r.skip_bits(14).is_err(), "skip past EOF must fail");
        r.skip_bits(13).unwrap();
        assert_eq!(r.remaining(), 0);
        assert_eq!(r.peek_bits(8), 0, "peek at EOF is all zeros");
    }

    #[test]
    fn batched_and_bitwise_writes_agree() {
        // The batched write_bits fast path must produce the exact bytes the
        // bit-by-bit loop produced (the byte-identity guarantee rests on it).
        let values: [(u64, u32); 8] = [
            (0b1, 1),
            (0xDEADBEEF, 32),
            (0, 7),
            (u64::MAX, 64),
            (0x1234, 13),
            (1, 2),
            (0xFF, 8),
            (0x7FFF_FFFF_FFFF_FFFF, 63),
        ];
        let mut batched = BitWriter::new();
        let mut bitwise = BitWriter::new();
        for &(v, n) in &values {
            batched.write_bits(v, n);
            for i in (0..n).rev() {
                bitwise.write_bit((v >> i) & 1 == 1);
            }
        }
        assert_eq!(batched.as_bytes(), bitwise.as_bytes());
        assert_eq!(batched.bit_len(), bitwise.bit_len());
    }

    #[test]
    fn msb_first_layout_is_stable() {
        // Guard the exact bit layout: 0b1010_0000 after writing bits 1,0,1,0.
        let mut w = BitWriter::new();
        for b in [true, false, true, false] {
            w.write_bit(b);
        }
        assert_eq!(w.as_bytes(), &[0b1010_0000]);
    }
}
