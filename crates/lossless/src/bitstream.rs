//! MSB-first bit-level writer and reader.

use crate::CodecError;

/// Accumulates bits most-significant-bit first into a byte vector.
///
/// Pending bits collect in a 64-bit accumulator and reach the byte vector
/// eight bytes at a time; [`finish`](BitWriter::finish) stores the rest,
/// the last byte zero-padded, and ends the stream.
#[derive(Debug, Clone, Default)]
pub struct BitWriter {
    bytes: Vec<u8>,
    /// The pending bits are the low `fill` bits; the bits above them are
    /// stale and never read.
    acc: u64,
    /// Number of pending bits (0..=63).
    fill: u32,
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
        self.acc = 0;
        self.fill = 0;
    }

    /// Number of whole bits written so far.
    pub fn bit_len(&self) -> usize {
        self.bytes.len() * 8 + self.fill as usize
    }

    /// Append the lowest `count` bits of `value`, most significant first.
    ///
    /// The bits join the accumulator with one shift and OR; when it fills,
    /// its 64 bits are stored as eight bytes at once. The Huffman payload
    /// loop and ZFP's coefficient loop spend most of their time here.
    #[inline]
    pub fn write_bits(&mut self, value: u64, count: u32) {
        assert!(count <= 64, "cannot write more than 64 bits at once");
        if count == 0 {
            return;
        }
        let value = value & (u64::MAX >> (64 - count));
        let free = 64 - self.fill;
        if count < free {
            self.acc = (self.acc << count) | value;
            self.fill += count;
            return;
        }
        // The top `free` bits of `value` complete a word; the other `spill`
        // stay pending. (`<< (free - 1) << 1`: `free` may be 64.)
        let spill = count - free;
        let word = (self.acc << (free - 1) << 1) | (value >> spill);
        self.bytes.extend_from_slice(&word.to_be_bytes());
        self.acc = value;
        self.fill = spill;
    }

    /// Append a whole byte (8 bits).
    pub fn write_byte(&mut self, byte: u8) {
        self.write_bits(u64::from(byte), 8);
    }

    /// End the stream: store the pending bits, the last byte zero-padded,
    /// and borrow every byte written. The padding counts in
    /// [`bit_len`](BitWriter::bit_len) from here on; [`clear`](BitWriter::clear)
    /// before writing again.
    pub fn finish(&mut self) -> &[u8] {
        let word = self.acc << (63 - self.fill) << 1;
        self.bytes.extend_from_slice(&word.to_be_bytes()[..self.fill.div_ceil(8) as usize]);
        self.acc = 0;
        self.fill = 0;
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
    /// table-driven Huffman decoder: peek a pair-table index, then
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
            w.write_bits(u64::from(b), 1);
        }
        assert_eq!(w.bit_len(), pattern.len());
        let bytes = w.finish().to_vec();
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
        let bytes = w.finish().to_vec();
        let mut r = BitReader::new(&bytes);
        for &(v, n) in &values {
            assert_eq!(r.read_bits(n).unwrap(), v, "value {v} width {n}");
        }
    }

    #[test]
    fn bytes_roundtrip_and_alignment() {
        let mut w = BitWriter::new();
        w.write_bits(1, 1); // force misalignment
        for b in 0u8..=255 {
            w.write_byte(b);
        }
        let bytes = w.finish().to_vec();
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
        let bytes = w.finish().to_vec();
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
        assert_eq!(w.finish(), &[0b1010_0000]);

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

    /// The reference [`BitWriter`] is held to: one bit at a time into a
    /// byte vector, MSB first.
    #[derive(Default)]
    struct BitByBit {
        bytes: Vec<u8>,
        bits: usize,
    }

    impl BitByBit {
        fn write_bits(&mut self, value: u64, count: u32) {
            for i in (0..count).rev() {
                if self.bits % 8 == 0 {
                    self.bytes.push(0);
                }
                let bit = (value >> i) as u8 & 1;
                *self.bytes.last_mut().expect("pushed") |= bit << (7 - self.bits % 8);
                self.bits += 1;
            }
        }
    }

    #[test]
    fn writer_equals_a_bit_at_a_time_reference() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut writer = BitWriter::new();
        for round in 0..200 {
            writer.clear();
            let mut reference = BitByBit::default();
            for _ in 0..next() % 300 {
                // Values carry bits above `count`, which must be ignored.
                let value = next();
                match next() % 8 {
                    0 => {
                        writer.write_byte(value as u8);
                        reference.write_bits(value, 8);
                    }
                    _ => {
                        let count = (next() % 65) as u32;
                        writer.write_bits(value, count);
                        reference.write_bits(value, count);
                    }
                }
                assert_eq!(writer.bit_len(), reference.bits, "round {round}");
            }
            assert_eq!(writer.finish(), reference.bytes, "round {round}");
        }
    }

    #[test]
    fn msb_first_layout_is_stable() {
        // Guard the exact bit layout: 0b1010_0000 after writing bits 1,0,1,0.
        let mut w = BitWriter::new();
        for b in [1, 0, 1, 0] {
            w.write_bits(b, 1);
        }
        assert_eq!(w.finish(), &[0b1010_0000]);
    }
}
