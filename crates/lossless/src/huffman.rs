//! Canonical Huffman coding over `u32` symbols.
//!
//! SZ and MGARD encode their quantization codes with a Huffman coder before
//! the final lossless pass; this module provides the equivalent,
//! self-describing encoder/decoder:
//!
//! * symbol alphabet is discovered from the input (arbitrary `u32` symbols),
//! * code lengths are derived from a standard binary-heap Huffman tree,
//! * codes are made *canonical* so only (symbol, length) pairs need to be
//!   stored in the header,
//! * decode is table-driven: a `LUT_BITS`-wide prefix table resolves the
//!   short codes in one peek; a longer code is found in one `max_len`-bit
//!   peek compared against the canonical (first code, count) of each
//!   populated length — MGARD's alphabets of thousands of distinct codes
//!   spend most of their symbols there; the bit-by-bit canonical walk
//!   serves only the last `max_len` bits of a stream.
//!
//! The hot paths are **allocation-free** when driven through
//! [`huffman_encode_with`] / [`huffman_decode_with`]: the histogram, tree,
//! code tables and bit buffers all live in a caller-owned
//! [`CodecScratch`]. Dense `Vec`-indexed tables serve
//! the common tightly-clustered alphabets (quantization codes around the
//! zero-residual symbol); alphabets spanning more than ~2M symbol values
//! fall back to an open-addressed symbol map of the distinct symbols only.
//! The scratch-free wrappers produce **byte-identical** streams to the
//! historical `HashMap`-based encoder (pinned by the fixture tests in
//! `tests/bit_identity.rs`).
//!
//! ## The degenerate single-symbol alphabet
//!
//! A one-symbol alphabet is explicitly assigned code length **1**, never 0.
//! A 0-length code would make the payload ambiguous (`n` symbols in zero
//! bits cannot be distinguished from any other count on decode, and a
//! (symbol, 0) header entry is indistinguishable from corruption — decoders
//! reject `len == 0`). The encoder therefore spends one placeholder bit per
//! symbol, and the decoder consumes one bit per symbol *regardless of its
//! value* on this path; both directions are covered by
//! `single_distinct_symbol_*` tests below.

use crate::bitstream::BitReader;
use crate::scratch::{build_alphabet_into, CodecScratch, HeapNode, TableMode};
use crate::{read_varint, write_varint, CodecError};
use std::collections::BinaryHeap;

/// Maximum accepted code length. With ≤ 2^20 distinct symbols and the
/// depth-balancing property of Huffman trees over realistic count
/// distributions, 48 bits is far beyond anything reachable in practice but
/// protects the decoder against corrupt headers.
const MAX_CODE_LEN: u32 = 48;

/// Width of the decoder's prefix LUT: every code of at most this many bits
/// decodes with one peek + one table load. 12 bits covers the entire
/// alphabet of typical quantization-code distributions while keeping the
/// two tables at 4096 entries.
const LUT_BITS: u32 = 12;

/// Encode `symbols` into a self-describing byte stream.
///
/// The stream layout is:
/// `varint n_symbols | varint alphabet_size | (varint symbol, varint code_len)* | varint payload_bit_len | payload bits`
pub fn huffman_encode(symbols: &[u32]) -> Vec<u8> {
    let mut out = Vec::new();
    huffman_encode_with(&mut CodecScratch::new(), symbols, &mut out);
    out
}

/// [`huffman_encode`] into a caller-owned output buffer, reusing `scratch`
/// for every intermediate table. Appends to `out` (callers embed Huffman
/// sections inside larger containers). The emitted bytes are identical to
/// [`huffman_encode`]'s.
pub fn huffman_encode_with(scratch: &mut CodecScratch, symbols: &[u32], out: &mut Vec<u8>) {
    write_varint(out, symbols.len() as u64);
    if symbols.is_empty() {
        return;
    }

    let mode = build_alphabet(scratch, symbols);
    build_code_lengths(scratch);
    assign_canonical_codes(scratch, mode);

    // Header: alphabet description in ascending symbol order.
    write_varint(out, scratch.alphabet.len() as u64);
    for (k, &(sym, _)) in scratch.alphabet.iter().enumerate() {
        write_varint(out, u64::from(sym));
        write_varint(out, u64::from(scratch.lens[k]));
    }

    // Payload: one table lookup per symbol, with codes packed into a local
    // 64-bit accumulator so the bit writer is called once per ~5–20 symbols
    // instead of once per symbol. MSB-first concatenation is associative,
    // so the emitted bytes are unchanged.
    scratch.writer.clear();
    let mut acc = 0u64;
    let mut acc_bits = 0u32;
    match mode {
        TableMode::Dense { min } => {
            for &s in symbols {
                let idx = (s - min) as usize;
                let len = u32::from(scratch.enc_len[idx]);
                if acc_bits + len > 64 {
                    scratch.writer.write_bits(acc, acc_bits);
                    acc = 0;
                    acc_bits = 0;
                }
                acc = (acc << len) | scratch.enc_code[idx];
                acc_bits += len;
            }
        }
        TableMode::Sparse => {
            for &s in symbols {
                let slot = scratch.sym_map.get(s).expect("alphabet covers every symbol") as usize;
                let (len, code) = scratch.slot_codes[slot];
                if acc_bits + len > 64 {
                    scratch.writer.write_bits(acc, acc_bits);
                    acc = 0;
                    acc_bits = 0;
                }
                acc = (acc << len) | code;
                acc_bits += len;
            }
        }
    }
    if acc_bits > 0 {
        scratch.writer.write_bits(acc, acc_bits);
    }
    write_varint(out, scratch.writer.bit_len() as u64);
    out.extend_from_slice(scratch.writer.as_bytes());

    // Restore the all-zero invariant of the dense tables (O(distinct), not
    // O(span)).
    if let TableMode::Dense { min } = mode {
        for &(sym, _) in &scratch.alphabet {
            scratch.enc_len[(sym - min) as usize] = 0;
        }
    }
}

/// Histogram `symbols` into `scratch.alphabet` as `(symbol, count)` pairs
/// sorted by symbol, choosing dense or sparse table addressing by the
/// alphabet's value span (shared machinery with the rANS coder).
fn build_alphabet(scratch: &mut CodecScratch, symbols: &[u32]) -> TableMode {
    build_alphabet_into(
        &mut scratch.hist,
        &mut scratch.sym_map,
        &mut scratch.slot_counts,
        &mut scratch.alphabet,
        symbols,
    )
}

/// Huffman code lengths from `scratch.alphabet` into `scratch.lens`
/// (parallel arrays) using a binary heap over scratch-owned storage. A
/// single distinct symbol gets length 1 (see the module docs on the
/// degenerate alphabet). Identical merge order — and therefore identical
/// lengths — to the historical `HashMap`-based construction: node ties are
/// broken on the smallest symbol in the subtree, which is unique per node.
fn build_code_lengths(scratch: &mut CodecScratch) {
    let n = scratch.alphabet.len();
    scratch.lens.clear();
    scratch.lens.resize(n, 0);
    if n == 1 {
        scratch.lens[0] = 1;
        return;
    }

    scratch.children.clear();
    // Clear before heapifying: `BinaryHeap::from` would otherwise sift the
    // previous call's stale nodes just to throw them away.
    scratch.heap.clear();
    let mut heap = BinaryHeap::from(std::mem::take(&mut scratch.heap));
    for (id, &(sym, count)) in scratch.alphabet.iter().enumerate() {
        heap.push(HeapNode { weight: count, order: sym, id: id as u32 });
    }
    while heap.len() > 1 {
        let a = heap.pop().expect("len > 1");
        let b = heap.pop().expect("len > 1");
        let id = (n + scratch.children.len()) as u32;
        scratch.children.push((a.id, b.id));
        heap.push(HeapNode { weight: a.weight + b.weight, order: a.order.min(b.order), id });
    }
    let root = heap.pop().expect("one node remains").id;
    scratch.heap = heap.into_vec(); // recycle the heap allocation

    scratch.stack.clear();
    scratch.stack.push((root, 0));
    while let Some((node, depth)) = scratch.stack.pop() {
        if (node as usize) < n {
            scratch.lens[node as usize] = depth.max(1);
        } else {
            let (a, b) = scratch.children[node as usize - n];
            scratch.stack.push((a, depth + 1));
            scratch.stack.push((b, depth + 1));
        }
    }
}

/// Assign canonical codes — symbols sorted by (length, symbol) receive
/// consecutive codes — into the flat encode tables selected by `mode`.
fn assign_canonical_codes(scratch: &mut CodecScratch, mode: TableMode) {
    let n = scratch.alphabet.len();
    scratch.canon.clear();
    for (k, &(sym, _)) in scratch.alphabet.iter().enumerate() {
        scratch.canon.push((scratch.lens[k], sym, k as u32));
    }
    scratch.canon.sort_unstable();

    match mode {
        TableMode::Dense { min } => {
            let span = (scratch.alphabet.last().expect("non-empty").0 - min) as usize + 1;
            if scratch.enc_len.len() < span {
                scratch.enc_len.resize(span, 0);
                scratch.enc_code.resize(span, 0);
            }
        }
        TableMode::Sparse => {
            scratch.slot_codes.clear();
            scratch.slot_codes.resize(n, (0, 0));
        }
    }

    let mut code = 0u64;
    let mut prev_len = 0u32;
    for &(len, sym, _) in &scratch.canon {
        if prev_len != 0 {
            code = (code + 1) << (len - prev_len);
        }
        match mode {
            TableMode::Dense { min } => {
                let idx = (sym - min) as usize;
                scratch.enc_len[idx] = len as u8;
                scratch.enc_code[idx] = code;
            }
            TableMode::Sparse => {
                let slot = scratch.sym_map.get(sym).expect("alphabet symbol") as usize;
                scratch.slot_codes[slot] = (len, code);
            }
        }
        prev_len = len;
    }
}

/// Decode a stream produced by [`huffman_encode`]. Returns the symbols and
/// the number of bytes consumed from `bytes` (so callers can embed the
/// stream inside a larger container).
pub fn huffman_decode(bytes: &[u8]) -> Result<(Vec<u32>, usize), CodecError> {
    let mut out = Vec::new();
    let used = huffman_decode_with(&mut CodecScratch::new(), bytes, &mut out)?;
    Ok((out, used))
}

/// [`huffman_decode`] into a caller-owned symbol buffer (cleared first),
/// reusing `scratch` for the canonical tables and the prefix LUT. Returns
/// the number of bytes consumed.
pub fn huffman_decode_with(
    scratch: &mut CodecScratch,
    bytes: &[u8],
    out: &mut Vec<u32>,
) -> Result<usize, CodecError> {
    decode_section(scratch, bytes, out, |scratch, canon, reader| {
        let lut_bits = canon.lut_bits;
        // Fast path: enough bits left for a full-width peek.
        if reader.remaining() >= lut_bits as usize {
            let probe = reader.peek_bits(lut_bits) as usize;
            let len = scratch.lut_len[probe];
            if len != 0 {
                reader.skip_bits(u32::from(len))?;
                return Ok(scratch.lut_sym[probe]);
            }
            // The LUT missed, so the code is longer than `lut_bits`: one
            // `max_len`-bit window holds it whole, and each populated length
            // is one shift and compare against it.
            if reader.remaining() >= canon.max_len as usize {
                let window = reader.peek_bits(canon.max_len);
                for &len in &canon.long_lens[..canon.n_long] {
                    let len = u32::from(len);
                    if let Some(k) = canon.index_of(window >> (canon.max_len - len), len) {
                        reader.skip_bits(len)?;
                        return Ok(scratch.dec_syms[k]);
                    }
                }
            }
        }
        // The last `max_len` bits of the stream, and windows no code matches
        // (whose error the walk names).
        canon.walk(reader, &scratch.dec_syms)
    })
}

/// Canonical decode tables of one stream, by code length: first code, count
/// and offset into the canonical symbol order (`CodecScratch::dec_syms`).
struct Canon {
    len_count: [u32; (MAX_CODE_LEN + 1) as usize],
    first_code: [u64; (MAX_CODE_LEN + 1) as usize],
    len_offset: [u32; (MAX_CODE_LEN + 1) as usize],
    max_len: u32,
    /// Width of the prefix LUT: `min(max_len, LUT_BITS)`.
    lut_bits: u32,
    /// The populated lengths above `lut_bits`, ascending.
    long_lens: [u8; MAX_CODE_LEN as usize],
    n_long: usize,
}

// `peek_bits(max_len)` must be legal for every accepted header.
const _: () = assert!(MAX_CODE_LEN <= crate::bitstream::PEEK_MAX_BITS);

impl Canon {
    /// Position in the canonical symbol order of the `len`-bit code `code`,
    /// if the header assigned it.
    #[inline]
    fn index_of(&self, code: u64, len: u32) -> Option<usize> {
        let first = self.first_code[len as usize];
        let count = u64::from(self.len_count[len as usize]);
        (code >= first && code - first < count)
            .then(|| self.len_offset[len as usize] as usize + (code - first) as usize)
    }

    /// Decode one symbol bit by bit: the canonical per-length walk.
    fn walk(&self, reader: &mut BitReader<'_>, dec_syms: &[u32]) -> Result<u32, CodecError> {
        let mut code = 0u64;
        let mut len = 0u32;
        loop {
            code = (code << 1) | u64::from(reader.read_bit()?);
            len += 1;
            if len > self.max_len {
                return Err(CodecError::Corrupt("code longer than maximum".into()));
            }
            if let Some(k) = self.index_of(code, len) {
                return Ok(dec_syms[k]);
            }
        }
    }
}

/// Parse one Huffman section — header, canonical tables, prefix LUT — and
/// decode its `n_symbols` payload symbols with `next_symbol`. Returns the
/// number of bytes consumed.
fn decode_section(
    scratch: &mut CodecScratch,
    bytes: &[u8],
    out: &mut Vec<u32>,
    mut next_symbol: impl FnMut(&CodecScratch, &Canon, &mut BitReader<'_>) -> Result<u32, CodecError>,
) -> Result<usize, CodecError> {
    out.clear();
    let mut offset = 0usize;
    let (n_symbols, used) = read_varint(&bytes[offset..])?;
    offset += used;
    if n_symbols == 0 {
        return Ok(offset);
    }
    let (alphabet_size, used) = read_varint(&bytes[offset..])?;
    offset += used;
    if alphabet_size == 0 {
        return Err(CodecError::Corrupt("empty alphabet with non-empty payload".into()));
    }

    scratch.dec_lens.clear();
    // Each header entry costs at least two stream bytes (two varints), so
    // this reserve stays bounded by the actual input even when a corrupt
    // header claims an absurd alphabet (the parse loop below then fails
    // with UnexpectedEof instead of aborting on capacity overflow).
    scratch.dec_lens.reserve((alphabet_size as usize).min(bytes.len().saturating_sub(offset) / 2));
    for _ in 0..alphabet_size {
        let (sym, used) = read_varint(&bytes[offset..])?;
        offset += used;
        let (len, used) = read_varint(&bytes[offset..])?;
        offset += used;
        if len == 0 || len > u64::from(MAX_CODE_LEN) {
            return Err(CodecError::Corrupt(format!("invalid code length {len}")));
        }
        scratch.dec_lens.push((sym as u32, len as u32));
    }

    let (payload_bits, used) = read_varint(&bytes[offset..])?;
    offset += used;
    let payload_bytes = (payload_bits as usize).div_ceil(8);
    if bytes.len() < offset + payload_bytes {
        return Err(CodecError::UnexpectedEof);
    }
    let payload = &bytes[offset..offset + payload_bytes];
    let consumed = offset + payload_bytes;

    // A symbol costs at least one bit, so this reserve is bounded by the
    // actual payload even if a corrupt header claims an absurd count.
    out.reserve((n_symbols as usize).min(payload.len() * 8 + 1));
    let mut reader = BitReader::new(payload);

    // The degenerate single-symbol alphabet: one placeholder bit per symbol
    // (any value), see the module docs.
    if scratch.dec_lens.len() == 1 {
        let sym = scratch.dec_lens[0].0;
        for _ in 0..n_symbols {
            let _ = reader.read_bit()?;
            out.push(sym);
        }
        return Ok(consumed);
    }

    // Canonical reconstruction: sort (symbol, length) by (length, symbol),
    // assign consecutive codes, and record per-length (first code, count,
    // offset into the canonical symbol order). The same walk also fills the
    // prefix LUT — codes of at most `lut_bits` bits resolve with one peek,
    // longer codes leave entry length 0.
    scratch.dec_lens.sort_unstable_by_key(|&(sym, len)| (len, sym));
    let max_len = scratch.dec_lens.last().expect("alphabet_size >= 1").1;
    let lut_bits = max_len.min(LUT_BITS);
    let lut_size = 1usize << lut_bits;
    scratch.lut_len.clear();
    scratch.lut_len.resize(lut_size, 0);
    if scratch.lut_sym.len() < lut_size {
        scratch.lut_sym.resize(lut_size, 0);
    }
    scratch.dec_syms.clear();
    let mut canon = Canon {
        len_count: [0; (MAX_CODE_LEN + 1) as usize],
        first_code: [0; (MAX_CODE_LEN + 1) as usize],
        len_offset: [0; (MAX_CODE_LEN + 1) as usize],
        max_len,
        lut_bits,
        long_lens: [0; MAX_CODE_LEN as usize],
        n_long: 0,
    };
    let mut code = 0u64;
    let mut prev_len = 0u32;
    for (k, &(sym, len)) in scratch.dec_lens.iter().enumerate() {
        if prev_len != 0 {
            code = (code + 1) << (len - prev_len);
        }
        // Kraft check: a canonical code must fit in its declared length. A
        // corrupt header whose lengths oversubscribe the code space (e.g.
        // three symbols all claiming length 1) fails here instead of
        // overrunning the LUT fill below.
        if code >> len != 0 {
            return Err(CodecError::Corrupt("code lengths oversubscribe the code space".into()));
        }
        if len != prev_len {
            canon.first_code[len as usize] = code;
            canon.len_offset[len as usize] = k as u32;
            if len > lut_bits {
                canon.long_lens[canon.n_long] = len as u8;
                canon.n_long += 1;
            }
        }
        canon.len_count[len as usize] += 1;
        scratch.dec_syms.push(sym);
        prev_len = len;
        if len <= lut_bits {
            let lo = (code << (lut_bits - len)) as usize;
            let hi = ((code + 1) << (lut_bits - len)) as usize;
            for entry in lo..hi {
                scratch.lut_len[entry] = len as u8;
                scratch.lut_sym[entry] = sym;
            }
        }
    }

    while out.len() < n_symbols as usize {
        out.push(next_symbol(scratch, &canon, &mut reader)?);
    }
    Ok(consumed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(symbols: &[u32]) {
        let encoded = huffman_encode(symbols);
        let (decoded, used) = huffman_decode(&encoded).unwrap();
        assert_eq!(decoded, symbols);
        assert_eq!(used, encoded.len());
        // The scratch-reusing entry points agree bit for bit with the
        // wrappers, including when the same scratch served other inputs.
        let mut scratch = CodecScratch::new();
        let mut warmup = Vec::new();
        huffman_encode_with(&mut scratch, &[9, 9, 1, 2, 3, 9], &mut warmup);
        let mut with_out = Vec::new();
        huffman_encode_with(&mut scratch, symbols, &mut with_out);
        assert_eq!(with_out, encoded);
        let mut decoded_with = Vec::new();
        let used_with = huffman_decode_with(&mut scratch, &encoded, &mut decoded_with).unwrap();
        assert_eq!(decoded_with, symbols);
        assert_eq!(used_with, encoded.len());
    }

    #[test]
    fn empty_input() {
        roundtrip(&[]);
    }

    #[test]
    fn single_distinct_symbol() {
        roundtrip(&[7; 100]);
    }

    #[test]
    fn single_distinct_symbol_header_has_length_one_never_zero() {
        // The degenerate alphabet must spend a real (length-1) code: stream
        // is `varint n | alphabet 1 | (sym 7, len 1) | 100 payload bits`.
        let encoded = huffman_encode(&[7; 100]);
        let (n, used0) = read_varint(&encoded).unwrap();
        assert_eq!(n, 100);
        let (alpha, used1) = read_varint(&encoded[used0..]).unwrap();
        assert_eq!(alpha, 1);
        let (sym, used2) = read_varint(&encoded[used0 + used1..]).unwrap();
        assert_eq!(sym, 7);
        let (len, used3) = read_varint(&encoded[used0 + used1 + used2..]).unwrap();
        assert_eq!(len, 1, "single-symbol code length must be 1, not 0");
        let (bits, _) = read_varint(&encoded[used0 + used1 + used2 + used3..]).unwrap();
        assert_eq!(bits, 100, "one placeholder bit per symbol");
    }

    #[test]
    fn single_distinct_symbol_decode_ignores_placeholder_bit_values() {
        // The decoder consumes one bit per symbol regardless of value; a
        // stream whose placeholder bits are 1s decodes identically.
        let mut encoded = huffman_encode(&[3u32; 16]);
        let payload_start = encoded.len() - 2; // 16 bits of payload
        encoded[payload_start] = 0xFF;
        encoded[payload_start + 1] = 0xFF;
        let (decoded, _) = huffman_decode(&encoded).unwrap();
        assert_eq!(decoded, vec![3u32; 16]);
    }

    #[test]
    fn single_symbol_zero_length_header_is_rejected() {
        // Hand-craft the ambiguous header the encoder refuses to emit:
        // (symbol 7, code length 0).
        let mut bad = Vec::new();
        write_varint(&mut bad, 4); // n_symbols
        write_varint(&mut bad, 1); // alphabet_size
        write_varint(&mut bad, 7); // symbol
        write_varint(&mut bad, 0); // code length 0 — ambiguous, must be rejected
        write_varint(&mut bad, 0); // payload bits
        assert!(matches!(huffman_decode(&bad), Err(CodecError::Corrupt(_))));
    }

    #[test]
    fn two_symbols() {
        roundtrip(&[0, 1, 0, 0, 1, 0, 0, 0, 1]);
    }

    #[test]
    fn absurd_alphabet_size_is_an_eof_error_not_a_capacity_panic() {
        // A two-varint stream claiming a 2^62-entry alphabet must fail the
        // entry parse loop, not abort in Vec::reserve.
        let mut bad = Vec::new();
        write_varint(&mut bad, 1); // n_symbols
        write_varint(&mut bad, 1u64 << 62); // alphabet_size
        assert_eq!(huffman_decode(&bad), Err(CodecError::UnexpectedEof));
    }

    #[test]
    fn oversubscribed_code_lengths_are_rejected_not_a_panic() {
        // Three symbols all claiming length-1 codes violate the Kraft
        // inequality: the canonical assignment would hand symbol 2 the code
        // 0b10, which does not fit in one bit. The decoder must return
        // Corrupt (the pre-LUT decoder did) rather than overrun its tables.
        let mut bad = Vec::new();
        write_varint(&mut bad, 5); // n_symbols
        write_varint(&mut bad, 3); // alphabet_size
        for sym in 0u64..3 {
            write_varint(&mut bad, sym);
            write_varint(&mut bad, 1); // every code claims length 1
        }
        write_varint(&mut bad, 8); // payload bits
        bad.push(0b1010_1010);
        assert!(matches!(huffman_decode(&bad), Err(CodecError::Corrupt(_))));

        // Deeper variant: lengths {2, 2, 2, 2, 2} oversubscribe at length 2
        // only on the fifth entry.
        let mut bad = Vec::new();
        write_varint(&mut bad, 4);
        write_varint(&mut bad, 5);
        for sym in 0u64..5 {
            write_varint(&mut bad, sym);
            write_varint(&mut bad, 2);
        }
        write_varint(&mut bad, 8);
        bad.push(0);
        assert!(matches!(huffman_decode(&bad), Err(CodecError::Corrupt(_))));
    }

    #[test]
    fn skewed_distribution_compresses() {
        // 90% zeros: the encoded stream must be much smaller than 4 bytes per
        // symbol.
        let mut symbols = vec![0u32; 9000];
        symbols.extend((0..1000).map(|i| (i % 17) as u32 + 1));
        let encoded = huffman_encode(&symbols);
        assert!(encoded.len() < symbols.len(), "{} vs {}", encoded.len(), symbols.len());
        roundtrip(&symbols);
    }

    #[test]
    fn uniform_large_alphabet() {
        let symbols: Vec<u32> = (0..4096u32).map(|i| i % 256).collect();
        roundtrip(&symbols);
    }

    #[test]
    fn sparse_large_symbol_values() {
        // Span > DENSE_SPAN_MAX: exercises the symbol-map fallback.
        let symbols = vec![0u32, u32::MAX, 123_456_789, 42, u32::MAX, 42, 0, 0];
        roundtrip(&symbols);
    }

    #[test]
    fn mgard_like_alphabet_with_escape_code() {
        // MGARD's shape: codes clustered around 2^30 plus the escape 0 —
        // a huge span with few distinct values (sparse tables).
        let mut symbols = Vec::new();
        for i in 0..5000u32 {
            symbols.push(if i % 97 == 0 { 0 } else { (1 << 30) + (i % 7) });
        }
        roundtrip(&symbols);
    }

    #[test]
    fn pseudorandom_sequence() {
        let mut state = 0x12345678u64;
        let symbols: Vec<u32> = (0..10_000)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((state >> 33) % 300) as u32
            })
            .collect();
        roundtrip(&symbols);
    }

    #[test]
    fn codes_longer_than_the_lut_decode_through_the_slow_path() {
        // A steep geometric distribution forces code lengths past LUT_BITS,
        // so both decoder paths run within one stream.
        let mut symbols = Vec::new();
        for s in 0..20u32 {
            let copies = 1usize << s.min(18);
            symbols.extend(std::iter::repeat_n(s, copies));
        }
        roundtrip(&symbols);
    }

    /// The reference the table-driven decoder is held to: every symbol
    /// through the bit-by-bit canonical walk, no LUT and no peek.
    fn decode_bitwise(
        scratch: &mut CodecScratch,
        bytes: &[u8],
        out: &mut Vec<u32>,
    ) -> Result<usize, CodecError> {
        decode_section(scratch, bytes, out, |s, canon, reader| canon.walk(reader, &s.dec_syms))
    }

    /// Both decoders on `bytes`: same consumed length or same error, same
    /// symbols, and an output reservation bounded by the stream's own bits.
    fn assert_decoders_agree(
        scratch: &mut CodecScratch,
        bytes: &[u8],
    ) -> Result<usize, CodecError> {
        let (mut fast, mut reference) = (Vec::new(), Vec::new());
        let got = huffman_decode_with(scratch, bytes, &mut fast);
        let want = decode_bitwise(scratch, bytes, &mut reference);
        assert_eq!(got, want);
        if got.is_ok() {
            assert_eq!(fast, reference);
        }
        assert!(fast.capacity() <= bytes.len() * 8 + 4, "reserved {}", fast.capacity());
        got
    }

    /// `deep` symbols with Fibonacci counts (the shortest input that forces a
    /// code of `deep - 1` bits) over `flat` symbols seen once each, shuffled.
    /// The flat block stands in for the chain's first element and the chain
    /// is scaled to its weight, so the flat symbols sit at the bottom of the
    /// chain: `deep - 1 + log2(flat)` bits each.
    fn skewed_symbols(deep: usize, flat: usize) -> Vec<u32> {
        let mut symbols = Vec::new();
        let (mut a, mut b) = (1usize, 1usize);
        for s in 0..deep {
            if s > 0 || flat == 0 {
                symbols.extend(std::iter::repeat_n(s as u32, a * flat.max(1)));
            }
            (a, b) = (b, a + b);
        }
        symbols.extend((0..flat).map(|s| (deep + s) as u32));
        let mut state = 0x2545F4914F6CDD1Du64;
        for i in (1..symbols.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            symbols.swap(i, (state >> 33) as usize % (i + 1));
        }
        symbols
    }

    fn max_code_len(scratch: &mut CodecScratch, symbols: &[u32]) -> u32 {
        huffman_encode_with(scratch, symbols, &mut Vec::new());
        *scratch.lens.iter().max().expect("non-empty alphabet")
    }

    #[test]
    fn peek_decode_equals_the_bitwise_walk_from_2_to_20k_distinct_symbols() {
        let mut scratch = CodecScratch::new();
        for (deep, flat) in [(2, 0), (3, 0), (14, 0), (27, 0), (19, 100), (15, 2000), (11, 20_000)]
        {
            let symbols = skewed_symbols(deep, flat);
            if deep + flat >= 27 {
                assert!(max_code_len(&mut scratch, &symbols) > 24, "deep={deep} flat={flat}");
            }
            let encoded = huffman_encode(&symbols);
            assert_eq!(assert_decoders_agree(&mut scratch, &encoded), Ok(encoded.len()));
        }
        // MGARD's shape: thousands of distinct codes of 9–17 bits around the
        // radius, nearly all of them past the LUT.
        let mut state = 7u64;
        for distinct in [4_000u32, 19_000] {
            let symbols: Vec<u32> = (0..60_000)
                .map(|_| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let (a, b) = ((state >> 33) as u32 % distinct, (state >> 13) as u32 % distinct);
                    (1 << 30) + a.min(b)
                })
                .collect();
            assert!(max_code_len(&mut scratch, &symbols) > LUT_BITS);
            let encoded = huffman_encode(&symbols);
            assert_eq!(assert_decoders_agree(&mut scratch, &encoded), Ok(encoded.len()));
        }
    }

    #[test]
    fn corrupt_long_code_streams_fail_alike_in_both_decoders() {
        // 2 002 distinct symbols, 2 000 of them coded in 13 bits.
        let mut symbols = skewed_symbols(0, 2000);
        symbols.extend(std::iter::repeat_n(5000, 2000));
        symbols.extend(std::iter::repeat_n(5001, 4000));
        let mut scratch = CodecScratch::new();
        assert!(max_code_len(&mut scratch, &symbols) > LUT_BITS);
        let encoded = huffman_encode(&symbols);
        for cut in 0..encoded.len() {
            assert!(assert_decoders_agree(&mut scratch, &encoded[..cut]).is_err(), "cut {cut}");
        }
        let mut bad = encoded;
        for at in 0..bad.len() {
            bad[at] ^= 0x55;
            let _ = assert_decoders_agree(&mut scratch, &bad);
            bad[at] ^= 0x55;
        }
    }

    #[test]
    fn a_last_long_code_with_fewer_than_max_len_bits_left_decodes() {
        // Codes run from 1 to 15 bits; every symbol takes the last place at
        // every bit alignment, so short-of-`max_len` tails are covered.
        let body = skewed_symbols(16, 0);
        let mut scratch = CodecScratch::new();
        let max_len = max_code_len(&mut scratch, &body) as usize;
        let frequent = *body.iter().max().expect("non-empty");
        let mut short_tails = 0;
        for last in 0..16u32 {
            for pad in 0..8 {
                let mut symbols = body.clone();
                symbols.extend(std::iter::repeat_n(frequent, pad));
                symbols.push(last);
                let mut encoded = Vec::new();
                huffman_encode_with(&mut scratch, &symbols, &mut encoded);
                assert_eq!(assert_decoders_agree(&mut scratch, &encoded), Ok(encoded.len()));
                let k = scratch.alphabet.iter().position(|&(s, _)| s == last).expect("coded");
                let len = scratch.lens[k] as usize;
                let zero_fill = scratch.writer.as_bytes().len() * 8 - scratch.writer.bit_len();
                short_tails += usize::from(len > LUT_BITS as usize && len + zero_fill < max_len);
            }
        }
        assert!(short_tails > 0);
    }

    #[test]
    fn scratch_reuse_across_dense_and_sparse_alphabets() {
        // Alternating dense/sparse inputs through one scratch must not leak
        // state between calls (the all-zero dense-table invariant).
        let mut scratch = CodecScratch::new();
        let dense: Vec<u32> = (0..500u32).map(|i| i % 40).collect();
        let sparse = vec![5u32, 1 << 31, 0, 5, 1 << 31, 77];
        for _ in 0..3 {
            for input in [&dense, &sparse] {
                let mut out = Vec::new();
                huffman_encode_with(&mut scratch, input, &mut out);
                assert_eq!(out, huffman_encode(input));
                let mut decoded = Vec::new();
                huffman_decode_with(&mut scratch, &out, &mut decoded).unwrap();
                assert_eq!(&decoded, input);
            }
        }
    }

    #[test]
    fn canonical_codes_are_prefix_free() {
        let mut scratch = CodecScratch::new();
        let symbols: Vec<u32> = [(1u32, 40usize), (2, 30), (3, 20), (4, 9), (5, 1)]
            .iter()
            .flat_map(|&(s, c)| std::iter::repeat_n(s, c))
            .collect();
        let mode = build_alphabet(&mut scratch, &symbols);
        build_code_lengths(&mut scratch);
        assign_canonical_codes(&mut scratch, mode);
        let TableMode::Dense { min } = mode else {
            panic!("tight alphabet must take the dense path");
        };
        let entries: Vec<(u32, u64)> = scratch
            .alphabet
            .iter()
            .map(|&(sym, _)| {
                let idx = (sym - min) as usize;
                (u32::from(scratch.enc_len[idx]), scratch.enc_code[idx])
            })
            .collect();
        for (i, &(len_a, code_a)) in entries.iter().enumerate() {
            for (j, &(len_b, code_b)) in entries.iter().enumerate() {
                if i == j {
                    continue;
                }
                let (short, long) = if len_a <= len_b {
                    ((len_a, code_a), (len_b, code_b))
                } else {
                    ((len_b, code_b), (len_a, code_a))
                };
                let prefix = long.1 >> (long.0 - short.0);
                assert!(
                    !(short.0 != long.0 && prefix == short.1),
                    "code {:b}/{} is a prefix of {:b}/{}",
                    short.1,
                    short.0,
                    long.1,
                    long.0
                );
            }
        }
    }

    #[test]
    fn frequent_symbols_get_shorter_codes() {
        let mut symbols = vec![0u32; 1000];
        for s in [1u32, 2, 3] {
            symbols.extend(std::iter::repeat_n(s, 10));
        }
        let mut scratch = CodecScratch::new();
        build_alphabet(&mut scratch, &symbols);
        build_code_lengths(&mut scratch);
        // alphabet is symbol-sorted: index 0 is symbol 0.
        assert!(scratch.lens[0] <= scratch.lens[1]);
        assert!(scratch.lens[0] <= scratch.lens[3]);
    }

    #[test]
    fn truncated_stream_is_an_error() {
        let encoded = huffman_encode(&[1, 2, 3, 1, 2, 3, 3, 3]);
        for cut in [1, encoded.len() / 2, encoded.len() - 1] {
            assert!(huffman_decode(&encoded[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn decode_reports_consumed_length_inside_container() {
        let encoded = huffman_encode(&[9, 9, 8, 7]);
        let mut container = encoded.clone();
        container.extend_from_slice(&[0xAA, 0xBB, 0xCC]);
        let (decoded, used) = huffman_decode(&container).unwrap();
        assert_eq!(decoded, vec![9, 9, 8, 7]);
        assert_eq!(used, encoded.len());
    }
}
