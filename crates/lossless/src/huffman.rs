//! Canonical Huffman coding over `u32` symbols.
//!
//! SZ and MGARD encode their quantization codes with a Huffman coder before
//! the final lossless pass; this module provides the equivalent,
//! self-describing encoder/decoder:
//!
//! * symbol alphabet is discovered from the input (arbitrary `u32` symbols),
//! * code lengths come from a Huffman tree built in one linear pass over two
//!   queues — the leaves sorted by count, and the merged nodes in the order
//!   they were made (each is heavier than the last) — which merges exactly
//!   as a binary heap would,
//! * codes are made *canonical* so only (symbol, length) pairs need to be
//!   stored in the header, in strictly ascending symbol order (the decoder
//!   refuses any other); the `(length, symbol)` order of the codes is a
//!   counting sort on length, shared by encoder and decoder,
//! * the payload's bit length is Σ count · length, known before a bit is
//!   written, so the payload goes straight into the presized output,
//! * decode is table-driven: a 64-bit window is refilled eight bytes at a
//!   time and looked up in a pair table, whose entries hold the one or two
//!   codes at the front of a `table_bits`-wide prefix and the bits they take
//!   (8 to 14 bits, sized by the section's code count, so a tile does not
//!   fill a field's table). A code longer than the table is read from a
//!   fresh window: the number of populated longer lengths whose last code
//!   lies below the window is its length. A prefix no code has, and the
//!   payload's last eight bytes, take the checked per-symbol path: the
//!   table's first code, else the same long-code read from a
//!   `max_len`-bit peek, else the bit-by-bit canonical walk, which names
//!   every error,
//! * the payload ends where its last code does: a bit length past it, or a
//!   set pad bit, is refused.
//!
//! The hot paths are **allocation-free** when driven through
//! [`huffman_encode_with`] / [`huffman_decode_with`]: the histogram, tree,
//! code tables and the decoder's pair table all live in a caller-owned
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
use crate::scratch::{build_alphabet, CodecScratch, TableMode};
use crate::{read_varint, write_varint, CodecError};

/// Maximum accepted code length. With ≤ 2^20 distinct symbols and the
/// depth-balancing property of Huffman trees over realistic count
/// distributions, 48 bits is far beyond anything reachable in practice but
/// protects the decoder against corrupt headers.
const MAX_CODE_LEN: u32 = 48;

/// Widest pair table: 2^14 entries, for sections of at least 65 536 codes.
/// On a 512² GRF at a = 2 MGARD's alphabet holds 18 970 distinct codes at
/// `Absolute(1e-3)` and `sz`'s 62 022 at 1e-5, so a 12-bit table leaves
/// many of their codes to the long-code read; a 16-bit one decoded slower,
/// its 512 KiB outgrowing the cache.
const MAX_TABLE_BITS: u32 = 14;

/// Narrowest pair table, for sections of a few hundred codes: 2 KiB.
const MIN_TABLE_BITS: u32 = 8;

/// Width of the pair table of a section of `codes` codes whose longest code
/// is `max_len` bits: about a quarter as many entries as codes, so filling
/// it costs a fraction of decoding through it, within
/// [`MIN_TABLE_BITS`]`..=`[`MAX_TABLE_BITS`], and no wider than two longest
/// codes.
fn table_bits(codes: u64, max_len: u32) -> u32 {
    let quarter = codes.max(1).ilog2().saturating_sub(2);
    quarter.clamp(MIN_TABLE_BITS, MAX_TABLE_BITS).min(2 * max_len)
}

// A pair-table entry is two parallel values: a byte holding the bits its
// codes take (low nibble; 0: the table does not hold the window's first
// code) and the first code's length (high nibble), and the two symbols (the
// second repeats the first in a one-symbol entry). The lookup's next window
// waits on the byte alone, which sits in a table an eighth the size.
const _: () = assert!(MAX_TABLE_BITS < 16 && 4 * MAX_TABLE_BITS <= 57);

/// Bits an entry's codes take (0: not held).
#[inline]
fn entry_bits(lens: u8) -> u32 {
    u32::from(lens & 0xF)
}

/// Length of an entry's first code (0: not held).
#[inline]
fn first_len(lens: u8) -> u32 {
    u32::from(lens >> 4)
}

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
    write_codes(scratch, mode, symbols, out);
}

/// The header and payload of `symbols` under the code lengths
/// `scratch.lens` of the alphabet `scratch.alphabet`, whose counts are the
/// symbols' (they size the payload).
fn write_codes(scratch: &mut CodecScratch, mode: TableMode, symbols: &[u32], out: &mut Vec<u8>) {
    assign_canonical_codes(scratch, mode);

    // Header: alphabet description in ascending symbol order.
    write_varint(out, scratch.alphabet.len() as u64);
    for (k, &(sym, _)) in scratch.alphabet.iter().enumerate() {
        write_varint(out, u64::from(sym));
        write_varint(out, u64::from(scratch.lens[k]));
    }

    // Payload: one table lookup and one append per symbol, into bytes sized
    // before the first.
    let bits: u64 = scratch
        .alphabet
        .iter()
        .zip(&scratch.lens)
        .map(|(&(_, count), &len)| count * u64::from(len))
        .sum();
    write_varint(out, bits);
    let at = out.len();
    out.resize(at + bits.div_ceil(8) as usize, 0);
    let mut payload = Payload { bytes: &mut out[at..], at: 0, acc: 0, fill: 0 };
    match mode {
        TableMode::Dense { min } => {
            for &s in symbols {
                let idx = (s - min) as usize;
                payload.put(scratch.enc_code[idx], u32::from(scratch.enc_len[idx]));
            }
        }
        TableMode::Sparse => {
            for &s in symbols {
                let slot = scratch.sym_map.get(s).expect("alphabet covers every symbol") as usize;
                let (len, code) = scratch.slot_codes[slot];
                payload.put(code, len);
            }
        }
    }
    payload.finish();

    // Restore the all-zero invariant of the dense tables (O(distinct), not
    // O(span)).
    if let TableMode::Dense { min } = mode {
        for &(sym, _) in &scratch.alphabet {
            scratch.enc_len[(sym - min) as usize] = 0;
        }
    }
}

/// MSB-first codes into bytes presized to hold them exactly: `BitWriter`'s
/// layout — pending bits in a `u64`, stored eight bytes at once, the last
/// byte zero-padded — with no growth to check.
struct Payload<'a> {
    bytes: &'a mut [u8],
    /// Bytes stored.
    at: usize,
    /// The pending bits are the low `fill` bits; the bits above are stale.
    acc: u64,
    fill: u32,
}

impl Payload<'_> {
    /// Append the `len`-bit code `code` (`0 < len <= 64`, `code < 2^len`).
    #[inline]
    fn put(&mut self, code: u64, len: u32) {
        let free = 64 - self.fill;
        if len < free {
            self.acc = (self.acc << len) | code;
            self.fill += len;
            return;
        }
        // (`<< (free - 1) << 1`: `free` may be 64.)
        let spill = len - free;
        let word = (self.acc << (free - 1) << 1) | (code >> spill);
        self.bytes[self.at..self.at + 8].copy_from_slice(&word.to_be_bytes());
        self.at += 8;
        self.acc = code;
        self.fill = spill;
    }

    /// Store the pending bits, the last byte zero-padded.
    fn finish(self) {
        let word = self.acc << (63 - self.fill) << 1;
        let tail = self.fill.div_ceil(8) as usize;
        self.bytes[self.at..].copy_from_slice(&word.to_be_bytes()[..tail]);
    }
}

/// Huffman code lengths from `scratch.alphabet` into `scratch.lens`
/// (parallel arrays). A single distinct symbol gets length 1 (see the module
/// docs on the degenerate alphabet).
///
/// The tree is the one a min-heap on `(weight, order)` builds — `order`
/// being the smallest symbol in the node's subtree, unique per node — with
/// the heap replaced by two queues: the leaves sorted by `(count, symbol)`,
/// and the merged nodes in the order they were made. Every count is at
/// least 1, so each merged node is heavier than both nodes it joins, and the
/// pairs taken never get lighter; merged nodes are therefore made in
/// strictly increasing `(weight, order)`, and the lighter of the two heads
/// is always the heap's minimum. Leaf `k` stands for `alphabet[k]`, whose
/// symbols ascend, so a leaf index orders nodes as its symbol does.
fn build_code_lengths(scratch: &mut CodecScratch) {
    let CodecScratch { alphabet, leaves, merged, children, depths, lens, .. } = scratch;
    let n = alphabet.len();
    lens.clear();
    lens.resize(n, 0);
    if n == 1 {
        lens[0] = 1;
        return;
    }

    leaves.clear();
    leaves.extend(0..n as u32);
    leaves.sort_unstable_by_key(|&k| (alphabet[k as usize].1, k));
    merged.clear();
    children.clear();
    let (mut next_leaf, mut next_merged) = (0, 0);
    // The lighter head by `(weight, order)`, as `(weight, order, id)`. An
    // empty queue's head is heavier than any node: a weight is at most the
    // symbol count.
    const EMPTY: (u64, u32) = (u64::MAX, u32::MAX);
    let mut take = |merged: &[(u64, u32)]| {
        let leaf = leaves.get(next_leaf).map_or(EMPTY, |&k| (alphabet[k as usize].1, k));
        let head = merged.get(next_merged).copied().unwrap_or(EMPTY);
        if leaf < head {
            next_leaf += 1;
            (leaf.0, leaf.1, leaf.1)
        } else {
            next_merged += 1;
            (head.0, head.1, (n + next_merged - 1) as u32)
        }
    };
    for _ in 1..n {
        let a = take(merged);
        let b = take(merged);
        merged.push((a.0 + b.0, a.1.min(b.1)));
        children.push((a.2, b.2));
    }

    // The root is the last merged node; every node is made after its
    // children, so one backward pass hands each child its depth.
    depths.clear();
    depths.resize(n - 1, 0);
    for (k, &(a, b)) in children.iter().enumerate().rev() {
        let depth = depths[k] + 1;
        for child in [a as usize, b as usize] {
            if child < n {
                lens[child] = depth;
            } else {
                depths[child - n] = depth;
            }
        }
    }
}

/// Alphabet indices `0..n` in canonical `(length, symbol)` order into
/// `order`, for an alphabet listed in ascending symbol order whose `k`-th
/// entry has a code length `len(k)` of at most 64 bits: a counting sort on
/// length, stable, so equal lengths keep their symbol order.
fn canonical_order(n: usize, len: impl Fn(usize) -> u32, order: &mut Vec<u32>) {
    let mut start = [0u32; 65];
    for k in 0..n {
        start[len(k) as usize] += 1;
    }
    let mut below = 0;
    for slot in &mut start {
        (*slot, below) = (below, below + *slot);
    }
    order.clear();
    order.resize(n, 0);
    for k in 0..n {
        let slot = &mut start[len(k) as usize];
        order[*slot as usize] = k as u32;
        *slot += 1;
    }
}

/// Assign canonical codes — symbols sorted by (length, symbol) receive
/// consecutive codes — into the flat encode tables selected by `mode`.
fn assign_canonical_codes(scratch: &mut CodecScratch, mode: TableMode) {
    let n = scratch.alphabet.len();
    let lens = &scratch.lens;
    canonical_order(n, |k| lens[k], &mut scratch.canon);

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
    for &k in &scratch.canon {
        let (len, sym) = (scratch.lens[k as usize], scratch.alphabet[k as usize].0);
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
/// reusing `scratch` for the canonical tables and the pair table. Returns
/// the number of bytes consumed.
pub fn huffman_decode_with(
    scratch: &mut CodecScratch,
    bytes: &[u8],
    out: &mut Vec<u32>,
) -> Result<usize, CodecError> {
    decode_section(scratch, bytes, out, |scratch, canon, payload, out| {
        let (lens, pairs) = (&scratch.pair_lens[..], &scratch.pair_syms[..]);
        let shift = 64 - canon.table_bits;
        let (mut k, mut pos) = (0, 0);
        while k < out.len() {
            // Four lookups per eight-byte refill: a window holds at least 57
            // bits past the cursor, and an entry takes at most 14. Each
            // writes two symbols and keeps as many as it decoded.
            'bulk: while k + 8 <= out.len() && pos / 8 + 8 <= payload.len() {
                let window_at = |pos: usize| {
                    let bytes: [u8; 8] = payload[pos / 8..pos / 8 + 8].try_into().expect("8 bytes");
                    u64::from_be_bytes(bytes) << (pos % 8)
                };
                let mut window = window_at(pos);
                for _ in 0..4 {
                    let i = (window >> shift) as usize;
                    let bits = entry_bits(lens[i]);
                    if bits == 0 {
                        // A code longer than the table, whole in a fresh
                        // window (57 bits or more against `max_len` <= 48),
                        // or a prefix no code has.
                        let long = (pos / 8 + 8 <= payload.len())
                            .then(|| canon.long_code(window_at(pos)))
                            .flatten();
                        let Some((at, len)) = long else {
                            break 'bulk;
                        };
                        out[k] = scratch.dec_syms[at];
                        k += 1;
                        pos += len as usize;
                        continue 'bulk;
                    }
                    [out[k], out[k + 1]] = pairs[i];
                    k += 1 + usize::from(bits != first_len(lens[i]));
                    window <<= bits;
                    pos += bits as usize;
                }
            }
            if k == out.len() {
                break;
            }
            // The payload's last bytes, or a prefix no code has.
            let mut reader = BitReader::new(&payload[pos / 8..]);
            reader.skip_bits((pos % 8) as u32)?;
            out[k] = canon.next_checked(&mut reader, scratch)?;
            k += 1;
            pos = pos / 8 * 8 + reader.position();
        }
        Ok(pos)
    })
}

/// Canonical decode tables of one stream, by code length: first code, count
/// and offset into the canonical symbol order (`CodecScratch::dec_syms`).
struct Canon {
    len_count: [u32; (MAX_CODE_LEN + 1) as usize],
    first_code: [u64; (MAX_CODE_LEN + 1) as usize],
    len_offset: [u32; (MAX_CODE_LEN + 1) as usize],
    max_len: u32,
    /// Width of the pair table (`CodecScratch::pair_lens` / `pair_syms`).
    table_bits: u32,
    /// The populated lengths above `table_bits`, ascending.
    long_lens: [u8; MAX_CODE_LEN as usize],
    /// The last code of each of those lengths, left-aligned in a `u64` and
    /// followed by ones: a 64-bit window whose code is one of them holds a
    /// code of the first length whose entry is not below the window.
    long_last: [u64; MAX_CODE_LEN as usize],
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

    /// Decode one symbol, checking every bit read: the pair table's first
    /// code, if the stream holds all of its bits; else
    /// [`Canon::next_past_table`].
    fn next_checked(
        &self,
        reader: &mut BitReader<'_>,
        scratch: &CodecScratch,
    ) -> Result<u32, CodecError> {
        // Bits past the end peek as zeros: a code is only taken if it ends
        // before them.
        let i = reader.peek_bits(self.table_bits) as usize;
        let len = first_len(scratch.pair_lens[i]);
        if len != 0 && len as usize <= reader.remaining() {
            reader.skip_bits(len)?;
            return Ok(scratch.pair_syms[i][0]);
        }
        self.next_past_table(reader, &scratch.dec_syms)
    }

    /// Decode one symbol the pair table does not hold: the code is longer
    /// than the table, and one `max_len`-bit window holds it whole
    /// ([`Canon::long_code`]); else (the last `max_len` bits of the stream,
    /// and windows no code matches) the bit-by-bit walk, which names the
    /// error.
    fn next_past_table(&self, reader: &mut BitReader<'_>, syms: &[u32]) -> Result<u32, CodecError> {
        if reader.remaining() >= self.max_len as usize {
            let window = reader.peek_bits(self.max_len) << (64 - self.max_len);
            if let Some((k, len)) = self.long_code(window) {
                reader.skip_bits(len)?;
                return Ok(syms[k]);
            }
        }
        self.walk(reader, syms)
    }

    /// The code longer than the pair table at the front of `window` (its
    /// top `max_len` bits are the stream's), as its position in the
    /// canonical symbol order and its length: its length is the number of
    /// long lengths whose last code is below the window, counted without a
    /// branch, and one compare checks it.
    #[inline]
    fn long_code(&self, window: u64) -> Option<(usize, u32)> {
        let below = self.long_last[..self.n_long].iter().map(|&last| usize::from(last < window));
        let &len = self.long_lens[..self.n_long].get(below.sum::<usize>())?;
        let len = u32::from(len);
        self.index_of(window >> (64 - len), len).map(|k| (k, len))
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

/// Parse one Huffman section — header, canonical tables, pair table — and
/// decode its payload with `decode`, which fills the symbol slice it is
/// handed from the payload bytes and returns the bit after the last code
/// (it fails first if the slice is longer than the payload's bits could
/// fill). Refuses a payload that does not end there, and returns the number
/// of bytes consumed.
fn decode_section(
    scratch: &mut CodecScratch,
    bytes: &[u8],
    out: &mut Vec<u32>,
    decode: impl FnOnce(&CodecScratch, &Canon, &[u8], &mut [u32]) -> Result<usize, CodecError>,
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
        // The encoder lists each symbol once, ascending: a repeated or
        // out-of-order symbol would shift the canonical codes of the rest.
        let after_last = scratch.dec_lens.last().map_or(0, |&(last, _)| u64::from(last) + 1);
        if sym < after_last || sym > u64::from(u32::MAX) {
            return Err(CodecError::Corrupt(format!("header symbol {sym} out of order")));
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

    // A symbol costs at least one bit, so the symbols are bounded by the
    // actual payload even if a corrupt header claims an absurd count: a
    // decoder handed more fails before filling them all.
    out.resize((n_symbols as usize).min(payload.len() * 8 + 1), 0);

    let end = if scratch.dec_lens.len() == 1 {
        // The degenerate single-symbol alphabet: one placeholder bit per
        // symbol (any value), see the module docs.
        let mut reader = BitReader::new(payload);
        for _ in 0..n_symbols {
            let _ = reader.read_bit()?;
        }
        out.fill(scratch.dec_lens[0].0);
        reader.position()
    } else {
        let canon = build_tables(scratch, n_symbols.min(payload_bits))?;
        decode(scratch, &canon, payload, out)?
    };
    if end as u64 != payload_bits {
        return Err(CodecError::Corrupt(format!(
            "the codes end at bit {end} of a {payload_bits}-bit payload"
        )));
    }
    let pad = payload.len() * 8 - end;
    if payload.last().is_some_and(|&last| last & ((1u16 << pad) - 1) as u8 != 0) {
        return Err(CodecError::Corrupt("nonzero pad bits after the last code".into()));
    }
    Ok(consumed)
}

/// Canonical reconstruction of the header in `scratch.dec_lens`, for a
/// section of `codes` codes: put (symbol, length) in (length, symbol) order
/// as the encoder did, assign consecutive codes, record per-length (first
/// code, count, offset into the canonical symbol order), and fill the pair
/// table — the codes of at most `table_bits` bits, each entry then joined by
/// the code after its first if that fits too.
fn build_tables(scratch: &mut CodecScratch, codes: u64) -> Result<Canon, CodecError> {
    let CodecScratch { dec_lens, dec_syms, pair_lens, pair_syms, canon: order, .. } = scratch;
    canonical_order(dec_lens.len(), |k| dec_lens[k].1, order);
    let max_len = dec_lens[*order.last().expect("alphabet_size >= 1") as usize].1;
    let table_bits = table_bits(codes, max_len);
    pair_lens.clear();
    pair_lens.resize(1 << table_bits, 0);
    pair_syms.resize(1 << table_bits, [0; 2]);
    dec_syms.clear();
    let mut canon = Canon {
        len_count: [0; (MAX_CODE_LEN + 1) as usize],
        first_code: [0; (MAX_CODE_LEN + 1) as usize],
        len_offset: [0; (MAX_CODE_LEN + 1) as usize],
        max_len,
        table_bits,
        long_lens: [0; MAX_CODE_LEN as usize],
        long_last: [0; MAX_CODE_LEN as usize],
        n_long: 0,
    };
    let mut code = 0u64;
    let mut prev_len = 0u32;
    for (k, &entry) in order.iter().enumerate() {
        let (sym, len) = dec_lens[entry as usize];
        if prev_len != 0 {
            code = (code + 1) << (len - prev_len);
        }
        // Kraft check: a canonical code must fit in its declared length. A
        // corrupt header whose lengths oversubscribe the code space (e.g.
        // three symbols all claiming length 1) fails here instead of
        // overrunning the table fill below.
        if code >> len != 0 {
            return Err(CodecError::Corrupt("code lengths oversubscribe the code space".into()));
        }
        if len != prev_len {
            canon.first_code[len as usize] = code;
            canon.len_offset[len as usize] = k as u32;
            if len > table_bits {
                canon.long_lens[canon.n_long] = len as u8;
                canon.n_long += 1;
            }
        }
        canon.len_count[len as usize] += 1;
        dec_syms.push(sym);
        prev_len = len;
        if len <= table_bits {
            let lo = (code << (table_bits - len)) as usize;
            let hi = ((code + 1) << (table_bits - len)) as usize;
            pair_lens[lo..hi].fill((len as u8) << 4 | len as u8);
            pair_syms[lo..hi].fill([sym; 2]);
        }
    }
    for (last, &len) in canon.long_last.iter_mut().zip(&canon.long_lens[..canon.n_long]) {
        let len = u32::from(len);
        let code = canon.first_code[len as usize] + u64::from(canon.len_count[len as usize]) - 1;
        *last = code << (64 - len) | u64::MAX >> len;
    }
    // Join each entry to the code after its first where that fits too: the
    // entry `i << len` starts there, and joining rewrites no first code.
    let mask = pair_lens.len() - 1;
    for i in 0..pair_lens.len() {
        let len = first_len(pair_lens[i]);
        if len == 0 {
            continue;
        }
        let next = (i << len) & mask;
        let next_len = first_len(pair_lens[next]);
        if next_len != 0 && len + next_len <= table_bits {
            pair_lens[i] += next_len as u8;
            pair_syms[i][1] = pair_syms[next][0];
        }
    }
    Ok(canon)
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
    fn codes_longer_than_the_table_decode_through_the_checked_path() {
        // A steep geometric distribution forces code lengths past the table,
        // so both decoder paths run within one stream.
        let mut symbols = Vec::new();
        for s in 0..20u32 {
            let copies = 1usize << s.min(18);
            symbols.extend(std::iter::repeat_n(s, copies));
        }
        roundtrip(&symbols);
    }

    /// The reference the table-driven decoder is held to: every symbol
    /// through the bit-by-bit canonical walk, no table and no peek.
    fn decode_bitwise(
        scratch: &mut CodecScratch,
        bytes: &[u8],
        out: &mut Vec<u32>,
    ) -> Result<usize, CodecError> {
        decode_section(scratch, bytes, out, |s, canon, payload, out| {
            let mut reader = BitReader::new(payload);
            for slot in out {
                *slot = canon.walk(&mut reader, &s.dec_syms)?;
            }
            Ok(reader.position())
        })
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

    /// Whether `symbols` code some symbols past their section's pair table.
    fn longer_than_the_table(scratch: &mut CodecScratch, symbols: &[u32]) -> bool {
        let max_len = max_code_len(scratch, symbols);
        max_len > table_bits(symbols.len() as u64, max_len)
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
        // radius, most of them past the pair table.
        let mut state = 7u64;
        for distinct in [4_000u32, 19_000] {
            let symbols: Vec<u32> = (0..60_000)
                .map(|_| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let (a, b) = ((state >> 33) as u32 % distinct, (state >> 13) as u32 % distinct);
                    (1 << 30) + a.min(b)
                })
                .collect();
            assert!(longer_than_the_table(&mut scratch, &symbols));
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
        assert!(longer_than_the_table(&mut scratch, &symbols));
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
        let max_len = max_code_len(&mut scratch, &body);
        let width = table_bits(body.len() as u64 + 8, max_len) as usize;
        let max_len = max_len as usize;
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
                let len_of = |sym: u32| {
                    let k = scratch.alphabet.iter().position(|&(s, _)| s == sym).expect("coded");
                    scratch.lens[k] as usize
                };
                let len = len_of(last);
                let payload_bits: usize = symbols.iter().map(|&s| len_of(s)).sum();
                let zero_fill = payload_bits.next_multiple_of(8) - payload_bits;
                short_tails += usize::from(len > width && len + zero_fill < max_len);
            }
        }
        assert!(short_tails > 0);
    }

    /// A seeded generator for the tests below.
    struct Lcg(u64);

    impl Lcg {
        fn below(&mut self, bound: u64) -> u64 {
            self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (self.0 >> 16) % bound
        }
    }

    /// `n >= 2` code lengths of at most `max_len` bits that fill the code
    /// space (a Kraft sum of exactly 1), shuffled: a leaf is split until
    /// there are `n` — the deepest until one is `max_len` bits deep (if `n`
    /// allows), then one at a random depth.
    fn complete_lengths(n: usize, max_len: u32, rng: &mut Lcg) -> Vec<u32> {
        let mut leaves = vec![0u64; max_len as usize + 1];
        leaves[1] = 2;
        for _ in 2..n {
            let splittable: Vec<usize> = (1..max_len as usize).filter(|&d| leaves[d] > 0).collect();
            let depth = if leaves[max_len as usize] == 0 {
                *splittable.last().expect("n < 2^max_len")
            } else {
                splittable[rng.below(splittable.len() as u64) as usize]
            };
            leaves[depth] -= 1;
            leaves[depth + 1] += 2;
        }
        let mut lens: Vec<u32> = (1..=max_len)
            .flat_map(|d| std::iter::repeat_n(d, leaves[d as usize] as usize))
            .collect();
        for i in (1..lens.len()).rev() {
            lens.swap(i, rng.below(i as u64 + 1) as usize);
        }
        lens
    }

    /// The stream of `symbols` under the code lengths `lens` of their
    /// distinct symbols, ascending (a prefix code, which need not be the
    /// Huffman code of their counts): the encoder's header and payload.
    fn encode_with_lengths(scratch: &mut CodecScratch, symbols: &[u32], lens: &[u32]) -> Vec<u8> {
        let mut out = Vec::new();
        write_varint(&mut out, symbols.len() as u64);
        let mode = build_alphabet(scratch, symbols);
        assert_eq!(scratch.alphabet.len(), lens.len(), "one length per distinct symbol");
        scratch.lens.clear();
        scratch.lens.extend_from_slice(lens);
        write_codes(scratch, mode, symbols, &mut out);
        out
    }

    /// Every one of the `lens.len()` symbols `value(k)` once, then `extra`
    /// more: half drawn as a stream of the code would draw them (symbol `k`
    /// with probability `2^-lens[k]`, mostly short codes), half uniformly
    /// (mostly long ones); shuffled.
    fn symbols_for(
        lens: &[u32],
        extra: usize,
        value: impl Fn(usize) -> u32,
        rng: &mut Lcg,
    ) -> Vec<u32> {
        let mut cumulative = Vec::with_capacity(lens.len());
        let mut total = 0.0;
        for &len in lens {
            total += (-f64::from(len)).exp2();
            cumulative.push(total);
        }
        let mut symbols: Vec<u32> = (0..lens.len()).map(&value).collect();
        for i in 0..extra {
            let k = if i % 2 == 0 {
                let at = rng.below(1 << 53) as f64 / (1u64 << 53) as f64 * total;
                cumulative.partition_point(|&c| c <= at).min(lens.len() - 1)
            } else {
                rng.below(lens.len() as u64) as usize
            };
            symbols.push(value(k));
        }
        for i in (1..symbols.len()).rev() {
            symbols.swap(i, rng.below(i as u64 + 1) as usize);
        }
        symbols
    }

    #[test]
    fn bulk_decode_equals_the_bitwise_walk_up_to_65_536_symbols_and_48_bit_codes() {
        let mut rng = Lcg(0x5EED);
        let mut scratch = CodecScratch::new();
        let mut past_table = 0;
        for (n, max_len, extra) in [
            (2, 1, 100),
            (3, 2, 1000),
            (49, 48, 3000),
            (300, 48, 5000),
            (4096, 30, 20_000),
            (20_000, 24, 60_000),
            (65_536, 16, 70_000),
            (65_536, 40, 150_000),
        ] {
            let lens = complete_lengths(n, max_len, &mut rng);
            assert_eq!(lens.iter().max(), Some(&max_len), "n={n}");
            // Dense symbols, and MGARD's shape: an escape 0 beside codes
            // around 2^30 (the sparse tables).
            let values: [&dyn Fn(usize) -> u32; 2] =
                [&|k| k as u32, &|k| if k == 0 { 0 } else { (1 << 30) + k as u32 }];
            for value in values {
                let symbols = symbols_for(&lens, extra, value, &mut rng);
                let encoded = encode_with_lengths(&mut scratch, &symbols, &lens);
                let mut decoded = Vec::new();
                assert_eq!(
                    huffman_decode_with(&mut scratch, &encoded, &mut decoded),
                    Ok(encoded.len())
                );
                assert!(decoded == symbols, "n={n} max_len={max_len}");
                assert_eq!(assert_decoders_agree(&mut scratch, &encoded), Ok(encoded.len()));
                past_table += usize::from(max_len > table_bits(symbols.len() as u64, max_len));
            }
        }
        assert!(past_table >= 10, "most sections hold codes past their table");
    }

    #[test]
    fn every_cut_and_flipped_bit_of_a_multi_window_section_decodes_alike() {
        // 120 codes of 1 to 20 bits in a payload of several 8-byte windows,
        // some codes past the table.
        let mut rng = Lcg(11);
        let lens = complete_lengths(120, 20, &mut rng);
        let symbols = symbols_for(&lens, 500, |k| 3 * k as u32, &mut rng);
        let mut scratch = CodecScratch::new();
        let encoded = encode_with_lengths(&mut scratch, &symbols, &lens);
        assert_eq!(huffman_decode(&encoded), Ok((symbols, encoded.len())));
        let payload_bytes = encoded.len() - 2 * 120;
        assert!(payload_bytes > 8 * 20, "{payload_bytes} bytes");
        for cut in 0..encoded.len() {
            assert!(assert_decoders_agree(&mut scratch, &encoded[..cut]).is_err(), "cut {cut}");
        }
        let (mut bad, mut decoded) = (encoded, 0);
        for bit in 0..8 * bad.len() {
            bad[bit / 8] ^= 1 << (bit % 8);
            decoded += usize::from(assert_decoders_agree(&mut scratch, &bad).is_ok());
            bad[bit / 8] ^= 1 << (bit % 8);
        }
        assert!(decoded > 0, "some flips decode to other symbols");
    }

    #[test]
    fn a_last_code_ending_one_bit_before_at_or_after_a_window_edge_decodes() {
        // Codes of 1 to 12 bits, symbol 0's of one. After the body, symbol
        // 0 fills the payload up to `end - len(last)`, so `last` ends at
        // `edge - 1`, `edge` or `edge + 1` for five 8-byte window edges.
        let mut rng = Lcg(3);
        let mut lens = vec![1];
        lens.extend(complete_lengths(39, 11, &mut rng).iter().map(|len| len + 1));
        let one_bit = 0;
        let body = symbols_for(&lens, 60, |k| k as u32, &mut rng);
        let body_bits: u32 = body.iter().map(|&s| lens[s as usize]).sum();
        let mut scratch = CodecScratch::new();
        let mut cases = 0;
        for edge in (1..=5).map(|w| 64 * w + body_bits.next_multiple_of(64)) {
            for end in [edge - 1, edge, edge + 1] {
                for (last, &len) in lens.iter().enumerate() {
                    let mut symbols = body.clone();
                    symbols.extend(std::iter::repeat_n(
                        one_bit as u32,
                        (end - len - body_bits) as usize,
                    ));
                    symbols.push(last as u32);
                    let encoded = encode_with_lengths(&mut scratch, &symbols, &lens);
                    assert_eq!(
                        read_varint(&encoded[encoded.len() - end.div_ceil(8) as usize - 2..])
                            .map(|v| v.0),
                        Ok(u64::from(end))
                    );
                    assert_eq!(assert_decoders_agree(&mut scratch, &encoded), Ok(encoded.len()));
                    assert_eq!(huffman_decode(&encoded), Ok((symbols, encoded.len())));
                    cases += 1;
                }
            }
        }
        assert_eq!(cases, 5 * 3 * 40);
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

    /// A node of the heap construction the two queues replaced: ordered
    /// (reversed, for a min-heap) on `(weight, order)`, `order` being the
    /// smallest symbol below the node.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct HeapNode {
        weight: u64,
        order: u32,
        id: u32,
    }

    impl Ord for HeapNode {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            other.weight.cmp(&self.weight).then(other.order.cmp(&self.order))
        }
    }

    impl PartialOrd for HeapNode {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    /// The oracle [`build_code_lengths`] is held to: the code lengths of
    /// `(symbol, count)` pairs (symbols ascending) from a binary heap that
    /// merges its two lightest nodes until one is left.
    fn heap_code_lengths(alphabet: &[(u32, u64)]) -> Vec<u32> {
        use std::collections::BinaryHeap;
        let n = alphabet.len();
        if n == 1 {
            return vec![1];
        }
        let mut heap: BinaryHeap<HeapNode> = alphabet
            .iter()
            .enumerate()
            .map(|(id, &(order, weight))| HeapNode { weight, order, id: id as u32 })
            .collect();
        let mut children = Vec::new();
        while heap.len() > 1 {
            let (a, b) = (heap.pop().expect("two nodes"), heap.pop().expect("two nodes"));
            let id = (n + children.len()) as u32;
            children.push((a.id, b.id));
            heap.push(HeapNode { weight: a.weight + b.weight, order: a.order.min(b.order), id });
        }
        let mut lens = vec![0; n];
        let mut stack = vec![(heap.pop().expect("the root").id, 0)];
        while let Some((node, depth)) = stack.pop() {
            if (node as usize) < n {
                lens[node as usize] = depth;
            } else {
                let (a, b) = children[node as usize - n];
                stack.extend([(a, depth + 1), (b, depth + 1)]);
            }
        }
        lens
    }

    #[test]
    fn heap_oracle_pops_the_lightest_then_the_smallest_order() {
        let mut h = std::collections::BinaryHeap::new();
        h.push(HeapNode { weight: 5, order: 1, id: 0 });
        h.push(HeapNode { weight: 2, order: 9, id: 1 });
        h.push(HeapNode { weight: 2, order: 3, id: 2 });
        let ids: Vec<u32> = std::iter::from_fn(|| h.pop().map(|node| node.id)).collect();
        assert_eq!(ids, [2, 1, 0]);
    }

    #[test]
    fn two_queue_code_lengths_equal_the_heap_oracle() {
        // Symbols spread with gaps, so a symbol is not its leaf index.
        let mut scratch = CodecScratch::new();
        let mut check = |counts: &[u64], what: &str| {
            scratch.alphabet.clear();
            scratch.alphabet.extend(counts.iter().enumerate().map(|(k, &c)| (3 * k as u32 + 7, c)));
            build_code_lengths(&mut scratch);
            assert!(
                scratch.lens == heap_code_lengths(&scratch.alphabet),
                "{what}, n={}",
                counts.len()
            );
        };
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut random = |bound: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            1 + (state >> 33) % bound
        };
        for n in [2usize, 3, 4, 5, 7, 8, 13, 64, 100, 255, 1000, 4097, 20_000] {
            check(&vec![1; n], "equal counts");
            check(&vec![1000; n], "equal large counts");
            let powers: Vec<u64> = (0..n).map(|k| 1 << (k % 40)).collect();
            check(&powers, "powers of two");
            check(&powers.iter().rev().copied().collect::<Vec<_>>(), "powers of two, descending");
            let mut fib = vec![1u64, 1];
            while fib.len() < n.min(60) {
                fib.push(fib[fib.len() - 1] + fib[fib.len() - 2]);
            }
            let fib: Vec<u64> = (0..n).map(|k| fib[k % fib.len()]).collect();
            check(&fib, "Fibonacci counts");
            for bound in [2, 5, 100, 1 << 20] {
                let counts: Vec<u64> = (0..n).map(|_| random(bound)).collect();
                check(&counts, "random counts");
            }
        }
    }

    /// A Huffman stream of `n_symbols` symbols whose header lists `entries`
    /// as written, then `payload` (`payload_bits` of it).
    fn forged(
        n_symbols: u64,
        entries: &[(u64, u64)],
        payload_bits: u64,
        payload: &[u8],
    ) -> Vec<u8> {
        let mut bytes = Vec::new();
        write_varint(&mut bytes, n_symbols);
        write_varint(&mut bytes, entries.len() as u64);
        for &(sym, len) in entries {
            write_varint(&mut bytes, sym);
            write_varint(&mut bytes, len);
        }
        write_varint(&mut bytes, payload_bits);
        bytes.extend_from_slice(payload);
        bytes
    }

    #[test]
    fn header_symbols_that_do_not_strictly_ascend_are_refused() {
        // The encoder's stream of 1 2 3 3 1 1 1: codes 0, 10, 11.
        let symbols = [1, 2, 3, 3, 1, 1, 1];
        let payload = [0b0101_1110, 0];
        let good = forged(7, &[(1, 1), (2, 2), (3, 2)], 10, &payload);
        assert_eq!(good, huffman_encode(&symbols));
        assert_eq!(huffman_decode(&good), Ok((symbols.to_vec(), good.len())));
        // The last symbol repeated: decoded before, every 3 read as a 2.
        let duplicate = forged(7, &[(1, 1), (2, 2), (2, 2)], 10, &payload);
        // A descending pair: the canonical order would swap their codes.
        let descending = forged(7, &[(1, 1), (3, 2), (2, 2)], 10, &payload);
        // A symbol past `u32::MAX` would alias a small one.
        let too_wide = forged(7, &[(1, 1), (2, 2), (1 << 32 | 3, 2)], 10, &payload);
        for (what, bad) in
            [("duplicate", duplicate), ("descending", descending), ("wide", too_wide)]
        {
            let mut scratch = CodecScratch::new();
            let got = assert_decoders_agree(&mut scratch, &bad);
            assert!(matches!(got, Err(CodecError::Corrupt(_))), "{what}: {got:?}");
        }
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
