//! Greedy hash-chain LZ77 with a byte-oriented token format.
//!
//! This plays the role Zstd plays behind SZ/MGARD: it removes repeated byte
//! patterns left over after entropy coding of quantization codes (long runs
//! of identical codes turn into highly repetitive Huffman output only when
//! codes straddle byte boundaries irregularly, and exact-stored IEEE doubles
//! often share exponent/sign bytes).
//!
//! Token stream format (after a varint original length):
//! * literal run: `0x00, varint len, len raw bytes`
//! * match: `0x01, varint distance, varint length`
//!
//! Greedy matching with a 3-byte hash head + chained previous positions,
//! bounded chain walk. Window size 64 KiB, minimum match length 4.
//!
//! The token format is the contract; what the encoder does with it is
//! policy, and only the format is pinned (decode fixtures in
//! `crates/lossless/tests/bit_identity.rs`). The policy, like the Zstd-class
//! stage it stands in for, does not fight input it cannot shrink:
//!
//! * **miss-skipping** — consecutive search misses widen the stride
//!   (`pos += 1 + (misses >> 6)`, LZ4's skip acceleration, reset by the next
//!   match; skipped positions are neither searched nor inserted into the
//!   chains), so Huffman output without repeats is crossed in O(√n) searches
//!   and ships as literal runs,
//! * **literal-run fallback** — a stream never outgrows the length varint
//!   plus one literal run of the whole input; when the tokens do, that run
//!   is what ships.
//!
//! The matcher state lives in a caller-owned [`CodecScratch`] when driven
//! through [`lz77_compress_with`], so repeated compressions reuse one arena:
//! 128 KiB of hash heads and a ring of `WINDOW` chain links (256 KiB), at
//! most, whatever the input's length. Position `p` links through slot
//! `p & (WINDOW − 1)`, so a slot is overwritten only once its position is
//! more than `WINDOW` behind every later search, which is where the chain
//! walk stops anyway. Match candidates are compared eight bytes at a time
//! at every SIMD tier (a 32-byte AVX2 compare moved no `sz` or `mgard`
//! encode beyond its run-to-run noise).

use crate::scratch::{CodecScratch, CHAIN_NIL};
use crate::{read_varint, write_varint, CodecError};

const WINDOW: usize = 1 << 16;
const MIN_MATCH: usize = 4;
const MAX_MATCH: usize = 1 << 12;
const MAX_CHAIN: usize = 64;
const HASH_BITS: u32 = 15;

#[inline]
fn hash3(bytes: &[u8]) -> usize {
    let h = (u32::from(bytes[0]) << 16) | (u32::from(bytes[1]) << 8) | u32::from(bytes[2]);
    ((h.wrapping_mul(2654435761)) >> (32 - HASH_BITS)) as usize
}

/// Length of the longest common prefix of `a[a_at..]` and `a[b_at..]`
/// (with `b_at > a_at`), capped at `max_len`. Compares whole 8-byte words
/// first, then the remaining tail bytes.
// Inlined into the chain walk. Against `#[inline(never)]`, six alternating
// process pairs (best of 15 encodes per field over eight 512² fields like
// `benchmarks/e2e`'s pool, `Absolute(1e-3)`, one thread of a 2-vCPU AVX2
// Xeon) read `sz` 30.2–49.8 ms inlined vs 30.3–48.5 out of line (median
// pair −0.6 %, 4 of 6 faster) and `mgard` 39.7–63.4 vs 41.4–65.3 (median
// pair −2.9 %, 5 of 6 faster).
#[inline]
fn match_length(bytes: &[u8], a_at: usize, b_at: usize, max_len: usize) -> usize {
    let mut len = 0usize;
    while len + 8 <= max_len {
        let a = u64::from_le_bytes(bytes[a_at + len..a_at + len + 8].try_into().expect("8 bytes"));
        let b = u64::from_le_bytes(bytes[b_at + len..b_at + len + 8].try_into().expect("8 bytes"));
        let diff = a ^ b;
        if diff != 0 {
            return len + (diff.trailing_zeros() / 8) as usize;
        }
        len += 8;
    }
    while len < max_len && bytes[a_at + len] == bytes[b_at + len] {
        len += 1;
    }
    len
}

/// Compress `input` with greedy LZ77. The output always starts with a varint
/// holding the original length, and is at most that varint plus one literal
/// run of the whole input (`0x00, varint len, len bytes`).
///
/// # Panics
/// Panics if `input` is 4 GiB or larger: chain positions are stored as
/// `u32` (halving the matcher's memory traffic), so the single-stream size
/// is capped at `u32::MAX - 1` bytes — three orders of magnitude above the
/// paper-scale payloads this crate compresses.
pub fn lz77_compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    lz77_compress_with(&mut CodecScratch::new(), input, &mut out);
    out
}

/// [`lz77_compress`] appending to a caller-owned buffer, reusing the hash
/// chains in `scratch`. The emitted bytes are identical to
/// [`lz77_compress`]'s.
///
/// # Panics
/// Panics on inputs of 4 GiB or more (see [`lz77_compress`]).
pub fn lz77_compress_with(scratch: &mut CodecScratch, input: &[u8], out: &mut Vec<u8>) {
    compress_chained(scratch, input, out, WINDOW);
}

/// The encoder over a ring of `ring` chain links (a power of two; `WINDOW`
/// but in the full-length oracle of the tests).
fn compress_chained(scratch: &mut CodecScratch, input: &[u8], out: &mut Vec<u8>, ring: usize) {
    out.reserve(input.len() / 2 + 16);
    let start = out.len();
    write_varint(out, input.len() as u64);
    let header = out.len() - start;
    if input.is_empty() {
        return;
    }
    assert!(input.len() < CHAIN_NIL as usize, "input too large for u32 chain positions");

    // Reusable matcher state: heads are reset each call (the chains only
    // ever reference positions inserted during this call, so `prev` needs
    // sizing but no clearing — entries are written before they are read).
    if scratch.head.len() < (1 << HASH_BITS) {
        scratch.head.resize(1 << HASH_BITS, CHAIN_NIL);
    } else {
        scratch.head.fill(CHAIN_NIL);
    }
    debug_assert!(ring.is_power_of_two());
    let mask = ring - 1;
    if scratch.prev.len() < input.len().min(ring) {
        scratch.prev.resize(input.len().min(ring), CHAIN_NIL);
    }
    let head = &mut scratch.head;
    let prev = &mut scratch.prev;

    let mut literals_start = 0usize;
    let mut pos = 0usize;
    // Searches since the last match (miss-skipping, see the module docs).
    let mut misses = 0usize;

    let flush_literals = |out: &mut Vec<u8>, from: usize, to: usize, input: &[u8]| {
        if to > from {
            out.push(0x00);
            write_varint(out, (to - from) as u64);
            out.extend_from_slice(&input[from..to]);
        }
    };

    while pos < input.len() {
        let mut best_len = 0usize;
        let mut best_dist = 0usize;

        if pos + MIN_MATCH <= input.len() {
            let h = hash3(&input[pos..]);
            let max_len = (input.len() - pos).min(MAX_MATCH);
            let mut candidate = head[h];
            let mut chain = 0usize;
            while candidate != CHAIN_NIL && chain < MAX_CHAIN {
                let candidate_pos = candidate as usize;
                if pos - candidate_pos > WINDOW {
                    break;
                }
                if best_len >= max_len {
                    // No remaining candidate can strictly beat the current
                    // best (matches are capped at max_len), so the walk can
                    // stop — it has no side effects. Subsumes the historical
                    // `len >= MAX_MATCH` break.
                    break;
                }
                // Probe the byte a longer match would have to share before
                // paying for a full comparison: if it differs, the common
                // prefix is ≤ best_len and the candidate cannot win. The
                // greedy outcome is unchanged.
                if input[candidate_pos + best_len] == input[pos + best_len] {
                    let len = match_length(input, candidate_pos, pos, max_len);
                    if len > best_len {
                        best_len = len;
                        best_dist = pos - candidate_pos;
                    }
                }
                candidate = prev[candidate_pos & mask];
                chain += 1;
            }
            // Insert the current position into the hash chain.
            prev[pos & mask] = head[h];
            head[h] = pos as u32;
        }

        if best_len >= MIN_MATCH {
            flush_literals(out, literals_start, pos, input);
            out.push(0x01);
            write_varint(out, best_dist as u64);
            write_varint(out, best_len as u64);
            // Insert skipped positions into the chains so later matches can
            // reference them (bounded to keep the encoder linear-ish).
            let end = pos + best_len;
            let mut p = pos + 1;
            while p < end && p + MIN_MATCH <= input.len() {
                let h = hash3(&input[p..]);
                prev[p & mask] = head[h];
                head[h] = p as u32;
                p += 1;
            }
            pos = end;
            literals_start = pos;
            misses = 0;
        } else {
            pos += 1 + (misses >> 6);
            misses += 1;
        }
    }
    flush_literals(out, literals_start, input.len(), input);

    // Never expand: when the tokens outgrew one literal run of the whole
    // input (whose length varint is as long as the header's), ship that run.
    if out.len() - start > 2 * header + 1 + input.len() {
        out.truncate(start + header);
        flush_literals(out, 0, input.len(), input);
    }
}

/// Decompress a stream produced by [`lz77_compress`]; bytes after its end
/// are `Corrupt`.
pub fn lz77_decompress(bytes: &[u8]) -> Result<Vec<u8>, CodecError> {
    let mut out = Vec::new();
    lz77_decompress_into(bytes, &mut out)?;
    Ok(out)
}

/// [`lz77_decompress`] into a caller-owned buffer (cleared first), so
/// decode-heavy loops can recycle one output allocation.
pub fn lz77_decompress_into(bytes: &[u8], out: &mut Vec<u8>) -> Result<(), CodecError> {
    out.clear();
    let mut offset = 0usize;
    let (orig_len, used) = read_varint(bytes)?;
    offset += used;
    // Bounded by the compressed size: a match token costs ≥ 3 bytes for
    // ≤ MAX_MATCH output, so a corrupt length can't force an absurd reserve.
    out.reserve((orig_len as usize).min(bytes.len().saturating_mul(MAX_MATCH)));

    while (out.len() as u64) < orig_len {
        if offset >= bytes.len() {
            return Err(CodecError::UnexpectedEof);
        }
        let tag = bytes[offset];
        offset += 1;
        // No token may write past the decoded length the header promised.
        let owed = orig_len - out.len() as u64;
        let token_len = |len: u64| match usize::try_from(len) {
            Ok(len) if len as u64 <= owed => Ok(len),
            _ => Err(CodecError::Corrupt(format!(
                "token length {len} exceeds the {owed} bytes still to decode"
            ))),
        };
        match tag {
            0x00 => {
                let (len, used) = read_varint(&bytes[offset..])?;
                offset += used;
                let len = token_len(len)?;
                if len > bytes.len() - offset {
                    return Err(CodecError::UnexpectedEof);
                }
                out.extend_from_slice(&bytes[offset..offset + len]);
                offset += len;
            }
            0x01 => {
                let (dist, used) = read_varint(&bytes[offset..])?;
                offset += used;
                let (len, used) = read_varint(&bytes[offset..])?;
                offset += used;
                let dist = dist as usize;
                let len = token_len(len)?;
                if dist == 0 || dist > out.len() {
                    return Err(CodecError::Corrupt(format!(
                        "match distance {dist} exceeds output length {}",
                        out.len()
                    )));
                }
                let start = out.len() - dist;
                if dist >= len {
                    // Non-overlapping: one bulk copy.
                    out.extend_from_within(start..start + len);
                } else {
                    // Overlapping copies are legal (classic LZ77 run
                    // extension): the suffix from `start` is periodic with
                    // period `dist`, so each pass doubles the available
                    // pattern.
                    let mut copied = 0usize;
                    while copied < len {
                        let take = (len - copied).min(out.len() - start);
                        out.extend_from_within(start..start + take);
                        copied += take;
                    }
                }
            }
            other => {
                return Err(CodecError::Corrupt(format!("unknown token tag {other:#x}")));
            }
        }
    }
    if offset != bytes.len() {
        return Err(CodecError::Corrupt(format!(
            "{} bytes after the end of the stream",
            bytes.len() - offset
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) -> usize {
        let compressed = lz77_compress(data);
        let back = lz77_decompress(&compressed).unwrap();
        assert_eq!(back, data);
        // The scratch-reusing entry points agree byte for byte, including on
        // a scratch warmed by a different input.
        let mut scratch = CodecScratch::new();
        let mut warm = Vec::new();
        lz77_compress_with(&mut scratch, b"warmup warmup warmup", &mut warm);
        let mut with_out = Vec::new();
        lz77_compress_with(&mut scratch, data, &mut with_out);
        assert_eq!(with_out, compressed);
        let mut into = Vec::new();
        lz77_decompress_into(&compressed, &mut into).unwrap();
        assert_eq!(into, data);
        compressed.len()
    }

    #[test]
    fn empty_and_tiny_inputs() {
        roundtrip(b"");
        roundtrip(b"a");
        roundtrip(b"ab");
        roundtrip(b"abc");
        roundtrip(b"abcd");
    }

    #[test]
    fn long_run_compresses_massively() {
        let data = vec![0u8; 100_000];
        let size = roundtrip(&data);
        assert!(size < 200, "run of zeros compressed to {size} bytes");
    }

    #[test]
    fn repeated_pattern_compresses() {
        let data: Vec<u8> = b"hello world, ".iter().copied().cycle().take(10_000).collect();
        let size = roundtrip(&data);
        assert!(size < 1_000, "repetitive text compressed to {size} bytes");
    }

    #[test]
    fn overlapping_match_is_reproduced() {
        // "ababab..." forces overlapping copies with distance 2.
        let data: Vec<u8> = b"ab".iter().copied().cycle().take(4097).collect();
        roundtrip(&data);
    }

    #[test]
    fn overlapping_matches_at_every_small_distance() {
        // Distances 1..16 with lengths longer than the distance exercise the
        // strided overlap copy in the decoder.
        for dist in 1usize..16 {
            let pattern: Vec<u8> = (0..dist as u8).collect();
            let data: Vec<u8> = pattern.iter().copied().cycle().take(dist * 40 + 3).collect();
            roundtrip(&data);
        }
    }

    fn noise(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state & 0xFF) as u8
            })
            .collect()
    }

    #[test]
    fn incompressible_data_roundtrips() {
        let data = noise(50_000, 0x9E3779B97F4A7C15);
        let size = roundtrip(&data);
        // Length varint + one literal run: 3 + (1 + 3 + 50 000).
        assert!(size <= data.len() + 7, "noise grew to {size} bytes");
    }

    #[test]
    fn sparse_repeats_in_noise_roundtrip() {
        // One 200-byte repeat per 1–8 KiB of noise: the stride is wider than
        // one byte when it reaches a repeat, so matches start mid-repeat and
        // the stride keeps resetting.
        for gap in [1usize << 10, 2 << 10, 4 << 10, 8 << 10] {
            let mut data = noise(gap, gap as u64);
            let repeat = data[17..217].to_vec();
            for k in 0..12 {
                data.extend_from_slice(&noise(gap, (gap + k) as u64 * 0x9E37));
                data.extend_from_slice(&repeat);
            }
            let size = roundtrip(&data);
            assert!(size < data.len(), "gap {gap}: {size} vs {}", data.len());
        }
    }

    #[test]
    fn stride_resets_on_a_match_so_a_repetitive_tail_still_compresses() {
        let tail: Vec<u8> = b"hello world, ".iter().copied().cycle().take(10_000).collect();
        let tail_alone = roundtrip(&tail);
        let mut data = noise(40_000, 0xD1B54A32D192ED03);
        let head_alone = roundtrip(&data);
        data.extend_from_slice(&tail);
        let size = roundtrip(&data);
        // The wide stride needs a few hundred bytes of the tail to land on a
        // repeat; from there on the tail costs what it costs alone.
        assert!(
            size < head_alone + tail_alone + 1024,
            "{size} vs noise {head_alone} + tail {tail_alone}"
        );
    }

    #[test]
    fn structured_float_bytes_compress() {
        // Little-endian doubles from a piecewise-constant field repeat whole
        // 8-byte words, which LZ77 folds into matches.
        let mut data = Vec::new();
        for i in 0..8192 {
            let v = (i / 16) as f64 * 0.125 + 1.0;
            data.extend_from_slice(&v.to_le_bytes());
        }
        let size = roundtrip(&data);
        assert!(size < data.len() / 4, "piecewise-constant doubles: {size} vs {}", data.len());
    }

    #[test]
    fn match_length_word_and_tail_paths_agree() {
        let mut data: Vec<u8> = b"abcdefgh_abcdefgh_abcdefgX".to_vec();
        data.extend_from_slice(b"abcdefgh_abcdefgh_abcdefgh_tail");
        for (a, b, cap) in [(0usize, 9usize, 17usize), (0, 26, 31), (9, 26, 20), (0, 0, 5)] {
            let reference =
                data[a..].iter().zip(&data[b..]).take(cap).take_while(|(x, y)| x == y).count();
            assert_eq!(match_length(&data, a, b, cap), reference, "a={a} b={b} cap={cap}");
        }
    }

    /// The encoder with a chain link per input position, as it was before
    /// the links became a ring: the oracle the ring must match byte for byte.
    fn full_chain_oracle(input: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        let links = input.len().next_power_of_two();
        compress_chained(&mut CodecScratch::new(), input, &mut out, links);
        out
    }

    fn assert_ring_matches_oracle(scratch: &mut CodecScratch, input: &[u8], what: &str) {
        let mut ring = Vec::new();
        lz77_compress_with(scratch, input, &mut ring);
        assert!(ring == full_chain_oracle(input), "{what}: ring and full-chain streams differ");
        assert!(lz77_decompress(&ring).unwrap() == input, "{what}: round trip");
    }

    #[test]
    fn the_link_ring_emits_the_full_chain_stream_at_every_window_distance() {
        // 64-symbol noise (about two positions per hash bucket per window,
        // so chains reach back a whole window) copied from `distance` bytes
        // back, one byte in 251 left alone so that matches end and chains
        // are walked again all along the input.
        let mut scratch = CodecScratch::new();
        for len in [WINDOW, WINDOW + WINDOW / 2, 4 * WINDOW, 16 * WINDOW] {
            for distance in [WINDOW - 1, WINDOW, WINDOW + 1, 2 * WINDOW] {
                let mut data: Vec<u8> =
                    noise(len, (len + distance) as u64).iter().map(|b| b & 63).collect();
                for i in (distance..len).filter(|i| i % 251 != 0) {
                    data[i] = data[i - distance];
                }
                assert_ring_matches_oracle(&mut scratch, &data, &format!("{len} B, {distance}"));
            }
        }
    }

    #[test]
    fn the_link_ring_emits_the_full_chain_stream_on_sz_and_mgard_payloads() {
        use lcc_pressio::{codes, Compressor, ErrorBound, ScratchArena};
        let (mut scratch, mut arena, mut payload) =
            (CodecScratch::new(), ScratchArena::new(), Vec::new());
        let codecs: [(&dyn Compressor, &codes::Format); 2] = [
            (&lcc_sz::SzCompressor::default(), &lcc_sz::FORMAT),
            (&lcc_mgard::MgardCompressor::default(), &lcc_mgard::FORMAT),
        ];
        for range in [2.0, 12.0] {
            let config = lcc_synth::GaussianFieldConfig::new(512, 512, range, 2021);
            let field = lcc_synth::generate_single_range(&config);
            for (codec, format) in codecs {
                for eb in [1e-3, 1e-5] {
                    let what = format!("{} a={range} eb={eb}", codec.name());
                    let stream = codec
                        .compress_view_with(&field.view(), ErrorBound::Absolute(eb), &mut arena)
                        .unwrap();
                    codes::open(format, &stream, &mut payload).unwrap();
                    assert!(payload.len() > 2 * WINDOW, "{what}: {} B payload", payload.len());
                    assert_ring_matches_oracle(&mut scratch, &payload, &what);
                    assert!(lz77_compress(&payload) == stream, "{what}: not the codec's stream");
                }
            }
        }
    }

    #[test]
    fn corrupt_streams_are_rejected() {
        let compressed =
            lz77_compress(b"some reasonably long input to compress, repeated, repeated");
        // Truncation.
        assert!(lz77_decompress(&compressed[..compressed.len() - 3]).is_err());
        // Bad tag.
        let mut bad = compressed.clone();
        // Find the first token tag (right after the length varint) and clobber it.
        let (_, used) = read_varint(&bad).unwrap();
        bad[used] = 0x7F;
        assert!(lz77_decompress(&bad).is_err());
        // Empty stream.
        assert!(lz77_decompress(&[]).is_err());
    }

    #[test]
    fn match_distance_validation() {
        // Hand-craft a stream with an impossible back-reference.
        let mut bad = Vec::new();
        write_varint(&mut bad, 10);
        bad.push(0x01); // match
        write_varint(&mut bad, 5); // distance 5 with empty output
        write_varint(&mut bad, 5);
        assert!(matches!(lz77_decompress(&bad), Err(CodecError::Corrupt(_))));
    }

    #[test]
    fn a_literal_longer_than_the_stream_can_hold_is_refused() {
        // One byte owed, then a literal claiming u64::MAX bytes, whose end
        // `offset + len` overflows unless the length is checked first.
        let mut bad = vec![0x01, 0x00];
        write_varint(&mut bad, u64::MAX);
        assert_eq!(bad.len(), 12);
        let want = format!("token length {} exceeds the 1 bytes still to decode", u64::MAX);
        assert_eq!(lz77_decompress(&bad), Err(CodecError::Corrupt(want)));
    }

    #[test]
    fn a_match_longer_than_the_decoded_length_is_refused_before_it_copies() {
        // Two bytes owed: a one-byte literal, then a match of 2^28 bytes at
        // distance 1, which reserves 512 MiB if it is copied before its
        // length is checked.
        let mut bad = vec![0x02, 0x00, 0x01, b'a', 0x01, 0x01];
        write_varint(&mut bad, 1 << 28);
        assert_eq!(bad.len(), 11);
        let mut out = Vec::new();
        let want = "token length 268435456 exceeds the 1 bytes still to decode";
        assert_eq!(lz77_decompress_into(&bad, &mut out), Err(CodecError::Corrupt(want.into())));
        assert!(out.capacity() <= 64, "{} bytes reserved", out.capacity());

        // The longest match that fits is still a match.
        let mut good = vec![0x03, 0x00, 0x01, b'a', 0x01, 0x01, 0x02];
        assert_eq!(lz77_decompress(&good).unwrap(), b"aaa");
        good[6] = 0x03;
        assert!(lz77_decompress(&good).is_err());
    }
}
