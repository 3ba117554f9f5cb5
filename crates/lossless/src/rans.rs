//! 8-way interleaved byte-oriented rANS coding over `u32` symbols.
//!
//! The fast-path entropy backend of the codec ablation: where the Huffman
//! coder spends whole bits per symbol and needs a code tree, rANS codes at
//! fractional-bit granularity from a flat frequency table and renormalizes
//! byte-at-a-time, so encode and decode are short branch-light integer
//! pipelines. The layout follows the well-known public-domain byte-wise
//! rANS construction:
//!
//! * **32-bit states** kept in the renormalization interval
//!   `[2^23, 2^31)`, emitting/consuming one byte at a time,
//! * **12-bit normalized frequency tables** (`SCALE = 4096`): per-symbol
//!   frequencies are scaled to sum exactly to `SCALE`, so the decoder's
//!   cumulative-table lookup is a single 4096-entry LUT load,
//! * **interleaving**: symbol index `i` threads state `i mod 8`, giving
//!   the CPU eight independent dependency chains to overlap (the encoder
//!   walks the input in reverse — rANS is LIFO),
//! * **division-free encoding** via precomputed reciprocals
//!   (`q = (x·rcp) >> shift` replaces `x / freq` in the hot loop).
//!
//! Every state has its **own lane buffer**, stitched with a lane-length
//! header: each lane carries its seed state and exactly the renorm bytes
//! that lane consumes, so the decoder holds eight independent byte cursors
//! and all eight chains retire in parallel (and the AVX2 tier can refill
//! lanes independently).
//!
//! Alphabets with more than `SCALE` distinct symbols cannot be normalized
//! into a 12-bit table; those streams fall back to an embedded canonical
//! Huffman section behind the mode byte (the analogue of FSE's raw/RLE
//! escape modes). Quantization-code streams sit far below the limit in
//! practice.
//!
//! All working memory lives in a caller-owned [`RansScratch`] — the
//! frequency/cumulative tables, the normalization workspace, and the
//! presized lane buffers are reused, never shrunk, between calls, so the
//! `*_with` entry points are allocation-free in steady state exactly like
//! their Huffman counterparts.
//!
//! ## Stream layout
//!
//! ```text
//! u8 mode                     1 = embedded Huffman fallback, 3 = 8-way
//!                             rANS with a run-coded frequency table (the
//!                             only rANS mode the encoder writes), 2 = 8-way
//!                             rANS with a pair table (decode-only: what
//!                             the encoder wrote before mode 3); 0 is
//!                             reserved (the retired 2-way format) and
//!                             rejected like any unknown mode
//! mode 1:
//!   a self-describing `huffman_encode` stream
//! modes 2 and 3:
//!   varint n_symbols          nothing follows when n_symbols == 0
//!   frequency table           mode 3, one entry per maximal run of
//!                             consecutive symbols, ascending:
//!     varint n_runs − 1
//!     per run:
//!       varint gap            the first run's first symbol; afterwards
//!                             `first − previous run's last − 2` (adjacent
//!                             runs cannot be written: runs are maximal)
//!       varint len − 1
//!       varint (freq − 1) × len
//!                             mode 2 (decode-only), absolute pairs:
//!     varint alphabet_size    1..=4096
//!     (varint symbol, varint freq) × alphabet_size
//!   varint payload_len
//!   varint lane_len × 8       lane lengths; they sum to payload_len
//!   payload                   8 concatenated lanes, each a u32-LE seed
//!                             state followed by that lane's renorm bytes
//!                             in decode order (lane k decodes symbols
//!                             k, k+8, k+16, …)
//! ```
//!
//! The normalised frequencies — and so everything from `payload_len` on —
//! are the same in both table forms; quantisation codes sit next to each
//! other around the zero-residual code, so a run costs about one byte a
//! symbol where a pair cost four.
//!
//! Either table is validated as it is read, straight into the decoder's
//! fixed 4096-slot LUT: every symbol within `u32`, every frequency in
//! `1..=4096`, the running sum refused the moment it passes 4096 and
//! required to equal it at the end (which bounds the alphabet, and mode 3's
//! `Σ len`, by 4096 whatever the counts claim), a varint that overflows
//! `u64` refused. Nothing is sized by a count read from the stream.

use crate::dispatch::{simd_level, SimdLevel};
use crate::scratch::{build_alphabet_into, CodecScratch, SymbolMap, TableMode};
use crate::{huffman_decode_with, huffman_encode_with, read_varint, write_varint, CodecError};

/// Log2 of the normalized frequency scale (12-bit tables).
pub const SCALE_BITS: u32 = 12;
/// Normalized frequencies sum to this value.
const SCALE: u32 = 1 << SCALE_BITS;
/// Lower bound of the state renormalization interval `[L, L·256)`.
const RANS_L: u32 = 1 << 23;
/// Mode byte: embedded Huffman stream (alphabet wider than the 12-bit table).
const MODE_HUFF: u8 = 1;
/// Mode byte: 8-way interleaved rANS payload with per-lane buffers behind a
/// `(symbol, freq)` pair table. Decode-only since [`MODE_RANS8`].
const MODE_RANS8_PAIRS: u8 = 2;
/// Mode byte: the same payload behind a run-coded frequency table.
const MODE_RANS8: u8 = 3;
/// Lane count of the stream format.
const LANES: usize = 8;
/// Decode-side cap on a single-symbol (zero-cost) stream's run length.
/// A one-entry alphabet codes for free, so the count is the only bound on
/// the output — 2^28 symbols (a 16384×16384 constant field) is far beyond
/// any workload here while keeping a forged tiny stream from claiming an
/// effectively unbounded allocation. Multi-symbol streams are instead
/// bounded by what their payload could possibly encode (see
/// `check_symbol_count_plausible`).
const MAX_DEGENERATE_RUN: u64 = 1 << 28;

/// Precomputed per-symbol encoder metadata: renormalization threshold plus
/// the reciprocal that turns the `x / freq` of the state update into a
/// multiply-shift (the standard public-domain trick).
#[derive(Debug, Clone, Copy, Default)]
struct EncSym {
    /// Renormalize (emit a byte) while the state is at or above this.
    x_max: u32,
    /// Fixed-point reciprocal of the frequency.
    rcp_freq: u32,
    /// Additive bias folding the cumulative offset (and the `freq == 1`
    /// correction) into one term.
    bias: u32,
    /// `SCALE - freq`, the multiplier of the reciprocal quotient.
    cmpl_freq: u32,
    /// Right shift applied after the reciprocal multiply.
    rcp_shift: u32,
}

impl EncSym {
    /// Build the encoder entry for a symbol with cumulative start `start`
    /// and normalized frequency `freq` (`1..=SCALE`).
    fn new(start: u32, freq: u32) -> EncSym {
        debug_assert!((1..=SCALE).contains(&freq));
        let x_max = ((RANS_L >> SCALE_BITS) << 8) * freq;
        if freq < 2 {
            // freq == 1: q must equal x exactly. rcp = 2^32 − 1 gives
            // q = x − 1 (for x ≥ 1), compensated by folding SCALE − 1 into
            // the bias: x + start + SCALE − 1 + (x−1)(SCALE−1) = x·SCALE + start.
            EncSym {
                x_max,
                rcp_freq: u32::MAX,
                rcp_shift: 0,
                bias: start + SCALE - 1,
                cmpl_freq: SCALE - 1,
            }
        } else {
            // shift = ceil(log2(freq)); the rounded-up reciprocal makes
            // q = floor(x / freq) exact for all x < 2^31.
            let shift = u32::BITS - (freq - 1).leading_zeros();
            let rcp_freq = (1u64 << (shift + 31)).div_ceil(u64::from(freq)) as u32;
            EncSym { x_max, rcp_freq, rcp_shift: shift - 1, bias: start, cmpl_freq: SCALE - freq }
        }
    }
}

/// Most renorm bytes one symbol can emit: states stay below `2^31` and
/// `x_max ≥ 2^19` (a frequency of 1), so two 8-bit shifts always land under
/// the threshold.
const MAX_RENORM_BYTES: usize = 2;

/// One encoder step: renormalize `x` into range for `sym`, then push the
/// symbol. Renorm bytes go into `lane` back to front — `cursor` is the index
/// of the lane's first live byte — so the finished lane reads in decode
/// order without a reversal. The renorm is branch-free: each of the (at
/// most) two bytes is stored unconditionally just below the cursor, and the
/// comparison result decides whether the cursor and the state move; whether
/// a symbol emits is exactly what the coder randomizes, so a `while`
/// mispredicts on every other symbol. The caller keeps at least one spare
/// byte below the cursor.
#[inline(always)]
fn enc_put(mut x: u32, lane: &mut [u8], cursor: &mut usize, sym: &EncSym) -> u32 {
    for _ in 0..MAX_RENORM_BYTES {
        let emit = x >= sym.x_max;
        lane[*cursor - 1] = x as u8;
        *cursor -= usize::from(emit);
        x >>= 8 * u32::from(emit);
    }
    let q = ((u64::from(x) * u64::from(sym.rcp_freq)) >> 32 >> sym.rcp_shift) as u32;
    x + sym.bias + q * sym.cmpl_freq
}

/// Encode `symbols` onto the eight lanes of `buf` (lane `k` is
/// `buf[k·cap..(k+1)·cap]`, filled from its end): symbol index `i` threads
/// state `i mod 8`, walked in reverse (rANS is LIFO) a whole 8-symbol group
/// at a time so the eight chains overlap. `index_of` maps a symbol to its
/// alphabet index — one instantiation per table mode keeps that choice out
/// of the symbol loop. Returns each lane's start: the flushed `u32`-LE seed
/// state, then the lane's renorm bytes in decode order, up to the lane end.
#[inline(always)]
fn encode_lanes(
    symbols: &[u32],
    enc_syms: &[EncSym],
    buf: &mut [u8],
    cap: usize,
    index_of: impl Fn(u32) -> u32,
) -> [usize; LANES] {
    let mut xs = [RANS_L; LANES];
    let mut cursors: [usize; LANES] = std::array::from_fn(|k| (k + 1) * cap);
    let groups = symbols.chunks_exact(LANES);
    // The ragged tail holds the highest indices, so it goes first.
    for (k, &sym) in groups.remainder().iter().enumerate().rev() {
        xs[k] = enc_put(xs[k], buf, &mut cursors[k], &enc_syms[index_of(sym) as usize]);
    }
    for group in groups.rev() {
        for k in (0..LANES).rev() {
            xs[k] = enc_put(xs[k], buf, &mut cursors[k], &enc_syms[index_of(group[k]) as usize]);
        }
    }
    for k in 0..LANES {
        cursors[k] -= 4;
        buf[cursors[k]..cursors[k] + 4].copy_from_slice(&xs[k].to_le_bytes());
    }
    cursors
}

/// Reusable working memory of the rANS coder: one instance per worker (held
/// inside the compressor scratches in a
/// [`ScratchArena`](https://docs.rs/lcc_pressio)-style bag) turns every
/// per-call table build and emit buffer into a cleared-not-freed reuse.
#[derive(Debug, Default)]
pub struct RansScratch {
    // ---- alphabet discovery (shared machinery with the Huffman coder) ----
    /// Dense counts indexed by `symbol − min_symbol`.
    /// Invariant: all-zero between calls.
    hist: Vec<u64>,
    /// Sparse-path counts indexed by symbol-map slot.
    slot_counts: Vec<u64>,
    /// Sparse-path symbol → slot map.
    sym_map: SymbolMap,
    /// `(symbol, count)` pairs sorted by symbol.
    alphabet: Vec<(u32, u64)>,

    // ---- normalization workspace ----
    /// Normalized frequency per alphabet index (sums to `SCALE`).
    freqs: Vec<u32>,
    /// Index permutation used to shave normalization excess deterministically.
    norm_order: Vec<u32>,

    // ---- encode tables ----
    /// Reciprocal metadata per alphabet index.
    enc_syms: Vec<EncSym>,
    /// Dense `symbol − min_symbol` → alphabet index. Entries are only
    /// meaningful for symbols of the current alphabet (which covers every
    /// input symbol); the used entries are re-zeroed after each encode.
    dense_idx: Vec<u32>,
    /// Sparse symbol-map slot → alphabet index.
    slot_idx: Vec<u32>,
    /// The eight lane buffers, back to back and each sized for the worst
    /// case (see [`lane_capacity`]): every state writes its renorm bytes
    /// into its own lane from the end, so the decode-side refill cursors are
    /// independent. Never shrunk or cleared — bytes below a lane's final
    /// cursor are stale and never reach the stream.
    lane_buf: Vec<u8>,

    // ---- decode table ----
    /// Fused slot → `symbol << 32 | freq << 16 | cum` entries: one 64-bit
    /// load replaces the index → symbol/freq/cum chain of dependent lookups.
    /// Used by every decoder tier (the scalar loop is LUT-bound, so the
    /// fused entry is a win there too). Always `SCALE` long once used; the
    /// table parse fills it directly.
    slot_entry: Vec<u64>,

    // ---- Huffman fallback (alphabets wider than the 12-bit table) ----
    /// Working memory of the embedded Huffman section.
    huff: CodecScratch,
}

impl RansScratch {
    /// Create an empty scratch; buffers grow on first use and are then
    /// recycled across calls.
    pub fn new() -> Self {
        RansScratch::default()
    }
}

/// Encode `symbols` into a self-describing 8-way interleaved rANS stream
/// (fresh scratch): eight states round-robin over the symbols and each
/// state emits into its own lane buffer, so the decoder runs eight
/// independent chains (see the module docs for the lane-length header).
pub fn rans8_encode(symbols: &[u32]) -> Vec<u8> {
    let mut out = Vec::new();
    rans8_encode_with(&mut RansScratch::new(), symbols, &mut out);
    out
}

/// Decode a stream produced by [`rans8_encode`] (fresh scratch). Returns
/// the symbols and the number of bytes consumed.
pub fn rans8_decode(bytes: &[u8]) -> Result<(Vec<u32>, usize), CodecError> {
    let mut out = Vec::new();
    let used = rans8_decode_with(&mut RansScratch::new(), bytes, &mut out)?;
    Ok((out, used))
}

/// [`rans8_decode`] into a caller-owned symbol buffer (cleared first),
/// reusing `scratch` for the frequency tables and the slot LUT. Returns the
/// number of bytes consumed, so callers can embed the stream in a container.
pub fn rans8_decode_with(
    scratch: &mut RansScratch,
    bytes: &[u8],
    out: &mut Vec<u32>,
) -> Result<usize, CodecError> {
    rans8_decode_with_at(scratch, simd_level(), bytes, out)
}

/// Totals below this keep `count << SCALE_BITS` inside a `u64` and the
/// reciprocal estimate of [`scale_count`] within one of the quotient.
const RECIPROCAL_TOTAL_MAX: u64 = 1 << 51;

/// `⌊(count << SCALE_BITS) / total⌋` for `count ≤ total`, given
/// `rcp = ⌊(2^64 − 1) / total⌋`: one division a stream, not one a symbol.
/// `⌊scaled · rcp / 2^64⌋` is the quotient or one less (it never exceeds
/// `scaled / total` and falls short of it by at most
/// `scaled / 2^64 ≤ (total << SCALE_BITS) / 2^64 < 1/2`), and the remainder
/// says which.
#[inline]
fn scale_count(count: u64, total: u64, rcp: u64) -> u32 {
    if total >= RECIPROCAL_TOTAL_MAX {
        return ((u128::from(count) << SCALE_BITS) / u128::from(total)) as u32;
    }
    let scaled = count << SCALE_BITS;
    let q = ((u128::from(scaled) * u128::from(rcp)) >> 64) as u64;
    (q + u64::from(scaled - q * total >= total)) as u32
}

/// Normalize the histogram in `alphabet` to frequencies summing exactly to
/// `SCALE`, every entry at least 1. Deterministic: floor-scaled counts, the
/// deficit granted to the most frequent symbol, any excess shaved from the
/// largest normalized frequencies first (stable on ties).
fn normalize_freqs(alphabet: &[(u32, u64)], freqs: &mut Vec<u32>, order: &mut Vec<u32>) {
    debug_assert!(!alphabet.is_empty() && alphabet.len() <= SCALE as usize);
    let total: u64 = alphabet.iter().map(|&(_, c)| c).sum();
    let rcp = u64::MAX / total;
    freqs.clear();
    let mut sum = 0u32;
    for &(_, count) in alphabet {
        let f = scale_count(count, total, rcp).max(1);
        freqs.push(f);
        sum += f;
    }
    if sum < SCALE {
        let k = alphabet
            .iter()
            .enumerate()
            .max_by_key(|&(k, &(_, count))| (count, std::cmp::Reverse(k)))
            .map(|(k, _)| k)
            .expect("alphabet is non-empty");
        freqs[k] += SCALE - sum;
    } else if sum > SCALE {
        // Shave from the largest frequencies first; total reducible mass is
        // sum − len ≥ sum − SCALE, so one pass always suffices.
        let mut excess = sum - SCALE;
        order.clear();
        order.extend(0..freqs.len() as u32);
        order.sort_by_key(|&k| std::cmp::Reverse(freqs[k as usize]));
        for &k in order.iter() {
            if excess == 0 {
                break;
            }
            let take = excess.min(freqs[k as usize] - 1);
            freqs[k as usize] -= take;
            excess -= take;
        }
        debug_assert_eq!(excess, 0);
    }
}

/// Encode-side table build: alphabet discovery, normalization,
/// reciprocal tables, and the symbol → alphabet-index addressing for the
/// chosen table mode. Returns `None` when the alphabet exceeds the 12-bit
/// table and the caller must take the Huffman fallback; otherwise the table
/// mode and how many of the input's symbols can renormalize by two bytes
/// (what [`lane_capacity`] sizes the lanes from). On `Some`, the caller owns
/// restoring the dense-index invariant via [`clear_dense_idx`].
fn build_encode_tables(scratch: &mut RansScratch, symbols: &[u32]) -> Option<(TableMode, u64)> {
    let mode = build_alphabet_into(
        &mut scratch.hist,
        &mut scratch.sym_map,
        &mut scratch.slot_counts,
        &mut scratch.alphabet,
        symbols,
    );
    if scratch.alphabet.len() > SCALE as usize {
        return None;
    }
    normalize_freqs(&scratch.alphabet, &mut scratch.freqs, &mut scratch.norm_order);

    // Encoder tables: cumulative starts + reciprocals per alphabet index,
    // and the symbol → index addressing for the chosen table mode.
    scratch.enc_syms.clear();
    let mut cum = 0u32;
    let mut two_byte = 0u64;
    for (&f, &(_, count)) in scratch.freqs.iter().zip(&scratch.alphabet) {
        scratch.enc_syms.push(EncSym::new(cum, f));
        cum += f;
        if f < ONE_BYTE_FREQ {
            two_byte += count;
        }
    }
    debug_assert_eq!(cum, SCALE);
    match mode {
        TableMode::Dense { min } => {
            let span = (scratch.alphabet.last().expect("non-empty").0 - min) as usize + 1;
            if scratch.dense_idx.len() < span {
                scratch.dense_idx.resize(span, 0);
            }
            for (k, &(sym, _)) in scratch.alphabet.iter().enumerate() {
                scratch.dense_idx[(sym - min) as usize] = k as u32;
            }
        }
        TableMode::Sparse => {
            scratch.slot_idx.clear();
            scratch.slot_idx.resize(scratch.alphabet.len(), 0);
            for (k, &(sym, _)) in scratch.alphabet.iter().enumerate() {
                let slot = scratch.sym_map.get(sym).expect("alphabet symbol") as usize;
                scratch.slot_idx[slot] = k as u32;
            }
        }
    }
    Some((mode, two_byte))
}

/// Write the run-coded frequency table (see the module docs): the alphabet
/// is ascending, so it splits into maximal runs of consecutive symbols and
/// only a run's first symbol is spelled out, as its distance from the run
/// before.
fn write_freq_table(scratch: &RansScratch, out: &mut Vec<u8>) {
    let alphabet = &scratch.alphabet;
    let starts_run = |k: usize| k == 0 || alphabet[k].0 - alphabet[k - 1].0 > 1;
    let n_runs = (0..alphabet.len()).filter(|&k| starts_run(k)).count();
    write_varint(out, n_runs as u64 - 1);
    let mut k = 0;
    while k < alphabet.len() {
        let len = 1 + (k + 1..alphabet.len()).take_while(|&j| !starts_run(j)).count();
        let first = u64::from(alphabet[k].0);
        write_varint(out, if k == 0 { first } else { first - u64::from(alphabet[k - 1].0) - 2 });
        write_varint(out, len as u64 - 1);
        for &f in &scratch.freqs[k..k + len] {
            write_varint(out, u64::from(f) - 1);
        }
        k += len;
    }
}

/// Restore the all-zero invariant of the dense index table
/// (O(distinct), not O(span)).
fn clear_dense_idx(scratch: &mut RansScratch, mode: TableMode) {
    if let TableMode::Dense { min } = mode {
        for &(sym, _) in &scratch.alphabet {
            scratch.dense_idx[(sym - min) as usize] = 0;
        }
    }
}

/// Frequencies from here up renormalize by at most one byte per symbol:
/// `x_max = 2^19·freq ≥ 2^23`, and one 8-bit shift takes any state below
/// `2^23`.
const ONE_BYTE_FREQ: u32 = 16;

/// Bytes one lane can need: one per symbol of its `⌈n/8⌉` share, a second
/// ([`MAX_RENORM_BYTES`]) for as many of them as the input has occurrences
/// of symbols rarer than [`ONE_BYTE_FREQ`] (`two_byte`) — all of which may
/// ride one lane — the four bytes of the flushed state, and slack so the
/// unconditional renorm stores of [`enc_put`] stay inside the lane even when
/// it is full.
fn lane_capacity(n_symbols: usize, two_byte: u64) -> usize {
    let share = n_symbols.div_ceil(LANES);
    share + share.min(two_byte as usize) + 8
}

/// [`rans8_encode`] into a caller-owned output buffer, reusing `scratch` for
/// every table and the emit buffers. Appends to `out` (callers embed rANS
/// sections inside larger containers).
pub fn rans8_encode_with(scratch: &mut RansScratch, symbols: &[u32], out: &mut Vec<u8>) {
    if symbols.is_empty() {
        out.push(MODE_RANS8);
        write_varint(out, 0);
        return;
    }

    let Some((mode, two_byte)) = build_encode_tables(scratch, symbols) else {
        // Too many distinct symbols for a 12-bit table: embed a canonical
        // Huffman stream instead.
        out.push(MODE_HUFF);
        huffman_encode_with(&mut scratch.huff, symbols, out);
        return;
    };

    out.push(MODE_RANS8);
    write_varint(out, symbols.len() as u64);
    write_freq_table(scratch, out);

    // Eight round-robin states, each writing its **own** lane, so the
    // decoder walks eight independent byte cursors instead of one shared
    // stream.
    let cap = lane_capacity(symbols.len(), two_byte);
    if scratch.lane_buf.len() < LANES * cap {
        scratch.lane_buf.resize(LANES * cap, 0);
    }
    let buf = &mut scratch.lane_buf[..LANES * cap];
    let starts = match mode {
        TableMode::Dense { min } => {
            let dense_idx = &scratch.dense_idx;
            encode_lanes(symbols, &scratch.enc_syms, buf, cap, |sym| {
                dense_idx[(sym - min) as usize]
            })
        }
        TableMode::Sparse => {
            let (sym_map, slot_idx) = (&scratch.sym_map, &scratch.slot_idx);
            encode_lanes(symbols, &scratch.enc_syms, buf, cap, |sym| {
                slot_idx[sym_map.get(sym).expect("alphabet covers input") as usize]
            })
        }
    };
    let lanes: [&[u8]; LANES] = std::array::from_fn(|k| &buf[starts[k]..(k + 1) * cap]);
    write_varint(out, lanes.iter().map(|lane| lane.len() as u64).sum());
    for lane in lanes {
        write_varint(out, lane.len() as u64);
    }
    for lane in lanes {
        out.extend_from_slice(lane);
    }

    clear_dense_idx(scratch, mode);
}

/// The next varint of `bytes` at `*offset`, advancing it. A frequency table
/// is mostly one-byte varints, so that case is spelled out.
#[inline(always)]
fn next_varint(bytes: &[u8], offset: &mut usize) -> Result<u64, CodecError> {
    match bytes.get(*offset) {
        Some(&b) if b < 0x80 => {
            *offset += 1;
            Ok(u64::from(b))
        }
        _ => {
            let (value, used) = read_varint(bytes.get(*offset..).unwrap_or_default())?;
            *offset += used;
            Ok(value)
        }
    }
}

/// What the decoder keeps of a frequency table besides the slot LUT: the
/// running sum while it is read, and the two facts the single-symbol path
/// and [`check_symbol_count_plausible`] ask about.
#[derive(Debug, Clone, Copy, Default)]
struct TableSummary {
    /// Entries admitted so far.
    alphabet: u32,
    /// Sum of the admitted frequencies: the next entry's cumulative start.
    cum: u32,
    /// Symbol of the first entry.
    first_symbol: u32,
    /// Largest admitted frequency; `SCALE` exactly when the table has one entry.
    max_freq: u32,
}

impl TableSummary {
    /// Validate one table entry and account for it; returns its cumulative
    /// start. The sum is refused the moment it passes `SCALE`, so a table
    /// admits at most `SCALE` entries whatever its counts claim.
    #[inline(always)]
    fn admit(&mut self, sym: u64, freq: u64) -> Result<u32, CodecError> {
        if sym > u64::from(u32::MAX) {
            return Err(CodecError::Corrupt(format!("symbol {sym} exceeds the u32 range")));
        }
        if freq == 0 || freq > u64::from(SCALE) {
            return Err(CodecError::Corrupt(format!("invalid rans frequency {freq}")));
        }
        let start = self.cum;
        if start + freq as u32 > SCALE {
            return Err(CodecError::Corrupt(format!(
                "rans frequencies sum past {SCALE} at symbol {sym}"
            )));
        }
        if self.alphabet == 0 {
            self.first_symbol = sym as u32;
        }
        self.alphabet += 1;
        self.cum = start + freq as u32;
        self.max_freq = self.max_freq.max(freq as u32);
        Ok(start)
    }

    /// The exact-sum rule: every 12-bit slot belongs to exactly one entry.
    fn finish(self) -> Result<TableSummary, CodecError> {
        if self.cum != SCALE {
            return Err(CodecError::Corrupt(format!(
                "rans frequencies sum to {}, expected {SCALE}",
                self.cum
            )));
        }
        Ok(self)
    }
}

/// Parse a mode-2 table, `varint alphabet_size (varint symbol, varint
/// freq)*`, handing each validated `(symbol, freq, cumulative start)` to
/// `entry`. Every entry costs at least two stream bytes and the size itself
/// is capped at 4096.
fn parse_pair_table(
    bytes: &[u8],
    offset: &mut usize,
    mut entry: impl FnMut(u32, u32, u32),
) -> Result<TableSummary, CodecError> {
    let alphabet_size = next_varint(bytes, offset)?;
    if alphabet_size == 0 || alphabet_size > u64::from(SCALE) {
        return Err(CodecError::Corrupt(format!(
            "rans alphabet size {alphabet_size} outside 1..={SCALE}"
        )));
    }
    let mut table = TableSummary::default();
    for _ in 0..alphabet_size {
        let sym = next_varint(bytes, offset)?;
        let freq = next_varint(bytes, offset)?;
        let start = table.admit(sym, freq)?;
        entry(sym as u32, freq as u32, start);
    }
    table.finish()
}

/// Parse a mode-3 table — `varint n_runs − 1`, then per run `varint gap`,
/// `varint len − 1` and `len` × `varint freq − 1` — handing each validated
/// `(symbol, freq, cumulative start)` to `entry`. Every symbol costs at
/// least one stream byte, and the run lengths may not sum past 4096.
fn parse_run_table(
    bytes: &[u8],
    offset: &mut usize,
    mut entry: impl FnMut(u32, u32, u32),
) -> Result<TableSummary, CodecError> {
    let more_runs = next_varint(bytes, offset)?;
    if more_runs >= u64::from(SCALE) {
        return Err(CodecError::Corrupt(format!("rans table claims {more_runs} + 1 runs")));
    }
    let mut table = TableSummary::default();
    // Where a gap of 0 puts the next run: two past the previous run's last
    // symbol (at most 2^32 + 1, so only the gap can overflow the sum).
    let mut base = 0u64;
    for _ in 0..=more_runs {
        let gap = next_varint(bytes, offset)?;
        let more = next_varint(bytes, offset)?; // len − 1
        if more >= u64::from(SCALE - table.alphabet) {
            return Err(CodecError::Corrupt(format!(
                "rans table runs cover more than {SCALE} symbols"
            )));
        }
        let first = base.saturating_add(gap);
        let last = first.saturating_add(more);
        if last > u64::from(u32::MAX) {
            return Err(CodecError::Corrupt(format!(
                "symbol run {first}..={last} exceeds the u32 range"
            )));
        }
        for sym in first..=last {
            let freq = next_varint(bytes, offset)?.saturating_add(1);
            let start = table.admit(sym, freq)?;
            entry(sym as u32, freq as u32, start);
        }
        base = last + 2;
    }
    table.finish()
}

/// Cap a claimed multi-symbol count by what the payload could possibly
/// encode: every symbol of a table with `max_freq ≤ SCALE − 1` costs at
/// least ~log2(SCALE / max_freq) bits, so a generous multiple of the
/// payload's bit budget bounds the count — honest streams sit well inside
/// it, while a forged header can no longer turn a few bytes into an absurd
/// allocation or decode loop.
fn check_symbol_count_plausible(
    max_freq: u32,
    payload_len: usize,
    n_symbols: u64,
) -> Result<(), CodecError> {
    let budget_bits = payload_len as u64 * 8 + 64;
    let max_symbols =
        budget_bits.saturating_mul(3 * u64::from(SCALE) / u64::from(SCALE - max_freq));
    if n_symbols > max_symbols {
        return Err(CodecError::Corrupt(format!(
            "implausible symbol count {n_symbols} for a {payload_len}-byte payload"
        )));
    }
    Ok(())
}

/// Everything of a mode-2 / mode-3 stream ahead of its payload.
#[derive(Debug)]
struct Rans8Header {
    n_symbols: u64,
    table: TableSummary,
    /// Bytes the frequency table takes in the stream.
    table_bytes: usize,
    lane_len: [usize; LANES],
    /// Where the payload starts, and its length (all of it present).
    payload_at: usize,
    payload_len: usize,
}

/// Parse the header of a non-empty stream whose mode byte names one of the
/// two rANS table forms (any other is refused here), handing each table
/// entry to `entry` — the one header walk behind [`rans8_decode_with_at`]
/// (whose `entry` fills the slot LUT) and [`rans8_stream_info`] (which only
/// counts). An empty stream is its mode byte and a zero count: the table
/// summary stays empty.
fn parse_rans8_header(
    bytes: &[u8],
    entry: impl FnMut(u32, u32, u32),
) -> Result<Rans8Header, CodecError> {
    let run_coded = match bytes[0] {
        MODE_RANS8 => true,
        MODE_RANS8_PAIRS => false,
        // The reserved mode 0 (the retired 2-way format) lands here too.
        mode => return Err(CodecError::Corrupt(format!("unknown rans8 mode {mode}"))),
    };
    let mut offset = 1usize;
    let n_symbols = next_varint(bytes, &mut offset)?;
    let mut header = Rans8Header {
        n_symbols,
        table: TableSummary::default(),
        table_bytes: 0,
        lane_len: [0; LANES],
        payload_at: offset,
        payload_len: 0,
    };
    if n_symbols == 0 {
        return Ok(header);
    }

    let table_at = offset;
    header.table = if run_coded {
        parse_run_table(bytes, &mut offset, entry)?
    } else {
        parse_pair_table(bytes, &mut offset, entry)?
    };
    header.table_bytes = offset - table_at;

    // Lane-length header: eight varints that must sum to the payload length
    // (a mismatch means a forged or mis-stitched header).
    let payload_len = next_varint(bytes, &mut offset)?;
    let mut lane_sum = 0u64;
    for len in header.lane_len.iter_mut() {
        let l = next_varint(bytes, &mut offset)?;
        *len = l as usize;
        lane_sum = lane_sum.saturating_add(l);
    }
    if lane_sum != payload_len {
        return Err(CodecError::Corrupt(format!(
            "rans8 lane lengths sum to {lane_sum}, expected the {payload_len}-byte payload"
        )));
    }
    if ((bytes.len() - offset) as u64) < payload_len {
        return Err(CodecError::UnexpectedEof);
    }
    header.payload_at = offset;
    header.payload_len = payload_len as usize;
    Ok(header)
}

/// What [`rans8_stream_info`] reads off a stream's header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rans8StreamInfo {
    /// The mode byte: 1 Huffman fallback, 2 pair table, 3 run-coded table.
    pub mode: u8,
    /// Symbols the stream decodes to (0 in mode 1: the embedded Huffman
    /// stream keeps its own count).
    pub n_symbols: u64,
    /// Distinct symbols in the frequency table (0 in mode 1).
    pub alphabet: usize,
    /// Bytes spent on the frequency table (0 in mode 1).
    pub table_bytes: usize,
    /// Bytes of the eight lanes; in mode 1, of the embedded Huffman stream.
    pub payload_bytes: usize,
}

/// Read-only header walk of a stream [`rans8_encode`] wrote — the same
/// validation as the decoder's, no scratch and no decode — so a report can
/// say what share of a stream is table and what share is symbols.
pub fn rans8_stream_info(bytes: &[u8]) -> Result<Rans8StreamInfo, CodecError> {
    let &mode = bytes.first().ok_or(CodecError::UnexpectedEof)?;
    if mode == MODE_HUFF {
        return Ok(Rans8StreamInfo {
            mode,
            n_symbols: 0,
            alphabet: 0,
            table_bytes: 0,
            payload_bytes: bytes.len() - 1,
        });
    }
    let header = parse_rans8_header(bytes, |_, _, _| ())?;
    Ok(Rans8StreamInfo {
        mode,
        n_symbols: header.n_symbols,
        alphabet: header.table.alphabet as usize,
        table_bytes: header.table_bytes,
        payload_bytes: header.payload_len,
    })
}

/// [`rans8_decode_with`] at an explicit SIMD tier (tests and benchmarks —
/// every tier decodes the same bytes to the same symbols and errors).
pub fn rans8_decode_with_at(
    scratch: &mut RansScratch,
    level: SimdLevel,
    bytes: &[u8],
    out: &mut Vec<u32>,
) -> Result<usize, CodecError> {
    out.clear();
    let &mode = bytes.first().ok_or(CodecError::UnexpectedEof)?;
    if mode == MODE_HUFF {
        return Ok(1 + huffman_decode_with(&mut scratch.huff, &bytes[1..], out)?);
    }

    // The table goes straight into the fused slot LUT — fixed size, so a
    // forged table reserves nothing — as `symbol << 32 | freq << 16 | cum`;
    // the exact-sum rule leaves every 12-bit slot filled by exactly one
    // entry, and a refused table leaves slots nobody will read.
    scratch.slot_entry.resize(SCALE as usize, 0);
    let slots = &mut scratch.slot_entry[..];
    let Rans8Header { n_symbols, table, lane_len, payload_at, payload_len, .. } =
        parse_rans8_header(bytes, |sym, freq, cum| {
            let fused = (u64::from(sym) << 32) | (u64::from(freq) << 16) | u64::from(cum);
            slots[cum as usize..(cum + freq) as usize].fill(fused);
        })?;
    if n_symbols == 0 {
        return Ok(payload_at);
    }
    let payload = &bytes[payload_at..payload_at + payload_len];
    let consumed = payload_at + payload_len;

    // Per-lane byte regions and seed states.
    let mut ptrs = [0usize; LANES]; // next renorm byte, per lane
    let mut ends = [0usize; LANES]; // exclusive end of the lane's region
    let mut xs = [0u32; LANES];
    let mut at = 0usize;
    for k in 0..LANES {
        if lane_len[k] < 4 {
            return Err(CodecError::Corrupt(format!(
                "rans8 lane {k} is {} bytes, too short for its seed state",
                lane_len[k]
            )));
        }
        xs[k] = u32::from_le_bytes(payload[at..at + 4].try_into().expect("4 bytes"));
        if xs[k] < RANS_L {
            return Err(CodecError::Corrupt(
                "rans state below the renormalization interval".into(),
            ));
        }
        ptrs[k] = at + 4;
        at += lane_len[k];
        ends[k] = at;
    }

    // Single-symbol alphabet: the zero-cost stream shape (freq == SCALE
    // makes every coding step the identity) — the payload is exactly the
    // eight seed states and the count alone sets the output size. Handle it
    // as a bulk fill behind an absolute run cap — without the per-byte
    // coupling a forged count would otherwise exploit, and without
    // false-rejecting huge constant inputs the encoder legitimately emits.
    if table.max_freq == SCALE {
        if n_symbols > MAX_DEGENERATE_RUN {
            return Err(CodecError::Corrupt(format!(
                "single-symbol run of {n_symbols} exceeds the {MAX_DEGENERATE_RUN} cap"
            )));
        }
        if payload.len() != 4 * LANES || xs.iter().any(|&x| x != RANS_L) {
            return Err(CodecError::Corrupt(
                "single-symbol payload must be exactly the eight seed states".into(),
            ));
        }
        out.resize(n_symbols as usize, table.first_symbol);
        return Ok(consumed);
    }

    // Every other alphabet has max_freq ≤ SCALE − 1, so each symbol costs
    // real information (state flush included); coding overhead only makes
    // honest streams larger.
    check_symbol_count_plausible(table.max_freq, payload.len(), n_symbols)?;
    let n_symbols = n_symbols as usize;

    // The reserve is a hint bounded by the input; near-zero-entropy streams
    // may decode more (amortized push growth covers the rest).
    out.reserve(n_symbols.min(payload.len().saturating_mul(8) + 64));

    #[cfg(target_arch = "x86_64")]
    if level >= SimdLevel::Avx2 {
        return decode8_payload_fast(scratch, payload, n_symbols, &mut ptrs, &ends, &mut xs, out)
            .map(|()| consumed);
    }
    let _ = level;

    // Scalar tier: checked round-robin over the eight lanes with the fused
    // slot LUT.
    decode8_symbols_careful(
        &scratch.slot_entry,
        payload,
        &mut ptrs,
        &ends,
        &mut xs,
        n_symbols,
        out,
    )?;
    check8_final(&xs, &ptrs, &ends)?;
    Ok(consumed)
}

/// Checked round-robin decode of `count` symbols over the fused slot
/// entries, starting at lane 0 (callers only enter on round boundaries):
/// the scalar tier, and the payload-tail / truncated-stream companion
/// of the unchecked chunk loop — it reports `UnexpectedEof` exactly where
/// the unchecked loop's byte budget would have been violated.
fn decode8_symbols_careful(
    entries: &[u64],
    payload: &[u8],
    ptrs: &mut [usize; LANES],
    ends: &[usize; LANES],
    xs: &mut [u32; LANES],
    count: usize,
    out: &mut Vec<u32>,
) -> Result<(), CodecError> {
    for j in 0..count {
        let k = j & (LANES - 1);
        let mut x = xs[k];
        let slot = x & (SCALE - 1);
        let e = entries[slot as usize];
        out.push((e >> 32) as u32);
        x = ((e >> 16) & 0xFFFF) as u32 * (x >> SCALE_BITS) + slot - (e & 0xFFFF) as u32;
        while x < RANS_L {
            if ptrs[k] >= ends[k] {
                return Err(CodecError::UnexpectedEof);
            }
            x = (x << 8) | u32::from(payload[ptrs[k]]);
            ptrs[k] += 1;
        }
        xs[k] = x;
    }
    Ok(())
}

/// The well-formedness epilogue of an 8-way decode: every lane's state back
/// at the seed and every lane's byte region fully drained.
fn check8_final(
    xs: &[u32; LANES],
    ptrs: &[usize; LANES],
    ends: &[usize; LANES],
) -> Result<(), CodecError> {
    if xs.iter().any(|&x| x != RANS_L) {
        return Err(CodecError::Corrupt("rans8 lane states did not return to the seed".into()));
    }
    for k in 0..LANES {
        if ptrs[k] != ends[k] {
            return Err(CodecError::Corrupt(format!(
                "rans8 lane {k} has {} undecoded trailing bytes",
                ends[k] - ptrs[k]
            )));
        }
    }
    Ok(())
}

/// The AVX2 8-way decode driver. Identical observable behaviour to the
/// scalar round-robin loop — same symbols, same errors — structured for
/// throughput: the loop runs in chunks of full 8-symbol rounds sized by a
/// **per-lane byte budget** (a decoded symbol renormalizes by at most two
/// bytes from its own lane, so a chunk of `rounds` rounds needs no per-byte
/// bounds checks while every lane holds `2 × rounds` spare bytes), writing
/// symbols into `out`'s reserved spare capacity. A chunk is as long as the
/// shortest lane's remaining bytes allow — a 64 × 64 tile's lanes are a few
/// hundred bytes, less than one full-size chunk would ask for — and only the
/// last few rounds before any lane's end, the `n mod 8` tail, and with them
/// every stream truncated mid-decode, take the checked careful loop instead.
// Sanctioned `unsafe_code` waiver (see `crate::dispatch`): this driver owns
// the byte-budget and capacity checks the unchecked inner loop relies on.
#[allow(unsafe_code)]
#[cfg(target_arch = "x86_64")]
fn decode8_payload_fast(
    scratch: &mut RansScratch,
    payload: &[u8],
    n_symbols: usize,
    ptrs: &mut [usize; LANES],
    ends: &[usize; LANES],
    xs: &mut [u32; LANES],
    out: &mut Vec<u32>,
) -> Result<(), CodecError> {
    let entries = &scratch.slot_entry;
    let mut rounds = n_symbols / LANES;
    /// Longest unchecked chunk: bounds the output reserve made per chunk.
    const CHUNK_ROUNDS: usize = 128;
    /// Below this many affordable rounds the careful loop finishes the
    /// payload: shorter unchecked chunks do not repay their set-up.
    const MIN_UNCHECKED_ROUNDS: usize = 8;
    while rounds > 0 {
        let mut take = rounds.min(CHUNK_ROUNDS);
        // Asked as a yes/no first: on a long stream the answer is "no" for
        // all but the last chunks, the branch predicts, and the next chunk
        // starts without waiting on the cursors the last one just stored
        // (taking the minimum outright read 5 % slower on a 512² stream).
        if (0..LANES).any(|k| ends[k] - ptrs[k] < take * 2) {
            let spare = (0..LANES).fold(usize::MAX, |least, k| least.min(ends[k] - ptrs[k]));
            take = spare / 2;
            if take < MIN_UNCHECKED_ROUNDS {
                break;
            }
        }
        out.reserve(take * LANES);
        // SAFETY: this driver is only reachable on hosts whose feature
        // detection confirmed AVX2; every lane was just seen to hold
        // `2 × take` readable bytes past its cursor, which keeps every
        // unchecked payload read inside its lane's region (≤ 2 bytes per
        // symbol), and the reserve covers the raw output writes.
        unsafe { simd8::decode_rounds_avx2(entries, payload, ptrs, xs, take, out) };
        rounds -= take;
    }
    // The rounds no lane budget covers, then the last n mod 8 symbols on
    // lanes 0.. (checked reads).
    let rest = rounds * LANES + n_symbols % LANES;
    decode8_symbols_careful(entries, payload, ptrs, ends, xs, rest, out)?;
    check8_final(xs, ptrs, ends)
}

#[cfg(target_arch = "x86_64")]
mod simd8 {
    // Sanctioned `unsafe_code` waiver (see `crate::dispatch`): `core::arch`
    // intrinsics are unsafe by definition, the caller establishes the
    // per-lane byte budget and output capacity the unchecked accesses rely
    // on, and the tier-identity suite pins scalar equivalence.
    #![allow(unsafe_code)]

    use super::{LANES, RANS_L, SCALE, SCALE_BITS};

    /// Decode `rounds` full 8-symbol rounds with no bounds checks. All
    /// eight states live in two 4×u64 vectors — two **independent**
    /// dependency chains, which matters more than lane economy: a round's
    /// states feed the next round's gathers, so each vector is one serial
    /// chain and two of them overlap the gather+multiply latency. Per round
    /// and half, a slot mask and a fused-entry gather
    /// (`_mm256_i64gather_epi64`) resolve four table loads in one
    /// instruction, and the `freq · (x >> 12) + slot − cum` update runs as
    /// 4-wide `vpmuludq`/`vpaddq`/`vpsubq` (freq ≤ 2^12 and `x >> 12` <
    /// 2^19, so the 32×32→64 multiply never overflows).
    ///
    /// The refill is **branchless**: every step reads two big-endian bytes
    /// at each lane cursor unconditionally and shifts in exactly as many as
    /// the renormalization thresholds ask for (`x < 2^23` needs one byte,
    /// `x < 2^15` a second — post-step states are ≥ 2^11, so two always
    /// suffice). A branchy refill mispredicts roughly every other symbol on
    /// entropy-shaped data (the per-symbol byte count is what the coder
    /// randomizes), and those flushes cost more than the always-taken
    /// 2-byte load.
    ///
    /// Two earlier revisions inform this shape: one 8×u32 state vector
    /// halved the arithmetic op count but also halved the chain count and
    /// measured ~20% slower end to end, and gating the refill behind a
    /// `vpcmpgtq`+`vpmovmskb` "no lane needs bytes" fast path mispredicted
    /// constantly on entropy-shaped data, costing nearly 2× the
    /// unconditional work it saved.
    ///
    /// # Safety
    /// Requires AVX2, a spare capacity of at least `8 · rounds` in `out`,
    /// every `entries` slot filled for a 12-bit slot index, all states
    /// `≥ RANS_L`, and `rounds · 2` readable payload bytes remaining in
    /// **every** lane region past its cursor — the caller-validated budget
    /// that both bounds renormalization and keeps the unconditional 2-byte
    /// read inside the lane (a round consuming `c ≤ 2` bytes leaves the
    /// next round's read at most `2·rounds` past the chunk start).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn decode_rounds_avx2(
        entries: &[u64],
        payload: &[u8],
        ptrs: &mut [usize; LANES],
        xs: &mut [u32; LANES],
        rounds: usize,
        out: &mut Vec<u32>,
    ) {
        use core::arch::x86_64::*;
        debug_assert!(out.capacity() - out.len() >= rounds * LANES);
        debug_assert_eq!(entries.len(), SCALE as usize);
        let eb = entries.as_ptr();
        let pb = payload.as_ptr();
        let out_len = out.len();
        let ob = out.as_mut_ptr().add(out_len);
        let mut p = *ptrs;
        let mut x_lo = _mm256_setr_epi64x(
            i64::from(xs[0]),
            i64::from(xs[1]),
            i64::from(xs[2]),
            i64::from(xs[3]),
        );
        let mut x_hi = _mm256_setr_epi64x(
            i64::from(xs[4]),
            i64::from(xs[5]),
            i64::from(xs[6]),
            i64::from(xs[7]),
        );
        let slot_mask = _mm256_set1_epi64x(i64::from(SCALE - 1));
        let low16 = _mm256_set1_epi64x(0xFFFF);
        let lower_bound = _mm256_set1_epi64x(i64::from(RANS_L));
        let two_byte_bound = _mm256_set1_epi64x(1 << 15);
        let sixteen = _mm256_set1_epi64x(16);
        // Per-half round step: gather, update, emit, vectorized renorm.
        // The renorm never leaves the vector domain: `vpcmpgtq` masks count
        // the 0/1/2 refill bytes per lane, `vpsllvq` re-widens the state,
        // and `vpsrlvq` drops in the big-endian byte pair speculatively
        // loaded from each lane cursor (the per-round budget in
        // [`decode8_payload_fast`] guarantees both bytes are in bounds, and
        // a right shift by 16 discards the pair entirely for lanes that
        // need no bytes). Only the pair loads and the mask-derived cursor
        // bumps are scalar, and both hang off the shallow cursor chain, not
        // the state chain — an earlier revision that spilled the states for
        // a scalar refill and reloaded them paid two store-forward stalls
        // per half per round on the state chain and ran ~15% slower.
        macro_rules! half {
            ($x:ident, $r:expr, $base:literal) => {{
                let slot = _mm256_and_si256($x, slot_mask);
                let e = _mm256_i64gather_epi64(eb as *const i64, slot, 8);
                let mut syms = [0u64; 4];
                _mm256_storeu_si256(syms.as_mut_ptr() as *mut __m256i, _mm256_srli_epi64(e, 32));
                ob.add($r * LANES + $base).write(syms[0] as u32);
                ob.add($r * LANES + $base + 1).write(syms[1] as u32);
                ob.add($r * LANES + $base + 2).write(syms[2] as u32);
                ob.add($r * LANES + $base + 3).write(syms[3] as u32);
                let freq = _mm256_and_si256(_mm256_srli_epi64(e, 16), low16);
                let cum = _mm256_and_si256(e, low16);
                let prod = _mm256_mul_epu32(freq, _mm256_srli_epi64($x, SCALE_BITS as i32));
                let nx = _mm256_sub_epi64(_mm256_add_epi64(prod, slot), cum);
                // Big-endian byte pairs at each lane cursor; `nx < 2^31` so
                // the signed 64-bit compares below are exact.
                let two = _mm256_setr_epi64x(
                    i64::from(u16::swap_bytes((pb.add(p[$base]) as *const u16).read_unaligned())),
                    i64::from(u16::swap_bytes(
                        (pb.add(p[$base + 1]) as *const u16).read_unaligned(),
                    )),
                    i64::from(u16::swap_bytes(
                        (pb.add(p[$base + 2]) as *const u16).read_unaligned(),
                    )),
                    i64::from(u16::swap_bytes(
                        (pb.add(p[$base + 3]) as *const u16).read_unaligned(),
                    )),
                );
                let need1 = _mm256_cmpgt_epi64(lower_bound, nx);
                let need2 = _mm256_cmpgt_epi64(two_byte_bound, nx);
                let nbytes =
                    _mm256_sub_epi64(_mm256_setzero_si256(), _mm256_add_epi64(need1, need2));
                let nbits = _mm256_slli_epi64(nbytes, 3);
                $x = _mm256_or_si256(
                    _mm256_sllv_epi64(nx, nbits),
                    _mm256_srlv_epi64(two, _mm256_sub_epi64(sixteen, nbits)),
                );
                let m1 = _mm256_movemask_pd(_mm256_castsi256_pd(need1)) as usize;
                let m2 = _mm256_movemask_pd(_mm256_castsi256_pd(need2)) as usize;
                p[$base] += (m1 & 1) + (m2 & 1);
                p[$base + 1] += ((m1 >> 1) & 1) + ((m2 >> 1) & 1);
                p[$base + 2] += ((m1 >> 2) & 1) + ((m2 >> 2) & 1);
                p[$base + 3] += ((m1 >> 3) & 1) + ((m2 >> 3) & 1);
            }};
        }
        for r in 0..rounds {
            half!(x_lo, r, 0);
            half!(x_hi, r, 4);
        }
        let mut lanes = [0u64; LANES];
        _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, x_lo);
        _mm256_storeu_si256(lanes.as_mut_ptr().add(4) as *mut __m256i, x_hi);
        for k in 0..LANES {
            xs[k] = lanes[k] as u32;
        }
        out.set_len(out_len + rounds * LANES);
        *ptrs = p;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip8(symbols: &[u32]) -> Vec<u8> {
        let encoded = rans8_encode(symbols);
        let (decoded, used) = rans8_decode(&encoded).unwrap();
        assert_eq!(decoded, symbols);
        assert_eq!(used, encoded.len());
        // The scratch-reusing entry points agree byte for byte with the
        // wrappers, including when the same scratch served other inputs.
        let mut scratch = RansScratch::new();
        let mut warmup = Vec::new();
        rans8_encode_with(&mut scratch, &[9, 9, 1, 2, 3, 9], &mut warmup);
        let mut with_out = Vec::new();
        rans8_encode_with(&mut scratch, symbols, &mut with_out);
        assert_eq!(with_out, encoded);
        let mut decoded_with = Vec::new();
        let used_with = rans8_decode_with(&mut scratch, &encoded, &mut decoded_with).unwrap();
        assert_eq!(decoded_with, symbols);
        assert_eq!(used_with, encoded.len());
        encoded
    }

    /// Split an 8-way stream (either table form) into `(prefix through the
    /// freq table, payload_len, lane lengths, payload)` so tests can forge
    /// individual header fields and restitch with [`join8`].
    fn split8(encoded: &[u8]) -> (Vec<u8>, u64, Vec<u64>, Vec<u8>) {
        assert!(matches!(encoded[0], MODE_RANS8 | MODE_RANS8_PAIRS));
        let header = parse_rans8_header(encoded, |_, _, _| ()).unwrap();
        let (_, count_bytes) = read_varint(&encoded[1..]).unwrap();
        let mut off = 1 + count_bytes + header.table_bytes;
        let prefix = encoded[..off].to_vec();
        let (payload_len, u) = read_varint(&encoded[off..]).unwrap();
        off += u;
        let mut lanes = Vec::new();
        for _ in 0..LANES {
            let (l, u) = read_varint(&encoded[off..]).unwrap();
            off += u;
            lanes.push(l);
        }
        assert_eq!(off, header.payload_at);
        (prefix, payload_len, lanes, encoded[off..].to_vec())
    }

    fn join8(prefix: &[u8], payload_len: u64, lanes: &[u64], payload: &[u8]) -> Vec<u8> {
        let mut out = prefix.to_vec();
        write_varint(&mut out, payload_len);
        for &l in lanes {
            write_varint(&mut out, l);
        }
        out.extend_from_slice(payload);
        out
    }

    #[test]
    fn rans8_roundtrips_every_short_length() {
        // 0..=33 covers every lane-count residue twice plus the empty
        // stream: lanes that never see a symbol still carry seed states.
        let mut state = 0xC0FFEEu64;
        for n in 0..=33usize {
            let symbols: Vec<u32> = (0..n)
                .map(|_| {
                    state =
                        state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    ((state >> 33) % 11) as u32
                })
                .collect();
            roundtrip8(&symbols);
        }
    }

    #[test]
    fn rans8_mode_byte_is_self_describing() {
        assert_eq!(roundtrip8(&[1, 2, 3, 1, 2, 3, 3, 3])[0], MODE_RANS8);
        assert_eq!(roundtrip8(&[])[0], MODE_RANS8);
    }

    #[test]
    fn rans8_single_symbol_payload_is_exactly_the_seeds() {
        // freq == SCALE makes every coding step the identity; the payload
        // is the eight flushed seed states and nothing else.
        let encoded = roundtrip8(&[42; 100_000]);
        let (_, payload_len, lanes, payload) = split8(&encoded);
        assert_eq!(payload_len, 4 * LANES as u64);
        assert_eq!(lanes, vec![4u64; LANES]);
        assert_eq!(payload.len(), 4 * LANES);
    }

    #[test]
    fn rans8_huge_single_symbol_runs_under_the_cap_roundtrip() {
        let symbols = vec![3u32; 30_000_000];
        let encoded = rans8_encode(&symbols);
        let (decoded, used) = rans8_decode(&encoded).unwrap();
        assert_eq!(decoded, symbols);
        assert_eq!(used, encoded.len());
    }

    #[test]
    fn rans8_dense_and_skewed_streams_roundtrip() {
        let mut state = 0x8BADF00Du64;
        let mut rng = move |m: u32| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) % u64::from(m)) as u32
        };
        let dense: Vec<u32> = (0..50_000).map(|_| rng(300)).collect();
        roundtrip8(&dense);
        let mut skewed = vec![0u32; 80_000];
        for s in skewed.iter_mut().step_by(89) {
            *s = rng(17) + 1;
        }
        roundtrip8(&skewed);
        let sparse = vec![0u32, u32::MAX, 123_456_789, 42, u32::MAX, 42, 0, 0, 7];
        roundtrip8(&sparse);
    }

    #[test]
    fn rans8_wide_alphabet_falls_back_to_embedded_huffman() {
        // More than 4096 distinct symbols cannot fit a 12-bit table: the
        // stream is a mode byte plus a plain Huffman stream.
        let symbols: Vec<u32> = (0..6000u32).collect();
        let encoded = roundtrip8(&symbols);
        assert_eq!(encoded[0], MODE_HUFF);
        assert_eq!(encoded[1..], crate::huffman_encode(&symbols));
        // Under the limit the rANS path is used.
        let narrow: Vec<u32> = (0..4096u32).collect();
        assert_eq!(roundtrip8(&narrow)[0], MODE_RANS8);
    }

    #[test]
    fn rans8_forged_mode_byte_is_rejected() {
        // 0 is the reserved mode byte of the retired 2-way format.
        for mode in [0u8, 7] {
            let mut bad = rans8_encode(&[1, 2, 3]);
            bad[0] = mode;
            match rans8_decode(&bad) {
                Err(CodecError::Corrupt(msg)) => {
                    assert!(msg.contains(&format!("unknown rans8 mode {mode}")), "got: {msg}")
                }
                other => panic!("forged mode {mode} accepted: {other:?}"),
            }
        }
        assert_eq!(rans8_decode(&[]), Err(CodecError::UnexpectedEof));
    }

    #[test]
    fn rans8_truncated_frequency_table_is_an_error_not_an_allocation() {
        // A header claiming 4096 alphabet entries with two bytes of table
        // must fail the entry parse, not reserve anything sized by the claim.
        let mut bad = vec![MODE_RANS8_PAIRS];
        write_varint(&mut bad, 10); // n_symbols
        write_varint(&mut bad, 4096); // alphabet_size
        write_varint(&mut bad, 1); // one symbol…
        write_varint(&mut bad, 2); // …and its freq, then nothing
        assert_eq!(rans8_decode(&bad), Err(CodecError::UnexpectedEof));
    }

    #[test]
    fn rans8_frequencies_must_sum_to_scale() {
        for freqs in [[2048u64, 2047].as_slice(), &[2048, 2049], &[4096, 1]] {
            let mut bad = vec![MODE_RANS8_PAIRS];
            write_varint(&mut bad, 4); // n_symbols
            write_varint(&mut bad, freqs.len() as u64);
            for (sym, &f) in freqs.iter().enumerate() {
                write_varint(&mut bad, sym as u64);
                write_varint(&mut bad, f);
            }
            write_varint(&mut bad, 4 * LANES as u64);
            for _ in 0..LANES {
                write_varint(&mut bad, 4);
            }
            bad.extend_from_slice(&[0u8; 4 * LANES]);
            assert!(
                matches!(rans8_decode(&bad), Err(CodecError::Corrupt(_))),
                "freqs {freqs:?} must be rejected"
            );
        }
    }

    #[test]
    fn rans8_zero_frequency_and_oversized_alphabet_are_rejected() {
        let mut bad = vec![MODE_RANS8_PAIRS];
        write_varint(&mut bad, 4);
        write_varint(&mut bad, 1);
        write_varint(&mut bad, 7);
        write_varint(&mut bad, 0); // freq 0
        assert!(matches!(rans8_decode(&bad), Err(CodecError::Corrupt(_))));

        let mut bad = vec![MODE_RANS8_PAIRS];
        write_varint(&mut bad, 4);
        write_varint(&mut bad, 4097); // alphabet too wide for 12-bit tables
        assert!(matches!(rans8_decode(&bad), Err(CodecError::Corrupt(_))));
    }

    #[test]
    fn rans8_normalization_is_exact_for_adversarial_histograms() {
        // Many tiny counts next to one huge one force both the deficit and
        // the excess paths of the normalizer.
        let mut symbols = vec![7u32; 1_000_000];
        symbols.extend(0..4000u32);
        roundtrip8(&symbols);
        // All counts equal at a size that does not divide SCALE.
        let symbols: Vec<u32> = (0..3000u32).flat_map(|s| [s, s, s]).collect();
        roundtrip8(&symbols);
    }

    #[test]
    fn rans8_truncated_lane_length_header_is_eof() {
        // A stream that ends after three of the eight lane-length varints.
        let mut bad = vec![MODE_RANS8_PAIRS];
        write_varint(&mut bad, 4); // n_symbols
        write_varint(&mut bad, 2); // alphabet {0, 1}, 2048 each
        write_varint(&mut bad, 0);
        write_varint(&mut bad, 2048);
        write_varint(&mut bad, 1);
        write_varint(&mut bad, 2048);
        write_varint(&mut bad, 32); // payload_len
        for _ in 0..3 {
            write_varint(&mut bad, 4);
        }
        assert_eq!(rans8_decode(&bad), Err(CodecError::UnexpectedEof));
    }

    #[test]
    fn rans8_lane_length_sum_mismatch_is_rejected() {
        let symbols: Vec<u32> = (0..64u32).map(|i| i % 5).collect();
        let (prefix, payload_len, mut lanes, payload) = split8(&rans8_encode(&symbols));
        lanes[0] += 1; // sum no longer matches the payload length
        let bad = join8(&prefix, payload_len, &lanes, &payload);
        match rans8_decode(&bad) {
            Err(CodecError::Corrupt(msg)) => {
                assert!(msg.contains("lane lengths sum"), "got: {msg}")
            }
            other => panic!("sum mismatch accepted: {other:?}"),
        }
    }

    #[test]
    fn rans8_lane_shorter_than_its_seed_is_rejected() {
        // Lane lengths that sum correctly but starve lane 0 of its seed.
        let mut bad = vec![MODE_RANS8_PAIRS];
        write_varint(&mut bad, 4);
        write_varint(&mut bad, 2);
        write_varint(&mut bad, 0);
        write_varint(&mut bad, 2048);
        write_varint(&mut bad, 1);
        write_varint(&mut bad, 2048);
        write_varint(&mut bad, 32);
        for len in [3u64, 5, 4, 4, 4, 4, 4, 4] {
            write_varint(&mut bad, len);
        }
        bad.extend_from_slice(&[0u8; 32]);
        match rans8_decode(&bad) {
            Err(CodecError::Corrupt(msg)) => {
                assert!(msg.contains("too short for its seed state"), "got: {msg}")
            }
            other => panic!("short lane accepted: {other:?}"),
        }
    }

    #[test]
    fn rans8_undrained_lane_bytes_are_rejected() {
        // Append a byte to lane 7's region (header kept consistent): the
        // state walk never consumes it, so the drain check must fire.
        let symbols: Vec<u32> = (0..64u32).map(|i| i % 5).collect();
        let (prefix, payload_len, mut lanes, mut payload) = split8(&rans8_encode(&symbols));
        lanes[LANES - 1] += 1;
        payload.push(0x00);
        let bad = join8(&prefix, payload_len + 1, &lanes, &payload);
        match rans8_decode(&bad) {
            Err(CodecError::Corrupt(msg)) => {
                assert!(msg.contains("undecoded trailing bytes"), "got: {msg}")
            }
            other => panic!("undrained lane accepted: {other:?}"),
        }
    }

    #[test]
    fn rans8_forged_seed_state_is_rejected() {
        // Flip the low byte of lane 0's seed in a multi-symbol stream: the
        // walk diverges, so decode must error (seed check or mid-stream).
        let symbols: Vec<u32> = (0..64u32).map(|i| i % 5).collect();
        let (prefix, payload_len, lanes, mut payload) = split8(&rans8_encode(&symbols));
        payload[0] ^= 0xFF;
        let bad = join8(&prefix, payload_len, &lanes, &payload);
        match rans8_decode(&bad) {
            Err(_) => {}
            Ok((decoded, _)) => assert_eq!(decoded.len(), symbols.len()),
        }
    }

    #[test]
    fn rans8_degenerate_forgeries_are_rejected() {
        // 2^60 claimed symbols over a single-symbol table: the run cap.
        let mut bad = vec![MODE_RANS8_PAIRS];
        write_varint(&mut bad, 1u64 << 60);
        write_varint(&mut bad, 1);
        write_varint(&mut bad, 7);
        write_varint(&mut bad, u64::from(SCALE));
        write_varint(&mut bad, 4 * LANES as u64);
        for _ in 0..LANES {
            write_varint(&mut bad, 4);
        }
        for _ in 0..LANES {
            bad.extend_from_slice(&RANS_L.to_le_bytes());
        }
        assert!(matches!(rans8_decode(&bad), Err(CodecError::Corrupt(_))));

        // A single-symbol stream whose lane 0 does not hold the seed state.
        let mut bad = vec![MODE_RANS8_PAIRS];
        write_varint(&mut bad, 4);
        write_varint(&mut bad, 1);
        write_varint(&mut bad, 7);
        write_varint(&mut bad, u64::from(SCALE));
        write_varint(&mut bad, 4 * LANES as u64);
        for _ in 0..LANES {
            write_varint(&mut bad, 4);
        }
        bad.extend_from_slice(&(RANS_L + 5).to_le_bytes());
        for _ in 1..LANES {
            bad.extend_from_slice(&RANS_L.to_le_bytes());
        }
        assert!(matches!(rans8_decode(&bad), Err(CodecError::Corrupt(_))));

        // A single-symbol stream with payload beyond the eight seeds.
        let mut bad = vec![MODE_RANS8_PAIRS];
        write_varint(&mut bad, 4);
        write_varint(&mut bad, 1);
        write_varint(&mut bad, 7);
        write_varint(&mut bad, u64::from(SCALE));
        write_varint(&mut bad, 4 * LANES as u64 + 1);
        write_varint(&mut bad, 5);
        for _ in 1..LANES {
            write_varint(&mut bad, 4);
        }
        for _ in 0..LANES {
            bad.extend_from_slice(&RANS_L.to_le_bytes());
        }
        bad.push(0xAB);
        assert!(matches!(rans8_decode(&bad), Err(CodecError::Corrupt(_))));

        // A multi-symbol table over a seeds-only payload claiming 10M
        // symbols: the information bound.
        let mut bad = vec![MODE_RANS8_PAIRS];
        write_varint(&mut bad, 10_000_000);
        write_varint(&mut bad, 2);
        write_varint(&mut bad, 0);
        write_varint(&mut bad, 4095);
        write_varint(&mut bad, 1);
        write_varint(&mut bad, 1);
        write_varint(&mut bad, 4 * LANES as u64);
        for _ in 0..LANES {
            write_varint(&mut bad, 4);
        }
        for _ in 0..LANES {
            bad.extend_from_slice(&RANS_L.to_le_bytes());
        }
        match rans8_decode(&bad) {
            Err(CodecError::Corrupt(msg)) => {
                assert!(msg.contains("implausible"), "got: {msg}")
            }
            other => panic!("expected the information-bound rejection, got {other:?}"),
        }
    }

    #[test]
    fn rans8_decode_reports_consumed_length_inside_container() {
        let encoded = rans8_encode(&[9, 9, 8, 7, 9, 8, 7, 6, 5, 9]);
        let mut container = encoded.clone();
        container.extend_from_slice(&[0xAA, 0xBB, 0xCC]);
        let (decoded, used) = rans8_decode(&container).unwrap();
        assert_eq!(decoded, vec![9, 9, 8, 7, 9, 8, 7, 6, 5, 9]);
        assert_eq!(used, encoded.len());
    }

    #[test]
    fn rans8_truncated_streams_are_errors() {
        let encoded = rans8_encode(&[1, 2, 3, 1, 2, 3, 3, 3, 200, 1, 1, 5, 4, 3, 2, 1, 1]);
        for cut in 0..encoded.len() {
            assert!(rans8_decode(&encoded[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn rans8_every_supported_level_decodes_identically() {
        use crate::dispatch::supported_levels;
        // Shapes chosen to hit the fast path's regimes: dense high-entropy
        // streams (unchecked chunks, heavy renormalization — the AVX2 mask
        // path), skewed streams with tiny payloads (careful chunks), every
        // short length residue, and the full byte alphabet.
        let mut state = 0xDEAD8EEFu64;
        let mut rng = move |m: u32| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) % u64::from(m)) as u32
        };
        let dense: Vec<u32> = (0..30_007).map(|_| rng(300)).collect();
        let mut skewed = vec![0u32; 60_000];
        for s in skewed.iter_mut().step_by(97) {
            *s = rng(17) + 1;
        }
        let cases: Vec<Vec<u32>> = vec![
            dense,
            skewed,
            vec![5],
            vec![5, 6, 5],
            (0..u32::from(u8::MAX) + 1).collect(),
            (0..13).map(|_| rng(7)).collect(),
        ];
        let mut scratch = RansScratch::new();
        for (case, symbols) in cases.iter().enumerate() {
            let encoded = rans8_encode(symbols);
            let mut reference = Vec::new();
            let used_ref =
                rans8_decode_with_at(&mut scratch, SimdLevel::Scalar, &encoded, &mut reference)
                    .unwrap();
            assert_eq!(&reference, symbols);
            for &level in supported_levels() {
                let mut out = Vec::new();
                let used = rans8_decode_with_at(&mut scratch, level, &encoded, &mut out).unwrap();
                assert_eq!(out, reference, "case={case} level={level:?}");
                assert_eq!(used, used_ref, "case={case} level={level:?}");
            }
            // Truncations fail identically at every level.
            for cut in [encoded.len() / 3, encoded.len() - 1] {
                let reference_err = rans8_decode_with_at(
                    &mut scratch,
                    SimdLevel::Scalar,
                    &encoded[..cut],
                    &mut Vec::new(),
                );
                for &level in supported_levels() {
                    let got =
                        rans8_decode_with_at(&mut scratch, level, &encoded[..cut], &mut Vec::new());
                    assert_eq!(got, reference_err, "case={case} cut={cut} level={level:?}");
                }
            }
        }
    }

    /// The table writer this module shipped until mode 3: `varint
    /// alphabet_size (varint symbol, varint freq)*`, pairs in ascending
    /// symbol order. Kept as the oracle of the transcoding identity.
    fn write_pair_table(scratch: &RansScratch, out: &mut Vec<u8>) {
        write_varint(out, scratch.alphabet.len() as u64);
        for (k, &(sym, _)) in scratch.alphabet.iter().enumerate() {
            write_varint(out, u64::from(sym));
            write_varint(out, u64::from(scratch.freqs[k]));
        }
    }

    fn reference_rans8_encode(symbols: &[u32]) -> Vec<u8> {
        reference_rans8_encode_as(MODE_RANS8, symbols)
    }

    /// The encoder this module shipped before the presized back-to-front
    /// lanes: a `while` renorm pushing onto per-lane stacks that are reversed
    /// at the end, the table mode matched per symbol. Kept as the oracle,
    /// for both table forms: `MODE_RANS8_PAIRS` is the whole stream as it
    /// was written before the run-coded table.
    fn reference_rans8_encode_as(rans_mode: u8, symbols: &[u32]) -> Vec<u8> {
        let mut out = Vec::new();
        if symbols.is_empty() {
            out.push(rans_mode);
            write_varint(&mut out, 0);
            return out;
        }
        let scratch = &mut RansScratch::new();
        let Some((mode, _)) = build_encode_tables(scratch, symbols) else {
            out.push(MODE_HUFF);
            huffman_encode_with(&mut scratch.huff, symbols, &mut out);
            return out;
        };
        out.push(rans_mode);
        write_varint(&mut out, symbols.len() as u64);
        match rans_mode {
            MODE_RANS8 => write_freq_table(scratch, &mut out),
            _ => write_pair_table(scratch, &mut out),
        }
        let mut lanes: [Vec<u8>; LANES] = Default::default();
        let mut xs = [RANS_L; LANES];
        for i in (0..symbols.len()).rev() {
            let k = i & (LANES - 1);
            let idx = match mode {
                TableMode::Dense { min } => scratch.dense_idx[(symbols[i] - min) as usize],
                TableMode::Sparse => {
                    scratch.slot_idx[scratch.sym_map.get(symbols[i]).unwrap() as usize]
                }
            };
            let sym = &scratch.enc_syms[idx as usize];
            let mut x = xs[k];
            while x >= sym.x_max {
                lanes[k].push(x as u8);
                x >>= 8;
            }
            let q = ((u64::from(x) * u64::from(sym.rcp_freq)) >> 32 >> sym.rcp_shift) as u32;
            xs[k] = x + sym.bias + q * sym.cmpl_freq;
        }
        for (lane, &x) in lanes.iter_mut().zip(xs.iter()) {
            lane.extend_from_slice(&x.to_be_bytes());
            lane.reverse();
        }
        write_varint(&mut out, lanes.iter().map(|l| l.len() as u64).sum());
        for lane in &lanes {
            write_varint(&mut out, lane.len() as u64);
        }
        for lane in &lanes {
            out.extend_from_slice(lane);
        }
        out
    }

    /// Encode through a scratch whose lane buffer is pre-filled with a
    /// sentinel (so slack bytes that leaked into the stream would show) and
    /// compare with the reference encoder byte for byte; the stream must
    /// also decode at every supported tier.
    fn assert_matches_reference(scratch: &mut RansScratch, symbols: &[u32], what: &str) {
        scratch.lane_buf.fill(0xA5);
        let mut encoded = vec![0xEE]; // appends: the prefix must survive
        rans8_encode_with(scratch, symbols, &mut encoded);
        assert_eq!(encoded[0], 0xEE, "{what}");
        assert!(encoded[1..] == reference_rans8_encode(symbols), "{what}: streams differ");
        for &level in crate::dispatch::supported_levels() {
            let mut decoded = Vec::new();
            let used = rans8_decode_with_at(scratch, level, &encoded[1..], &mut decoded).unwrap();
            assert_eq!(used, encoded.len() - 1, "{what} {level:?}");
            assert!(decoded == symbols, "{what} {level:?}: round trip differs");
        }
    }

    #[test]
    fn rans8_branch_free_encoder_matches_the_push_reverse_reference() {
        let mut state = 0x0DDB_A110u64;
        let mut rng = move |m: u32| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) % u64::from(m)) as u32
        };
        // One scratch across every case, largest first, so later (shorter)
        // inputs run over lane buffers that are longer than they need.
        let mut scratch = RansScratch::new();
        let dense: Vec<u32> = (0..40_003).map(|_| 32_768 + rng(600)).collect();
        assert_matches_reference(&mut scratch, &dense, "dense");
        // Symbols seen once next to one seen a million times: `freq == 1`
        // entries (the reciprocal's special case) and two-byte renorms.
        let mut rare = vec![9u32; 1_000_000];
        for (k, s) in rare.iter_mut().step_by(1013).enumerate() {
            *s = 10 + k as u32;
        }
        assert_matches_reference(&mut scratch, &rare, "freq == 1 symbols");
        // The widest alphabet a 12-bit table takes: every frequency is 1.
        let full: Vec<u32> = (0..4096u32).map(|k| k * 3).collect();
        assert_matches_reference(&mut scratch, &full, "4096-symbol alphabet");
        let wide: Vec<u32> = (0..4097u32).collect();
        assert_matches_reference(&mut scratch, &wide, "huffman fallback");
        // A span past the dense limit: the symbol-map table mode.
        let sparse: Vec<u32> = (0..9_001)
            .map(|_| [0u32, 7, 1 << 22, u32::MAX, 123_456_789][rng(5) as usize])
            .collect();
        assert_matches_reference(&mut scratch, &sparse, "sparse table mode");
        assert_matches_reference(&mut scratch, &[42; 70_001], "single symbol");
        // Every length around the lane count, skewed and flat.
        for n in 0..=17usize {
            let flat: Vec<u32> = (0..n).map(|_| rng(5)).collect();
            assert_matches_reference(&mut scratch, &flat, &format!("flat n={n}"));
            let skewed: Vec<u32> =
                (0..n).map(|k| if k % 5 == 4 { 1 + rng(300) } else { 0 }).collect();
            assert_matches_reference(&mut scratch, &skewed, &format!("skewed n={n}"));
            assert_matches_reference(&mut scratch, &vec![3; n], &format!("constant n={n}"));
        }
    }

    /// The `(symbol, freq)` entries of a stream's table, as its parser
    /// hands them out.
    fn table_entries(encoded: &[u8]) -> Vec<(u32, u32)> {
        let mut entries = Vec::new();
        parse_rans8_header(encoded, |sym, freq, _| entries.push((sym, freq))).unwrap();
        entries
    }

    #[test]
    fn rans8_run_table_streams_are_the_pair_table_streams_with_the_table_replaced() {
        let mut state = 0x7A_B1E5u64;
        let mut rng = move |m: u32| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) % u64::from(m)) as u32
        };
        // Quantisation-code shapes: a cluster around the radius whose width
        // follows the residual spread, sum-of-uniforms tails so the rare
        // codes leave holes (runs), at tile and field sizes.
        let mut codes = |n: usize, spread: u32| -> Vec<u32> {
            (0..n)
                .map(|_| 32_768 + rng(spread) + rng(spread) + rng(spread) - 3 * spread / 2)
                .collect()
        };
        let mut escape: Vec<u32> = (0..4096u32).map(|k| 32_768 - 20 + (k * 13) % 40).collect();
        escape[77] = 0;
        let cases: Vec<(&str, Vec<u32>)> = vec![
            ("empty", vec![]),
            ("one symbol", vec![5; 4096]),
            ("two symbols", vec![7, 9, 9, 7, 9]),
            ("two adjacent symbols", vec![7, 8, 8, 7, 8]),
            ("4096 distinct", (0..4096u32).map(|k| 9 + k.wrapping_mul(2_654_435) % 4096).collect()),
            ("4096 distinct, every other", (0..4096u32).map(|k| 2 * k).collect()),
            ("escape code", escape),
            ("sparse table mode", vec![0, u32::MAX, 123_456_789, 42, u32::MAX, 42, 0, 0, 7]),
            ("top of the range", vec![u32::MAX - 1, u32::MAX, u32::MAX - 3, u32::MAX]),
            ("tile, narrow", codes(4096, 12)),
            ("tile, wide", codes(4096, 700)),
            ("97 x 113, wide", codes(97 * 113, 300)),
            ("512 x 512", codes(512 * 512, 90)),
        ];
        let mut scratch = RansScratch::new();
        for (what, symbols) in &cases {
            let mut runs = Vec::new();
            rans8_encode_with(&mut scratch, symbols, &mut runs);
            let pairs = reference_rans8_encode_as(MODE_RANS8_PAIRS, symbols);
            assert_eq!((runs[0], pairs[0]), (MODE_RANS8, MODE_RANS8_PAIRS), "{what}");
            if symbols.is_empty() {
                assert_eq!(runs[1..], pairs[1..], "{what}");
            } else {
                let (runs_prefix, payload_len, lanes, payload) = split8(&runs);
                let (pairs_prefix, ..) = split8(&pairs);
                // Only the table differs: the count ahead of it and every
                // byte after it are the pair-table stream's.
                assert_eq!(join8(&pairs_prefix, payload_len, &lanes, &payload), pairs, "{what}");
                let (_, count_bytes) = read_varint(&runs[1..]).unwrap();
                assert_eq!(runs_prefix[1..1 + count_bytes], pairs_prefix[1..1 + count_bytes]);
                assert_eq!(table_entries(&runs), table_entries(&pairs), "{what}");
                // A run costs a byte more than a pair only where every
                // symbol is its own run; code-shaped alphabets pay about a
                // byte a symbol (two once a frequency passes 128) where a pair cost four.
                let (run_table, pair_table) = (
                    rans8_stream_info(&runs).unwrap().table_bytes,
                    rans8_stream_info(&pairs).unwrap().table_bytes,
                );
                assert!(run_table <= pair_table + table_entries(&runs).len(), "{what}");
                if what.contains(" x ") || what.starts_with("tile") {
                    assert!(2 * run_table < pair_table, "{what}: {run_table} of {pair_table}");
                }
            }
            for &level in crate::dispatch::supported_levels() {
                for stream in [&runs, &pairs] {
                    let mut decoded = Vec::new();
                    let used =
                        rans8_decode_with_at(&mut scratch, level, stream, &mut decoded).unwrap();
                    assert_eq!(used, stream.len(), "{what} {level:?}");
                    assert!(&decoded == symbols, "{what} {level:?}: round trip differs");
                }
            }
        }
    }

    #[test]
    fn rans8_stream_info_reads_what_the_decoder_reads() {
        let symbols: Vec<u32> = (0..4096u32).map(|k| 32_700 + (k * 7) % 150).collect();
        let runs = rans8_encode(&symbols);
        let pairs = reference_rans8_encode_as(MODE_RANS8_PAIRS, &symbols);
        let (info, old) = (rans8_stream_info(&runs).unwrap(), rans8_stream_info(&pairs).unwrap());
        assert_eq!((info.mode, old.mode), (MODE_RANS8, MODE_RANS8_PAIRS));
        assert_eq!((info.n_symbols, info.alphabet), (4096, table_entries(&runs).len()));
        assert_eq!(
            (old.n_symbols, old.alphabet, old.payload_bytes),
            (4096, info.alphabet, info.payload_bytes)
        );
        // A handful of runs at a byte a symbol against four bytes a pair.
        assert!(info.table_bytes < info.alphabet + 8 && old.table_bytes >= 4 * old.alphabet);
        assert_eq!(runs.len() - info.table_bytes, pairs.len() - old.table_bytes);
        // Mode byte + count + table + length header + lanes is the stream.
        let (prefix, _, _, payload) = split8(&runs);
        assert_eq!(info.payload_bytes, payload.len());
        assert_eq!(prefix.len(), 1 + 2 + info.table_bytes);

        let empty = rans8_stream_info(&rans8_encode(&[])).unwrap();
        assert_eq!(
            (empty.n_symbols, empty.alphabet, empty.table_bytes, empty.payload_bytes),
            (0, 0, 0, 0)
        );
        let wide = rans8_encode(&(0..5000u32).collect::<Vec<_>>());
        let info = rans8_stream_info(&wide).unwrap();
        assert_eq!(
            (info.mode, info.table_bytes, info.payload_bytes),
            (MODE_HUFF, 0, wide.len() - 1)
        );
        // The same refusals as the decoder's.
        assert_eq!(rans8_stream_info(&[]), Err(CodecError::UnexpectedEof));
        assert!(matches!(rans8_stream_info(&[0, 1]), Err(CodecError::Corrupt(_))));
        for cut in 1..runs.len() {
            assert_eq!(rans8_stream_info(&runs[..cut]).err(), rans8_decode(&runs[..cut]).err());
        }
    }

    #[test]
    fn rans8_tables_equal_their_per_symbol_division_definitions() {
        // `scale_count` against the `u128` division it replaced: totals that
        // are and are not powers of two, counts from 1 to the total, and
        // totals on both sides of the reciprocal's range.
        let totals = [
            1,
            2,
            3,
            4095,
            4096,
            4097,
            262_144,
            1_056_784,
            999_999_999_989,
            (1 << 40) + 1,
            RECIPROCAL_TOTAL_MAX - 1,
            RECIPROCAL_TOTAL_MAX,
            u64::MAX >> 1,
        ];
        for total in totals {
            let rcp = u64::MAX / total;
            let near = |x: u64| [x.saturating_sub(1), x, x + 1];
            let counts = [1, 2, 3, 7, 4095, 4096, total / 3, total / 2, total - 1, total]
                .into_iter()
                .flat_map(near)
                // Multiples of total / SCALE sit on the floor's steps.
                .chain((1..=64).flat_map(|k| near(total / 4096 * k * 64)));
            for count in counts.filter(|c| (1..=total).contains(c)) {
                let exact = ((u128::from(count) << SCALE_BITS) / u128::from(total)) as u32;
                assert_eq!(scale_count(count, total, rcp), exact, "{count} of {total}");
            }
        }
        // `EncSym::new` against the shift it used to find by a loop.
        for freq in 2..=SCALE {
            let mut shift = 0u32;
            while (1u64 << shift) < u64::from(freq) {
                shift += 1;
            }
            let sym = EncSym::new(17, freq);
            assert_eq!(sym.rcp_shift, shift - 1, "freq {freq}");
            assert_eq!(
                sym.rcp_freq,
                (1u64 << (shift + 31)).div_ceil(u64::from(freq)) as u32,
                "freq {freq}"
            );
        }
    }

    #[test]
    fn rans8_scratch_tables_are_all_zero_after_every_alphabet_shape() {
        // The scan path, the sort path (a far-away escape code), a span at
        // the dense limit and the Huffman fallback through one scratch: the
        // histogram and the dense index must be clean after each, or the
        // next stream's alphabet is wrong.
        let mut escape: Vec<u32> = (0..4096u32).map(|k| 32_768 - 20 + (k * 13) % 40).collect();
        escape[77] = 0;
        let cases: Vec<(&str, Vec<u32>)> = vec![
            ("single symbol", vec![5; 4096]),
            ("4096 distinct", (0..4096u32).map(|k| 9 + k.wrapping_mul(2_654_435) % 4096).collect()),
            ("escape code", escape),
            ("dense limit", vec![1, 1 << 21, 1, 2]),
            ("fallback", (0..5000u32).collect()),
        ];
        let mut scratch = RansScratch::new();
        for _ in 0..2 {
            for (what, symbols) in &cases {
                assert_matches_reference(&mut scratch, symbols, what);
                assert!(scratch.hist.iter().all(|&c| c == 0), "{what}: hist");
                assert!(scratch.dense_idx.iter().all(|&k| k == 0), "{what}: dense_idx");
            }
        }
    }

    #[test]
    fn rans8_lane_capacity_covers_the_worst_lane() {
        // Lanes are sized from the table: one byte per symbol plus a second
        // for every occurrence of a symbol rarer than `ONE_BYTE_FREQ`. An
        // undersized lane would panic on the renorm store's index, so each
        // case only has to encode — and equal the reference.
        let mut state = 0xCA9A_C17Fu64;
        let mut rng = move |m: u32| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) % u64::from(m)) as u32
        };
        // Every symbol at frequency 1: two bytes for most symbols.
        let mut all_rare: Vec<u32> = (0..4096u32).collect();
        for _ in 0..4 {
            let mirrored: Vec<u32> = all_rare.iter().rev().copied().collect();
            all_rare.extend(mirrored);
        }
        // Frequencies straddling the one-byte threshold (15, 16, 17 of 4096).
        let mut straddle = Vec::new();
        for (sym, weight) in [(1u32, 15usize), (2, 16), (3, 17), (4, 4048)] {
            straddle.extend(std::iter::repeat_n(sym, weight * 8));
        }
        for k in (1..straddle.len()).rev() {
            straddle.swap(k, rng(k as u32 + 1) as usize);
        }
        // Every rare occurrence on lane 0, the common symbol everywhere else.
        let one_lane: Vec<u32> =
            (0..8 * 3000u32).map(|i| if i % 8 == 0 { 100 + i / 8 } else { 7 }).collect();
        for (what, symbols) in
            [("all rare", all_rare), ("straddle", straddle), ("one lane", one_lane)]
        {
            let mut scratch = RansScratch::new();
            let mut encoded = Vec::new();
            rans8_encode_with(&mut scratch, &symbols, &mut encoded);
            assert!(encoded == reference_rans8_encode(&symbols), "{what}");
            let (_, _, lanes, _) = split8(&encoded);
            let (_, two_byte) = build_encode_tables(&mut scratch, &symbols).unwrap();
            let rare = scratch.alphabet.iter().zip(&scratch.freqs);
            let walked: u64 =
                rare.filter(|&(_, &f)| f < ONE_BYTE_FREQ).map(|(&(_, count), _)| count).sum();
            assert_eq!(two_byte, walked, "{what}: the count taken while the tables were built");
            let cap = lane_capacity(symbols.len(), two_byte) as u64;
            assert!(lanes.iter().all(|&l| l + 4 <= cap), "{what}: lanes {lanes:?}, capacity {cap}");
        }
    }

    #[test]
    fn rans8_codes_skew_below_huffman_and_dyadic_streams_within_a_percent() {
        // 99% zeros: Huffman pays ≥ 1 bit per symbol; rANS codes the hot
        // symbol at a fraction of a bit.
        let mut symbols = vec![0u32; 99_000];
        symbols.extend((0..1000).map(|i| (i % 17) as u32 + 1));
        let rans = roundtrip8(&symbols).len();
        let huff = crate::huffman_encode(&symbols).len();
        assert!(rans < huff / 4, "rans8 {rans} vs huffman {huff} bytes");
        // Dyadic (geometric, p = 1/2) frequencies are Huffman's best case:
        // the eight flushed states and the lane-length header must stay
        // marginal against it.
        let mut state = 0x777u64;
        let symbols: Vec<u32> = (0..100_000)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (state >> 33).trailing_zeros() % 24
            })
            .collect();
        let rans = roundtrip8(&symbols).len();
        let huff = crate::huffman_encode(&symbols).len();
        assert!(rans as f64 <= huff as f64 * 1.01 + 64.0, "rans8 {rans} vs huffman {huff} bytes");
    }
}
