//! Reusable working memory for the lossless coders.
//!
//! Every per-call allocation of the Huffman and LZ77 hot paths lives in a
//! [`CodecScratch`]: the dense histogram, the two queues and tree arrays of
//! the code-length construction, the flat canonical code tables, the decoder
//! LUT, the LZ77 hash-chain heads, and the bit/byte buffers. A caller that
//! compresses many streams (the SZ/ZFP/MGARD compressors, the sweep
//! scheduler's worker threads) creates one scratch and threads `&mut`
//! references through `*_with` codec entry points; every buffer is cleared
//! (never shrunk) between calls, so steady state performs no allocation.
//!
//! The scratch-free wrappers (`huffman_encode`, `lz77_compress`, …) simply
//! create a fresh scratch per call, so existing callers keep working and
//! produce byte-identical streams.

use crate::bitstream::BitWriter;

/// Sentinel for "no position" in the LZ77 hash chains.
pub(crate) const CHAIN_NIL: u32 = u32::MAX;

/// Largest `max_symbol − min_symbol` span for which the Huffman histogram
/// and code tables use dense `Vec`-indexed storage (the common case:
/// quantization codes cluster tightly around the zero-residual code). Wider
/// alphabets fall back to an open-addressed symbol map of the distinct
/// symbols only.
pub(crate) const DENSE_SPAN_MAX: usize = 1 << 21;

/// Open-addressed `u32 symbol → u32 slot` map with linear probing, used for
/// alphabets too sparse for the dense histogram. Slots are handed out in
/// insertion order, so parallel `Vec`s indexed by slot play the role the
/// dense arrays play for tight alphabets. All storage is reusable.
#[derive(Debug, Default)]
pub(crate) struct SymbolMap {
    /// `keys[i] == EMPTY_KEY` marks a free bucket; the probe value for a
    /// present key is `vals[i]`.
    keys: Vec<u32>,
    vals: Vec<u32>,
    len: usize,
}

/// Bucket marker for "empty". `u32::MAX` is a legal symbol, so occupancy is
/// tracked in `vals` instead: `vals[i] == u32::MAX` marks a free bucket and
/// slot indices are capped below it.
const FREE_SLOT: u32 = u32::MAX;

impl SymbolMap {
    /// Remove every entry, keeping capacity.
    pub fn clear(&mut self) {
        self.vals.fill(FREE_SLOT);
        self.len = 0;
    }

    /// Number of distinct symbols inserted.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Slot of `sym`, inserting the next slot index if absent. Returns
    /// `(slot, inserted)`.
    pub fn get_or_insert(&mut self, sym: u32) -> (u32, bool) {
        if self.vals.is_empty() || self.len * 4 >= self.vals.len() * 3 {
            self.grow();
        }
        let mask = self.vals.len() - 1;
        let mut i = Self::hash(sym) & mask;
        loop {
            if self.vals[i] == FREE_SLOT {
                let slot = self.len as u32;
                debug_assert!(slot < FREE_SLOT);
                self.keys[i] = sym;
                self.vals[i] = slot;
                self.len += 1;
                return (slot, true);
            }
            if self.keys[i] == sym {
                return (self.vals[i], false);
            }
            i = (i + 1) & mask;
        }
    }

    /// Slot of `sym`, if present.
    #[inline]
    pub fn get(&self, sym: u32) -> Option<u32> {
        if self.vals.is_empty() {
            return None;
        }
        let mask = self.vals.len() - 1;
        let mut i = Self::hash(sym) & mask;
        loop {
            if self.vals[i] == FREE_SLOT {
                return None;
            }
            if self.keys[i] == sym {
                return Some(self.vals[i]);
            }
            i = (i + 1) & mask;
        }
    }

    #[inline]
    fn hash(sym: u32) -> usize {
        (sym.wrapping_mul(2654435761) >> 7) as usize
    }

    fn grow(&mut self) {
        let new_cap = (self.vals.len() * 2).max(64);
        let old_keys = std::mem::take(&mut self.keys);
        let old_vals = std::mem::take(&mut self.vals);
        self.keys = vec![0; new_cap];
        self.vals = vec![FREE_SLOT; new_cap];
        self.len = 0;
        for (k, v) in old_keys.into_iter().zip(old_vals) {
            if v != FREE_SLOT {
                let mask = new_cap - 1;
                let mut i = Self::hash(k) & mask;
                while self.vals[i] != FREE_SLOT {
                    i = (i + 1) & mask;
                }
                self.keys[i] = k;
                self.vals[i] = v;
                self.len += 1;
            }
        }
    }
}

/// How the per-call symbol tables are addressed: densely by
/// `symbol − min_symbol`, or through the scratch's symbol map.
#[derive(Clone, Copy)]
pub(crate) enum TableMode {
    Dense { min: u32 },
    Sparse,
}

/// A dense alphabet whose value span is at most this many times the symbol
/// count is read off the histogram by an ordered scan; a wider one (a
/// cluster of codes plus a far-away escape code) would scan mostly zeros, so
/// its distinct symbols are collected while counting and sorted instead.
pub(crate) const SCAN_SPAN_PER_SYMBOL: usize = 4;

/// Histogram `symbols` into `scratch.alphabet` as `(symbol, count)` pairs
/// sorted by symbol, choosing dense or sparse table addressing by the
/// alphabet's value span. The first stage of both the Huffman and the rANS
/// coder, which runs it on the Huffman scratch it embeds. The dense `hist`
/// keeps its all-zero between-calls invariant (used entries are re-zeroed).
pub(crate) fn build_alphabet(scratch: &mut CodecScratch, symbols: &[u32]) -> TableMode {
    let CodecScratch { hist, sym_map, slot_counts, alphabet, .. } = scratch;
    let mut min = u32::MAX;
    let mut max = 0u32;
    for &s in symbols {
        min = min.min(s);
        max = max.max(s);
    }
    let span = (max - min) as usize + 1;
    alphabet.clear();

    if span <= DENSE_SPAN_MAX {
        if hist.len() < span {
            hist.resize(span, 0);
        }
        if span <= symbols.len().saturating_mul(SCAN_SPAN_PER_SYMBOL) {
            // Count, then walk the span in symbol order: the alphabet comes
            // out sorted, and a stream of a few thousand symbols does not
            // pay for a sort of a thousand pairs.
            for &s in symbols {
                hist[(s - min) as usize] += 1;
            }
            for (offset, count) in hist[..span].iter_mut().enumerate() {
                if *count != 0 {
                    alphabet.push((min + offset as u32, *count));
                    *count = 0; // restore the all-zero invariant
                }
            }
        } else {
            dense_alphabet_by_sort(hist, alphabet, symbols, min);
        }
        TableMode::Dense { min }
    } else {
        sym_map.clear();
        slot_counts.clear();
        for &s in symbols {
            let (slot, inserted) = sym_map.get_or_insert(s);
            if inserted {
                slot_counts.push(0);
                alphabet.push((s, 0));
            }
            slot_counts[slot as usize] += 1;
        }
        // Slots were handed out in insertion order, matching `alphabet`.
        debug_assert_eq!(sym_map.len(), alphabet.len());
        for (slot, entry) in alphabet.iter_mut().enumerate() {
            entry.1 = slot_counts[slot];
        }
        alphabet.sort_unstable_by_key(|&(sym, _)| sym);
        TableMode::Sparse
    }
}

/// The dense alphabet of `symbols` (all at least `min`, `hist` covering
/// their span) by collecting each symbol on its first count and sorting the
/// distinct ones: work in the alphabet's size, whatever its span. Re-zeroes
/// the `hist` entries it used.
fn dense_alphabet_by_sort(
    hist: &mut [u64],
    alphabet: &mut Vec<(u32, u64)>,
    symbols: &[u32],
    min: u32,
) {
    for &s in symbols {
        let idx = (s - min) as usize;
        if hist[idx] == 0 {
            alphabet.push((s, 0));
        }
        hist[idx] += 1;
    }
    alphabet.sort_unstable_by_key(|&(sym, _)| sym);
    for entry in alphabet.iter_mut() {
        let idx = (entry.0 - min) as usize;
        entry.1 = hist[idx];
        hist[idx] = 0; // restore the all-zero invariant
    }
}

/// Reusable buffers for every stage of the lossless hot path. See the
/// module documentation; the fields are crate-private — callers only create
/// the scratch and pass it to the `*_with` entry points.
#[derive(Debug, Default)]
pub struct CodecScratch {
    // ---- Huffman histogram ----
    /// Dense counts indexed by `symbol − min_symbol` (tight alphabets).
    /// Invariant: all-zero between calls (used entries are re-zeroed).
    pub(crate) hist: Vec<u64>,
    /// Sparse-path counts indexed by [`SymbolMap`] slot.
    pub(crate) slot_counts: Vec<u64>,
    /// Sparse-path symbol → slot map.
    pub(crate) sym_map: SymbolMap,
    /// `(symbol, count)` pairs sorted by symbol — the canonical alphabet
    /// enumeration the header is written from.
    pub(crate) alphabet: Vec<(u32, u64)>,

    // ---- Huffman code construction ----
    /// The leaf queue: leaves `k` (standing for `alphabet[k]`) sorted by
    /// `(count, k)`.
    pub(crate) leaves: Vec<u32>,
    /// The merged-node queue in creation order: `(weight, order)`, the order
    /// being the smallest leaf below the node.
    pub(crate) merged: Vec<(u64, u32)>,
    /// Children of merged node `k`, whose id is `alphabet.len() + k` (leaves
    /// are ids `< alphabet.len()`).
    pub(crate) children: Vec<(u32, u32)>,
    /// Depth of each merged node.
    pub(crate) depths: Vec<u32>,
    /// Code length per leaf, parallel to `alphabet`.
    pub(crate) lens: Vec<u32>,
    /// Alphabet indices in canonical `(length, symbol)` order, for the
    /// encoder's code assignment and the decoder's tables alike.
    pub(crate) canon: Vec<u32>,

    // ---- Huffman encode tables ----
    /// Dense `symbol − min_symbol` → code length (0 = absent).
    /// Invariant: all-zero between calls, so only `O(distinct)` entries are
    /// re-zeroed after an encode.
    pub(crate) enc_len: Vec<u8>,
    /// Dense `symbol − min_symbol` → canonical code. Entries are only
    /// meaningful where `enc_len` is non-zero (stale codes are never read).
    pub(crate) enc_code: Vec<u64>,
    /// Sparse slot → `(length, code)` pairs.
    pub(crate) slot_codes: Vec<(u32, u64)>,
    /// Payload bit writer.
    pub(crate) writer: BitWriter,

    // ---- Huffman decode tables ----
    /// Decoded `(symbol, length)` header entries.
    pub(crate) dec_lens: Vec<(u32, u32)>,
    /// Symbols in canonical `(length, symbol)` order.
    pub(crate) dec_syms: Vec<u32>,
    /// LUT: peeked prefix → symbol (parallel to `lut_len`).
    pub(crate) lut_sym: Vec<u32>,
    /// LUT: peeked prefix → code length (0 = longer than the LUT covers).
    pub(crate) lut_len: Vec<u8>,

    // ---- LZ77 hash chains ----
    /// Hash bucket → most recent position.
    pub(crate) head: Vec<u32>,
    /// Position → previous position in the same bucket.
    pub(crate) prev: Vec<u32>,
}

impl CodecScratch {
    /// Create an empty scratch; buffers grow on first use and are then
    /// recycled across calls.
    pub fn new() -> Self {
        CodecScratch::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symbol_map_assigns_slots_in_insertion_order() {
        let mut m = SymbolMap::default();
        assert_eq!(m.get_or_insert(700), (0, true));
        assert_eq!(m.get_or_insert(0), (1, true));
        assert_eq!(m.get_or_insert(u32::MAX), (2, true));
        assert_eq!(m.get_or_insert(700), (0, false));
        assert_eq!(m.len(), 3);
        assert_eq!(m.get(0), Some(1));
        assert_eq!(m.get(u32::MAX), Some(2));
        assert_eq!(m.get(1), None);
    }

    #[test]
    fn symbol_map_survives_growth_and_clear() {
        let mut m = SymbolMap::default();
        for i in 0..10_000u32 {
            let (slot, inserted) = m.get_or_insert(i * 7919);
            assert_eq!(slot, i);
            assert!(inserted);
        }
        for i in 0..10_000u32 {
            assert_eq!(m.get(i * 7919), Some(i));
        }
        m.clear();
        assert_eq!(m.len(), 0);
        assert_eq!(m.get(7919), None);
        let (slot, inserted) = m.get_or_insert(7919);
        assert_eq!((slot, inserted), (0, true));
    }

    /// `build_alphabet` on a fresh scratch next to two oracles: a
    /// `BTreeMap` count and, for dense spans, the collect-and-sort path. The
    /// dense histogram must come back all-zero.
    fn assert_alphabet(symbols: &[u32], scans: bool, what: &str) {
        let mut scratch = CodecScratch::new();
        scratch.alphabet = vec![(9, 9)]; // stale content must not survive
        let mode = build_alphabet(&mut scratch, symbols);
        let CodecScratch { hist, alphabet, .. } = &mut scratch;
        let mut counted = std::collections::BTreeMap::new();
        for &s in symbols {
            *counted.entry(s).or_insert(0u64) += 1;
        }
        assert!(*alphabet == counted.into_iter().collect::<Vec<_>>(), "{what}: alphabet differs");
        assert!(hist.iter().all(|&c| c == 0), "{what}: hist left dirty");
        let (min, max) = (alphabet[0].0, alphabet[alphabet.len() - 1].0);
        let span = (max - min) as usize + 1;
        assert_eq!(matches!(mode, TableMode::Dense { .. }), span <= DENSE_SPAN_MAX, "{what}");
        if let TableMode::Dense { min: mode_min } = mode {
            assert_eq!(mode_min, min, "{what}");
            assert_eq!(span <= symbols.len() * SCAN_SPAN_PER_SYMBOL, scans, "{what}: wrong path");
            let mut sorted = Vec::new();
            dense_alphabet_by_sort(hist, &mut sorted, symbols, min);
            assert!(sorted == *alphabet, "{what}: scan and sort paths disagree");
            assert!(hist.iter().all(|&c| c == 0), "{what}: sort path left hist dirty");
        }
    }

    #[test]
    fn alphabet_scan_path_equals_the_sort_path() {
        assert_alphabet(&[77; 4096], true, "single symbol");
        assert_alphabet(&[u32::MAX], true, "one symbol at the top of the range");
        let distinct: Vec<u32> =
            (0..4096u32).map(|k| 32_768 + k.wrapping_mul(2_654_435) % 4096).collect();
        assert_alphabet(&distinct, true, "4096 distinct symbols in 4096");

        // A span exactly at the scan threshold, and one past it.
        let n = 1000usize;
        let mut at: Vec<u32> = (0..n as u32).map(|k| 500 + (k * 7) % 900).collect();
        at[0] = 500;
        at[1] = 500 + (n * SCAN_SPAN_PER_SYMBOL) as u32 - 1;
        assert_alphabet(&at, true, "span at the threshold");
        at[1] += 1;
        assert_alphabet(&at, false, "span one past the threshold");

        // The widest dense span, and the first sparse one.
        assert_alphabet(&[3, 3 + DENSE_SPAN_MAX as u32 - 1, 3, 4], false, "span at DENSE_SPAN_MAX");
        assert_alphabet(&[3, 3 + DENSE_SPAN_MAX as u32, 3, 4], false, "first sparse span");

        // A 40-symbol cluster of codes and the escape code 2^15 below it.
        let mut cluster: Vec<u32> = (0..4096u32).map(|k| 32_768 - 20 + (k * 13) % 40).collect();
        cluster[1234] = 0;
        assert_alphabet(&cluster, false, "escape code far from the cluster");
    }

    #[test]
    fn alphabet_buffers_are_reusable_across_paths() {
        // One set of buffers through the scan, sort and sparse paths in turn:
        // each call must see the all-zero histogram the last one left.
        let mut scratch = CodecScratch::new();
        let inputs: [&[u32]; 5] =
            [&[5, 6, 5, 9], &[1, 100_000, 1], &[0, u32::MAX, 0], &[7; 9], &[2, 1, 0, 1, 2, 2]];
        for symbols in inputs.iter().cycle().take(15) {
            build_alphabet(&mut scratch, symbols);
            let mut sorted = symbols.to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            let counts = |s: u32| symbols.iter().filter(|&&x| x == s).count() as u64;
            let expected: Vec<(u32, u64)> = sorted.iter().map(|&s| (s, counts(s))).collect();
            assert_eq!(scratch.alphabet, expected);
            assert!(scratch.hist.iter().all(|&c| c == 0));
        }
    }
}
