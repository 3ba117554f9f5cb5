//! Property-based tests (proptest) on the core data structures and
//! invariants that everything else depends on:
//!
//! * lossless coders are exact inverses on arbitrary inputs,
//! * the lossy compressors never exceed the requested absolute bound on
//!   arbitrary fields and always reproduce the field shape,
//! * the variogram and summary statistics obey their mathematical
//!   invariants (non-negativity, symmetry in the inputs, etc.), and the
//!   side-by-side summary kernel gives each view the bits of its own
//!   summary.

use lcc::grid::{stats, Field2D, FieldView, Summary};
use lcc::lossless::{
    huffman_decode, huffman_decode_with, huffman_encode, huffman_encode_with, lz77_compress,
    lz77_compress_with, lz77_decompress, rans8_decode, rans8_decode_with, rans8_encode,
    rans8_encode_with, write_varint, CodecScratch, RansScratch,
};
use lcc::mgard::MgardCompressor;
use lcc::pressio::{Compressor, ErrorBound};
use lcc::sz::SzCompressor;
use lcc::zfp::ZfpCompressor;
use proptest::prelude::*;

/// The most an LZ77 stream over `n` input bytes may weigh: the length varint
/// plus one literal run of the whole input (`0x00, varint n, n bytes`).
fn lz77_stored_len(n: usize) -> usize {
    let mut varint = Vec::new();
    write_varint(&mut varint, n as u64);
    n + 1 + 2 * varint.len()
}

/// The payload the outer LZ77 pass of the 512² a = 40 GRF field's `mgard`
/// stream sees is Huffman output with few repeats: token framing used to grow
/// it by 4 %.
#[test]
fn lz77_does_not_expand_the_mgard_payload_of_a_long_range_field() {
    let field =
        lcc::synth::generate_single_range(&lcc::synth::GaussianFieldConfig::new(512, 512, 40.0, 7));
    let stream = MgardCompressor::default()
        .compress_view(&field.view(), ErrorBound::Absolute(1e-3))
        .unwrap();
    let payload = lz77_decompress(&stream).expect("the `LMG1` container is LZ77-wrapped");
    assert!(stream.len() <= lz77_stored_len(payload.len()), "{} > {}", stream.len(), payload.len());
}

/// 100 000 random Huffman sections — flat, Zipf-like and geometric counts,
/// dense, MGARD-like and scattered symbol values, up to 2^20 distinct
/// symbols (and codes past 20 bits) in every 2 500th — each coded through
/// one warm scratch and through fresh ones: the same bytes, the input back,
/// the whole stream consumed, and a cut stream refused alike.
#[cfg(feature = "slow-tests")]
#[test]
fn huffman_sections_round_trip_through_a_warm_scratch_over_a_long_sweep() {
    let mut state = 0x243F_6A88_85A3_08D3u64;
    let mut below = move |bound: u64| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 11) % bound
    };
    let mut scratch = CodecScratch::new();
    let (mut encoded, mut decoded) = (Vec::new(), Vec::new());
    for section in 0..100_000u32 {
        let (distinct, len) = if section % 2500 == 0 {
            (1 + below(1 << 20), 1 << 20)
        } else {
            let span = 1 << (1 + below(13));
            (1 + below(span), 1 + below(3000) as usize)
        };
        let (skew, values) = (below(3), below(3));
        let symbols: Vec<u32> = (0..len)
            .map(|_| {
                let rank = match skew {
                    0 => below(distinct),
                    // Zipf-like: a log-uniform rank.
                    1 => {
                        (distinct as f64).powf(below(1 << 20) as f64 / (1 << 20) as f64) as u64 - 1
                    }
                    // Geometric: a rank of r - 1 one time in 2^r.
                    _ => u64::from((below(u64::MAX >> 11) | 1 << 52).trailing_zeros()),
                }
                .min(distinct - 1);
                match values {
                    0 => rank as u32,
                    1 if rank == 0 => 0,
                    1 => (1 << 30) + rank as u32,
                    _ => (rank as u32).wrapping_mul(0x9E37_79B9),
                }
            })
            .collect();
        encoded.clear();
        huffman_encode_with(&mut scratch, &symbols, &mut encoded);
        assert!(encoded == huffman_encode(&symbols), "section {section}: warm-scratch bytes");
        let used = huffman_decode_with(&mut scratch, &encoded, &mut decoded);
        assert_eq!(used, Ok(encoded.len()), "section {section}");
        assert!(decoded == symbols, "section {section}: decoded symbols");
        assert_eq!(huffman_decode(&encoded).map(|(_, used)| used), Ok(encoded.len()));
        let cut = below(encoded.len() as u64) as usize;
        let warm = huffman_decode_with(&mut scratch, &encoded[..cut], &mut decoded);
        assert!(warm.is_err(), "section {section}: a {cut}-byte cut decoded");
        assert_eq!(
            warm,
            huffman_decode(&encoded[..cut]).map(|(_, used)| used),
            "section {section}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn huffman_roundtrips_arbitrary_symbol_streams(symbols in proptest::collection::vec(0u32..5000, 0..4000)) {
        let encoded = huffman_encode(&symbols);
        let (decoded, consumed) = huffman_decode(&encoded).expect("decode");
        prop_assert_eq!(decoded, symbols);
        prop_assert_eq!(consumed, encoded.len());
    }

    #[test]
    fn lz77_roundtrips_arbitrary_bytes(data in proptest::collection::vec(any::<u8>(), 0..20_000)) {
        let compressed = lz77_compress(&data);
        let back = lz77_decompress(&compressed).expect("decode");
        prop_assert_eq!(back, data);
    }

    /// "Compression is never harmful": noise and entropy-coded payloads ship
    /// as one literal run at worst.
    #[test]
    fn lz77_never_expands_past_one_literal_run(
        noise in proptest::collection::vec(any::<u8>(), 0..20_000),
        symbols in proptest::collection::vec(0u32..10_000, 0..4000),
    ) {
        for input in [noise, huffman_encode(&symbols)] {
            let compressed = lz77_compress(&input);
            prop_assert!(compressed.len() <= lz77_stored_len(input.len()));
            prop_assert_eq!(lz77_decompress(&compressed).expect("decode"), input);
        }
    }

    /// Degenerate alphabet: any symbol value, any multiplicity — the
    /// explicitly documented n_distinct == 1 path (length-1 code, one
    /// placeholder bit per symbol).
    #[test]
    fn huffman_single_symbol_alphabet_roundtrips(sym in any::<u32>(), count in 0usize..3000) {
        let symbols = vec![sym; count];
        let encoded = huffman_encode(&symbols);
        let (decoded, used) = huffman_decode(&encoded).expect("decode");
        prop_assert_eq!(decoded, symbols);
        prop_assert_eq!(used, encoded.len());
    }

    /// Uniform draw over the full 2^16 alphabet: wide, flat histograms give
    /// the deepest canonical codes, past the decoder's pair table.
    #[test]
    fn huffman_uniform_u16_alphabet_roundtrips(symbols in proptest::collection::vec(0u32..65_536, 0..6000)) {
        let encoded = huffman_encode(&symbols);
        let (decoded, used) = huffman_decode(&encoded).expect("decode");
        prop_assert_eq!(decoded, symbols);
        prop_assert_eq!(used, encoded.len());
    }

    /// Geometric skew (exponentially decaying symbol frequencies): produces
    /// strongly unbalanced trees — short hot codes next to long cold ones,
    /// both decoder paths in one stream.
    #[test]
    fn huffman_geometric_skew_roundtrips(seed in any::<u64>(), n in 0usize..8000, offset in 0u32..1000) {
        let mut state = seed | 1;
        let symbols: Vec<u32> = (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                offset + (state.trailing_zeros() % 20)
            })
            .collect();
        let encoded = huffman_encode(&symbols);
        let (decoded, used) = huffman_decode(&encoded).expect("decode");
        prop_assert_eq!(decoded, symbols);
        prop_assert_eq!(used, encoded.len());
    }

    /// The scratch-reusing entry points must emit the exact bytes of the
    /// fresh-scratch wrappers on arbitrary inputs — the property behind the
    /// fixture-pinned bit-identity suite in `crates/lossless/tests`.
    #[test]
    fn scratch_reuse_is_byte_identical_on_arbitrary_streams(
        symbols in proptest::collection::vec(0u32..10_000, 0..4000),
        bytes in proptest::collection::vec(any::<u8>(), 0..8000),
    ) {
        let mut scratch = CodecScratch::new();
        let mut huff = Vec::new();
        huffman_encode_with(&mut scratch, &symbols, &mut huff);
        prop_assert_eq!(&huff, &huffman_encode(&symbols));
        let mut decoded = Vec::new();
        let used = huffman_decode_with(&mut scratch, &huff, &mut decoded).expect("decode");
        prop_assert_eq!(decoded, symbols);
        prop_assert_eq!(used, huff.len());

        let mut lz = Vec::new();
        lz77_compress_with(&mut scratch, &bytes, &mut lz);
        prop_assert_eq!(&lz, &lz77_compress(&bytes));
        prop_assert_eq!(lz77_decompress(&lz).expect("decode"), bytes);
    }

    /// rANS degenerate alphabet: any symbol value, any multiplicity. The
    /// full-scale frequency makes the encode step the identity, so the
    /// stream (header plus the eight seed states) must stay tiny regardless
    /// of the count.
    #[test]
    fn rans_single_symbol_alphabet_roundtrips(sym in any::<u32>(), count in 0usize..3000) {
        let symbols = vec![sym; count];
        let encoded = rans8_encode(&symbols);
        let (decoded, used) = rans8_decode(&encoded).expect("decode");
        prop_assert_eq!(decoded, symbols);
        prop_assert_eq!(used, encoded.len());
        prop_assert!(encoded.len() < 64, "degenerate stream is {} bytes", encoded.len());
    }

    /// Uniform draw over the full 2^16 alphabet: flat histograms with (at
    /// larger sizes) more distinct symbols than the 12-bit table holds, so
    /// both the normalized-table path and the embedded-Huffman fallback run.
    #[test]
    fn rans_uniform_u16_alphabet_roundtrips(symbols in proptest::collection::vec(0u32..65_536, 0..6000)) {
        let encoded = rans8_encode(&symbols);
        let (decoded, used) = rans8_decode(&encoded).expect("decode");
        prop_assert_eq!(decoded, symbols);
        prop_assert_eq!(used, encoded.len());
    }

    /// Geometric skew (exponentially decaying symbol frequencies): hot
    /// symbols code below one bit — the regime where rANS beats Huffman.
    #[test]
    fn rans_geometric_skew_roundtrips(seed in any::<u64>(), n in 0usize..8000, offset in 0u32..1000) {
        let mut state = seed | 1;
        let symbols: Vec<u32> = (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                offset + (state.trailing_zeros() % 20)
            })
            .collect();
        let encoded = rans8_encode(&symbols);
        let (decoded, used) = rans8_decode(&encoded).expect("decode");
        prop_assert_eq!(decoded, symbols);
        prop_assert_eq!(used, encoded.len());
    }

    /// The scratch-reusing rANS entry points must emit the exact bytes of
    /// the fresh-scratch wrappers on arbitrary inputs.
    #[test]
    fn rans_scratch_reuse_is_byte_identical_on_arbitrary_streams(
        symbols in proptest::collection::vec(0u32..10_000, 0..4000),
    ) {
        let mut scratch = RansScratch::new();
        let mut encoded = Vec::new();
        rans8_encode_with(&mut scratch, &symbols, &mut encoded);
        prop_assert_eq!(&encoded, &rans8_encode(&symbols));
        let mut decoded = Vec::new();
        let used = rans8_decode_with(&mut scratch, &encoded, &mut decoded).expect("decode");
        prop_assert_eq!(decoded, symbols);
        prop_assert_eq!(used, encoded.len());
    }

    #[test]
    fn summary_statistics_invariants(values in proptest::collection::vec(-1e6f64..1e6, 1..500)) {
        let s = lcc::grid::Summary::of(&values);
        prop_assert!(s.min <= s.mean + 1e-9);
        prop_assert!(s.mean <= s.max + 1e-9);
        prop_assert!(s.variance >= 0.0);
        prop_assert_eq!(s.count, values.len());
        // Pearson of a slice with itself is 1 (or 0 for constant slices).
        let r = stats::pearson(&values, &values);
        prop_assert!(r == 0.0 || (r - 1.0).abs() < 1e-9);
    }
}

/// The serial two-pass loop every summary used to be, `f64::min` /
/// `f64::max` and all: the bits the archive's tile statistics have always
/// carried.
fn serial_summary_bits(view: &FieldView<'_>) -> [u64; 4] {
    let (mut min, mut max, mut sum) = (f64::INFINITY, f64::NEG_INFINITY, 0.0);
    for v in view.iter() {
        min = min.min(v);
        max = max.max(v);
        sum += v;
    }
    let mean = sum / view.len() as f64;
    let mut ssq = 0.0;
    for v in view.iter() {
        let d = v - mean;
        ssq += d * d;
    }
    [min, max, mean, ssq / view.len() as f64].map(f64::to_bits)
}

fn summary_bits(s: &Summary) -> [u64; 4] {
    [s.min, s.max, s.mean, s.variance].map(f64::to_bits)
}

/// A value of class `class`: 0 ordinary, 1 a signed zero or a small integer
/// (ties of `±0.0` in min and max), 2 subnormal, 3 near `±1.7e308` (sums
/// overflow).
fn summary_value(class: u64, r: u64) -> f64 {
    let sign = if r & 1 == 0 { 1.0 } else { -1.0 };
    let unit = (r >> 11) as f64 / (1u64 << 53) as f64;
    match class {
        0 => sign * 1e3 * unit,
        1 => sign * ((r >> 1) % 3) as f64,
        2 => sign * f64::MIN_POSITIVE * unit,
        _ => sign * (1.7e308 - 1e307 * unit),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn side_by_side_summaries_are_each_views_own_bit_for_bit(
        group in 1usize..9,
        ny in 1usize..24,
        nx in 1usize..24,
        shape in 0u8..4,
        mix in 0u64..5,
        seed in any::<u64>(),
    ) {
        // Random shapes, 1 × N, N × 1, and prime sides.
        const PRIMES: [usize; 6] = [2, 3, 7, 13, 17, 31];
        let (ny, nx) = match shape {
            0 => (ny, nx),
            1 => (1, ny * nx),
            2 => (ny * nx, 1),
            _ => (PRIMES[ny % 6], PRIMES[nx % 6]),
        };
        // One class of value throughout, or (mix 4) every class mixed.
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        // The views side by side in one row of a parent, as a run of tiles
        // is, with a ragged column to their right.
        let field = Field2D::from_fn(ny, group * nx + 1, |_, _| {
            let r = next();
            summary_value(if mix == 4 { (r >> 60) & 3 } else { mix }, r)
        });
        let views: Vec<FieldView<'_>> =
            (0..group).map(|g| field.view().subview(0, g * nx, ny, nx)).collect();
        let summaries: Vec<Summary> = Summary::side_by_side(&views).collect();
        prop_assert_eq!(summaries.len(), group);
        for (s, view) in summaries.iter().zip(&views) {
            prop_assert_eq!(s.count, ny * nx);
            prop_assert_eq!(summary_bits(s), summary_bits(&view.summary()));
            prop_assert_eq!(summary_bits(s), serial_summary_bits(view));
            prop_assert_eq!(summary_bits(s), summary_bits(&Summary::of(view.to_field().as_slice())));
        }
    }
}

proptest! {
    // Lossy compressor properties use fewer, smaller cases: each case runs
    // three full compress/decompress cycles.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn lossy_compressors_respect_bounds_on_arbitrary_fields(
        ny in 5usize..40,
        nx in 5usize..40,
        seed in 0u64..1000,
        eb_exp in -5i32..-1,
        amplitude in 0.01f64..100.0,
    ) {
        let eb = 10f64.powi(eb_exp);
        let mut state = seed | 1;
        let field = Field2D::from_fn(ny, nx, |i, j| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let noise = (state as f64 / u64::MAX as f64) - 0.5;
            amplitude * ((i as f64 * 0.3).sin() + (j as f64 * 0.2).cos() + 0.3 * noise)
        });
        let compressors: Vec<Box<dyn Compressor>> = vec![
            Box::new(SzCompressor::default()),
            Box::new(ZfpCompressor::default()),
            Box::new(MgardCompressor::default()),
        ];
        for compressor in &compressors {
            let result = compressor.compress(&field, ErrorBound::Absolute(eb)).expect("compress");
            prop_assert_eq!(result.reconstruction.shape(), (ny, nx));
            prop_assert!(
                result.metrics.max_abs_error <= eb,
                "{} exceeded eb {}: {}", compressor.name(), eb, result.metrics.max_abs_error
            );
        }
    }

    #[test]
    fn variogram_range_is_positive_and_finite_on_arbitrary_smooth_fields(
        seed in 0u64..200,
        scale in 0.05f64..0.8,
    ) {
        let field = Field2D::from_fn(48, 48, |i, j| {
            ((i as f64) * scale).sin() + ((j as f64) * scale * 0.7).cos() + (seed as f64 * 1e-3)
        });
        let fit = lcc::geostat::estimate_range_view(&field.view(), &Default::default());
        prop_assert!(fit.range.is_finite());
        prop_assert!(fit.range > 0.0);
        prop_assert!(fit.sill >= 0.0);
    }
}
