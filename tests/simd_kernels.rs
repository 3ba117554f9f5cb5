//! Property-based bit-identity tests for the runtime-dispatched SIMD
//! kernels: on *arbitrary* inputs, every SIMD tier the host supports must
//! produce exactly the bytes/bits the scalar kernel produces — compressed
//! streams, decoded symbols, transform coefficients, quantizer codes and
//! reconstructions. Fixed seeds and hand-picked edge
//! cases live in the per-crate suites; this file lets proptest hunt for
//! divergence in the corners nobody thought to pin.

use lcc::lossless::round::quantize_rounded_at;
use lcc::lossless::{
    lz77_compress_with_at, lz77_decompress, rans8_decode_with_at, rans8_encode, supported_levels,
    CodecScratch, RansScratch, SimdLevel,
};
use lcc::sz::quantize::{quantize_plane_row_at, Quantizer};
use lcc::zfp::transform::{fwd_transform_batch_at, inv_transform_batch_at};
use lcc::zfp::BLOCK_LEN;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn lz77_streams_are_level_invariant(data in proptest::collection::vec(any::<u8>(), 0..20_000)) {
        let mut scratch = CodecScratch::new();
        let mut reference = Vec::new();
        lz77_compress_with_at(&mut scratch, SimdLevel::Scalar, &data, &mut reference);
        prop_assert_eq!(lz77_decompress(&reference).expect("roundtrip"), data);
        for &level in &supported_levels()[1..] {
            let mut out = Vec::new();
            lz77_compress_with_at(&mut scratch, level, &data, &mut out);
            prop_assert_eq!(&out, &reference);
        }
    }

    #[test]
    fn rans8_decode_is_level_invariant(symbols in proptest::collection::vec(0u32..5000, 0..30_000)) {
        // The 8-way stream has two decode paths (the scalar round-robin and
        // the AVX2 gathered/vector-renorm kernel) plus a careful tail;
        // proptest hunts for length/alphabet corners where they could
        // diverge.
        let mut scratch = RansScratch::new();
        let encoded = rans8_encode(&symbols);
        for &level in supported_levels() {
            let mut out = Vec::new();
            let consumed = rans8_decode_with_at(&mut scratch, level, &encoded, &mut out)
                .expect("well-formed stream");
            prop_assert_eq!(&out, &symbols);
            prop_assert_eq!(consumed, encoded.len());
        }
    }

    #[test]
    fn zfp_transforms_are_level_invariant(
        coeffs in proptest::collection::vec(
            -(1i64 << 40)..(1i64 << 40),
            5 * BLOCK_LEN..5 * BLOCK_LEN + 1,
        ),
    ) {
        let blocks: Vec<[i64; BLOCK_LEN]> =
            coeffs.chunks_exact(BLOCK_LEN).map(|c| c.try_into().expect("exact length")).collect();
        let mut scalar_fwd = blocks.clone();
        fwd_transform_batch_at(SimdLevel::Scalar, &mut scalar_fwd);
        let mut scalar_inv = scalar_fwd.clone();
        inv_transform_batch_at(SimdLevel::Scalar, &mut scalar_inv);
        prop_assert_eq!(&scalar_inv, &blocks);
        for &level in &supported_levels()[1..] {
            // One batch of five blocks, and five batches of one.
            let mut batch = blocks.clone();
            let mut single = blocks.clone();
            fwd_transform_batch_at(level, &mut batch);
            single.chunks_mut(1).for_each(|b| fwd_transform_batch_at(level, b));
            prop_assert_eq!(&batch, &scalar_fwd);
            prop_assert_eq!(&single, &scalar_fwd);

            inv_transform_batch_at(level, &mut batch);
            single.chunks_mut(1).for_each(|b| inv_transform_batch_at(level, b));
            prop_assert_eq!(&batch, &scalar_inv);
            prop_assert_eq!(&single, &scalar_inv);
        }
    }

    #[test]
    fn rounding_quantizer_equals_libm_round_at_every_level(
        // Arbitrary bit patterns (NaN payloads, ±∞, subnormals) next to
        // values a few bins from zero and exact half-bin ties: the shared
        // round-without-libm sequence must reproduce `f64::round` — and the
        // escape rule of the loop it replaced — at every tier.
        raw in proptest::collection::vec(any::<u64>(), 0..200),
        bin_sel in 0usize..4,
        radius_sel in 0usize..4,
    ) {
        let bin = [1e-3, 0.25, 1e-300, 7e299][bin_sel];
        let radius = [0u32, 16, 1 << 15, 1 << 30][radius_sel];
        let values: Vec<f64> = raw
            .iter()
            .map(|&r| match r % 4 {
                0 => f64::from_bits(r),
                1 => ((r >> 8) % 64) as f64 * bin * 0.5 - 8.0 * bin,
                _ => ((r >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * bin * 40.0,
            })
            .collect();
        let (mut ref_codes, mut ref_exact) = (Vec::new(), Vec::new());
        for &c in &values {
            let q = (c / bin).round();
            if !q.is_finite() || q.abs() as i64 >= i64::from(radius) - 1 {
                ref_codes.push(0);
                ref_exact.push(c.to_bits());
            } else {
                ref_codes.push((q as i64 + i64::from(radius)) as u32);
            }
        }
        for &level in supported_levels() {
            let (mut codes, mut exact) = (Vec::new(), Vec::new());
            quantize_rounded_at(level, &values, bin, radius, &mut codes, &mut exact);
            prop_assert_eq!(&codes, &ref_codes);
            prop_assert_eq!(exact.iter().map(|x| x.to_bits()).collect::<Vec<_>>(), ref_exact.clone());
        }
    }

    #[test]
    fn sz_plane_quantizer_is_level_invariant(
        // Residual structure spanning the quantizer's regimes: values near
        // the prediction (predictable), spikes far outside the code range
        // (exact fallback), and non-finite cells (always exact). The AVX2
        // path must agree with scalar bit for bit on every one, including
        // the NaN payloads carried through `exact`.
        raw_cells in proptest::collection::vec(any::<u64>(), 0..96),
        plane in proptest::collection::vec(-100.0f64..100.0, 3..4),
        di in 0usize..16,
        eb_sel in 0usize..3,
    ) {
        let error_bound = [1e-6, 1e-3, 0.5][eb_sel];
        let quantizer = Quantizer::new(error_bound, 1 << 15);
        let plane: [f64; 3] = plane.try_into().expect("exact length");
        let pred0 = plane[0] + plane[1] * di as f64;
        // Offset the residuals from the row's predictions so "near zero"
        // residual cases actually exercise the predictable path; each raw
        // draw picks a regime by its low bits and a magnitude from the rest.
        let orig: Vec<f64> = raw_cells
            .iter()
            .enumerate()
            .map(|(j, &raw)| {
                let unit = (raw >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
                let cell = match raw % 10 {
                    0..=4 => unit * 20.0 - 10.0,  // near the prediction
                    5 | 6 => (unit - 0.5) * 2e9,  // far outside the code range
                    7 => f64::NAN,
                    8 => f64::INFINITY,
                    _ => f64::NEG_INFINITY,
                };
                pred0 + plane[2] * j as f64 + cell
            })
            .collect();

        let mut ref_recon = vec![0.0; orig.len()];
        let mut ref_codes = Vec::new();
        let mut ref_exact = Vec::new();
        quantize_plane_row_at(
            SimdLevel::Scalar, &quantizer, &plane, di,
            &orig, &mut ref_recon, &mut ref_codes, &mut ref_exact,
        );
        for &level in &supported_levels()[1..] {
            let mut recon = vec![0.0; orig.len()];
            let mut codes = Vec::new();
            let mut exact = Vec::new();
            quantize_plane_row_at(
                level, &quantizer, &plane, di,
                &orig, &mut recon, &mut codes, &mut exact,
            );
            prop_assert_eq!(&codes, &ref_codes);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&exact), bits(&ref_exact));
            prop_assert_eq!(bits(&recon), bits(&ref_recon));
        }
    }
}

// ---- rANS streams the size of one archive tile ------------------------------
//
// A 64 × 64 tile is 4 096 symbols in eight lanes of a few hundred bytes:
// shorter than one full-size unchecked chunk of the dispatched decoder, so
// these streams are where its chunk sizing, its hand-over to the checked
// loop and the `n mod 8` tail all meet. The scalar tier (the checked
// round-robin loop alone) is the oracle.

#[path = "common/alloc_probe.rs"]
mod alloc_probe;

#[global_allocator]
static ALLOC: alloc_probe::Probe = alloc_probe::Probe;

/// `n` seeded symbols over `alphabet` values, geometrically skewed so a
/// lane costs between a fraction of a bit and ~10 bits per symbol.
fn skewed_symbols(n: usize, alphabet: u32, seed: u64) -> Vec<u32> {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    (0..n)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let u = (state >> 11) as f64 / (1u64 << 53) as f64;
            match alphabet {
                2 => u32::from(u < 0.02),
                // Mostly geometric, with a uniform tenth so all 46 values occur.
                46 if u < 0.1 => (state >> 3) as u32 % 46,
                46 => (-u.ln() * 2.5) as u32 % 46,
                _ => (u * f64::from(alphabet)) as u32,
            }
        })
        .collect()
}

type Decoded = Result<(Vec<u32>, usize), lcc::lossless::CodecError>;

/// Decode at one tier into a fresh output vector (so a forged count would
/// show as a reservation), returning the largest allocation it asked for.
fn decode_at(scratch: &mut RansScratch, level: SimdLevel, bytes: &[u8]) -> (Decoded, usize) {
    alloc_probe::largest_request_during(|| {
        let mut out = Vec::new();
        rans8_decode_with_at(scratch, level, bytes, &mut out).map(|used| (out, used))
    })
}

#[test]
fn rans8_short_streams_decode_identically_at_every_tier() {
    let mut scratch = RansScratch::new();
    let mut shortest_lane_stream = usize::MAX;
    let mut longest_lane_stream = 0;
    for alphabet in [2u32, 46, 1000] {
        for n in (0..=1100).chain([4096]) {
            let symbols = skewed_symbols(n, alphabet, u64::from(alphabet) + n as u64);
            let encoded = rans8_encode(&symbols);
            shortest_lane_stream = shortest_lane_stream.min(encoded.len());
            longest_lane_stream = longest_lane_stream.max(encoded.len());
            for &level in supported_levels() {
                let (decoded, _) = decode_at(&mut scratch, level, &encoded);
                let (out, used) = decoded.unwrap_or_else(|e| {
                    panic!("{level:?}: {n} symbols over {alphabet} values: {e}")
                });
                assert_eq!(used, encoded.len(), "{level:?}: {n} symbols over {alphabet} values");
                assert_eq!(out, symbols, "{level:?}: {n} symbols over {alphabet} values");
            }
        }
    }
    // The sweep really spans seed-only lanes to lanes of several hundred bytes.
    assert!(shortest_lane_stream < 64 && longest_lane_stream > 8 * 500);
}

#[test]
fn rans8_damaged_tile_streams_fail_identically_at_every_tier() {
    let symbols = skewed_symbols(4096, 46, 7);
    let encoded = rans8_encode(&symbols);
    assert!(encoded.len() < 8 * 256, "lanes must be shorter than a full unchecked chunk");
    let mut scratch = RansScratch::new();
    // Warm the decode tables so the probe sees the damaged stream's own asks.
    decode_at(&mut scratch, SimdLevel::Scalar, &encoded).0.expect("pristine stream");

    let mut damaged: Vec<Vec<u8>> = (0..encoded.len()).map(|cut| encoded[..cut].to_vec()).collect();
    for mask in [0x01u8, 0xFF] {
        damaged.extend((0..encoded.len()).map(|pos| {
            let mut bad = encoded.clone();
            bad[pos] ^= mask;
            bad
        }));
    }
    let mut rejected = 0;
    for bad in &damaged {
        let (reference, _) = decode_at(&mut scratch, SimdLevel::Scalar, bad);
        rejected += usize::from(reference.is_err());
        for &level in supported_levels() {
            let (decoded, largest) = decode_at(&mut scratch, level, bad);
            // Same symbols and length, or the same error class.
            match (&decoded, &reference) {
                (Ok(a), Ok(b)) => assert_eq!(a, b, "{level:?}"),
                (Err(a), Err(b)) => assert_eq!(
                    std::mem::discriminant(a),
                    std::mem::discriminant(b),
                    "{level:?}: {a} against the scalar tier's {b}"
                ),
                _ => panic!("{level:?} returned {decoded:?}, the scalar tier {reference:?}"),
            }
            // The output reserve is a hint of at most 8 symbols per payload
            // byte plus 64, four bytes each; nothing else scales with a count.
            assert!(
                largest <= 32 * bad.len() + 256,
                "{level:?}: a {largest}-byte allocation for a {}-byte stream",
                bad.len()
            );
        }
    }
    assert!(rejected >= encoded.len(), "every truncation, at least, is refused");
}
