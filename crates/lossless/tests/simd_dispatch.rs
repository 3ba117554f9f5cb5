//! Byte-identity gate for the runtime-dispatched rANS decoder.
//!
//! Every SIMD tier the host supports must decode exactly what the scalar
//! kernel decodes — same symbols, same consumed byte counts, same errors on
//! the same truncated inputs. The encoders (Huffman, rANS, LZ77) have one
//! scalar path each; their historical streams are pinned by
//! `bit_identity.rs`, and the rounding quantizer's tiers are compared in
//! `round`'s unit tests and the root `tests/simd_kernels.rs`.

use lcc_lossless::{rans8_decode_with_at, rans8_encode, supported_levels, RansScratch, SimdLevel};

fn lcg(state: &mut u64) -> u64 {
    *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    *state >> 33
}

#[test]
fn the_host_supports_at_least_the_scalar_tier() {
    let levels = supported_levels();
    assert_eq!(levels[0], SimdLevel::Scalar);
    assert!(!levels.is_empty());
}

#[test]
fn every_level_decodes_rans8_symbol_streams_identically() {
    // The decoder runs a different kernel per tier (scalar round-robin,
    // AVX2 gather + vector renorm); the decoded symbols and consumed byte
    // count must nonetheless be bit-identical.
    let mut state = 0xFEED_F00Du64;
    let inputs: Vec<Vec<u32>> = vec![
        Vec::new(),
        vec![0; 1],
        vec![7; 9], // one ragged round: lanes 0..1 hold 2 symbols, lanes 2..7 one
        vec![42; 50_000],
        (0..40_000).map(|_| (lcg(&mut state) % 700) as u32).collect(),
        (0..30_001).map(|_| lcg(&mut state).trailing_zeros()).collect(),
    ];
    let mut scratch = RansScratch::new();
    for (case, symbols) in inputs.iter().enumerate() {
        let encoded = rans8_encode(symbols);
        let mut reference = Vec::new();
        let consumed =
            rans8_decode_with_at(&mut scratch, SimdLevel::Scalar, &encoded, &mut reference)
                .unwrap();
        assert_eq!(&reference, symbols, "case {case}");
        assert_eq!(consumed, encoded.len(), "case {case}");
        for &level in &supported_levels()[1..] {
            let mut out = Vec::new();
            let c = rans8_decode_with_at(&mut scratch, level, &encoded, &mut out).unwrap();
            assert_eq!(out, reference, "case {case} at {level:?}");
            assert_eq!(c, consumed, "case {case} at {level:?}");
        }
    }
}

#[test]
fn every_level_fails_identically_on_truncated_rans8_streams() {
    let mut state = 0xBAD_C0DEu64;
    let symbols: Vec<u32> = (0..20_000).map(|_| (lcg(&mut state) % 300) as u32).collect();
    let encoded = rans8_encode(&symbols);
    let mut scratch = RansScratch::new();
    for cut in [encoded.len() / 4, encoded.len() / 2, encoded.len() - 1] {
        let truncated = &encoded[..cut];
        let mut out = Vec::new();
        let reference = rans8_decode_with_at(&mut scratch, SimdLevel::Scalar, truncated, &mut out)
            .map(|c| (c, std::mem::take(&mut out)));
        for &level in &supported_levels()[1..] {
            let mut out = Vec::new();
            let got = rans8_decode_with_at(&mut scratch, level, truncated, &mut out)
                .map(|c| (c, std::mem::take(&mut out)));
            match (&reference, &got) {
                (Err(a), Err(b)) => {
                    assert_eq!(format!("{a}"), format!("{b}"), "cut {cut} at {level:?}")
                }
                (Ok(a), Ok(b)) => assert_eq!(a, b, "cut {cut} at {level:?}"),
                _ => panic!("cut {cut} at {level:?}: scalar {reference:?} vs {got:?}"),
            }
        }
    }
}
