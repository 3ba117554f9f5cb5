//! Byte-identity gate for the runtime-dispatched SIMD kernels.
//!
//! Every SIMD tier the host supports must reproduce the scalar kernels'
//! bytes exactly — same compressed streams, same decoded symbols, same
//! digests, same errors on the same truncated inputs. The fixture checks
//! additionally pin the SIMD encoders to the historical stream format: the
//! `tests/fixtures/*.bin` streams were captured long before the SIMD pass
//! existed, so a vector path that drifted from the scalar match/emit
//! decisions would fail here before it could invalidate archives.

use lcc_lossless::{
    lz77_compress_with_at, lz77_decompress, rans8_decode_with_at, rans8_encode, supported_levels,
    xxh64_at, CodecScratch, RansScratch, SimdLevel,
};

fn fixture(name: &str) -> Vec<u8> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("missing fixture {}: {e}", path.display()))
}

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

/// Inputs with known fixture streams, regenerated deterministically (same
/// generators as `bit_identity.rs`).
fn lz77_fixture_inputs() -> Vec<(&'static str, Vec<u8>)> {
    vec![
        (
            "lz77_repetitive_text.bin",
            b"hello world, ".iter().copied().cycle().take(10_000).collect(),
        ),
        ("lz77_zero_run.bin", vec![0u8; 65_000]),
    ]
}

#[test]
fn every_level_reproduces_the_lz77_fixture_streams() {
    let mut scratch = CodecScratch::new();
    for (name, input) in lz77_fixture_inputs() {
        let expected = fixture(name);
        for &level in supported_levels() {
            let mut out = Vec::new();
            lz77_compress_with_at(&mut scratch, level, &input, &mut out);
            assert_eq!(out, expected, "{name} at {level:?}");
        }
    }
}

#[test]
fn every_level_compresses_mixed_entropy_bytes_identically() {
    // Stretches of literal-heavy noise, long matches, and near-match data
    // (period-one-off repeats) — the cases where a SIMD comparator that
    // mis-located a mismatch byte would change the token stream.
    let mut state = 0xD15_BA7C4u64;
    let mut data = Vec::with_capacity(48_000);
    for _ in 0..8_000 {
        data.push(lcg(&mut state) as u8);
    }
    data.extend(std::iter::repeat_n(0xABu8, 9_000));
    for i in 0..16_000u32 {
        data.push((i % 251) as u8);
    }
    for i in 0..15_000u32 {
        // Period 97 with sparse corruption: long matches that end at
        // unpredictable offsets.
        let b = (i % 97) as u8;
        data.push(if i % 1013 == 0 { b ^ 0x55 } else { b });
    }

    let mut scratch = CodecScratch::new();
    let mut reference = Vec::new();
    lz77_compress_with_at(&mut scratch, SimdLevel::Scalar, &data, &mut reference);
    assert_eq!(lz77_decompress(&reference).unwrap(), data);
    for &level in &supported_levels()[1..] {
        let mut out = Vec::new();
        lz77_compress_with_at(&mut scratch, level, &data, &mut out);
        assert_eq!(out, reference, "{level:?}");
    }
}

#[test]
fn every_level_decodes_rans8_symbol_streams_identically() {
    // The decoder runs a different kernel per tier (scalar
    // round-robin, SSE4 8-chain, AVX2 gather + vector renorm); the decoded
    // symbols and consumed byte count must nonetheless be bit-identical.
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

#[test]
fn every_level_hashes_identically() {
    let mut state = 0xABCD_EF01u64;
    for n in [0usize, 1, 31, 32, 33, 4_096, 100_003] {
        let data: Vec<u8> = (0..n).map(|_| lcg(&mut state) as u8).collect();
        let reference = xxh64_at(SimdLevel::Scalar, &data, 0);
        for &level in &supported_levels()[1..] {
            assert_eq!(xxh64_at(level, &data, 0), reference, "n={n} at {level:?}");
        }
    }
}
