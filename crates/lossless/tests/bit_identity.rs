//! Bit-identity gate for the table-driven codec rewrite.
//!
//! `tests/fixtures/*.bin` were captured from the pre-refactor (PR 2)
//! `HashMap`-based Huffman encoder and byte-at-a-time LZ77 encoder. The
//! refactored, scratch-driven encoders must reproduce those streams **byte
//! for byte** — every compressor embeds these streams, so a silent encoding
//! change would invalidate all previously written archives and the
//! cross-compressor regression hashes in `tests/stream_identity.rs` (the
//! facade package).
//!
//! If a future PR intentionally changes the stream format, it must
//! regenerate the fixtures and say so loudly in its change log.
//!
//! PR 15 changed the LZ77 *encoder's policy* (miss-skipping, literal-run
//! fallback), not the token format: `lz77_incompressible.bin` was re-captured
//! and its old bytes live on as `lz77_incompressible_pre_skip.bin`, which must
//! decode while the token format is written (`FORMAT.md`'s policy). Encode
//! pins can move with the encoder; decode fixtures cannot.

use lcc_lossless::{
    huffman_decode, huffman_encode, huffman_encode_with, lz77_compress, lz77_compress_with,
    lz77_decompress, CodecScratch,
};

fn fixture(name: &str) -> Vec<u8> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("missing fixture {}: {e}", path.display()))
}

fn lcg(state: &mut u64) -> u64 {
    *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    *state >> 33
}

/// The inputs behind the Huffman fixtures, regenerated deterministically.
fn huffman_inputs() -> Vec<(&'static str, Vec<u32>)> {
    let mut out: Vec<(&'static str, Vec<u32>)> = vec![
        ("huffman_empty.bin", Vec::new()),
        ("huffman_single_symbol.bin", vec![7u32; 100]),
        ("huffman_two_symbols.bin", vec![0, 1, 0, 0, 1, 0, 0, 0, 1]),
        (
            "huffman_sparse_large.bin",
            vec![0u32, u32::MAX, 123_456_789, 42, u32::MAX, 42, 0, 0, 7, 7, 7],
        ),
    ];
    let mut state = 0x1234_5678u64;
    let skew: Vec<u32> = (0..20_000).map(|_| lcg(&mut state).trailing_zeros() % 24).collect();
    out.push(("huffman_geometric_skew.bin", skew));
    let mut state = 0x9E37_79B9u64;
    let wide: Vec<u32> = (0..3000).map(|_| (lcg(&mut state) & 0xFFFF) as u32).collect();
    out.push(("huffman_uniform_u16.bin", wide));
    out
}

/// The inputs behind the LZ77 fixtures.
fn lz77_inputs() -> Vec<(&'static str, Vec<u8>)> {
    let mut out: Vec<(&'static str, Vec<u8>)> = vec![
        ("lz77_empty.bin", Vec::new()),
        (
            "lz77_repetitive_text.bin",
            b"hello world, ".iter().copied().cycle().take(10_000).collect(),
        ),
        ("lz77_zero_run.bin", vec![0u8; 65_000]),
    ];
    let mut doubles = Vec::new();
    for i in 0..4096 {
        let v = (i / 16) as f64 * 0.125 + 1.0;
        doubles.extend_from_slice(&v.to_le_bytes());
    }
    out.push(("lz77_structured_doubles.bin", doubles));
    let mut s = 0x9E3779B97F4A7C15u64;
    let noise: Vec<u8> = (0..30_000)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s & 0xFF) as u8
        })
        .collect();
    out.push(("lz77_incompressible.bin", noise));
    out
}

#[test]
fn streams_of_the_every_byte_lz77_encoder_still_decode() {
    let (_, noise) = lz77_inputs().pop().expect("the incompressible input is last");
    let old = fixture("lz77_incompressible_pre_skip.bin");
    assert_eq!(old.len(), 30_013);
    assert_eq!(lz77_decompress(&old).expect("old stream"), noise);
}

#[test]
fn huffman_streams_match_pre_refactor_fixtures() {
    let mut scratch = CodecScratch::new();
    for (name, input) in huffman_inputs() {
        let expected = fixture(name);
        assert_eq!(huffman_encode(&input), expected, "{name}: fresh-scratch wrapper diverged");
        let mut with_out = Vec::new();
        huffman_encode_with(&mut scratch, &input, &mut with_out);
        assert_eq!(with_out, expected, "{name}: reused-scratch stream diverged");
        let (decoded, used) = huffman_decode(&expected).expect(name);
        assert_eq!(decoded, input, "{name}: fixture no longer decodes to its input");
        assert_eq!(used, expected.len(), "{name}: consumed length changed");
    }
}

#[test]
fn lz77_streams_match_pre_refactor_fixtures() {
    let mut scratch = CodecScratch::new();
    for (name, input) in lz77_inputs() {
        let expected = fixture(name);
        assert_eq!(lz77_compress(&input), expected, "{name}: fresh-scratch wrapper diverged");
        let mut with_out = Vec::new();
        lz77_compress_with(&mut scratch, &input, &mut with_out);
        assert_eq!(with_out, expected, "{name}: reused-scratch stream diverged");
        assert_eq!(
            lz77_decompress(&expected).expect(name),
            input,
            "{name}: fixture no longer decodes to its input"
        );
    }
}
