//! The rANS frequency table (stream mode 3, run-coded) under damage: every
//! truncation and single-byte flip of a tile-sized stream, and forged
//! `n_runs` / `gap` / `len` / `freq` varints, return a `CodecError` (or, for
//! a flip the format cannot see, some symbols) — never a panic, with the
//! largest allocation bounded by the input's length.

use lcc::lossless::{
    rans8_decode, rans8_decode_with_at, rans8_encode, rans8_stream_info, supported_levels,
    write_varint, CodecError, RansScratch, SimdLevel,
};

#[path = "common/alloc_probe.rs"]
mod alloc_probe;

#[global_allocator]
static ALLOC: alloc_probe::Probe = alloc_probe::Probe;

const MODE_RUNS: u8 = 3;

type Decoded = Result<(Vec<u32>, usize), CodecError>;

/// Decode into a fresh output vector (so a forged count would show as a
/// reservation), returning the largest allocation the decode asked for.
fn probed_decode(scratch: &mut RansScratch, level: SimdLevel, bytes: &[u8]) -> (Decoded, usize) {
    alloc_probe::largest_request_during(|| {
        let mut out = Vec::new();
        rans8_decode_with_at(scratch, level, bytes, &mut out).map(|used| (out, used))
    })
}

/// A 64 × 64 tile's worth of quantisation-like codes: a few hundred
/// consecutive symbols around the radius, holes in the tails.
fn tile_codes() -> Vec<u32> {
    let mut state = 0x711Eu64;
    let mut next = move |m: u64| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 33) % m) as u32
    };
    (0..4096).map(|_| 32_768 + next(260) + next(260) + next(260) - 390).collect()
}

/// The output reserve is a hint of at most 8 symbols per payload byte plus
/// 64, four bytes each; nothing else may scale with a count in the stream.
fn assert_bounded(largest: usize, stream: &[u8], what: &str) {
    assert!(
        largest <= 32 * stream.len() + 256,
        "{what}: a {largest}-byte allocation for a {}-byte stream",
        stream.len()
    );
}

#[test]
fn damaged_tile_streams_are_refused_without_panicking_or_reserving() {
    let symbols = tile_codes();
    let runs = rans8_encode(&symbols);
    let info = rans8_stream_info(&runs).unwrap();
    assert!(info.mode == MODE_RUNS && info.alphabet > 300, "{info:?}");
    let mut scratch = RansScratch::new();
    // Warm the decode tables so the probe sees the damaged stream's own asks.
    probed_decode(&mut scratch, SimdLevel::Scalar, &runs).0.expect("pristine stream");

    let mut damaged: Vec<Vec<u8>> = (0..runs.len()).map(|cut| runs[..cut].to_vec()).collect();
    for mask in [0x01u8, 0x80, 0xFF] {
        damaged.extend((0..runs.len()).map(|pos| {
            let mut bad = runs.clone();
            bad[pos] ^= mask;
            bad
        }));
    }
    // A flip may also land on another valid stream — a gap of the run table
    // can be any number, and integrity is the frame checksum's job — so the
    // contract for a flip is "an error or some symbols, the same at every
    // tier".
    let mut refused = 0;
    for (k, bad) in damaged.iter().enumerate() {
        let (reference, _) = probed_decode(&mut scratch, SimdLevel::Scalar, bad);
        refused += usize::from(reference.is_err());
        if k < runs.len() {
            assert!(reference.is_err(), "a {k}-byte prefix decoded");
        }
        for &level in supported_levels() {
            let (decoded, largest) = probed_decode(&mut scratch, level, bad);
            match (&decoded, &reference) {
                (Ok(a), Ok(b)) => assert_eq!(a, b, "{level:?}"),
                (Err(a), Err(b)) => assert_eq!(
                    std::mem::discriminant(a),
                    std::mem::discriminant(b),
                    "{level:?}: {a} against the scalar tier's {b}"
                ),
                _ => panic!("{level:?} returned {decoded:?}, scalar {reference:?}"),
            }
            assert_bounded(largest, bad, "damaged stream");
        }
        // The read-only header walk refuses what the decoder's refuses.
        if let Err(e) = rans8_stream_info(bad) {
            assert_eq!(reference.as_ref().err(), Some(&e), "damaged stream {k}");
        }
    }
    // Every truncation, and all but a few of the flips.
    assert!(refused * 10 >= damaged.len() * 9, "{refused} of {}", damaged.len());
}

#[test]
fn forged_run_table_varints_are_refused_without_reserving() {
    // n_symbols, then the table (n_runs − 1, then per run: gap, len − 1 and
    // len × (freq − 1)), then a payload of eight seed-only lanes.
    let forge = |n_symbols: u64, table: &[u64]| {
        let mut s = vec![MODE_RUNS];
        write_varint(&mut s, n_symbols);
        table.iter().for_each(|&v| write_varint(&mut s, v));
        write_varint(&mut s, 32);
        (0..8).for_each(|_| write_varint(&mut s, 4));
        (0..8).for_each(|_| s.extend_from_slice(&(1u32 << 23).to_le_bytes()));
        s
    };
    assert_eq!(rans8_decode(&forge(3, &[0, 7, 0, 4095])).unwrap().0, vec![7; 3], "the control");

    let max = u64::from(u32::MAX);
    let mut full_run = vec![0, 40_000, 4095];
    full_run.extend([0u64; 4096]);
    assert_eq!(rans8_stream_info(&forge(1 << 20, &full_run)).unwrap().alphabet, 4096);
    let mut past_full = vec![1, 40_000, 4095];
    past_full.extend([0u64; 4096]);
    past_full.extend([0, 0, 0]);
    // (what is forged, the table, what the refusal names)
    let forgeries: Vec<(&str, Vec<u64>, &str)> = vec![
        ("freqs sum to 4095", vec![0, 7, 1, 2047, 2046], "sum to 4095"),
        ("freqs sum to 4097", vec![0, 7, 1, 2047, 2048], "sum past 4096"),
        ("freq 4097", vec![0, 7, 0, 4096], "invalid rans frequency 4097"),
        ("freq 2^64", vec![0, 7, 0, u64::MAX], "invalid rans frequency"),
        ("a run after the sum is complete", vec![1, 7, 0, 4095, 0, 0, 0], "sum past 4096"),
        ("first symbol 2^32", vec![0, max + 1, 0, 4095], "exceeds the u32 range"),
        ("a gap past u32::MAX", vec![1, max, 0, 2047, 0, 0, 2047], "exceeds the u32 range"),
        ("a run past u32::MAX", vec![0, max, 1, 2047, 2047], "exceeds the u32 range"),
        (
            "a gap that overflows u64",
            vec![1, 7, 0, 2047, u64::MAX, 0, 2047],
            "exceeds the u32 range",
        ),
        ("a run of 4097", vec![0, 7, 4096], "more than 4096 symbols"),
        ("a run of 2^64", vec![0, 7, u64::MAX], "more than 4096 symbols"),
        ("runs of 2 + 4095", vec![1, 7, 1, 0, 0, 0, 4094], "more than 4096 symbols"),
        ("a 4097th symbol", past_full, "more than 4096 symbols"),
        ("4097 runs", vec![4096, 7, 0, 0], "runs"),
        ("2^64 runs", vec![u64::MAX, 7, 0, 0], "runs"),
        // Counts the bytes do not back: the walk runs into the lane header
        // and the seeds, and whatever it makes of them it reserves nothing.
        ("4096 runs over four bytes", vec![4095, 7, 0, 0], ""),
        ("a 4096-symbol run over two bytes", vec![0, 7, 4095, 0, 0], ""),
    ];
    let mut scratch = RansScratch::new();
    probed_decode(&mut scratch, SimdLevel::Scalar, &rans8_encode(&tile_codes())).0.unwrap();
    for (what, table, names) in &forgeries {
        let bad = forge(1 << 40, table);
        for &level in supported_levels() {
            let (decoded, largest) = probed_decode(&mut scratch, level, &bad);
            match decoded {
                Err(CodecError::Corrupt(msg)) => assert!(msg.contains(names), "{what}: {msg}"),
                Err(CodecError::UnexpectedEof) if names.is_empty() => {}
                other => panic!("{what} at {level:?}: {other:?}"),
            }
            assert_bounded(largest, &bad, what);
        }
        assert!(rans8_stream_info(&bad).is_err(), "{what}");
    }

    // A ten-byte varint whose tenth byte carries more than `u64`'s last bit,
    // in the count and in every table field; `[0xff; 9] + [0x01]` is
    // `u64::MAX` and is refused for what it claims instead.
    let fields = [3u64, 0, 7, 0, 4095];
    for forged in 0..fields.len() {
        for (tenth, overflows) in [(0x7fu8, true), (0x02, true), (0x01, false)] {
            let mut bad = vec![MODE_RUNS];
            for (k, &v) in fields.iter().enumerate() {
                if k == forged {
                    bad.extend_from_slice(&[0xff; 9]);
                    bad.push(tenth);
                } else {
                    write_varint(&mut bad, v);
                }
            }
            bad.extend_from_slice(&forge(0, &[])[2..]);
            let (decoded, largest) = probed_decode(&mut scratch, SimdLevel::Scalar, &bad);
            match decoded {
                Err(CodecError::Corrupt(msg)) => assert_eq!(
                    msg.contains("varint overflows u64"),
                    overflows,
                    "field {forged}, tenth byte {tenth:#04x}: {msg}"
                ),
                other => panic!("field {forged}, tenth byte {tenth:#04x}: {other:?}"),
            }
            assert_bounded(largest, &bad, "a ten-byte varint");
        }
    }
}
