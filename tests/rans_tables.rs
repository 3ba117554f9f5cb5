//! The rANS frequency table, run-coded (stream mode 3) against the pair
//! table it replaced (mode 2, decode-only):
//!
//! * **transcoding identity** — a mode-3 stream is the mode-2 stream of the
//!   same symbols with only the table section replaced. Checked on the codes
//!   sections of real `sz-rans8` / `mgard-rans8` streams over the study's
//!   families at 64², 97 × 113 (where the transcoded stream must be, byte for
//!   byte, the stream the parent commit wrote: `tests/fixtures/*_pair_table.bin`)
//!   and 512², and on the alphabet shapes the alphabet builder distinguishes;
//!   both forms decode to the same symbols at every SIMD tier.
//! * **damage** — every truncation and single-byte flip of a tile-sized
//!   stream, in both forms, and forged `n_runs` / `gap` / `len` / `freq`
//!   varints return a `CodecError` (or, for a flip the format cannot see, some
//!   symbols) — never a panic, with the largest allocation bounded by the
//!   input's length.
//!
//! The pair-table writer itself survives as the `#[cfg(test)]` oracle of
//! `lcc_lossless::rans`; here it is re-derived from the stream (`to_pair_table`).

use lcc::core::registry::entropy_ablation_registry;
use lcc::grid::{Field2D, FieldView, WindowIter};
use lcc::hydro::{MirandaProxy, MirandaProxyConfig, Problem};
use lcc::lossless::{
    rans8_decode, rans8_decode_with_at, rans8_encode, rans8_stream_info, read_varint,
    supported_levels, write_varint, CodecError, RansScratch, SimdLevel,
};
use lcc::pressio::ErrorBound;
use lcc::synth::{
    generate_multi_range, generate_single_range, GaussianFieldConfig, MultiRangeConfig,
};

#[path = "common/alloc_probe.rs"]
mod alloc_probe;
#[path = "common/container.rs"]
mod container;
#[path = "common/fields.rs"]
mod fields;

#[global_allocator]
static ALLOC: alloc_probe::Probe = alloc_probe::Probe;

const MODE_PAIRS: u8 = 2;
const MODE_RUNS: u8 = 3;

fn varint_at(bytes: &[u8], at: &mut usize) -> u64 {
    let (value, used) = read_varint(&bytes[*at..]).expect("well-formed varint");
    *at += used;
    value
}

/// The mode-2 stream of a mode-3 stream: the table rewritten as `varint
/// alphabet_size (varint symbol, varint freq)*`, every other byte kept.
/// Mode-1 (Huffman fallback) and empty streams have no table to rewrite.
fn to_pair_table(runs: &[u8]) -> Vec<u8> {
    if runs[0] != MODE_RUNS {
        return runs.to_vec();
    }
    let mut at = 1;
    let n_symbols = varint_at(runs, &mut at);
    let mut out = vec![MODE_PAIRS];
    write_varint(&mut out, n_symbols);
    if n_symbols == 0 {
        return out;
    }
    let mut pairs = Vec::new();
    let mut next = 0u64;
    for _ in 0..=varint_at(runs, &mut at) {
        let first = next + varint_at(runs, &mut at);
        let len = varint_at(runs, &mut at) + 1;
        for sym in first..first + len {
            pairs.push((sym, varint_at(runs, &mut at) + 1));
        }
        next = first + len + 1;
    }
    write_varint(&mut out, pairs.len() as u64);
    for (sym, freq) in pairs {
        write_varint(&mut out, sym);
        write_varint(&mut out, freq);
    }
    out.extend_from_slice(&runs[at..]);
    out
}

/// Decode at every supported tier; all must agree. Returns the symbols.
fn decode_at_every_tier(stream: &[u8], what: &str) -> Vec<u32> {
    let mut scratch = RansScratch::new();
    let mut reference = Vec::new();
    let used = rans8_decode_with_at(&mut scratch, SimdLevel::Scalar, stream, &mut reference)
        .unwrap_or_else(|e| panic!("{what}: {e}"));
    assert_eq!(used, stream.len(), "{what}");
    for &level in supported_levels() {
        let mut out = Vec::new();
        let used = rans8_decode_with_at(&mut scratch, level, stream, &mut out)
            .unwrap_or_else(|e| panic!("{what} at {level:?}: {e}"));
        assert_eq!(used, stream.len(), "{what} at {level:?}");
        assert!(out == reference, "{what}: {level:?} decodes other symbols than the scalar tier");
    }
    reference
}

/// The transcoding identity on one symbol stream; returns `(mode-3 bytes,
/// mode-2 bytes)`.
fn assert_transcodes(symbols: &[u32], what: &str) -> (usize, usize) {
    let runs = rans8_encode(symbols);
    let pairs = to_pair_table(&runs);
    assert!(decode_at_every_tier(&runs, what) == symbols, "{what}: mode 3 round trip");
    assert!(decode_at_every_tier(&pairs, what) == symbols, "{what}: mode 2 round trip");
    if runs[0] == MODE_RUNS && !symbols.is_empty() {
        let (new, old) = (rans8_stream_info(&runs).unwrap(), rans8_stream_info(&pairs).unwrap());
        assert_eq!((new.mode, old.mode), (MODE_RUNS, MODE_PAIRS), "{what}");
        assert_eq!((new.n_symbols, new.alphabet), (old.n_symbols, old.alphabet), "{what}");
        assert_eq!(new.payload_bytes, old.payload_bytes, "{what}");
        // Only the table moved: the count ahead of it and every byte after
        // it are the same.
        let table_at = 1 + read_varint(&runs[1..]).unwrap().1;
        assert_eq!(runs[1..table_at], pairs[1..table_at], "{what}");
        assert!(
            runs[table_at + new.table_bytes..] == pairs[table_at + old.table_bytes..],
            "{what}: bytes after the table differ"
        );
    }
    (runs.len(), pairs.len())
}

#[test]
fn alphabet_shapes_transcode_to_the_pair_table_stream() {
    let mut escape: Vec<u32> = (0..4096u32).map(|k| 32_768 - 20 + (k * 13) % 40).collect();
    escape[77] = 0;
    let cases: Vec<(&str, Vec<u32>)> = vec![
        ("empty", vec![]),
        ("one symbol", vec![5; 4096]),
        ("two symbols", vec![7, 9, 9, 7, 9]),
        ("two adjacent symbols", vec![7, 8, 8, 7, 8]),
        ("4096 distinct", (0..4096u32).map(|k| 9 + k.wrapping_mul(2_654_435) % 4096).collect()),
        ("4096 distinct, none adjacent", (0..4096u32).map(|k| 3 * k).collect()),
        ("a far escape code", escape),
        ("sparse table mode", vec![0, u32::MAX, 123_456_789, 42, u32::MAX, 42, 0, 0, 7]),
        ("dense limit", vec![1, 1 << 21, 1, 2]),
        ("top of the u32 range", vec![u32::MAX - 1, u32::MAX, u32::MAX - 3, u32::MAX]),
        ("huffman fallback", (0..5000u32).collect()),
    ];
    for (what, symbols) in &cases {
        assert_transcodes(symbols, what);
    }
}

/// The study's families at side `n`: single-range and two-range Gaussian
/// fields and a Miranda-proxy `velocityx` slice.
fn families(n: usize) -> Vec<(String, Field2D)> {
    let slice = MirandaProxy::new(MirandaProxyConfig {
        ny: n,
        nx: n,
        n_slices: 1,
        steps_between_snapshots: 3,
        problem: Problem::KelvinHelmholtz,
        seed: 11,
    })
    .generate_velocityx_slices()
    .remove(0);
    vec![
        (format!("grf-a2@{n}"), generate_single_range(&GaussianFieldConfig::new(n, n, 2.0, 1))),
        (format!("grf-a16@{n}"), generate_single_range(&GaussianFieldConfig::new(n, n, 16.0, 2))),
        (
            format!("grf-a2+24@{n}"),
            generate_multi_range(&MultiRangeConfig::two_ranges(n, n, 2.0, 24.0, 5)),
        ),
        (format!("miranda-vx@{n}"), slice),
    ]
}

/// The identity on a real stream: its codes section transcodes, the codes
/// re-encode to the section, and the container around the transcoded section
/// reconstructs the same field. Returns the transcoded container.
fn assert_stream_transcodes(name: &str, view: &FieldView<'_>, eb: f64, what: &str) -> Vec<u8> {
    let registry = entropy_ablation_registry();
    let compressor = registry.get(name).expect("registered compressor");
    let stream = compressor.compress_view(view, ErrorBound::Absolute(eb)).expect("compress");
    let mut expanded = Vec::new();
    // A rANS container is raw, so nothing is expanded.
    let parts = container::open(name, &stream, &mut expanded);
    let section = parts.section;
    let codes = decode_at_every_tier(section, what);
    assert!(rans8_encode(&codes) == section, "{what}: the section is not the codes' stream");
    let (new, old) = assert_transcodes(&codes, what);
    assert!(new <= old + 1, "{what}: {new} bytes run-coded, {old} as pairs");
    let transcoded = container::reassemble(name, &parts, &to_pair_table(section));
    assert_eq!(
        compressor.decompress_field(&transcoded).expect("pair-table stream decodes"),
        compressor.decompress_field(&stream).expect("run-table stream decodes"),
        "{what}: reconstructions differ"
    );
    transcoded
}

#[test]
fn family_streams_transcode_to_the_pair_table_stream() {
    // 97 × 113: the transcoded stream is the parent commit's stream.
    let fixtures = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let pinned = fields::pinned_field();
    for name in ["sz-rans8", "mgard-rans8"] {
        for (eb, tag) in [(1e-2, "1e-2"), (1e-4, "1e-4")] {
            let what = format!("{name}@{tag} on the pinned field");
            let transcoded = assert_stream_transcodes(name, &pinned.view(), eb, &what);
            let old = std::fs::read(fixtures.join(format!("{name}_{tag}_pair_table.bin"))).unwrap();
            assert!(transcoded == old, "{what}: not the stream written before mode 3");
        }
    }
    // 64² (every tile of a 128² field, as an archive cuts it) and 512².
    for (family, field) in families(128) {
        let view = field.view();
        for w in WindowIter::over(128, 128, 64, 64) {
            let what = format!("{family} tile at ({}, {})", w.i0, w.j0);
            assert_stream_transcodes("sz-rans8", &view.window(&w), 1e-3, &what);
            assert_stream_transcodes("mgard-rans8", &view.window(&w), 1e-3, &what);
        }
    }
    for (family, field) in families(512) {
        for name in ["sz-rans8", "mgard-rans8"] {
            assert_stream_transcodes(name, &field.view(), 1e-3, &format!("{name} on {family}"));
        }
    }
}

// ---- damage ------------------------------------------------------------------

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

    for (form, encoded) in [("run table", runs.clone()), ("pair table", to_pair_table(&runs))] {
        let mut damaged: Vec<Vec<u8>> =
            (0..encoded.len()).map(|cut| encoded[..cut].to_vec()).collect();
        for mask in [0x01u8, 0x80, 0xFF] {
            damaged.extend((0..encoded.len()).map(|pos| {
                let mut bad = encoded.clone();
                bad[pos] ^= mask;
                bad
            }));
        }
        // A flip may also land on another valid stream — a gap of the run
        // table, like a symbol of the pair table, can be any number, and
        // integrity is the frame checksum's job — so the contract for a flip
        // is "an error or some symbols, the same at every tier".
        let mut refused = 0;
        for (k, bad) in damaged.iter().enumerate() {
            let (reference, _) = probed_decode(&mut scratch, SimdLevel::Scalar, bad);
            refused += usize::from(reference.is_err());
            if k < encoded.len() {
                assert!(reference.is_err(), "{form}: a {k}-byte prefix decoded");
            }
            for &level in supported_levels() {
                let (decoded, largest) = probed_decode(&mut scratch, level, bad);
                match (&decoded, &reference) {
                    (Ok(a), Ok(b)) => assert_eq!(a, b, "{form} {level:?}"),
                    (Err(a), Err(b)) => assert_eq!(
                        std::mem::discriminant(a),
                        std::mem::discriminant(b),
                        "{form} {level:?}: {a} against the scalar tier's {b}"
                    ),
                    _ => panic!("{form}: {level:?} returned {decoded:?}, scalar {reference:?}"),
                }
                assert_bounded(largest, bad, form);
            }
            // The read-only header walk refuses what the decoder's refuses.
            if let Err(e) = rans8_stream_info(bad) {
                assert_eq!(reference.as_ref().err(), Some(&e), "{form}: damaged stream {k}");
            }
        }
        // Every truncation, and all but a few of the flips.
        assert!(refused * 10 >= damaged.len() * 9, "{form}: {refused} of {}", damaged.len());
    }
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
