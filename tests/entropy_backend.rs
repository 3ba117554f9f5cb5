//! Entropy-backend ablation invariants across the whole stack:
//!
//! * the Huffman and 8-way rANS backends of SZ and MGARD decode to
//!   **bit-identical** fields (the entropy stage is lossless, so only
//!   size/speed may differ),
//! * every stream self-describes its backend — either compressor variant
//!   decodes the other's output, standalone and through the framed container,
//! * the rANS stream tags harden against corruption the same way the PR 4
//!   corrupt-frame suite pinned the `LCCF` header: truncated frequency
//!   tables, frequencies that do not sum to `1 << 12`, unknown backend/mode
//!   bytes and forged giant headers all surface `CompressError` with
//!   allocation bounded by the actual stream,
//! * every retired form `FORMAT.md` lists (SZ `LSR1`, MGARD `LMR1`, ZFP
//!   container tags 1–3, rANS mode bytes 0 and 2, `LCCF` row bands, the
//!   `LCCF` frame without digests, and the one-tile inner stream as a frame
//!   payload) is refused the same way, by a message that names it, never
//!   mis-decoded.

use lcc::core::experiment::{run_sweep, SweepConfig};
use lcc::core::registry::entropy_ablation_registry;
use lcc::grid::Field2D;
use lcc::mgard::MgardCompressor;
use lcc::pressio::{
    frame, CompressError, Compressor, ErrorBound, FrameIndex, FrameScratch, ScratchArena,
    FRAME_MAGIC,
};
use lcc::sz::SzCompressor;
use lcc::zfp::ZfpCompressor;
use lcc_par::ThreadPoolConfig;

fn wavy(ny: usize, nx: usize, seed: u64) -> Field2D {
    let mut state = seed | 1;
    Field2D::from_fn(ny, nx, |i, j| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let noise = (state as f64 / u64::MAX as f64) - 0.5;
        (i as f64 * 0.05).sin() * 2.0 + (j as f64 * 0.04).cos() + 0.05 * noise
    })
}

/// Huffman-baseline vs rans8-variant pairs of the two codecs with an entropy
/// stage, so each pair-driven invariant below (bit-identical decode,
/// cross-decode, scratch stability, framing, truncation) covers the whole
/// backend axis.
fn backend_pairs() -> Vec<(Box<dyn Compressor>, Box<dyn Compressor>)> {
    vec![
        (Box::new(SzCompressor::default()), Box::new(SzCompressor::rans8())),
        (Box::new(MgardCompressor::default()), Box::new(MgardCompressor::rans8())),
    ]
}

#[test]
fn backends_decode_bit_identically_and_cross_decode() {
    let field = wavy(96, 83, 7);
    for (huff, rans) in backend_pairs() {
        for eb in [1e-5, 1e-3] {
            let a = huff.compress(&field, ErrorBound::Absolute(eb)).unwrap();
            let b = rans.compress(&field, ErrorBound::Absolute(eb)).unwrap();
            assert!(
                b.metrics.max_abs_error <= eb,
                "{} violated eb={eb}: {}",
                rans.name(),
                b.metrics.max_abs_error
            );
            assert_eq!(
                a.reconstruction,
                b.reconstruction,
                "{}/{} decode differently at eb={eb}",
                huff.name(),
                rans.name()
            );
            // Self-describing streams: either instance decodes either stream.
            assert_eq!(huff.decompress_field(&b.stream).unwrap(), b.reconstruction);
            assert_eq!(rans.decompress_field(&a.stream).unwrap(), a.reconstruction);
        }
    }
}

#[test]
fn scratch_reuse_is_bit_stable_across_backends() {
    // One arena serving both backends of every codec, repeatedly: streams
    // and decodes must not drift as buffers are recycled across variants.
    let field = wavy(64, 64, 11);
    let bound = ErrorBound::Absolute(1e-3);
    let mut arena = ScratchArena::new();
    let mut out = Field2D::zeros(1, 1);
    for (huff, rans) in backend_pairs() {
        let reference_h = huff.compress_view(&field.view(), bound).unwrap();
        let reference_r = rans.compress_view(&field.view(), bound).unwrap();
        for round in 0..3 {
            let h = huff.compress_view_with(&field.view(), bound, &mut arena).unwrap();
            let r = rans.compress_view_with(&field.view(), bound, &mut arena).unwrap();
            assert_eq!(h, reference_h, "{} round {round}", huff.name());
            assert_eq!(r, reference_r, "{} round {round}", rans.name());
            rans.decompress_view_with(&h, &mut arena, &mut out).unwrap();
            let from_huff = out.clone();
            huff.decompress_view_with(&r, &mut arena, &mut out).unwrap();
            assert_eq!(from_huff, out, "{} round {round}", rans.name());
        }
    }
}

#[test]
fn framed_container_carries_rans_variants() {
    let field = wavy(131, 67, 3);
    let bound = ErrorBound::Absolute(1e-3);
    let pool = ThreadPoolConfig::with_threads(3);
    let decode = |compressor: &dyn Compressor, stream: &[u8]| {
        let mut out = Field2D::zeros(1, 1);
        let scratch = &mut FrameScratch::new();
        frame::decompress_framed_with(compressor, stream, pool, scratch, &mut out).map(|()| out)
    };
    for (huff, rans) in backend_pairs() {
        let mut scratch = FrameScratch::new();
        // Multi-block frame over the rANS variant round-trips and matches
        // the Huffman variant's decode bit for bit.
        let framed_r =
            frame::compress_framed_with(rans.as_ref(), &field.view(), bound, 4, pool, &mut scratch)
                .unwrap();
        let framed_h =
            frame::compress_framed_with(huff.as_ref(), &field.view(), bound, 4, pool, &mut scratch)
                .unwrap();
        assert_eq!(framed_r[..4], FRAME_MAGIC);
        let dec_r = decode(rans.as_ref(), &framed_r).unwrap();
        let dec_h = decode(huff.as_ref(), &framed_h).unwrap();
        assert_eq!(dec_r, dec_h, "{} framed decode differs", rans.name());

        // A single block is a one-tile frame around the raw rANS container,
        // byte for byte.
        let single =
            frame::compress_framed_with(rans.as_ref(), &field.view(), bound, 1, pool, &mut scratch)
                .unwrap();
        let index = FrameIndex::parse(&single, single.len()).unwrap();
        assert_eq!(index.n_blocks(), 1);
        let (at, len) = index.block_span(0);
        let raw = rans.compress_view(&field.view(), bound).unwrap();
        assert_eq!(single[at..at + len], raw[..], "{}", rans.name());
        // Its decode equals the direct single-stream decode (framed
        // multi-block decodes differ legitimately: predictors do not see
        // across block seams).
        assert_eq!(decode(rans.as_ref(), &single).unwrap(), rans.decompress_field(&raw).unwrap());
    }
}

#[test]
fn sweep_exercises_both_backends() {
    let fields = vec![lcc::core::dataset::LabeledField {
        name: "wavy".into(),
        true_range: None,
        field: wavy(48, 48, 19),
    }];
    let registry = entropy_ablation_registry();
    let config = SweepConfig { bounds: vec![ErrorBound::Absolute(1e-3)], ..SweepConfig::default() };
    let records = run_sweep(&fields, &registry, &config).unwrap();
    assert_eq!(records.len(), 5, "one record per registry variant");
    let names: Vec<&str> = records.iter().map(|r| r.compressor.as_ref()).collect();
    for name in ["sz", "sz-rans8", "zfp", "mgard", "mgard-rans8"] {
        assert!(names.contains(&name), "sweep is missing {name}");
    }
    // Backend variants must report identical error metrics (identical decode).
    for base in ["sz", "mgard"] {
        let h = records.iter().find(|r| r.compressor.as_ref() == base).unwrap();
        let r = records.iter().find(|r| r.compressor.as_ref() == format!("{base}-rans8")).unwrap();
        assert_eq!(h.max_abs_error, r.max_abs_error, "{base}-rans8 disagrees on error");
        assert!(r.compression_ratio > 1.0);
    }
}

// ---- corrupt-stream hardening for the rANS containers ------------------------

/// The radii the two encoders write.
const SZ_RADIUS: u32 = 32768;
const MGARD_RADIUS: u32 = 1 << 30;

/// Hand-assemble an SZ container under `magic`, with the given bound and
/// radius in its header, around the given codes section.
fn forge_sz_container(
    magic: &[u8; 4],
    (ny, nx): (u64, u64),
    eb: f64,
    radius: u32,
    section: &[u8],
) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(magic);
    out.extend_from_slice(&ny.to_le_bytes());
    out.extend_from_slice(&nx.to_le_bytes());
    out.extend_from_slice(&eb.to_le_bytes());
    out.extend_from_slice(&16u32.to_le_bytes()); // block size
    out.extend_from_slice(&radius.to_le_bytes());

    // One Lorenzo mode byte: correct for the ≤16×16 shapes the valid-shape
    // tests forge; the giant-dimension forgeries are rejected before the
    // mode list is ever cross-checked.
    out.extend_from_slice(&1u64.to_le_bytes()); // n_modes
    out.push(0); // Lorenzo
    out.extend_from_slice(&0u64.to_le_bytes()); // n_planes
    out.extend_from_slice(&(section.len() as u64).to_le_bytes());
    out.extend_from_slice(section);
    out.extend_from_slice(&0u64.to_le_bytes()); // n_exact
    out
}

/// Hand-assemble an MGARD container under `magic`, with the given bound and
/// radius in its header, around the given coefficient section.
fn forge_mgard_container(
    magic: &[u8; 4],
    (ny, nx): (u64, u64),
    eb: f64,
    radius: u32,
    section: &[u8],
) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(magic);
    out.extend_from_slice(&ny.to_le_bytes());
    out.extend_from_slice(&nx.to_le_bytes());
    out.extend_from_slice(&eb.to_le_bytes());
    out.extend_from_slice(&2u32.to_le_bytes()); // levels
    out.extend_from_slice(&radius.to_le_bytes());
    out.extend_from_slice(&(section.len() as u64).to_le_bytes());
    out.extend_from_slice(section);
    out.extend_from_slice(&0u64.to_le_bytes()); // n_exact
    out
}

/// The tail every 8-way section ends with when no symbol carried
/// information: a 32-byte payload of eight 4-byte lanes, each just its
/// seed state.
fn push_seed_lanes(section: &mut Vec<u8>) {
    push_varint(section, 32); // payload_len
    for _ in 0..8 {
        push_varint(section, 4); // lane lengths
    }
    for _ in 0..8 {
        section.extend_from_slice(&(1u32 << 23).to_le_bytes());
    }
}

/// A syntactically valid 8-way rANS section for `n` copies of one symbol.
fn valid_rans_section(n: u64, symbol: u64) -> Vec<u8> {
    let mut s = vec![3u8]; // mode 3 = 8-way rANS behind a run-coded table
    push_varint(&mut s, n);
    push_varint(&mut s, 0); // one run…
    push_varint(&mut s, symbol); // …starting at the symbol…
    push_varint(&mut s, 0); // …one symbol long…
    push_varint(&mut s, 4095); // …at freq − 1 = full scale − 1
    push_seed_lanes(&mut s);
    s
}

fn push_varint(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
    }
}

fn assert_corrupt(compressor: &dyn Compressor, stream: &[u8], what: &str) {
    match compressor.decompress_field(stream) {
        Err(CompressError::CorruptStream(_)) => {}
        other => panic!("{what}: expected CorruptStream, got {other:?}"),
    }
}

#[test]
fn truncated_rans_frequency_table_is_rejected() {
    let sz = SzCompressor::rans8();
    // A section claiming a 4096-symbol table with almost none of it present.
    let mut section = vec![3u8];
    push_varint(&mut section, 100); // n_symbols
    push_varint(&mut section, 0); // one run…
    push_varint(&mut section, 0); // …from symbol 0…
    push_varint(&mut section, 4095); // …4096 symbols long…
    push_varint(&mut section, 1); // …and one lonely frequency
    assert_corrupt(
        &sz,
        &forge_sz_container(b"LS81", (16, 16), 1e-3, SZ_RADIUS, &section),
        "truncated freq table",
    );
}

#[test]
fn rans_frequencies_must_sum_to_the_12_bit_scale() {
    let mut section = vec![3u8];
    push_varint(&mut section, 256); // n_symbols (= 16×16 cells)
    push_varint(&mut section, 0); // one run of symbols 0 and 1
    push_varint(&mut section, 0);
    push_varint(&mut section, 1);
    push_varint(&mut section, 2047);
    push_varint(&mut section, 2046); // sums to 4095, not 4096
    push_seed_lanes(&mut section);
    let sz = forge_sz_container(b"LS81", (16, 16), 1e-3, SZ_RADIUS, &section);
    assert_corrupt(&SzCompressor::rans8(), &sz, "bad freq sum (sz)");
    let mgard = forge_mgard_container(b"LM81", (16, 16), 1e-3, MGARD_RADIUS, &section);
    assert_corrupt(&MgardCompressor::rans8(), &mgard, "bad freq sum (mgard)");
}

#[test]
fn unknown_backend_bytes_are_rejected() {
    // Unknown mode byte inside an otherwise valid rANS section.
    let sz = SzCompressor::rans8();
    let mut section = valid_rans_section(256, 40000);
    section[0] = 9;
    assert_corrupt(
        &sz,
        &forge_sz_container(b"LS81", (16, 16), 1e-3, SZ_RADIUS, &section),
        "unknown rans mode",
    );

    // Unknown ZFP container tag.
    let zfp = ZfpCompressor::default();
    let mut stream =
        zfp.compress_view(&wavy(16, 16, 5).view(), ErrorBound::Absolute(1e-3)).unwrap();
    assert_eq!(stream[0], 0, "raw container tag");
    stream[0] = 4;
    assert_corrupt(&zfp, &stream, "unknown zfp tag");
}

#[test]
fn forged_giant_rans_headers_fail_before_allocating() {
    let sz = SzCompressor::rans8();
    // ny·nx wrapping to 0 must die at the checked cell count.
    let section = valid_rans_section(0, 0);
    let wrapping = forge_sz_container(b"LS81", (1 << 32, 1 << 32), 1e-3, SZ_RADIUS, &section);
    assert_corrupt(&sz, &wrapping, "wrapping cells");
    // A huge claimed cell count over a tiny zero-entropy section must fail
    // the rANS run cap or the code-count check — allocation stays bounded
    // by the actual stream either way.
    let section = valid_rans_section(1 << 40, 7);
    let giant = forge_sz_container(b"LS81", (1 << 20, 1 << 20), 1e-3, SZ_RADIUS, &section);
    assert_corrupt(&sz, &giant, "implausible count");
}

type Forge = fn(&[u8; 4], (u64, u64), f64, u32, &[u8]) -> Vec<u8>;

/// A header no encoder writes — a bound that is zero, negative or not
/// finite, a radius below 2 — around an otherwise valid 16 × 16 stream of
/// "residual zero" codes under `magic` (`wrapped`: Huffman codes, behind the
/// LZ77 pass the decoder expects; otherwise rANS codes, raw). No
/// `catch_unwind`: a decoder that asserts on the header fails the test by
/// panicking.
fn assert_forged_bounds_and_radii_refused(
    magic: &[u8; 4],
    wrapped: bool,
    decoder: &dyn Compressor,
    forge: Forge,
    radius: u32,
) {
    let what = String::from_utf8_lossy(magic).into_owned();
    let section = if wrapped {
        lcc::lossless::huffman_encode(&[radius; 256])
    } else {
        valid_rans_section(256, u64::from(radius))
    };
    let stream = |eb: f64, radius: u32| {
        let payload = forge(magic, (16, 16), eb, radius, &section);
        if wrapped {
            lcc::lossless::lz77_compress(&payload)
        } else {
            payload
        }
    };
    // The control: with the header an encoder writes, the forgery decodes.
    let field = decoder.decompress_field(&stream(1e-3, radius)).expect(&what);
    assert_eq!(field, Field2D::zeros(16, 16), "{what}");
    for eb in [0.0, -1.0, f64::NAN, f64::INFINITY] {
        assert_corrupt(decoder, &stream(eb, radius), &format!("{what} with eb = {eb}"));
    }
    for radius in [0, 1] {
        assert_corrupt(decoder, &stream(1e-3, radius), &format!("{what} with radius {radius}"));
    }
}

#[test]
fn forged_bounds_and_radii_are_refused_before_a_quantiser_is_built() {
    let (sz, mgard) = (SzCompressor::default(), MgardCompressor::default());
    assert_forged_bounds_and_radii_refused(b"LSZ1", true, &sz, forge_sz_container, SZ_RADIUS);
    assert_forged_bounds_and_radii_refused(b"LS81", false, &sz, forge_sz_container, SZ_RADIUS);
    let forge = forge_mgard_container;
    assert_forged_bounds_and_radii_refused(b"LMG1", true, &mgard, forge, MGARD_RADIUS);
    assert_forged_bounds_and_radii_refused(b"LM81", false, &mgard, forge, MGARD_RADIUS);
}

// ---- the retired formats ----------------------------------------------------

#[path = "common/alloc_probe.rs"]
mod alloc_probe;

#[global_allocator]
static ALLOC: alloc_probe::Probe = alloc_probe::Probe;

/// The section `valid_rans_section` holds, as the retired pair table wrote
/// it: mode byte 2, then `(symbol, freq)` pairs instead of runs.
fn pair_table_section(n: u64, symbol: u64) -> Vec<u8> {
    let mut s = vec![2u8];
    push_varint(&mut s, n);
    push_varint(&mut s, 1); // alphabet size
    push_varint(&mut s, symbol);
    push_varint(&mut s, 4096); // freq = full scale
    push_seed_lanes(&mut s);
    s
}

/// A retired frame, cut from a real `0x61` frame of full-width tiles
/// `rows` high under `version`: `0x21` is it without its digest table;
/// the row-band frames are it without the tile shape (bytes 25..33),
/// `0x41` keeping the digest table and `0x01` dropping it too.
fn retired_frame(
    compressor: &dyn Compressor,
    field: &Field2D,
    rows: usize,
    version: u8,
) -> Vec<u8> {
    let (bound, pool) = (ErrorBound::Absolute(1e-3), ThreadPoolConfig::with_threads(1));
    let scratch = &mut FrameScratch::new();
    let mut frame = frame::compress_tiled_with(
        compressor,
        &field.view(),
        bound,
        rows,
        field.nx(),
        pool,
        scratch,
    )
    .unwrap();
    assert_eq!(frame[4], 0x61);
    let n_blocks = field.ny().div_ceil(rows);
    frame[4] = version;
    if version != 0x41 {
        frame.drain(33 + 8 * n_blocks..33 + 16 * n_blocks);
    }
    if version != 0x21 {
        frame.drain(25..33);
    }
    frame
}

/// The `FORMAT.md` row of the codec's single stream as a frame payload.
const ONE_TILE: &str = "one-tile inner stream";

#[test]
fn legacy_formats_are_refused_not_misdecoded() {
    // What the deleted encoders used to write. The forms retired with
    // their writers claim a 2^20 × 2^20 field (8 TB decoded): the 2-way
    // rANS section (mode byte 0, two seed states), the `LSR1` / `LMR1`
    // containers around it, and the ZFP container tags 2 (2-way) and 3
    // (8-way) over the byte-symbol form of the coder. The forms whose
    // decoders went later are streams a decoder once read back: rANS mode 2
    // (the pair table), ZFP tag 1 (the bit stream behind an LZ77 pass),
    // `LCCF` row-band frames, plain (`0x01`) and checksummed (`0x41`), the
    // tiled frame without its digest table (`0x21`), and the one-tile inner
    // stream: the codec's single stream, which a tiling that covered the
    // field once wrote as its frame and archive-entry payload. It is still a
    // valid single stream, so it is refused only where a frame is read.
    let mut two_way = vec![0u8]; // mode 0 = the retired 2-way format
    push_varint(&mut two_way, 1 << 40); // n_symbols
    push_varint(&mut two_way, 1); // alphabet size
    push_varint(&mut two_way, 7);
    push_varint(&mut two_way, 4096);
    push_varint(&mut two_way, 8); // payload: the two seed states
    two_way.extend_from_slice(&(1u32 << 23).to_le_bytes());
    two_way.extend_from_slice(&(1u32 << 23).to_le_bytes());
    // Forgeries under a magic the LZ77 front end reads are padded to 128
    // bytes, the size of a small real stream: it reserves what its leading
    // length varint claims (`b'L'` = 76 here), capped by a multiple of the
    // input. The containers under a rANS magic are read in place and end at
    // their exact section (bytes after it are refused first), so they are
    // not padded.
    let padded = |mut stream: Vec<u8>| {
        stream.resize(stream.len().max(128), 0);
        stream
    };
    let zfp_tagged = |tag: u8, section: &[u8]| {
        let mut stream = vec![tag];
        stream.extend_from_slice(section);
        stream
    };
    let eight_way = valid_rans_section(1 << 40, 7);

    let sz = SzCompressor::rans8();
    let mgard = MgardCompressor::rans8();
    let zfp = ZfpCompressor::default();
    let warmup = wavy(16, 16, 29);
    let bound = ErrorBound::Absolute(1e-3);
    let zfp_stream = zfp.compress_view(&warmup.view(), bound).unwrap();
    let sz_pairs = pair_table_section(256, u64::from(SZ_RADIUS));
    let mgard_pairs = pair_table_section(256, u64::from(MGARD_RADIUS));
    // (what, decoder, stream, what its refusal names; `LSR1` / `LMR1` are
    // not a rANS magic, so the LZ77 front end refuses them first)
    let cases: Vec<(&str, &dyn Compressor, Vec<u8>, &str)> = vec![
        (
            "LSR1",
            &sz,
            padded(forge_sz_container(b"LSR1", (1 << 20, 1 << 20), 1e-3, SZ_RADIUS, &two_way)),
            "lz77",
        ),
        (
            "LMR1",
            &mgard,
            padded(forge_mgard_container(
                b"LMR1",
                (1 << 20, 1 << 20),
                1e-3,
                MGARD_RADIUS,
                &two_way,
            )),
            "lz77",
        ),
        ("zfp tag 2", &zfp, padded(zfp_tagged(2, &two_way)), "container tag 2"),
        ("zfp tag 3", &zfp, padded(zfp_tagged(3, &eight_way)), "container tag 3"),
        (
            "mode 0 in LS81",
            &sz,
            forge_sz_container(b"LS81", (16, 16), 1e-3, SZ_RADIUS, &two_way),
            "rans8 mode 0",
        ),
        (
            "mode 0 in LM81",
            &mgard,
            forge_mgard_container(b"LM81", (16, 16), 1e-3, MGARD_RADIUS, &two_way),
            "rans8 mode 0",
        ),
        (
            "mode 2 in LS81",
            &sz,
            forge_sz_container(b"LS81", (16, 16), 1e-3, SZ_RADIUS, &sz_pairs),
            "rans8 mode 2",
        ),
        (
            "mode 2 in LM81",
            &mgard,
            forge_mgard_container(b"LM81", (16, 16), 1e-3, MGARD_RADIUS, &mgard_pairs),
            "rans8 mode 2",
        ),
        (
            "zfp tag 1",
            &zfp,
            zfp_tagged(1, &lcc::lossless::lz77_compress(&zfp_stream[1..])),
            "container tag 1",
        ),
        ("LCCF 0x01", &sz, retired_frame(&sz, &warmup, 8, 0x01), "version byte 0x01"),
        ("LCCF 0x41", &sz, retired_frame(&sz, &warmup, 4, 0x41), "version byte 0x41"),
        ("LCCF 0x21", &sz, retired_frame(&sz, &warmup, 4, 0x21), "version byte 0x21"),
        (ONE_TILE, &sz, sz.compress_view(&warmup.view(), bound).unwrap(), "missing magic"),
    ];

    // The bare sections, straight into a warm coder (padded too: a section
    // may sit inside a larger container, and the refusal's message is an
    // allocation of its own).
    let (mut rans, mut codes) = (lcc::lossless::RansScratch::new(), Vec::new());
    lcc::lossless::rans8_decode_with(&mut rans, &valid_rans_section(256, 7), &mut codes).unwrap();
    for (section, names) in
        [(padded(two_way.clone()), "rans8 mode 0"), (padded(sz_pairs.clone()), "rans8 mode 2")]
    {
        let section = &section;
        let (result, largest) = alloc_probe::largest_request_during(|| {
            lcc::lossless::rans8_decode_with(&mut rans, section, &mut codes)
        });
        assert!(
            matches!(&result, Err(lcc::lossless::CodecError::Corrupt(msg)) if msg.contains(names)),
            "bare {names}: {result:?}"
        );
        assert!(largest <= section.len(), "bare {names}: a {largest}-byte allocation");
    }

    let pool = ThreadPoolConfig::with_threads(2);
    for (what, compressor, stream, names) in &cases {
        // Warm scratch as a serving worker's would be (the per-codec scratch
        // boxed, its buffers sized for a 16×16 field), so the probe sees
        // only what the refused stream itself asks for.
        let valid = compressor.compress_view(&warmup.view(), bound).unwrap();
        let mut arena = ScratchArena::new();
        let mut frames = FrameScratch::new();
        let mut out = Field2D::zeros(1, 1);
        compressor.decompress_view_with(&valid, &mut arena, &mut out).unwrap();
        let valid =
            frame::compress_framed_with(*compressor, &warmup.view(), bound, 1, pool, &mut frames)
                .unwrap();
        frame::decompress_framed_with(*compressor, &valid, pool, &mut frames, &mut out).unwrap();

        // A frame's one-stream path is its header parse, the archive's too,
        // and so is that of a form only a frame or an entry ever held.
        let frame_payload = stream.starts_with(&FRAME_MAGIC) || *what == ONE_TILE;
        let (single, largest_single) = alloc_probe::largest_request_during(|| {
            if frame_payload {
                FrameIndex::parse(stream, stream.len()).map(drop)
            } else {
                compressor.decompress_view_with(stream, &mut arena, &mut out)
            }
        });
        let (framed, largest_framed) = alloc_probe::largest_request_during(|| {
            frame::decompress_framed_with(*compressor, stream, pool, &mut frames, &mut out)
        });
        // The frame decoder reads nothing but frames: a form without the
        // `LCCF` magic is refused there as no frame at all.
        let framed_names = if stream.starts_with(&FRAME_MAGIC) { names } else { "missing magic" };
        for (path, result, largest, names) in [
            ("single", single, largest_single, names),
            ("framed", framed, largest_framed, &framed_names),
        ] {
            assert!(
                matches!(&result, Err(CompressError::CorruptStream(msg)) if msg.contains(names)),
                "{what} ({path}): expected CorruptStream naming {names:?}, got {result:?}"
            );
            assert!(
                largest <= stream.len(),
                "{what} ({path}): a {largest}-byte allocation for a {}-byte stream",
                stream.len()
            );
        }
    }
}

#[test]
fn truncated_rans_containers_are_rejected_at_every_cut() {
    let field = wavy(32, 32, 23);
    for (_, rans) in backend_pairs() {
        let stream = rans.compress_view(&field.view(), ErrorBound::Absolute(1e-3)).unwrap();
        for cut in [1, 4, stream.len() / 3, stream.len() / 2, stream.len() - 1] {
            assert!(
                rans.decompress_field(&stream[..cut]).is_err(),
                "{} accepted a {cut}-byte prefix of {} bytes",
                rans.name(),
                stream.len()
            );
        }
    }
}

#[test]
fn every_flipped_bit_of_a_single_stream_is_refused_or_decoded_without_reserving() {
    // A single stream has no digest: a flipped bit may decode to some field,
    // but it must never panic, and never size a buffer by a corrupt length.
    // The LZ77 front end may reserve the decoded length a stream claims, up
    // to what its bytes could expand to, and a Huffman table may grow with
    // the code lengths it reads: the largest any flip of these streams asks
    // for is 16 KiB, about 100 times the input. On this 9×9 field and bound,
    // flipping byte 16, bit 0 of the `sz` stream makes an LZ77 match claim
    // 20 843 353 340 bytes: the decoder must refuse it, not copy it.
    let field = Field2D::from_fn(9, 9, |i, j| (i as f64 * 0.13).sin() + (j as f64 * 0.09).cos());
    let bound = ErrorBound::Absolute(1e-3);
    let codecs: [&dyn Compressor; 2] = [&SzCompressor::default(), &MgardCompressor::default()];
    for codec in codecs {
        let name = codec.name();
        let good = codec.compress_view(&field.view(), bound).unwrap();
        // Warm scratch, so the probe sees only what the flipped stream asks.
        let (mut arena, mut out) = (ScratchArena::new(), Field2D::zeros(1, 1));
        codec.decompress_view_with(&good, &mut arena, &mut out).unwrap();
        for bit in 0..8 * good.len() {
            let mut bad = good.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            let (result, largest) = alloc_probe::largest_request_during(|| {
                codec.decompress_view_with(&bad, &mut arena, &mut out)
            });
            let (byte, bit) = (bit / 8, bit % 8);
            assert!(
                largest <= 128 * good.len(),
                "{name}: flipping bit {bit} of byte {byte} asked for {largest} bytes"
            );
            if (name, byte, bit) == ("sz", 16, 0) {
                assert!(
                    matches!(&result, Err(CompressError::CorruptStream(msg))
                        if msg.contains("token length") && msg.contains("still to decode")),
                    "the flipped match length: {result:?}"
                );
            }
        }
    }
}
