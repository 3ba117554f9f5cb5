//! `FORMAT.md` holds one row per form the encoders write and one per form
//! they once wrote and the decoders now refuse. This census holds the first
//! table to the encoders: every registry codec, at two paper bounds, over
//! the study's three families at 128², through every path that writes bytes
//! — a single stream, a frame of one block, a frame of four full-width
//! blocks, a frame of 64 × 64 tiles, and an archive entry. Every framed,
//! tiled and archive-entry output must open with the frame magic. Every
//! stream and every frame block is
//! labelled by its leading bytes (the frame's version byte, the codes
//! container's magic and its section's rANS mode byte, the ZFP container
//! tag, the archive version), and the labels must be exactly the written
//! table's first column: a row no encoder writes fails, and so does a form
//! no row names.

use lcc::archive::{Archive, ArchiveWriter};
use lcc::core::registry::entropy_ablation_registry;
use lcc::grid::Field2D;
use lcc::hydro::{MirandaProxy, MirandaProxyConfig, Problem};
use lcc::lossless::EntropyBackend;
use lcc::par::ThreadPoolConfig;
use lcc::pressio::frame::{compress_framed_with, compress_tiled_with};
use lcc::pressio::{ErrorBound, FrameIndex, FrameScratch, FRAME_MAGIC};
use lcc::synth::{
    generate_multi_range, generate_single_range, GaussianFieldConfig, MultiRangeConfig,
};
use std::collections::BTreeSet;

#[path = "common/container.rs"]
mod container;

const N: usize = 128;

/// The study's families: a single-range and a two-range Gaussian random
/// field and a Miranda-proxy `velocityx` slice.
fn families() -> Vec<(&'static str, Field2D)> {
    let slice = MirandaProxy::new(MirandaProxyConfig {
        ny: N,
        nx: N,
        n_slices: 1,
        steps_between_snapshots: 3,
        problem: Problem::KelvinHelmholtz,
        seed: 11,
    })
    .generate_velocityx_slices()
    .remove(0);
    vec![
        ("single-range", generate_single_range(&GaussianFieldConfig::new(N, N, 2.0, 1))),
        ("two-range", generate_multi_range(&MultiRangeConfig::two_ranges(N, N, 2.0, 24.0, 5))),
        ("miranda", slice),
    ]
}

/// Label one codec stream of the registry compressor `name`.
fn label_stream(name: &str, stream: &[u8], labels: &mut BTreeSet<String>) {
    if name == "zfp" {
        labels.insert(format!("ZFP tag {}", stream[0]));
        return;
    }
    let mut expanded = Vec::new();
    let parts = container::open(name, stream, &mut expanded);
    if parts.backend == EntropyBackend::Rans8 {
        labels.insert(format!("rANS mode {}", parts.section[0]));
    }
    // The magic heads the payload: the stream itself, or its LZ77 expansion.
    let payload = if expanded.is_empty() { stream } else { &expanded };
    labels.insert(String::from_utf8_lossy(&payload[..4]).into_owned());
}

/// Label a frame and each of its blocks.
fn label_frame(name: &str, frame: &[u8], labels: &mut BTreeSet<String>) {
    assert_eq!(frame[..4], FRAME_MAGIC, "{name}: every frame path writes an LCCF frame");
    labels.insert(format!("LCCF {:#04x}", frame[4]));
    let index = FrameIndex::parse(frame, frame.len()).expect("a written frame parses");
    for b in 0..index.n_blocks() {
        let (at, len) = index.block_span(b);
        label_stream(name, &frame[at..at + len], labels);
    }
}

/// The first column of the table under `## {heading}` in `FORMAT.md`,
/// backticks dropped.
fn first_column(format_md: &str, heading: &str) -> BTreeSet<String> {
    let section = format_md
        .split("\n## ")
        .find(|s| s.starts_with(heading))
        .unwrap_or_else(|| panic!("FORMAT.md has no `## {heading}` section"));
    let rows = section.lines().filter(|line| line.starts_with('|')).skip(2);
    rows.map(|row| row.split('|').nth(1).expect("a table row").trim().replace('`', "")).collect()
}

#[test]
fn format_md_names_exactly_the_forms_the_encoders_write() {
    let registry = entropy_ablation_registry();
    let pool = ThreadPoolConfig::with_threads(2);
    let mut scratch = FrameScratch::new();
    let mut archive = ArchiveWriter::new();
    let mut labels = BTreeSet::new();
    for (family, field) in families() {
        let view = field.view();
        for compressor in registry.compressors() {
            let name = compressor.name();
            for eb in [1e-2, 1e-4] {
                let bound = ErrorBound::Absolute(eb);
                let c = compressor.as_ref();
                let single = c.compress_view(&view, bound).unwrap();
                label_stream(name, &single, &mut labels);
                let one = compress_framed_with(c, &view, bound, 1, pool, &mut scratch).unwrap();
                label_frame(name, &one, &mut labels);
                let rows = compress_framed_with(c, &view, bound, 4, pool, &mut scratch).unwrap();
                label_frame(name, &rows, &mut labels);
                let tiles =
                    compress_tiled_with(c, &view, bound, 64, 64, pool, &mut scratch).unwrap();
                label_frame(name, &tiles, &mut labels);
                let entry = format!("{family}/{name}@{eb}");
                archive.add_entry(&entry, 0, &field, c, bound, 64, 64, pool, &mut scratch).unwrap();
            }
        }
    }
    let bytes = archive.finish();
    labels.insert(format!("LCCA version {}", bytes[4]));
    let opened = Archive::open(bytes.clone()).expect("a written archive opens");
    for k in 0..opened.len() {
        let entry = opened.entry(k);
        let (at, len) = (entry.offset as usize, entry.length as usize);
        label_frame(&entry.codec, &bytes[at..at + len], &mut labels);
    }

    let format_md = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/FORMAT.md"))
        .expect("FORMAT.md at the repository root");
    let (written, refused) =
        (first_column(&format_md, "Written"), first_column(&format_md, "Refused"));
    let unwritten: Vec<_> = written.difference(&labels).collect();
    let unlisted: Vec<_> = labels.difference(&written).collect();
    assert!(unwritten.is_empty(), "FORMAT.md lists forms no encoder wrote: {unwritten:?}");
    assert!(unlisted.is_empty(), "the encoders wrote forms FORMAT.md does not list: {unlisted:?}");
    let both: Vec<_> = written.intersection(&refused).collect();
    assert!(both.is_empty(), "FORMAT.md both writes and refuses {both:?}");
    assert!(!refused.is_empty(), "FORMAT.md's refused table is empty");
}
