//! The shared codes-container reader and writer are inverses at the byte
//! level: opening a stream with `lcc_pressio::codes::open` (through its
//! codec's `open_container`) and handing the parts back to
//! `codes::write_payload` reproduces the payload byte for byte — on the
//! eight SZ / MGARD streams `tests/stream_identity.rs` pins by hash and on
//! the four streams under `tests/fixtures/` that an older LZ77 policy wrote
//! — and the section the reader returns is the byte range the container
//! layout puts it at, computed here by hand the way the tools used to.

use lcc::core::registry::entropy_ablation_registry;
use lcc::lossless::{lz77_decompress, rans8_stream_info, EntropyBackend};
use lcc::pressio::ErrorBound;
use std::ops::Range;

#[path = "common/container.rs"]
mod container;
#[path = "common/fields.rs"]
mod fields;

/// Where the layout puts the codes section of a raw (rANS) container:
/// fixed-width little-endian fields up to the `u64`-prefixed section, with
/// SZ's counted block modes (one byte each) and planes (3 × f64) between.
fn section_by_hand(name: &str, stream: &[u8]) -> Range<usize> {
    let u64_at = |at: usize| u64::from_le_bytes(stream[at..at + 8].try_into().unwrap()) as usize;
    // magic, ny, nx, eb, two u32 parameters.
    let mut at = 4 + 8 + 8 + 8 + 4 + 4;
    if name.starts_with("sz") {
        at += 8 + u64_at(at);
        at += 8 + 24 * u64_at(at);
    }
    at + 8..at + 8 + u64_at(at)
}

/// Open, re-assemble, compare, for a stream of a `shape` field.
fn assert_reader_and_writer_invert(name: &str, stream: &[u8], shape: (usize, usize), what: &str) {
    let mut expanded = Vec::new();
    let parts = container::open(name, stream, &mut expanded);
    let rans = name.ends_with("rans8");
    let backend = if rans { EntropyBackend::Rans8 } else { EntropyBackend::Huffman };
    assert_eq!(parts.backend, backend, "{what}");
    // A rANS container is raw at the top level and read in place; a Huffman
    // one is behind the LZ77 pass.
    let payload = if rans {
        let by_hand = section_by_hand(name, stream);
        assert!(std::ptr::eq(parts.section, &stream[by_hand]), "{what}: another section range");
        rans8_stream_info(parts.section).unwrap_or_else(|e| panic!("{what}: {e}"));
        stream.to_vec()
    } else {
        lz77_decompress(stream).expect(what)
    };
    assert_eq!((parts.header.ny, parts.header.nx), shape, "{what}");
    assert_eq!(parts.middle.is_empty(), name.starts_with("mgard"), "{what}");
    let again = container::reassemble(name, &parts, parts.section);
    assert!(again == payload, "{what}: the writer does not reproduce the payload");
}

#[test]
fn pinned_streams_and_fixtures_reassemble_byte_for_byte() {
    let field = fields::pinned_field();
    let registry = entropy_ablation_registry();
    let names = ["mgard", "mgard-rans8", "sz", "sz-rans8"];
    for name in names {
        let compressor = registry.get(name).expect("registered compressor");
        for eb in [1e-4, 1e-2] {
            let stream = compressor.compress_view(&field.view(), ErrorBound::Absolute(eb)).unwrap();
            assert_reader_and_writer_invert(name, &stream, (97, 113), &format!("{name}@{eb}"));
        }
    }

    let fixtures = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let mut seen = 0;
    for entry in std::fs::read_dir(&fixtures).expect("tests/fixtures") {
        let path = entry.expect("directory entry").path();
        if path.extension().map_or(true, |e| e != "bin") {
            continue;
        }
        let file = path.file_name().unwrap().to_string_lossy().into_owned();
        // `<compressor>_<bound>_<what it predates>.bin`
        let name = file.split('_').next().unwrap();
        assert!(names.contains(&name), "{file}: not a codes-container fixture");
        let stream = std::fs::read(&path).unwrap();
        assert_reader_and_writer_invert(name, &stream, (97, 113), &file);
        seen += 1;
    }
    assert_eq!(seen, 4, "the four streams written before LZ77 miss-skipping");
}
