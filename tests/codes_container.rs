//! The shared codes-container reader and writer are inverses at the byte
//! level: opening a stream with `lcc_pressio::codes::open` (through its
//! codec's `open_container`) and handing the parts back to
//! `codes::write_payload` reproduces the payload byte for byte — on the
//! eight SZ / MGARD streams `tests/stream_identity.rs` pins by hash and on
//! the four streams under `tests/fixtures/` that an older LZ77 policy wrote
//! — and the section the reader returns is the byte range the container
//! layout puts it at, computed here by hand the way the tools used to. What
//! no encoder writes around those sections — bytes after the stream, values
//! after the last escape, SZ block modes or planes past the last block — is
//! refused.

use lcc::core::registry::entropy_ablation_registry;
use lcc::lossless::{lz77_compress, lz77_decompress, rans8_stream_info, EntropyBackend};
use lcc::pressio::codes::Parts;
use lcc::pressio::{CompressError, ErrorBound};
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

/// The stream of the registry compressor `name` around `payload`: the
/// payload itself for a rANS container, its LZ77 pass otherwise.
fn wrap(name: &str, payload: Vec<u8>) -> Vec<u8> {
    if name.ends_with("rans8") {
        payload
    } else {
        lz77_compress(&payload)
    }
}

#[test]
fn surplus_bytes_values_modes_and_planes_are_refused() {
    let field = fields::pinned_field();
    let registry = entropy_ablation_registry();
    for name in ["mgard", "mgard-rans8", "sz", "sz-rans8"] {
        let compressor = registry.get(name).expect("registered compressor");
        let stream = compressor.compress_view(&field.view(), ErrorBound::Absolute(1e-2)).unwrap();
        compressor.decompress_field(&stream).unwrap_or_else(|e| panic!("{name}: {e}"));
        let refused = |forged: &[u8], what: &str| {
            let result = compressor.decompress_field(forged).map(drop);
            assert!(
                matches!(result, Err(CompressError::CorruptStream(_))),
                "{name}, {what}: {result:?}"
            );
        };
        let mut expanded = Vec::new();
        let parts = container::open(name, &stream, &mut expanded);
        let reassembled =
            |parts: &Parts<'_>| wrap(name, container::reassemble(name, parts, parts.section));
        assert!(reassembled(&parts) == stream, "{name}: the container does not reassemble");

        // Five bytes after the stream: after the exact section of a rANS
        // container, after the LZ77 stream of a wrapped one.
        let mut padded = stream.clone();
        padded.extend_from_slice(&[1, 2, 3, 4, 5]);
        refused(&padded, "five bytes after the stream");
        // Five bytes after the exact section, inside the LZ77 pass.
        let mut payload = container::reassemble(name, &parts, parts.section);
        payload.extend_from_slice(&[1, 2, 3, 4, 5]);
        refused(&wrap(name, payload), "five bytes after the exact section");
        // One exact value more than there are escaped codes.
        let mut exact = parts.exact.to_vec();
        exact.extend_from_slice(&0.5f64.to_le_bytes());
        refused(&reassembled(&Parts { exact: &exact, ..parts }), "one exact value too many");

        if name.starts_with("sz") {
            // The middle: counted block modes (one byte each), then counted
            // planes (24 bytes each).
            let count =
                |at: usize| u64::from_le_bytes(parts.middle[at..at + 8].try_into().unwrap());
            let n_modes = count(0);
            let planes_at = 8 + n_modes as usize;
            let mut one_more_mode = (n_modes + 1).to_le_bytes().to_vec();
            one_more_mode.extend_from_slice(&parts.middle[8..planes_at]);
            one_more_mode.push(0);
            one_more_mode.extend_from_slice(&parts.middle[planes_at..]);
            refused(&reassembled(&Parts { middle: &one_more_mode, ..parts }), "one mode too many");
            let mut one_more_plane = parts.middle.to_vec();
            let n_planes = (count(planes_at) + 1).to_le_bytes();
            one_more_plane[planes_at..planes_at + 8].copy_from_slice(&n_planes);
            one_more_plane.extend_from_slice(&[0; 24]);
            refused(
                &reassembled(&Parts { middle: &one_more_plane, ..parts }),
                "one plane too many",
            );
        }
    }
}
