//! The codes container of an `sz*` / `mgard*` stream through the shared
//! reader and writer (`#[path]`-included; each test binary uses what it
//! needs).

#![allow(dead_code)]

use lcc::pressio::codes::{self, Format, Parts, Writer};

/// The container format of the registry compressor `name`.
pub fn format_of(name: &str) -> &'static Format {
    if name.starts_with("sz") {
        &lcc::sz::FORMAT
    } else {
        &lcc::mgard::FORMAT
    }
}

/// Open the stream of the registry compressor `name`; `expanded` receives
/// the payload of an LZ77-wrapped stream.
pub fn open<'a>(name: &str, stream: &'a [u8], expanded: &'a mut Vec<u8>) -> Parts<'a> {
    codes::open(format_of(name), stream, expanded).unwrap_or_else(|e| panic!("{name}: {e}"))
}

/// The payload the shared writer assembles from an opened container's
/// header, middle and escapes around `section`.
pub fn reassemble(name: &str, parts: &Parts<'_>, section: &[u8]) -> Vec<u8> {
    let exact: Vec<f64> =
        parts.exact.chunks_exact(8).map(|b| f64::from_le_bytes(b.try_into().unwrap())).collect();
    let (mut w, middle) = (Writer::default(), |w: &mut Writer| w.bytes(parts.middle));
    codes::write_payload(
        &mut w,
        format_of(name),
        parts.backend,
        &parts.header,
        middle,
        |out: &mut Vec<u8>| out.extend_from_slice(section),
        &exact,
    );
    w.0
}
