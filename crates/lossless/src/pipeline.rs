//! The entropy-backend choice the lossy compressors thread through their
//! streams.

/// The entropy-coder choice of a compressor's lossless stage — the
/// ratio-vs-throughput ablation axis. Every stream self-describes its
/// backend (a tag or magic variant), so any decoder accepts both; the enum
/// only selects what the *encoder* emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EntropyBackend {
    /// Canonical Huffman (plus the historical LZ77 pass where the codec
    /// applies one) — the default; streams are byte-identical to every
    /// release before the backend existed.
    #[default]
    Huffman,
    /// 8-way interleaved rANS ([`crate::rans::rans8_encode`]):
    /// fractional-bit coding from 12-bit normalized tables with eight
    /// independent decode chains, so the dispatched decoder runs wide — the
    /// throughput-first backend. Skips the follow-up LZ77 pass (rANS output
    /// is already near the entropy, so a second pass buys ~nothing while
    /// costing most of the encode time).
    Rans8,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entropy_backend_defaults_to_huffman() {
        assert_eq!(EntropyBackend::default(), EntropyBackend::Huffman);
    }
}
