//! The default compressor registry — the Rust analogue of Table I.

use lcc_mgard::MgardCompressor;
use lcc_pressio::Registry;
use lcc_sz::SzCompressor;
use lcc_zfp::ZfpCompressor;
use std::sync::Arc;

/// Version strings mirror the releases used by the paper (Table I), with an
/// `-rs` suffix marking the from-scratch Rust reimplementations.
pub const SZ_VERSION: &str = "2.1.11.1-rs";
/// See [`SZ_VERSION`].
pub const ZFP_VERSION: &str = "0.5.5-rs";
/// See [`SZ_VERSION`].
pub const MGARD_VERSION: &str = "0.1.0-rs";

/// Build the registry holding the three study compressors.
pub fn default_registry() -> Registry {
    let mut registry = Registry::new();
    registry.register(Arc::new(SzCompressor::default()), SZ_VERSION);
    registry.register(Arc::new(ZfpCompressor::default()), ZFP_VERSION);
    registry.register(Arc::new(MgardCompressor::default()), MGARD_VERSION);
    registry
}

/// Build the entropy-ablation registry: the three study compressors plus
/// the 8-way rANS backend variants of the two codecs with an entropy stage
/// (`sz-rans8`, `mgard-rans8`) as first-class compressors. `bench_sweep`,
/// the root suites that pin streams and bounds, and the serving set-up of
/// the concurrency-identity and chaos tests drive this registry, so every
/// measurement and pin covers both points of the ratio-vs-throughput axis;
/// the `study` binary keeps using [`default_registry`] (the study
/// compares algorithms, not entropy backends).
pub fn entropy_ablation_registry() -> Registry {
    let mut registry = default_registry();
    registry.register(Arc::new(SzCompressor::rans8()), SZ_VERSION);
    registry.register(Arc::new(MgardCompressor::rans8()), MGARD_VERSION);
    registry
}

/// Build a registry holding only SZ and ZFP: a two-codec sweep for tests
/// that need no MGARD record (the study itself sweeps [`default_registry`]
/// and drops MGARD's records from Figure 6's panels).
pub fn sz_zfp_registry() -> Registry {
    let mut registry = Registry::new();
    registry.register(Arc::new(SzCompressor::default()), SZ_VERSION);
    registry.register(Arc::new(ZfpCompressor::default()), ZFP_VERSION);
    registry
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcc_grid::Field2D;
    use lcc_pressio::ErrorBound;

    #[test]
    fn default_registry_has_the_three_study_compressors() {
        let registry = default_registry();
        assert_eq!(registry.names(), vec!["mgard", "sz", "zfp"]);
        let infos = registry.infos();
        assert!(infos.iter().any(|i| i.version == SZ_VERSION));
        assert!(infos.iter().any(|i| i.version == ZFP_VERSION));
        assert!(infos.iter().any(|i| i.version == MGARD_VERSION));
    }

    #[test]
    fn sz_zfp_registry_omits_mgard() {
        let registry = sz_zfp_registry();
        assert_eq!(registry.names(), vec!["sz", "zfp"]);
    }

    #[test]
    fn ablation_registry_adds_the_rans_variants() {
        let registry = entropy_ablation_registry();
        assert_eq!(registry.names(), vec!["mgard", "mgard-rans8", "sz", "sz-rans8", "zfp"]);
    }

    #[test]
    fn rans_variants_round_trip_and_match_their_huffman_twin() {
        let field =
            Field2D::from_fn(48, 48, |i, j| (i as f64 * 0.1).sin() + (j as f64 * 0.2).cos());
        let registry = entropy_ablation_registry();
        for base in ["sz", "mgard"] {
            let huff = registry.get(base).unwrap();
            let a = huff.compress(&field, ErrorBound::Absolute(1e-3)).unwrap();
            let rans = registry.get(&format!("{base}-rans8")).unwrap();
            let b = rans.compress(&field, ErrorBound::Absolute(1e-3)).unwrap();
            assert!(b.metrics.max_abs_error <= 1e-3, "{base}-rans8 violated the bound");
            assert_eq!(a.reconstruction, b.reconstruction, "{base}-rans8 disagrees");
        }
    }

    #[test]
    fn every_registered_compressor_round_trips_a_field() {
        let field =
            Field2D::from_fn(48, 48, |i, j| (i as f64 * 0.1).sin() + (j as f64 * 0.2).cos());
        for compressor in default_registry().compressors() {
            let r = compressor.compress(&field, ErrorBound::Absolute(1e-3)).unwrap();
            assert!(
                r.metrics.max_abs_error <= 1e-3,
                "{} violated the bound: {}",
                compressor.name(),
                r.metrics.max_abs_error
            );
        }
    }
}
