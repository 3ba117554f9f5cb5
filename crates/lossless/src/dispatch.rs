//! Runtime SIMD dispatch for the codec hot-path kernels.
//!
//! There are two tiers, scalar and AVX2. Every vectorized kernel in the
//! workspace (the rANS decode loop, the LZ77 match comparator, the rounding
//! quantizer, the SZ plane-predict/quantize row kernel, the ZFP block
//! transform) asks this module which one to run, and each AVX2 kernel that
//! ships was measured against its scalar twin on the codecs' own streams and
//! wins. The guarantees are:
//!
//! * **One-time detection.** [`simd_level`] probes the CPU once (via
//!   `is_x86_feature_detected!("avx2")` on x86_64; every other
//!   architecture, aarch64 included, has scalar kernels only and detects as
//!   such) and caches the answer in a `OnceLock`.
//! * **Byte-identical streams.** The AVX2 tier is only ever an
//!   implementation of the scalar kernel — same outputs, same errors, same
//!   consumed byte counts — so streams written at either tier decode at the
//!   other and the binary fixtures pin one set of bytes for both.
//! * **Override for testing.** `LCC_SIMD=off|avx2` forces a tier at or below
//!   the detected one (CI runs the suite at `off` and at the default); empty
//!   counts as unset. Asking for AVX2 on a host without it gets scalar — the
//!   override can never select an illegal instruction. Any other value
//!   panics naming it: a typo in a CI matrix must fail loudly, not silently
//!   benchmark the wrong tier.
//!
//! Kernels take an explicit [`SimdLevel`] argument in their `*_at` entry
//! points (used by the equivalence tests) and read the process-wide level in
//! their plain entry points.

use std::sync::OnceLock;

/// A SIMD capability tier, ordered from narrowest to widest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SimdLevel {
    /// Portable scalar loops only.
    Scalar,
    /// x86_64 AVX2 (256-bit lanes).
    Avx2,
}

impl SimdLevel {
    /// The label used by the `LCC_SIMD` override and the benchmark JSON
    /// schema (`"off"` for scalar, matching the override vocabulary).
    pub fn label(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "off",
            SimdLevel::Avx2 => "avx2",
        }
    }

    /// Parse an `LCC_SIMD` override value.
    fn parse(value: &str) -> Option<SimdLevel> {
        [SimdLevel::Scalar, SimdLevel::Avx2].into_iter().find(|level| level.label() == value)
    }
}

/// The hardware's widest supported tier, ignoring any `LCC_SIMD` override.
fn detected_level() -> SimdLevel {
    static DETECTED: OnceLock<SimdLevel> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return SimdLevel::Avx2;
        }
        SimdLevel::Scalar
    })
}

/// The active dispatch tier: the detected level, lowered by `LCC_SIMD` when
/// set. Cached after the first call — the hot paths pay one atomic load.
///
/// # Panics
/// Panics when `LCC_SIMD` is set to something other than `off|avx2` (or
/// empty, which counts as unset).
pub fn simd_level() -> SimdLevel {
    static LEVEL: OnceLock<SimdLevel> = OnceLock::new();
    *LEVEL.get_or_init(|| match std::env::var("LCC_SIMD") {
        Ok(value) if !value.is_empty() => {
            let requested = SimdLevel::parse(&value)
                .unwrap_or_else(|| panic!("LCC_SIMD={value} is not one of off|avx2"));
            // A tier the hardware (or architecture) lacks clamps to the
            // detected level instead of faulting.
            requested.min(detected_level())
        }
        _ => detected_level(),
    })
}

/// Every tier the current hardware can actually execute, narrowest first.
/// Always starts with [`SimdLevel::Scalar`]; the equivalence tests iterate
/// this so scalar-vs-AVX2 identity is checked wherever the host has AVX2.
pub fn supported_levels() -> &'static [SimdLevel] {
    match detected_level() {
        SimdLevel::Scalar => &[SimdLevel::Scalar],
        SimdLevel::Avx2 => &[SimdLevel::Scalar, SimdLevel::Avx2],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_are_ordered() {
        assert!(SimdLevel::Scalar < SimdLevel::Avx2);
    }

    #[test]
    fn labels_match_the_override_vocabulary() {
        for (level, label) in [(SimdLevel::Scalar, "off"), (SimdLevel::Avx2, "avx2")] {
            assert_eq!(level.label(), label);
            assert_eq!(SimdLevel::parse(label), Some(level));
        }
        for refused in ["scalar", "sse4", "sse4.1", "avx512", "neon", "AVX2", ""] {
            assert_eq!(SimdLevel::parse(refused), None, "{refused:?}");
        }
    }

    #[test]
    fn supported_levels_start_scalar_and_end_detected() {
        let levels = supported_levels();
        assert_eq!(levels.first(), Some(&SimdLevel::Scalar));
        assert_eq!(levels.last(), Some(&detected_level()));
        // The active level is always one the hardware supports.
        assert!(levels.contains(&simd_level()));
    }

    #[test]
    fn detection_is_stable() {
        assert_eq!(detected_level(), detected_level());
        assert_eq!(simd_level(), simd_level());
    }
}
