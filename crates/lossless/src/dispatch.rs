//! Runtime SIMD dispatch for the codec hot-path kernels.
//!
//! Every vectorized kernel in the workspace (the rANS decode loop, the LZ77
//! match comparator, the SZ plane-predict/quantize row kernel, the ZFP block
//! transform, the xxh64 stripe loop) asks this module which tier to run at.
//! The guarantees are:
//!
//! * **One-time detection.** [`simd_level`] probes the CPU once (via
//!   `is_x86_feature_detected!` on x86_64; every other architecture,
//!   aarch64 included, has scalar kernels only and detects as such) and
//!   caches the answer in a `OnceLock`.
//! * **Byte-identical streams.** A SIMD tier is only ever an implementation
//!   of the scalar kernel — same outputs, same errors, same consumed byte
//!   counts — so streams written at any tier decode at any other tier and
//!   the binary fixtures pin one set of bytes for all of them.
//! * **Override for testing.** `LCC_SIMD=off|sse4|avx2` forces a tier
//!   at or below the detected one (CI runs the suite at `off` and at the
//!   default). Requests above the hardware's capability clamp down to the
//!   detected level — the override can never select an illegal instruction.
//!   An unrecognized value panics: a typo in a CI matrix must fail loudly,
//!   not silently benchmark the wrong tier.
//!
//! Kernels take an explicit [`SimdLevel`] argument in their `*_at` entry
//! points (used by the equivalence tests and the per-kernel benchmarks) and
//! read the process-wide level in their plain entry points. Each kernel maps
//! the level to the best implementation it has at or below that tier — e.g.
//! the ZFP transform has only scalar and AVX2 implementations, so `sse4`
//! runs it scalar.

use std::sync::OnceLock;

/// A SIMD capability tier, ordered from narrowest to widest.
///
/// The ordering is what kernels dispatch on: a kernel runs its widest
/// implementation at or below the active level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SimdLevel {
    /// Portable scalar loops only.
    Scalar,
    /// x86_64 SSE4.1 (128-bit integer lanes).
    Sse4,
    /// x86_64 AVX2 (256-bit lanes).
    Avx2,
}

impl SimdLevel {
    /// The label used by the `LCC_SIMD` override and the benchmark JSON
    /// schema (`"off"` for scalar, matching the override vocabulary).
    pub fn label(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "off",
            SimdLevel::Sse4 => "sse4",
            SimdLevel::Avx2 => "avx2",
        }
    }

    /// Parse an `LCC_SIMD` override value.
    fn parse(value: &str) -> Option<SimdLevel> {
        match value {
            "off" | "scalar" => Some(SimdLevel::Scalar),
            "sse4" | "sse4.1" => Some(SimdLevel::Sse4),
            "avx2" => Some(SimdLevel::Avx2),
            _ => None,
        }
    }
}

/// Probe the hardware for the widest supported tier.
fn detect() -> SimdLevel {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            SimdLevel::Avx2
        } else if std::arch::is_x86_feature_detected!("sse4.1") {
            SimdLevel::Sse4
        } else {
            SimdLevel::Scalar
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        SimdLevel::Scalar
    }
}

/// The hardware's widest supported tier, ignoring any `LCC_SIMD` override.
pub fn detected_level() -> SimdLevel {
    static DETECTED: OnceLock<SimdLevel> = OnceLock::new();
    *DETECTED.get_or_init(detect)
}

/// The active dispatch tier: the detected level, lowered by `LCC_SIMD` when
/// set. Cached after the first call — the hot paths pay one atomic load.
///
/// # Panics
/// Panics when `LCC_SIMD` is set to something other than
/// `off|scalar|sse4|avx2` (or empty, which counts as unset).
pub fn simd_level() -> SimdLevel {
    static LEVEL: OnceLock<SimdLevel> = OnceLock::new();
    *LEVEL.get_or_init(|| {
        let detected = detected_level();
        match std::env::var("LCC_SIMD") {
            Ok(value) if !value.is_empty() => {
                let requested = SimdLevel::parse(&value).unwrap_or_else(|| {
                    panic!("LCC_SIMD={value} is not one of off|scalar|sse4|avx2")
                });
                if supported_levels().contains(&requested) {
                    requested
                } else {
                    // Requesting a tier the hardware (or architecture) lacks
                    // clamps to the detected level instead of faulting.
                    detected
                }
            }
            _ => detected,
        }
    })
}

/// Every tier the current hardware can actually execute, narrowest first.
/// Always contains [`SimdLevel::Scalar`]; the equivalence tests iterate this
/// so scalar-vs-SIMD identity is checked at every level the host supports.
pub fn supported_levels() -> &'static [SimdLevel] {
    match detected_level() {
        SimdLevel::Scalar => &[SimdLevel::Scalar],
        SimdLevel::Sse4 => &[SimdLevel::Scalar, SimdLevel::Sse4],
        SimdLevel::Avx2 => &[SimdLevel::Scalar, SimdLevel::Sse4, SimdLevel::Avx2],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_are_ordered() {
        assert!(SimdLevel::Scalar < SimdLevel::Sse4);
        assert!(SimdLevel::Sse4 < SimdLevel::Avx2);
    }

    #[test]
    fn labels_match_the_override_vocabulary() {
        for (level, label) in
            [(SimdLevel::Scalar, "off"), (SimdLevel::Sse4, "sse4"), (SimdLevel::Avx2, "avx2")]
        {
            assert_eq!(level.label(), label);
            assert_eq!(SimdLevel::parse(label), Some(level));
        }
        assert_eq!(SimdLevel::parse("scalar"), Some(SimdLevel::Scalar));
        assert_eq!(SimdLevel::parse("avx512"), None);
        assert_eq!(SimdLevel::parse("neon"), None);
        assert_eq!(SimdLevel::parse(""), None);
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
