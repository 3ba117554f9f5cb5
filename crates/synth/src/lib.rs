//! # lcc-synth — synthetic Gaussian random fields with known correlation
//!
//! The paper's controlled experiments use 2D Gaussian random fields with a
//! squared-exponential covariance `Σ(xᵢ, xⱼ) = σ² exp(−|xᵢ−xⱼ|² / a²)` whose
//! correlation range `a` is known and swept, plus "multi-range" fields built
//! from two ranges contributing equally. This crate generates those fields
//! from scratch:
//!
//! * [`generate_single_range`] — circulant-embedding / spectral synthesis of
//!   a stationary Gaussian field with the exact squared-exponential
//!   covariance on an enclosing periodic power-of-two domain, cropped to the
//!   requested size,
//! * [`generate_multi_range`] — equal-weight superposition of independent
//!   single-range fields (the paper's two-range construction),
//! * [`rng`] — a seeded Gaussian sampler (Box–Muller over a xoshiro256++
//!   generator seeded by SplitMix64) so every figure is reproducible from
//!   its seed.
//!
//! The spectral synthesis needs only a power-of-two complex FFT in 2D: a
//! private iterative radix-2 Cooley–Tukey transform, applied to strips of
//! eight rows and then of eight columns (plain lane arithmetic, compiled
//! once more for AVX2), with each axis's twiddles tabulated once, in place
//! on the one buffer a field is generated on. The covariance kernel is
//! evaluated on one quadrant, and only its distinct rows are transformed.
//! Every field keeps the bits of the textbook synthesis (see [`grf`]).
//! Generating one full-scale 1028×1028 field (a 2048² embedding) takes
//! ≈ 0.5 s on a 2-vCPU dev box at the AVX2 tier (≈ 0.7 s with whole-kernel
//! rows and one-row transforms), over ten times one `sz` compress of it
//! (≈ 40 ms): synthesis, not compression, is what a paper-scale study
//! spends its set-up on. Box–Muller sampling of the noise is now about
//! two fifths of it.
//!
//! ```
//! use lcc_synth::{generate_single_range, GaussianFieldConfig};
//! let f = generate_single_range(&GaussianFieldConfig::new(128, 128, 12.0, 7));
//! assert_eq!(f.shape(), (128, 128));
//! ```

pub mod grf;
pub mod rng;
mod simd;

pub use grf::{generate_multi_range, generate_single_range, GaussianFieldConfig, MultiRangeConfig};
pub use rng::GaussianSampler;

#[cfg(test)]
mod tests {
    use super::*;
    use lcc_grid::stats;

    #[test]
    fn reexports_are_usable() {
        let cfg = GaussianFieldConfig::new(32, 32, 4.0, 3);
        let f = generate_single_range(&cfg);
        let s = f.summary();
        assert_eq!(s.count, 32 * 32);
        assert!(s.variance.sqrt() > 0.0);
        let mut sampler = GaussianSampler::new(1);
        let draws: Vec<f64> = (0..100).map(|_| sampler.sample()).collect();
        assert!(stats::std_dev(&draws) > 0.5);
    }
}
