//! Seeded Gaussian sampling (Box–Muller over `rand`'s `StdRng`).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A reproducible standard-normal sampler.
///
/// Uses the polar-free Box–Muller transform: every pair of uniform draws
/// yields two independent `N(0, 1)` values; the spare value is cached so the
/// stream depends only on the seed and the number of samples requested.
#[derive(Debug, Clone)]
pub struct GaussianSampler {
    rng: StdRng,
    spare: Option<f64>,
}

impl GaussianSampler {
    /// Create a sampler from a seed.
    pub fn new(seed: u64) -> Self {
        GaussianSampler { rng: StdRng::seed_from_u64(seed), spare: None }
    }

    /// Draw one standard normal value.
    pub fn sample(&mut self) -> f64 {
        if let Some(v) = self.spare.take() {
            return v;
        }
        // Box–Muller: u1 in (0, 1], u2 in [0, 1).
        let u1: f64 = 1.0 - self.rng.gen::<f64>();
        let u2: f64 = self.rng.gen();
        let radius = (-2.0 * u1.ln()).sqrt();
        let angle = 2.0 * std::f64::consts::PI * u2;
        self.spare = Some(radius * angle.sin());
        radius * angle.cos()
    }

    /// Draw `n` standard normal values.
    #[cfg(test)]
    pub(crate) fn sample_vec(&mut self, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.sample()).collect()
    }

    /// Draw a uniform value in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        self.rng.gen()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcc_grid::stats;

    #[test]
    fn deterministic_for_a_given_seed() {
        let a = GaussianSampler::new(42).sample_vec(100);
        let b = GaussianSampler::new(42).sample_vec(100);
        assert_eq!(a, b);
        let c = GaussianSampler::new(43).sample_vec(100);
        assert_ne!(a, c);
    }

    #[test]
    fn moments_are_approximately_standard_normal() {
        let n = 200_000;
        let draws = GaussianSampler::new(7).sample_vec(n);
        let mean = stats::mean(&draws);
        let std = stats::std_dev(&draws);
        assert!(mean.abs() < 0.01, "mean = {mean}");
        assert!((std - 1.0).abs() < 0.01, "std = {std}");
        // Roughly 68% of samples within one standard deviation.
        let within: f64 = draws.iter().filter(|v| v.abs() <= 1.0).count() as f64 / n as f64;
        assert!((within - 0.6827).abs() < 0.01, "within 1 sigma: {within}");
        // All values finite.
        assert!(draws.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn uniform_stays_in_unit_interval() {
        let mut s = GaussianSampler::new(5);
        for _ in 0..1000 {
            let u = s.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn consecutive_samples_are_uncorrelated() {
        let draws = GaussianSampler::new(11).sample_vec(100_000);
        let x = &draws[..draws.len() - 1];
        let y = &draws[1..];
        let r = stats::pearson(x, y);
        assert!(r.abs() < 0.01, "lag-1 autocorrelation {r}");
    }
}
