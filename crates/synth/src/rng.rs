//! Seeded Gaussian sampling: Box–Muller over a xoshiro256++ generator.

/// xoshiro256++ (Blackman & Vigna), its state expanded from a 64-bit seed
/// by SplitMix64 as its authors recommend: fast, 256 bits of state, and
/// statistically clean for every use here. Its streams are this
/// workspace's own; nothing compares them with another library's.
#[derive(Debug, Clone)]
struct Xoshiro256PlusPlus {
    state: [u64; 4],
}

impl Xoshiro256PlusPlus {
    fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Xoshiro256PlusPlus { state: [next(), next(), next(), next()] }
    }

    fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.state;
        let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
        let t = s1 << 17;
        let mut s2 = s2 ^ s0;
        let mut s3 = s3 ^ s1;
        let s1 = s1 ^ s2;
        let s0 = s0 ^ s3;
        s2 ^= t;
        s3 = s3.rotate_left(45);
        self.state = [s0, s1, s2, s3];
        result
    }

    /// A uniform double in `[0, 1)` from the word's 53 high bits.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// A reproducible standard-normal sampler.
///
/// Uses the polar-free Box–Muller transform: every pair of uniform draws
/// yields two independent `N(0, 1)` values; the spare value is cached so the
/// stream depends only on the seed and the number of samples requested.
#[derive(Debug, Clone)]
pub struct GaussianSampler {
    rng: Xoshiro256PlusPlus,
    spare: Option<f64>,
}

impl GaussianSampler {
    /// Create a sampler from a seed.
    pub fn new(seed: u64) -> Self {
        GaussianSampler { rng: Xoshiro256PlusPlus::seed_from_u64(seed), spare: None }
    }

    /// Draw one standard normal value.
    pub fn sample(&mut self) -> f64 {
        if let Some(v) = self.spare.take() {
            return v;
        }
        // Box–Muller: u1 in (0, 1], u2 in [0, 1).
        let u1 = 1.0 - self.rng.next_f64();
        let u2 = self.rng.next_f64();
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
        self.rng.next_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcc_grid::stats;

    #[test]
    fn generator_is_deterministic_per_seed() {
        let words = |seed| {
            let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
            (0..32).map(|_| rng.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(words(1), words(1));
        assert_ne!(words(1), words(2));
    }

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
    fn uniform_is_uniform_on_the_unit_interval() {
        let mut s = GaussianSampler::new(3);
        let n = 100_000;
        let draws: Vec<f64> = (0..n).map(|_| s.uniform()).collect();
        assert!(draws.iter().all(|u| (0.0..1.0).contains(u)));
        let mean = stats::mean(&draws);
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
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
