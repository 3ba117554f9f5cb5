//! Seeded, dependency-free randomness: every input of the benchmark is a
//! function of `--seed` and nothing else.

/// SplitMix64: small, fast, and good enough to drive schedules.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// An independent stream for a named purpose, so adding a draw to one
    /// consumer never shifts the inputs of another.
    pub fn fork(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.uniform() * n as f64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Zipf distribution over ranks `0..n` with exponent `s`, sampled by
/// inverting the precomputed CDF.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += 1.0 / (rank as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.uniform();
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schedule(seed: u64) -> Vec<usize> {
        let zipf = Zipf::new(1024, 1.1);
        let mut rng = Rng::fork(seed, 3);
        (0..4096).map(|_| zipf.sample(&mut rng)).collect()
    }

    #[test]
    fn zipf_schedule_is_a_function_of_the_seed() {
        assert_eq!(schedule(2021), schedule(2021));
        assert_ne!(schedule(2021), schedule(2022));
    }

    #[test]
    fn zipf_favours_low_ranks_and_stays_in_range() {
        let draws = schedule(7);
        assert!(draws.iter().all(|&r| r < 1024));
        let head = draws.iter().filter(|&&r| r < 16).count();
        let tail = draws.iter().filter(|&&r| r >= 1008).count();
        assert!(head > 20 * tail.max(1), "head {head} tail {tail}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut items: Vec<usize> = (0..80).collect();
        Rng::new(5).shuffle(&mut items);
        let mut sorted = items.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..80).collect::<Vec<_>>());
        assert_ne!(items, sorted);
    }
}
