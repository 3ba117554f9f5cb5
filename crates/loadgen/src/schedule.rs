//! Deterministic request schedule for the load generator.
//!
//! A load run must be reproducible — same seed, same request mix — so the
//! schedule draws from the vendored seedable [`StdRng`] rather than any
//! wall-clock entropy. The first `n_variants` requests walk every registry
//! variant exactly once (so even a very short smoke run measures all of
//! them); from there the mix is a uniform draw over (variant, field) pairs,
//! which models traffic where no codec or payload size dominates.
//!
//! Region-read variants additionally carry a **window** index drawn from a
//! Zipf-like popularity law (weight ∝ 1/(k+1)^s): real visualization and
//! analysis traffic concentrates on a few hot regions, and that skew is
//! exactly what makes a decoded-tile cache earn its memory — a uniform
//! window mix would understate every cache in existence.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One load-generator request: indices into the run's variant and field
/// tables, plus (for region variants) the window table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Index into the variant table (codec × container form).
    pub variant: usize,
    /// Index into the prepared payload-field table.
    pub field: usize,
    /// Index into the region-window table (0 for non-region variants).
    pub window: usize,
}

/// Seeded, deterministic stream of [`Request`]s.
#[derive(Debug)]
pub struct Schedule {
    rng: StdRng,
    n_variants: usize,
    n_fields: usize,
    /// First variant index that is a region read; `n_variants` when none.
    region_start: usize,
    /// Normalized cumulative Zipf weights over the window table.
    zipf_cdf: Vec<f64>,
    issued: u64,
}

impl Schedule {
    /// A schedule over `n_variants` variants and `n_fields` payload fields,
    /// with no region band.
    ///
    /// # Panics
    /// Panics if either count is zero.
    pub fn new(seed: u64, n_variants: usize, n_fields: usize) -> Self {
        assert!(n_variants > 0 && n_fields > 0, "schedule needs variants and fields");
        Schedule {
            rng: StdRng::seed_from_u64(seed),
            n_variants,
            n_fields,
            region_start: n_variants,
            zipf_cdf: Vec::new(),
            issued: 0,
        }
    }

    /// Mark variants `region_start..n_variants` as region reads drawing a
    /// window from a Zipf-like law with exponent `s` over `n_windows`
    /// windows (window `k` has weight `1/(k+1)^s`).
    ///
    /// # Panics
    /// Panics if `n_windows` is zero or `region_start` exceeds the variant
    /// count.
    pub fn with_regions(mut self, region_start: usize, n_windows: usize, s: f64) -> Self {
        assert!(n_windows > 0, "region band needs windows");
        assert!(region_start <= self.n_variants, "region_start out of range");
        let mut acc = 0.0;
        let mut cdf = Vec::with_capacity(n_windows);
        for k in 0..n_windows {
            acc += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        self.region_start = region_start;
        self.zipf_cdf = cdf;
        self
    }

    /// Number of requests issued so far.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Draw a window index from the Zipf CDF (0 when no region band).
    fn draw_window(&mut self) -> usize {
        if self.zipf_cdf.is_empty() {
            return 0;
        }
        // 53 uniform mantissa bits → u in [0, 1).
        let u = (self.rng.gen::<u64>() >> 11) as f64 / (1u64 << 53) as f64;
        self.zipf_cdf.partition_point(|&c| c <= u).min(self.zipf_cdf.len() - 1)
    }

    /// The next request: round-robin coverage of every variant first, then
    /// uniform random (variant, field) draws; region variants get a
    /// Zipf-popular window (round-robin requests walk the window table so
    /// coverage is deterministic).
    pub fn next_request(&mut self) -> Request {
        let issued = self.issued;
        self.issued += 1;
        if (issued as usize) < self.n_variants {
            let variant = issued as usize;
            let window = if variant >= self.region_start && !self.zipf_cdf.is_empty() {
                issued as usize % self.zipf_cdf.len()
            } else {
                0
            };
            return Request { variant, field: issued as usize % self.n_fields, window };
        }
        let variant = (self.rng.gen::<u64>() % self.n_variants as u64) as usize;
        let field = (self.rng.gen::<u64>() % self.n_fields as u64) as usize;
        let window = if variant >= self.region_start { self.draw_window() } else { 0 };
        Request { variant, field, window }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = Schedule::new(9, 12, 6);
        let mut b = Schedule::new(9, 12, 6);
        for _ in 0..500 {
            assert_eq!(a.next_request(), b.next_request());
        }
        let mut c = Schedule::new(10, 12, 6);
        let differs = (0..500).any(|_| {
            let mut a = Schedule::new(9, 12, 6);
            for _ in 0..a.n_variants {
                a.next_request();
            }
            a.next_request() != c.next_request()
        });
        assert!(differs, "different seeds should diverge");
    }

    #[test]
    fn first_requests_cover_every_variant_once() {
        let mut s = Schedule::new(3, 12, 5);
        let mut seen = [0usize; 12];
        for _ in 0..12 {
            let r = s.next_request();
            assert!(r.field < 5);
            assert_eq!(r.window, 0, "no region band, no windows");
            seen[r.variant] += 1;
        }
        assert!(seen.iter().all(|&c| c == 1), "warmup must cover each variant exactly once");
        assert_eq!(s.issued(), 12);
    }

    #[test]
    fn random_phase_stays_in_bounds_and_hits_everything_eventually() {
        let mut s = Schedule::new(4, 12, 6);
        let mut variants = [0usize; 12];
        let mut fields = [0usize; 6];
        for _ in 0..2000 {
            let r = s.next_request();
            variants[r.variant] += 1;
            fields[r.field] += 1;
        }
        assert!(variants.iter().all(|&c| c > 0));
        assert!(fields.iter().all(|&c| c > 0));
    }

    #[test]
    fn region_band_is_deterministic_and_in_bounds() {
        let make = || Schedule::new(11, 18, 6).with_regions(15, 49, 1.1);
        let mut a = make();
        let mut b = make();
        for _ in 0..2000 {
            let ra = a.next_request();
            assert_eq!(ra, b.next_request());
            assert!(ra.window < 49);
            if ra.variant < 15 {
                assert_eq!(ra.window, 0, "non-region requests carry window 0");
            }
        }
    }

    #[test]
    fn zipf_windows_are_skewed_toward_the_head() {
        let mut s = Schedule::new(5, 4, 2).with_regions(0, 32, 1.1);
        let mut counts = [0u64; 32];
        for _ in 0..20_000 {
            counts[s.next_request().window] += 1;
        }
        // Every window appears, but the head dominates the tail: that skew
        // is the whole point of a popularity schedule.
        assert!(counts.iter().all(|&c| c > 0), "every window must be drawn eventually");
        assert!(
            counts[0] > 4 * counts[31],
            "window 0 ({}) should dwarf window 31 ({})",
            counts[0],
            counts[31]
        );
        let head: u64 = counts[..8].iter().sum();
        let total: u64 = counts.iter().sum();
        assert!(head as f64 > total as f64 * 0.5, "hot eighth should carry most traffic");
    }
}
