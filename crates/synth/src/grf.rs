//! Gaussian random field synthesis by circulant embedding.
//!
//! To draw a stationary Gaussian field with covariance
//! `C(h) = σ² exp(−|h|²/a²)` we embed the target `ny × nx` grid in a larger
//! periodic power-of-two domain, build the wrapped covariance kernel there,
//! take its 2D FFT (the eigenvalues of the circulant covariance operator),
//! and filter complex white noise by the square root of those eigenvalues.
//! The real part of the inverse transform is a Gaussian field with exactly
//! the wrapped covariance; cropping the `ny × nx` corner and padding the
//! domain by several correlation lengths makes the wrap-around contribution
//! negligible.
//!
//! The field is finally re-centred and re-scaled to zero mean / the requested
//! variance over the generation domain, which removes the (seed-dependent)
//! sampling fluctuation of the marginal variance without touching the
//! correlation structure — convenient because the study compares fields
//! across correlation ranges at a fixed error bound.
//!
//! ## Traversal
//!
//! The FFT computes every value by the same floating-point operations, in
//! the same order, as the textbook transform (the 1D transform of each row
//! and then of each column, with its twiddles built inside the butterfly
//! loop and the inverse divided by `N`), which the tests keep as the
//! oracle; only the traversal differs:
//!
//! * each axis's twiddles are built once per transform, by the butterfly
//!   loop's own `w = w · wlen` recurrence, so each has that loop's bits;
//! * columns are transformed eight at a time, gathered once into a
//!   contiguous strip, instead of one strided column at a time;
//! * the inverse multiplies by `1 / N`, an exact power of two, which
//!   rounds as the quotient by `N` does.

use crate::rng::GaussianSampler;
use lcc_grid::Field2D;
use std::ops::{Add, Mul, Sub};

/// Configuration for a single-range squared-exponential Gaussian field.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaussianFieldConfig {
    /// Number of rows of the output field.
    pub ny: usize,
    /// Number of columns of the output field.
    pub nx: usize,
    /// Correlation range `a` in grid units (`Σ = σ² exp(−d²/a²)`).
    pub range: f64,
    /// Marginal variance `σ²`.
    pub variance: f64,
    /// RNG seed.
    pub seed: u64,
}

impl GaussianFieldConfig {
    /// Convenience constructor with unit variance.
    pub fn new(ny: usize, nx: usize, range: f64, seed: u64) -> Self {
        GaussianFieldConfig { ny, nx, range, variance: 1.0, seed }
    }

    /// The paper's field size (1028 × 1028) for a given range and seed.
    pub fn paper_scale(range: f64, seed: u64) -> Self {
        GaussianFieldConfig::new(1028, 1028, range, seed)
    }
}

/// Configuration for a multi-range field: independent single-range fields
/// superposed with the given weights (the paper uses two ranges with equal
/// contribution).
#[derive(Debug, Clone, PartialEq)]
pub struct MultiRangeConfig {
    /// Output rows.
    pub ny: usize,
    /// Output columns.
    pub nx: usize,
    /// Correlation ranges of the contributing fields.
    pub ranges: Vec<f64>,
    /// Relative weights (will be normalized so the variances sum to
    /// `variance`).
    pub weights: Vec<f64>,
    /// Total marginal variance of the combined field.
    pub variance: f64,
    /// RNG seed (each component derives its own sub-seed).
    pub seed: u64,
}

impl MultiRangeConfig {
    /// The paper's construction: two ranges contributing equally.
    pub fn two_ranges(ny: usize, nx: usize, a1: f64, a2: f64, seed: u64) -> Self {
        MultiRangeConfig {
            ny,
            nx,
            ranges: vec![a1, a2],
            weights: vec![1.0, 1.0],
            variance: 1.0,
            seed,
        }
    }
}

/// Generate a single-range squared-exponential Gaussian random field.
///
/// The whole synthesis runs on one buffer of the embedding's size: the
/// kernel is filled into it, transformed, filtered and inverse-transformed
/// in place.
///
/// # Panics
/// Panics if the dimensions are zero, the range or the variance is not
/// positive and finite, the range is so small that its square underflows
/// to zero (below about 1e-162, where the kernel's origin would be
/// `0 / 0`), or the range makes the periodic embedding domain too large to
/// address.
pub fn generate_single_range(config: &GaussianFieldConfig) -> Field2D {
    assert!(config.ny > 0 && config.nx > 0, "field dimensions must be non-zero");
    assert!(config.range.is_finite() && config.range > 0.0, "correlation range must be positive");
    assert!(
        config.variance.is_finite() && config.variance > 0.0,
        "variance must be positive and finite"
    );
    let (m_y, m_x) = embedding(config.ny, config.nx, config.range).unwrap_or_else(|| {
        panic!("correlation range {} needs a periodic embedding too large to address", config.range)
    });

    // Wrapped squared-exponential covariance kernel; its FFT is the
    // eigenvalues of the circulant covariance.
    let a2 = config.range * config.range;
    assert!(
        a2 > 0.0,
        "correlation range {:e} is too small: its square underflows to zero",
        config.range
    );
    let mut data = Vec::with_capacity(m_y * m_x);
    for i in 0..m_y {
        let di = i.min(m_y - i) as f64;
        for j in 0..m_x {
            let dj = j.min(m_x - j) as f64;
            data.push(Complex::new((-(di * di + dj * dj) / a2).exp(), 0.0));
        }
    }
    fft_2d(&mut data, m_x, false);

    // Filter complex white noise by sqrt(eigenvalues).
    let mut sampler = GaussianSampler::new(config.seed);
    for c in &mut data {
        // Numerical round-off can leave tiny negative eigenvalues; clamp.
        let amp = c.re.max(0.0).sqrt();
        *c = Complex::new(sampler.sample() * amp, sampler.sample() * amp);
    }
    fft_2d(&mut data, m_x, true);

    // Normalize the real part to zero mean / requested variance over the
    // generation domain, and crop the requested corner.
    let n = data.len() as f64;
    let mean = data.iter().map(|c| c.re).sum::<f64>() / n;
    let var = data.iter().map(|c| (c.re - mean) * (c.re - mean)).sum::<f64>() / n;
    let scale = if var > 0.0 { (config.variance / var).sqrt() } else { 0.0 };
    Field2D::from_fn(config.ny, config.nx, |i, j| (data[i * m_x + j].re - mean) * scale)
}

/// Rows and columns of the periodic embedding domain: the field padded by
/// ~4 correlation lengths so the wrapped covariance is negligible at the
/// crop boundary, each extent rounded up to a power of two for the FFT.
/// `None` when the domain's bytes cannot be counted in an `isize`.
fn embedding(ny: usize, nx: usize, range: f64) -> Option<(usize, usize)> {
    let pad = ((4.0 * range).ceil() as usize).checked_add(8)?;
    let m_y = ny.checked_add(pad)?.checked_next_power_of_two()?;
    let m_x = nx.checked_add(pad)?.checked_next_power_of_two()?;
    let bytes = m_y.checked_mul(m_x)?.checked_mul(std::mem::size_of::<Complex>())?;
    (bytes <= isize::MAX as usize).then_some((m_y, m_x))
}

/// Generate a multi-range field by superposing independent single-range
/// fields.
///
/// # Panics
/// Panics if no ranges are given or the weights do not match the ranges.
pub fn generate_multi_range(config: &MultiRangeConfig) -> Field2D {
    assert!(!config.ranges.is_empty(), "at least one range is required");
    assert_eq!(config.ranges.len(), config.weights.len(), "one weight per range is required");
    assert!(config.weights.iter().all(|w| *w > 0.0), "weights must be positive");

    let weight_sum: f64 = config.weights.iter().sum();
    let mut out = Field2D::zeros(config.ny, config.nx);
    for (k, (&range, &weight)) in config.ranges.iter().zip(config.weights.iter()).enumerate() {
        let component_variance = config.variance * weight / weight_sum;
        let component = generate_single_range(&GaussianFieldConfig {
            ny: config.ny,
            nx: config.nx,
            range,
            variance: component_variance,
            // Derive distinct, deterministic sub-seeds per component.
            seed: config.seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(k as u64 + 1),
        });
        out.add_assign_field(&component);
    }
    out
}

/// Complex number with `f64` parts: the FFT's element.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Complex {
    re: f64,
    im: f64,
}

impl Complex {
    const ZERO: Complex = Complex { re: 0.0, im: 0.0 };
    const ONE: Complex = Complex { re: 1.0, im: 0.0 };

    fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// `exp(i theta)`, a unit phasor.
    fn cis(theta: f64) -> Self {
        Complex { re: theta.cos(), im: theta.sin() }
    }
}

impl Add for Complex {
    type Output = Complex;
    #[inline]
    fn add(self, rhs: Complex) -> Complex {
        Complex { re: self.re + rhs.re, im: self.im + rhs.im }
    }
}

impl Sub for Complex {
    type Output = Complex;
    #[inline]
    fn sub(self, rhs: Complex) -> Complex {
        Complex { re: self.re - rhs.re, im: self.im - rhs.im }
    }
}

impl Mul for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: Complex) -> Complex {
        Complex { re: self.re * rhs.re - self.im * rhs.im, im: self.re * rhs.im + self.im * rhs.re }
    }
}

/// Columns transformed together by [`fft_2d`]: the strip is gathered into
/// an `ny × STRIP` scratch once, so each butterfly runs over `STRIP`
/// contiguous values instead of one strided column at a time.
const STRIP: usize = 8;

/// In-place 2D FFT of a row-major buffer `nx` wide (both extents powers of
/// two): the 1D transform over every row, then over every column. `inverse`
/// is normalized, so the inverse undoes the forward transform. A strip of
/// `STRIP` columns applies each butterfly to its columns side by side, in
/// the order of one column, so each value has the textbook transform's
/// bits (see the module's traversal notes).
fn fft_2d(data: &mut [Complex], nx: usize, inverse: bool) {
    let ny = data.len() / nx;
    let row_twiddles = twiddles(nx, inverse);
    for row in data.chunks_exact_mut(nx) {
        fft_lanes::<1>(row, &row_twiddles, inverse);
    }
    let col_twiddles = if ny == nx { row_twiddles } else { twiddles(ny, inverse) };
    let mut strip = vec![Complex::ZERO; ny * STRIP.min(nx)];
    let wide = nx - nx % STRIP;
    for j in (0..wide).step_by(STRIP) {
        for (lanes, row) in strip.chunks_exact_mut(STRIP).zip(data.chunks_exact(nx)) {
            lanes.copy_from_slice(&row[j..j + STRIP]);
        }
        fft_lanes::<STRIP>(&mut strip, &col_twiddles, inverse);
        for (lanes, row) in strip.chunks_exact(STRIP).zip(data.chunks_exact_mut(nx)) {
            row[j..j + STRIP].copy_from_slice(lanes);
        }
    }
    // `nx` is a power of two, so columns are left over only when the whole
    // field is narrower than one strip (`nx` of 1, 2 or 4): those go one by one.
    let column = &mut strip[..ny];
    for j in wide..nx {
        for (value, row) in column.iter_mut().zip(data.chunks_exact(nx)) {
            *value = row[j];
        }
        fft_lanes::<1>(column, &col_twiddles, inverse);
        for (value, row) in column.iter().zip(data.chunks_exact_mut(nx)) {
            row[j] = *value;
        }
    }
}

/// Twiddle factors of every butterfly stage of a length-`n` transform, the
/// stage of span `len` at offsets `len / 2 - 1 ..= len - 2`: `w_0 = 1`,
/// `w_{k+1} = w_k · cis(±2π / len)`, the recurrence and rounding of the
/// textbook butterfly loop, so each factor has that loop's bits.
fn twiddles(n: usize, inverse: bool) -> Vec<Complex> {
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut table = Vec::with_capacity(n.saturating_sub(1));
    let mut len = 2usize;
    while len <= n {
        let wlen = Complex::cis(sign * 2.0 * std::f64::consts::PI / len as f64);
        let mut w = Complex::ONE;
        for _ in 0..len / 2 {
            table.push(w);
            w = w * wlen;
        }
        len <<= 1;
    }
    table
}

/// In-place radix-2 Cooley–Tukey FFT of `LANES` interleaved signals of a
/// power-of-two length `data.len() / LANES` (element `i` of lane `b` at
/// `i * LANES + b`), with the stage twiddles of [`twiddles`]: the DFT with
/// the `exp(-i 2π kn / N)` kernel, unnormalized, or with `inverse` the
/// `exp(+i …)` kernel times `1 / N` (a power of two, so the product is the
/// quotient by `N`, bit for bit).
fn fft_lanes<const LANES: usize>(data: &mut [Complex], twiddles: &[Complex], inverse: bool) {
    let n = data.len() / LANES;
    debug_assert!(n.is_power_of_two(), "FFT length must be a power of two, got {n}");
    debug_assert_eq!(twiddles.len(), n - 1, "twiddle table of another length");
    if n > 1 {
        // Bit-reversal permutation.
        let shift = usize::BITS - n.trailing_zeros();
        for i in 0..n {
            let j = i.reverse_bits() >> shift;
            if j > i {
                for b in 0..LANES {
                    data.swap(i * LANES + b, j * LANES + b);
                }
            }
        }
        // Danielson–Lanczos butterflies.
        let mut half = 1usize;
        while half < n {
            let stage = &twiddles[half - 1..2 * half - 1];
            for block in data.chunks_exact_mut(2 * half * LANES) {
                let (lo, hi) = block.split_at_mut(half * LANES);
                for ((a, b), &w) in
                    lo.chunks_exact_mut(LANES).zip(hi.chunks_exact_mut(LANES)).zip(stage)
                {
                    for (a, b) in a.iter_mut().zip(b.iter_mut()) {
                        let t = *b * w;
                        *b = *a - t;
                        *a = *a + t;
                    }
                }
            }
            half <<= 1;
        }
    }
    if inverse {
        let scale = 1.0 / n as f64;
        for v in data {
            *v = Complex::new(v.re * scale, v.im * scale);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcc_grid::stats;

    /// The textbook transform [`fft_2d`] must reproduce bit for bit: each
    /// stage's twiddles built inside the butterfly loop, and the inverse
    /// divided by `N`.
    fn fft(data: &mut [Complex], inverse: bool) {
        let n = data.len();
        if n > 1 {
            let shift = usize::BITS - n.trailing_zeros();
            for i in 0..n {
                let j = i.reverse_bits() >> shift;
                if j > i {
                    data.swap(i, j);
                }
            }
            let sign = if inverse { 1.0 } else { -1.0 };
            let mut len = 2usize;
            while len <= n {
                let wlen = Complex::cis(sign * 2.0 * std::f64::consts::PI / len as f64);
                let half = len / 2;
                for block in data.chunks_exact_mut(len) {
                    let mut w = Complex::ONE;
                    for k in 0..half {
                        let a = block[k];
                        let b = block[k + half] * w;
                        block[k] = a + b;
                        block[k + half] = a - b;
                        w = w * wlen;
                    }
                }
                len <<= 1;
            }
        }
        if inverse {
            let n = n as f64;
            for v in data {
                *v = Complex::new(v.re / n, v.im / n);
            }
        }
    }

    /// The textbook 2D transform: [`fft`] over every row, then over every
    /// column through one scratch column.
    fn fft_2d_textbook(data: &mut [Complex], nx: usize, inverse: bool) {
        let ny = data.len() / nx;
        for row in data.chunks_exact_mut(nx) {
            fft(row, inverse);
        }
        let mut col = vec![Complex::ZERO; ny];
        for j in 0..nx {
            for i in 0..ny {
                col[i] = data[i * nx + j];
            }
            fft(&mut col, inverse);
            for i in 0..ny {
                data[i * nx + j] = col[i];
            }
        }
    }

    /// The values of `data` as bits, so a comparison fails on one wrong bit
    /// (and on a zero of the other sign).
    fn bits(data: &[Complex]) -> Vec<(u64, u64)> {
        data.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect()
    }

    #[test]
    fn fft_lanes_equals_the_textbook_transform_bit_for_bit() {
        for log_n in 0..=12 {
            let n = 1usize << log_n;
            for inverse in [false, true] {
                let mut expected = signal(n);
                fft(&mut expected, inverse);
                let mut got = signal(n);
                fft_lanes::<1>(&mut got, &twiddles(n, inverse), inverse);
                assert_eq!(bits(&got), bits(&expected), "n = {n}, inverse = {inverse}");
            }
        }
    }

    #[test]
    fn fft_2d_equals_the_textbook_transform_bit_for_bit() {
        // 64 × 256 is the embedding of a 40 × 200 field at range 3.
        let shapes = [(1, 64), (64, 1), (1, 1), (2, 1024), (1024, 2), (16, 8), (8, 32), (64, 256)];
        for (ny, nx) in shapes {
            for inverse in [false, true] {
                let mut expected = signal(ny * nx);
                fft_2d_textbook(&mut expected, nx, inverse);
                let mut got = signal(ny * nx);
                fft_2d(&mut got, nx, inverse);
                assert_eq!(bits(&got), bits(&expected), "{ny}x{nx}, inverse = {inverse}");
            }
        }
    }

    /// Empirical correlation between the field and itself shifted by `lag`
    /// grid points along x.
    fn lag_correlation(field: &Field2D, lag: usize) -> f64 {
        let (ny, nx) = field.shape();
        let mut a = Vec::new();
        let mut b = Vec::new();
        for i in 0..ny {
            for j in 0..nx - lag {
                a.push(field.at(i, j));
                b.push(field.at(i, j + lag));
            }
        }
        stats::pearson(&a, &b)
    }

    #[test]
    fn output_shape_and_moments() {
        let f = generate_single_range(&GaussianFieldConfig::new(96, 80, 6.0, 11));
        assert_eq!(f.shape(), (96, 80));
        let s = f.summary();
        // Mean near zero, variance near one (normalized on the larger domain,
        // so the crop fluctuates a little).
        assert!(s.mean.abs() < 0.3, "mean {}", s.mean);
        assert!((s.variance - 1.0).abs() < 0.5, "variance {}", s.variance);
    }

    #[test]
    fn reproducible_from_seed() {
        let cfg = GaussianFieldConfig::new(64, 64, 8.0, 123);
        assert_eq!(generate_single_range(&cfg), generate_single_range(&cfg));
        let other = GaussianFieldConfig { seed: 124, ..cfg };
        assert_ne!(generate_single_range(&cfg), generate_single_range(&other));
    }

    #[test]
    fn correlation_decays_with_distance_and_range_controls_it() {
        // Larger range => higher correlation at a fixed lag.
        let short = generate_single_range(&GaussianFieldConfig::new(160, 160, 3.0, 5));
        let long = generate_single_range(&GaussianFieldConfig::new(160, 160, 20.0, 5));
        let lag = 8;
        let c_short = lag_correlation(&short, lag);
        let c_long = lag_correlation(&long, lag);
        assert!(c_long > c_short + 0.2, "short {c_short}, long {c_long}");
        // Correlation decays with lag for the short-range field.
        assert!(lag_correlation(&short, 1) > lag_correlation(&short, 16));
    }

    #[test]
    fn correlation_matches_squared_exponential_model() {
        // At lag = a the squared-exponential correlation is exp(-1) ≈ 0.368.
        let a = 10.0;
        let f = generate_single_range(&GaussianFieldConfig::new(192, 192, a, 21));
        let c = lag_correlation(&f, a as usize);
        assert!((c - (-1.0f64).exp()).abs() < 0.15, "correlation at lag a: {c}");
        // And near 1 at very small lags.
        assert!(lag_correlation(&f, 1) > 0.9);
    }

    #[test]
    fn multi_range_combines_components() {
        let cfg = MultiRangeConfig::two_ranges(96, 96, 3.0, 24.0, 17);
        let f = generate_multi_range(&cfg);
        assert_eq!(f.shape(), (96, 96));
        let s = f.summary();
        assert!((s.variance - 1.0).abs() < 0.6, "variance {}", s.variance);
        // The mixture decorrelates faster than the long component alone at
        // small lag, but keeps long-tail correlation beyond the short range.
        let long_only = generate_single_range(&GaussianFieldConfig::new(96, 96, 24.0, 99));
        let short_only = generate_single_range(&GaussianFieldConfig::new(96, 96, 3.0, 98));
        let lag = 10;
        let c_mix = lag_correlation(&f, lag);
        let c_long = lag_correlation(&long_only, lag);
        let c_short = lag_correlation(&short_only, lag);
        assert!(c_mix < c_long + 0.05, "mix {c_mix} vs long {c_long}");
        assert!(c_mix > c_short - 0.05, "mix {c_mix} vs short {c_short}");
    }

    #[test]
    fn multi_range_is_reproducible_and_validated() {
        let cfg = MultiRangeConfig::two_ranges(32, 32, 2.0, 8.0, 1);
        assert_eq!(generate_multi_range(&cfg), generate_multi_range(&cfg));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_range_panics() {
        let _ = generate_single_range(&GaussianFieldConfig::new(16, 16, 0.0, 1));
    }

    #[test]
    #[should_panic(expected = "correlation range 2500000000000000000 needs a periodic embedding")]
    fn range_beyond_any_embedding_panics() {
        let _ = generate_single_range(&GaussianFieldConfig::new(64, 64, 2.5e18, 1));
    }

    #[test]
    #[should_panic(expected = "correlation range 1e-200 is too small: its square underflows")]
    fn range_whose_square_underflows_panics() {
        let _ = generate_single_range(&GaussianFieldConfig::new(16, 16, 1e-200, 1));
    }

    #[test]
    #[should_panic(expected = "variance must be positive and finite")]
    fn infinite_variance_panics() {
        let config = GaussianFieldConfig {
            variance: f64::INFINITY,
            ..GaussianFieldConfig::new(16, 16, 2.0, 1)
        };
        let _ = generate_single_range(&config);
    }

    /// A deterministic complex test signal of length `n`.
    fn signal(n: usize) -> Vec<Complex> {
        (0..n).map(|i| Complex::new((i as f64 * 0.37).sin(), ((i * 3) % 5) as f64)).collect()
    }

    #[test]
    fn fft_matches_the_naive_dft() {
        let x = signal(32);
        let mut y = x.clone();
        fft(&mut y, false);
        for (k, v) in y.iter().enumerate() {
            let mut acc = Complex::ZERO;
            for (j, &xj) in x.iter().enumerate() {
                let angle = -2.0 * std::f64::consts::PI * (k * j) as f64 / 32.0;
                acc = acc + xj * Complex::cis(angle);
            }
            assert!(
                (v.re - acc.re).abs() < 1e-9 && (v.im - acc.im).abs() < 1e-9,
                "{v:?} vs {acc:?}"
            );
        }
    }

    #[test]
    fn inverse_fft_undoes_the_forward_transform() {
        for n in [1usize, 2, 4, 64, 256, 1024] {
            let x = signal(n);
            let mut y = x.clone();
            fft(&mut y, false);
            fft(&mut y, true);
            assert!(x
                .iter()
                .zip(&y)
                .all(|(a, b)| (a.re - b.re).abs() < 1e-9 && (a.im - b.im).abs() < 1e-9));
        }
        let x = signal(16 * 8);
        let mut y = x.clone();
        fft_2d(&mut y, 8, false);
        fft_2d(&mut y, 8, true);
        assert!(x
            .iter()
            .zip(&y)
            .all(|(a, b)| (a.re - b.re).abs() < 1e-9 && (a.im - b.im).abs() < 1e-9));
    }

    #[test]
    fn fft_2d_puts_a_plane_wave_on_its_two_modes_and_keeps_its_energy() {
        let (ny, nx, ky, kx) = (8usize, 16usize, 2usize, 3usize);
        let mut data: Vec<Complex> = (0..ny * nx)
            .map(|idx| {
                let phase = 2.0 * std::f64::consts::PI * (ky * (idx / nx)) as f64 / ny as f64
                    + 2.0 * std::f64::consts::PI * (kx * (idx % nx)) as f64 / nx as f64;
                Complex::new(phase.cos(), 0.0)
            })
            .collect();
        let energy = |d: &[Complex]| d.iter().map(|c| c.re * c.re + c.im * c.im).sum::<f64>();
        let before = energy(&data);
        fft_2d(&mut data, nx, false);
        // Parseval: the unnormalized transform scales energy by the cell count.
        assert!((energy(&data) / (ny * nx) as f64 - before).abs() < 1e-9 * before);
        for (idx, c) in data.iter().enumerate() {
            let magnitude = (c.re * c.re + c.im * c.im).sqrt();
            if idx == ky * nx + kx || idx == (ny - ky) * nx + (nx - kx) {
                assert!((magnitude - (ny * nx / 2) as f64).abs() < 1e-9, "mode {idx}: {magnitude}");
            } else {
                assert!(magnitude < 1e-9, "mode {idx}: {magnitude}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "one weight per range")]
    fn mismatched_weights_panic() {
        let cfg = MultiRangeConfig {
            ny: 8,
            nx: 8,
            ranges: vec![1.0, 2.0],
            weights: vec![1.0],
            variance: 1.0,
            seed: 0,
        };
        let _ = generate_multi_range(&cfg);
    }
}
