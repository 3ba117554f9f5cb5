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
//! Every value is computed by the same floating-point operations, in the
//! same order, as the textbook synthesis: the kernel evaluated cell by
//! cell, and the textbook transform (the 1D transform of each row and then
//! of each column, with its twiddles built inside the butterfly loop and
//! the inverse divided by `N`), which the tests keep as the oracle. Only
//! the traversal differs:
//!
//! * the kernel is even in both axes, so one quadrant of `exp` calls fills
//!   it, each value mirrored to the cells at the same `di`, `dj`;
//! * the kernel's row `i` equals its row `m_y − i`, and a short range ends
//!   in rows that are all zero (915 of 1 024 at a = 2), so the forward row
//!   pass transforms each distinct row once and copies its result to the
//!   rows equal to it, bit for bit (rows are compared by their bits, so `+0`
//!   and `−0` never merge);
//! * each axis's twiddles are built once per transform, by the butterfly
//!   loop's own `w = w · wlen` recurrence, so each has that loop's bits;
//! * rows and columns are transformed eight at a time: gathered, in
//!   bit-reversed order, into a strip of separate real and imaginary parts,
//!   so each butterfly is plain lane arithmetic (`Complex::mul`'s products
//!   and sums, no fused multiply-add), compiled once more for AVX2
//!   (`simd`); a field narrower or shorter than a strip (1, 2 or 4
//!   cells) runs its rows or columns one at a time through the same code;
//! * the inverse multiplies by `1 / N`, an exact power of two, which
//!   rounds as the quotient by `N` does.

use crate::rng::GaussianSampler;
use crate::simd;
use lcc_grid::Field2D;
use lcc_lossless::dispatch::{simd_level, SimdLevel};
use std::array::from_fn;
use std::ops::Mul;

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
/// kernel's spectrum is built in it, then filtered and inverse-transformed
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

    let a2 = config.range * config.range;
    assert!(
        a2 > 0.0,
        "correlation range {:e} is too small: its square underflows to zero",
        config.range
    );
    let level = simd_level();
    let mut strip = Strip::new(m_y.max(m_x));
    let mut data = kernel_spectrum(m_y, m_x, a2, level, &mut strip);

    // Filter complex white noise by sqrt(eigenvalues).
    let mut sampler = GaussianSampler::new(config.seed);
    for c in &mut data {
        // Numerical round-off can leave tiny negative eigenvalues; clamp.
        let amp = c.re.max(0.0).sqrt();
        *c = Complex::new(sampler.sample() * amp, sampler.sample() * amp);
    }
    fft_2d(&mut data, m_x, true, level, &mut strip);

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

/// The 2D FFT of the wrapped squared-exponential kernel
/// `exp(−(di² + dj²) / a²)` on an `m_y × m_x` embedding (`di = min(i, m_y − i)`,
/// `dj = min(j, m_x − j)`): the eigenvalues of the circulant covariance, with
/// the bits of [`fft_2d`] over the kernel filled cell by cell.
fn kernel_spectrum(
    m_y: usize,
    m_x: usize,
    a2: f64,
    level: SimdLevel,
    strip: &mut Strip,
) -> Vec<Complex> {
    let mut data = kernel_row_transforms(m_y, m_x, a2, level, strip);
    simd::column_pass(level, &mut data, m_x, &Axis::new(m_y, false), strip);
    data
}

/// The kernel of [`kernel_spectrum`] with the 1D transform of each row.
///
/// Only rows `di = 0 ..= m_y / 2` are distinct, and each is evaluated on
/// `dj = 0 ..= m_x / 2` and mirrored. They are stored at the top of the
/// buffer, a row whose bits equal the row stored before it (the all-zero
/// rows of a short range, or two rows rounded to the same subnormals)
/// taking no slot of its own, and only stored rows are transformed. Each row of the embedding then copies its stored row,
/// bottom row first: row `i`'s stored row is never below `i`, so no copy
/// overwrites a stored row a later copy reads.
fn kernel_row_transforms(
    m_y: usize,
    m_x: usize,
    a2: f64,
    level: SimdLevel,
    strip: &mut Strip,
) -> Vec<Complex> {
    let mut data = vec![Complex::ZERO; m_y * m_x];
    // `slot[di]`: the stored row that kernel row `di` equals.
    let mut slot = Vec::with_capacity(m_y / 2 + 1);
    let mut stored = 0;
    for di in 0..=m_y / 2 {
        let (done, rest) = data.split_at_mut(stored * m_x);
        let row = &mut rest[..m_x];
        let di = di as f64;
        for dj in 0..=m_x / 2 {
            let value = (-(di * di + (dj as f64) * (dj as f64)) / a2).exp();
            row[dj].re = value;
            row[(m_x - dj) % m_x].re = value;
        }
        let repeats = stored > 0 && same_bits(row, &done[(stored - 1) * m_x..]);
        if !repeats {
            stored += 1;
        }
        slot.push(stored - 1);
    }
    simd::row_pass(level, &mut data[..stored * m_x], &Axis::new(m_x, false), strip);
    for i in (0..m_y).rev() {
        let from = slot[i.min(m_y - i)];
        if from != i {
            data.copy_within(from * m_x..(from + 1) * m_x, i * m_x);
        }
    }
    data
}

/// `a` and `b` hold the same bits, value for value.
fn same_bits(a: &[Complex], b: &[Complex]) -> bool {
    a.iter()
        .zip(b)
        .all(|(x, y)| x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits())
}

/// Complex number with `f64` parts: the FFT's element.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Complex {
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

impl Mul for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: Complex) -> Complex {
        Complex { re: self.re * rhs.re - self.im * rhs.im, im: self.re * rhs.im + self.im * rhs.re }
    }
}

/// Signals one strip transforms side by side: eight rows or eight columns.
const STRIP: usize = 8;

/// In-place 2D FFT of a row-major buffer `nx` wide (both extents powers of
/// two): the 1D transform over every row, then over every column. `inverse`
/// is normalized, so the inverse undoes the forward transform. Each value
/// has the textbook transform's bits (see the module's traversal notes).
fn fft_2d(data: &mut [Complex], nx: usize, inverse: bool, level: SimdLevel, strip: &mut Strip) {
    let ny = data.len() / nx;
    simd::row_pass(level, data, &Axis::new(nx, inverse), strip);
    simd::column_pass(level, data, nx, &Axis::new(ny, inverse), strip);
}

/// One axis of a transform of length `n`: the stage twiddles, where each
/// element lands under the bit-reversal permutation, and the inverse's
/// `1 / n`.
pub(crate) struct Axis {
    twiddles: Vec<Complex>,
    /// `reversed[k]`: the bit-reversal of `k` in `log2 n` bits.
    reversed: Vec<usize>,
    /// `Some(1 / n)` for the inverse: a power of two, so the product is
    /// the quotient by `n`, bit for bit.
    scale: Option<f64>,
}

impl Axis {
    fn new(n: usize, inverse: bool) -> Self {
        debug_assert!(n.is_power_of_two(), "FFT length must be a power of two, got {n}");
        let bits = n.trailing_zeros();
        let reversed =
            (0..n).map(|k| if bits == 0 { 0 } else { k.reverse_bits() >> (usize::BITS - bits) });
        Axis {
            twiddles: twiddles(n, inverse),
            reversed: reversed.collect(),
            scale: inverse.then(|| 1.0 / n as f64),
        }
    }

    fn len(&self) -> usize {
        self.reversed.len()
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

/// Up to [`STRIP`] signals of one axis side by side. With `LANES` signals,
/// element `k` is the `2 · LANES` values from `2 · LANES · k`: the real
/// parts of its `LANES` signals, then their imaginary parts. Sized once for
/// the longer axis of a field. (With all real parts in one array and all
/// imaginary parts in another, the butterflies ran about three times
/// slower: the compiler vectorized across butterflies, with strided loads,
/// instead of across lanes.)
pub(crate) struct Strip(Vec<f64>);

impl Strip {
    fn new(n: usize) -> Self {
        Strip(vec![0.0; 2 * STRIP * n])
    }
}

/// The 1D transform of every row of `data` (`axis.len()` wide): [`STRIP`]
/// rows at a time, the rows of a field shorter than a strip one at a time.
/// The body of [`simd::row_pass`].
#[inline(always)]
pub(crate) fn row_pass(data: &mut [Complex], axis: &Axis, strip: &mut Strip) {
    let nx = axis.len();
    let mut strips = data.chunks_exact_mut(STRIP * nx);
    for rows in &mut strips {
        transform_rows::<STRIP>(rows, axis, strip);
    }
    for row in strips.into_remainder().chunks_exact_mut(nx) {
        transform_rows::<1>(row, axis, strip);
    }
}

/// The 1D transform of every column of `data` (`nx` wide, `axis.len()`
/// tall): [`STRIP`] columns at a time, the columns of a field narrower than
/// a strip one at a time. The body of [`simd::column_pass`].
#[inline(always)]
pub(crate) fn column_pass(data: &mut [Complex], nx: usize, axis: &Axis, strip: &mut Strip) {
    let wide = nx - nx % STRIP;
    for j in (0..wide).step_by(STRIP) {
        transform_columns::<STRIP>(data, nx, j, axis, strip);
    }
    for j in wide..nx {
        transform_columns::<1>(data, nx, j, axis, strip);
    }
}

/// The `LANES` rows of `rows`, gathered transposed into the strip (row `b`
/// in lane `b`, element `j` at its bit-reversed place), transformed and put
/// back.
#[inline(always)]
fn transform_rows<const LANES: usize>(rows: &mut [Complex], axis: &Axis, strip: &mut Strip) {
    let n = axis.len();
    let strip = &mut strip.0[..2 * LANES * n];
    for (j, &k) in axis.reversed.iter().enumerate() {
        let (re, im) = strip[2 * LANES * k..][..2 * LANES].split_at_mut(LANES);
        for (b, (r, i)) in re.iter_mut().zip(im).enumerate() {
            let c = rows[b * n + j];
            *r = c.re;
            *i = c.im;
        }
    }
    transform::<LANES>(strip, axis);
    for (j, element) in strip.chunks_exact(2 * LANES).enumerate() {
        let (re, im) = element.split_at(LANES);
        for (b, (&r, &i)) in re.iter().zip(im).enumerate() {
            rows[b * n + j] = Complex::new(r, i);
        }
    }
}

/// Columns `j .. j + LANES` of `data` (`nx` wide), gathered into the strip
/// (column `j + b` in lane `b`, row `i` at its bit-reversed place),
/// transformed and put back.
#[inline(always)]
fn transform_columns<const LANES: usize>(
    data: &mut [Complex],
    nx: usize,
    j: usize,
    axis: &Axis,
    strip: &mut Strip,
) {
    let n = axis.len();
    let strip = &mut strip.0[..2 * LANES * n];
    for (row, &k) in data.chunks_exact(nx).zip(&axis.reversed) {
        let (re, im) = strip[2 * LANES * k..][..2 * LANES].split_at_mut(LANES);
        for ((r, i), c) in re.iter_mut().zip(im).zip(&row[j..j + LANES]) {
            *r = c.re;
            *i = c.im;
        }
    }
    transform::<LANES>(strip, axis);
    for (row, element) in data.chunks_exact_mut(nx).zip(strip.chunks_exact(2 * LANES)) {
        let (re, im) = element.split_at(LANES);
        for ((c, &r), &i) in row[j..j + LANES].iter_mut().zip(re).zip(im) {
            *c = Complex::new(r, i);
        }
    }
}

/// The `LANES` values of `lanes`, by value.
#[inline(always)]
fn lanes<const LANES: usize>(lanes: &[f64]) -> [f64; LANES] {
    from_fn(|b| lanes[b])
}

/// Radix-2 Cooley–Tukey butterflies over the `LANES` signals of a strip
/// whose elements already sit in bit-reversed order, then the inverse's
/// scaling: the DFT with the `exp(-i 2π kn / N)` kernel, unnormalized, or
/// with an inverse axis the `exp(+i …)` kernel times `1 / N`. Each lane's
/// product `t = b · w` and sums `a ± t` are `Complex`'s, operation for
/// operation.
#[inline(always)]
fn transform<const LANES: usize>(strip: &mut [f64], axis: &Axis) {
    let mut half = 1usize;
    while half < axis.len() {
        let stage = &axis.twiddles[half - 1..2 * half - 1];
        for block in strip.chunks_exact_mut(4 * LANES * half) {
            let (lo, hi) = block.split_at_mut(2 * LANES * half);
            let pairs = lo.chunks_exact_mut(2 * LANES).zip(hi.chunks_exact_mut(2 * LANES));
            for ((a, b), w) in pairs.zip(stage) {
                let ((ar, ai), (br, bi)) = (a.split_at_mut(LANES), b.split_at_mut(LANES));
                let (xr, xi) = (lanes::<LANES>(ar), lanes::<LANES>(ai));
                let (yr, yi) = (lanes::<LANES>(br), lanes::<LANES>(bi));
                let tr: [f64; LANES] = from_fn(|b| yr[b] * w.re - yi[b] * w.im);
                let ti: [f64; LANES] = from_fn(|b| yr[b] * w.im + yi[b] * w.re);
                br.copy_from_slice(&from_fn::<f64, LANES, _>(|b| xr[b] - tr[b]));
                bi.copy_from_slice(&from_fn::<f64, LANES, _>(|b| xi[b] - ti[b]));
                ar.copy_from_slice(&from_fn::<f64, LANES, _>(|b| xr[b] + tr[b]));
                ai.copy_from_slice(&from_fn::<f64, LANES, _>(|b| xi[b] + ti[b]));
            }
        }
        half <<= 1;
    }
    if let Some(scale) = axis.scale {
        for v in strip {
            *v *= scale;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcc_grid::stats;
    use lcc_lossless::dispatch::supported_levels;
    use std::ops::{Add, Sub};

    impl Add for Complex {
        type Output = Complex;
        fn add(self, rhs: Complex) -> Complex {
            Complex { re: self.re + rhs.re, im: self.im + rhs.im }
        }
    }

    impl Sub for Complex {
        type Output = Complex;
        fn sub(self, rhs: Complex) -> Complex {
            Complex { re: self.re - rhs.re, im: self.im - rhs.im }
        }
    }

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

    /// The kernel filled cell by cell, every row evaluated on its own.
    fn kernel(m_y: usize, m_x: usize, a2: f64) -> Vec<Complex> {
        let mut data = Vec::with_capacity(m_y * m_x);
        for i in 0..m_y {
            let di = i.min(m_y - i) as f64;
            for j in 0..m_x {
                let dj = j.min(m_x - j) as f64;
                data.push(Complex::new((-(di * di + dj * dj) / a2).exp(), 0.0));
            }
        }
        data
    }

    /// [`fft_2d`] at tier `level` with a strip of its own.
    fn fft_2d_at(data: &mut [Complex], nx: usize, inverse: bool, level: SimdLevel) {
        let ny = data.len() / nx;
        fft_2d(data, nx, inverse, level, &mut Strip::new(ny.max(nx)));
    }

    #[test]
    fn every_length_equals_the_textbook_transform_bit_for_bit() {
        // One signal and a strip of them, along each axis.
        for log_n in 0..=12 {
            let n = 1usize << log_n;
            for (ny, nx) in [(1, n), (n, 1), (STRIP, n), (n, STRIP)] {
                for inverse in [false, true] {
                    let mut expected = signal(ny * nx);
                    fft_2d_textbook(&mut expected, nx, inverse);
                    for &level in supported_levels() {
                        let mut got = signal(ny * nx);
                        fft_2d_at(&mut got, nx, inverse, level);
                        let at = format!("{ny}x{nx}, inverse = {inverse}, {level:?}");
                        assert_eq!(bits(&got), bits(&expected), "{at}");
                    }
                }
            }
        }
    }

    #[test]
    fn fft_2d_equals_the_textbook_transform_bit_for_bit() {
        // 64 × 256 is the embedding of a 40 × 200 field at range 3; a field
        // 1, 2 or 4 cells wide or tall runs those rows or columns one by one.
        let shapes = [
            (1, 64),
            (64, 1),
            (1, 1),
            (2, 1024),
            (1024, 2),
            (16, 8),
            (8, 32),
            (64, 256),
            (16, 1024),
            (1024, 16),
        ];
        for (ny, nx) in shapes {
            for inverse in [false, true] {
                let mut expected = signal(ny * nx);
                fft_2d_textbook(&mut expected, nx, inverse);
                for &level in supported_levels() {
                    let mut got = signal(ny * nx);
                    fft_2d_at(&mut got, nx, inverse, level);
                    let at = format!("{ny}x{nx}, inverse = {inverse}, {level:?}");
                    assert_eq!(bits(&got), bits(&expected), "{at}");
                }
            }
        }
    }

    #[test]
    fn deduplicated_kernel_rows_give_the_full_transform_bit_for_bit() {
        // At a = 2 the rows past di = 54 are all zero; at a = 18 they pass
        // through subnormal values on the way; at a = 40 none is zero. At
        // a = 64 rows 1 746 and 1 747 both round to the least subnormal, so
        // a repeat comes before the zero rows and the stored rows shift.
        let cases = [
            (1024, 16, 2.0),
            (1024, 16, 18.0),
            (4096, 4, 64.0),
            (64, 256, 3.0),
            (256, 64, 3.0),
            (128, 128, 40.0),
            (16, 1, 2.0),
            (1, 16, 2.0),
        ];
        for (m_y, m_x, range) in cases {
            let a2: f64 = range * range;
            // The rows alone: a subnormal row copied to the wrong place
            // would vanish in the sums of the column pass.
            let mut rows = kernel(m_y, m_x, a2);
            rows.chunks_exact_mut(m_x).for_each(|row| fft(row, false));
            let mut spectrum = kernel(m_y, m_x, a2);
            fft_2d_textbook(&mut spectrum, m_x, false);
            for &level in supported_levels() {
                let at = format!("{m_y}x{m_x}, a = {range}, {level:?}");
                let mut strip = Strip::new(m_y.max(m_x));
                let got = kernel_row_transforms(m_y, m_x, a2, level, &mut strip);
                assert_eq!(bits(&got), bits(&rows), "rows, {at}");
                let got = kernel_spectrum(m_y, m_x, a2, level, &mut strip);
                assert_eq!(bits(&got), bits(&spectrum), "{at}");
            }
        }
    }

    #[test]
    fn kernel_rows_repeat_only_where_their_bits_do() {
        let rows = |a: [f64; 2]| a.map(|v| Complex::new(v, 0.0));
        assert!(same_bits(&rows([0.0, 1e-310]), &rows([0.0, 1e-310])));
        assert!(!same_bits(&rows([0.0, 0.0]), &rows([-0.0, 0.0])));
        assert!(!same_bits(&rows([5e-324, 0.0]), &rows([0.0, 0.0])));
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
        fft_2d_at(&mut y, 8, false, simd_level());
        fft_2d_at(&mut y, 8, true, simd_level());
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
        fft_2d_at(&mut data, nx, false, simd_level());
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
