//! Iterative radix-2 Cooley–Tukey FFT.

use crate::{is_pow2, Complex};

/// In-place forward FFT (DFT with `exp(-i 2π kn / N)` kernel, unnormalized).
///
/// # Panics
/// Panics if the length is not a power of two.
pub fn fft(data: &mut [Complex]) {
    transform(data, false);
}

/// In-place inverse FFT, normalized by `1/N` so that `ifft(fft(x)) == x`.
///
/// # Panics
/// Panics if the length is not a power of two.
pub fn ifft(data: &mut [Complex]) {
    transform(data, true);
    let n = data.len() as f64;
    for v in data.iter_mut() {
        *v = *v / n;
    }
}

fn transform(data: &mut [Complex], inverse: bool) {
    let n = data.len();
    assert!(is_pow2(n), "FFT length must be a power of two, got {n}");
    if n <= 1 {
        return;
    }

    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = reverse_bits(i, bits);
        if j > i {
            data.swap(i, j);
        }
    }

    // Danielson–Lanczos butterflies.
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut len = 2usize;
    while len <= n {
        let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
        let wlen = Complex::cis(ang);
        let half = len / 2;
        let mut start = 0;
        while start < n {
            let mut w = Complex::ONE;
            for k in 0..half {
                let a = data[start + k];
                let b = data[start + k + half] * w;
                data[start + k] = a + b;
                data[start + k + half] = a - b;
                w *= wlen;
            }
            start += len;
        }
        len <<= 1;
    }
}

#[inline]
fn reverse_bits(mut x: usize, bits: u32) -> usize {
    let mut r = 0usize;
    for _ in 0..bits {
        r = (r << 1) | (x & 1);
        x >>= 1;
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_dft(x: &[Complex]) -> Vec<Complex> {
        let n = x.len();
        (0..n)
            .map(|k| {
                let mut acc = Complex::ZERO;
                for (j, &v) in x.iter().enumerate() {
                    let ang = -2.0 * std::f64::consts::PI * (k * j) as f64 / n as f64;
                    acc += v * Complex::cis(ang);
                }
                acc
            })
            .collect()
    }

    #[test]
    fn matches_naive_dft() {
        let n = 32;
        let x: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
            .collect();
        let mut y = x.clone();
        fft(&mut y);
        let reference = naive_dft(&x);
        for (a, b) in y.iter().zip(reference.iter()) {
            assert!((a.re - b.re).abs() < 1e-9, "{a:?} vs {b:?}");
            assert!((a.im - b.im).abs() < 1e-9);
        }
    }

    #[test]
    fn forward_inverse_roundtrip() {
        for &n in &[1usize, 2, 4, 64, 256, 1024] {
            let x: Vec<Complex> = (0..n)
                .map(|i| Complex::new(((i * 7) % 13) as f64 - 6.0, ((i * 3) % 5) as f64))
                .collect();
            let mut y = x.clone();
            fft(&mut y);
            ifft(&mut y);
            for (a, b) in x.iter().zip(y.iter()) {
                assert!((a.re - b.re).abs() < 1e-9);
                assert!((a.im - b.im).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn impulse_has_flat_spectrum() {
        let mut x = vec![Complex::ZERO; 16];
        x[0] = Complex::ONE;
        fft(&mut x);
        for v in &x {
            assert!((v.re - 1.0).abs() < 1e-12);
            assert!(v.im.abs() < 1e-12);
        }
    }

    #[test]
    fn constant_signal_concentrates_in_dc() {
        let mut x = vec![Complex::from_real(2.5); 8];
        fft(&mut x);
        assert!((x[0].re - 20.0).abs() < 1e-12);
        for v in &x[1..] {
            assert!(v.abs() < 1e-10);
        }
    }

    #[test]
    fn parseval_energy_is_preserved() {
        let n = 128usize;
        let x: Vec<Complex> = (0..n).map(|i| Complex::from_real((i as f64 * 0.83).sin())).collect();
        let time_energy: f64 = x.iter().map(|v| v.norm_sqr()).sum();
        let mut y = x.clone();
        fft(&mut y);
        let freq_energy: f64 = y.iter().map(|v| v.norm_sqr()).sum::<f64>() / n as f64;
        assert!((time_energy - freq_energy).abs() < 1e-8);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_length_panics() {
        let mut x = vec![Complex::ZERO; 12];
        fft(&mut x);
    }
}
