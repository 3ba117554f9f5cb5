//! # lcc-fft — minimal FFT kernels for spectral field synthesis
//!
//! The synthetic Gaussian random fields in the study are generated spectrally
//! (filter white noise by the square root of the target spectral density and
//! transform back). That only needs a power-of-two complex FFT in 1D and 2D,
//! which this crate provides from scratch:
//!
//! * [`Complex`] — a small complex number type,
//! * [`fft`] / [`ifft`] — iterative radix-2 Cooley–Tukey transforms,
//! * [`Fft2D`] — row–column 2D transforms over square or rectangular
//!   power-of-two grids,
//! * [`next_pow2`] — padding helper so arbitrary field sizes (e.g. the
//!   paper's 1028×1028) can be synthesized on an enclosing periodic domain
//!   and cropped.
//!
//! The implementation favours clarity and exactness of the inverse transform
//! over raw speed. Generating one full-scale 1028×1028 field takes 1.2–1.6 s
//! on a 2-vCPU dev box (`bench_sweep`'s `generate_field` stage), 30–40 times
//! one `sz` compress of it (≈ 40 ms): synthesis, not compression, is what a
//! paper-scale study spends its set-up on.

pub mod complex;
pub mod fft1d;
pub mod fft2d;

pub use complex::Complex;
pub use fft1d::{fft, ifft};
pub use fft2d::Fft2D;

/// Smallest power of two greater than or equal to `n` (and at least 1).
pub fn next_pow2(n: usize) -> usize {
    let mut p = 1usize;
    while p < n {
        p <<= 1;
    }
    p
}

/// True when `n` is a power of two (and non-zero).
pub fn is_pow2(n: usize) -> bool {
    n != 0 && (n & (n - 1)) == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn next_pow2_values() {
        assert_eq!(next_pow2(0), 1);
        assert_eq!(next_pow2(1), 1);
        assert_eq!(next_pow2(2), 2);
        assert_eq!(next_pow2(3), 4);
        assert_eq!(next_pow2(1000), 1024);
        assert_eq!(next_pow2(1028), 2048);
        assert_eq!(next_pow2(1024), 1024);
    }

    #[test]
    fn is_pow2_values() {
        assert!(!is_pow2(0));
        assert!(is_pow2(1));
        assert!(is_pow2(2));
        assert!(!is_pow2(3));
        assert!(is_pow2(65536));
        assert!(!is_pow2(65535));
    }
}
