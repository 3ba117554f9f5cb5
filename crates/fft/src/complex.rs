//! A minimal complex-number type sufficient for FFT work.

use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// Complex number with `f64` components.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// The additive identity.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };
    /// The multiplicative identity.
    pub const ONE: Complex = Complex { re: 1.0, im: 0.0 };
    /// The imaginary unit.
    pub const I: Complex = Complex { re: 0.0, im: 1.0 };

    /// Construct from real and imaginary parts.
    #[inline]
    pub fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// A purely real value.
    #[inline]
    pub fn from_real(re: f64) -> Self {
        Complex { re, im: 0.0 }
    }

    /// `exp(i theta)` — a unit phasor.
    #[inline]
    pub fn cis(theta: f64) -> Self {
        Complex { re: theta.cos(), im: theta.sin() }
    }

    /// Squared magnitude.
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude.
    #[inline]
    pub fn abs(self) -> f64 {
        self.norm_sqr().sqrt()
    }

    /// Multiply by a real scalar.
    #[inline]
    pub fn scale(self, s: f64) -> Self {
        Complex { re: self.re * s, im: self.im * s }
    }
}

impl Add for Complex {
    type Output = Complex;
    #[inline]
    fn add(self, rhs: Complex) -> Complex {
        Complex { re: self.re + rhs.re, im: self.im + rhs.im }
    }
}

impl AddAssign for Complex {
    #[inline]
    fn add_assign(&mut self, rhs: Complex) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for Complex {
    type Output = Complex;
    #[inline]
    fn sub(self, rhs: Complex) -> Complex {
        Complex { re: self.re - rhs.re, im: self.im - rhs.im }
    }
}

impl SubAssign for Complex {
    #[inline]
    fn sub_assign(&mut self, rhs: Complex) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl Mul for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: Complex) -> Complex {
        Complex { re: self.re * rhs.re - self.im * rhs.im, im: self.re * rhs.im + self.im * rhs.re }
    }
}

impl MulAssign for Complex {
    #[inline]
    fn mul_assign(&mut self, rhs: Complex) {
        *self = *self * rhs;
    }
}

impl Mul<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: f64) -> Complex {
        self.scale(rhs)
    }
}

impl Div<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn div(self, rhs: f64) -> Complex {
        Complex { re: self.re / rhs, im: self.im / rhs }
    }
}

impl Neg for Complex {
    type Output = Complex;
    #[inline]
    fn neg(self) -> Complex {
        Complex { re: -self.re, im: -self.im }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-12;

    #[test]
    fn arithmetic_identities() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(-3.0, 0.5);
        assert_eq!(a + Complex::ZERO, a);
        assert_eq!(a * Complex::ONE, a);
        assert_eq!((a + b) - b, a);
        let prod = a * b;
        assert!((prod.re - (1.0 * -3.0 - 2.0 * 0.5)).abs() < EPS);
        assert!((prod.im - (1.0 * 0.5 + 2.0 * -3.0)).abs() < EPS);
    }

    #[test]
    fn i_squared_is_minus_one() {
        let ii = Complex::I * Complex::I;
        assert!((ii.re + 1.0).abs() < EPS);
        assert!(ii.im.abs() < EPS);
    }

    #[test]
    fn cis_and_polar() {
        let z = Complex::cis(std::f64::consts::FRAC_PI_2);
        assert!(z.re.abs() < EPS);
        assert!((z.im - 1.0).abs() < EPS);
        assert!((z.abs() - 1.0).abs() < EPS);
    }

    #[test]
    fn norm() {
        let a = Complex::new(3.0, -4.0);
        assert!((a.norm_sqr() - 25.0).abs() < EPS);
        assert!((a.abs() - 5.0).abs() < EPS);
    }

    #[test]
    fn scalar_operations() {
        let a = Complex::new(2.0, -6.0);
        assert_eq!(a * 0.5, Complex::new(1.0, -3.0));
        assert_eq!(a / 2.0, Complex::new(1.0, -3.0));
        assert_eq!(-a, Complex::new(-2.0, 6.0));
        let mut b = a;
        b += Complex::ONE;
        b -= Complex::ONE;
        b *= Complex::ONE;
        assert_eq!(b, a);
    }
}
