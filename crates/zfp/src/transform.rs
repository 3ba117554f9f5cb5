//! Reversible integer decorrelating transform for 4×4 blocks.
//!
//! ZFP uses a lifted near-orthogonal transform; this implementation uses the
//! classic two-level *S-transform* (integer Haar with rounding), which is
//! exactly invertible in integer arithmetic and has the same qualitative
//! effect: smooth blocks concentrate their energy in a few low-frequency
//! coefficients, so high-frequency coefficients need few (or zero) bit
//! planes.
//!
//! 1D forward on `[x0, x1, x2, x3]`:
//! ```text
//! d0 = x1 - x0        a0 = x0 + (d0 >> 1)
//! d1 = x3 - x2        a1 = x2 + (d1 >> 1)
//! d2 = a1 - a0        a2 = a0 + (d2 >> 1)
//! output = [a2, d2, d0, d1]
//! ```
//! and the inverse runs the same steps backwards. The 2D transform applies
//! the 1D transform to every row and then to every column of the 4×4 block;
//! the inverse reverses that order. The arithmetic wraps: coefficients read
//! from a damaged stream can be anything, and decoding them must give
//! garbage, not a panic.

use crate::{BLOCK_DIM, BLOCK_LEN};

/// Forward 1D transform of four integers.
#[inline]
pub fn fwd_lift4(v: [i64; 4]) -> [i64; 4] {
    let [x0, x1, x2, x3] = v;
    let d0 = x1.wrapping_sub(x0);
    let a0 = x0.wrapping_add(d0 >> 1);
    let d1 = x3.wrapping_sub(x2);
    let a1 = x2.wrapping_add(d1 >> 1);
    let d2 = a1.wrapping_sub(a0);
    let a2 = a0.wrapping_add(d2 >> 1);
    [a2, d2, d0, d1]
}

/// Inverse of [`fwd_lift4`].
#[inline]
pub fn inv_lift4(v: [i64; 4]) -> [i64; 4] {
    let [a2, d2, d0, d1] = v;
    let a0 = a2.wrapping_sub(d2 >> 1);
    let a1 = a0.wrapping_add(d2);
    let x0 = a0.wrapping_sub(d0 >> 1);
    let x1 = x0.wrapping_add(d0);
    let x2 = a1.wrapping_sub(d1 >> 1);
    let x3 = x2.wrapping_add(d1);
    [x0, x1, x2, x3]
}

/// Forward 2D transform (rows, then columns), in place.
pub(crate) fn fwd_transform(block: &mut [i64; BLOCK_LEN]) {
    // Rows.
    for r in 0..BLOCK_DIM {
        let o = r * BLOCK_DIM;
        let row = fwd_lift4([block[o], block[o + 1], block[o + 2], block[o + 3]]);
        block[o..o + 4].copy_from_slice(&row);
    }
    // Columns.
    for c in 0..BLOCK_DIM {
        let col = fwd_lift4([
            block[c],
            block[BLOCK_DIM + c],
            block[2 * BLOCK_DIM + c],
            block[3 * BLOCK_DIM + c],
        ]);
        for (r, v) in col.into_iter().enumerate() {
            block[r * BLOCK_DIM + c] = v;
        }
    }
}

/// Inverse 2D transform (columns, then rows), in place.
pub(crate) fn inv_transform(block: &mut [i64; BLOCK_LEN]) {
    for c in 0..BLOCK_DIM {
        let col = inv_lift4([
            block[c],
            block[BLOCK_DIM + c],
            block[2 * BLOCK_DIM + c],
            block[3 * BLOCK_DIM + c],
        ]);
        for (r, v) in col.into_iter().enumerate() {
            block[r * BLOCK_DIM + c] = v;
        }
    }
    for r in 0..BLOCK_DIM {
        let o = r * BLOCK_DIM;
        let row = inv_lift4([block[o], block[o + 1], block[o + 2], block[o + 3]]);
        block[o..o + 4].copy_from_slice(&row);
    }
}

/// Worst-case factor by which coefficient errors can grow through the 2D
/// inverse transform, plus the additive slack from the rounding shifts.
/// Derived from the per-step error recurrence of [`inv_lift4`]
/// (error ≤ 4·E + 2 per 1D pass); two passes give `16·E + 10`.
pub const INVERSE_ERROR_GAIN: i64 = 16;
/// Additive error slack of the 2D inverse transform (see
/// [`INVERSE_ERROR_GAIN`]).
pub const INVERSE_ERROR_OFFSET: i64 = 10;

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo_random_block(seed: u64, amplitude: i64) -> [i64; BLOCK_LEN] {
        let mut s = seed | 1;
        let mut out = [0i64; BLOCK_LEN];
        for v in &mut out {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            *v = (s % (2 * amplitude as u64 + 1)) as i64 - amplitude;
        }
        out
    }

    #[test]
    fn lift4_is_exactly_invertible() {
        for seed in 1..200u64 {
            let mut s = seed;
            let mut v = [0i64; 4];
            for x in &mut v {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                *x = (s >> 20) as i64 - (1 << 43);
            }
            assert_eq!(inv_lift4(fwd_lift4(v)), v, "seed {seed}");
        }
    }

    #[test]
    fn transform2d_is_exactly_invertible() {
        // ±2^40 is the fixed-point range of the codec's blocks; the small
        // amplitudes are where the rounding shifts matter most.
        for seed in 1..100u64 {
            for amplitude in [1i64 << 40, 1 << 20, 5, 1] {
                let original = pseudo_random_block(seed, amplitude);
                let mut block = original;
                fwd_transform(&mut block);
                inv_transform(&mut block);
                assert_eq!(block, original, "seed {seed} amplitude {amplitude}");
            }
        }
    }

    #[test]
    fn constant_block_concentrates_in_dc() {
        let mut block = [977i64; BLOCK_LEN];
        fwd_transform(&mut block);
        assert_eq!(block[0], 977);
        for &c in &block[1..] {
            assert_eq!(c, 0);
        }
    }

    #[test]
    fn linear_ramp_has_small_high_frequency_coefficients() {
        let mut block = [0i64; BLOCK_LEN];
        for i in 0..BLOCK_DIM {
            for j in 0..BLOCK_DIM {
                block[i * BLOCK_DIM + j] = (1000 * i + 100 * j) as i64;
            }
        }
        fwd_transform(&mut block);
        // A pure ramp has no curvature: every mixed-detail coefficient
        // (row index ≥ 1 and column index ≥ 1) collapses to (near) zero,
        // which is what lets the coder spend almost no bits on them.
        for i in 1..BLOCK_DIM {
            for j in 1..BLOCK_DIM {
                assert!(
                    block[i * BLOCK_DIM + j].abs() <= 2,
                    "detail ({i},{j}) = {}",
                    block[i * BLOCK_DIM + j]
                );
            }
        }
    }

    #[test]
    fn extreme_coefficients_round_trip_without_overflow() {
        // What a damaged stream can hand the inverse: values at and near
        // the ends of `i64`, whose lifts overflow. Wrapping lifts stay
        // exact inverses of each other modulo 2^64, in either order.
        let extremes = [i64::MIN, i64::MAX, i64::MIN + 1, i64::MAX - 1, -1, 0, 1];
        for k in 0..extremes.len() {
            let original: [i64; BLOCK_LEN] =
                std::array::from_fn(|i| extremes[(i * 3 + k) % extremes.len()]);
            let mut block = original;
            fwd_transform(&mut block);
            inv_transform(&mut block);
            assert_eq!(block, original, "inv(fwd) k={k}");
            inv_transform(&mut block);
            fwd_transform(&mut block);
            assert_eq!(block, original, "fwd(inv) k={k}");
        }
    }

    #[test]
    fn truncation_error_is_within_documented_gain() {
        // Empirically validate the worst-case constants used by the codec:
        // zeroing the low `k` bits of every coefficient must perturb the
        // reconstruction by at most GAIN·(2^k − 1) + OFFSET.
        for seed in 1..50u64 {
            for k in [1u32, 3, 6, 10] {
                let original = pseudo_random_block(seed, 1 << 30);
                let mut coeffs = original;
                fwd_transform(&mut coeffs);
                let mask = !((1i64 << k) - 1);
                for c in coeffs.iter_mut() {
                    // Truncate magnitude bits (round toward zero) as the codec does.
                    let sign = c.signum();
                    *c = sign * (c.abs() & mask);
                }
                inv_transform(&mut coeffs);
                let max_err =
                    original.iter().zip(coeffs.iter()).map(|(a, b)| (a - b).abs()).max().unwrap();
                let bound = INVERSE_ERROR_GAIN * ((1i64 << k) - 1) + INVERSE_ERROR_OFFSET;
                assert!(max_err <= bound, "seed {seed} k {k}: {max_err} > {bound}");
            }
        }
    }
}
