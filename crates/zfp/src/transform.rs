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
//! the inverse reverses that order. The arithmetic wraps, as the AVX2
//! lanes do: coefficients read from a damaged stream can be anything, and
//! decoding them must give the same garbage at both tiers, not a panic.

use crate::{BLOCK_DIM, BLOCK_LEN};
use lcc_lossless::dispatch::SimdLevel;

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

/// Forward 2D transform of each 4×4 block of a batch (rows, then columns),
/// in place, at an explicit SIMD tier, through **one** dispatch call. The
/// AVX2 tier holds a block in four 256-bit registers (one row each) and
/// runs the lifting vertically across 4 lanes, transposing in-register
/// between the row and column passes; its integer arithmetic is identical
/// to the scalar lifts, so the coefficients are bit-equal at both tiers.
/// A single block is load/store-bound (dispatched block by block the AVX2
/// tier measured ~1.05×): batching hoists the call and the dispatch
/// branch out of the loop and lets independent blocks overlap.
// Sanctioned `unsafe_code` waiver (see `lcc_lossless::dispatch`).
#[allow(unsafe_code)]
pub fn fwd_transform_batch_at(level: SimdLevel, blocks: &mut [[i64; BLOCK_LEN]]) {
    #[cfg(target_arch = "x86_64")]
    if level >= SimdLevel::Avx2 {
        // SAFETY: AVX2 presence is guaranteed by dispatch.
        unsafe { simd::fwd_transform_batch_avx2(blocks) };
        return;
    }
    let _ = level;
    for block in blocks {
        fwd_transform_scalar(block);
    }
}

/// Inverse 2D transform (columns, then rows) of each block of a batch, in
/// place, through one dispatch call (see [`fwd_transform_batch_at`]).
// Sanctioned `unsafe_code` waiver (see `lcc_lossless::dispatch`).
#[allow(unsafe_code)]
pub fn inv_transform_batch_at(level: SimdLevel, blocks: &mut [[i64; BLOCK_LEN]]) {
    #[cfg(target_arch = "x86_64")]
    if level >= SimdLevel::Avx2 {
        // SAFETY: AVX2 presence is guaranteed by dispatch.
        unsafe { simd::inv_transform_batch_avx2(blocks) };
        return;
    }
    let _ = level;
    for block in blocks {
        inv_transform_scalar(block);
    }
}

/// Scalar forward 2D transform (rows, then columns), in place.
fn fwd_transform_scalar(block: &mut [i64; BLOCK_LEN]) {
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

/// Scalar inverse 2D transform (columns, then rows), in place.
fn inv_transform_scalar(block: &mut [i64; BLOCK_LEN]) {
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

#[cfg(target_arch = "x86_64")]
mod simd {
    // Sanctioned `unsafe_code` waiver (see `lcc_lossless::dispatch`):
    // `core::arch` intrinsics are unsafe by definition; the callers hold the
    // feature-detection guard and the bit-identity suite pins scalar
    // equivalence.
    #![allow(unsafe_code)]

    use crate::BLOCK_LEN;
    use std::arch::x86_64::*;

    /// Arithmetic `>> 1` on four i64 lanes (AVX2 has no 64-bit `vpsraq`):
    /// logical shift, then re-set each lane's sign bit.
    #[inline(always)]
    unsafe fn sar1_epi64(v: __m256i) -> __m256i {
        let sign = _mm256_and_si256(v, _mm256_set1_epi64x(i64::MIN));
        _mm256_or_si256(_mm256_srli_epi64::<1>(v), sign)
    }

    /// Lane-wise [`super::fwd_lift4`] across four registers: each lane
    /// column `[v0ᵢ, v1ᵢ, v2ᵢ, v3ᵢ]` is lifted independently.
    #[inline(always)]
    unsafe fn fwd_lift_vertical(v: [__m256i; 4]) -> [__m256i; 4] {
        let [x0, x1, x2, x3] = v;
        let d0 = _mm256_sub_epi64(x1, x0);
        let a0 = _mm256_add_epi64(x0, sar1_epi64(d0));
        let d1 = _mm256_sub_epi64(x3, x2);
        let a1 = _mm256_add_epi64(x2, sar1_epi64(d1));
        let d2 = _mm256_sub_epi64(a1, a0);
        let a2 = _mm256_add_epi64(a0, sar1_epi64(d2));
        [a2, d2, d0, d1]
    }

    /// Lane-wise [`super::inv_lift4`] across four registers.
    #[inline(always)]
    unsafe fn inv_lift_vertical(v: [__m256i; 4]) -> [__m256i; 4] {
        let [a2, d2, d0, d1] = v;
        let a0 = _mm256_sub_epi64(a2, sar1_epi64(d2));
        let a1 = _mm256_add_epi64(a0, d2);
        let x0 = _mm256_sub_epi64(a0, sar1_epi64(d0));
        let x1 = _mm256_add_epi64(x0, d0);
        let x2 = _mm256_sub_epi64(a1, sar1_epi64(d1));
        let x3 = _mm256_add_epi64(x2, d1);
        [x0, x1, x2, x3]
    }

    /// In-register 4×4 i64 transpose (`vpunpck[lh]qdq` + `vperm2i128`).
    #[inline(always)]
    unsafe fn transpose(v: [__m256i; 4]) -> [__m256i; 4] {
        let [r0, r1, r2, r3] = v;
        let t0 = _mm256_unpacklo_epi64(r0, r1); // a0 b0 | a2 b2
        let t1 = _mm256_unpackhi_epi64(r0, r1); // a1 b1 | a3 b3
        let t2 = _mm256_unpacklo_epi64(r2, r3); // c0 d0 | c2 d2
        let t3 = _mm256_unpackhi_epi64(r2, r3); // c1 d1 | c3 d3
        [
            _mm256_permute2x128_si256::<0x20>(t0, t2), // a0 b0 c0 d0
            _mm256_permute2x128_si256::<0x20>(t1, t3), // a1 b1 c1 d1
            _mm256_permute2x128_si256::<0x31>(t0, t2), // a2 b2 c2 d2
            _mm256_permute2x128_si256::<0x31>(t1, t3), // a3 b3 c3 d3
        ]
    }

    #[inline(always)]
    unsafe fn load(block: &[i64; BLOCK_LEN]) -> [__m256i; 4] {
        let p = block.as_ptr();
        [
            _mm256_loadu_si256(p as *const __m256i),
            _mm256_loadu_si256(p.add(4) as *const __m256i),
            _mm256_loadu_si256(p.add(8) as *const __m256i),
            _mm256_loadu_si256(p.add(12) as *const __m256i),
        ]
    }

    #[inline(always)]
    unsafe fn store(block: &mut [i64; BLOCK_LEN], v: [__m256i; 4]) {
        let p = block.as_mut_ptr();
        _mm256_storeu_si256(p as *mut __m256i, v[0]);
        _mm256_storeu_si256(p.add(4) as *mut __m256i, v[1]);
        _mm256_storeu_si256(p.add(8) as *mut __m256i, v[2]);
        _mm256_storeu_si256(p.add(12) as *mut __m256i, v[3]);
    }

    /// Forward 2D transform body: the vertical lift works on columns, so
    /// the row pass runs on the transposed block (transpose → lift →
    /// transpose), then the column pass lifts directly — same
    /// rows-then-columns order as the scalar transform.
    #[inline(always)]
    unsafe fn fwd_transform_body(block: &mut [i64; BLOCK_LEN]) {
        let rows = load(block);
        let rows = transpose(fwd_lift_vertical(transpose(rows)));
        store(block, fwd_lift_vertical(rows));
    }

    /// Inverse 2D transform body: columns first (direct vertical lift),
    /// then rows (transpose → lift → transpose) — mirroring the scalar
    /// order.
    #[inline(always)]
    unsafe fn inv_transform_body(block: &mut [i64; BLOCK_LEN]) {
        let cols = inv_lift_vertical(load(block));
        store(block, transpose(inv_lift_vertical(transpose(cols))));
    }

    /// Forward 2D transform of a whole batch inside one `target_feature`
    /// region: no per-block call or dispatch-branch overhead, and the
    /// blocks' independent register chains overlap.
    ///
    /// # Safety
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn fwd_transform_batch_avx2(blocks: &mut [[i64; BLOCK_LEN]]) {
        for block in blocks {
            fwd_transform_body(block);
        }
    }

    /// Inverse 2D transform of a whole batch (see
    /// [`fwd_transform_batch_avx2`]).
    ///
    /// # Safety
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn inv_transform_batch_avx2(blocks: &mut [[i64; BLOCK_LEN]]) {
        for block in blocks {
            inv_transform_body(block);
        }
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
    use lcc_lossless::dispatch::simd_level;

    /// Forward 2D transform of a 4×4 block (rows, then columns), in place, at
    /// the process-wide dispatch level.
    fn fwd_transform(block: &mut [i64; BLOCK_LEN]) {
        fwd_transform_batch_at(simd_level(), std::slice::from_mut(block));
    }

    /// Inverse 2D transform (columns, then rows), in place, at the process-wide
    /// dispatch level.
    fn inv_transform(block: &mut [i64; BLOCK_LEN]) {
        inv_transform_batch_at(simd_level(), std::slice::from_mut(block));
    }

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
        for seed in 1..100u64 {
            let original = pseudo_random_block(seed, 1 << 40);
            let mut block = original;
            fwd_transform(&mut block);
            inv_transform(&mut block);
            assert_eq!(block, original, "seed {seed}");
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
    fn every_supported_level_transforms_identically() {
        use lcc_lossless::dispatch::supported_levels;
        for seed in (1..200u64).step_by(5) {
            // Large amplitudes exercise the emulated arithmetic shift's
            // sign handling; small ones the common codec range.
            for amplitude in [1i64 << 40, 1 << 20, 5, 1] {
                let original: Vec<[i64; BLOCK_LEN]> =
                    (seed..seed + 5).map(|s| pseudo_random_block(s, amplitude)).collect();
                let mut fwd_ref = original.clone();
                fwd_transform_batch_at(SimdLevel::Scalar, &mut fwd_ref);
                let mut inv_ref = fwd_ref.clone();
                inv_transform_batch_at(SimdLevel::Scalar, &mut inv_ref);
                assert_eq!(inv_ref, original);
                for &level in supported_levels() {
                    // One batch of five, and five batches of one.
                    let mut batch = original.clone();
                    let mut single = original.clone();
                    fwd_transform_batch_at(level, &mut batch);
                    single.chunks_mut(1).for_each(|b| fwd_transform_batch_at(level, b));
                    assert_eq!(batch, fwd_ref, "fwd seed={seed} level={level:?}");
                    assert_eq!(single, fwd_ref, "fwd single seed={seed} level={level:?}");
                    inv_transform_batch_at(level, &mut batch);
                    single.chunks_mut(1).for_each(|b| inv_transform_batch_at(level, b));
                    assert_eq!(batch, original, "inv seed={seed} level={level:?}");
                    assert_eq!(single, original, "inv single seed={seed} level={level:?}");
                }
            }
        }
    }

    #[test]
    fn overflowing_coefficients_wrap_identically_at_every_level() {
        use lcc_lossless::dispatch::supported_levels;
        // What a damaged stream can hand the inverse: values at and near
        // the ends of `i64`, whose lifts overflow.
        let extremes = [i64::MIN, i64::MAX, i64::MIN + 1, i64::MAX - 1, -1, 0, 1];
        let blocks: Vec<[i64; BLOCK_LEN]> = (0..7)
            .map(|k| std::array::from_fn(|i| extremes[(i * 3 + k) % extremes.len()]))
            .collect();
        let mut fwd_ref = blocks.clone();
        fwd_transform_batch_at(SimdLevel::Scalar, &mut fwd_ref);
        let mut inv_ref = blocks.clone();
        inv_transform_batch_at(SimdLevel::Scalar, &mut inv_ref);
        for &level in supported_levels() {
            let (mut fwd, mut inv) = (blocks.clone(), blocks.clone());
            fwd_transform_batch_at(level, &mut fwd);
            inv_transform_batch_at(level, &mut inv);
            assert_eq!(fwd, fwd_ref, "fwd level={level:?}");
            assert_eq!(inv, inv_ref, "inv level={level:?}");
        }
    }

    #[test]
    fn batched_transforms_match_per_block_calls_at_every_level() {
        use lcc_lossless::dispatch::supported_levels;
        // Batch sizes around the codec's 4-block buffering plus ragged
        // tails; batched coefficients must equal batches of one exactly.
        for &n in &[0usize, 1, 3, 4, 5, 8, 17] {
            let original: Vec<[i64; BLOCK_LEN]> =
                (0..n).map(|i| pseudo_random_block(i as u64 + 1, 1 << 40)).collect();
            for &level in supported_levels() {
                let mut batched = original.clone();
                fwd_transform_batch_at(level, &mut batched);
                for (i, block) in original.iter().enumerate() {
                    let mut single = *block;
                    fwd_transform_batch_at(level, std::slice::from_mut(&mut single));
                    assert_eq!(batched[i], single, "fwd n={n} i={i} level={level:?}");
                }
                inv_transform_batch_at(level, &mut batched);
                assert_eq!(batched, original, "inv n={n} level={level:?}");
            }
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
