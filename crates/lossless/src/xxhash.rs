//! XXH64 checksums with a runtime-dispatched AVX2 stripe loop.
//!
//! The framed container ([`lcc_pressio`]'s `LCCF` streams) can carry one
//! 64-bit checksum per block so corruption is detected *before* a block
//! decoder walks a damaged stream. XXH64 is the standard pick for that job:
//! far stronger mixing than CRC32 at a few bytes per cycle, and the 32-byte
//! stripe loop (four independent 64-bit accumulator lanes) maps directly
//! onto one AVX2 register.
//!
//! This is a from-scratch implementation of the canonical XXH64 algorithm
//! (same primes, same round/merge/avalanche structure), so digests match the
//! reference `xxhash` library for any input. The AVX2 path vectorizes only
//! the stripe loop — all arithmetic is wrapping 64-bit integer work, so the
//! vector lanes are bit-identical to the scalar accumulators — and the
//! setup/merge/tail stay scalar. Dispatch follows
//! [`crate::dispatch::simd_level`]; [`xxh64_at`] pins an explicit tier for
//! the equivalence tests and benchmarks.

use crate::dispatch::{simd_level, SimdLevel};

const PRIME64_1: u64 = 0x9E3779B185EBCA87;
const PRIME64_2: u64 = 0xC2B2AE3D27D4EB4F;
const PRIME64_3: u64 = 0x165667B19E3779F9;
const PRIME64_4: u64 = 0x85EBCA77C2B2AE63;
const PRIME64_5: u64 = 0x27D4EB2F165667C5;

#[inline(always)]
fn read_u64(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"))
}

#[inline(always)]
fn read_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"))
}

/// One accumulator round: `rotl31(acc + lane·P2) · P1`.
#[inline(always)]
fn round(acc: u64, lane: u64) -> u64 {
    acc.wrapping_add(lane.wrapping_mul(PRIME64_2)).rotate_left(31).wrapping_mul(PRIME64_1)
}

/// Fold one accumulator into the merged hash.
#[inline(always)]
fn merge_round(hash: u64, acc: u64) -> u64 {
    (hash ^ round(0, acc)).wrapping_mul(PRIME64_1).wrapping_add(PRIME64_4)
}

/// XXH64 of `bytes` at the process-wide dispatch level.
pub fn xxh64(bytes: &[u8], seed: u64) -> u64 {
    xxh64_at(simd_level(), bytes, seed)
}

/// [`xxh64`] at an explicit dispatch tier (tests and benchmarks; every tier
/// produces the same digest).
// Sanctioned `unsafe_code` waiver (see `crate::dispatch`): this shim holds
// the feature-detection guard that makes the AVX2 stripe loop legal.
#[allow(unsafe_code)]
pub fn xxh64_at(level: SimdLevel, bytes: &[u8], seed: u64) -> u64 {
    let len = bytes.len();
    let mut hash;
    let mut at = 0usize;
    if len >= 32 {
        let stripes = len / 32;
        let accs = {
            #[cfg(target_arch = "x86_64")]
            {
                if level >= SimdLevel::Avx2 {
                    // SAFETY: the AVX2 tier is only reachable when
                    // `supported_levels()` contains it, i.e. the CPU has AVX2.
                    unsafe { avx2::stripes(bytes, stripes, seed) }
                } else {
                    stripes_scalar(bytes, stripes, seed)
                }
            }
            #[cfg(not(target_arch = "x86_64"))]
            {
                let _ = level;
                stripes_scalar(bytes, stripes, seed)
            }
        };
        at = stripes * 32;
        let [v1, v2, v3, v4] = accs;
        hash = v1
            .rotate_left(1)
            .wrapping_add(v2.rotate_left(7))
            .wrapping_add(v3.rotate_left(12))
            .wrapping_add(v4.rotate_left(18));
        hash = merge_round(hash, v1);
        hash = merge_round(hash, v2);
        hash = merge_round(hash, v3);
        hash = merge_round(hash, v4);
    } else {
        hash = seed.wrapping_add(PRIME64_5);
    }

    hash = hash.wrapping_add(len as u64);
    while at + 8 <= len {
        hash = (hash ^ round(0, read_u64(bytes, at)))
            .rotate_left(27)
            .wrapping_mul(PRIME64_1)
            .wrapping_add(PRIME64_4);
        at += 8;
    }
    if at + 4 <= len {
        hash = (hash ^ u64::from(read_u32(bytes, at)).wrapping_mul(PRIME64_1))
            .rotate_left(23)
            .wrapping_mul(PRIME64_2)
            .wrapping_add(PRIME64_3);
        at += 4;
    }
    while at < len {
        hash = (hash ^ u64::from(bytes[at]).wrapping_mul(PRIME64_5))
            .rotate_left(11)
            .wrapping_mul(PRIME64_1);
        at += 1;
    }

    hash ^= hash >> 33;
    hash = hash.wrapping_mul(PRIME64_2);
    hash ^= hash >> 29;
    hash = hash.wrapping_mul(PRIME64_3);
    hash ^= hash >> 32;
    hash
}

/// The four seeded accumulators after `stripes` 32-byte stripes, scalar.
fn stripes_scalar(bytes: &[u8], stripes: usize, seed: u64) -> [u64; 4] {
    let mut v1 = seed.wrapping_add(PRIME64_1).wrapping_add(PRIME64_2);
    let mut v2 = seed.wrapping_add(PRIME64_2);
    let mut v3 = seed;
    let mut v4 = seed.wrapping_sub(PRIME64_1);
    for s in 0..stripes {
        let at = s * 32;
        v1 = round(v1, read_u64(bytes, at));
        v2 = round(v2, read_u64(bytes, at + 8));
        v3 = round(v3, read_u64(bytes, at + 16));
        v4 = round(v4, read_u64(bytes, at + 24));
    }
    [v1, v2, v3, v4]
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    // The workspace denies `unsafe_code`; the SIMD tiers are the sanctioned
    // waiver: `core::arch` intrinsics are unsafe by definition, and every
    // entry point here is guarded by runtime feature detection plus the
    // bit-identity test suite.
    #![allow(unsafe_code)]

    use super::{PRIME64_1, PRIME64_2};
    use std::arch::x86_64::*;

    /// Lane-wise wrapping 64-bit multiply (AVX2 has no `vpmullq`): combine
    /// the three 32×32→64 partial products that land in the low 64 bits.
    #[inline(always)]
    unsafe fn mul64(a: __m256i, b: __m256i, b_hi: __m256i) -> __m256i {
        let lo = _mm256_mul_epu32(a, b);
        let a_hi = _mm256_srli_epi64::<32>(a);
        let cross = _mm256_add_epi64(_mm256_mul_epu32(a_hi, b), _mm256_mul_epu32(a, b_hi));
        _mm256_add_epi64(lo, _mm256_slli_epi64::<32>(cross))
    }

    #[inline(always)]
    unsafe fn rotl31(v: __m256i) -> __m256i {
        _mm256_or_si256(_mm256_slli_epi64::<31>(v), _mm256_srli_epi64::<33>(v))
    }

    /// The four seeded accumulators after `stripes` 32-byte stripes, with
    /// all four lanes in one 256-bit register. Identical wrapping integer
    /// arithmetic to [`super::stripes_scalar`], hence identical digests.
    ///
    /// # Safety
    /// The CPU must support AVX2 and `bytes` must hold at least
    /// `stripes * 32` bytes.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn stripes(bytes: &[u8], stripes: usize, seed: u64) -> [u64; 4] {
        debug_assert!(bytes.len() >= stripes * 32);
        let p1 = _mm256_set1_epi64x(PRIME64_1 as i64);
        let p1_hi = _mm256_srli_epi64::<32>(p1);
        let p2 = _mm256_set1_epi64x(PRIME64_2 as i64);
        let p2_hi = _mm256_srli_epi64::<32>(p2);
        let mut acc = _mm256_set_epi64x(
            seed.wrapping_sub(PRIME64_1) as i64,
            seed as i64,
            seed.wrapping_add(PRIME64_2) as i64,
            seed.wrapping_add(PRIME64_1).wrapping_add(PRIME64_2) as i64,
        );
        let base = bytes.as_ptr();
        for s in 0..stripes {
            let lanes = _mm256_loadu_si256(base.add(s * 32) as *const __m256i);
            acc = _mm256_add_epi64(acc, mul64(lanes, p2, p2_hi));
            acc = mul64(rotl31(acc), p1, p1_hi);
        }
        let mut out = [0u64; 4];
        _mm256_storeu_si256(out.as_mut_ptr() as *mut __m256i, acc);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::supported_levels;

    fn pseudo_random(n: usize, mut state: u64) -> Vec<u8> {
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            out.push((state >> 24) as u8);
        }
        out
    }

    #[test]
    fn reference_vectors() {
        // Canonical XXH64 digests (the reference library's test vectors).
        assert_eq!(xxh64(b"", 0), 0xEF46_DB37_51D8_E999);
        assert_eq!(xxh64(b"a", 0), 0xD24E_C4F1_A98C_6E5B);
        assert_eq!(xxh64(b"abc", 0), 0x44BC_2CF5_AD77_0999);
    }

    #[test]
    fn seed_changes_the_digest() {
        let data = pseudo_random(100, 7);
        assert_ne!(xxh64(&data, 0), xxh64(&data, 1));
    }

    #[test]
    fn every_supported_level_matches_scalar() {
        // Cover every tail-length class on both sides of the 32-byte stripe
        // threshold, plus stripe-heavy inputs where the AVX2 loop dominates.
        let sizes: Vec<usize> = (0..64).chain([100, 127, 128, 255, 1000, 4096, 65_537]).collect();
        for &n in &sizes {
            let data = pseudo_random(n, n as u64 + 1);
            let reference = xxh64_at(SimdLevel::Scalar, &data, 0);
            for &level in supported_levels() {
                assert_eq!(xxh64_at(level, &data, 0), reference, "n={n} level={level:?}");
                assert_eq!(
                    xxh64_at(level, &data, 0x1234_5678_9ABC_DEF0),
                    xxh64_at(SimdLevel::Scalar, &data, 0x1234_5678_9ABC_DEF0),
                    "seeded n={n} level={level:?}"
                );
            }
        }
    }

    #[test]
    fn single_bit_flips_change_the_digest() {
        let data = pseudo_random(257, 99);
        let reference = xxh64(&data, 0);
        for at in [0usize, 31, 32, 100, 256] {
            let mut flipped = data.clone();
            flipped[at] ^= 1;
            assert_ne!(xxh64(&flipped, 0), reference, "flip at {at}");
        }
    }
}
