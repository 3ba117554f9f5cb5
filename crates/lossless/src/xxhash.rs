//! XXH64 checksums.
//!
//! The framed container (`lcc_pressio`'s `LCCF` streams) can carry one
//! 64-bit checksum per block so corruption is detected *before* a block
//! decoder walks a damaged stream. XXH64 is the standard pick for that job:
//! far stronger mixing than CRC32 at a few bytes per cycle.
//!
//! This is a from-scratch implementation of the canonical XXH64 algorithm
//! (same primes, same round/merge/avalanche structure), so digests match the
//! reference `xxhash` library for any input. It is scalar only: the 32-byte
//! stripe loop's four independent 64-bit lanes fit one AVX2 register, but
//! AVX2 has no 64-bit multiply, and an AVX2 stripe loop built from 32-bit
//! partial products hashed 7.2 GB/s where this loop hashes 11.9 GB/s (one
//! core of a 2-vCPU AVX2 x86_64 host).

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

/// XXH64 of `bytes` with `seed`.
pub fn xxh64(bytes: &[u8], seed: u64) -> u64 {
    let len = bytes.len();
    let mut hash;
    let mut at = 0usize;
    if len >= 32 {
        let mut v1 = seed.wrapping_add(PRIME64_1).wrapping_add(PRIME64_2);
        let mut v2 = seed.wrapping_add(PRIME64_2);
        let mut v3 = seed;
        let mut v4 = seed.wrapping_sub(PRIME64_1);
        let stripes = len / 32;
        for s in 0..stripes {
            let at = s * 32;
            v1 = round(v1, read_u64(bytes, at));
            v2 = round(v2, read_u64(bytes, at + 8));
            v3 = round(v3, read_u64(bytes, at + 16));
            v4 = round(v4, read_u64(bytes, at + 24));
        }
        at = stripes * 32;
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

#[cfg(test)]
mod tests {
    use super::*;

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

    /// `(len, digest at seed 0, digest at seed 0x1234_5678_9ABC_DEF0)` of
    /// `pseudo_random(len, len + 1)`, captured while an AVX2 stripe loop
    /// still ran beside this one and agreed with it on every row: every
    /// tail-length class on both sides of the 32-byte stripe threshold, and
    /// stripe-heavy inputs.
    const PINNED: [(usize, u64, u64); 71] = [
        (0, 0xef46db3751d8e999, 0x7fef5b0c316777ed),
        (1, 0x05ea1b50fd660405, 0xefa31a11ff496d08),
        (2, 0x6505a7c2793d60af, 0x0037ae219eb9580e),
        (3, 0x2c3437c9f8106fdb, 0xd8e918470103d696),
        (4, 0xda35f15be3cc5484, 0x02826cbe8b97ee74),
        (5, 0x3e93ec4d9c39e415, 0x6a637c96f9e3c1be),
        (6, 0xdbfbe41aed1d368b, 0x630b2d98043e2a22),
        (7, 0xc4a65ade6ca7a389, 0x71dcb4a094e8e812),
        (8, 0x8a5c664d26537890, 0x4a18c8283d53ad0c),
        (9, 0x4a54138d1e3b3cb2, 0x62593947fcea6f30),
        (10, 0x7f0b85303179e1d0, 0x037a0c30b282febd),
        (11, 0x2ed44174d35140b6, 0x800beaf1049cf6ed),
        (12, 0x7c5254f366aeeef5, 0x86e51d85c2cf2749),
        (13, 0x3730de19bca9301f, 0x37a105e886ed8248),
        (14, 0x779cbc1cb32c766b, 0xdb8560fb17c265b4),
        (15, 0xadaa1eaa551a50f8, 0x9504cc3f4bb7787c),
        (16, 0xa1b9c9dc9f795a21, 0xee6aafcfc2ff8e5e),
        (17, 0xf00ca7e1527b7545, 0xd61f1d4549a72c77),
        (18, 0x6dadfad6cb38fd14, 0x2c37324dc4ad48db),
        (19, 0x2d5266526ff93f31, 0x886bbf4304ba431d),
        (20, 0x5c5c9cdb5bb461a0, 0x28197c9948633bc7),
        (21, 0xf976e89fdca47ee3, 0xacda32f5ab89dd96),
        (22, 0x7bb44f226bc4c08a, 0x38904d51078e4cdb),
        (23, 0x4b432df4ea30e150, 0x585bb1ee93399e45),
        (24, 0x5b3ac964f60a96ec, 0xf733a5eb1dfd22c6),
        (25, 0x0a7b58c351c5ca21, 0x1f6058f2c2804fe8),
        (26, 0x846baf62d8bddbcd, 0x3da28e84b4e313d2),
        (27, 0x9d26788b99c5a341, 0x9e637ec2c57391be),
        (28, 0x9a69776401302a64, 0xbb18015de9ebfe1c),
        (29, 0xf5bd063671fb454b, 0x18aa454210e59871),
        (30, 0xc1e2216e4ecfb48f, 0x327462629ef7cabe),
        (31, 0x72af2d0b65466f3c, 0x68f862e734afbb8d),
        (32, 0x9d4047dae3412d5b, 0xf92e4731224187ba),
        (33, 0xf340640d923253f9, 0x11c3f1baefe0c4d4),
        (34, 0xa36c7107ef052d42, 0x8b2ffbc3a6221371),
        (35, 0x440991322f5f6a10, 0x5e2712735e8e25b8),
        (36, 0x174c29627b177fa3, 0x322f675e69c1f4ae),
        (37, 0xd6f0cdd14e214b09, 0x87e7608b23e8d1ca),
        (38, 0xe24ab177a046adb7, 0xd1a3e0acd44b81f8),
        (39, 0xd4a6a8ee176d39fd, 0xd79821b02de3f4c7),
        (40, 0x74e9c06c567ae80e, 0xb179aa36134f550b),
        (41, 0x0279adf5308dae34, 0xabec026d02c8eaef),
        (42, 0xc89c41adc47b03dc, 0xd99eda427b37312e),
        (43, 0x4ab2611ef63946fe, 0x0b93f2455ff0cdf7),
        (44, 0xb10452bd62c0f50e, 0xa9253e05ace913d4),
        (45, 0x0f8e52cb65ba37fc, 0x23efa4deb2c13555),
        (46, 0x3aad5529aa1f8a55, 0x633d60f189282898),
        (47, 0x8194d66db3061bdb, 0x67d4e4c1cb6b8bb8),
        (48, 0x429bbd0f450215ec, 0x14f2d50da491cbb4),
        (49, 0x88a1a7304d98f4dd, 0x3be24c512cc92b5e),
        (50, 0x13a9266267060961, 0x8786d2f1b4e3e7e8),
        (51, 0x723bc8376ae7cc33, 0x4f4945b4d367ff9b),
        (52, 0x40230c44b2532f8f, 0x4306511120af976e),
        (53, 0x757d32a5b99ed185, 0xa2a4d9f8be3ee043),
        (54, 0x8d714b492b2620eb, 0x2058791a0d71be16),
        (55, 0x98c0261820aa8489, 0x484f30116cf786cf),
        (56, 0xa796ef234dc80e25, 0xacf0f76fa9bc5947),
        (57, 0xcd0974214f369d4c, 0x3138fe4e4948c860),
        (58, 0x6131f7b5f8b0fe47, 0xcd4d7b787d7b0e94),
        (59, 0xf68f9b20b4b4a3a9, 0x75e6d6f3c04f4a96),
        (60, 0xa4982a9cc909b1be, 0x35a9358cd3c631cd),
        (61, 0x3523814e920279b5, 0x0cebe6c066f7c9a3),
        (62, 0xfc318f9fda4d29b2, 0x3421270c101a5154),
        (63, 0x33f57402447ecf1f, 0x2765a4a6b25a6ed9),
        (100, 0xd201d38b9bd688a9, 0xd03968fb5285f2f2),
        (127, 0xa10ba02fc57b4b10, 0x43902a619bb848be),
        (128, 0xbf9bfa83f39fc210, 0x1d812cdd39b5f530),
        (255, 0x50bc128493420a05, 0x952bea4e942d583e),
        (1000, 0xc465f0029e4391bd, 0xd7a0f71880e39172),
        (4096, 0x26f04ee169c8cb28, 0x9d5addd2ba974554),
        (65537, 0x7eb695ee07a54653, 0xaa80b10534339b67),
    ];

    #[test]
    fn the_stripe_loop_and_every_tail_class_match_their_pins() {
        let sizes: Vec<usize> = (0..64).chain([100, 127, 128, 255, 1000, 4096, 65_537]).collect();
        assert_eq!(PINNED.map(|(n, _, _)| n).to_vec(), sizes);
        for (n, unseeded, seeded) in PINNED {
            let data = pseudo_random(n, n as u64 + 1);
            assert_eq!(xxh64(&data, 0), unseeded, "n={n}");
            assert_eq!(xxh64(&data, 0x1234_5678_9ABC_DEF0), seeded, "seeded n={n}");
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
