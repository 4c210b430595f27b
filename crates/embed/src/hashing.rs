//! Deterministic 64-bit hashing primitives (FNV-1a + splitmix64 mixing).
//!
//! `std`'s default hasher is randomized per process, which would break the
//! reproducibility guarantees of the embedder; these are stable across runs
//! and platforms.

/// FNV-1a offset basis: the hash of the empty string.
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a hash of a string.
#[inline]
pub fn hash64(s: &str) -> u64 {
    fnv_extend(FNV_OFFSET, s.as_bytes())
}

/// Continue an FNV-1a hash `h` over `bytes`: hashing a string in pieces
/// gives the hash of their concatenation, without building it.
#[inline]
pub(crate) fn fnv_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// splitmix64 finalizer — a fast, high-quality 64-bit mixer used to derive
/// pseudo-random streams from a hash seed.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stable_values() {
        // Pin exact values so accidental algorithm changes are caught.
        assert_eq!(hash64(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(hash64("a"), hash64("a"));
        assert_ne!(hash64("a"), hash64("b"));
    }

    #[test]
    fn mix_changes_bits() {
        let a = mix64(1);
        let b = mix64(2);
        assert_ne!(a, b);
        assert_ne!(a, 1);
        // Avalanche sanity: flipping one input bit flips many output bits.
        let diff = (mix64(0x1234) ^ mix64(0x1235)).count_ones();
        assert!(diff > 16, "poor avalanche: {diff} bits");
    }
}
