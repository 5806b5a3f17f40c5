//! A fast, allocation-free hasher for group keys.
//!
//! The paper assumes the LFTA uses a hash function that "randomly hashes
//! the data, so each hash value is equally possible for every record".
//! SipHash (the `std` default) satisfies that but is needlessly slow for
//! 4-byte integer attributes, and the approved dependency list contains no
//! third-party hasher, so we implement a small multiply-xor mixer in the
//! spirit of `wyhash`/`splitmix64`. Empirical bucket-occupancy tests (see
//! the collision-model validation experiments) show it matches the
//! paper's random-hash assumption on both uniform and clustered data.

use std::hash::{BuildHasher, Hasher};

/// 64-bit finalizer from `splitmix64`; full avalanche on all input bits.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Streaming hasher combining 8-byte lanes with multiply-xor mixing.
///
/// `FastHasher` implements [`Hasher`] so it can back `HashMap`s used by
/// the statistics and HFTA layers, and it exposes
/// [`FastHasher::hash_words`] for the hot LFTA probe path.
#[derive(Clone, Debug)]
pub struct FastHasher {
    state: u64,
}

impl FastHasher {
    /// Creates a hasher with the given seed.
    #[inline]
    pub fn with_seed(seed: u64) -> FastHasher {
        FastHasher {
            state: mix64(seed ^ 0x5B4C_F5A1_36D5_A421),
        }
    }

    /// Hashes a slice of 4-byte attribute values in one shot.
    ///
    /// This is the LFTA probe path: group keys are at most
    /// [`crate::MAX_ATTRS`] words, so the loop fully unrolls.
    #[inline]
    pub fn hash_words(seed: u64, words: &[u32]) -> u64 {
        let mut h = mix64(seed ^ (words.len() as u64).wrapping_mul(0xA24B_AED4_963E_E407));
        for &w in words {
            h = mix64(h ^ u64::from(w));
        }
        h
    }
}

impl Default for FastHasher {
    fn default() -> FastHasher {
        FastHasher::with_seed(0)
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Consume full 8-byte lanes, then the tail.
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut lane = [0u8; 8];
            lane.copy_from_slice(chunk); // chunks_exact(8) guarantees the length
            self.state = mix64(self.state ^ u64::from_le_bytes(lane));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut lane = [0u8; 8];
            lane[..rem.len()].copy_from_slice(rem);
            self.state = mix64(self.state ^ u64::from_le_bytes(lane) ^ (rem.len() as u64) << 56);
        }
    }

    /// Exactly what `write(&[i])` computes — a one-byte tail lane
    /// tagged with its length — without the slice-chunking path. Every
    /// `GroupKey` hash starts with its arity byte.
    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.state = mix64(self.state ^ u64::from(i) ^ 1 << 56);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.state = mix64(self.state ^ u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.state = mix64(self.state ^ i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }
}

/// [`BuildHasher`] producing [`FastHasher`]s; deterministic for
/// reproducible experiments (seedable for independence tests).
#[derive(Clone, Copy, Debug, Default)]
pub struct FastState {
    seed: u64,
}

impl FastState {
    /// Creates a builder whose hashers start from `seed`.
    pub fn with_seed(seed: u64) -> FastState {
        FastState { seed }
    }
}

impl BuildHasher for FastState {
    type Hasher = FastHasher;

    #[inline]
    fn build_hasher(&self) -> FastHasher {
        FastHasher::with_seed(self.seed)
    }
}

/// A `HashMap` keyed with the workspace hasher.
pub type FastMap<K, V> = std::collections::HashMap<K, V, FastState>;
/// A `HashSet` keyed with the workspace hasher.
pub type FastSet<K> = std::collections::HashSet<K, FastState>;

/// A [`FastSet`] with room for `capacity` entries — the deterministic
/// replacement for `HashSet::with_capacity` (msa-lint D002).
pub fn fast_set_with_capacity<K>(capacity: usize) -> FastSet<K> {
    FastSet::with_capacity_and_hasher(capacity, FastState::default())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix64_is_bijective_on_samples() {
        // Distinct inputs must produce distinct outputs (bijectivity spot
        // check — mix64 is invertible by construction).
        let outs: std::collections::HashSet<u64> = (0..10_000u64).map(mix64).collect();
        assert_eq!(outs.len(), 10_000);
    }

    #[test]
    fn hash_words_depends_on_every_word() {
        let base = FastHasher::hash_words(1, &[10, 20, 30]);
        assert_ne!(base, FastHasher::hash_words(1, &[11, 20, 30]));
        assert_ne!(base, FastHasher::hash_words(1, &[10, 21, 30]));
        assert_ne!(base, FastHasher::hash_words(1, &[10, 20, 31]));
        assert_ne!(base, FastHasher::hash_words(1, &[10, 20]));
        assert_ne!(base, FastHasher::hash_words(2, &[10, 20, 30]));
    }

    #[test]
    fn hasher_trait_matches_incremental_use() {
        use std::hash::Hasher;
        let mut h1 = FastHasher::with_seed(7);
        h1.write_u32(42);
        h1.write_u32(43);
        let mut h2 = FastHasher::with_seed(7);
        h2.write_u32(42);
        h2.write_u32(43);
        assert_eq!(h1.finish(), h2.finish());
        let mut h3 = FastHasher::with_seed(7);
        h3.write_u32(43);
        h3.write_u32(42);
        assert_ne!(h1.finish(), h3.finish(), "order must matter");
    }

    #[test]
    fn bucket_distribution_is_roughly_uniform() {
        // Chi-squared sanity check: hash 100k sequential keys into 128
        // buckets; expect each bucket near 781 with modest deviation.
        const BUCKETS: usize = 128;
        const N: usize = 100_000;
        let mut counts = [0usize; BUCKETS];
        for i in 0..N {
            let h = FastHasher::hash_words(0, &[i as u32, (i / 3) as u32]);
            counts[(h % BUCKETS as u64) as usize] += 1;
        }
        let expected = N as f64 / BUCKETS as f64;
        let chi2: f64 = counts
            .iter()
            .map(|&c| {
                let d = c as f64 - expected;
                d * d / expected
            })
            .sum();
        // 127 degrees of freedom; p=0.001 critical value ≈ 181.
        assert!(chi2 < 181.0, "chi2 = {chi2}");
    }

    #[test]
    fn write_u8_equals_a_one_byte_write() {
        for seed in [0, 1, 7, 0xDEAD_BEEF, u64::MAX] {
            let mut prefix = FastHasher::with_seed(seed);
            prefix.write_u32(seed as u32);
            for start in [FastHasher::with_seed(seed), prefix] {
                for b in 0..=u8::MAX {
                    let mut fast = start.clone();
                    fast.write_u8(b);
                    let mut slice = start.clone();
                    slice.write(&[b]);
                    assert_eq!(fast.finish(), slice.finish(), "seed {seed} byte {b}");
                }
            }
        }
    }

    #[test]
    fn write_handles_unaligned_tails() {
        let mut a = FastHasher::default();
        a.write(b"hello world"); // 11 bytes: one full lane + 3-byte tail
        let mut b = FastHasher::default();
        b.write(b"hello worl!");
        assert_ne!(a.finish(), b.finish());
    }
}
