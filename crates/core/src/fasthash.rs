//! A std-only multiplicative hasher for the observer's hot tables.
//!
//! Frontier expansion probes the monitor step cache once per alive
//! memory on every lattice edge, keyed by a memory word and a packed
//! atom valuation. Such keys are a few machine words, where std's SipHash
//! costs more than the probe itself. This hasher folds each word with one
//! add and one multiply (the rustc-hash scheme) and rotates the result so
//! the well-mixed high bits pick the bucket.
//!
//! It offers no protection against chosen-key collisions. The tables it
//! keys hold memories and valuations that the observer derives, one
//! level's transitions at a time, so a hostile stream can at worst
//! make one level slower — it can already make a level exponentially
//! wide, which the frontier cap bounds either way.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Odd multiplier with well-spread bits (rustc-hash 2).
const K: u64 = 0xf135_7aea_2e62_a9c5;

/// Word-at-a-time multiplicative hasher; see the module docs.
#[derive(Clone, Copy, Default, Debug)]
pub struct FastHasher {
    hash: u64,
}

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = self.hash.wrapping_add(word).wrapping_mul(K);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut word = [0u8; 8];
            word.copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

/// Builds [`FastHasher`]s.
pub type FastBuildHasher = BuildHasherDefault<FastHasher>;

/// A `HashMap` keyed through [`FastHasher`].
pub type FastMap<K, V> = HashMap<K, V, FastBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash + ?Sized>(t: &T) -> u64 {
        FastBuildHasher::default().hash_one(t)
    }

    #[test]
    fn deterministic_and_length_sensitive() {
        assert_eq!(hash_of(&[1u32, 2, 3][..]), hash_of(&vec![1u32, 2, 3]));
        assert_ne!(hash_of(&[0u32][..]), hash_of(&[0u32, 0][..]));
        assert_ne!(hash_of(&(1u64, 2u64)), hash_of(&(2u64, 1u64)));
    }

    #[test]
    fn neighbouring_cuts_spread_over_buckets() {
        // Every cut of a 4×4×4×4 hypercube: the low bits (what a table
        // of 256 buckets indexes by) must not collapse onto a few values.
        let mut buckets = HashSet::new();
        for a in 0..4u32 {
            for b in 0..4u32 {
                for c in 0..4u32 {
                    for d in 0..4u32 {
                        buckets.insert(hash_of(&[a, b, c, d][..]) & 0xff);
                    }
                }
            }
        }
        assert!(buckets.len() > 140, "{} of 256 buckets used", buckets.len());
    }
}
