//! A fast, deterministic hasher for the solver's tables.
//!
//! The solver's keys are small and made by the program itself: term ids,
//! node ids, hole ids, fingerprints and the hash-consing keys of the arena.
//! The standard library's SipHash defends against keys crafted to collide,
//! at several times the cost; this is the multiply-rotate word hash of the
//! Firefox and rustc compilers ("FxHash"). Tables keyed by text from the
//! programs PINS reads keep SipHash. FxHash has no per-process seed, and
//! nothing in PINS depends on the iteration order of a hash map.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// FxHash's multiplier: an odd constant with well-spread bits.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The hasher state: one word, folded in per written word.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.add(i as u64);
        self.add((i >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// Builds [`FxHasher`]s.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` hashed with [`FxHasher`]; make one with `default()`.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` hashed with [`FxHasher`]; make one with `default()`.
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;
