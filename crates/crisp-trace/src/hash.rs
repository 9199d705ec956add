//! The workspace's one hasher for address-derived keys.
//!
//! Sets and maps keyed by sector or line addresses (the MSHR table, the
//! trace footprints, the analyzer's working sets) are probed once per
//! memory access or per decoded lane, so SipHash's per-key cost shows in
//! every pass that walks a trace. [`AddrHasher`] is a multiplicative
//! hasher in its place; [`AddrHashMap`] and [`AddrHashSet`] are the
//! collections built on it.

use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

/// Odd 64-bit multiplier (2^64 / golden ratio).
const K: u64 = 0x9E37_79B9_7F4A_7C15;

/// Folded-multiply hashing: each 64-bit word is xored into the state and
/// multiplied by an odd constant to 128 bits, and the two halves are
/// xored together, so a key's high bits reach the low bits a table
/// indexes by (sector and line addresses carry little entropy there). A
/// byte slice is folded eight bytes at a time, so a slice key (one
/// instruction's lane addresses) costs one multiply per address.
///
/// The state starts from a seed drawn once per process ([`AddrState`]).
/// Trace addresses come from outside the program: without a secret seed a
/// trace could pick keys whose hashes agree in every low bit and turn a
/// set insert into a walk over the whole set. No output may depend on the
/// iteration order of a set built on it (nor on SipHash's, which is
/// randomised per process too).
#[derive(Debug, Clone, Copy)]
pub struct AddrHasher(u64);

impl Hasher for AddrHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.write_u64(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut last = [0u8; 8];
            last[..tail.len()].copy_from_slice(tail);
            self.write_u64(u64::from_le_bytes(last));
        }
    }

    fn write_u8(&mut self, x: u8) {
        self.write_u64(x.into());
    }

    fn write_u16(&mut self, x: u16) {
        self.write_u64(x.into());
    }

    fn write_u32(&mut self, x: u32) {
        self.write_u64(x.into());
    }

    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    fn write_u64(&mut self, x: u64) {
        let p = u128::from(self.0 ^ x) * u128::from(K);
        self.0 = p as u64 ^ (p >> 64) as u64;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Builds [`AddrHasher`]s from the process's seed.
#[derive(Debug, Clone, Copy)]
pub struct AddrState(u64);

impl Default for AddrState {
    fn default() -> Self {
        static SEED: OnceLock<u64> = OnceLock::new();
        AddrState(*SEED.get_or_init(|| RandomState::new().hash_one(K)))
    }
}

impl BuildHasher for AddrState {
    type Hasher = AddrHasher;

    fn build_hasher(&self) -> AddrHasher {
        AddrHasher(self.0)
    }
}

/// A `HashMap` hashed by [`AddrHasher`].
pub type AddrHashMap<K, V> = HashMap<K, V, AddrState>;

/// A `HashSet` hashed by [`AddrHasher`].
pub type AddrHashSet<K> = HashSet<K, AddrState>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of(v: impl Hash) -> u64 {
        AddrState::default().hash_one(v)
    }

    #[test]
    fn integers_hash_as_one_word() {
        let mut h = AddrState::default().build_hasher();
        h.write_u64(0x1234);
        assert_eq!(hash_of(0x1234u64), h.finish());
        assert_eq!(hash_of(7u8), hash_of(7u64));
    }

    #[test]
    fn byte_slices_fold_whole_words_and_the_tail() {
        let mut by_bytes = AddrState::default().build_hasher();
        by_bytes.write(&[1, 0, 0, 0, 0, 0, 0, 0, 2, 3]);
        let mut by_words = AddrState::default().build_hasher();
        by_words.write_u64(1);
        by_words.write_u64(0x0302);
        assert_eq!(by_bytes.finish(), by_words.finish());
    }

    #[test]
    fn slice_keys_separate_by_content_and_length() {
        let a: &[u64] = &[0x1000, 0x1020];
        let b: &[u64] = &[0x1000, 0x1040];
        let c: &[u64] = &[0x1000, 0x1020, 0];
        assert_ne!(hash_of(a), hash_of(b));
        assert_ne!(hash_of(a), hash_of(c));
        let mut seen: AddrHashMap<&[u64], usize> = AddrHashMap::default();
        seen.insert(a, 0);
        assert_eq!(seen.get(&[0x1000u64, 0x1020][..]), Some(&0));
        assert_eq!(seen.get(b), None);
    }

    #[test]
    fn keys_differing_only_in_their_top_bits_spread_over_the_low_bits() {
        // 4096 keys that differ only above bit 52: a plain multiply leaves
        // their low 52 bits equal, so they would share one bucket.
        let buckets: AddrHashSet<u64> = (0..4096u64).map(|i| hash_of(i << 52) & 0xFFF).collect();
        assert!(buckets.len() > 2000, "{} buckets of 4096", buckets.len());
    }
}
