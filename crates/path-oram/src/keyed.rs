//! `u64`-keyed maps for keys the program makes itself.
//!
//! Heap node ids, block addresses, flight ids and serialization keys all
//! come from inside the simulator, so SipHash's protection against keys
//! crafted to collide buys nothing for them, and it costs more than the
//! lookup it guards. [`U64Map`] and `U64Set` hash with one 128-bit
//! multiply folded to 64 bits instead.
//!
//! Every map built on these aliases is bounded by the tree, the stash or
//! the in-flight window: the tree store's subtree directory, the stash and
//! its pin set, the set of materialized blocks, the flight table and the
//! PLB index. A map a *peer* can grow — request coalescing and shard
//! metadata in `fp-service`, pending requests and connections in `fp-net` —
//! is keyed by values from outside the program and keeps the default
//! hasher.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` from program-made `u64` keys.
pub type U64Map<V> = HashMap<u64, V, BuildHasherDefault<FoldHasher>>;

/// A `HashSet` of program-made `u64` keys.
pub(crate) type U64Set = HashSet<u64, BuildHasherDefault<FoldHasher>>;

/// The hasher behind [`U64Map`] and `U64Set`; use it through them.
///
/// The table takes its bucket from the low bits of a hash and its control
/// byte from the top seven, so both halves of the product must depend on
/// every key bit: the high half carries the low key bits upward, the low
/// half the other way, and the fold xors them.
#[derive(Debug, Clone, Copy, Default)]
pub struct FoldHasher(u64);

/// An odd multiplier with no pattern in its bits: 2^64 over the golden
/// ratio.
const MULTIPLIER: u64 = 0x9E37_79B9_7F4A_7C15;

impl Hasher for FoldHasher {
    fn write_u64(&mut self, key: u64) {
        let product = u128::from(self.0 ^ key) * u128::from(MULTIPLIER);
        self.0 = product as u64 ^ (product >> 64) as u64;
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("U64Map and U64Set fix the key type: only write_u64 is reached");
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    fn hash(key: u64) -> u64 {
        BuildHasherDefault::<FoldHasher>::default().hash_one(key)
    }

    #[test]
    fn map_and_set_behave_like_their_std_counterparts() {
        let mut map = U64Map::default();
        let mut set = U64Set::default();
        for key in (0..4096u64).map(|i| i * i) {
            assert_eq!(map.insert(key, key + 1), None);
            assert!(set.insert(key));
        }
        assert_eq!(map.len(), 4096);
        assert_eq!(map.get(&(63 * 63)), Some(&(63 * 63 + 1)));
        assert_eq!(map.remove(&9), Some(10));
        assert!(!map.contains_key(&9) && !set.contains(&3));
        assert!(set.contains(&0) && set.remove(&0) && !set.contains(&0));
    }

    #[test]
    fn dense_and_strided_keys_spread_over_both_ends_of_the_hash() {
        // The keys the program makes are dense (node ids, flight ids) or
        // strided by a power of two (subtree roots, block groups). Neither
        // may pile up in the table's bucket bits (low) or control bits
        // (top seven): at 4096 keys over 128 bins the mean is 32.
        for stride in [1u64, 32, 1 << 20] {
            let (mut low, mut top) = ([0u32; 128], [0u32; 128]);
            for i in 0..4096u64 {
                let h = hash(i * stride);
                low[(h & 127) as usize] += 1;
                top[(h >> 57) as usize] += 1;
            }
            for bins in [low, top] {
                let (min, max) = (bins.iter().min().unwrap(), bins.iter().max().unwrap());
                assert!(*min >= 8 && *max <= 72, "stride {stride}: {min}..{max}");
            }
        }
    }
}
