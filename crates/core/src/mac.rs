//! The merging-aware cache (§3.5, Fig 8, Eq. 1).
//!
//! Treetop caching pins the top of the tree, which every path touches. After
//! path merging those levels are almost never fetched — the first
//! `len_overlap` levels stay in the stash between consecutive requests — so
//! a treetop cache of the same size mostly holds useless data. The
//! merging-aware cache (MAC) instead *bypasses* levels `0..m1`
//! (`m1 = len_overlap + 1`) and dedicates its capacity to levels
//! `m1..=m2`, as many whole levels as it holds — this is what lets a
//! 256 KiB MAC match a 1 MiB treetop cache (Fig 13): the capacity covers
//! exactly the levels that merging still fetches.
//!
//! Those levels are on chip from the start and never evicted, like the
//! treetop's, so the MAC is one [`CacheRange`]. What capacity is left
//! over holds no part of level `m2 + 1`: folded onto the leftover lines,
//! that level hit on well under 1 % of its reads and evicted a dirty
//! bucket of an earlier path on nearly every write (DESIGN.md §7 item 4).
//!
//! The range is clamped to the tree's leaf level: a large cache on a
//! shallow tree must not claim levels that do not exist.

use fp_path_oram::cache::CacheRange;

/// The paper's merging-aware cache: the levels `m1..=m2` a byte budget
/// holds, on chip.
///
/// # Example
///
/// ```
/// use fp_core::MergingAwareCache;
/// use fp_path_oram::cache::CacheRange;
///
/// // 1 MiB of 256 B buckets, bypassing the top 7 levels of a tree whose
/// // leaves sit at level 24: levels 7..=12 on chip.
/// let mac = MergingAwareCache::range(1 << 20, 256, 7, 24);
/// assert_eq!(mac, CacheRange::levels(7..13));
/// // The root bypasses the cache entirely.
/// assert!(!mac.holds(1));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct MergingAwareCache;

impl MergingAwareCache {
    /// The levels from `m1` down that `bytes` of SRAM holds whole, for a
    /// tree of `bucket_bytes` buckets whose deepest level is `leaf_level`
    /// (Fig 13 sweeps 128 KiB – 1 MiB). Empty if not even level `m1` fits.
    ///
    /// Unlike the treetop cache, the MAC stores only *real* blocks (Fig 9:
    /// each line holds a decrypted data block plus its program address and
    /// label; dummies are regenerated at write-back). At the paper's 50 %
    /// tree utilization a bucket averages `Z/2` real blocks, so a byte of
    /// MAC covers twice the tree footprint a byte of treetop cache does —
    /// this density is what lets a ~256 KiB MAC match a 1 MiB treetop cache
    /// (Fig 13). Tag/metadata SRAM is excluded from the capacity figure, as
    /// in conventional cache sizing.
    pub fn range(bytes: u64, bucket_bytes: u64, m1: u32, leaf_level: u32) -> CacheRange {
        assert!(m1 >= 1, "the root is always shared; m1 must be at least 1");
        let buckets = (bytes / (bucket_bytes / 2).max(1)).max(1);
        // Levels m1..end hold 2^end - 2^m1 buckets: the deepest end that
        // fits, without passing the leaf level.
        let mut end = m1;
        while end <= leaf_level && (1u128 << (end + 1)) - (1u128 << m1) <= u128::from(buckets) {
            end += 1;
        }
        CacheRange::levels(m1..end)
    }

    /// [`MergingAwareCache::range`] with an associativity, which sizes
    /// nothing: the benchmark's microbenchmark (`benchmark/src/layers.rs`)
    /// passes one.
    pub fn with_capacity_bytes_for_tree(
        bytes: u64,
        bucket_bytes: u64,
        _ways: usize,
        m1: u32,
        leaf_level: u32,
    ) -> CacheRange {
        Self::range(bytes, bucket_bytes, m1, leaf_level)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Unbounded tree depth.
    const DEEP: u32 = u32::MAX;

    #[test]
    fn m2_scales_with_capacity() {
        // Block-granular density (2x): 1 MiB -> levels 7..=12;
        // 256 KiB -> 7..=10; 128 KiB -> 7..=9.
        let range = |bytes| MergingAwareCache::range(bytes, 256, 7, DEEP);
        assert_eq!(range(1 << 20), CacheRange::levels(7..13));
        assert_eq!(range(256 << 10), CacheRange::levels(7..11));
        assert_eq!(range(128 << 10), CacheRange::levels(7..10));
    }

    #[test]
    fn levels_above_m1_bypass() {
        let mac = MergingAwareCache::range(1 << 20, 256, 7, DEEP);
        assert!((1..1 << 7).all(|node| !mac.holds(node)));
        assert!(mac.holds(1 << 7));
        assert!(!mac.holds(1 << 13), "level 13 writes through");
    }

    /// The benchmark's cache (`fork+mac`: 256 KiB, 256 B buckets, leaf
    /// level 15) holds levels 3..=10; level 11, which the set-associative
    /// cache folded onto eight lines, writes through.
    #[test]
    fn the_benchmark_cache_is_levels_3_to_10() {
        let crate::engine::Scheme::Fork(fork) = crate::engine::fork_with_mac(256 << 10) else {
            unreachable!("fork_with_mac builds a fork scheme");
        };
        assert_eq!(fork.derived_mac_bypass(), 3);
        let mac = MergingAwareCache::range(256 << 10, 256, 3, 15);
        assert_eq!(mac, CacheRange::levels(3..11));
        assert_eq!(
            MergingAwareCache::with_capacity_bytes_for_tree(256 << 10, 256, 4, 3, 15),
            mac,
            "ways sizes nothing"
        );
    }

    #[test]
    fn the_range_stops_at_the_leaf_level() {
        // A 1 MiB MAC on a 10-level tree (leaf level 9): unclamped sizing
        // would claim levels 7..=12, three of which do not exist.
        let mac = MergingAwareCache::range(1 << 20, 256, 7, 9);
        assert_eq!(mac, CacheRange::levels(7..10));
        assert!(!mac.holds(1 << 10), "no node past the leaf is on chip");
    }

    #[test]
    fn a_cache_smaller_than_level_m1_or_m1_past_the_leaf_holds_nothing() {
        // Level 5 alone is 32 buckets; 31 fit.
        assert!(!MergingAwareCache::range(31 * 128, 256, 5, DEEP).holds(1 << 5));
        assert!(MergingAwareCache::range(32 * 128, 256, 5, DEEP).holds(1 << 5));
        let past = MergingAwareCache::range(1 << 20, 256, 5, 3);
        assert!((1..1 << 6).all(|node| !past.holds(node)));
    }
}
