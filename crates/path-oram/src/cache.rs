//! The on-chip bucket cache of an ORAM controller.
//!
//! The ORAM controller can dedicate on-chip SRAM to tree buckets so that
//! part of a path access never reaches DRAM. The prior art is *treetop
//! caching* (Phantom \[13\]): pin the top levels of the tree, which are
//! touched by every path. `fp-core` adds the paper's *merging-aware cache*,
//! which pins the levels path merging still fetches instead. Both are a
//! run of whole levels, and a level's node ids are contiguous, so both are
//! one [`CacheRange`] of node ids; no cache at all is the empty range.
//!
//! The range decides whether DRAM timing and energy are charged. The
//! contents live in the tree store either way, which keeps a bucket of the
//! range on chip: in the clear, like the stash, and never in untrusted
//! memory.

use std::ops::Range;

/// The on-chip bucket cache: the buckets whose node ids fall in one range,
/// a run of whole levels, on chip from the start. A read of one of them
/// hits and a write of one stays on chip; every other bucket is read from
/// and written to DRAM. Nothing is ever evicted.
///
/// # Example
///
/// ```
/// use fp_path_oram::cache::CacheRange;
/// // 1 MiB of 256 B buckets pins levels 0..=11 (4095 buckets).
/// let cache = CacheRange::treetop(1 << 20, 256);
/// assert!(cache.holds(1), "the root is on chip");
/// assert!(cache.holds(1 << 11), "level 11 is on chip");
/// assert!(!cache.holds(1 << 12), "level 12 is not");
/// assert!(!CacheRange::NONE.holds(1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheRange {
    /// First node id on chip.
    first: u64,
    /// One past the last node id on chip.
    end: u64,
}

impl CacheRange {
    /// No on-chip caching: every bucket access goes to DRAM.
    pub const NONE: Self = Self { first: 0, end: 0 };

    /// The whole levels `levels` (level 0 is the root): node ids
    /// `2^start..2^end`. A level past 63 has no node id and adds none.
    pub fn levels(levels: Range<u32>) -> Self {
        let level_start = |level: u32| 1u64.checked_shl(level).unwrap_or(u64::MAX);
        Self {
            first: level_start(levels.start),
            end: level_start(levels.end.max(levels.start)),
        }
    }

    /// Treetop caching (Phantom \[13\]): as many whole levels from the root
    /// as `capacity_bytes` holds of `bucket_bytes` buckets.
    pub fn treetop(capacity_bytes: u64, bucket_bytes: u64) -> Self {
        let buckets = capacity_bytes / bucket_bytes;
        // Levels 0..k hold 2^k - 1 buckets.
        let mut levels = 0u32;
        while (1u64 << (levels + 1)) - 1 <= buckets {
            levels += 1;
        }
        Self::levels(0..levels)
    }

    /// Whether bucket `node` is on chip.
    #[inline]
    pub fn holds(&self, node: u64) -> bool {
        (self.first..self.end).contains(&node)
    }
}

/// The cache's two questions, one per phase of an access. [`CacheRange`]
/// is its one implementor; the datapath asks [`CacheRange::holds`] and the
/// benchmark's microbenchmark (`benchmark/src/layers.rs`) calls these.
pub trait BucketCache {
    /// Read-phase lookup of bucket `node`: whether it is on chip.
    fn lookup_for_read(&mut self, node: u64) -> bool;

    /// Refill-phase write of bucket `node`: whether it stays on chip
    /// rather than going to DRAM.
    fn insert_on_write(&mut self, node: u64) -> bool;
}

impl BucketCache for CacheRange {
    fn lookup_for_read(&mut self, node: u64) -> bool {
        self.holds(node)
    }

    fn insert_on_write(&mut self, node: u64) -> bool {
        self.holds(node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_cache_holds_nothing() {
        assert!(!CacheRange::NONE.holds(0));
        assert!(!CacheRange::NONE.holds(1));
        assert_eq!(CacheRange::default(), CacheRange::NONE);
        assert!(!CacheRange::levels(3..3).holds(8));
    }

    #[test]
    fn treetop_capacity_sizing() {
        // 1 MiB / 256 B = 4096 buckets -> levels 0..=11 (4095 buckets).
        assert_eq!(CacheRange::treetop(1 << 20, 256), CacheRange::levels(0..12));
        // 128 KiB / 256 B = 512 buckets -> 9 levels (511 buckets).
        assert_eq!(
            CacheRange::treetop(128 << 10, 256),
            CacheRange::levels(0..9)
        );
    }

    #[test]
    fn a_range_is_its_whole_levels() {
        let mut c = CacheRange::levels(2..4);
        for node in 1..64u64 {
            let level = crate::path::node_level(node);
            let on_chip = (2..4).contains(&level);
            assert_eq!(c.holds(node), on_chip, "node {node}");
            assert_eq!(c.lookup_for_read(node), on_chip, "node {node}");
            assert_eq!(c.insert_on_write(node), on_chip, "node {node}");
        }
        // Past level 63 there is no node id to hold.
        assert!(!CacheRange::levels(70..80).holds(u64::MAX - 1));
        assert!(CacheRange::levels(63..80).holds(1 << 63));
    }
}
