//! On-chip bucket caching for ORAM controllers.
//!
//! The ORAM controller can dedicate on-chip SRAM to tree buckets so that
//! part of a path access never reaches DRAM. The prior art is *treetop
//! caching* (Phantom \[13\]): pin the top levels of the tree, which are
//! touched by every path. `fp-core` adds the paper's *merging-aware cache*
//! on the same interface.
//!
//! Caches here track *which buckets* are resident — deciding whether DRAM
//! timing/energy is charged. The contents live in the tree store either
//! way, which marks a bucket the cache holds as on chip: in the clear,
//! like the stash, and never in untrusted memory until the cache evicts it
//! ([`WriteOutcome::CachedEvicting`]) and the store seals it there when
//! the refill ends.

use crate::path::node_level;

/// What happened to a bucket write issued to the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteOutcome {
    /// The bucket was absorbed by the cache; no DRAM write now.
    Cached,
    /// The bucket is not cacheable; write it to DRAM.
    WriteThrough,
    /// The bucket was absorbed, but evicted `victim` — the victim's DRAM
    /// write happens now.
    CachedEvicting {
        /// Node id of the evicted bucket.
        victim: u64,
    },
}

/// A bucket-granular on-chip cache policy.
pub trait BucketCache: std::fmt::Debug {
    /// Read-phase lookup for bucket `node`. On a hit the bucket's contents
    /// move to the stash, so a hit also removes the entry.
    fn lookup_for_read(&mut self, node: u64) -> bool;

    /// Refill-phase insertion of bucket `node`.
    fn insert_on_write(&mut self, node: u64) -> WriteOutcome;

    /// Buckets currently resident (for stats/tests).
    fn resident(&self) -> usize;
}

/// No on-chip caching: every bucket access goes to DRAM.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoCache;

impl BucketCache for NoCache {
    fn lookup_for_read(&mut self, _node: u64) -> bool {
        false
    }

    fn insert_on_write(&mut self, _node: u64) -> WriteOutcome {
        WriteOutcome::WriteThrough
    }

    fn resident(&self) -> usize {
        0
    }
}

/// Treetop caching (Phantom \[13\]): the top `cached_levels` of the tree are
/// pinned on chip. A bucket at level `< cached_levels` always hits; deeper
/// buckets always go to DRAM.
///
/// # Example
///
/// ```
/// use fp_path_oram::cache::{BucketCache, TreetopCache};
/// // 1 MiB of 256 B buckets pins levels 0..=11 (4095 buckets).
/// let mut cache = TreetopCache::with_capacity_bytes(1 << 20, 256);
/// assert!(cache.lookup_for_read(1), "root is always resident");
/// assert!(cache.lookup_for_read(1 << 11), "level 11 is resident");
/// assert!(!cache.lookup_for_read(1 << 12), "level 12 is not");
/// ```
#[derive(Debug, Clone)]
pub struct TreetopCache {
    cached_levels: u32,
}

impl TreetopCache {
    /// Pins the top `cached_levels` levels.
    #[cfg(test)]
    pub(crate) fn new(cached_levels: u32) -> Self {
        Self { cached_levels }
    }

    /// Sizes the cache from a byte budget: pins as many whole levels as fit.
    pub fn with_capacity_bytes(capacity_bytes: u64, bucket_bytes: u64) -> Self {
        let buckets = capacity_bytes / bucket_bytes;
        // Levels 0..k hold 2^(k+1) - 1 buckets.
        let mut levels = 0u32;
        while (1u64 << (levels + 1)) - 1 <= buckets {
            levels += 1;
        }
        Self {
            cached_levels: levels,
        }
    }

    fn covers(&self, node: u64) -> bool {
        node_level(node) < self.cached_levels
    }
}

impl BucketCache for TreetopCache {
    fn lookup_for_read(&mut self, node: u64) -> bool {
        // Pinned levels never leave the cache, so a read hit does not evict.
        self.covers(node)
    }

    fn insert_on_write(&mut self, node: u64) -> WriteOutcome {
        if self.covers(node) {
            WriteOutcome::Cached
        } else {
            WriteOutcome::WriteThrough
        }
    }

    fn resident(&self) -> usize {
        ((1u64 << self.cached_levels) - 1) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_cache_always_misses() {
        let mut c = NoCache;
        assert!(!c.lookup_for_read(1));
        assert_eq!(c.insert_on_write(1), WriteOutcome::WriteThrough);
        assert_eq!(c.resident(), 0);
    }

    #[test]
    fn treetop_capacity_sizing() {
        // 1 MiB / 256 B = 4096 buckets -> levels 0..=11 (4095 buckets).
        let c = TreetopCache::with_capacity_bytes(1 << 20, 256);
        assert_eq!(c.cached_levels, 12);
        // 128 KiB / 256 B = 512 buckets -> 9 levels (511 buckets).
        let c = TreetopCache::with_capacity_bytes(128 << 10, 256);
        assert_eq!(c.cached_levels, 9);
    }

    #[test]
    fn treetop_covers_only_top_levels() {
        let mut c = TreetopCache::new(2);
        assert!(c.lookup_for_read(1)); // level 0
        assert!(c.lookup_for_read(3)); // level 1
        assert!(!c.lookup_for_read(4)); // level 2
        assert_eq!(c.insert_on_write(2), WriteOutcome::Cached);
        assert_eq!(c.insert_on_write(5), WriteOutcome::WriteThrough);
        assert_eq!(c.resident(), 3);
    }
}
