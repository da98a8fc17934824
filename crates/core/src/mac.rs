//! The merging-aware cache (§3.5, Fig 8, Eq. 1).
//!
//! Treetop caching pins the top of the tree, which every path touches. After
//! path merging those levels are almost never fetched — the first
//! `len_overlap` levels stay in the stash between consecutive requests — so
//! a treetop cache of the same size mostly holds useless data. The
//! merging-aware cache (MAC) instead *bypasses* levels `0..m1`
//! (`m1 = len_overlap + 1`) and dedicates its capacity to levels
//! `m1..=m2`, organized as a set-associative cache of decrypted buckets
//! awaiting write-back.
//!
//! Set indexing follows the intent of the paper's Eq. (1): each cached level
//! owns a contiguous region of sets, allocated in level order starting at
//! `m1`. Levels whose full bucket population fits are *fully resident*
//! (`m1..=m2`) — this is what lets a 256 KiB MAC match a 1 MiB treetop cache
//! (Fig 13): the capacity covers exactly the levels that merging still
//! fetches. One further level folds into the leftover sets by
//! `y mod region`, with LRU replacement inside each set.
//!
//! Storage is a single flat slab of `num_sets * ways` lines; a set is a
//! fixed-size way slice into it. Lookup and insert touch exactly one such
//! slice (≤ `ways` entries, typically 4) — no per-set heap allocation, no
//! unbounded scans on the per-access hot path.
//!
//! The cacheable window is clamped to the tree's leaf level when the tree
//! depth is known (`*_for_tree` constructors): a large cache on a shallow
//! tree must not dedicate sets to levels that do not exist, or `m2`
//! over-reports coverage and phantom-level buckets would absorb writes.

use fp_path_oram::cache::{BucketCache, WriteOutcome};
use fp_path_oram::path::{index_in_level, node_level};

/// State of a cached bucket line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LineState {
    /// Holds decrypted blocks awaiting write-back to DRAM.
    Dirty,
    /// The bucket's content was promoted to the stash on a read hit; the
    /// tag remains so later reads of the (consumed) bucket skip DRAM.
    /// Dropped silently on eviction — there is nothing to write back.
    Placeholder,
}

/// One cached bucket line. `node == 0` marks an empty way (real node ids
/// are 1-based heap indices).
#[derive(Debug, Clone, Copy)]
struct Line {
    node: u64,
    last_use: u64,
    state: LineState,
}

const EMPTY: Line = Line {
    node: 0,
    last_use: 0,
    state: LineState::Placeholder,
};

/// The paper's merging-aware, set-associative bucket cache.
///
/// # Example
///
/// ```
/// use fp_core::MergingAwareCache;
/// use fp_path_oram::cache::BucketCache;
///
/// // 1 MiB of 256 B buckets, 4-way, bypassing the top 7 levels of a tree
/// // whose leaves sit at level 24.
/// let mut mac = MergingAwareCache::with_capacity_bytes_for_tree(1 << 20, 256, 4, 7, 24);
/// // A root write bypasses the cache entirely.
/// assert!(!mac.lookup_for_read(1));
/// ```
#[derive(Debug, Clone)]
pub struct MergingAwareCache {
    /// Flat slab: set `s` occupies `lines[s * ways..(s + 1) * ways]`.
    lines: Vec<Line>,
    ways: usize,
    m1: u32,
    /// Number of fully resident levels starting at `m1` (may be zero).
    full_levels: u32,
    /// Sets available to the folded partial level `m2 + 1` (0 = none).
    partial_sets: u64,
    /// First set of the partial region.
    partial_base: u64,
    tick: u64,
    resident: usize,
}

impl MergingAwareCache {
    /// Creates a MAC with `num_sets` sets of `ways` buckets, caching levels
    /// `m1..=m2` fully (as many whole levels as fit) plus one folded level.
    /// The window is not clamped to any tree depth; prefer
    /// [`MergingAwareCache::new_for_tree`] when the depth is known.
    ///
    /// # Panics
    ///
    /// Panics if `num_sets` or `ways` is zero.
    pub fn new(num_sets: usize, ways: usize, m1: u32) -> Self {
        Self::new_for_tree(num_sets, ways, m1, u32::MAX)
    }

    /// Like [`MergingAwareCache::new`], clamping the cacheable window to
    /// `leaf_level` (the tree's deepest level): levels past the leaf do not
    /// exist, so neither whole-level regions nor the folded partial level
    /// may extend beyond it.
    ///
    /// # Panics
    ///
    /// Panics if `num_sets` or `ways` is zero.
    pub fn new_for_tree(num_sets: usize, ways: usize, m1: u32, leaf_level: u32) -> Self {
        assert!(num_sets > 0, "need at least one set");
        assert!(ways > 0, "need at least one way");
        assert!(m1 >= 1, "the root is always shared; m1 must be at least 1");
        let slots = (num_sets * ways) as u64;
        // Levels m1..=(m1 + k - 1) fully resident need 2^(m1+k) - 2^m1
        // bucket slots; find the largest k that fits (possibly zero for
        // tiny caches — then everything folds into one region), without
        // walking past the leaf level.
        let level_budget = leaf_level.saturating_sub(m1).saturating_add(1);
        let mut full_levels = 0u32;
        while full_levels < 40.min(level_budget)
            && (1u128 << (m1 + full_levels + 1)) - (1u128 << m1) <= slots as u128
        {
            full_levels += 1;
        }
        let used_slots = if full_levels == 0 {
            0
        } else {
            (1u64 << (m1 + full_levels)) - (1u64 << m1)
        };
        let partial_base = used_slots.div_ceil(ways as u64);
        // The folded level is m1 + full_levels; it only gets sets if it
        // exists in the tree.
        let partial_sets = if m1 + full_levels <= leaf_level {
            (num_sets as u64).saturating_sub(partial_base)
        } else {
            0
        };
        Self {
            lines: vec![EMPTY; num_sets * ways],
            ways,
            m1,
            full_levels,
            partial_sets,
            partial_base,
            tick: 0,
            resident: 0,
        }
    }

    /// Sizes the MAC from a byte budget (Fig 13 sweeps 128 KiB – 1 MiB)
    /// for a tree whose deepest level is `leaf_level`: levels past the leaf
    /// own no sets.
    ///
    /// Unlike the treetop cache, the MAC stores only *real* blocks (Fig 9:
    /// each line holds a decrypted data block plus its program address and
    /// label; dummies are regenerated at write-back). At the paper's 50 %
    /// tree utilization a bucket averages `Z/2` real blocks, so a byte of
    /// MAC covers twice the tree footprint a byte of treetop cache does —
    /// this density is what lets a ~256 KiB MAC match a 1 MiB treetop cache
    /// (Fig 13). Tag/metadata SRAM is excluded from the capacity figure, as
    /// in conventional cache sizing.
    pub fn with_capacity_bytes_for_tree(
        bytes: u64,
        bucket_bytes: u64,
        ways: usize,
        m1: u32,
        leaf_level: u32,
    ) -> Self {
        let effective_bucket_cost = (bucket_bytes / 2).max(1);
        let buckets = (bytes / effective_bucket_cost).max(1) as usize;
        let num_sets = (buckets / ways).max(1);
        Self::new_for_tree(num_sets, ways, m1, leaf_level)
    }

    /// [`MergingAwareCache::with_capacity_bytes_for_tree`] for a tree of
    /// unbounded depth.
    #[cfg(test)]
    pub(crate) fn with_capacity_bytes(bytes: u64, bucket_bytes: u64, ways: usize, m1: u32) -> Self {
        Self::with_capacity_bytes_for_tree(bytes, bucket_bytes, ways, m1, u32::MAX)
    }

    /// Shallowest cached level (`len_overlap + 1`).
    #[cfg(test)]
    pub(crate) fn m1(&self) -> u32 {
        self.m1
    }

    /// Deepest fully resident level (`m1 - 1` when the cache is too small
    /// to hold any whole level).
    #[cfg(test)]
    pub(crate) fn m2(&self) -> u32 {
        // Equals m1 - 1 when full_levels is 0 (guarded by m1 >= 1).
        self.m1 + self.full_levels - 1
    }

    /// Deepest cacheable level (the folded partial level, if it exists).
    pub fn deepest_level(&self) -> u32 {
        if self.partial_sets > 0 {
            self.m1 + self.full_levels
        } else {
            self.m1 + self.full_levels - 1
        }
    }

    /// Whether the cache ever holds bucket `node`: its level is in the
    /// window `m1..=deepest_level`. Every other bucket writes through.
    pub fn cacheable(&self, node: u64) -> bool {
        let level = node_level(node);
        (self.m1..=self.deepest_level()).contains(&level)
    }

    /// The set index for a cacheable bucket.
    fn set_index(&self, node: u64) -> usize {
        let x = node_level(node);
        debug_assert!((self.m1..=self.deepest_level()).contains(&x));
        let y = index_in_level(node);
        if self.full_levels > 0 && x < self.m1 + self.full_levels {
            // Fully resident region: one dedicated slot per bucket.
            let slot = (1u64 << x) - (1u64 << self.m1) + y;
            (slot / self.ways as u64) as usize
        } else {
            // Folded partial level.
            (self.partial_base + (y % self.partial_sets)) as usize
        }
    }

    /// The fixed-size way slice of the set holding `node`.
    fn set_lines(&mut self, node: u64) -> &mut [Line] {
        let set = self.set_index(node);
        &mut self.lines[set * self.ways..(set + 1) * self.ways]
    }
}

impl BucketCache for MergingAwareCache {
    // Allocation-free once warm: tests/hot_path_alloc.rs.
    fn lookup_for_read(&mut self, node: u64) -> bool {
        if !self.cacheable(node) {
            return false;
        }
        self.tick += 1;
        let tick = self.tick;
        let lines = self.set_lines(node);
        if let Some(line) = lines.iter_mut().find(|l| l.node == node) {
            // The bucket's blocks are promoted back to the stash (§4); the
            // tag stays as a placeholder so subsequent reads of the
            // consumed bucket also skip DRAM.
            line.state = LineState::Placeholder;
            line.last_use = tick;
            true
        } else {
            false
        }
    }

    // Allocation-free once warm: tests/hot_path_alloc.rs.
    fn insert_on_write(&mut self, node: u64) -> WriteOutcome {
        if !self.cacheable(node) {
            return WriteOutcome::WriteThrough;
        }
        self.tick += 1;
        let tick = self.tick;
        let lines = self.set_lines(node);
        // One pass over the fixed ways: find the matching line, the first
        // empty way, and the LRU victim (placeholders preferred).
        let mut empty: Option<usize> = None;
        let mut victim = 0usize;
        let mut victim_key = (true, u64::MAX);
        for (i, l) in lines.iter().enumerate() {
            if l.node == node {
                let line = &mut lines[i];
                line.last_use = tick;
                line.state = LineState::Dirty;
                return WriteOutcome::Cached;
            }
            if l.node == 0 {
                if empty.is_none() {
                    empty = Some(i);
                }
                continue;
            }
            let key = (l.state == LineState::Dirty, l.last_use);
            if key < victim_key {
                victim_key = key;
                victim = i;
            }
        }
        if let Some(i) = empty {
            lines[i] = Line {
                node,
                last_use: tick,
                state: LineState::Dirty,
            };
            self.resident += 1;
            return WriteOutcome::Cached;
        }
        let old = lines[victim];
        lines[victim] = Line {
            node,
            last_use: tick,
            state: LineState::Dirty,
        };
        match old.state {
            LineState::Dirty => WriteOutcome::CachedEvicting { victim: old.node },
            LineState::Placeholder => WriteOutcome::Cached,
        }
    }

    fn resident(&self) -> usize {
        self.resident
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node_at(level: u32, y: u64) -> u64 {
        (1u64 << level) + y
    }

    #[test]
    fn bypasses_levels_outside_window() {
        let mut mac = MergingAwareCache::new(64, 4, 3);
        // Level 0 (root) and level 1: bypass.
        assert_eq!(mac.insert_on_write(1), WriteOutcome::WriteThrough);
        assert_eq!(mac.insert_on_write(2), WriteOutcome::WriteThrough);
        // Level m1 caches.
        assert_eq!(mac.insert_on_write(node_at(3, 0)), WriteOutcome::Cached);
        // Deeper than the deepest cacheable level: bypass.
        let deep = node_at(mac.deepest_level() + 1, 0);
        assert_eq!(mac.insert_on_write(deep), WriteOutcome::WriteThrough);
    }

    #[test]
    fn read_hit_leaves_placeholder() {
        let mut mac = MergingAwareCache::new(64, 4, 2);
        let n = node_at(2, 1);
        mac.insert_on_write(n);
        assert_eq!(mac.resident(), 1);
        assert!(mac.lookup_for_read(n));
        // The content moved to the stash, but the tag persists: a later
        // read of the consumed bucket still skips DRAM.
        assert!(mac.lookup_for_read(n));
    }

    #[test]
    fn placeholder_eviction_is_silent() {
        let mut mac = MergingAwareCache::new(1, 1, 2);
        let a = node_at(2, 0);
        let b = node_at(2, 1);
        mac.insert_on_write(a);
        assert!(mac.lookup_for_read(a), "a becomes a placeholder");
        // b displaces the placeholder: no write-back.
        assert_eq!(mac.insert_on_write(b), WriteOutcome::Cached);
        // b is dirty; displacing it must report a victim.
        assert_eq!(
            mac.insert_on_write(a),
            WriteOutcome::CachedEvicting { victim: b }
        );
    }

    #[test]
    fn resident_levels_never_thrash() {
        // 1 MiB, m1 = 7: levels 7..=12 are fully resident — inserting every
        // bucket of those levels must never evict.
        let mut mac = MergingAwareCache::with_capacity_bytes(1 << 20, 256, 4, 7);
        for level in 7..=12u32 {
            for y in 0..(1u64 << level) {
                assert_eq!(
                    mac.insert_on_write(node_at(level, y)),
                    WriteOutcome::Cached,
                    "level {level} y {y}"
                );
            }
        }
        assert_eq!(mac.resident(), (1 << 13) - (1 << 7));
        // And every one of them hits on read.
        assert!(mac.lookup_for_read(node_at(9, 123)));
    }

    #[test]
    fn partial_level_folds_and_evicts() {
        let mut mac = MergingAwareCache::with_capacity_bytes(1 << 20, 256, 4, 7);
        let partial = mac.deepest_level();
        assert_eq!(partial, 13);
        // Insert more partial-level buckets than the leftover capacity
        // holds: eventually an eviction must occur, and the victim is a
        // partial-level bucket (resident levels are untouchable).
        let mut evicted = 0;
        for y in 0..(1u64 << 13) {
            if let WriteOutcome::CachedEvicting { victim } = mac.insert_on_write(node_at(13, y)) {
                assert_eq!(node_level(victim), 13);
                evicted += 1;
            }
        }
        assert!(evicted > 0, "folded level must overflow");
    }

    #[test]
    fn m2_scales_with_capacity() {
        // Block-granular density (2x): 1 MiB -> levels 7..=12;
        // 256 KiB -> 7..=10; 128 KiB -> 7..=9.
        assert_eq!(
            MergingAwareCache::with_capacity_bytes(1 << 20, 256, 4, 7).m2(),
            12
        );
        assert_eq!(
            MergingAwareCache::with_capacity_bytes(256 << 10, 256, 4, 7).m2(),
            10
        );
        assert_eq!(
            MergingAwareCache::with_capacity_bytes(128 << 10, 256, 4, 7).m2(),
            9
        );
    }

    #[test]
    fn lru_eviction_in_partial_region() {
        let mut mac = MergingAwareCache::new(2, 2, 2);
        // Tiny cache: level 2 fully resident? 2 sets * 2 ways = 4 slots;
        // level 2 has 4 buckets -> exactly resident, no partial level.
        assert_eq!(mac.m2(), 2);
        assert_eq!(mac.deepest_level(), 2);
        for y in 0..4 {
            assert_eq!(mac.insert_on_write(node_at(2, y)), WriteOutcome::Cached);
        }
        assert_eq!(mac.resident(), 4);
    }

    #[test]
    fn distinct_buckets_map_to_distinct_slots_in_resident_levels() {
        let mac = MergingAwareCache::with_capacity_bytes(1 << 20, 256, 4, 7);
        use std::collections::HashMap;
        let mut per_set: HashMap<usize, u32> = HashMap::new();
        for level in 7..=12u32 {
            for y in 0..(1u64 << level) {
                *per_set.entry(mac.set_index(node_at(level, y))).or_insert(0) += 1;
            }
        }
        assert!(
            per_set.values().all(|&c| c <= 4),
            "no set oversubscribed in resident levels"
        );
    }

    #[test]
    fn tree_clamp_stops_window_at_leaf_level() {
        // A 1 MiB MAC on a 10-level tree (leaf level 9): unclamped sizing
        // would claim levels 7..=12 resident plus a folded level 13 — four
        // levels that do not exist. The clamped window must end at 9.
        let mac = MergingAwareCache::with_capacity_bytes_for_tree(1 << 20, 256, 4, 7, 9);
        assert_eq!(mac.m1(), 7);
        assert_eq!(mac.m2(), 9, "resident levels stop at the leaf");
        assert_eq!(mac.deepest_level(), 9, "no phantom folded level");
        // A bucket past the leaf is rejected rather than absorbed.
        let mut mac = mac;
        assert_eq!(
            mac.insert_on_write(node_at(10, 0)),
            WriteOutcome::WriteThrough
        );
        // Every real cacheable level still fits fully.
        for level in 7..=9u32 {
            for y in 0..(1u64 << level) {
                assert_eq!(
                    mac.insert_on_write(node_at(level, y)),
                    WriteOutcome::Cached,
                    "level {level} y {y}"
                );
            }
        }
    }

    #[test]
    fn tree_clamp_drops_partial_level_past_leaf() {
        // 2 sets x 2 ways on a leaf-level-1 tree with m1 = 1: level 1 is
        // fully resident (2 buckets); the fold region must NOT claim the
        // nonexistent level 2 (unclamped code reports deepest_level 2).
        let mac = MergingAwareCache::new_for_tree(2, 2, 1, 1);
        assert_eq!(mac.m2(), 1);
        assert_eq!(mac.deepest_level(), 1);
        let unclamped = MergingAwareCache::new(2, 2, 1);
        assert_eq!(unclamped.deepest_level(), 2, "pre-fix behavior");
    }

    #[test]
    fn m1_beyond_leaf_caches_nothing() {
        let mut mac = MergingAwareCache::new_for_tree(8, 2, 5, 3);
        assert_eq!(
            mac.insert_on_write(node_at(5, 0)),
            WriteOutcome::WriteThrough
        );
        assert_eq!(
            mac.insert_on_write(node_at(3, 0)),
            WriteOutcome::WriteThrough
        );
        assert_eq!(mac.resident(), 0);
    }
}
