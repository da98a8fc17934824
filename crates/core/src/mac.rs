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
//! A fully resident bucket owns a slot of its own, so its set never fills
//! and never picks a victim: the only thing a lookup there asks is whether
//! the bucket has been written yet. The whole levels are therefore a
//! presence bitset, one bit per slot, with no tag, state or use tick. Sets
//! of lines exist only for the folded level: a flat slab of
//! `partial_sets * ways` lines (the sets from `partial_base` on), a set a
//! fixed-size way slice into it. A folded lookup or insert touches exactly
//! one such slice (≤ `ways` entries, typically 4), and only those calls
//! advance the LRU tick — no per-set heap allocation, no unbounded scans
//! on the per-access hot path.
//!
//! The cacheable window is clamped to the tree's leaf level when the tree
//! depth is known (`*_for_tree` constructors): a large cache on a shallow
//! tree must not dedicate sets to levels that do not exist, or `m2`
//! over-reports coverage and phantom-level buckets would absorb writes.

use fp_path_oram::cache::{BucketCache, WriteOutcome};
use fp_path_oram::path::node_level;

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

/// One cached bucket line of the folded level. `node == 0` marks an empty
/// way (real node ids are 1-based heap indices).
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

/// Where a bucket lives in the cache.
#[derive(Debug)]
enum Place {
    /// Outside the window `m1..=deepest_level`: written through.
    Bypass,
    /// A fully resident level: the bucket's own presence bit.
    Whole(usize),
    /// The folded level: the set (counted from `partial_base`) it shares.
    Folded(usize),
}

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
    /// Whole-level presence: slot `s` is bit `s % 64` of word `s / 64`.
    present: Vec<u64>,
    /// Folded-level slab: set `s` occupies `lines[s * ways..(s + 1) * ways]`.
    lines: Vec<Line>,
    ways: usize,
    /// First node of level `m1`. The node ids of the whole levels run on
    /// from it in slot order, so bucket `first + s` owns slot `s`.
    first: u64,
    /// First node of the folded level `m2 + 1`.
    folded: u64,
    /// One past the last cacheable node.
    end: u64,
    /// Sets available to the folded partial level `m2 + 1` (0 = none).
    partial_sets: u64,
    /// LRU clock of the folded level, advanced by its calls only.
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
        // The first node of a level, or u64::MAX for a level no node has.
        let level_start = |level: u32| 1u64.checked_shl(level).unwrap_or(u64::MAX);
        let folded = level_start(m1 + full_levels);
        Self {
            present: vec![0; used_slots.div_ceil(64) as usize],
            lines: vec![EMPTY; partial_sets as usize * ways],
            ways,
            first: level_start(m1),
            folded,
            end: if partial_sets > 0 {
                folded.saturating_mul(2)
            } else {
                folded
            },
            partial_sets,
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
        node_level(self.first)
    }

    /// Deepest fully resident level (`m1 - 1` when the cache is too small
    /// to hold any whole level).
    #[cfg(test)]
    pub(crate) fn m2(&self) -> u32 {
        node_level(self.folded - 1)
    }

    /// Deepest cacheable level (the folded partial level, if it exists).
    pub fn deepest_level(&self) -> u32 {
        node_level(self.end - 1)
    }

    /// Whether the cache ever holds bucket `node`: its level is in the
    /// window `m1..=deepest_level`. Every other bucket writes through.
    pub fn cacheable(&self, node: u64) -> bool {
        (self.first..self.end).contains(&node)
    }

    /// Where bucket `node` lives: at a whole level its own slot
    /// `(1 << x) - (1 << m1) + y`, at the folded level the set
    /// `y mod partial_sets`. Levels are contiguous runs of node ids, so
    /// both are offsets from a level's first node.
    fn place(&self, node: u64) -> Place {
        if !self.cacheable(node) {
            Place::Bypass
        } else if node < self.folded {
            Place::Whole((node - self.first) as usize)
        } else {
            Place::Folded(((node - self.folded) % self.partial_sets) as usize)
        }
    }

    /// The fixed-size way slice of folded set `set`.
    fn set_lines(&mut self, set: usize) -> &mut [Line] {
        &mut self.lines[set * self.ways..(set + 1) * self.ways]
    }
}

impl BucketCache for MergingAwareCache {
    // Allocation-free once warm: tests/hot_path_alloc.rs.
    fn lookup_for_read(&mut self, node: u64) -> bool {
        let set = match self.place(node) {
            Place::Bypass => return false,
            Place::Whole(slot) => return self.present[slot / 64] & (1 << (slot % 64)) != 0,
            Place::Folded(set) => set,
        };
        self.tick += 1;
        let tick = self.tick;
        let lines = self.set_lines(set);
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
        let set = match self.place(node) {
            Place::Bypass => return WriteOutcome::WriteThrough,
            Place::Whole(slot) => {
                // A whole-level bucket never leaves: its first write makes
                // it resident for good.
                let (word, bit) = (&mut self.present[slot / 64], 1 << (slot % 64));
                self.resident += usize::from(*word & bit == 0);
                *word |= bit;
                return WriteOutcome::Cached;
            }
            Place::Folded(set) => set,
        };
        self.tick += 1;
        let tick = self.tick;
        let lines = self.set_lines(set);
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
        let fresh = Line {
            node,
            last_use: tick,
            state: LineState::Dirty,
        };
        if let Some(i) = empty {
            lines[i] = fresh;
            self.resident += 1;
            return WriteOutcome::Cached;
        }
        let old = std::mem::replace(&mut lines[victim], fresh);
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
        let mut slots = Vec::new();
        for level in 7..=12u32 {
            for y in 0..(1u64 << level) {
                match mac.place(node_at(level, y)) {
                    Place::Whole(slot) => slots.push(slot),
                    other => panic!("level {level} y {y}: {other:?}"),
                }
            }
        }
        // One slot per bucket, numbered densely: the bitset holds them all.
        slots.sort_unstable();
        assert!(slots.iter().copied().eq(0..slots.len()));
        assert_eq!(mac.present.len(), slots.len().div_ceil(64));
    }

    /// The slab holds the folded level's sets only; whole-level reads and
    /// writes touch no line and do not advance the LRU tick.
    #[test]
    fn whole_levels_touch_no_line() {
        let mut mac = MergingAwareCache::with_capacity_bytes(1 << 20, 256, 4, 7);
        assert_eq!(mac.lines.len(), mac.partial_sets as usize * mac.ways);
        assert_eq!(mac.partial_sets, 32);
        for level in 7..=mac.m2() {
            for y in 0..(1u64 << level) {
                assert!(!mac.lookup_for_read(node_at(level, y)));
                assert_eq!(mac.insert_on_write(node_at(level, y)), WriteOutcome::Cached);
                assert!(mac.lookup_for_read(node_at(level, y)));
            }
        }
        assert_eq!(mac.resident(), (1 << 13) - (1 << 7));
        assert_eq!(mac.tick, 0);
        assert!(mac.lines.iter().all(|l| l.node == 0), "no line filled");
    }

    /// Whole-level traffic between two folded-level writes does not change
    /// which line the second write evicts: the LRU order of a folded set
    /// is the order of the folded level's own calls.
    #[test]
    fn whole_level_traffic_leaves_the_folded_victims_alone() {
        let run = |whole_traffic: bool| {
            // 1 MiB at m1 = 7: levels 7..=12 whole, level 13 on 32 sets.
            let mut mac = MergingAwareCache::with_capacity_bytes(1 << 20, 256, 4, 7);
            let sets = mac.partial_sets;
            // Every one of these shares folded set 0.
            let folded = |i: u64| node_at(13, i * sets);
            let mut outcomes = Vec::new();
            for (k, i) in [0, 1, 2, 3, 1, 4, 5, 6].into_iter().enumerate() {
                if whole_traffic {
                    let whole = node_at(7 + k as u32 % 6, k as u64 * 3);
                    mac.insert_on_write(whole);
                    mac.lookup_for_read(whole);
                }
                outcomes.push(mac.insert_on_write(folded(i)));
            }
            let evicted: Vec<WriteOutcome> = [0, 2, 3]
                .map(|i| WriteOutcome::CachedEvicting { victim: folded(i) })
                .into();
            assert_eq!(outcomes[5..], evicted[..], "least recently used first");
            outcomes
        };
        assert_eq!(run(true), run(false));
    }

    /// The benchmark's cache (`fork+mac`: 256 KiB, 4-way, 256 B buckets,
    /// leaf level 15) holds levels 3..=10 whole and folds level 11's 2048
    /// buckets onto 2 sets, 8 lines in all.
    #[test]
    fn the_benchmark_cache_folds_level_11_onto_two_sets() {
        let crate::engine::Scheme::Fork(fork) = crate::engine::fork_with_mac(256 << 10) else {
            unreachable!("fork_with_mac builds a fork scheme");
        };
        assert_eq!(fork.derived_mac_bypass(), 3);
        let mac = MergingAwareCache::with_capacity_bytes_for_tree(256 << 10, 256, 4, 3, 15);
        assert_eq!((mac.m1(), mac.m2(), mac.deepest_level()), (3, 10, 11));
        assert_eq!(mac.partial_sets, 2);
        assert_eq!(mac.lines.len(), 8);
        assert_eq!(mac.present.len(), ((1 << 11) - (1 << 3)) / 64 + 1);
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
