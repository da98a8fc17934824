//! The on-chip stash and its greedy deepest-first eviction stream.

use fp_trace::{EventKind, Tally, TraceHandle};

use crate::keyed::{U64Map, U64Set};
use crate::path::{divergence_level, overlap_degree};

/// One memory block as held inside the trusted boundary: unified program
/// address, current leaf label, and decrypted payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// Unified program address (data blocks and posmap blocks share one
    /// address space, Fig 2b).
    pub addr: u64,
    /// Leaf label the block is currently mapped to.
    pub leaf: u64,
    /// Decrypted payload.
    pub data: Vec<u8>,
}

impl Block {
    /// Creates a block.
    pub fn new(addr: u64, leaf: u64, data: Vec<u8>) -> Self {
        Self { addr, leaf, data }
    }
}

/// The trusted on-chip block buffer (§2.3).
///
/// Holds blocks between the read phase (path contents are decrypted into the
/// stash) and the write phase (blocks are greedily evicted back onto the
/// path). Lookup is by unified address.
///
/// # Example
///
/// ```
/// use fp_path_oram::{Block, Stash};
/// let mut stash = Stash::new(200);
/// stash.insert(Block::new(7, 3, vec![1, 2, 3]));
/// assert!(stash.contains(7));
/// assert_eq!(stash.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Stash {
    blocks: U64Map<Block>,
    /// Payload buffers of blocks that left for the tree, for the next
    /// blocks to arrive from it: a block's bytes move between an image and
    /// a payload, its buffer stays here ([`Stash::recycle`]).
    spare: Vec<Vec<u8>>,
    /// Addresses exempt from eviction (e.g. blocks held by a posmap
    /// lookaside buffer). Pinned blocks still count against occupancy.
    pinned: U64Set,
    capacity: usize,
    high_water: usize,
    /// Push/evict events, counted for the engine to publish.
    tally: Tally,
    /// The eviction stream ([`Stash::begin_eviction`]): `(deepest eligible
    /// level, addr)` of every block that was unpinned when it began,
    /// deepest first. A refill runs on every access, so the buffer is
    /// reused, never reallocated per stream.
    candidates: Vec<(u32, u64)>,
    /// First candidate the stream has not considered yet.
    cursor: usize,
    /// `(levels, leaf)` of the path the stream evicts onto.
    stream_path: (u32, u64),
    /// The blocks [`Stash::evict_next`] chose for one bucket, while the
    /// tree store writes them; empty between calls, its room kept.
    chosen: Vec<Block>,
}

impl Stash {
    /// Creates a stash with the given nominal capacity (blocks). The
    /// capacity is advisory — Path ORAM proves overflow is negligible for
    /// C >= 200 at Z = 4 — and is used for the overflow watermark.
    pub fn new(capacity: usize) -> Self {
        Self::with_trace(capacity, TraceHandle::default())
    }

    /// [`Stash::new`] counting its push/evict events for `trace`. Event
    /// timestamps are phase-granular: the controller stamps the spine's
    /// clock (`TraceHandle::set_now`) at the start of each access phase.
    /// A constructor of its own because the benchmark builds a stash bare.
    pub(crate) fn with_trace(capacity: usize, trace: TraceHandle) -> Self {
        Self {
            blocks: U64Map::default(),
            spare: Vec::new(),
            pinned: U64Set::default(),
            capacity,
            high_water: 0,
            tally: Tally::new(trace),
            candidates: Vec::new(),
            cursor: 0,
            stream_path: (0, 0),
            chosen: Vec::new(),
        }
    }

    /// The stash's counts, for [`crate::Datapath::counters`].
    pub(crate) fn tally(&self) -> &Tally {
        &self.tally
    }

    /// The stash's counts, for [`crate::Datapath::publish`].
    pub(crate) fn tally_mut(&mut self) -> &mut Tally {
        &mut self.tally
    }

    /// Number of blocks currently held.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the stash is empty.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Largest occupancy ever observed.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Whether occupancy exceeds the nominal capacity (a trigger for
    /// background eviction in the baseline controller).
    pub fn over_capacity(&self) -> bool {
        self.blocks.len() > self.capacity
    }

    /// Whether a block with `addr` is present.
    pub fn contains(&self, addr: u64) -> bool {
        self.blocks.contains_key(&addr)
    }

    /// Mutably borrows the block at `addr`.
    pub(crate) fn get_mut(&mut self, addr: u64) -> Option<&mut Block> {
        self.blocks.get_mut(&addr)
    }

    /// Inserts (or replaces) a block. Only occupancy-increasing inserts
    /// count as stash pushes; replacing a resident block does not.
    pub fn insert(&mut self, block: Block) {
        let addr = block.addr;
        if self.blocks.insert(addr, block).is_none() {
            self.tally.record_now(EventKind::StashPush { addr });
        }
        self.high_water = self.high_water.max(self.blocks.len());
    }

    /// Inserts (or replaces) block `addr` with the payload `fill` writes
    /// into a spare buffer, emptied (allocated only when none is spare):
    /// how the read phase decodes a tree slot and a first touch
    /// materializes a block.
    pub(crate) fn insert_with(&mut self, addr: u64, leaf: u64, fill: impl FnOnce(&mut Vec<u8>)) {
        let mut data = self.spare.pop().unwrap_or_default();
        data.clear();
        fill(&mut data);
        self.insert(Block { addr, leaf, data });
    }

    /// Removes and returns the block at `addr`.
    #[cfg(test)]
    pub(crate) fn remove(&mut self, addr: u64) -> Option<Block> {
        let removed = self.blocks.remove(&addr);
        if removed.is_some() {
            self.tally.record_now(EventKind::StashEvict { addr });
        }
        removed
    }

    /// Keeps a payload buffer for the next block to arrive, as long as the
    /// stash's buffers number no more than its peak occupancy: the
    /// controllers never bring in more (a first touch takes a spare one),
    /// a caller inserting blocks of its own may.
    fn recycle(&mut self, data: Vec<u8>) {
        if self.spare.len() + self.blocks.len() < self.high_water {
            self.spare.push(data);
        }
    }

    /// Iterates over held blocks in unspecified order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &Block> {
        self.blocks.values()
    }

    /// Exempts `addr` from eviction until unpinned. The block need not be
    /// resident yet; the pin applies whenever it is.
    pub fn pin(&mut self, addr: u64) {
        self.pinned.insert(addr);
    }

    /// Removes an eviction exemption.
    pub(crate) fn unpin(&mut self, addr: u64) {
        self.pinned.remove(&addr);
    }

    /// Starts a greedy deepest-first eviction stream onto the path to
    /// `leaf`: every unpinned block becomes a candidate, keyed by the
    /// deepest level it may occupy and ordered once, deepest first, so
    /// blocks land as low as possible. [`Stash::evict_next`] then consumes
    /// the order bucket by bucket for as many levels as the refill commits.
    ///
    /// A block mapped to leaf `b` may live at level `d` of the path to
    /// `leaf` iff the two paths still coincide at depth `d`, i.e.
    /// `d <= divergence_level(leaf, b)` — exactly the Path ORAM invariant.
    ///
    /// The stream is a snapshot: a block inserted after this call waits for
    /// the next stream, and no resident block may be relabelled or pinned
    /// until the stream's last bucket is taken (a refill does no block
    /// handling, so the controllers satisfy this by construction).
    pub fn begin_eviction(&mut self, levels: u32, leaf: u64) {
        self.candidates.clear();
        self.candidates.extend(
            self.blocks
                .values()
                .filter(|b| !self.pinned.contains(&b.addr))
                .map(|b| (divergence_level(levels, leaf, b.leaf), b.addr)),
        );
        self.candidates.sort_unstable_by(|a, b| b.cmp(a));
        self.cursor = 0;
        self.stream_path = (levels, leaf);
    }

    /// Removes from the stash the blocks for the bucket at `level` of the
    /// current stream's path (at most `z`; the tree store pads the bucket
    /// with dummies) and hands them to `write` as one slice, in order: the
    /// next candidates while they are eligible that deep. Levels are taken
    /// leaf to root, each at most once; the stream may be abandoned at any
    /// level, and every block it has not chosen is still in the stash. The
    /// slice is a buffer the stash reuses, and a chosen block's payload
    /// buffer stays for the next block to arrive, so the stream allocates
    /// nothing once warm (tests/hot_path_alloc.rs).
    pub fn evict_next(&mut self, level: u32, z: usize, write: impl FnOnce(&[Block])) {
        while self.chosen.len() < z {
            let Some(block) = self.next_chosen(level) else {
                break;
            };
            self.chosen.push(block);
        }
        write(&self.chosen);
        while let Some(block) = self.chosen.pop() {
            self.recycle(block.data);
        }
    }

    /// The stream's next block for the bucket at `level`, removed from the
    /// stash: the next candidate in order, if it is eligible that deep.
    fn next_chosen(&mut self, level: u32) -> Option<Block> {
        let (levels, leaf) = self.stream_path;
        debug_assert!(level <= levels);
        while let Some(&(depth, addr)) = self.candidates.get(self.cursor) {
            if depth < level {
                break;
            }
            self.cursor += 1;
            if let Some(block) = self.blocks.remove(&addr) {
                debug_assert!(placement_legal(levels, leaf, block.leaf, level));
                self.tally.record_now(EventKind::StashEvict { addr });
                return Some(block);
            }
        }
        None
    }

    /// The blocks for the bucket at `level` of the path to `leaf` alone: a
    /// fresh stream of which one bucket is taken ([`Stash::evict_next`]),
    /// each block copied out. Per-level calls from the leaf up choose what
    /// one stream chooses — the reference the stream is held against
    /// (`tests/proptest_invariants.rs`) — at the cost of collecting and
    /// ordering the candidates once per bucket.
    pub fn plan_eviction_level(
        &mut self,
        levels: u32,
        leaf: u64,
        level: u32,
        z: usize,
    ) -> Vec<Block> {
        self.begin_eviction(levels, leaf);
        let mut bucket = Vec::new();
        self.evict_next(level, z, |blocks| bucket = blocks.to_vec());
        bucket
    }
}

/// Returns true when `block_leaf` is allowed in the bucket at `level` of the
/// path to `path_leaf` (the Path ORAM placement invariant).
pub(crate) fn placement_legal(levels: u32, path_leaf: u64, block_leaf: u64, level: u32) -> bool {
    overlap_degree(levels, path_leaf, block_leaf) > level
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(addr: u64, leaf: u64) -> Block {
        Block::new(addr, leaf, vec![addr as u8])
    }

    /// One eviction stream over levels `hi` down to `lo`: `(level, bucket)`
    /// per level taken, deepest first.
    fn evict_path(
        s: &mut Stash,
        levels: u32,
        leaf: u64,
        lo: u32,
        hi: u32,
        z: usize,
    ) -> Vec<(u32, Vec<Block>)> {
        s.begin_eviction(levels, leaf);
        (lo..=hi)
            .rev()
            .map(|l| {
                let mut bucket = Vec::new();
                s.evict_next(l, z, |blocks| bucket = blocks.to_vec());
                (l, bucket)
            })
            .collect()
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut s = Stash::new(10);
        s.insert(block(1, 5));
        assert_eq!(s.blocks[&1].leaf, 5);
        assert_eq!(s.remove(1).unwrap().addr, 1);
        assert!(!s.contains(1));
        assert!(s.is_empty());
    }

    #[test]
    fn trace_counts_pushes_and_evictions_exactly() {
        use fp_trace::Counter;
        let tr = TraceHandle::default();
        let mut s = Stash::with_trace(10, tr.clone());
        for i in 0..6 {
            s.insert(block(i, i));
        }
        // Replacing a resident block is not a push.
        s.insert(block(0, 3));
        assert_eq!(s.tally.counter(Counter::StashPushes), 6);
        s.remove(5);
        s.remove(99); // absent: not an eviction
        let plan = evict_path(&mut s, 3, 1, 0, 3, 4);
        let planned: u64 = plan.iter().map(|(_, b)| b.len() as u64).sum();
        assert_eq!(s.tally.counter(Counter::StashEvicts), 1 + planned);
        // Pushes - evictions always equals residency, on the attached
        // spine once published.
        s.tally.publish();
        let balance = tr.counter(Counter::StashPushes) - tr.counter(Counter::StashEvicts);
        assert_eq!(balance, s.len() as u64);
    }

    #[test]
    fn high_water_tracks_peak() {
        let mut s = Stash::new(10);
        for i in 0..5 {
            s.insert(block(i, 0));
        }
        for i in 0..5 {
            s.remove(i);
        }
        assert_eq!(s.high_water(), 5);
        assert!(!s.over_capacity());
    }

    #[test]
    fn eviction_respects_invariant() {
        let levels = 3u32;
        let mut s = Stash::new(50);
        // Blocks mapped to assorted leaves.
        for (addr, leaf) in [(0u64, 1u64), (1, 1), (2, 3), (3, 7), (4, 0), (5, 5)] {
            s.insert(block(addr, leaf));
        }
        let plan = evict_path(&mut s, levels, 1, 0, levels, 4);
        for (level, blocks) in &plan {
            for b in blocks {
                assert!(
                    placement_legal(levels, 1, b.leaf, *level),
                    "block leaf {} illegally placed at level {level}",
                    b.leaf
                );
            }
        }
        // Everything eligible for the root should be evicted (root accepts
        // all), so nothing eligible remains beyond capacity Z per level.
        let evicted: usize = plan.iter().map(|(_, b)| b.len()).sum();
        assert_eq!(evicted + s.len(), 6);
    }

    #[test]
    fn eviction_is_deepest_first() {
        let levels = 3u32;
        let mut s = Stash::new(50);
        // A block mapped exactly to leaf 1 must land at the leaf bucket.
        s.insert(block(42, 1));
        let plan = evict_path(&mut s, levels, 1, 0, levels, 4);
        let (leaf_level, leaf_blocks) = &plan[0];
        assert_eq!(*leaf_level, 3);
        assert_eq!(leaf_blocks.len(), 1);
        assert_eq!(leaf_blocks[0].addr, 42);
    }

    #[test]
    fn partial_eviction_keeps_shallow_blocks() {
        let levels = 3u32;
        let mut s = Stash::new(50);
        // Block that can only live at the root (leaf 7 vs path 0 diverge
        // immediately).
        s.insert(block(1, 7));
        // Block that can live at the leaf of path 0.
        s.insert(block(2, 0));
        // Merged refill that skips levels 0..=1: only levels 2..=3 written.
        let plan = evict_path(&mut s, levels, 0, 2, 3, 4);
        let total: usize = plan.iter().map(|(_, b)| b.len()).sum();
        assert_eq!(total, 1, "only the deep block is evictable");
        assert!(s.contains(1), "root-only block stays in stash");
        assert!(!s.contains(2));
    }

    #[test]
    fn bucket_capacity_respected() {
        let levels = 2u32;
        let mut s = Stash::new(50);
        for addr in 0..10 {
            s.insert(block(addr, 0));
        }
        let plan = evict_path(&mut s, levels, 0, 0, levels, 4);
        for (_, blocks) in &plan {
            assert!(blocks.len() <= 4);
        }
        // 3 buckets * Z=4 = 12 slots; all 10 blocks fit.
        assert!(s.is_empty());
    }
}
