//! PosMap Lookaside Buffer (PLB) — the Freecursive ORAM [12] optimization
//! the paper discusses in related work (§6).
//!
//! Recursive position-map lookups dominate a unified hierarchical ORAM's
//! access count (a 4 GB ORAM issues 3 posmap accesses per data access).
//! Freecursive keeps recently used posmap blocks *on chip*, so most chain
//! steps resolve without an ORAM access; the paper reports ~95 % of
//! posmap-related memory accesses removed.
//!
//! This implementation piggybacks on the stash: the PLB is an LRU set of
//! posmap-block addresses that are *pinned* in the stash (exempt from
//! eviction). A pinned block always takes the controller's Step-1 on-chip
//! fast path — no path access, no label consumed. Fork Path and the PLB
//! compose: the PLB trims accesses, merging/scheduling trims the buckets of
//! the accesses that remain.
//!
//! The LRU is a hashmap-indexed intrusive list: a slab of doubly linked
//! nodes plus an address → slot map, so `touch` and `contains` are O(1)
//! instead of the O(capacity) deque scans of the original implementation.
//! The PLB sits on the per-posmap-step hot path, so this matters at
//! paper-scale sweeps.

use fp_path_oram::keyed::U64Map;

/// Sentinel for "no node" in the intrusive list.
const NIL: u32 = u32::MAX;

/// One slot of the LRU slab.
#[derive(Debug, Clone, Copy)]
struct Node {
    addr: u64,
    prev: u32,
    next: u32,
}

/// An LRU set of pinned posmap blocks.
///
/// # Example
///
/// ```
/// use fp_core::PosMapLookasideBuffer;
/// let mut plb = PosMapLookasideBuffer::new(2);
/// assert_eq!(plb.touch(10), None);
/// assert_eq!(plb.touch(11), None);
/// assert_eq!(plb.touch(12), Some(10), "capacity 2: LRU evicted");
/// assert!(plb.contains(11));
/// ```
#[derive(Debug, Clone)]
pub struct PosMapLookasideBuffer {
    /// Address → slot in `nodes`.
    map: U64Map<u32>,
    /// Slab of list nodes; never exceeds `capacity` entries.
    nodes: Vec<Node>,
    /// Least recently used slot.
    head: u32,
    /// Most recently used slot.
    tail: u32,
    capacity: usize,
}

impl Default for PosMapLookasideBuffer {
    fn default() -> Self {
        Self::new(0)
    }
}

impl PosMapLookasideBuffer {
    /// Creates a PLB holding up to `capacity` posmap blocks (0 disables).
    pub fn new(capacity: usize) -> Self {
        Self {
            map: U64Map::with_capacity_and_hasher(capacity, Default::default()),
            nodes: Vec::with_capacity(capacity),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    /// Whether the PLB is disabled.
    pub(crate) fn is_disabled(&self) -> bool {
        self.capacity == 0
    }

    /// Records a use of `addr`, inserting it; returns the evicted address
    /// (to be unpinned) if the buffer overflowed.
    // Allocation-free once warm: tests/hot_path_alloc.rs.
    pub fn touch(&mut self, addr: u64) -> Option<u64> {
        if self.capacity == 0 {
            return None;
        }
        if let Some(&slot) = self.map.get(&addr) {
            self.unlink(slot);
            self.link_tail(slot);
            return None;
        }
        if self.nodes.len() < self.capacity {
            let slot = self.nodes.len() as u32;
            self.nodes.push(Node {
                addr,
                prev: NIL,
                next: NIL,
            });
            self.map.insert(addr, slot);
            self.link_tail(slot);
            return None;
        }
        // Full: reuse the LRU slot for the new address.
        let slot = self.head;
        debug_assert_ne!(slot, NIL, "nonzero capacity implies a head");
        let evicted = self.nodes[slot as usize].addr;
        self.map.remove(&evicted);
        self.unlink(slot);
        self.nodes[slot as usize].addr = addr;
        self.map.insert(addr, slot);
        self.link_tail(slot);
        Some(evicted)
    }

    /// Whether `addr` is currently held.
    pub fn contains(&self, addr: u64) -> bool {
        self.map.contains_key(&addr)
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the buffer holds nothing.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Detaches `slot` from the list.
    fn unlink(&mut self, slot: u32) {
        let Node { prev, next, .. } = self.nodes[slot as usize];
        match prev {
            NIL => self.head = next,
            p => self.nodes[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.nodes[n as usize].prev = prev,
        }
    }

    /// Appends `slot` at the most-recently-used end.
    fn link_tail(&mut self, slot: u32) {
        let node = &mut self.nodes[slot as usize];
        node.prev = self.tail;
        node.next = NIL;
        match self.tail {
            NIL => self.head = slot,
            t => self.nodes[t as usize].next = slot,
        }
        self.tail = slot;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_order_is_respected() {
        let mut plb = PosMapLookasideBuffer::new(3);
        plb.touch(1);
        plb.touch(2);
        plb.touch(3);
        // Refresh 1; inserting 4 must now evict 2.
        plb.touch(1);
        assert_eq!(plb.touch(4), Some(2));
        assert!(plb.contains(1) && plb.contains(3) && plb.contains(4));
        assert_eq!(plb.len(), 3);
    }

    #[test]
    fn zero_capacity_is_inert() {
        let mut plb = PosMapLookasideBuffer::new(0);
        assert!(plb.is_disabled());
        assert_eq!(plb.touch(7), None);
        assert!(!plb.contains(7));
        assert!(plb.is_empty());
    }

    #[test]
    fn duplicate_touch_never_evicts() {
        let mut plb = PosMapLookasideBuffer::new(1);
        assert_eq!(plb.touch(5), None);
        assert_eq!(plb.touch(5), None);
        assert_eq!(plb.len(), 1);
    }

    #[test]
    fn eviction_chain_covers_every_slot() {
        // Repeatedly overflowing a small buffer exercises slot reuse: each
        // miss evicts exactly the least recent address.
        let mut plb = PosMapLookasideBuffer::new(4);
        for a in 0..4 {
            assert_eq!(plb.touch(a), None);
        }
        for a in 4..32u64 {
            assert_eq!(plb.touch(a), Some(a - 4));
            assert_eq!(plb.len(), 4);
        }
    }

    #[test]
    fn touch_moves_middle_element_to_mru() {
        let mut plb = PosMapLookasideBuffer::new(3);
        plb.touch(1);
        plb.touch(2);
        plb.touch(3);
        // 2 is in the middle of the list; refreshing it must relink cleanly.
        plb.touch(2);
        assert_eq!(plb.touch(4), Some(1));
        assert_eq!(plb.touch(5), Some(3));
        assert_eq!(plb.touch(6), Some(2));
    }
}
