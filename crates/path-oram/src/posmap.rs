//! The unified hierarchical position map (Fig 2).
//!
//! A flat position map for a 4 GB / 64 B ORAM would need ~192 MB on chip, so
//! the map is itself stored in the ORAM, recursively, until the top level
//! fits on chip. The paper uses the *unified* organization of Freecursive
//! [12]: all recursion levels share one tree, one stash and one program
//! address space — data blocks occupy addresses `[0, N)`, posmap-1 blocks
//! `[N, N + r1)`, and so on — so requests to different hierarchy levels are
//! indistinguishable from outside.

use crate::config::OramConfig;

/// Address-space layout and chain construction for the posmap hierarchy.
///
/// # Example
///
/// ```
/// use fp_path_oram::{OramConfig, PosMapHierarchy};
/// let cfg = OramConfig::small_test();
/// let h = PosMapHierarchy::new(&cfg);
/// // The posmap blocks live in the tree beside the data blocks, and the
/// // top level's labels fit on chip.
/// assert!(h.total_blocks() > cfg.data_blocks);
/// assert!(h.onchip_entries() <= cfg.onchip_posmap_entries);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PosMapHierarchy {
    fanout: u64,
    data_blocks: u64,
    /// `bases[i]` = first unified address of posmap level `i + 1`
    /// (level 0 is the data itself). `sizes[i]` = blocks at that level.
    bases: Vec<u64>,
    sizes: Vec<u64>,
}

impl PosMapHierarchy {
    /// Builds the hierarchy for `cfg`, recursing until the next level would
    /// fit within `cfg.onchip_posmap_entries`.
    pub fn new(cfg: &OramConfig) -> Self {
        let fanout = cfg.posmap_fanout();
        let mut bases = Vec::new();
        let mut sizes = Vec::new();
        let mut next_base = cfg.data_blocks;
        let mut level_entries = cfg.data_blocks;
        while level_entries > cfg.onchip_posmap_entries {
            let blocks = level_entries.div_ceil(fanout);
            bases.push(next_base);
            sizes.push(blocks);
            next_base += blocks;
            level_entries = blocks;
        }
        Self {
            fanout,
            data_blocks: cfg.data_blocks,
            bases,
            sizes,
        }
    }

    /// Number of posmap recursion levels stored in the tree (0 means the
    /// whole map fits on chip).
    pub fn posmap_levels(&self) -> usize {
        self.bases.len()
    }

    /// Total blocks in the unified address space (data + posmap).
    pub fn total_blocks(&self) -> u64 {
        self.data_blocks + self.sizes.iter().sum::<u64>()
    }

    /// Entries the on-chip map must hold.
    pub fn onchip_entries(&self) -> u64 {
        self.sizes.last().copied().unwrap_or(self.data_blocks)
    }

    /// The top-down chain of unified addresses an access to data block
    /// `addr` must traverse: `[pm_k block, ..., pm_1 block, addr]`.
    ///
    /// The label of `chain[0]` comes from the on-chip map; the label of each
    /// later element is read out of its predecessor's payload.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not a data-block address.
    pub(crate) fn chain(&self, addr: u64) -> Vec<u64> {
        assert!(addr < self.data_blocks, "address {addr} out of data range");
        let k = self.bases.len();
        let mut chain = Vec::with_capacity(k + 1);
        for level in (1..=k).rev() {
            let index = addr / self.fanout.pow(level as u32);
            chain.push(self.bases[level - 1] + index);
        }
        chain.push(addr);
        chain
    }

    /// For the on-chip lookup that starts a chain: the index into the
    /// on-chip map for data address `addr`.
    pub(crate) fn onchip_index(&self, addr: u64) -> u64 {
        addr / self.fanout.pow(self.bases.len() as u32)
    }

    /// Given a chain element `parent` (a posmap block) and the next chain
    /// element `child`, the entry slot of `child` inside `parent`'s payload.
    pub(crate) fn entry_slot(&self, child: u64) -> u64 {
        // A posmap block at level i covers fanout consecutive blocks of
        // level i-1; the child's slot is its index modulo the fanout.
        let child_index = self.relative_index(child);
        child_index % self.fanout
    }

    /// The index of a unified address within its own hierarchy level.
    fn relative_index(&self, addr: u64) -> u64 {
        for (base, size) in self.bases.iter().zip(&self.sizes) {
            if addr >= *base && addr < base + size {
                return addr - base;
            }
        }
        addr // data level: the address itself
    }

    /// Hierarchy level of a unified address (0 = data, k = top posmap).
    pub(crate) fn level_of(&self, addr: u64) -> usize {
        for (i, (base, size)) in self.bases.iter().zip(&self.sizes).enumerate() {
            if addr >= *base && addr < base + size {
                return i + 1;
            }
        }
        0
    }
}

/// The on-chip fragment of the position map: labels for the top recursion
/// level. `None` marks a block that has never been accessed (its subtree of
/// the map is uninitialized).
#[derive(Debug, Clone)]
pub(crate) struct OnChipMap {
    entries: Vec<Option<u64>>,
}

impl OnChipMap {
    pub(crate) fn new(entries: u64) -> Self {
        Self {
            entries: vec![None; entries as usize],
        }
    }

    pub(crate) fn get(&self, index: u64) -> Option<u64> {
        self.entries[index as usize]
    }

    pub(crate) fn set(&mut self, index: u64, leaf: u64) {
        self.entries[index as usize] = Some(leaf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_cfg() -> OramConfig {
        // 1024 data blocks, fanout 4, on-chip 64:
        // level1 = 256 blocks, level2 = 64 -> stops (64 <= 64).
        OramConfig::small_test()
    }

    #[test]
    fn hierarchy_shape() {
        let h = PosMapHierarchy::new(&test_cfg());
        assert_eq!(h.posmap_levels(), 2);
        assert_eq!(h.total_blocks(), 1024 + 256 + 64);
        assert_eq!(h.onchip_entries(), 64);
    }

    #[test]
    fn paper_default_has_three_posmap_levels() {
        let cfg = OramConfig::paper_default(4 << 30);
        let h = PosMapHierarchy::new(&cfg);
        // 2^26 data blocks, fanout 16: 2^22, 2^18, 2^14 <= 2^16 on-chip.
        assert_eq!(h.posmap_levels(), 3);
        assert_eq!(h.onchip_entries(), 1 << 14);
        // One LLC miss = 4 ORAM accesses.
        assert_eq!(h.chain(0).len(), 4);
    }

    #[test]
    fn chain_is_top_down_and_consistent() {
        let h = PosMapHierarchy::new(&test_cfg());
        let addr = 777u64;
        let chain = h.chain(addr);
        assert_eq!(chain.len(), 3);
        // Top: 1024 + 256 + addr/16; middle: 1024 + addr/4; last: addr.
        assert_eq!(chain[0], 1024 + 256 + addr / 16);
        assert_eq!(chain[1], 1024 + addr / 4);
        assert_eq!(chain[2], addr);
        // Hierarchy levels: 2, 1, 0.
        assert_eq!(h.level_of(chain[0]), 2);
        assert_eq!(h.level_of(chain[1]), 1);
        assert_eq!(h.level_of(chain[2]), 0);
    }

    #[test]
    fn neighbouring_addresses_share_posmap_blocks() {
        let h = PosMapHierarchy::new(&test_cfg());
        let a = h.chain(100);
        let b = h.chain(101);
        assert_eq!(a[0], b[0]);
        assert_eq!(a[1], b[1]);
        assert_ne!(a[2], b[2]);
    }

    #[test]
    fn entry_slots_cycle_with_fanout() {
        let h = PosMapHierarchy::new(&test_cfg());
        assert_eq!(h.entry_slot(0), 0);
        assert_eq!(h.entry_slot(1), 1);
        assert_eq!(h.entry_slot(4), 0);
        // Posmap-level-1 block 1024 is entry 0 of its parent.
        assert_eq!(h.entry_slot(1024), 0);
        assert_eq!(h.entry_slot(1025), 1);
    }

    #[test]
    fn onchip_index_uses_top_fanout_power() {
        let h = PosMapHierarchy::new(&test_cfg());
        assert_eq!(h.onchip_index(0), 0);
        assert_eq!(h.onchip_index(15), 0);
        assert_eq!(h.onchip_index(16), 1);
        assert_eq!(h.onchip_index(1023), 63);
    }

    #[test]
    fn no_recursion_when_map_fits() {
        let mut cfg = test_cfg();
        cfg.onchip_posmap_entries = 1 << 20;
        let h = PosMapHierarchy::new(&cfg);
        assert_eq!(h.posmap_levels(), 0);
        assert_eq!(h.chain(5), vec![5]);
        assert_eq!(h.onchip_index(5), 5);
        assert_eq!(h.onchip_entries(), 1024);
    }

    #[test]
    #[should_panic(expected = "out of data range")]
    fn chain_rejects_posmap_addresses() {
        let h = PosMapHierarchy::new(&test_cfg());
        let _ = h.chain(2000);
    }

    #[test]
    fn onchip_map_roundtrip() {
        let mut m = OnChipMap::new(8);
        assert_eq!(m.get(3), None);
        m.set(3, 42);
        assert_eq!(m.get(3), Some(42));
    }
}
