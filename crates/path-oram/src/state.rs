//! The combined trusted ORAM state and the block handling between the two
//! phases of an access.
//!
//! [`OramState`] owns the tree store (untrusted memory contents), the stash,
//! the posmap hierarchy and its on-chip fragment, and the label RNG. The
//! phases themselves — path read and streaming refill — belong to
//! [`crate::Datapath`], which owns the state; between them a controller
//! calls [`OramState::chain_step`] / [`OramState::apply_op`] (posmap entry
//! extraction/update, data read/write).

use fp_crypto::Xoshiro256;
use fp_trace::TraceHandle;

use crate::config::OramConfig;
use crate::keyed::U64Set;
use crate::path::path_contains;
use crate::posmap::{OnChipMap, PosMapHierarchy};
use crate::stash::{Block, Stash};
use crate::tree::TreeStore;

/// Marker in a posmap payload for a never-assigned label.
const INVALID_LABEL: u32 = u32::MAX;

/// Whether a block access found an existing block or materialized a fresh
/// one (lazy initialization of untouched memory).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// The block existed (in the stash after the path read).
    Found,
    /// First touch: the block was created inside the trusted boundary.
    Created,
}

/// The trusted contents of the ORAM controller plus the untrusted tree.
#[derive(Debug)]
pub struct OramState {
    cfg: OramConfig,
    /// Crate-visible, like `stash`, for [`crate::Datapath`]: its two phase
    /// primitives are the only code that moves blocks between the two.
    pub(crate) tree: TreeStore,
    pub(crate) stash: Stash,
    hierarchy: PosMapHierarchy,
    onchip: OnChipMap,
    label_rng: Xoshiro256,
    /// Every block ever materialized (used to reason about lazily
    /// nonexistent super-block members).
    existing: U64Set,
}

impl OramState {
    /// Creates a fresh, all-dummy ORAM whose stash reports its push/evict
    /// events into `trace`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails validation or uses more than 31 levels (labels
    /// are stored as 32-bit entries in posmap payloads, as in the paper's
    /// 4-byte-label sizing).
    pub(crate) fn new(cfg: OramConfig, seed: u64, trace: TraceHandle) -> Self {
        cfg.validate().expect("invalid ORAM config");
        assert!(cfg.levels <= 31, "labels must fit in 32-bit posmap entries");
        let hierarchy = PosMapHierarchy::new(&cfg);
        let onchip = OnChipMap::new(hierarchy.onchip_entries());
        let mut key = [0u8; 32];
        key[..8].copy_from_slice(&seed.to_le_bytes());
        let mut stash = Stash::new(cfg.stash_capacity);
        stash.attach_trace(trace);
        Self {
            tree: TreeStore::new(&cfg, key),
            stash,
            hierarchy,
            onchip,
            label_rng: Xoshiro256::new(seed ^ 0x5EED_1ABE1),
            existing: U64Set::default(),
            cfg,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &OramConfig {
        &self.cfg
    }

    /// The stash (read-only view).
    pub fn stash(&self) -> &Stash {
        &self.stash
    }

    /// The untrusted tree store (read-only view).
    pub fn tree(&self) -> &TreeStore {
        &self.tree
    }

    /// Pins `addr` in the stash (exempt from eviction) — the hook a posmap
    /// lookaside buffer uses to keep hot posmap blocks on chip.
    pub fn pin_block(&mut self, addr: u64) {
        self.stash.pin(addr);
    }

    /// Releases a pin.
    pub fn unpin_block(&mut self, addr: u64) {
        self.stash.unpin(addr);
    }

    /// Draws a uniformly random leaf label (for remaps and dummy paths).
    pub fn random_label(&mut self) -> u64 {
        self.label_rng.next_below(self.cfg.leaf_count())
    }

    /// Starts an access chain for data block `addr`: looks up (and remaps)
    /// the label of the chain's first element in the on-chip map.
    ///
    /// Returns `(old_label, new_label, outcome)`. When the entry was never
    /// assigned, `old_label` is a fresh random path — the access must still
    /// happen for obliviousness.
    pub fn start_chain(&mut self, addr: u64) -> (u64, u64, AccessOutcome) {
        let idx = self.hierarchy.onchip_index(addr);
        let new = self.random_label();
        match self.onchip.get(idx) {
            Some(old) => {
                self.onchip.set(idx, new);
                (old, new, AccessOutcome::Found)
            }
            None => {
                self.onchip.set(idx, new);
                let old = self.random_label();
                (old, new, AccessOutcome::Created)
            }
        }
    }

    /// The top-down chain of unified addresses for data block `addr`.
    pub fn chain(&self, addr: u64) -> Vec<u64> {
        self.hierarchy.chain(addr)
    }

    /// Completes a posmap chain step: takes the parent posmap block from the
    /// stash (creating it on first touch), re-labels it to `parent_new_leaf`,
    /// reads the child's current label from its payload and replaces it with
    /// a freshly drawn one.
    ///
    /// Returns `(child_old_label, child_new_label, outcome_of_child_entry)`.
    ///
    /// Drawing the child's new label *now*, while the parent is still in the
    /// stash, is what makes recursion sound: the parent's payload is final
    /// before its own refill (§2.3 / Freecursive practice).
    pub fn chain_step(
        &mut self,
        parent_addr: u64,
        parent_new_leaf: u64,
        child_addr: u64,
    ) -> (u64, u64, AccessOutcome) {
        let slot = self.hierarchy.entry_slot(child_addr);
        let child_new = self.random_label();
        let (parent, _) = self.fetch_block(parent_addr, parent_new_leaf);
        let offset = (slot * 4) as usize;
        let raw = u32::from_le_bytes(parent.data[offset..offset + 4].try_into().unwrap());
        parent.data[offset..offset + 4].copy_from_slice(&(child_new as u32).to_le_bytes());
        if raw == INVALID_LABEL {
            let child_old = self.random_label();
            (child_old, child_new, AccessOutcome::Created)
        } else {
            (raw as u64, child_new, AccessOutcome::Found)
        }
    }

    /// Completes a data-block access: takes the block from the stash
    /// (creating it on first touch), re-labels it, and applies the request.
    ///
    /// For writes, `write_data` replaces the payload (padded/truncated to
    /// the block size). Returns the payload as read (pre-write).
    pub fn apply_op(
        &mut self,
        addr: u64,
        new_leaf: u64,
        write_data: Option<&[u8]>,
    ) -> (Vec<u8>, AccessOutcome) {
        let block_bytes = self.cfg.block_bytes;
        let (block, outcome) = self.fetch_block(addr, new_leaf);
        let read = block.data.clone();
        if let Some(data) = write_data {
            let mut payload = data.to_vec();
            payload.resize(block_bytes, 0);
            block.data = payload;
        }
        // Static super blocks ([18]): the whole group shares the label, so
        // every resident member moves with the access. All members mapped
        // to the old label are in the stash at this point (the read phase
        // loads the path; merged-away buckets were already in the stash).
        let sb = self.cfg.super_block;
        if sb > 1 {
            let group_base = addr / sb * sb;
            for member in group_base..(group_base + sb).min(self.cfg.data_blocks) {
                if member == addr {
                    continue;
                }
                if let Some(b) = self.stash.get_mut(member) {
                    b.leaf = new_leaf;
                }
            }
        }
        (read, outcome)
    }

    /// Whether `addr` currently sits in the stash (the paper's Step 1
    /// stash-hit check).
    pub fn stash_hit(&self, addr: u64) -> bool {
        self.stash.contains(addr)
    }

    /// Whether a *data* access to `addr` may take the on-chip shortcut
    /// under super-block grouping: every group member must be on chip (or
    /// never created), because the shortcut relabels the group without a
    /// path read — a member left in the tree on the old path would be
    /// orphaned. Always true when grouping is disabled.
    pub fn group_shortcut_safe(&self, addr: u64) -> bool {
        let sb = self.cfg.super_block;
        if sb <= 1 {
            return true;
        }
        let base = addr / sb * sb;
        (base..(base + sb).min(self.cfg.data_blocks))
            .all(|m| !self.existing.contains(&m) || self.stash.contains(m))
    }

    /// Takes `addr` from the stash or materializes it (first touch).
    fn fetch_block(&mut self, addr: u64, new_leaf: u64) -> (&mut Block, AccessOutcome) {
        let outcome = if self.stash.contains(addr) {
            AccessOutcome::Found
        } else {
            // Posmap blocks start with all entries invalid, data blocks zero.
            let byte = if self.hierarchy.level_of(addr) > 0 {
                0xFF
            } else {
                0
            };
            let len = self.cfg.block_bytes;
            self.stash
                .insert_with(addr, new_leaf, |data| data.resize(len, byte));
            AccessOutcome::Created
        };
        self.existing.insert(addr);
        let block = self.stash.get_mut(addr).expect("just ensured present");
        block.leaf = new_leaf;
        (block, outcome)
    }

    /// Verifies the Path ORAM invariants over the whole state. Intended for
    /// tests; cost is linear in touched state.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation found: a block stored
    /// off its labelled path, an overfull bucket, or a duplicate address.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut seen = U64Set::default();
        for (node, blocks) in self.tree.iter_buckets() {
            if blocks.len() > self.cfg.z {
                return Err(format!("bucket {node} holds {} > Z blocks", blocks.len()));
            }
            for b in blocks {
                if !path_contains(self.cfg.levels, b.leaf, node) {
                    return Err(format!(
                        "block {} labelled {} stored off-path at node {node}",
                        b.addr, b.leaf
                    ));
                }
                if !seen.insert(b.addr) {
                    return Err(format!("block {} appears twice", b.addr));
                }
            }
        }
        for b in self.stash.iter() {
            if !seen.insert(b.addr) {
                return Err(format!("block {} in both stash and tree", b.addr));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state() -> OramState {
        OramState::new(OramConfig::small_test(), 99, TraceHandle::default())
    }

    #[test]
    fn a_first_touch_materializes_inside_the_boundary() {
        let mut state = OramState::new(OramConfig::small_test(), 7, TraceHandle::default());
        // First touch of data block 3: the on-chip map assigns its label and
        // the block materializes inside the trusted boundary.
        let (_old_leaf, new_leaf, _) = state.start_chain(3);
        let (before, outcome) = state.apply_op(3, new_leaf, Some(&[9]));
        assert_eq!(outcome, AccessOutcome::Created);
        assert!(before.iter().all(|&b| b == 0));
        assert!(state.stash_hit(3));
        state.check_invariants().unwrap();
    }

    #[test]
    fn onchip_remap_changes_label() {
        let mut s = state();
        let (_, new1, _) = s.start_chain(0);
        let (old2, _, outcome) = s.start_chain(0);
        assert_eq!(outcome, AccessOutcome::Found);
        assert_eq!(old2, new1);
    }

    #[test]
    fn random_labels_are_in_range_and_vary() {
        let mut s = state();
        let leaves = s.config().leaf_count();
        let labels: Vec<u64> = (0..64).map(|_| s.random_label()).collect();
        assert!(labels.iter().all(|&l| l < leaves));
        let distinct: U64Set = labels.iter().copied().collect();
        assert!(distinct.len() > 16, "labels vary");
    }
}
