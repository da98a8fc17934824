//! The one datapath under both controllers: the two phases of an ORAM
//! access over tree, stash, bucket cache and DRAM.
//!
//! An access is a **read** of the path from some floor down to the leaf
//! (the whole path, or under path merging the part not shared with the
//! previous one, §3.2) and an ordered leaf-to-root **refill** that the
//! controller may stop early or retarget mid-stream (Fig 5). [`Datapath`]
//! owns everything a phase touches — the trusted [`OramState`], the
//! [`DramSystem`], the [`WritebackEngine`] (bucket cache + burst
//! generation), the shared trace spine — and exposes exactly those two
//! phases: [`Datapath::read_path`], and the refill stream
//! [`Datapath::begin_refill`] + [`Datapath::refill_level`]. The baseline
//! and Fork Path controllers are orchestration above it (queues, fork
//! geometry, replacement, the clock); neither reaches a bucket any other
//! way.

use fp_dram::DramSystem;
use fp_trace::TraceHandle;

use crate::cache::BucketCache;
use crate::config::OramConfig;
use crate::path::node_at_level;
use crate::state::OramState;
use crate::tree::IntegrityError;
use crate::writeback::WritebackEngine;

/// Fixed controller pipeline latency charged once per phase (decrypt,
/// stash/posmap logic); the rest overlaps DRAM as in §4. The read phase
/// includes it in the time it returns; a controller adds it to the last
/// commit time of the refill it chose to end.
pub const CTRL_PHASE_LATENCY_PS: u64 = 20_000; // 20 ns

/// Trusted state, untrusted memory model and the two access phases.
///
/// # Example
///
/// ```
/// use fp_dram::{DramConfig, DramSystem};
/// use fp_path_oram::cache::NoCache;
/// use fp_path_oram::{Datapath, OramConfig};
///
/// let dram = DramSystem::new(DramConfig::ddr3_1600(2));
/// let mut dp = Datapath::new(OramConfig::small_test(), dram, 7, Box::new(NoCache));
/// let levels = dp.state().config().levels;
/// let leaf = dp.state_mut().random_label();
/// // Read the whole path, then refill it leaf to root.
/// let mut t = dp.read_path(leaf, 0, 0).unwrap();
/// dp.begin_refill(leaf, 0);
/// for level in (0..=levels).rev() {
///     t = dp.refill_level(level, t);
/// }
/// assert_eq!(dp.trace().counter(fp_trace::Counter::BucketsWritten), 10);
/// dp.state().check_invariants().unwrap();
/// ```
#[derive(Debug)]
pub struct Datapath {
    state: OramState,
    dram: DramSystem,
    writeback: WritebackEngine,
    /// The shared trace spine the controller above, the stash, the
    /// writeback engine and the DRAM system report into.
    trace: TraceHandle,
    label_trace: Option<Vec<u64>>,
    /// Reusable node-id buffer for the read phase.
    nodes: Vec<u64>,
    /// Path of the refill stream in progress.
    refill_leaf: u64,
}

impl Datapath {
    /// Builds the datapath for `cfg` over `dram` with the given bucket
    /// cache policy, everything reporting into one fresh trace spine.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is invalid (see `OramState::new`).
    pub fn new(
        cfg: OramConfig,
        mut dram: DramSystem,
        seed: u64,
        cache: Box<dyn BucketCache + Send>,
    ) -> Self {
        let trace = TraceHandle::default();
        let writeback = WritebackEngine::with_cache(cache, &cfg, dram.config(), trace.clone());
        let state = OramState::new(cfg, seed, trace.clone());
        dram.attach_trace(trace.clone());
        Self {
            state,
            dram,
            writeback,
            trace,
            label_trace: None,
            nodes: Vec::new(),
            refill_leaf: 0,
        }
    }

    /// Read phase: drains the buckets at levels `floor..=L` of the path to
    /// `leaf` into the stash and issues their DRAM reads (minus cache hits)
    /// at `start_ps`. Returns when the data is available — the batch's
    /// finish plus the phase latency. The label is what the adversary sees
    /// of the access, so it joins the label trace here.
    ///
    /// Draining decodes a bucket's image into the stash, slot by slot, and
    /// leaves the stale tree copy empty (the refill rewrites it), which
    /// keeps the "block is in the stash XOR on its path" invariant
    /// checkable without re-encrypting an empty bucket. The tree store gets
    /// the whole path at once, so sealed images are unsealed from one
    /// keystream computation for all of them
    /// ([`crate::TreeStore`]'s `take_path_with`). The emptied image and the
    /// payload buffers are recycled: the phase allocates nothing once warm.
    ///
    /// # Errors
    ///
    /// Stops at the first bucket whose stored image fails to decode
    /// (a framing error or an injected memory fault) and returns its
    /// [`IntegrityError`]; no DRAM time has been charged then.
    pub fn read_path(
        &mut self,
        leaf: u64,
        floor: u32,
        start_ps: u64,
    ) -> Result<u64, IntegrityError> {
        let levels = self.state.config().levels;
        debug_assert!(floor <= levels);
        if let Some(labels) = &mut self.label_trace {
            labels.push(leaf);
        }
        self.nodes.clear();
        let path = (floor..=levels).map(|level| node_at_level(levels, leaf, level));
        self.nodes.extend(path);
        let OramState { tree, stash, .. } = &mut self.state;
        tree.take_path_with(&self.nodes, |addr, leaf, data| {
            stash.insert_with(addr, leaf, |payload| payload.extend_from_slice(data));
        })?;
        let batch_end = self
            .writeback
            .read_path(&mut self.dram, &self.nodes, start_ps);
        Ok(batch_end + CTRL_PHASE_LATENCY_PS)
    }

    /// Starts the refill of the path to `leaf`, planned to stop at level
    /// `stop` (0 commits the whole path): the stash collects and orders its
    /// eviction candidates once ([`crate::Stash::begin_eviction`]), and a
    /// sealed tree computes the keystreams of the planned writes, levels
    /// `L` down to `stop`, in one call. The plan binds nothing — a refill
    /// may end above `stop` or go on below it, each extra bucket then
    /// computing its own keystream — and no byte written depends on it.
    /// Call after the access's block handling and before the first
    /// [`Datapath::refill_level`].
    pub fn begin_refill(&mut self, leaf: u64, stop: u32) {
        let levels = self.state.config().levels;
        debug_assert!(stop <= levels);
        self.refill_leaf = leaf;
        self.state.stash.begin_eviction(levels, leaf);
        let planned = (stop..=levels).rev();
        let nodes = planned.map(|level| node_at_level(levels, leaf, level));
        self.state.tree.prepare_writes(nodes);
    }

    /// Refill phase, one bucket: greedily evicts stash blocks into the
    /// bucket at `level` of the refill's path — each encoded straight into
    /// the tree store's open bucket — re-encrypts and writes it into a
    /// recycled image, and commits it through the cache at `t_ps`. Returns
    /// the commit time.
    ///
    /// The refill is an *ordered* leaf-to-root stream of bucket writes — the
    /// order the adversary observes, which the dummy-replacing window is
    /// defined over — so the caller commits buckets one at a time, deepest
    /// first, and decides after each whether the stream goes on: the whole
    /// path for the baseline, down to a stop level that may move for Fork
    /// Path.
    pub fn refill_level(&mut self, level: u32, t_ps: u64) -> u64 {
        let cfg = self.state.config();
        let (levels, z) = (cfg.levels, cfg.z);
        self.trace.set_now(t_ps);
        let node = node_at_level(levels, self.refill_leaf, level);
        let OramState { tree, stash, .. } = &mut self.state;
        stash.evict_next(level, z, |block| tree.push_slot(block));
        tree.store(node);
        self.writeback.write_bucket(&mut self.dram, node, t_ps)
    }

    /// The trusted ORAM state.
    pub fn state(&self) -> &OramState {
        &self.state
    }

    /// The trusted ORAM state, for the block handling between the phases
    /// (chain steps, label draws, pins).
    pub fn state_mut(&mut self) -> &mut OramState {
        &mut self.state
    }

    /// The DRAM system (for command/energy statistics).
    pub fn dram(&self) -> &DramSystem {
        &self.dram
    }

    /// The shared trace spine. Counters are always exact; the event ring
    /// is empty until `TraceHandle::set_capacity` gives it room.
    pub fn trace(&self) -> &TraceHandle {
        &self.trace
    }

    /// Starts recording the externally visible leaf-label sequence.
    pub fn enable_label_trace(&mut self) {
        self.label_trace = Some(Vec::new());
    }

    /// The recorded label sequence, if recording was enabled.
    pub fn label_trace(&self) -> Option<&[u64]> {
        self.label_trace.as_deref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{NoCache, TreetopCache};
    use crate::state::AccessOutcome;
    use fp_dram::DramConfig;
    use fp_trace::Counter;

    fn datapath() -> Datapath {
        let dram = DramSystem::new(DramConfig::ddr3_1600(2));
        Datapath::new(OramConfig::small_test(), dram, 99, Box::new(NoCache))
    }

    /// Full-path read of `leaf`.
    fn read(dp: &mut Datapath, leaf: u64) {
        dp.read_path(leaf, 0, 0).unwrap();
    }

    /// Refill of `leaf` from the leaf level up to `stop`; returns the
    /// written node ids in commit order.
    fn refill(dp: &mut Datapath, leaf: u64, stop: u32) -> Vec<u64> {
        let levels = dp.state().config().levels;
        dp.begin_refill(leaf, stop);
        (stop..=levels)
            .rev()
            .map(|level| {
                dp.refill_level(level, 0);
                node_at_level(levels, leaf, level)
            })
            .collect()
    }

    #[test]
    fn phases_report_time_label_and_traffic() {
        let mut dp = datapath();
        dp.enable_label_trace();
        let levels = dp.state().config().levels;
        let path_len = u64::from(levels) + 1;

        let read_end = dp.read_path(5, 0, 1_000).unwrap();
        assert!(
            read_end > 1_000 + CTRL_PHASE_LATENCY_PS,
            "DRAM time + latency"
        );
        assert_eq!(dp.label_trace(), Some(&[5u64][..]));
        assert_eq!(dp.trace().counter(Counter::CacheMisses), path_len);

        dp.begin_refill(5, 0);
        let mut t = read_end;
        for level in (0..=levels).rev() {
            let commit = dp.refill_level(level, t);
            assert!(commit > t, "an uncached bucket pays its DRAM write");
            t = commit;
        }
        assert_eq!(dp.trace().counter(Counter::BucketsWritten), path_len);

        // A merged read fetches only the levels from its floor down.
        dp.read_path(5, 7, t).unwrap();
        assert_eq!(
            dp.trace().counter(Counter::CacheMisses),
            path_len + u64::from(levels - 7 + 1)
        );
        assert_eq!(dp.label_trace().unwrap().len(), 2);
    }

    #[test]
    fn cached_levels_cost_no_dram_time() {
        let dram = DramSystem::new(DramConfig::ddr3_1600(2));
        let cfg = OramConfig::small_test();
        let cache = TreetopCache::with_capacity_bytes(16 << 10, cfg.bucket_bytes());
        let mut dp = Datapath::new(cfg, dram, 99, Box::new(cache));
        dp.begin_refill(0, 0);
        assert_eq!(dp.refill_level(0, 500), 500, "the root commits on chip");
        assert_eq!(dp.trace().counter(Counter::DramBlocksWritten), 0);
    }

    #[test]
    fn full_access_cycle_preserves_invariants() {
        let mut dp = datapath();
        for addr in 0..16u64 {
            let (old, new, _) = dp.state_mut().start_chain(addr);
            // Non-recursive shortcut: drive the data access directly.
            read(&mut dp, old);
            let _ = dp.state_mut().apply_op(addr, new, Some(&[addr as u8]));
            refill(&mut dp, old, 0);
            dp.state().check_invariants().unwrap();
        }
    }

    #[test]
    fn written_data_reads_back_via_chain() {
        let mut dp = datapath();
        let payload = vec![0xCD; 16];

        // Full hierarchical write then read of data block 37.
        for (pass, write) in [(0, true), (1, false)] {
            let chain = dp.state().chain(37);
            let (mut old, mut new, _) = dp.state_mut().start_chain(37);
            for (i, &u) in chain.iter().enumerate() {
                read(&mut dp, old);
                if i + 1 < chain.len() {
                    let (o, n, _) = dp.state_mut().chain_step(u, new, chain[i + 1]);
                    refill(&mut dp, old, 0);
                    old = o;
                    new = n;
                } else {
                    let data = if write { Some(&payload[..]) } else { None };
                    let (got, _) = dp.state_mut().apply_op(u, new, data);
                    refill(&mut dp, old, 0);
                    if pass == 1 {
                        assert_eq!(got, payload, "read back what was written");
                    }
                }
            }
            dp.state().check_invariants().unwrap();
        }
    }

    #[test]
    fn chain_step_persists_child_label() {
        let mut dp = datapath();
        let chain = dp.state().chain(5);
        let (old, new, _) = dp.state_mut().start_chain(5);
        read(&mut dp, old);
        let (_, child_new1, outcome1) = dp.state_mut().chain_step(chain[0], new, chain[1]);
        refill(&mut dp, old, 0);
        assert_eq!(outcome1, AccessOutcome::Created);

        // Second traversal of the same chain: the stored label must be the
        // one we just assigned.
        let (old2, new2, outcome2) = dp.state_mut().start_chain(5);
        assert_eq!(outcome2, AccessOutcome::Found);
        read(&mut dp, old2);
        let (child_old2, _, outcome3) = dp.state_mut().chain_step(chain[0], new2, chain[1]);
        refill(&mut dp, old2, 0);
        assert_eq!(outcome3, AccessOutcome::Found);
        assert_eq!(
            child_old2, child_new1,
            "child label survives in parent payload"
        );
    }

    #[test]
    fn read_clears_tree_copy() {
        let mut dp = datapath();
        let (old, new, _) = dp.state_mut().start_chain(3);
        read(&mut dp, old);
        let _ = dp.state_mut().apply_op(3, new, Some(&[1]));
        refill(&mut dp, old, 0);
        // Re-read the same path: every real block must now be in exactly one
        // place.
        let (old2, _, _) = dp.state_mut().start_chain(3);
        read(&mut dp, old2);
        dp.state().check_invariants().unwrap();
        // Clean up for good measure.
        refill(&mut dp, old2, 0);
        dp.state().check_invariants().unwrap();
    }

    #[test]
    fn partial_refill_keeps_shared_prefix_in_stash() {
        let mut dp = datapath();
        let (old, new, _) = dp.state_mut().start_chain(9);
        read(&mut dp, old);
        let _ = dp.state_mut().apply_op(9, new, Some(&[9]));
        // Merged refill: pretend the next path shares levels 0..=2.
        let written = refill(&mut dp, old, 3);
        assert_eq!(written.len() as u32, dp.state().config().levels - 2);
        dp.state().check_invariants().unwrap();
        // Blocks that could only live in levels 0..=2 must still be stashed.
        // (At minimum, nothing was lost: the data block is somewhere.)
        let in_stash = dp.state().stash().contains(9);
        let in_tree = dp
            .state()
            .tree()
            .iter_buckets()
            .any(|(_, blocks)| blocks.iter().any(|b| b.addr == 9));
        assert!(in_stash ^ in_tree, "block 9 in exactly one place");
    }

    #[test]
    fn corrupt_path_bucket_surfaces_integrity_error() {
        let mut dp = datapath();
        let (old, new, _) = dp.state_mut().start_chain(3);
        read(&mut dp, old);
        let _ = dp.state_mut().apply_op(3, new, Some(&[1]));
        let victim = refill(&mut dp, old, 0)[0];
        assert!(dp.state_mut().tree.corrupt_bucket(victim));
        let reads_before = dp.trace().counter(Counter::DramBlocksRead);
        let err = dp.read_path(old, 0, 0).unwrap_err();
        assert_eq!(err.node, victim);
        assert_eq!(
            dp.trace().counter(Counter::DramBlocksRead),
            reads_before,
            "a failed read phase issues no DRAM batch"
        );
    }

    /// What a sealed read phase leaves behind when the bucket at level `j`
    /// of its path is corrupt: the levels from the floor down to `j` went
    /// to the stash, `j` was consumed by its failed take, and everything
    /// below is still in the tree and decodes on its next take.
    #[test]
    fn a_sealed_read_stops_at_the_corrupt_bucket() {
        let mut cfg = OramConfig::small_test();
        cfg.cipher_mode = crate::config::CipherMode::Real;
        let levels = cfg.levels;
        let floor = 2;
        for j in [floor, 4, levels - 1, levels] {
            let dram = DramSystem::new(DramConfig::ddr3_1600(2));
            let mut dp = Datapath::new(cfg.clone(), dram, 99, Box::new(NoCache));
            // Blocks on every level of the path to leaf 0: sixteen mapped
            // to it fill the bottom four buckets, four more share only the
            // top levels.
            for addr in 0..20u64 {
                let label = if addr < 16 {
                    0
                } else {
                    1 << (levels - 1 - (addr % 4) as u32)
                };
                dp.state_mut().apply_op(addr, label, None);
            }
            read(&mut dp, 0);
            refill(&mut dp, 0, 0);
            let path: Vec<u64> = (0..=levels).map(|l| node_at_level(levels, 0, l)).collect();
            let before: Vec<Vec<u64>> = path
                .iter()
                .map(|&node| {
                    let mut tree = dp.state().tree().iter_buckets();
                    let blocks = tree.find(|(n, _)| *n == node).map(|(_, b)| b);
                    blocks.unwrap().iter().map(|b| b.addr).collect()
                })
                .collect();
            assert!(before[levels as usize].len() == cfg.z, "j={j}: a full leaf");

            let victim = path[j as usize];
            assert!(dp.state_mut().tree.corrupt_bucket(victim));
            assert_eq!(
                dp.read_path(0, floor, 0),
                Err(IntegrityError { node: victim })
            );
            let state = dp.state_mut();
            for (level, (&node, addrs)) in path.iter().zip(&before).enumerate() {
                let level = level as u32;
                let stored = state.tree.image(node).is_some();
                let stashed = addrs.iter().all(|&a| state.stash().contains(a));
                if (floor..j).contains(&level) {
                    assert!(!stored && stashed, "j={j}: level {level} went to the stash");
                } else if level == j {
                    assert!(!stored, "j={j}: the corrupt bucket was consumed");
                } else {
                    assert!(stored, "j={j}: level {level} was not taken");
                    let blocks = state.tree.take_bucket(node);
                    let taken: Vec<u64> = blocks.iter().map(|b| b.addr).collect();
                    assert_eq!(&taken, addrs, "j={j}: level {level} decodes");
                }
            }
        }
    }
}
