//! The one datapath under both controllers: the two phases of an ORAM
//! access over tree, stash, bucket cache and DRAM.
//!
//! An access is a **read** of the path from some floor down to the leaf
//! (the whole path, or under path merging the part not shared with the
//! previous one, §3.2) and an ordered leaf-to-root **refill** that the
//! controller may stop early or retarget mid-stream (Fig 5). [`Datapath`]
//! owns everything a phase touches — the trusted [`OramState`], the
//! on-chip bucket cache (§3.5, §4.4), the subtree-aligned DRAM layout, the
//! [`DramSystem`] — and the engine's [`Tally`], which its controller's
//! stages and request ledger count into too. It exposes exactly those two
//! phases: [`Datapath::read_path`], and the refill stream
//! [`Datapath::begin_refill`] + [`Datapath::refill_level`] +
//! [`Datapath::end_refill`], plus [`Datapath::end_call`], which folds the
//! counts into the spine at the end of an engine call (every 64th while
//! the engine is busy, and each that leaves it idle). It is the one
//! place bucket node ids become DRAM traffic: the buckets the cache does
//! not absorb go to the DRAM model as base addresses, a path's worth per
//! read batch and one per refill write; the DRAM model cuts them into
//! bursts and rows. The baseline and Fork Path controllers are
//! orchestration above it (queues, fork geometry, replacement, the
//! clock); neither reaches a bucket any other way.

use fp_dram::layout::{SubtreeLayout, TreeLayout};
use fp_dram::{AccessKind, DramSystem};
use fp_trace::{Counter, Tally, TraceHandle};

use crate::cache::CacheRange;
use crate::config::OramConfig;
use crate::path::node_at_level;
use crate::state::OramState;
use crate::tree::IntegrityError;

/// Fixed controller pipeline latency charged once per phase (decrypt,
/// stash/posmap logic); the rest overlaps DRAM as in §4. Each phase
/// includes it in the time it returns: the read in its data time, the
/// refill in [`Datapath::end_refill`]'s.
const CTRL_PHASE_LATENCY_PS: u64 = 20_000; // 20 ns

/// Engine calls between two publishes of a busy engine's tallies
/// ([`Datapath::end_call`]). Each publish takes the spine's lock and folds
/// every counter touched since the last one; a reader on another thread
/// trails a busy engine by fewer calls than this.
const PUBLISH_EVERY: u32 = 64;

/// Trusted state, untrusted memory model and the two access phases.
///
/// # Example
///
/// ```
/// use fp_dram::{DramConfig, DramSystem};
/// use fp_path_oram::cache::CacheRange;
/// use fp_path_oram::{Datapath, OramConfig};
///
/// let dram = DramSystem::new(DramConfig::ddr3_1600(2));
/// let mut dp = Datapath::new(OramConfig::small_test(), dram, 7, CacheRange::NONE);
/// let levels = dp.state().config().levels;
/// let leaf = dp.state_mut().random_label();
/// // Read the whole path, then refill it leaf to root.
/// let mut t = dp.read_path(leaf, 0, 0).unwrap();
/// dp.begin_refill(leaf);
/// for level in (0..=levels).rev() {
///     t = dp.refill_level(level, t);
/// }
/// // Its end charges the phase latency.
/// assert!(dp.end_refill(t) > t);
/// // The counts reach the spine when the engine publishes them.
/// dp.publish();
/// assert_eq!(dp.trace().counter(fp_trace::Counter::BucketsWritten), 10);
/// dp.state().check_invariants().unwrap();
/// ```
#[derive(Debug)]
pub struct Datapath {
    state: OramState,
    dram: DramSystem,
    cache: CacheRange,
    layout: SubtreeLayout,
    bursts_per_bucket: u64,
    /// The engine's counts — the datapath's, its controller's stages' and
    /// its request ledger's — over the spine the stash and the DRAM
    /// system count for too.
    tally: Tally,
    /// Engine calls ended since the last publish.
    calls: u32,
    label_trace: Option<Vec<u64>>,
    /// Reusable node-id buffer for the read phase.
    nodes: Vec<u64>,
    /// Reusable read batch: base addresses of the buckets the cache missed.
    bases: Vec<u64>,
    /// Path of the refill stream in progress.
    refill_leaf: u64,
}

impl Datapath {
    /// Builds the datapath for `cfg` over `dram` with the given range of
    /// buckets on chip, everything counting for one fresh trace spine.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is invalid (see `OramState::new`).
    pub fn new(cfg: OramConfig, mut dram: DramSystem, seed: u64, cache: CacheRange) -> Self {
        let trace = TraceHandle::default();
        let bucket_bytes = cfg.bucket_bytes();
        let layout = SubtreeLayout::fit_row(cfg.path_len(), bucket_bytes, dram.config().row_bytes);
        let bursts_per_bucket = bucket_bytes.div_ceil(dram.config().burst_bytes).max(1);
        let state = OramState::new(cfg, seed, trace.clone());
        dram.attach_trace(trace.clone());
        Self {
            state,
            dram,
            cache,
            layout,
            bursts_per_bucket,
            tally: Tally::new(trace),
            calls: 0,
            label_trace: None,
            nodes: Vec::new(),
            bases: Vec::new(),
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
    /// the whole path at once, so the sealed images it reads from DRAM —
    /// the cache misses; a hit is on chip in the clear — are unsealed from
    /// two keystream computations for all of them, the headers' and then
    /// the real payloads' ([`crate::TreeStore`]'s `take_path_with`). The
    /// emptied image and the payload buffers are recycled: the phase
    /// allocates nothing once warm.
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
        self.bases.clear();
        for &node in &self.nodes {
            if !self.cache.holds(node) {
                self.bases.push(self.layout.bucket_address(node));
            }
        }
        let misses = self.bases.len() as u64;
        self.tally
            .add(Counter::CacheHits, self.nodes.len() as u64 - misses);
        self.tally.add(Counter::CacheMisses, misses);
        if misses == 0 {
            return Ok(start_ps + CTRL_PHASE_LATENCY_PS);
        }
        self.tally
            .add(Counter::DramBlocksRead, misses * self.bursts_per_bucket);
        let batch_end = self.dram.access_spans(
            start_ps,
            AccessKind::Read,
            &self.bases,
            self.bursts_per_bucket,
        );
        Ok(batch_end + CTRL_PHASE_LATENCY_PS)
    }

    /// Starts the refill of the path to `leaf`: the stash collects and
    /// orders its eviction candidates once
    /// ([`crate::Stash::begin_eviction`]). Call after the access's block
    /// handling and before the first [`Datapath::refill_level`].
    pub fn begin_refill(&mut self, leaf: u64) {
        self.refill_leaf = leaf;
        let levels = self.state.config().levels;
        self.state.stash.begin_eviction(levels, leaf);
    }

    /// Refill phase, one bucket: greedily evicts stash blocks into the
    /// bucket at `level` of the refill's path — the stash hands the tree
    /// store the chosen blocks as one slice, and the store writes the
    /// bucket in one step — and commits it at `t_ps`; returns the commit
    /// time. A bucket of the cache's range stays on chip in the clear and
    /// commits at `t_ps`; any other is written through to DRAM and pays its
    /// DRAM write. Either opens empty and has its blocks XORed in: a sealed
    /// tree opens a write-through on a sealed empty. So the refill writes
    /// to DRAM only buckets of its own path.
    ///
    /// The refill is an *ordered* leaf-to-root stream of bucket writes — the
    /// order the adversary observes, which the dummy-replacing window is
    /// defined over — so the caller commits buckets one at a time, deepest
    /// first, and decides after each whether the stream goes on: the whole
    /// path for the baseline, down to a stop level that may move for Fork
    /// Path. [`Datapath::end_refill`] ends it.
    pub fn refill_level(&mut self, level: u32, t_ps: u64) -> u64 {
        let cfg = self.state.config();
        let (levels, z) = (cfg.levels, cfg.z);
        self.tally.handle().set_now(t_ps);
        let node = node_at_level(levels, self.refill_leaf, level);
        let on_chip = self.cache.holds(node);
        let OramState { tree, stash, .. } = &mut self.state;
        stash.evict_next(level, z, |blocks| tree.store(node, on_chip, blocks));
        self.tally.bump(Counter::BucketsWritten);
        if on_chip {
            return t_ps;
        }
        self.tally
            .add(Counter::DramBlocksWritten, self.bursts_per_bucket);
        let base = self.layout.bucket_address(node);
        let bursts = self.bursts_per_bucket;
        self.dram
            .access_spans(t_ps, AccessKind::Write, &[base], bursts)
    }

    /// Ends the refill whose last commit was at `t_ps`. Returns when the
    /// phase is over — `t_ps` plus the phase latency.
    pub fn end_refill(&self, t_ps: u64) -> u64 {
        t_ps + CTRL_PHASE_LATENCY_PS
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

    /// The shared trace spine. Its counters are exact at every
    /// [`Datapath::publish`] and trail the engine between publishes (read
    /// [`Datapath::counters`] on the engine's thread); the event ring is
    /// empty until `TraceHandle::set_capacity` gives it room.
    pub fn trace(&self) -> &TraceHandle {
        self.tally.handle()
    }

    /// Every counter, exact at any time: the spine plus what the engine's
    /// tally, the stash's and the DRAM system's have not published.
    pub fn counters(&self) -> [u64; Counter::COUNT] {
        Tally::counters_of([&self.tally, self.state.stash.tally(), self.dram.tally()])
    }

    /// The engine's tally: what the engine has counted and not published.
    pub fn tally(&self) -> &Tally {
        &self.tally
    }

    /// The engine's tally, for the controller's own counts and for its
    /// stages and request ledger to count into (published with the
    /// datapath's).
    pub fn tally_mut(&mut self) -> &mut Tally {
        &mut self.tally
    }

    /// The trusted state and the engine's tally at once, for a stage that
    /// counts while it draws from the state (a dummy's fresh label).
    pub fn state_and_tally_mut(&mut self) -> (&mut OramState, &mut Tally) {
        (&mut self.state, &mut self.tally)
    }

    /// Ends one engine call: publishes ([`Datapath::publish`]) when the
    /// call leaves the engine `idle` — no work left, or an error — and
    /// otherwise every 64th call. So a reader on another thread sees whole
    /// calls, at most 63 behind while the engine is busy and exact once it
    /// is idle. A drain of completions is a call by this rule when it
    /// hands some out (a shard worker drains after every access, so the
    /// drain must not publish on its own), and no call when it hands out
    /// none: it leaves the spine as it was. Calls after which the spine
    /// must be exact whatever the engine's state (resizing the ring,
    /// switching fixed-rate mode) publish instead.
    pub fn end_call(&mut self, idle: bool) {
        self.calls += 1;
        if idle || self.calls == PUBLISH_EVERY {
            self.publish();
        }
    }

    /// Publishes the engine's tally, the stash's and the DRAM system's as
    /// one cut, at the end of an engine call ([`Datapath::end_call`]). An
    /// engine dropped without publishing loses the calls since its last
    /// publish; the spine still holds a cut of whole calls.
    pub fn publish(&mut self) {
        self.calls = 0;
        Tally::publish_all([
            &mut self.tally,
            self.state.stash.tally_mut(),
            self.dram.tally_mut(),
        ]);
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
    use crate::cache::CacheRange;
    use fp_dram::DramConfig;
    use fp_trace::Counter;

    fn datapath() -> Datapath {
        let dram = DramSystem::new(DramConfig::ddr3_1600(2));
        Datapath::new(OramConfig::small_test(), dram, 99, CacheRange::NONE)
    }

    /// Full-path read of `leaf`.
    fn read(dp: &mut Datapath, leaf: u64) {
        dp.read_path(leaf, 0, 0).unwrap();
    }

    /// Refill of `leaf` from the leaf level up to `stop`; returns the
    /// written node ids in commit order.
    fn refill(dp: &mut Datapath, leaf: u64, stop: u32) -> Vec<u64> {
        let levels = dp.state().config().levels;
        dp.begin_refill(leaf);
        let nodes = (stop..=levels)
            .rev()
            .map(|level| {
                dp.refill_level(level, 0);
                node_at_level(levels, leaf, level)
            })
            .collect();
        dp.end_refill(0);
        nodes
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
        dp.publish();
        assert_eq!(dp.trace().counter(Counter::CacheMisses), path_len);

        dp.begin_refill(5);
        let mut t = read_end;
        for level in (0..=levels).rev() {
            let commit = dp.refill_level(level, t);
            assert!(commit > t, "an uncached bucket pays its DRAM write");
            t = commit;
        }
        assert_eq!(dp.end_refill(t), t + CTRL_PHASE_LATENCY_PS);
        t += CTRL_PHASE_LATENCY_PS;
        dp.publish();
        assert_eq!(dp.trace().counter(Counter::BucketsWritten), path_len);

        // A merged read fetches only the levels from its floor down.
        dp.read_path(5, 7, t).unwrap();
        dp.publish();
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
        let cache = CacheRange::treetop(16 << 10, cfg.bucket_bytes());
        let mut dp = Datapath::new(cfg, dram, 99, cache);
        dp.begin_refill(0);
        assert_eq!(dp.refill_level(0, 500), 500, "the root commits on chip");
        dp.end_refill(500);
        dp.publish();
        assert_eq!(dp.trace().counter(Counter::DramBlocksWritten), 0);
    }

    /// A datapath over `cache`, and the DRAM bursts of one bucket.
    fn behind(cache: CacheRange) -> (Datapath, u64) {
        let cfg = OramConfig::small_test();
        let dram = DramSystem::new(DramConfig::ddr3_1600(2));
        let bursts = cfg.bucket_bytes().div_ceil(dram.config().burst_bytes);
        (Datapath::new(cfg, dram, 99, cache), bursts)
    }

    /// A treetop cache that holds every bucket of the test tree.
    fn whole_tree() -> CacheRange {
        let bucket_bytes = OramConfig::small_test().bucket_bytes();
        CacheRange::treetop(1 << 20, bucket_bytes)
    }

    #[test]
    fn uncached_path_read_hits_dram_per_bucket() {
        let (mut dp, bursts) = behind(CacheRange::NONE);
        let path_len = u64::from(dp.state().config().levels) + 1;
        assert!(dp.read_path(5, 0, 0).unwrap() > CTRL_PHASE_LATENCY_PS);
        dp.publish();
        let count = |c| dp.trace().counter(c);
        assert_eq!(count(Counter::CacheMisses), path_len);
        assert_eq!(count(Counter::CacheHits), 0);
        assert_eq!(
            count(Counter::DramBlocksRead),
            path_len * bursts,
            "whole bursts per bucket"
        );
    }

    #[test]
    fn empty_read_batch_costs_no_dram_time() {
        let (mut dp, _) = behind(whole_tree());
        let end = dp.read_path(5, 0, 42).unwrap();
        assert_eq!(
            end,
            42 + CTRL_PHASE_LATENCY_PS,
            "every bucket hit the cache"
        );
        dp.publish();
        assert_eq!(dp.trace().counter(Counter::DramBlocksRead), 0);
    }

    #[test]
    fn no_cache_writes_through() {
        let (mut dp, bursts) = behind(CacheRange::NONE);
        let levels = dp.state().config().levels;
        dp.begin_refill(5);
        let t = dp.refill_level(levels, 0);
        assert!(t > 0, "write-through pays DRAM time");
        dp.end_refill(t);
        dp.publish();
        assert_eq!(dp.trace().counter(Counter::DramBlocksWritten), bursts);
        assert_eq!(dp.trace().counter(Counter::BucketsWritten), 1);
    }

    #[test]
    fn cached_buckets_commit_instantly_and_hit_on_read() {
        let (mut dp, _) = behind(whole_tree());
        let levels = dp.state().config().levels;
        dp.begin_refill(5);
        let t = dp.refill_level(2, 1_000);
        assert_eq!(t, 1_000, "cached commit is instantaneous");
        dp.end_refill(t);
        let finish = dp.read_path(5, 2, 2_000).unwrap();
        assert_eq!(
            finish,
            2_000 + CTRL_PHASE_LATENCY_PS,
            "cache hit needs no DRAM"
        );
        dp.publish();
        let count = |c| dp.trace().counter(c);
        assert_eq!(count(Counter::CacheHits), u64::from(levels - 1));
        assert_eq!(count(Counter::DramBlocksWritten), 0);
    }

    #[test]
    fn full_access_cycle_preserves_invariants() {
        let mut dp = datapath();
        for addr in 0..16u64 {
            let (old, new) = dp.state_mut().start_chain(addr);
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
            let (mut old, mut new) = dp.state_mut().start_chain(37);
            for (i, &u) in chain.iter().enumerate() {
                read(&mut dp, old);
                if i + 1 < chain.len() {
                    let (o, n) = dp.state_mut().chain_step(u, new, chain[i + 1]);
                    refill(&mut dp, old, 0);
                    old = o;
                    new = n;
                } else {
                    let data = if write { Some(&payload[..]) } else { None };
                    let got = dp.state_mut().apply_op(u, new, data);
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
        let (old, new) = dp.state_mut().start_chain(5);
        read(&mut dp, old);
        let (_, child_new1) = dp.state_mut().chain_step(chain[0], new, chain[1]);
        refill(&mut dp, old, 0);

        // Second traversal of the same chain: the stored labels must be the
        // ones we just assigned, on chip and in the parent's payload.
        let (old2, new2) = dp.state_mut().start_chain(5);
        assert_eq!(old2, new, "the on-chip entry was found");
        read(&mut dp, old2);
        let (child_old2, _) = dp.state_mut().chain_step(chain[0], new2, chain[1]);
        refill(&mut dp, old2, 0);
        assert_eq!(
            child_old2, child_new1,
            "child label survives in parent payload"
        );
    }

    #[test]
    fn read_clears_tree_copy() {
        let mut dp = datapath();
        let (old, new) = dp.state_mut().start_chain(3);
        read(&mut dp, old);
        let _ = dp.state_mut().apply_op(3, new, Some(&[1]));
        refill(&mut dp, old, 0);
        // Re-read the same path: every real block must now be in exactly one
        // place.
        let (old2, _) = dp.state_mut().start_chain(3);
        read(&mut dp, old2);
        dp.state().check_invariants().unwrap();
        // Clean up for good measure.
        refill(&mut dp, old2, 0);
        dp.state().check_invariants().unwrap();
    }

    #[test]
    fn partial_refill_keeps_shared_prefix_in_stash() {
        let mut dp = datapath();
        let (old, new) = dp.state_mut().start_chain(9);
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
        let (old, new) = dp.state_mut().start_chain(3);
        read(&mut dp, old);
        let _ = dp.state_mut().apply_op(3, new, Some(&[1]));
        let victim = refill(&mut dp, old, 0)[0];
        assert!(dp.state_mut().tree.corrupt_bucket(victim));
        dp.publish();
        let reads_before = dp.trace().counter(Counter::DramBlocksRead);
        let err = dp.read_path(old, 0, 0).unwrap_err();
        assert_eq!(err.node, victim);
        dp.publish();
        assert_eq!(
            dp.trace().counter(Counter::DramBlocksRead),
            reads_before,
            "a failed read phase issues no DRAM batch"
        );
    }

    /// A cache of the middle levels of the test tree, 3..=6.
    fn middle_levels() -> CacheRange {
        CacheRange::levels(3..7)
    }

    /// A sealed datapath, Z = 4 and 64 B blocks, behind
    /// [`middle_levels`], and the DRAM bursts of one bucket.
    fn sealed_behind_middle_levels() -> (Datapath, u64) {
        let mut cfg = OramConfig::small_test();
        (cfg.cipher_mode, cfg.block_bytes) = (crate::config::CipherMode::Real, 64);
        let dram = DramSystem::new(DramConfig::ddr3_1600(2));
        let bursts = cfg.bucket_bytes().div_ceil(dram.config().burst_bytes);
        let dp = Datapath::new(cfg, dram, 5, middle_levels());
        (dp, bursts)
    }

    /// The sealed tree store seals exactly what crosses the DRAM boundary:
    /// on a `Real` datapath behind a cache of the middle levels, random
    /// accesses whose refills stop at a random level. Z = 4 and 64 B
    /// blocks: an image is five keystream blocks, its headers one, each
    /// real payload one.
    ///
    /// - A refill uses five blocks per DRAM bucket write — its
    ///   write-throughs, the buckets of its path outside the cache — and
    ///   none for a bucket the cache keeps.
    /// - A read uses one header block per image it takes from untrusted
    ///   memory plus one per real payload in them; a bucket the cache
    ///   holds is taken in the clear and adds none.
    ///
    /// Pads computed ahead for later seals are not counted.
    #[test]
    fn a_sealed_datapath_seals_what_crosses_the_dram_boundary() {
        let (mut dp, bursts) = sealed_behind_middle_levels();
        let levels = dp.state().config().levels;
        let used = |dp: &Datapath| dp.state.tree.used();
        let mut rng = fp_crypto::Xoshiro256::new(0x5EA1);
        let mut clear_takes = 0;
        for round in 0..400u64 {
            // The chain's first block: the one whose label the on-chip map
            // holds, so the path read is the one it lives on.
            let addr = rng.next_below(1024);
            let head = dp.state().chain(addr)[0];
            let (old, new) = dp.state_mut().start_chain(addr);
            // What the read takes from untrusted memory, and from chip.
            let (mut lanes, mut on_chip) = (0, 0);
            for level in 0..=levels {
                let node = node_at_level(levels, old, level);
                let tree = &dp.state.tree;
                match (tree.image(node), tree.bucket(node)) {
                    (Some(_), Some(blocks)) => lanes += 1 + blocks.len() as u64,
                    (None, Some(_)) => on_chip += 1,
                    _ => {}
                }
            }
            let before = used(&dp);
            read(&mut dp, old);
            assert_eq!(used(&dp) - before, lanes, "round {round}: read");
            clear_takes += on_chip;

            let data = [round as u8; 64];
            let _ = dp.state_mut().apply_op(head, new, Some(&data));
            dp.publish();
            let written = dp.trace().counter(Counter::DramBlocksWritten);
            let before = used(&dp);
            let stop = rng.next_below(4) as u32;
            let nodes = refill(&mut dp, old, stop);
            dp.publish();
            let to_dram = (dp.trace().counter(Counter::DramBlocksWritten) - written) / bursts;
            assert_eq!(used(&dp) - before, 5 * to_dram, "round {round}: refill");
            let through = nodes.iter().filter(|&&n| !middle_levels().holds(n)).count();
            assert_eq!(
                to_dram, through as u64,
                "round {round}: write-throughs only"
            );
        }
        assert!(clear_takes > 0, "no read took a bucket on chip");
        dp.state().check_invariants().unwrap();
    }

    /// A sealed refill seals everything it sent to DRAM — its
    /// write-throughs — as it stores them, five keystream blocks a bucket,
    /// all of them pads the tree store's pad engine computed: the refill
    /// runs no pass of the lane kernel on the access thread. Dummy accesses
    /// on random paths, so the seals cross batch boundaries.
    #[test]
    fn a_sealed_refill_computes_no_pass_on_the_access_thread() {
        let (mut dp, bursts) = sealed_behind_middle_levels();
        let levels = dp.state().config().levels;
        let tree = |dp: &Datapath| (dp.state.tree.passes(), dp.state.tree.used());
        let mut rng = fp_crypto::Xoshiro256::new(0xCA11);
        for round in 0..200 {
            let leaf = rng.next_below(1 << levels);
            read(&mut dp, leaf);
            dp.publish();
            let written = dp.trace().counter(Counter::DramBlocksWritten);
            let (passes, used) = tree(&dp);
            let nodes = refill(&mut dp, leaf, 0);
            dp.publish();
            let to_dram = (dp.trace().counter(Counter::DramBlocksWritten) - written) / bursts;
            let (passes_after, used_after) = tree(&dp);
            assert_eq!(used_after - used, 5 * to_dram, "round {round}");
            assert_eq!(passes_after, passes, "round {round}");
            let through = nodes.iter().filter(|&&n| !middle_levels().holds(n)).count();
            assert_eq!(
                to_dram, through as u64,
                "round {round}: write-throughs only"
            );
        }
        dp.state().check_invariants().unwrap();
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
            let mut dp = Datapath::new(cfg.clone(), dram, 99, CacheRange::NONE);
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
