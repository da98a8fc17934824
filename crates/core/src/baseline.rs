//! The traditional Path ORAM controller (the paper's baseline).
//!
//! Requests are processed strictly in order; every ORAM access traverses a
//! *complete* path: read all `L + 1` buckets, then refill all `L + 1`
//! buckets (§2.3 steps 1–5). [`crate::ForkPathController`] drives the same
//! [`Datapath`] and replaces this orchestration; the two share nothing
//! else but the [`CompletionLog`], so the baseline stays an independent
//! oracle for Fork Path (DESIGN.md §7 item 7).

use std::collections::VecDeque;

use fp_dram::DramSystem;
use fp_path_oram::cache::CacheRange;
use fp_path_oram::{
    AccessTimes, Completion, CompletionLog, Datapath, NewRequest, OramConfig, OramState, OramStats,
    ReactiveSource,
};
use fp_trace::{Counter, TraceHandle};

use crate::engine::{LlcRequest, OramEngine};
use crate::error::ControllerError;

/// The baseline Path ORAM controller.
///
/// # Example
///
/// ```
/// use fp_core::{BaselineController, NewRequest, OramEngine};
/// use fp_dram::{DramConfig, DramSystem};
/// use fp_path_oram::OramConfig;
///
/// let dram = DramSystem::new(DramConfig::ddr3_1600(2));
/// let mut ctl = BaselineController::new(OramConfig::small_test(), dram, 1);
/// ctl.submit(NewRequest::write(3, vec![9; 16], 0)).unwrap();
/// ctl.submit(NewRequest::read(3, 0)).unwrap();
/// let done = ctl.run_to_idle().unwrap();
/// assert_eq!(done[1].data[0], 9);
/// ```
#[derive(Debug)]
pub struct BaselineController {
    path: Datapath,
    queue: VecDeque<LlcRequest>,
    clock_ps: u64,
    times: AccessTimes,
    completions: CompletionLog,
}

impl BaselineController {
    /// Creates a controller with no on-chip bucket cache.
    pub fn new(cfg: OramConfig, dram: DramSystem, seed: u64) -> Self {
        Self::with_cache(cfg, dram, seed, CacheRange::NONE)
    }

    /// Creates a controller with a treetop cache of `bytes` capacity.
    pub fn with_treetop(cfg: OramConfig, dram: DramSystem, seed: u64, bytes: u64) -> Self {
        let cache = CacheRange::treetop(bytes, cfg.bucket_bytes());
        Self::with_cache(cfg, dram, seed, cache)
    }

    fn with_cache(cfg: OramConfig, dram: DramSystem, seed: u64, cache: CacheRange) -> Self {
        Self {
            path: Datapath::new(cfg, dram, seed, cache),
            queue: VecDeque::new(),
            clock_ps: 0,
            times: AccessTimes::default(),
            completions: CompletionLog::default(),
        }
    }

    /// Routes every not-yet-fed completion through `source`, submitting any
    /// follow-up requests it produces, until quiescent.
    fn flush_feedback(&mut self, source: &mut dyn ReactiveSource) {
        while let Some(completion) = self.completions.next_unfed() {
            for r in source.on_complete(&completion) {
                self.enqueue(r);
            }
        }
    }

    /// Numbers and queues one request: [`OramEngine::submit`] without
    /// ending the call.
    fn enqueue(&mut self, req: NewRequest) -> u64 {
        let id = self.completions.open(req.arrival_ps, self.path.tally_mut());
        self.queue.push_back(LlcRequest::new(id, req));
        id
    }

    /// Processes the next queued request; see [`OramEngine::process_one`],
    /// which ends the call after it.
    fn next_request(&mut self, source: &mut dyn ReactiveSource) -> Result<bool, ControllerError> {
        self.flush_feedback(source);
        let Some(req) = self.queue.pop_front() else {
            return Ok(false);
        };
        let done = self.process(req)?;
        self.completions.push(done, self.path.tally_mut());
        self.flush_feedback(source);
        Ok(true)
    }

    /// Starts recording the externally visible leaf-label sequence.
    pub fn enable_label_trace(&mut self) {
        self.path.enable_label_trace();
    }

    /// The recorded label sequence, if tracing was enabled.
    pub fn label_trace(&self) -> Option<&[u64]> {
        self.path.label_trace()
    }

    /// The trusted ORAM state (for invariant checks in tests).
    pub fn state(&self) -> &OramState {
        self.path.state()
    }

    fn process(&mut self, req: LlcRequest) -> Result<Completion, ControllerError> {
        self.clock_ps = self.clock_ps.max(req.arrival_ps);
        self.path.trace().set_now(self.clock_ps);
        let chain = self.path.state().chain(req.addr);
        let (mut old, mut new) = self.path.state_mut().start_chain(req.addr);

        if self.path.state().stash_hit(req.addr) {
            self.path.tally_mut().bump(Counter::StashHits);
        }

        let mut data = Vec::new();
        let mut done_ps = self.clock_ps;
        for (i, &u) in chain.iter().enumerate() {
            // Step 1: a block already in the stash is handled on chip with
            // no ORAM access ("returned to LLC immediately").
            let state = self.path.state_mut();
            if state.stash_hit(u) {
                if i + 1 < chain.len() {
                    (old, new) = state.chain_step(u, new, chain[i + 1]);
                } else {
                    data = state.apply_op(u, new, req.data.as_deref());
                    done_ps = self.clock_ps;
                }
                self.path.tally_mut().bump(Counter::StashHits);
                continue;
            }
            // Read phase: the complete path.
            let access_start = self.clock_ps;
            let read_end = self.read_full_path(old)?;

            // Block handling between the phases.
            let state = self.path.state_mut();
            if i + 1 < chain.len() {
                let (o, n) = state.chain_step(u, new, chain[i + 1]);
                self.refill_full_path(old, read_end);
                old = o;
                new = n;
            } else {
                data = state.apply_op(u, new, req.data.as_deref());
                done_ps = read_end;
                self.refill_full_path(old, read_end);
            }
            self.times.access_busy_ps += self.clock_ps.saturating_sub(access_start);
            let resident = self.path.state().stash().len() as u64;
            self.path.tally_mut().record_occupancy(resident);
        }
        self.drain_stash_pressure()?;

        self.times.finish_time_ps = self.clock_ps;
        Ok(Completion {
            id: req.id,
            addr: req.addr,
            data,
            arrival_ps: req.arrival_ps,
            done_ps,
            tag: req.tag,
        })
    }

    /// One complete-path read phase at the current clock; returns when the
    /// data is available.
    fn read_full_path(&mut self, leaf: u64) -> Result<u64, ControllerError> {
        let read_end = self.path.read_path(leaf, 0, self.clock_ps)?;
        self.path.tally_mut().bump(Counter::FullReads);
        Ok(read_end)
    }

    /// Refills the full path, leaf to root, and advances the clock past the
    /// write phase.
    fn refill_full_path(&mut self, leaf: u64, read_end: u64) {
        self.path.begin_refill(leaf);
        let mut t = read_end;
        for level in (0..=self.path.state().config().levels).rev() {
            t = self.path.refill_level(level, t);
        }
        self.clock_ps = self.path.end_refill(t);
    }

    /// Background eviction (Ren et al. [18]): if the stash exceeds its
    /// nominal capacity, issue dummy accesses until pressure subsides.
    fn drain_stash_pressure(&mut self) -> Result<(), ControllerError> {
        let mut guard = 0;
        while self.path.state().stash().over_capacity() && guard < 64 {
            let label = self.path.state_mut().random_label();
            let read_end = self.read_full_path(label)?;
            self.refill_full_path(label, read_end);
            self.path.tally_mut().bump(Counter::DummiesExecuted);
            guard += 1;
        }
        Ok(())
    }
}

impl OramEngine for BaselineController {
    fn submit(&mut self, req: NewRequest) -> Result<u64, ControllerError> {
        let id = self.enqueue(req);
        self.path.end_call(false);
        Ok(id)
    }

    /// Processes one queued request end to end (FIFO order), routing the
    /// resulting completion — and any earlier unflushed ones — through
    /// `source` so follow-up requests join the queue. Requests are consumed
    /// strictly in submission order, so interleaving `submit` and
    /// `process_one` in any order produces the same completions,
    /// statistics and stash state as submitting everything first.
    ///
    /// Surfaces [`ControllerError::Integrity`] when a fetched bucket's image
    /// has a length the tree store never writes (a framing error or an
    /// injected fault; nothing detects tampering, DESIGN.md §2 item 6).
    fn process_one(&mut self, source: &mut dyn ReactiveSource) -> Result<bool, ControllerError> {
        let did = self.next_request(source);
        self.path.end_call(!matches!(did, Ok(true)));
        did
    }

    fn drain_completions(&mut self) -> Vec<Completion> {
        let done = self.completions.drain_fed();
        if !done.is_empty() {
            self.path.end_call(!self.has_pending_work());
        }
        done
    }

    fn has_pending_work(&self) -> bool {
        !self.queue.is_empty()
    }

    fn clock_ps(&self) -> u64 {
        self.clock_ps
    }

    fn stats(&self) -> OramStats {
        OramStats::view(&self.path.counters(), self.path.tally(), self.times)
    }

    fn trace(&self) -> &TraceHandle {
        self.path.trace()
    }

    fn set_trace_capacity(&mut self, capacity: usize) {
        self.path.publish();
        self.path.trace().set_capacity(capacity);
    }

    fn dram(&self) -> &DramSystem {
        self.path.dram()
    }

    fn stash_high_water(&self) -> usize {
        self.state().stash().high_water()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fp_dram::DramConfig;
    use fp_path_oram::Op;

    fn controller() -> BaselineController {
        let dram = DramSystem::new(DramConfig::ddr3_1600(2));
        BaselineController::new(OramConfig::small_test(), dram, 7)
    }

    /// Submits one request at the controller's clock and runs it to
    /// completion; returns the data it read.
    fn access(ctl: &mut BaselineController, addr: u64, op: Op, data: Vec<u8>) -> Vec<u8> {
        let arrival_ps = ctl.clock_ps();
        let req = NewRequest {
            addr,
            op,
            data,
            arrival_ps,
            tag: 0,
        };
        ctl.submit(req).unwrap();
        ctl.run_to_idle()
            .unwrap()
            .pop()
            .expect("one completion")
            .data
    }

    #[test]
    fn write_then_read_returns_data() {
        let mut ctl = controller();
        let payload = vec![0x5A; 16];
        access(&mut ctl, 100, Op::Write, payload.clone());
        let got = access(&mut ctl, 100, Op::Read, vec![]);
        assert_eq!(got, payload);
        ctl.state().check_invariants().unwrap();
    }

    #[test]
    fn unwritten_block_reads_zero() {
        let mut ctl = controller();
        let got = access(&mut ctl, 55, Op::Read, vec![]);
        assert_eq!(got, vec![0u8; 16]);
    }

    #[test]
    fn every_access_touches_full_paths() {
        let mut ctl = controller();
        access(&mut ctl, 1, Op::Read, vec![]);
        let stats = ctl.stats();
        let path_len = 10.0; // small_test: levels = 9
        assert_eq!(stats.avg_path_len(), path_len);
        // small_test hierarchy: 2 posmap levels + data = 3 accesses.
        assert_eq!(stats.oram_accesses, 3);
    }

    #[test]
    fn latency_accumulates_and_clock_advances() {
        let mut ctl = controller();
        ctl.submit(NewRequest::read(1, 0)).unwrap();
        ctl.submit(NewRequest::read(2, 0)).unwrap();
        let done = ctl.run_to_idle().unwrap();
        assert!(done[0].done_ps > 0);
        assert!(done[1].done_ps > done[0].done_ps, "requests serialize");
        assert!(ctl.stats().avg_latency_ns() > 0.0);
        // The second request queues behind the first, so it waits longer.
        let l0 = done[0].done_ps - done[0].arrival_ps;
        let l1 = done[1].done_ps - done[1].arrival_ps;
        assert!(l1 > l0);
    }

    #[test]
    fn treetop_reduces_dram_traffic() {
        let dram = DramSystem::new(DramConfig::ddr3_1600(2));
        let mut plain = BaselineController::new(OramConfig::small_test(), dram, 7);
        let dram = DramSystem::new(DramConfig::ddr3_1600(2));
        let mut cached =
            BaselineController::with_treetop(OramConfig::small_test(), dram, 7, 16 << 10);
        for addr in 0..32 {
            access(&mut plain, addr, Op::Read, vec![]);
            access(&mut cached, addr, Op::Read, vec![]);
        }
        assert!(cached.stats().dram_blocks_read < plain.stats().dram_blocks_read);
        assert!(cached.stats().cache_hits > 0);
        assert!(
            cached.stats().finish_time_ps < plain.stats().finish_time_ps,
            "treetop caching should save time"
        );
    }

    #[test]
    fn label_trace_has_one_label_per_access() {
        let mut ctl = controller();
        ctl.enable_label_trace();
        for addr in 0..8 {
            access(&mut ctl, addr, Op::Read, vec![]);
        }
        let trace = ctl.label_trace().unwrap();
        assert_eq!(trace.len() as u64, ctl.stats().oram_accesses);
        let leaves = ctl.state().config().leaf_count();
        assert!(trace.iter().all(|&l| l < leaves));
    }

    #[test]
    fn repeated_access_remaps_to_fresh_paths() {
        let mut ctl = controller();
        ctl.enable_label_trace();
        for _ in 0..24 {
            access(&mut ctl, 42, Op::Read, vec![]);
        }
        let trace = ctl.label_trace().unwrap();
        let distinct: std::collections::HashSet<_> = trace.iter().collect();
        assert!(
            distinct.len() > trace.len() / 2,
            "same address must not revisit the same path: {} distinct of {}",
            distinct.len(),
            trace.len()
        );
    }

    #[test]
    fn stash_stays_bounded_under_load() {
        let mut ctl = controller();
        for i in 0..300u64 {
            access(
                &mut ctl,
                i % 64,
                if i % 3 == 0 { Op::Write } else { Op::Read },
                vec![1; 16],
            );
        }
        ctl.state().check_invariants().unwrap();
        assert!(
            ctl.state().stash().high_water() < 150,
            "stash high water {} should stay modest",
            ctl.state().stash().high_water()
        );
    }
}
