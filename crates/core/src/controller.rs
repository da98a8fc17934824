//! The Fork Path ORAM controller (§4, Fig 9) — a thin facade over the
//! staged pipeline.
//!
//! Each paper technique lives in its own stage module: request reordering
//! in [`LabelQueue`] (§3.4/§4.2), fork geometry in [`PathMerger`]
//! (§3.2/§4.1), dummy materialization and mid-refill replacement in
//! [`DummyReplacer`] (§3.3/§4.3). The two phases of an access — path read
//! and streaming refill over tree, stash, bucket cache (§3.5/§4.4) and DRAM
//! — are the [`Datapath`] the baseline controller drives too; it owns the
//! trusted ORAM state and the engine's tally, which every stage and the
//! request ledger count into, and publishes it to the one trace spine,
//! which is also where the statistics are read from. The facade owns the
//! address queue, the in-flight posmap chains
//! ([`crate::flight`]), and the clock, and sequences the stages per
//! access; it is driven through [`OramEngine`] only. Accessors and the timing-protection surface live
//! in the `controller_api` child module.

use fp_dram::DramSystem;
use fp_path_oram::{
    AccessTimes, Completion, CompletionLog, Datapath, NewRequest, OramConfig, OramStats,
    ReactiveSource,
};
use fp_trace::{Counter, TraceHandle};

use crate::address_queue::{AddressQueue, SubmitEffect};
use crate::config::ForkConfig;
use crate::dummy::DummyReplacer;
use crate::engine::{LlcRequest, OramEngine};
use crate::error::{must, ControllerError};
use crate::flight::{FlightTable, StepCtx};
use crate::merge::PathMerger;
use crate::plb::PosMapLookasideBuffer;
use crate::queue::{Entry, EntryKind, LabelQueue, ReplacementWindow};

#[path = "controller_api.rs"]
mod controller_api;

/// Latency of answering a request on chip (forwarding / hazard shortcut).
pub(crate) const ONCHIP_ANSWER_PS: u64 = 5_000; // 5 ns
/// How far ahead of the refill a queued real request may be and still get
/// the gap bridged with back-to-back dummy accesses (keeping the merged
/// stream warm). Beyond this the controller goes idle and the clock jumps
/// to the next arrival instead — a handful of access times, so burst-
/// internal bubbles stay merged while open-loop idle gaps cost nothing.
pub(crate) const DUMMY_BRIDGE_HORIZON_PS: u64 = 10_000_000; // 10 us

/// Disjoint mutable borrows of the facade fields a chain step may touch.
macro_rules! step_ctx {
    ($self:ident) => {
        StepCtx {
            path: &mut $self.path,
            plb: &mut $self.plb,
            aq: &mut $self.aq,
            sched: &mut $self.sched,
            completions: &mut $self.completions,
        }
    };
}

/// The Fork Path ORAM controller (see the crate docs for an example).
#[derive(Debug)]
pub struct ForkPathController {
    path: Datapath,
    aq: AddressQueue,
    sched: LabelQueue,
    merge: PathMerger,
    dummy: DummyReplacer,
    flights: FlightTable,
    /// The already-revealed next access (selected during the last refill).
    current: Option<Entry>,
    clock_ps: u64,
    /// Fixed-rate (timing-protection) mode: dummies are materialized even
    /// when no real work exists, so the access stream never pauses.
    fixed_rate: bool,
    plb: PosMapLookasideBuffer,
    times: AccessTimes,
    completions: CompletionLog,
}

impl ForkPathController {
    /// Creates a controller.
    ///
    /// # Panics
    ///
    /// Panics on an invalid fork configuration; see
    /// [`ForkPathController::try_new`] for a fallible variant.
    pub fn new(cfg: OramConfig, fork: ForkConfig, dram: DramSystem, seed: u64) -> Self {
        must(Self::try_new(cfg, fork, dram, seed))
    }

    /// Fallible constructor.
    ///
    /// # Errors
    ///
    /// [`ControllerError::InvalidConfig`] on a rejected fork configuration.
    pub fn try_new(
        cfg: OramConfig,
        fork: ForkConfig,
        dram: DramSystem,
        seed: u64,
    ) -> Result<Self, ControllerError> {
        fork.validate().map_err(ControllerError::InvalidConfig)?;
        let cache = fork.cache_range(cfg.bucket_bytes(), cfg.path_len());
        Ok(Self {
            path: Datapath::new(cfg, dram, seed, cache),
            aq: AddressQueue::new(),
            sched: LabelQueue::new(fork.label_queue_size, fork.scheduling),
            merge: PathMerger::new(fork.merging),
            dummy: DummyReplacer::new(fork.replacing),
            flights: FlightTable::default(),
            current: None,
            clock_ps: 0,
            fixed_rate: false,
            plb: PosMapLookasideBuffer::new(fork.plb_blocks),
            times: AccessTimes::default(),
            completions: CompletionLog::default(),
        })
    }

    /// Enqueues one request into the address queue (no pump), applying the
    /// hazard shortcuts (forwarding / cancellation may complete requests at
    /// once), and returns its id.
    fn enqueue_request(&mut self, req: NewRequest) -> u64 {
        let tally = self.path.tally_mut();
        let id = self.completions.open(req.arrival_ps, tally);
        let (addr, arrival_ps, tag) = (req.addr, req.arrival_ps, req.tag);
        match self.aq.submit(LlcRequest::new(id, req)) {
            SubmitEffect::Queued => {}
            SubmitEffect::Forwarded { data } => self.completions.push(
                Completion {
                    id,
                    addr,
                    data,
                    arrival_ps,
                    done_ps: arrival_ps + ONCHIP_ANSWER_PS,
                    tag,
                },
                tally,
            ),
            SubmitEffect::CancelledOlderWrite { cancelled_id } => {
                // The cancelled write is acknowledged: superseded on chip.
                // It gets a completion record, but is not a completed
                // request in the statistics.
                tally.bump(Counter::WritesCancelled);
                self.completions.push(
                    Completion {
                        id: cancelled_id,
                        addr,
                        data: Vec::new(),
                        arrival_ps,
                        done_ps: arrival_ps,
                        tag,
                    },
                    tally,
                );
            }
        }
        id
    }

    /// Enqueues one request and pumps: [`OramEngine::submit`] without
    /// ending the call, for feedback submitted inside an engine call.
    fn admit(&mut self, req: NewRequest) -> Result<u64, ControllerError> {
        let id = self.enqueue_request(req);
        self.pump()?;
        Ok(id)
    }

    /// Moves work forward: stalled chain steps first (they are older), then
    /// address-queue transformations, as far as space and hazards allow.
    fn pump(&mut self) -> Result<(), ControllerError> {
        {
            let mut ctx = step_ctx!(self);
            self.flights.retry_stalled(&mut ctx)?;
        }

        // Transform new LLC requests in order.
        while self.sched.has_space_for_real() {
            let Some(req) = self.aq.pop_ready(u64::MAX) else {
                break;
            };
            let state = self.path.state_mut();
            let (old, new) = state.start_chain(req.addr);
            let chain = state.chain(req.addr);
            let arrival = req.arrival_ps;
            let flight_id = self.flights.open(req, chain, old, new);
            let mut ctx = step_ctx!(self);
            self.flights.place_or_stall(&mut ctx, flight_id, arrival)?;
        }

        // Keep the queue padded with dummies (Fig 7b).
        let state = self.path.state_mut();
        self.sched.pad_with(|| state.random_label());
        Ok(())
    }

    /// Like [`OramEngine::process_one`], but the access starts no earlier
    /// than `not_before_ps` (the fixed-rate stream's cadence slot).
    ///
    /// # Errors
    ///
    /// Surfaces internal bookkeeping invariant violations.
    pub(crate) fn process_one_at<S: ReactiveSource + ?Sized>(
        &mut self,
        source: &mut S,
        not_before_ps: u64,
    ) -> Result<bool, ControllerError> {
        let did = self.next_access_at(source, not_before_ps);
        self.path.end_call(!matches!(did, Ok(true)));
        did
    }

    /// [`ForkPathController::process_one_at`] without ending the call.
    fn next_access_at<S: ReactiveSource + ?Sized>(
        &mut self,
        source: &mut S,
        not_before_ps: u64,
    ) -> Result<bool, ControllerError> {
        loop {
            self.flush_feedback(source)?;
            self.pump()?;
            let revealed = match self.current.take() {
                Some(c) => Some(c),
                None => self.pick_initial()?,
            };
            match revealed {
                Some(mut cur) => {
                    cur.ready_ps = cur.ready_ps.max(not_before_ps);
                    self.execute(cur, source)?;
                    return Ok(true);
                }
                // No access to execute — but pump() may have completed
                // requests straight from the stash (fast-path chain
                // steps) after the flush above. Those completions must
                // cross the feedback cursor before this call returns,
                // or an idle-exiting caller's drain_completions would
                // never surface them; and their feedback may submit new
                // work, so loop rather than flush-and-return.
                None => {
                    if self.completions.all_fed() {
                        return Ok(false);
                    }
                }
            }
        }
    }

    /// Executes one ORAM access end to end.
    fn execute<S: ReactiveSource + ?Sized>(
        &mut self,
        cur: Entry,
        source: &mut S,
    ) -> Result<(), ControllerError> {
        let levels = self.path.state().config().levels;
        let start = self.clock_ps.max(cur.ready_ps);
        self.clock_ps = start;
        self.path.trace().set_now(start);

        // --- Read phase: skip the prefix shared with the previous path ---
        // The fork floor is clamped to the leaf level, so a merged read
        // always touches at least one bucket (the leaf is re-read even on
        // identical consecutive labels).
        let read_lo = self
            .merge
            .read_floor(levels, cur.label, self.path.tally_mut());
        let read_end = self.path.read_path(cur.label, read_lo, start)?;

        // --- Block handling ---
        match cur.kind {
            EntryKind::Dummy => self.path.tally_mut().bump(Counter::DummiesExecuted),
            EntryKind::Real { flight } => {
                let completed = {
                    let mut ctx = step_ctx!(self);
                    self.flights
                        .advance_after_access(&mut ctx, flight, read_end)?
                };
                if completed {
                    // Closed-loop feedback may land inside this refill.
                    self.flush_feedback(source)?;
                }
            }
        }

        // --- Refill with pending selection and dummy replacing ---
        self.refill(cur.label, read_end)?;
        self.times.access_busy_ps += self.clock_ps.saturating_sub(start);
        self.times.finish_time_ps = self.clock_ps;
        let resident = self.path.state().stash().len() as u64;
        self.path.tally_mut().record_occupancy(resident);
        Ok(())
    }

    /// The earliest moment the replacement check can fire in a refill whose
    /// pending request was selected at `sel_time`:
    /// [`LabelQueue::take_replacement`] only returns a real entry with
    /// `sel_time < ready_ps <= now`, so it is the smallest such `ready_ps`
    /// queued. `None` when replacing is off or no real became ready after
    /// the selection.
    fn replacement_candidate_ps(&self, sel_time: u64) -> Option<u64> {
        if !self.dummy.replacing() {
            return None;
        }
        self.sched.earliest_real_ready_after(sel_time)
    }

    /// The refill: an ordered leaf-to-root bucket stream stopping above the
    /// divergence with the pending request, with mid-stream replacement.
    fn refill(&mut self, leaf: u64, read_end: u64) -> Result<(), ControllerError> {
        let levels = self.path.state().config().levels;
        let sel_time = read_end;
        self.pump()?;

        let selected = self
            .sched
            .select_pending(leaf, sel_time, self.path.tally_mut());
        // Bridge scheduling bubbles with dummies only while real work is
        // *imminent* — queued work whose ready time is within a few access
        // times of now. Work further out (open-loop schedules can stamp
        // arrivals milliseconds of simulated time apart) must not be
        // bridged: back-to-back dummies would advance the clock one access
        // latency at a time, doing work proportional to the idle gap.
        // Going idle instead lets `pick_initial` jump the clock straight
        // to the next arrival, at the cost of one merge reset (the next
        // read is a full path). Fixed-rate protection still pads every
        // slot; `enforce_fixed_rate` owns that cadence.
        let next_real_ready = self
            .sched
            .earliest_real_ready()
            .or_else(|| self.aq.head_arrival());
        let work_imminent = self.has_real_work()
            && next_real_ready
                .is_some_and(|r| r <= sel_time.saturating_add(DUMMY_BRIDGE_HORIZON_PS));
        let fixed_rate = self.fixed_rate;
        let (state, tally) = self.path.state_and_tally_mut();
        let mut pending =
            self.dummy
                .finalize(selected, work_imminent, fixed_rate, sel_time, tally, || {
                    state.random_label()
                });

        let mut stop = self
            .merge
            .write_stop(levels, leaf, pending.as_ref().map(|p| p.label));

        // Nothing joins the label queue while the refill streams — no pump
        // runs — except a displaced real that a replacement restores. So
        // the moment the first replacement candidate exists is found by one
        // scan here, and by one more after each replacement that fires.
        let mut candidate_ps = self.replacement_candidate_ps(sel_time);

        self.path.begin_refill(leaf);
        let mut t = read_end;
        let mut level = levels as i64;
        while level >= stop as i64 {
            // Replacement check before committing this bucket (Fig 5),
            // skipped while no candidate exists: the cached moment is what
            // a fresh scan of the queue finds.
            debug_assert_eq!(candidate_ps, self.replacement_candidate_ps(sel_time));
            let window = ReplacementWindow {
                levels,
                leaf,
                lo_ps: sel_time,
                now_ps: t,
                level: level as u32,
            };
            if candidate_ps.is_some_and(|ready| ready <= t)
                && self.dummy.try_replace(
                    &mut self.sched,
                    window,
                    &mut pending,
                    self.path.tally_mut(),
                )?
            {
                candidate_ps = self.replacement_candidate_ps(sel_time);
                let p = pending.as_ref().ok_or(ControllerError::MissingPending)?;
                stop = self.merge.write_stop(levels, leaf, Some(p.label));
                if (level as u32) < stop {
                    break;
                }
            }
            t = self.path.refill_level(level as u32, t);
            level -= 1;
        }
        self.clock_ps = self.path.end_refill(t);

        match &pending {
            // Idle: the full path was written; the next read is full again.
            None => self.merge.reset(self.path.tally_mut()),
            Some(_) => self.merge.commit(leaf),
        }
        self.current = pending;
        Ok(())
    }
}

impl OramEngine for ForkPathController {
    fn submit(&mut self, req: NewRequest) -> Result<u64, ControllerError> {
        let id = self.admit(req);
        self.path.end_call(id.is_err());
        id
    }

    /// Batch admission for external drivers (the serving layer): every
    /// request is enqueued first — hazard shortcuts still fire per request
    /// — and the pipeline is pumped once at the end, so a batch of `n`
    /// requests costs one scheduler fill instead of `n`.
    fn submit_batch(&mut self, batch: Vec<NewRequest>) -> Result<Vec<u64>, ControllerError> {
        let ids = batch.into_iter().map(|r| self.enqueue_request(r)).collect();
        let pumped = self.pump();
        self.path.end_call(pumped.is_err());
        pumped.map(|()| ids)
    }

    /// Executes one ORAM access (read phase, block handling, refill).
    fn process_one(&mut self, source: &mut dyn ReactiveSource) -> Result<bool, ControllerError> {
        self.process_one_at(source, 0)
    }

    /// Only completions already routed through the reactive feedback are
    /// returned; anything newer is delivered by a later drain, after the
    /// next `process_one` flushes it.
    fn drain_completions(&mut self) -> Vec<Completion> {
        let done = self.completions.drain_fed();
        if !done.is_empty() {
            self.path.end_call(!self.has_pending_work());
        }
        done
    }

    /// Real work — queued, stalled, in flight, a revealed pending real
    /// access — or a completion not yet routed through feedback (which
    /// cannot be drained yet). External drivers (the serving layer's shard
    /// workers) use this to decide between admitting the next batch and
    /// processing what is already inside; a request is not done until its
    /// completion can surface, and one more `process_one` call flushes it.
    fn has_pending_work(&self) -> bool {
        self.has_real_work()
            || self.current.as_ref().is_some_and(|c| !c.is_dummy())
            || !self.completions.all_fed()
    }

    fn clock_ps(&self) -> u64 {
        self.clock_ps
    }

    fn stats(&self) -> OramStats {
        OramStats::view(&self.path.counters(), self.path.tally(), self.times)
    }

    /// The shared trace spine every pipeline stage, the stash, and the
    /// DRAM system count for, published at the end of an engine call
    /// ([`fp_path_oram::Datapath::end_call`]).
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
    use crate::engine::{fork_with_mac, Scheme};
    use fp_dram::DramConfig;
    use fp_path_oram::NoFeedback;

    /// Accesses each test makes after its one batch submit: with that call,
    /// not a multiple of 64, so the last calls are not on the spine yet.
    const ACCESSES: u64 = 100;

    /// A `fork+mac` engine with a batch of reads submitted (one call).
    fn busy_fork_mac() -> ForkPathController {
        let Scheme::Fork(fork) = fork_with_mac(256 << 10) else {
            unreachable!("fork_with_mac builds a fork scheme");
        };
        let dram = DramSystem::new(DramConfig::ddr3_1600(2));
        let mut ctl = ForkPathController::new(OramConfig::small_test(), fork, dram, 5);
        let batch = (0..64).map(|a| NewRequest::read(a * 7, 0)).collect();
        ctl.submit_batch(batch).unwrap();
        ctl
    }

    /// One access that must find work.
    fn access(ctl: &mut ForkPathController, i: u64) {
        assert!(ctl.process_one(&mut NoFeedback).unwrap(), "access {i}");
    }

    /// Same-thread reads stay exact between publishes: `stats()` counts
    /// every access as it ends, while the spine trails the busy engine by
    /// the calls since the last publish, and the idle call makes them
    /// agree.
    #[test]
    fn stats_stay_exact_between_publishes() {
        let path_len = u64::from(OramConfig::small_test().levels) + 1;
        let mut ctl = busy_fork_mac();
        let mut written = 0;
        for i in 0..ACCESSES {
            let before = ctl.stats();
            access(&mut ctl, i);
            let after = ctl.stats();
            assert_eq!(after.oram_accesses, before.oram_accesses + 1, "{i}");
            let wrote = after.buckets_written - before.buckets_written;
            assert!((1..=path_len).contains(&wrote), "access {i} wrote {wrote}");
            written += wrote;
        }
        let exact = ctl.stats();
        assert_eq!(exact.oram_accesses, ACCESSES);
        assert_eq!(exact.buckets_written, written);
        assert_eq!(
            ctl.path.counters()[Counter::BucketsWritten as usize],
            written
        );

        // The submit and 63 accesses end call 64, the last publish.
        let spine = ctl.trace().counters();
        let c = |c: Counter| spine[c as usize];
        assert_eq!(c(Counter::FullReads) + c(Counter::MergedReads), 63);
        assert!(c(Counter::BucketsWritten) < written);

        while ctl.process_one(&mut NoFeedback).unwrap() {}
        assert_eq!(ctl.trace().counters(), ctl.path.counters());
        let idle = ctl.stats();
        let times = AccessTimes {
            access_busy_ps: idle.access_busy_ps,
            finish_time_ps: idle.finish_time_ps,
        };
        let spine = ctl.trace().counters();
        assert_eq!(OramStats::view(&spine, ctl.path.tally(), times), idle);
    }

    /// A drain is an engine call only when it hands out completions
    /// (`Datapath::end_call`): on a busy engine between publishes, one
    /// that hands out none leaves the spine as it was, and one that hands
    /// some out waits for the 64-call cadence like any other call.
    #[test]
    fn a_drain_that_hands_out_nothing_leaves_the_spine_unchanged() {
        let mut ctl = busy_fork_mac();
        let spine = ctl.trace().counters();
        assert_ne!(ctl.path.counters(), spine, "the submit is not published");
        assert!(ctl.drain_completions().is_empty(), "nothing has completed");
        assert_eq!(ctl.trace().counters(), spine, "an empty drain");
        let mut i = 0;
        while ctl.drain_completions().is_empty() {
            access(&mut ctl, i);
            i += 1;
        }
        assert!(i < 30 && ctl.has_pending_work(), "{i} accesses, busy");
        assert_eq!(ctl.trace().counters(), spine, "a drain on a busy engine");
    }

    /// The stated loss rule: an engine dropped between publishes loses
    /// the counts of the calls since its last publish, and only those —
    /// the spine keeps the cut of whole calls that publish made.
    #[test]
    fn a_dropped_engine_loses_the_calls_since_its_last_publish() {
        let mut ctl = busy_fork_mac();
        let mut at_publish = None;
        for i in 0..ACCESSES {
            access(&mut ctl, i);
            if i == 62 {
                // Call 64 published: the spine is exact.
                assert_eq!(ctl.trace().counters(), ctl.path.counters());
                at_publish = Some(ctl.path.counters());
            }
        }
        let exact = ctl.path.counters();
        let trace = ctl.trace().clone();
        drop(ctl);
        let kept = trace.counters();
        assert_eq!(Some(kept), at_publish, "whole calls up to the publish");
        let lost = |c: Counter| exact[c as usize] - kept[c as usize];
        assert_eq!(
            lost(Counter::FullReads) + lost(Counter::MergedReads),
            ACCESSES - 63
        );
    }
}
