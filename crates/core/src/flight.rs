//! In-flight LLC requests walking their posmap chains.
//!
//! Internal support machinery for the pipeline (not one of the four paper
//! stages): tracks every LLC request from transformation until its data
//! step completes, enforces same-block serialization through per-block
//! waiter queues, and retries chain steps that could not enter the label
//! queue. Stash-hit steps are completed on chip here (the paper's Step 1 —
//! a hit is "returned to LLC immediately").

use std::collections::VecDeque;

use fp_path_oram::keyed::U64Map;
use fp_path_oram::{Completion, CompletionLog, Datapath, OramState};
use fp_trace::Counter;

use crate::address_queue::AddressQueue;
use crate::controller::ONCHIP_ANSWER_PS;
use crate::engine::LlcRequest;
use crate::error::ControllerError;
use crate::plb::PosMapLookasideBuffer;
use crate::queue::{EntryKind, LabelQueue};

/// An in-progress LLC request walking its posmap chain.
#[derive(Debug, Clone)]
pub(crate) struct Flight {
    pub req: LlcRequest,
    pub chain: Vec<u64>,
    /// Index of the chain element the queued label-queue entry refers to.
    pub idx: usize,
    pub old_label: u64,
    pub new_label: u64,
}

/// Why a chain step could not be placed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Stall {
    /// Parked behind the owner of this block (its unified address, the
    /// serialization key): only that owner's
    /// [`FlightTable::release_block`] can let it move.
    Parked(u64),
    /// It owns its key, but the label queue is full of real requests. A
    /// `select` frees a slot and a block arriving in the stash completes
    /// the step on chip, so this is re-tried on every pump.
    QueueFull,
}

/// A chain step that could not enter the label queue yet, and why.
#[derive(Debug, Clone, Copy)]
struct StalledStep {
    flight: u64,
    ready_ps: u64,
    why: Stall,
}

/// The controller state a chain step may touch while being placed:
/// disjoint mutable borrows of the facade's other fields. Of the datapath a
/// step uses the trusted state and the trace spine, never a phase.
pub(crate) struct StepCtx<'a> {
    pub path: &'a mut Datapath,
    pub plb: &'a mut PosMapLookasideBuffer,
    pub aq: &'a mut AddressQueue,
    pub sched: &'a mut LabelQueue,
    pub completions: &'a mut CompletionLog,
}

/// Records a posmap-block use in the PLB, pinning it in the stash and
/// unpinning the evicted victim (Freecursive [12]; no-op when disabled).
pub(crate) fn note_posmap_use(state: &mut OramState, plb: &mut PosMapLookasideBuffer, block: u64) {
    if plb.is_disabled() {
        return;
    }
    state.pin_block(block);
    if let Some(evicted) = plb.touch(block) {
        state.unpin_block(evicted);
    }
}

/// Live flights plus the serialization and retry bookkeeping around them.
///
/// **Wake invariant.** A stalled step is re-tried only when its outcome can
/// have changed. A step stalled on [`Stall::QueueFull`] is re-tried by
/// every scan. A step parked on key K may be skipped: until it is the front
/// of `busy[K]` a re-try finds another owner, finds itself already among
/// the waiters and returns — no side effect — and the front of `busy[K]`
/// changes only in [`FlightTable::release_block`], which notes K in
/// `released` whenever it leaves waiters behind. A scan
/// ([`FlightTable::retry_stalled`]) therefore re-tries the parked steps
/// whose key was released since the steps *before them in the FIFO* were
/// last tried, in two generations: keys released before the scan started,
/// and keys released during it by a step earlier in the FIFO. The first
/// generation is dropped when the scan ends (every step has seen it); the
/// second is kept for the next scan, because the steps ahead of the
/// releaser had already been passed. That is retry for retry the order of
/// re-trying every step on every scan, and a `debug_assert!` on every
/// skipped step (it is still a waiter, not the front, of `busy[K]`) holds
/// the equivalence in every debug test.
#[derive(Debug, Default)]
pub(crate) struct FlightTable {
    flights: U64Map<Flight>,
    next_flight: u64,
    /// FIFO of flights waiting to access each unified block. The front is
    /// the owner; everyone else is parked. A step joins the queue the
    /// moment it is *created* — even while stalled outside the label queue
    /// — so same-block steps from different flights always execute in
    /// creation order (a newly created step can never overtake a parked
    /// one, which would let it run with a stale label).
    busy: U64Map<VecDeque<u64>>,
    stalled: VecDeque<StalledStep>,
    /// Steps of `stalled` on [`Stall::QueueFull`].
    queue_full: usize,
    /// Keys whose owner left waiters behind, oldest release first; emptied
    /// by the scans (see the wake invariant above).
    released: Vec<u64>,
}

impl FlightTable {
    /// Whether any request is in flight.
    pub(crate) fn is_empty(&self) -> bool {
        self.flights.is_empty()
    }

    /// Registers a new flight; returns its id.
    pub(crate) fn open(
        &mut self,
        req: LlcRequest,
        chain: Vec<u64>,
        old_label: u64,
        new_label: u64,
    ) -> u64 {
        let id = self.next_flight;
        self.next_flight += 1;
        self.flights.insert(
            id,
            Flight {
                req,
                chain,
                idx: 0,
                old_label,
                new_label,
            },
        );
        id
    }

    pub(crate) fn get(&self, id: u64) -> Result<&Flight, ControllerError> {
        self.flights
            .get(&id)
            .ok_or(ControllerError::UnknownFlight(id))
    }

    pub(crate) fn get_mut(&mut self, id: u64) -> Result<&mut Flight, ControllerError> {
        self.flights
            .get_mut(&id)
            .ok_or(ControllerError::UnknownFlight(id))
    }

    pub(crate) fn remove(&mut self, id: u64) -> Result<Flight, ControllerError> {
        self.flights
            .remove(&id)
            .ok_or(ControllerError::UnknownFlight(id))
    }

    /// Places a flight's current chain step, or parks it at the back of
    /// the stalled FIFO with the reason it could not be placed.
    ///
    /// # Errors
    ///
    /// Propagates invariant violations from step placement.
    pub(crate) fn place_or_stall(
        &mut self,
        ctx: &mut StepCtx<'_>,
        flight: u64,
        ready_ps: u64,
    ) -> Result<(), ControllerError> {
        if let Some(why) = self.try_enqueue_step(ctx, flight, ready_ps)? {
            self.stall(StalledStep {
                flight,
                ready_ps,
                why,
            });
        }
        Ok(())
    }

    /// Puts `step` at the back of the stalled FIFO.
    fn stall(&mut self, step: StalledStep) {
        self.queue_full += usize::from(step.why == Stall::QueueFull);
        self.stalled.push_back(step);
    }

    /// One scan of the stalled FIFO, oldest step first (they are older than
    /// anything the address queue could produce): re-tries the steps whose
    /// outcome can have changed — see the wake invariant on
    /// [`FlightTable`] — and keeps the rest, in order. With no key released
    /// and no step on a full queue, no step can move, and the scan ends
    /// before it starts.
    ///
    /// # Errors
    ///
    /// Propagates invariant violations from step placement.
    // Allocation-free once warm: tests/hot_path_alloc.rs.
    pub(crate) fn retry_stalled(&mut self, ctx: &mut StepCtx<'_>) -> Result<(), ControllerError> {
        if self.released.is_empty() && self.queue_full == 0 {
            debug_assert!(
                self.stalled.iter().all(|step| self.is_parked(step)),
                "skipped a step that could move"
            );
            return Ok(());
        }
        let released_before = self.released.len();
        for _ in 0..self.stalled.len() {
            let Some(mut step) = self.stalled.pop_front() else {
                break;
            };
            self.queue_full -= usize::from(step.why == Stall::QueueFull);
            let woken = match step.why {
                Stall::QueueFull => true,
                Stall::Parked(key) => self.released.contains(&key),
            };
            if woken {
                match self.try_enqueue_step(ctx, step.flight, step.ready_ps)? {
                    None => continue,
                    Some(why) => step.why = why,
                }
            } else {
                debug_assert!(self.is_parked(&step), "skipped a step that could move");
            }
            self.stall(step);
        }
        self.released.drain(..released_before);
        Ok(())
    }

    /// Whether `step` waits in its key's queue behind another owner, so
    /// that re-trying it would change nothing.
    fn is_parked(&self, step: &StalledStep) -> bool {
        let Stall::Parked(key) = step.why else {
            return false;
        };
        self.busy.get(&key).is_some_and(|waiters| {
            waiters.front() != Some(&step.flight) && waiters.contains(&step.flight)
        })
    }

    /// Releases a flight's ownership of `block`, passing it to the oldest
    /// parked waiter (which will claim it on its next stalled retry: the
    /// key is noted so that retry happens).
    ///
    /// # Errors
    ///
    /// [`ControllerError::NotBlockOwner`] if `flight` is not at the front
    /// of the block's waiter queue.
    pub(crate) fn release_block(&mut self, block: u64, flight: u64) -> Result<(), ControllerError> {
        if let Some(waiters) = self.busy.get_mut(&block) {
            if waiters.front() != Some(&flight) {
                return Err(ControllerError::NotBlockOwner { block, flight });
            }
            waiters.pop_front();
            if waiters.is_empty() {
                self.busy.remove(&block);
            } else {
                self.released.push(block);
            }
        }
        Ok(())
    }

    /// Advances a flight whose ORAM access returned data at `read_end_ps`:
    /// a mid-chain posmap step is relabelled and its successor scheduled
    /// (stalled if it cannot be placed); the final data step applies the
    /// request's operation and completes it. Returns `true` when the
    /// request completed — the caller must then flush reactive feedback.
    ///
    /// # Errors
    ///
    /// Propagates bookkeeping invariant violations.
    pub(crate) fn advance_after_access(
        &mut self,
        ctx: &mut StepCtx<'_>,
        flight_id: u64,
        read_end_ps: u64,
    ) -> Result<bool, ControllerError> {
        let flight = self.get(flight_id)?;
        let (idx, len) = (flight.idx, flight.chain.len());
        if idx >= len {
            return Err(ControllerError::ChainIndexOutOfRange {
                flight: flight_id,
                idx,
                len,
            });
        }
        let block = flight.chain[idx];
        self.release_block(block, flight_id)?;

        if idx + 1 < len {
            self.advance_chain(ctx, flight_id)?;
            self.place_or_stall(ctx, flight_id, read_end_ps)?;
            Ok(false)
        } else {
            self.finish(ctx, flight_id, read_end_ps)?;
            Ok(true)
        }
    }

    /// Advances a flight one posmap chain step: relabels the current chain
    /// block, reads the next block's label out of it, and moves the flight
    /// to that block. The caller has checked a next block exists.
    fn advance_chain(
        &mut self,
        ctx: &mut StepCtx<'_>,
        flight_id: u64,
    ) -> Result<(), ControllerError> {
        let flight = self.get_mut(flight_id)?;
        let (block, next_block) = (flight.chain[flight.idx], flight.chain[flight.idx + 1]);
        let state = ctx.path.state_mut();
        let (o, n) = state.chain_step(block, flight.new_label, next_block);
        flight.idx += 1;
        flight.old_label = o;
        flight.new_label = n;
        note_posmap_use(state, ctx.plb, block);
        Ok(())
    }

    /// Finishes a flight standing on its data block at `done_ps`: applies
    /// the request's operation, retires it from the address queue, and
    /// closes it in the ledger.
    fn finish(
        &mut self,
        ctx: &mut StepCtx<'_>,
        flight_id: u64,
        done_ps: u64,
    ) -> Result<(), ControllerError> {
        let Flight {
            req,
            chain,
            idx,
            new_label,
            ..
        } = self.remove(flight_id)?;
        let data = ctx
            .path
            .state_mut()
            .apply_op(chain[idx], new_label, req.data.as_deref());
        ctx.aq.complete(req.addr, req.op);
        let completion = Completion {
            id: req.id,
            addr: req.addr,
            data,
            arrival_ps: req.arrival_ps,
            done_ps,
            tag: req.tag,
        };
        ctx.completions.push(completion, ctx.path.tally_mut());
        Ok(())
    }

    /// Places a flight's current chain step: consecutive steps whose block
    /// is already in the stash are completed on chip with no ORAM access;
    /// the first missing step enters the label queue. Returns `None` when
    /// the step was placed (or the request completed on chip), else why it
    /// stays stalled: the target block already has a live entry (same-block
    /// serialization) or the queue is full of reals.
    ///
    /// # Errors
    ///
    /// Propagates bookkeeping invariant violations (unknown flight, chain
    /// index overrun, foreign block release).
    fn try_enqueue_step(
        &mut self,
        ctx: &mut StepCtx<'_>,
        flight_id: u64,
        ready_ps: u64,
    ) -> Result<Option<Stall>, ControllerError> {
        let mut ready = ready_ps;
        loop {
            let flight = self.get(flight_id)?;
            let (idx, len) = (flight.idx, flight.chain.len());
            if idx >= len {
                return Err(ControllerError::ChainIndexOutOfRange {
                    flight: flight_id,
                    idx,
                    len,
                });
            }
            let block = flight.chain[idx];
            // Join (or verify ownership of) the block's waiter queue.
            {
                let waiters = self.busy.entry(block).or_default();
                match waiters.front() {
                    Some(&owner) if owner != flight_id => {
                        if !waiters.contains(&flight_id) {
                            waiters.push_back(flight_id);
                        }
                        return Ok(Some(Stall::Parked(block)));
                    }
                    Some(_) => {} // already the owner (retry)
                    None => waiters.push_back(flight_id),
                }
            }
            if ctx.path.state().stash_hit(block) {
                // On-chip fast path: relabel + payload handling, no access.
                self.release_block(block, flight_id)?;
                ctx.path.tally_mut().bump(Counter::StashHits);
                ready += ONCHIP_ANSWER_PS;
                if idx + 1 < len {
                    self.advance_chain(ctx, flight_id)?;
                    continue;
                }
                self.finish(ctx, flight_id, ready)?;
                return Ok(None);
            }
            // Ownership (queue front) is already held; a failed label-queue
            // insertion keeps it so later same-block steps stay parked.
            let label = self.get(flight_id)?.old_label;
            let kind = EntryKind::Real { flight: flight_id };
            if ctx.sched.insert_real(label, kind, ready).is_err() {
                return Ok(Some(Stall::QueueFull));
            }
            return Ok(None);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fp_dram::{DramConfig, DramSystem};
    use fp_path_oram::cache::CacheRange;
    use fp_path_oram::{Op, OramConfig};

    /// A flight table with the controller state a chain step touches, and
    /// no controller: the tests decide when an access returns and when a
    /// scan runs. One posmap level: `chain(addr)` is `[1024 + addr / 4,
    /// addr]`, so four neighbouring addresses share a posmap block.
    struct Rig {
        path: Datapath,
        plb: PosMapLookasideBuffer,
        aq: AddressQueue,
        sched: LabelQueue,
        completions: CompletionLog,
        flights: FlightTable,
    }

    impl Rig {
        fn new(label_queue_size: usize) -> Self {
            let cfg = OramConfig {
                onchip_posmap_entries: 256,
                ..OramConfig::small_test()
            };
            let dram = DramSystem::new(DramConfig::ddr3_1600(2));
            Self {
                path: Datapath::new(cfg, dram, 7, CacheRange::NONE),
                plb: PosMapLookasideBuffer::new(0),
                aq: AddressQueue::new(),
                sched: LabelQueue::new(label_queue_size, true),
                completions: CompletionLog::default(),
                flights: FlightTable::default(),
            }
        }

        fn split(&mut self) -> (&mut FlightTable, StepCtx<'_>) {
            let ctx = StepCtx {
                path: &mut self.path,
                plb: &mut self.plb,
                aq: &mut self.aq,
                sched: &mut self.sched,
                completions: &mut self.completions,
            };
            (&mut self.flights, ctx)
        }

        /// Opens a read of `addr` walking `chain` and tries to place its
        /// first step, as `pump` does for a request off the address queue.
        fn open_chain(&mut self, addr: u64, chain: Vec<u64>) -> u64 {
            let state = self.path.state_mut();
            let (old, new) = (state.random_label(), state.random_label());
            let req = LlcRequest {
                id: self.flights.next_flight,
                addr,
                op: Op::Read,
                data: None,
                arrival_ps: 0,
                tag: 0,
            };
            let (flights, mut ctx) = self.split();
            let id = flights.open(req, chain, old, new);
            flights.place_or_stall(&mut ctx, id, 0).unwrap();
            id
        }

        /// A read of `addr` from the top of its posmap chain.
        fn open(&mut self, addr: u64) -> u64 {
            let chain = self.path.state().chain(addr);
            self.open_chain(addr, chain)
        }

        /// The access of `flight`, the one real in the label queue, returns.
        fn access(&mut self, flight: u64) {
            let tally = self.path.tally_mut();
            let picked = self.sched.select_pending(0, u64::MAX, tally).unwrap();
            assert_eq!(picked.kind, EntryKind::Real { flight });
            let (flights, mut ctx) = self.split();
            flights
                .advance_after_access(&mut ctx, flight, 1_000)
                .unwrap();
        }

        fn scan(&mut self) {
            let (flights, mut ctx) = self.split();
            flights.retry_stalled(&mut ctx).unwrap();
        }

        /// The stalled FIFO, front first; its count of steps on a full
        /// queue is exact.
        fn stalled(&self) -> Vec<(u64, Stall)> {
            let steps: Vec<_> = self
                .flights
                .stalled
                .iter()
                .map(|s| (s.flight, s.why))
                .collect();
            let full = steps.iter().filter(|(_, why)| *why == Stall::QueueFull);
            assert_eq!(self.flights.queue_full, full.count());
            steps
        }

        fn done(&self, flight: u64) -> bool {
            self.flights.get(flight).is_err()
        }
    }

    /// (a) A step parked behind an owner sleeps through a pump that
    /// released nothing, and the first pump after the owner's release
    /// places it.
    #[test]
    fn parked_step_sleeps_until_its_owner_releases() {
        let mut rig = Rig::new(4);
        let owner = rig.open(4);
        let parked = rig.open(5);
        assert_eq!(rig.stalled(), [(parked, Stall::Parked(1025))]);

        // With the flight's record hidden any re-try of its step fails
        // with `UnknownFlight`; a skipped step is never looked up.
        let record = rig.flights.flights.remove(&parked).unwrap();
        rig.scan();
        rig.flights.flights.insert(parked, record);
        assert_eq!(rig.stalled(), [(parked, Stall::Parked(1025))]);

        // The owner's access returns: its posmap block stays in the stash,
        // so the woken step walks through it on chip to its data block.
        rig.access(owner);
        assert_eq!(rig.flights.released, [1025]);
        rig.scan();
        assert_eq!(rig.stalled(), []);
        assert_eq!(rig.flights.get(parked).unwrap().idx, 1);
        assert_eq!(rig.sched.real_count(), 2, "both data steps are queued");
        assert_eq!(rig.flights.released, []);
    }

    /// (b) The two generations. A re-try that completes on chip mid-scan
    /// releases its key: the waiter later in the FIFO moves in the same
    /// scan, the waiter earlier in the FIFO — already passed — in the next
    /// one, as when every scan re-tried every step.
    #[test]
    fn release_mid_scan_wakes_later_steps_now_and_earlier_steps_next_scan() {
        let mut rig = Rig::new(1);
        let owner = rig.open(4);
        // `earlier` takes the first FIFO slot parked on the posmap block;
        // `releaser` and `later` already stand on data block 7.
        let earlier = rig.open(7);
        let releaser = rig.open_chain(7, vec![7]);
        let later = rig.open_chain(7, vec![7]);
        assert_eq!(
            rig.stalled(),
            [
                (earlier, Stall::Parked(1025)),
                (releaser, Stall::QueueFull),
                (later, Stall::Parked(7)),
            ]
        );

        // `earlier` is woken, walks through the posmap block on chip and
        // parks on block 7 behind the other two, keeping its FIFO slot.
        rig.access(owner);
        rig.scan();
        assert_eq!(
            rig.stalled(),
            [
                (earlier, Stall::Parked(7)),
                (releaser, Stall::QueueFull),
                (later, Stall::Parked(7)),
            ]
        );

        // Block 7 reaches the stash (another access's path carried it).
        let state = rig.path.state_mut();
        let leaf = state.random_label();
        state.apply_op(7, leaf, None);
        rig.scan();
        assert!(rig.done(releaser) && rig.done(later), "the same scan");
        assert_eq!(rig.stalled(), [(earlier, Stall::Parked(7))]);
        rig.scan();
        assert!(rig.done(earlier), "the next scan");
        assert_eq!(rig.stalled(), []);
        assert_eq!(rig.flights.released, []);
    }

    /// (c) A step stalled on a label queue full of reals is re-tried by
    /// every pump — no release wakes it — and placed as soon as a
    /// selection frees a slot.
    #[test]
    fn queue_full_step_is_retried_by_every_pump() {
        let mut rig = Rig::new(1);
        let queued = rig.open(4);
        let waiting = rig.open(8);
        assert_eq!(rig.stalled(), [(waiting, Stall::QueueFull)]);
        rig.scan();
        assert_eq!(rig.stalled(), [(waiting, Stall::QueueFull)]);

        let picked = rig
            .sched
            .select_pending(0, 0, rig.path.tally_mut())
            .unwrap();
        assert_eq!(picked.kind, EntryKind::Real { flight: queued });
        rig.scan();
        assert_eq!(rig.stalled(), []);
        assert_eq!(rig.sched.real_count(), 1);
        assert_eq!(rig.flights.released, [], "no release was involved");
    }
}
