//! In-flight LLC requests walking their posmap chains.
//!
//! Internal support machinery for the pipeline (not one of the four paper
//! stages): tracks every LLC request from transformation until its data
//! step completes, enforces same-block serialization through per-block
//! waiter queues, and retries chain steps that could not enter the label
//! queue. Stash-hit steps are completed on chip here (the paper's Step 1 —
//! a hit is "returned to LLC immediately").

use std::collections::{HashMap, VecDeque};

use fp_path_oram::{
    AccessTimes, Completion, CompletionLog, Datapath, LlcRequest, OramConfig, OramState,
};
use fp_trace::{Counter, EventKind};

use crate::address_queue::AddressQueue;
use crate::controller::ONCHIP_ANSWER_PS;
use crate::error::ControllerError;
use crate::plb::PosMapLookasideBuffer;
use crate::queue::EntryKind;
use crate::scheduler::RequestScheduler;

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

/// A chain step that could not enter the label queue yet (same-block
/// serialization or a queue full of real requests).
#[derive(Debug, Clone, Copy)]
pub(crate) struct StalledStep {
    pub flight: u64,
    pub ready_ps: u64,
}

/// The controller state a chain step may touch while being placed:
/// disjoint mutable borrows of the facade's other fields. Of the datapath a
/// step uses the trusted state and the trace spine, never a phase.
pub(crate) struct StepCtx<'a> {
    pub path: &'a mut Datapath,
    pub plb: &'a mut PosMapLookasideBuffer,
    pub aq: &'a mut AddressQueue,
    pub sched: &'a mut RequestScheduler,
    pub times: &'a mut AccessTimes,
    pub completions: &'a mut CompletionLog,
}

/// Serialization key of a block: posmap blocks serialize on themselves;
/// data blocks serialize on their super-block group (group members share a
/// label, so their accesses must stay ordered). Group ids live below the
/// data-block range, posmap addresses above it — no collisions.
pub(crate) fn serialize_key(cfg: &OramConfig, block: u64) -> u64 {
    if block < cfg.data_blocks {
        block / cfg.super_block
    } else {
        block
    }
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
#[derive(Debug, Default)]
pub(crate) struct FlightTable {
    flights: HashMap<u64, Flight>,
    next_flight: u64,
    /// FIFO of flights waiting to access each unified block. The front is
    /// the owner; everyone else is parked. A step joins the queue the
    /// moment it is *created* — even while stalled outside the label queue
    /// — so same-block steps from different flights always execute in
    /// creation order (a newly created step can never overtake a parked
    /// one, which would let it run with a stale label).
    busy: HashMap<u64, VecDeque<u64>>,
    stalled: VecDeque<StalledStep>,
}

impl FlightTable {
    /// Whether any request is in flight.
    pub fn is_empty(&self) -> bool {
        self.flights.is_empty()
    }

    /// Registers a new flight; returns its id.
    pub fn open(
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

    pub fn get(&self, id: u64) -> Result<&Flight, ControllerError> {
        self.flights
            .get(&id)
            .ok_or(ControllerError::UnknownFlight(id))
    }

    pub fn get_mut(&mut self, id: u64) -> Result<&mut Flight, ControllerError> {
        self.flights
            .get_mut(&id)
            .ok_or(ControllerError::UnknownFlight(id))
    }

    pub fn remove(&mut self, id: u64) -> Result<Flight, ControllerError> {
        self.flights
            .remove(&id)
            .ok_or(ControllerError::UnknownFlight(id))
    }

    /// Parks a step that could not be placed.
    pub fn push_stalled(&mut self, step: StalledStep) {
        self.stalled.push_back(step);
    }

    /// Retries every stalled chain step once (they are older than anything
    /// the address queue could produce).
    ///
    /// # Errors
    ///
    /// Propagates invariant violations from step placement.
    pub fn retry_stalled(&mut self, ctx: &mut StepCtx<'_>) -> Result<(), ControllerError> {
        let mut requeue = VecDeque::new();
        while let Some(step) = self.stalled.pop_front() {
            if !self.try_enqueue_step(ctx, step)? {
                requeue.push_back(step);
            }
        }
        self.stalled = requeue;
        Ok(())
    }

    /// Releases a flight's ownership of `block`, passing it to the oldest
    /// parked waiter (which will claim it on its next stalled retry).
    ///
    /// # Errors
    ///
    /// [`ControllerError::NotBlockOwner`] if `flight` is not at the front
    /// of the block's waiter queue.
    pub fn release_block(&mut self, block: u64, flight: u64) -> Result<(), ControllerError> {
        if let Some(waiters) = self.busy.get_mut(&block) {
            if waiters.front() != Some(&flight) {
                return Err(ControllerError::NotBlockOwner { block, flight });
            }
            waiters.pop_front();
            if waiters.is_empty() {
                self.busy.remove(&block);
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
    pub fn advance_after_access(
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
        let at_last_step = idx + 1 >= len;
        let key = serialize_key(ctx.path.state().config(), block);
        self.release_block(key, flight_id)?;

        if !at_last_step {
            self.advance_chain(ctx, flight_id)?;
            let step = StalledStep {
                flight: flight_id,
                ready_ps: read_end_ps,
            };
            if !self.try_enqueue_step(ctx, step)? {
                self.push_stalled(step);
            }
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
        let (o, n, _) = state.chain_step(block, flight.new_label, next_block);
        flight.idx += 1;
        flight.old_label = o;
        flight.new_label = n;
        note_posmap_use(state, ctx.plb, block);
        Ok(())
    }

    /// Finishes a flight standing on its data block at `done_ps`: applies
    /// the request's operation, retires it from the address queue, and
    /// accounts and publishes the completion.
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
        let (data, _) = ctx
            .path
            .state_mut()
            .apply_op(chain[idx], new_label, req.data.as_deref());
        ctx.aq.complete(req.addr, req.op);
        let latency_ps = done_ps.saturating_sub(req.arrival_ps);
        ctx.times.sum_latency_ps += latency_ps;
        let trace = ctx.path.trace();
        trace.record(done_ps, EventKind::RequestCompleted { id: req.id });
        trace.record_latency(latency_ps);
        ctx.completions.push(Completion {
            id: req.id,
            addr: req.addr,
            data,
            arrival_ps: req.arrival_ps,
            done_ps,
            tag: req.tag,
        });
        Ok(())
    }

    /// Places a flight's current chain step: consecutive steps whose block
    /// is already in the stash are completed on chip with no ORAM access;
    /// the first missing step enters the label queue. Returns `false`
    /// (leaving the step stalled) when the target block already has a live
    /// entry (same-block serialization) or the queue is full of reals.
    ///
    /// # Errors
    ///
    /// Propagates bookkeeping invariant violations (unknown flight, chain
    /// index overrun, foreign block release).
    pub fn try_enqueue_step(
        &mut self,
        ctx: &mut StepCtx<'_>,
        step: StalledStep,
    ) -> Result<bool, ControllerError> {
        let mut ready = step.ready_ps;
        loop {
            let flight = self.get(step.flight)?;
            let (idx, len) = (flight.idx, flight.chain.len());
            if idx >= len {
                return Err(ControllerError::ChainIndexOutOfRange {
                    flight: step.flight,
                    idx,
                    len,
                });
            }
            let real_block = flight.chain[idx];
            let block = serialize_key(ctx.path.state().config(), real_block);
            // Join (or verify ownership of) the block's waiter queue.
            {
                let waiters = self.busy.entry(block).or_default();
                match waiters.front() {
                    Some(&owner) if owner != step.flight => {
                        if !waiters.contains(&step.flight) {
                            waiters.push_back(step.flight);
                        }
                        return Ok(false);
                    }
                    Some(_) => {} // already the owner (retry)
                    None => waiters.push_back(step.flight),
                }
            }
            let at_last_step = idx + 1 >= len;
            let state = ctx.path.state();
            let shortcut_ok = state.stash_hit(real_block)
                && (!at_last_step || state.group_shortcut_safe(real_block));
            if shortcut_ok {
                // On-chip fast path: relabel + payload handling, no access.
                self.release_block(block, step.flight)?;
                ctx.path.trace().bump(Counter::StashHits);
                ready += ONCHIP_ANSWER_PS;
                if !at_last_step {
                    self.advance_chain(ctx, step.flight)?;
                    continue;
                }
                self.finish(ctx, step.flight, ready)?;
                return Ok(true);
            }
            // Ownership (queue front) is already held; a failed label-queue
            // insertion keeps it so later same-block steps stay parked.
            let label = self.get(step.flight)?.old_label;
            if ctx
                .sched
                .insert_real(
                    label,
                    EntryKind::Real {
                        flight: step.flight,
                    },
                    ready,
                )
                .is_err()
            {
                return Ok(false);
            }
            return Ok(true);
        }
    }
}
