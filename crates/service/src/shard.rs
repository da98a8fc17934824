//! Shard worker: one scheme-agnostic [`OramEngine`] fed from its inbox,
//! a bounded [`SubmissionQueue`] (the live service, trace replay and
//! scripted replay), or an embedded closed-loop client pool
//! (deterministic load mode). The engine is built from
//! [`ServiceConfig::scheme`](crate::ServiceConfig), so the same worker
//! serves traditional Path ORAM, Fork Path, or any future scheme.
//!
//! Every mode fed from the queue runs one worker loop
//! ([`ShardEngine::run`]); the modes differ only in what the queue has
//! received and expects. Each turn takes the batch the queue's admission
//! rule settles (see [`crate::queue`]): the worker blocks on its queue
//! only while the rule says so, and otherwise runs one access, so
//! simulated progress never waits on producers it does not need. In
//! closed-loop mode the pool is a [`ReactiveSource`]: every completion
//! immediately yields the issuing client's next request in *simulated*
//! time, so the shard's entire execution is a pure function of its seed —
//! independent of host thread scheduling.
//!
//! With [`ServiceConfig::coalesce`] enabled, the worker keeps a
//! cross-request **coalescing index** (address → in-flight entry): a
//! duplicate-address request arriving while an access to that address is
//! outstanding attaches as a *waiter* instead of submitting a second ORAM
//! access. When the one access completes, its result fans out to every
//! waiter — reads share the data, a write coalesced behind the access
//! acknowledges immediately and upgrades the entry (last-writer-wins),
//! and one write-back flush carries the final data. This is the
//! service-level analogue of the controller's fork/merge of consecutive
//! overlapping paths (PAPER.md §3): the same redundancy the paper removes
//! between back-to-back accesses reappears across concurrent requests
//! under skewed traffic. See DESIGN.md for the obliviousness caveat.
//!
//! A worker that exits abnormally — a controller error or a panic, both
//! caught in one place — answers every request it accepted and has not
//! answered with [`CompletionStatus::ShardDown`]: its in-flight client
//! requests, their coalesced waiters, a batch the engine refused, and
//! whatever its closed queue still holds. After an error it first
//! publishes what the engine had finished; after a panic it does not call
//! the engine again. Every request a queue accepted therefore gets
//! exactly one completion — one call of the run's [`Sink`] — so a front
//! end needs no bookkeeping of which shard owns what.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, OnceLock};

use fp_core::engine::OramEngine;
use fp_core::{ControllerError, FaultInjector, NewRequest, NoFeedback, ReactiveSource};
use fp_dram::DramSystem;
use fp_path_oram::{Completion, Op};
use fp_trace::{Counter, TraceHandle};
use fp_workloads::service::ServiceClientPool;

use crate::coalesce::{CoalesceIndex, Waiter, WaiterAnswer};
use crate::config::ServiceConfig;
use crate::queue::SubmissionQueue;
use crate::request::{CompletionStatus, ServiceCompletion, ServiceRequest, SubmitError};
use crate::service::ShardFailure;
use crate::sync::relock;

/// Liveness of one shard as seen by the service front end, derived from
/// the shard's fault record at the time it is read: `Dead` once its worker
/// exited with an error or panicked, else `Degraded` once any fault was
/// injected into its engine (it absorbed them and keeps serving), else
/// `Healthy`. Neither fact is ever undone, so health never moves back
/// towards `Healthy`. A dead shard's queue is closed and answers
/// [`crate::SubmitError::ShardDown`] for its addresses; the remaining
/// shards keep serving theirs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardHealth {
    /// Serving normally; no faults observed.
    Healthy,
    /// Serving, but faults were injected into its engine (so far absorbed
    /// by retries).
    Degraded,
    /// Worker exited abnormally; the shard no longer serves requests.
    Dead,
}

impl ShardHealth {
    /// Stable snake_case name for reports.
    pub(crate) fn name(self) -> &'static str {
        match self {
            ShardHealth::Healthy => "healthy",
            ShardHealth::Degraded => "degraded",
            ShardHealth::Dead => "dead",
        }
    }
}

/// Monotonic per-shard accounting, folded into [`crate::ServiceStats`].
///
/// Invariants (exact at drain, when the queue is empty and nothing is in
/// flight): `enqueued == admitted + expired` and `completed == admitted`.
/// Expired requests are *not* completions — they never execute — so
/// throughput rates derived from `completed` count served work only.
///
/// Where requests come through the queue (every mode but closed loop),
/// `enqueued == completed + expired + failed` holds on a dead shard too:
/// the dying worker answers all its queue accepted. Closed loop's requests
/// have no submitter, so there it holds only on a clean run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardCounters {
    /// Requests accepted into the shard's queue (submitted, or a trace's
    /// schedule), or issued by its client pool (closed-loop mode).
    pub enqueued: u64,
    /// Submissions rejected with `Busy` (counted by the service handle).
    pub rejected_busy: u64,
    /// Client requests accepted past admission control: submitted to the
    /// controller *or* attached to the coalescing index as waiters.
    /// Internal coalescing flushes are not client requests and are never
    /// counted here.
    pub admitted: u64,
    /// Requests dropped at admission because their deadline had passed.
    /// Disjoint from `completed`: an expired request was never served.
    pub expired: u64,
    /// Client requests *served* to completion (including `Late` ones, and
    /// coalesced waiters answered by their anchor's access). Excludes
    /// expired requests and internal flushes.
    pub completed: u64,
    /// Completions that finished after their deadline.
    pub completed_late: u64,
    /// Requests a dying worker answered [`CompletionStatus::ShardDown`]
    /// (in flight, coalesced, refused by the engine, or still queued).
    /// Disjoint from `completed` and `expired`.
    pub failed: u64,
    /// Admission batches handed to the controller.
    pub batches: u64,
    /// Largest single admission batch.
    pub max_batch: u64,
    /// Shard's simulated clock when it went idle, picoseconds.
    pub sim_finish_ps: u64,
}

/// State shared between a shard worker and the service front end.
#[derive(Debug)]
pub struct ShardShared {
    /// The shard's inbox: the bounded queue every request but closed
    /// loop's comes through.
    pub queue: SubmissionQueue,
    /// Monotonic counters.
    pub counters: Mutex<ShardCounters>,
    /// The shard controller's trace handle (cloned snapshot source).
    pub trace: TraceHandle,
    /// Description of the failure that killed the shard, written once by
    /// its dying worker. Lock-free, so it survives lock poisoning.
    death: OnceLock<String>,
}

impl ShardShared {
    fn new(queue_depth: usize, trace: TraceHandle) -> Self {
        Self {
            queue: SubmissionQueue::new(queue_depth),
            counters: Mutex::new(ShardCounters::default()),
            trace,
            death: OnceLock::new(),
        }
    }

    /// Notes a `Busy` rejection observed by the front end.
    pub(crate) fn note_rejected(&self) {
        relock(&self.counters).rejected_busy += 1;
    }

    /// Receives a whole trace into the queue before the worker starts
    /// ([`SubmissionQueue::preload`]), counted as enqueued with it.
    pub(crate) fn preload(&self, schedule: Vec<ServiceRequest>) {
        relock(&self.counters).enqueued += schedule.len() as u64;
        self.queue.preload(schedule);
    }

    /// Notes an accepted submission.
    pub fn note_enqueued(&self) {
        relock(&self.counters).enqueued += 1;
    }

    /// Current liveness of this shard, derived from its fault record (see
    /// [`ShardHealth`]).
    pub(crate) fn health(&self) -> ShardHealth {
        if self.death.get().is_some() {
            ShardHealth::Dead
        } else if self.trace.counter(Counter::FaultsInjected) > 0 {
            ShardHealth::Degraded
        } else {
            ShardHealth::Healthy
        }
    }

    /// The failure that killed the shard, if it is dead.
    pub(crate) fn fault(&self) -> Option<String> {
        self.death.get().cloned()
    }

    /// Marks the shard dead: records the failure (the first one wins) and
    /// counts a failover in the trace, then closes the queue for
    /// `ShardDown`, so producers see that instead of retrying `Busy`
    /// forever.
    pub(crate) fn mark_dead(&self, error: &str) {
        if self.death.set(error.to_string()).is_ok() {
            self.trace.bump(Counter::ShardFailovers);
        }
        self.queue.close(SubmitError::ShardDown);
    }
}

/// Service-side metadata for one engine-submitted request, keyed by the
/// engine-assigned id.
enum ReqMeta {
    /// A client request; its completion is published to the submitter.
    Client {
        tag: u64,
        /// Shard-local address, for a `ShardDown` answer the engine
        /// never gives.
        addr: u64,
        deadline_ps: Option<u64>,
        /// Writes acknowledge with empty data (the payload echo of a
        /// write completion is never meaningful to the client).
        write: bool,
    },
    /// An internal write-back issued by the coalescing layer to persist
    /// last-writer-wins data. Produces no client completion and is not
    /// counted in `admitted`/`completed`.
    Flush,
}

/// Best-effort stringification of a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Most requests a worker admits into its engine per batch.
const BATCH_MAX: usize = 16;

/// Where a run mode takes a shard's completions: called on the worker
/// thread, once per answered request, with the global address.
pub(crate) type Sink<'s> = &'s dyn Fn(ServiceCompletion);

/// One shard's worker: the scheme-agnostic ORAM engine
/// [`ServiceConfig::scheme`] builds, plus in-flight request metadata.
pub struct ShardEngine {
    shard: usize,
    /// `log2(shards)`, to restore an answer's global address.
    addr_shift: u32,
    ctl: Box<dyn OramEngine + Send>,
    shared: Arc<ShardShared>,
    block_bytes: usize,
    meta: HashMap<u64, ReqMeta>,
    /// Metadata of the batch being handed to the engine, in batch order:
    /// it joins `meta` once `submit_batch` returns the ids, and a dying
    /// worker answers it if the engine never does.
    in_hand: Vec<ReqMeta>,
    /// Cross-request coalescing index (`Some` iff
    /// [`ServiceConfig::coalesce`] is set). The pure bookkeeping lives in
    /// [`crate::coalesce`]; this worker wires its results to completions,
    /// trace counters, and flush submissions.
    coalesce: Option<CoalesceIndex>,
}

impl ShardEngine {
    /// Builds shard `shard` of `cfg` with its private engine (selected by
    /// [`ServiceConfig::scheme`]), DRAM system, and shared front-end state.
    ///
    /// When [`ServiceConfig::fault`] is set (and `fault_shard` either
    /// matches this shard or is `None`), the engine is wrapped in a
    /// deterministic [`FaultInjector`] whose seed is decorrelated per
    /// shard, so shards roll independent fault streams.
    pub fn new(cfg: &ServiceConfig, shard: usize) -> (Self, Arc<ShardShared>) {
        let oram = cfg.shard_oram();
        let block_bytes = oram.block_bytes;
        let dram = DramSystem::new(cfg.dram.clone());
        let mut ctl = cfg.scheme.build(oram, dram, cfg.shard_seed(shard));
        if let Some(fault) = cfg
            .fault
            .as_ref()
            .filter(|_| cfg.fault_shard.is_none_or(|s| s == shard))
        {
            let mut fc = fault.clone();
            fc.seed ^= cfg.shard_seed(shard);
            ctl = Box::new(FaultInjector::new(ctl, fc));
        }
        let shared = Arc::new(ShardShared::new(cfg.queue_depth, ctl.trace().clone()));
        (
            Self {
                shard,
                addr_shift: cfg.shard_shift(),
                ctl,
                shared: Arc::clone(&shared),
                block_bytes,
                meta: HashMap::new(),
                in_hand: Vec::with_capacity(BATCH_MAX),
                coalesce: cfg.coalesce.then(CoalesceIndex::new),
            },
            shared,
        )
    }

    /// The worker loop of every mode fed from the queue: each turn admits
    /// the batch the queue's admission rule settles, runs one access and
    /// hands what completed to `sink`. Returns when the queue is closed
    /// and empty and all admitted work has completed.
    ///
    /// On an abnormal exit the shard is marked dead (closing its queue, so
    /// producers get `ShardDown` instead of spinning on `Busy`) and every
    /// request it accepted and has not answered is answered
    /// [`CompletionStatus::ShardDown`] — see [`ShardEngine::or_fail`].
    ///
    /// # Errors
    ///
    /// A controller failure (integrity violation, stash overflow, config
    /// error) or a panic, as the [`ShardFailure`] it ended in.
    pub(crate) fn run(self, sink: Sink<'_>) -> Result<(), ShardFailure> {
        self.or_fail(sink, |shard| {
            let shared = Arc::clone(&shard.shared);
            while let Some(batch) = shared.queue.admit(
                BATCH_MAX,
                shard.ctl.clock_ps(),
                !shard.ctl.has_pending_work(),
            ) {
                if !batch.is_empty() {
                    shard.admit(batch, sink)?;
                }
                shard.ctl.process_one(&mut NoFeedback)?;
                shard.publish_completions(sink)?;
            }
            shard.finish_drained();
            Ok(())
        })
    }

    /// Runs one of the worker loops with the abnormal-exit cleanup every
    /// mode shares. A controller error or a panic marks the shard dead
    /// (which closes the queue so producers stop retrying `Busy`). After
    /// an error the worker publishes whatever completions the engine had
    /// finished and records final counters; publishing is best-effort: a
    /// broken engine may reject the coalescing layer's flush write-backs,
    /// but client completions drained so far are published before any
    /// flush is submitted. After a panic the engine is not called again.
    /// Either way, every request still unanswered is then answered
    /// [`CompletionStatus::ShardDown`] ([`ShardEngine::answer_stranded`]).
    fn or_fail(
        mut self,
        sink: Sink<'_>,
        run: impl FnOnce(&mut Self) -> Result<(), ControllerError>,
    ) -> Result<(), ShardFailure> {
        let (panicked, error) = match catch_unwind(AssertUnwindSafe(|| run(&mut self))) {
            Ok(Ok(())) => return Ok(()),
            Ok(Err(e)) => (false, e.to_string()),
            Err(payload) => (true, panic_message(payload.as_ref())),
        };
        if panicked {
            self.shared.mark_dead(&format!("worker panicked: {error}"));
            self.answer_stranded(sink);
        } else {
            self.shared.mark_dead(&error);
            let _ = self.publish_completions(sink);
            self.answer_stranded(sink);
            self.finish();
        }
        Err(ShardFailure {
            shard: self.shard,
            panicked,
            error,
        })
    }

    /// Answers [`CompletionStatus::ShardDown`] to every request the dying
    /// shard accepted and has not answered: open client entries, the
    /// batch the engine refused, coalesced waiters, and what the closed
    /// queue still holds. Internal flushes have no client and are dropped.
    fn answer_stranded(&mut self, sink: Sink<'_>) {
        let mut stranded: Vec<(u64, u64)> = self
            .in_hand
            .drain(..)
            .chain(self.meta.drain().map(|(_, m)| m))
            .filter_map(|m| match m {
                ReqMeta::Client { tag, addr, .. } => Some((tag, addr)),
                ReqMeta::Flush => None,
            })
            .collect();
        if let Some(index) = self.coalesce.as_mut() {
            stranded.extend(index.drain_waiters());
        }
        // The queue is closed: one pop takes everything it will ever hold.
        if let Some(queued) = self.shared.queue.pop_batch(usize::MAX) {
            stranded.extend(queued.into_iter().map(|r| (r.tag, r.addr)));
        }
        for (tag, addr) in stranded {
            self.answer(sink, tag, addr, CompletionStatus::ShardDown, 0, Vec::new());
        }
    }

    /// The one way a completion leaves the shard: counted by `status` (so
    /// whoever holds the answer sees it in the stats), then handed to
    /// `sink` with `addr` (shard-local) restored to the global address.
    fn answer(
        &self,
        sink: Sink<'_>,
        tag: u64,
        addr: u64,
        status: CompletionStatus,
        latency_ps: u64,
        data: Vec<u8>,
    ) {
        {
            let mut c = relock(&self.shared.counters);
            match status {
                CompletionStatus::Ok | CompletionStatus::Late => c.completed += 1,
                CompletionStatus::Expired => c.expired += 1,
                CompletionStatus::ShardDown => c.failed += 1,
            }
            c.completed_late += u64::from(status == CompletionStatus::Late);
        }
        sink(ServiceCompletion {
            tag,
            shard: self.shard,
            addr: (addr << self.addr_shift) | self.shard as u64,
            status,
            latency_ps,
            data,
        });
    }

    /// Admits a batch: expires requests whose deadline already passed,
    /// attaches duplicate-address requests as coalescing waiters (when
    /// enabled), and hands the rest to the controller in one batch
    /// submission. Counters and expirations are published first, so a
    /// batch the engine refuses leaves only `in_hand` to answer.
    fn admit(&mut self, reqs: Vec<ServiceRequest>, sink: Sink<'_>) -> Result<(), ControllerError> {
        let clock = self.ctl.clock_ps();
        let mut live = Vec::with_capacity(reqs.len());
        let mut coalesced = 0u64;
        for req in reqs {
            let deadline = req.deadline_ps;
            // A deadline in the past at admission time: reject without
            // charging an ORAM access.
            if deadline.is_some_and(|d| d < req.arrival_ps.max(clock)) {
                self.answer(
                    sink,
                    req.tag,
                    req.addr,
                    CompletionStatus::Expired,
                    0,
                    Vec::new(),
                );
                continue;
            }
            let write = req.op == Op::Write;
            let mut data = req.data;
            if let Some(index) = self.coalesce.as_mut() {
                match index.try_attach(
                    req.addr,
                    Waiter {
                        tag: req.tag,
                        write,
                        data,
                        arrival_ps: req.arrival_ps,
                        deadline_ps: deadline,
                    },
                ) {
                    // An access to this address is already in flight:
                    // the request parked on it instead of submitting a
                    // second ORAM access.
                    Ok(()) => {
                        self.shared.trace.bump(if write {
                            Counter::CoalescedWrites
                        } else {
                            Counter::CoalescedReads
                        });
                        coalesced += 1;
                        continue;
                    }
                    // No in-flight access: this request becomes the
                    // anchor others can coalesce onto.
                    Err(w) => {
                        data = w.data;
                        let occupancy = index.insert_anchor(req.addr, write.then(|| data.clone()));
                        self.shared
                            .trace
                            .raise(Counter::CoalesceIndexHighWater, occupancy);
                    }
                }
            }
            self.in_hand.push(ReqMeta::Client {
                tag: req.tag,
                addr: req.addr,
                deadline_ps: deadline,
                write,
            });
            live.push(NewRequest {
                addr: req.addr,
                op: req.op,
                data,
                arrival_ps: req.arrival_ps,
                tag: req.tag,
            });
        }
        let submitted = live.len() as u64;
        {
            let mut c = relock(&self.shared.counters);
            c.admitted += submitted + coalesced;
            if submitted > 0 {
                c.batches += 1;
                c.max_batch = c.max_batch.max(submitted);
            }
        }
        if !live.is_empty() {
            let ids = self.ctl.submit_batch(live)?;
            self.meta
                .extend(ids.into_iter().zip(self.in_hand.drain(..)));
        }
        Ok(())
    }

    /// Hands finished controller completions to `sink` with deadline
    /// classification, fanning each result out to its coalesced
    /// waiters. Waiter resolution runs in arrival order: reads observe
    /// the youngest earlier write (the in-flight access's own payload,
    /// else the data as read) and writes acknowledge and become the new
    /// current value; if any waiter wrote, one flush write-back carries
    /// the final data. Write completions acknowledge with empty data in
    /// every mode — a write's payload echo is never meaningful.
    ///
    /// # Errors
    ///
    /// Propagates failures submitting flush write-backs. Client
    /// completions are answered before flushes are submitted, so nothing
    /// drained is lost on that path.
    fn publish_completions(&mut self, sink: Sink<'_>) -> Result<(), ControllerError> {
        // `Late` when a request finished past its deadline.
        let served = |deadline_ps: Option<u64>, done_ps: u64| {
            if deadline_ps.is_some_and(|d| done_ps > d) {
                CompletionStatus::Late
            } else {
                CompletionStatus::Ok
            }
        };
        let mut flushes: Vec<NewRequest> = Vec::new();
        for c in self.ctl.drain_completions() {
            // An internal write-back (or an id this worker never handed
            // out) has no client completion.
            if let Some(ReqMeta::Client {
                tag,
                deadline_ps,
                write,
                ..
            }) = self.meta.remove(&c.id)
            {
                let status = served(deadline_ps, c.done_ps);
                let latency_ps = c.done_ps.saturating_sub(c.arrival_ps);
                let data = if write { Vec::new() } else { c.data.clone() };
                self.answer(sink, tag, c.addr, status, latency_ps, data);
            }
            let Some(res) = self
                .coalesce
                .as_mut()
                .and_then(|ix| ix.resolve(c.addr, c.data))
            else {
                continue;
            };
            for WaiterAnswer { waiter: w, data } in res.answers {
                let latency_ps = c.done_ps.saturating_sub(w.arrival_ps);
                // Waiters bypass the engine, so their latency samples are
                // recorded here instead of by the controller.
                self.shared.trace.record_latency(latency_ps);
                let status = served(w.deadline_ps, c.done_ps);
                self.answer(sink, w.tag, c.addr, status, latency_ps, data);
            }
            if let Some(final_data) = res.flush {
                // The index already re-armed the entry so requests
                // arriving while the flush is in flight coalesce onto it.
                self.shared.trace.bump(Counter::CoalesceFlushes);
                flushes.push(NewRequest {
                    addr: c.addr,
                    op: Op::Write,
                    data: final_data,
                    arrival_ps: c.done_ps,
                    tag: 0,
                });
            }
        }
        for f in flushes {
            let id = self.ctl.submit(f)?;
            self.meta.insert(id, ReqMeta::Flush);
        }
        Ok(())
    }

    /// [`ShardEngine::finish`] for clean drains, where every admitted
    /// client request must have been answered — an entry left in the
    /// meta map means a completion was lost on the way out (the exact
    /// failure mode `has_pending_work`'s undrained-completion clause
    /// exists to prevent).
    fn finish_drained(&self) {
        debug_assert!(
            self.meta.is_empty(),
            "shard drained cleanly but left client requests unanswered"
        );
        self.finish();
    }

    /// Records the shard's final simulated clock. Called from clean drains
    /// *and* after an error in [`ShardEngine::or_fail`] (never after a
    /// panic: it reads the engine's clock).
    fn finish(&self) {
        relock(&self.shared.counters).sim_finish_ps = self.ctl.clock_ps();
    }

    /// Closed-loop mode: drives the embedded client `pool` to exhaustion.
    /// Completions are folded into counters and published nowhere, so
    /// multi-million request runs stay flat in memory. Deterministic per
    /// shard seed.
    ///
    /// Like [`ShardEngine::run`], every abnormal exit marks the shard dead
    /// before returning.
    ///
    /// # Errors
    ///
    /// A controller failure or a panic.
    pub(crate) fn run_closed_loop(self, pool: ServiceClientPool) -> Result<(), ShardFailure> {
        // The pool's requests have no submitter: a dying worker answers nobody.
        self.or_fail(&|_| {}, |shard| shard.run_closed_loop_inner(pool))
    }

    fn run_closed_loop_inner(&mut self, pool: ServiceClientPool) -> Result<(), ControllerError> {
        let mut src = PoolSource {
            pool,
            block_bytes: self.block_bytes,
            issued: 0,
        };
        let burst: Vec<NewRequest> = src
            .pool
            .initial_burst()
            .into_iter()
            .map(|r| src.to_new_request(r))
            .collect();
        let n = burst.len() as u64;
        if n > 0 {
            self.ctl.submit_batch(burst)?;
            let mut c = relock(&self.shared.counters);
            c.enqueued += n;
            c.admitted += n;
            c.batches += 1;
            c.max_batch = c.max_batch.max(n);
        }
        let mut steps: u32 = 0;
        while self.ctl.process_one(&mut src)? {
            steps = steps.wrapping_add(1);
            // Fold completions periodically instead of storing them.
            if steps.is_multiple_of(1024) {
                self.fold_closed_loop(&mut src);
            }
        }
        self.fold_closed_loop(&mut src);
        self.finish();
        Ok(())
    }

    /// Folds drained completions and newly issued pool requests into the
    /// shared counters (closed-loop bookkeeping).
    fn fold_closed_loop(&mut self, src: &mut PoolSource) {
        let done = self.ctl.drain_completions();
        let issued = std::mem::take(&mut src.issued);
        let mut ctr = relock(&self.shared.counters);
        ctr.enqueued += issued;
        ctr.admitted += issued;
        ctr.completed += done.len() as u64;
    }
}

/// Adapter making a [`ServiceClientPool`] drive the controller reactively:
/// each completion births the issuing client's next request in simulated
/// time.
struct PoolSource {
    pool: ServiceClientPool,
    block_bytes: usize,
    /// Requests issued since the last counter fold.
    issued: u64,
}

impl PoolSource {
    fn to_new_request(&self, r: fp_workloads::service::PoolRequest) -> NewRequest {
        let data = match r.op {
            Op::Write => {
                // Deterministic payload derived from the address.
                let mut d = vec![0u8; self.block_bytes];
                d[..8].copy_from_slice(&r.addr.to_le_bytes());
                d
            }
            Op::Read => Vec::new(),
        };
        NewRequest {
            addr: r.addr,
            op: r.op,
            data,
            arrival_ps: r.arrival_ps,
            tag: r.client as u64,
        }
    }
}

impl ReactiveSource for PoolSource {
    fn on_complete(&mut self, completion: &Completion) -> Vec<NewRequest> {
        let client = completion.tag as usize;
        match self.pool.on_complete(client, completion.done_ps) {
            Some(r) => {
                self.issued += 1;
                vec![self.to_new_request(r)]
            }
            None => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fp_workloads::mixes;
    use std::cell::RefCell;

    #[test]
    fn closed_loop_drains_pool_and_counts() {
        let cfg = ServiceConfig::fast_test(1);
        let (engine, shared) = ShardEngine::new(&cfg, 0);
        let pool = ServiceClientPool::from_profiles(
            &mixes::all()[0].programs,
            cfg.shard_blocks(),
            200,
            cfg.shard_seed(0),
        );
        engine.run_closed_loop(pool).unwrap();
        let c = *relock(&shared.counters);
        assert_eq!(c.enqueued, 200);
        assert_eq!(c.admitted, 200);
        assert_eq!(c.completed, 200);
        assert!(c.sim_finish_ps > 0);
    }

    #[test]
    fn the_worker_serves_its_queue_and_classifies_deadlines() {
        let cfg = ServiceConfig::fast_test(1);
        let (engine, shared) = ShardEngine::new(&cfg, 0);
        for i in 0..8u64 {
            shared
                .queue
                .try_push(ServiceRequest::read(i * 7, 0, i))
                .unwrap();
            shared.note_enqueued();
        }
        // One request already expired at admission.
        let mut dead = ServiceRequest::read(3, 0, 99);
        dead.deadline_ps = Some(0);
        dead.arrival_ps = 10;
        shared.queue.try_push(dead).unwrap();
        shared.note_enqueued();
        shared.queue.close(SubmitError::Shutdown);
        let done = RefCell::new(Vec::new());
        engine.run(&|c| done.borrow_mut().push(c)).unwrap();
        let c = *relock(&shared.counters);
        assert_eq!(c.enqueued, 9);
        assert_eq!(c.admitted, 8);
        assert_eq!(c.expired, 1);
        // The expired request was never served: it does not count as a
        // completion (this double-count once inflated reported req/s).
        assert_eq!(c.completed, 8);
        assert_eq!(c.enqueued, c.admitted + c.expired);
        let done = done.into_inner();
        assert_eq!(
            done.len(),
            9,
            "expired requests still get a completion record"
        );
        assert_eq!(
            done.iter()
                .filter(|c| c.status == CompletionStatus::Expired)
                .count(),
            1
        );
    }

    #[test]
    fn a_preloaded_trace_coalesces_duplicates_and_preserves_data() {
        let mut cfg = ServiceConfig::fast_test(1);
        cfg.coalesce = true;
        let (engine, shared) = ShardEngine::new(&cfg, 0);
        let block = cfg.oram.block_bytes;
        let payload = |b: u8| vec![b; block];
        // A hot address hammered while its accesses are in flight: one
        // write, then reads/writes that should coalesce behind it.
        let mut reqs = vec![ServiceRequest::write(5, payload(0xA1), 0, 0)];
        for i in 1..6u64 {
            reqs.push(ServiceRequest::read(5, i, i));
        }
        reqs.push(ServiceRequest::write(5, payload(0xB2), 6, 6));
        reqs.push(ServiceRequest::read(5, 7, 7));
        // A cold address for contrast.
        reqs.push(ServiceRequest::read(9, 8, 8));
        let done = RefCell::new(Vec::new());
        shared.preload(reqs);
        shared.queue.close(SubmitError::Shutdown);
        engine.run(&|c| done.borrow_mut().push(c)).unwrap();
        let c = *relock(&shared.counters);
        assert_eq!(c.enqueued, 9);
        assert_eq!(c.admitted, 9);
        assert_eq!(c.completed, 9, "flushes are not client completions");
        let coalesced = shared.trace.counter(Counter::CoalescedReads)
            + shared.trace.counter(Counter::CoalescedWrites);
        assert!(coalesced > 0, "duplicates must attach as waiters");
        assert!(shared.trace.counter(Counter::CoalesceIndexHighWater) >= 1);
        let done = done.into_inner();
        assert_eq!(done.len(), 9);
        // Every write acknowledges with empty data; every read of addr 5
        // observes the youngest earlier write's payload.
        for d in done.iter() {
            match d.tag {
                0 | 6 => assert!(d.data.is_empty(), "write acks carry no data"),
                7 => assert_eq!(d.data, payload(0xB2), "read behind second write"),
                8 => {}
                _ => assert_eq!(d.data, payload(0xA1), "reads behind first write"),
            }
        }
    }
}
