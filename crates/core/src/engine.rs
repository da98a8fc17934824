//! The scheme-agnostic incremental engine abstraction.
//!
//! Every memory system under comparison — insecure DRAM, traditional Path
//! ORAM (with or without a treetop cache), and Fork Path in any
//! configuration — implements [`OramEngine`], and that trait is the only
//! way to drive it: submit requests, pump the pipeline one access at a time
//! with closed-loop feedback, drain completions, and read the shared
//! statistics/trace surface. Drivers (`fp-sim`'s generic system loop,
//! `fp-service`'s shard workers, the `repro` figures) are written once
//! against the trait, so a new scheme (e.g. a ring-ORAM engine) drops in
//! without touching them.
//!
//! [`Scheme`] names the engines and [`Scheme::build`] constructs one; the
//! [`registry`] maps the stable scheme names used by the benchmark's
//! workloads and the golden-stats tests onto configurations.
//!
//! # Example
//!
//! ```
//! use fp_core::engine::{OramEngine, Scheme};
//! use fp_dram::{DramConfig, DramSystem};
//! use fp_path_oram::{NewRequest, NoFeedback, OramConfig};
//!
//! let dram = DramSystem::new(DramConfig::ddr3_1600(2));
//! let mut engine = Scheme::Traditional.build(OramConfig::small_test(), dram, 7);
//! engine.submit(NewRequest::read(3, 0)).unwrap();
//! while engine.process_one(&mut NoFeedback).unwrap() {}
//! assert_eq!(engine.drain_completions().len(), 1);
//! ```

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use fp_dram::{AccessKind, DramSystem};
use fp_path_oram::{
    AccessTimes, Completion, CompletionLog, NewRequest, NoFeedback, Op, OramConfig, OramStats,
    ReactiveSource,
};
use fp_trace::{Counter, Tally, TraceHandle};

use crate::baseline::BaselineController;
use crate::config::{CacheChoice, ForkConfig};
use crate::controller::ForkPathController;
use crate::error::ControllerError;

/// A scheme-agnostic incremental ORAM (or plain-DRAM) engine.
///
/// The contract is the submit/pump model, and the only API an engine has
/// for it: requests enter through [`OramEngine::submit`] (or
/// [`OramEngine::submit_batch`]); [`OramEngine::process_one`] executes one
/// access end to end, routing completions through the caller's
/// [`ReactiveSource`] so follow-up requests can join in simulated time;
/// [`OramEngine::drain_completions`] collects what has been fed back. The
/// engine publishes its counts to its trace spine at the end of a call:
/// every 64th call while it is busy (the insecure engine: every call),
/// every call that leaves it idle (`process_one` returning `Ok(false)` or
/// an error), and every `set_trace_capacity`; a `drain_completions` that
/// hands out completions is a call like any other, and one that hands out
/// none publishes nothing. So a reader on another thread sees whole
/// calls — counts and histogram samples in one cut — at most 63 behind a
/// busy engine and exact once it is idle; [`OramEngine::stats`] is exact
/// on the engine's own thread at any time. An engine dropped between publishes
/// loses the calls since the last one. The trait is object-safe — drivers
/// hold a `Box<dyn OramEngine + Send>` when the scheme is chosen at run
/// time.
pub trait OramEngine {
    /// Enqueues one request; returns its engine-assigned id.
    ///
    /// # Errors
    ///
    /// Surfaces internal bookkeeping invariant violations.
    fn submit(&mut self, req: NewRequest) -> Result<u64, ControllerError>;

    /// Enqueues a batch, pumping once at the end where the engine supports
    /// it; returns the assigned ids in batch order.
    ///
    /// # Errors
    ///
    /// Surfaces internal bookkeeping invariant violations.
    fn submit_batch(&mut self, batch: Vec<NewRequest>) -> Result<Vec<u64>, ControllerError> {
        batch.into_iter().map(|r| self.submit(r)).collect()
    }

    /// Executes one access (or event step) end to end, feeding completions
    /// through `source`. Returns `Ok(false)` when no work remains.
    ///
    /// # Errors
    ///
    /// Surfaces internal bookkeeping invariant violations.
    fn process_one(&mut self, source: &mut dyn ReactiveSource) -> Result<bool, ControllerError>;

    /// Completions produced and fed back since the last drain.
    fn drain_completions(&mut self) -> Vec<Completion>;

    /// Whether submitted work is still queued or in flight.
    fn has_pending_work(&self) -> bool;

    /// Current engine clock, picoseconds.
    fn clock_ps(&self) -> u64;

    /// Aggregate statistics so far, exact at any time — a by-value view
    /// assembled from the trace spine's counters plus what the engine has
    /// not published yet (see [`OramStats::view`]).
    fn stats(&self) -> OramStats;

    /// The engine's trace spine (counters, histograms, event ring). Its
    /// counters are as of the engine's last publish.
    fn trace(&self) -> &TraceHandle;

    /// Sizes the trace event ring (0 = counters only). The ring keeps the
    /// most recent `capacity` events.
    fn set_trace_capacity(&mut self, capacity: usize);

    /// The simulated memory system (for command/energy statistics).
    fn dram(&self) -> &DramSystem;

    /// Peak stash occupancy, blocks (0 for engines without a stash).
    fn stash_high_water(&self) -> usize;

    /// Runs until no work remains and returns every flushed completion.
    ///
    /// # Errors
    ///
    /// Surfaces internal bookkeeping invariant violations.
    fn run_to_idle(&mut self) -> Result<Vec<Completion>, ControllerError> {
        while self.process_one(&mut NoFeedback)? {}
        Ok(self.drain_completions())
    }
}

/// A boxed engine is an engine. Calls on a `Box<dyn OramEngine + Send>`
/// reach the trait object without this impl; it stays because the
/// benchmark package (`benchmark/src/drive.rs`) imports the trait for its
/// boxed engine, and with no impl to resolve through, that import is
/// unused and fails the package's `-D warnings` check.
impl<E: OramEngine + ?Sized> OramEngine for Box<E> {
    fn submit(&mut self, req: NewRequest) -> Result<u64, ControllerError> {
        (**self).submit(req)
    }
    fn submit_batch(&mut self, batch: Vec<NewRequest>) -> Result<Vec<u64>, ControllerError> {
        (**self).submit_batch(batch)
    }
    fn process_one(&mut self, source: &mut dyn ReactiveSource) -> Result<bool, ControllerError> {
        (**self).process_one(source)
    }
    fn drain_completions(&mut self) -> Vec<Completion> {
        (**self).drain_completions()
    }
    fn has_pending_work(&self) -> bool {
        (**self).has_pending_work()
    }
    fn clock_ps(&self) -> u64 {
        (**self).clock_ps()
    }
    fn stats(&self) -> OramStats {
        (**self).stats()
    }
    fn trace(&self) -> &TraceHandle {
        (**self).trace()
    }
    fn set_trace_capacity(&mut self, capacity: usize) {
        (**self).set_trace_capacity(capacity);
    }
    fn dram(&self) -> &DramSystem {
        (**self).dram()
    }
    fn stash_high_water(&self) -> usize {
        (**self).stash_high_water()
    }
}

/// A request inside an engine: what was submitted, under the id the
/// engine assigned it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct LlcRequest {
    /// Engine-assigned id, echoed in the [`Completion`].
    pub(crate) id: u64,
    /// Program (data-block) address, in block units.
    pub(crate) addr: u64,
    /// Direction.
    pub(crate) op: Op,
    /// Payload, for writes only.
    pub(crate) data: Option<Vec<u8>>,
    /// Arrival time at the ORAM controller, picoseconds.
    pub(crate) arrival_ps: u64,
    /// Opaque caller tag echoed in the [`Completion`] (e.g. the issuing
    /// core, for closed-loop drivers).
    pub(crate) tag: u64,
}

impl LlcRequest {
    /// `req` under `id`; a read's payload is dropped.
    pub(crate) fn new(id: u64, req: NewRequest) -> Self {
        let data = match req.op {
            Op::Write => Some(req.data),
            Op::Read => None,
        };
        Self {
            id,
            addr: req.addr,
            op: req.op,
            data,
            arrival_ps: req.arrival_ps,
            tag: req.tag,
        }
    }
}

/// A queued insecure access, ordered chronologically (then by id) so the
/// engine replays the classic event-interleaved DRAM simulation.
#[derive(Debug, PartialEq, Eq)]
struct PendingAccess {
    arrival_ps: u64,
    id: u64,
    addr: u64,
    op: Op,
    tag: u64,
}

impl Ord for PendingAccess {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.arrival_ps, self.id).cmp(&(other.arrival_ps, other.id))
    }
}

impl PartialOrd for PendingAccess {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// An issued access waiting on the memory system, ordered by finish time
/// (derived field order: finish, then arrival/id as deterministic ties).
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
struct OutstandingAccess {
    finish_ps: u64,
    arrival_ps: u64,
    id: u64,
    addr: u64,
    tag: u64,
}

/// The insecure baseline: each LLC miss is one DRAM block access, no
/// obliviousness machinery at all. Accesses are handed to the memory
/// controller in chronological order (an access issues only once simulated
/// time reaches it), so DRAM state advances monotonically exactly as in
/// the pre-engine `run_insecure` driver.
#[derive(Debug)]
pub(crate) struct InsecureEngine {
    dram: DramSystem,
    block_bytes: u64,
    /// Not-yet-issued accesses, chronologically ordered.
    pending: BinaryHeap<Reverse<PendingAccess>>,
    /// In-flight accesses, earliest finish first.
    outstanding: BinaryHeap<Reverse<OutstandingAccess>>,
    completions: CompletionLog,
    clock_ps: u64,
    times: AccessTimes,
    /// The engine's counts, its ledger's included, over the spine its
    /// DRAM system counts for too.
    tally: Tally,
}

impl InsecureEngine {
    /// Creates an insecure engine over `dram` with `block_bytes` per LLC
    /// block.
    pub(crate) fn new(dram: DramSystem, block_bytes: usize) -> Self {
        let trace = TraceHandle::default();
        let mut dram = dram;
        dram.attach_trace(trace.clone());
        Self {
            dram,
            block_bytes: block_bytes as u64,
            pending: BinaryHeap::new(),
            outstanding: BinaryHeap::new(),
            completions: CompletionLog::default(),
            clock_ps: 0,
            times: AccessTimes::default(),
            tally: Tally::new(trace),
        }
    }

    fn flush_feedback(&mut self, source: &mut dyn ReactiveSource) {
        while let Some(completion) = self.completions.next_unfed() {
            for r in source.on_complete(&completion) {
                self.enqueue(r);
            }
        }
    }

    /// Numbers and queues one access: [`OramEngine::submit`] without the
    /// publish.
    fn enqueue(&mut self, req: NewRequest) -> u64 {
        let id = self.completions.open(req.arrival_ps, &mut self.tally);
        self.pending.push(Reverse(PendingAccess {
            arrival_ps: req.arrival_ps,
            id,
            addr: req.addr,
            op: req.op,
            tag: req.tag,
        }));
        id
    }

    /// Publishes the engine's counts and the DRAM system's as one cut:
    /// the last step of each engine call.
    fn publish(&mut self) {
        Tally::publish_all([&mut self.tally, self.dram.tally_mut()]);
    }

    /// Issues the next access or retires the earliest outstanding one;
    /// see [`OramEngine::process_one`], which publishes after it.
    fn next_event(&mut self, source: &mut dyn ReactiveSource) -> bool {
        self.flush_feedback(source);
        let next_issue = self.pending.peek().map(|Reverse(p)| p.arrival_ps);
        let next_done = self.outstanding.peek().map(|Reverse(o)| o.finish_ps);
        match (next_issue, next_done) {
            // Issue preference on ties keeps the interleaving chronological.
            (Some(ti), done) if done.is_none_or(|tc| ti <= tc) => {
                let Reverse(p) = self.pending.pop().expect("peeked");
                let (kind, blocks) = match p.op {
                    Op::Read => (AccessKind::Read, Counter::DramBlocksRead),
                    Op::Write => (AccessKind::Write, Counter::DramBlocksWritten),
                };
                self.tally.bump(blocks);
                let finish_ps = self
                    .dram
                    .access_spans(ti, kind, &[p.addr * self.block_bytes], 1);
                self.clock_ps = self.clock_ps.max(ti);
                self.outstanding.push(Reverse(OutstandingAccess {
                    finish_ps,
                    arrival_ps: p.arrival_ps,
                    id: p.id,
                    addr: p.addr,
                    tag: p.tag,
                }));
                true
            }
            (_, Some(_)) => {
                let Reverse(OutstandingAccess {
                    finish_ps: finish,
                    arrival_ps: arrival,
                    id,
                    addr,
                    tag,
                }) = self.outstanding.pop().expect("peeked");
                self.clock_ps = self.clock_ps.max(finish);
                self.times.finish_time_ps = self.times.finish_time_ps.max(finish);
                self.times.access_busy_ps += finish.saturating_sub(arrival);
                // The access count: one "full read" per plain-DRAM access.
                self.tally.bump(Counter::FullReads);
                let completion = Completion {
                    id,
                    addr,
                    data: Vec::new(),
                    arrival_ps: arrival,
                    done_ps: finish,
                    tag,
                };
                self.completions.push(completion, &mut self.tally);
                self.flush_feedback(source);
                true
            }
            (None, None) => false,
            // An issue with nothing outstanding always takes the first arm.
            (Some(_), None) => unreachable!("issue-only case is guard-covered"),
        }
    }
}

impl OramEngine for InsecureEngine {
    fn submit(&mut self, req: NewRequest) -> Result<u64, ControllerError> {
        let id = self.enqueue(req);
        self.publish();
        Ok(id)
    }

    fn process_one(&mut self, source: &mut dyn ReactiveSource) -> Result<bool, ControllerError> {
        let did = self.next_event(source);
        self.publish();
        Ok(did)
    }

    fn drain_completions(&mut self) -> Vec<Completion> {
        self.publish();
        self.completions.drain_fed()
    }

    fn has_pending_work(&self) -> bool {
        !self.pending.is_empty() || !self.outstanding.is_empty()
    }

    fn clock_ps(&self) -> u64 {
        self.clock_ps
    }

    fn stats(&self) -> OramStats {
        // One "bucket" in and out per access, so the shared avg-path-length
        // metric reads 1.0 for plain DRAM.
        let view = OramStats::view(&self.tally.counters(), &self.tally, self.times);
        OramStats {
            buckets_read: view.oram_accesses,
            buckets_written: view.oram_accesses,
            ..view
        }
    }

    fn trace(&self) -> &TraceHandle {
        self.tally.handle()
    }

    fn set_trace_capacity(&mut self, capacity: usize) {
        self.publish();
        self.tally.handle().set_capacity(capacity);
    }

    fn dram(&self) -> &DramSystem {
        &self.dram
    }

    fn stash_high_water(&self) -> usize {
        0
    }
}

/// Which memory system a run uses.
#[derive(Debug, Clone, PartialEq)]
pub enum Scheme {
    /// No protection: each LLC miss is one DRAM block access.
    Insecure,
    /// Traditional Path ORAM: full path per access, FIFO processing.
    Traditional,
    /// Traditional Path ORAM with a treetop cache of the given capacity.
    TraditionalTreetop {
        /// Cache capacity in bytes.
        bytes: u64,
    },
    /// Fork Path with the paper's default knobs (queue 64, no cache).
    ForkDefault,
    /// Fork Path with explicit knobs.
    Fork(ForkConfig),
}

impl Scheme {
    /// Short label used in reports.
    pub fn label(&self) -> String {
        match self {
            Scheme::Insecure => "insecure".into(),
            Scheme::Traditional => "traditional".into(),
            Scheme::TraditionalTreetop { bytes } => {
                format!("traditional+treetop{}K", bytes >> 10)
            }
            Scheme::ForkDefault => "fork".into(),
            Scheme::Fork(f) => {
                let cache = match f.cache {
                    CacheChoice::None => String::new(),
                    CacheChoice::Treetop { bytes } => format!("+treetop{}K", bytes >> 10),
                    CacheChoice::MergingAware { bytes, .. } => format!("+mac{}K", bytes >> 10),
                };
                format!("fork(q{}){}", f.label_queue_size, cache)
            }
        }
    }

    /// Validates scheme-specific knobs (the fork configuration).
    ///
    /// # Errors
    ///
    /// Returns a description of the violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            Scheme::Fork(f) => f.validate(),
            _ => Ok(()),
        }
    }

    /// Constructs the engine this scheme names, as a boxed trait object.
    pub fn build(
        &self,
        oram: OramConfig,
        dram: DramSystem,
        seed: u64,
    ) -> Box<dyn OramEngine + Send> {
        match self {
            Scheme::Insecure => Box::new(InsecureEngine::new(dram, oram.block_bytes)),
            Scheme::Traditional => Box::new(BaselineController::new(oram, dram, seed)),
            Scheme::TraditionalTreetop { bytes } => {
                Box::new(BaselineController::with_treetop(oram, dram, seed, *bytes))
            }
            Scheme::ForkDefault => Box::new(ForkPathController::new(
                oram,
                ForkConfig::default(),
                dram,
                seed,
            )),
            Scheme::Fork(f) => Box::new(ForkPathController::new(oram, *f, dram, seed)),
        }
    }
}

/// Fork Path with an explicit label-queue size and no cache.
pub fn fork_with_queue(queue: usize) -> Scheme {
    Scheme::Fork(ForkConfig {
        label_queue_size: queue,
        ..ForkConfig::default()
    })
}

/// Fork Path (queue 64) with a merging-aware cache of `bytes`.
pub fn fork_with_mac(bytes: u64) -> Scheme {
    Scheme::Fork(ForkConfig {
        cache: CacheChoice::MergingAware { bytes },
        ..ForkConfig::default()
    })
}

/// Fork Path (queue 64) with a treetop cache of `bytes`.
pub fn fork_with_treetop(bytes: u64) -> Scheme {
    Scheme::Fork(ForkConfig {
        cache: CacheChoice::Treetop { bytes },
        ..ForkConfig::default()
    })
}

/// The shared engine registry: every scheme name the benchmark's
/// workloads and the test suites select by, with its configuration. One
/// place defines the names, so reports stay comparable across PRs.
pub fn registry() -> Vec<(&'static str, Scheme)> {
    vec![
        ("insecure", Scheme::Insecure),
        ("traditional", Scheme::Traditional),
        (
            "traditional+treetop",
            Scheme::TraditionalTreetop { bytes: 1 << 20 },
        ),
        ("fork", Scheme::ForkDefault),
        ("fork+mac", fork_with_mac(256 << 10)),
        ("fork+treetop", fork_with_treetop(1 << 20)),
        ("fork-best", Scheme::Fork(ForkConfig::paper_best())),
    ]
}

/// Looks a scheme up in the [`registry`] by name.
pub fn by_name(name: &str) -> Option<Scheme> {
    registry()
        .into_iter()
        .find(|(n, _)| *n == name)
        .map(|(_, s)| s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultConfig, FaultInjector};
    use fp_dram::DramConfig;

    fn dram() -> DramSystem {
        DramSystem::new(DramConfig::ddr3_1600(2))
    }

    fn drive(mut engine: Box<dyn OramEngine + Send>, n: u64) -> Vec<Completion> {
        for i in 0..n {
            engine
                .submit(NewRequest {
                    addr: i % 16,
                    op: if i % 3 == 0 { Op::Write } else { Op::Read },
                    data: if i % 3 == 0 {
                        vec![i as u8; 16]
                    } else {
                        vec![]
                    },
                    arrival_ps: i * 1_000,
                    tag: i,
                })
                .unwrap();
        }
        let done = engine.run_to_idle().unwrap();
        assert!(!engine.has_pending_work());
        assert_eq!(engine.stats().completed_requests, n);
        assert!(engine.clock_ps() > 0);
        assert_eq!(engine.trace().counter(Counter::RequestsSubmitted), n);
        done
    }

    #[test]
    fn every_registry_scheme_completes_work_through_the_trait() {
        for (name, scheme) in registry() {
            scheme.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
            let engine = scheme.build(OramConfig::small_test(), dram(), 7);
            let done = drive(engine, 12);
            assert_eq!(done.len(), 12, "{name}");
            let mut ids: Vec<u64> = done.iter().map(|c| c.id).collect();
            ids.sort_unstable();
            assert_eq!(ids, (0..12).collect::<Vec<u64>>(), "{name}");
        }
    }

    #[test]
    fn registry_names_and_labels_are_distinct() {
        let reg = registry();
        let names: std::collections::HashSet<_> = reg.iter().map(|(n, _)| *n).collect();
        assert_eq!(names.len(), reg.len());
        let labels: std::collections::HashSet<_> = reg.iter().map(|(_, s)| s.label()).collect();
        assert_eq!(labels.len(), reg.len());
    }

    #[test]
    fn by_name_round_trips() {
        for (name, scheme) in registry() {
            assert_eq!(by_name(name), Some(scheme));
        }
        assert_eq!(by_name("ring-oram"), None);
    }

    #[test]
    fn insecure_engine_interleaves_chronologically() {
        let mut engine = InsecureEngine::new(dram(), 64);
        // Submit out of order: the later-submitted request has the earlier
        // arrival and must issue (and finish) first.
        engine.submit(NewRequest::read(9, 5_000_000)).unwrap();
        let early = NewRequest {
            tag: 1,
            ..NewRequest::read(1, 0)
        };
        engine.submit(early).unwrap();
        let done = engine.run_to_idle().unwrap();
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].tag, 1, "earlier arrival completes first");
        assert!(done[0].done_ps <= done[1].done_ps);
        assert_eq!(engine.stats().avg_path_len(), 1.0);
        assert_eq!(engine.stash_high_water(), 0);
    }

    /// The provided methods and the batch door, on every engine the
    /// registry builds, bare and under an injector that injects nothing;
    /// and the request ledger's contract: every id handed out is one
    /// `RequestSubmitted`, every latency sample one `RequestCompleted`,
    /// and the statistics' latency sum is the histogram's.
    #[test]
    fn every_engine_answers_the_trait_bare_and_wrapped() {
        for (name, scheme) in registry() {
            for wrapped in [false, true] {
                let case = format!("{name}, wrapped: {wrapped}");
                let mut engine = scheme.build(OramConfig::small_test(), dram(), 3);
                if wrapped {
                    engine = Box::new(FaultInjector::new(engine, FaultConfig::default()));
                }
                engine.set_trace_capacity(8);
                assert_eq!(engine.trace().capacity(), 8, "{case}");
                let batch = vec![NewRequest::read(1, 0), NewRequest::read(2, 0)];
                let handed = engine.submit_batch(batch).unwrap();
                assert_eq!(handed, vec![0, 1], "{case}");
                assert!(engine.has_pending_work(), "{case}");
                let mut ids: Vec<u64> =
                    engine.run_to_idle().unwrap().iter().map(|c| c.id).collect();
                ids.sort_unstable();
                assert_eq!(ids, vec![0, 1], "{case}");
                assert!(!engine.has_pending_work(), "{case}");
                let trace = engine.trace();
                let latency = trace.latency_hist();
                let submitted = trace.counter(Counter::RequestsSubmitted);
                assert_eq!(submitted, handed.len() as u64, "{case}");
                assert_eq!(
                    latency.count(),
                    trace.counter(Counter::RequestsCompleted),
                    "{case}"
                );
                assert_eq!(engine.stats().sum_latency_ps, latency.sum(), "{case}");
            }
        }
    }

    /// Drives `scheme` on this thread while a second thread snapshots the
    /// spine in a loop — the counters, both histograms, and the counters
    /// again, kept only if the two counter reads agree, so that no publish
    /// fell between them; returns the number of snapshots, the number
    /// torn, and the final counters. A snapshot is torn when `whole`
    /// rejects its counters, or when it does not hold one latency sample
    /// per `RequestsCompleted` and one occupancy sample per access: the
    /// samples join the spine in the cut of the calls that took them. The
    /// accesses start once the reader has taken a snapshot and go on until
    /// it has taken `DURING` more, so every run overlaps the two threads,
    /// however late the reader is first scheduled.
    fn snapshot_while_accessing(
        scheme: Scheme,
        whole: impl Fn(&[u64; Counter::COUNT]) -> bool + Sync,
    ) -> (u64, u64, [u64; Counter::COUNT]) {
        use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
        const DURING: u64 = 200;
        let mut engine = scheme.build(OramConfig::small_test(), dram(), 11);
        let trace = engine.trace().clone();
        let done = AtomicBool::new(false);
        let taken = AtomicU64::new(0);
        let (snapshots, torn) = std::thread::scope(|s| {
            let reader = s.spawn(|| {
                let (mut snapshots, mut torn) = (0u64, 0u64);
                while !done.load(Ordering::Relaxed) {
                    let c = trace.counters();
                    let (latency, occupancy) = (trace.latency_hist(), trace.occupancy_hist());
                    if trace.counters() != c {
                        continue;
                    }
                    let count = |counter: Counter| c[counter as usize];
                    let accesses = count(Counter::FullReads) + count(Counter::MergedReads);
                    let sampled = latency.count() == count(Counter::RequestsCompleted)
                        && occupancy.count() == accesses;
                    snapshots += 1;
                    torn += u64::from(!sampled || !whole(&c));
                    taken.store(snapshots, Ordering::Relaxed);
                }
                (snapshots, torn)
            });
            while taken.load(Ordering::Relaxed) == 0 {
                std::thread::yield_now();
            }
            let first = taken.load(Ordering::Relaxed);
            let mut i = 0;
            while i < 400 || taken.load(Ordering::Relaxed) - first < DURING {
                engine.submit(NewRequest::read(i * 7 % 256, 0)).unwrap();
                while engine.process_one(&mut NoFeedback).unwrap() {}
                i += 1;
            }
            done.store(true, Ordering::Relaxed);
            reader.join().unwrap()
        });
        (snapshots, torn, trace.counters())
    }

    /// A reader of the spine on another thread sees whole accesses. A
    /// traditional access without a cache reads one full path and writes
    /// `L + 1` buckets (so do its posmap accesses and its background
    /// evictions), so between accesses `buckets_written` is `(L + 1) x
    /// full_reads`, and inside one it is not.
    #[test]
    fn a_reader_on_another_thread_sees_whole_accesses() {
        let path_len = u64::from(OramConfig::small_test().levels) + 1;
        let (snapshots, torn, c) = snapshot_while_accessing(Scheme::Traditional, |c| {
            let (reads, written) = (
                c[Counter::FullReads as usize],
                c[Counter::BucketsWritten as usize],
            );
            written == path_len * reads
        });
        assert!(snapshots > 0);
        assert_eq!(
            torn, 0,
            "{torn} of {snapshots} snapshots saw part of an access"
        );
        assert!(c[Counter::FullReads as usize] >= 400);
    }

    /// The cut spans the stages: on a Fork Path engine with a merging-aware
    /// cache, the merge stage counts each read (full or merged, and the
    /// levels a merged one skips) and the datapath counts each bucket it
    /// reads as a cache hit or miss, so between accesses `cache_hits +
    /// cache_misses == (L + 1) x (full_reads + merged_reads) -
    /// read_levels_skipped`, and inside one it is not.
    #[test]
    fn a_reader_on_another_thread_sees_whole_fork_accesses() {
        let path_len = u64::from(OramConfig::small_test().levels) + 1;
        let scheme = by_name("fork+mac").expect("registered");
        let (snapshots, torn, c) = snapshot_while_accessing(scheme, |c| {
            let count = |counter: Counter| c[counter as usize];
            let reads = count(Counter::FullReads) + count(Counter::MergedReads);
            count(Counter::CacheHits) + count(Counter::CacheMisses)
                == path_len * reads - count(Counter::ReadLevelsSkipped)
        });
        assert!(snapshots > 0);
        assert_eq!(
            torn, 0,
            "{torn} of {snapshots} snapshots saw part of an access"
        );
        assert!(c[Counter::MergedReads as usize] > 0, "reads merged");
        assert!(c[Counter::CacheHits as usize] > 0, "the cache hit");
    }
}
