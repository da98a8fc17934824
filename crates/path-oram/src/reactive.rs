//! The request and completion vocabulary of every incremental engine, and
//! closed-loop request feedback.
//!
//! A driver implements [`ReactiveSource`] so that a core (or service
//! client) whose LLC miss completes during an ORAM access can issue its
//! next miss in time to participate in downstream scheduling — for Fork
//! Path, that feedback loop is what makes dummy replacement (§3.3) fire at
//! realistic rates. The types live here, below every engine, so the
//! baseline, Fork Path and the insecure reference share one vocabulary,
//! and one request ledger ([`CompletionLog`]).

use fp_trace::{EventKind, Tally};

/// LLC request direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Cache-line fill.
    Read,
    /// Dirty write-back.
    Write,
}

/// A completed LLC request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Completion {
    /// Id the engine assigned the request on submission.
    pub id: u64,
    /// Program address.
    pub addr: u64,
    /// Data as read (pre-write payload for writes).
    pub data: Vec<u8>,
    /// Arrival time, picoseconds.
    pub arrival_ps: u64,
    /// Time the data block's read phase delivered the data, picoseconds.
    pub done_ps: u64,
    /// Tag from the originating request.
    pub tag: u64,
}

/// A request handed to an engine: submitted by a driver, or produced by a
/// [`ReactiveSource`] when a completion is delivered mid-simulation.
#[derive(Debug, Clone)]
pub struct NewRequest {
    /// Program (data-block) address.
    pub addr: u64,
    /// Direction.
    pub op: Op,
    /// Payload for writes.
    pub data: Vec<u8>,
    /// Arrival time at the controller, picoseconds.
    pub arrival_ps: u64,
    /// Opaque routing tag echoed in the completion.
    pub tag: u64,
}

impl NewRequest {
    /// A read of `addr` arriving at `arrival_ps`, tag 0.
    pub fn read(addr: u64, arrival_ps: u64) -> Self {
        Self {
            addr,
            op: Op::Read,
            data: Vec::new(),
            arrival_ps,
            tag: 0,
        }
    }

    /// A write of `data` to `addr` arriving at `arrival_ps`, tag 0.
    pub fn write(addr: u64, data: Vec<u8>, arrival_ps: u64) -> Self {
        Self {
            addr,
            op: Op::Write,
            data,
            arrival_ps,
            tag: 0,
        }
    }
}

/// Closed-loop request feedback: the system simulator implements this so
/// that a core whose miss completes during an access can issue its next miss
/// in time to participate in dummy replacement.
pub trait ReactiveSource {
    /// Called the moment `completion`'s data is returned; any produced
    /// requests are submitted before the refill decision.
    fn on_complete(&mut self, completion: &Completion) -> Vec<NewRequest>;
}

impl<S: ReactiveSource + ?Sized> ReactiveSource for &mut S {
    fn on_complete(&mut self, completion: &Completion) -> Vec<NewRequest> {
        (**self).on_complete(completion)
    }
}

/// A no-op source for open-loop use.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoFeedback;

impl ReactiveSource for NoFeedback {
    fn on_complete(&mut self, _completion: &Completion) -> Vec<NewRequest> {
        Vec::new()
    }
}

/// The request ledger under every engine: the one place a request is
/// numbered on its way in and accounted on its way out. [`open`] hands out
/// the id and records `RequestSubmitted`; [`push`] records
/// `RequestCompleted` and the latency sample, then holds the record for
/// the driver's [`ReactiveSource`] (whose follow-up requests may complete
/// at once and join the log behind the cursor) until it is drained. Its
/// events and latency samples count in the engine's tally, which each
/// call is handed.
///
/// [`open`]: CompletionLog::open
/// [`push`]: CompletionLog::push
#[derive(Debug, Default)]
pub struct CompletionLog {
    /// Id of the next request opened; ids count from 0 in submission
    /// order.
    next_id: u64,
    records: Vec<Completion>,
    /// Records before this index have been fed to the reactive source.
    fed: usize,
}

impl CompletionLog {
    /// Numbers a request arriving at `arrival_ps` and records its
    /// `RequestSubmitted` event in `tally`; returns the id.
    pub fn open(&mut self, arrival_ps: u64, tally: &mut Tally) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        tally.record(arrival_ps, EventKind::RequestSubmitted { id });
        id
    }

    /// Closes a request: records its `RequestCompleted` event at
    /// `done_ps` in `tally` and the latency sample `done_ps - arrival_ps`,
    /// then appends the record. A cancelled write comes through here too,
    /// with `done_ps == arrival_ps`.
    pub fn push(&mut self, completion: Completion, tally: &mut Tally) {
        let (id, done_ps) = (completion.id, completion.done_ps);
        tally.record(done_ps, EventKind::RequestCompleted { id });
        tally.record_latency(done_ps.saturating_sub(completion.arrival_ps));
        self.records.push(completion);
    }

    /// The oldest record not yet fed to the reactive source, marking it
    /// fed. The engine's feedback loop calls this until `None`,
    /// submitting what the source returns in between.
    pub fn next_unfed(&mut self) -> Option<Completion> {
        let next = self.records.get(self.fed).cloned();
        self.fed += usize::from(next.is_some());
        next
    }

    /// Whether every record has been fed. A record that has not cannot
    /// be drained yet, so an engine holding one still has pending work.
    pub fn all_fed(&self) -> bool {
        self.fed == self.records.len()
    }

    /// Removes and returns the records that have been fed; anything
    /// newer is delivered by a later drain, after the next feedback pass.
    pub fn drain_fed(&mut self) -> Vec<Completion> {
        let fed = std::mem::take(&mut self.fed);
        self.records.drain(..fed).collect()
    }
}
