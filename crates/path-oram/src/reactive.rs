//! Closed-loop request feedback for incremental controllers.
//!
//! A driver implements [`ReactiveSource`] so that a core (or service
//! client) whose LLC miss completes during an ORAM access can issue its
//! next miss in time to participate in downstream scheduling — for Fork
//! Path, that feedback loop is what makes dummy replacement (§3.3) fire at
//! realistic rates. The types live here, next to [`Completion`], so both
//! the baseline controller and every optimized engine share one feedback
//! vocabulary.

use crate::controller::{Completion, Op};

/// A follow-up request produced by a [`ReactiveSource`] when a completion is
/// delivered mid-simulation.
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

/// An engine's completion records on their way out: produced, then fed to
/// the driver's [`ReactiveSource`] (whose follow-up requests may complete
/// at once and join the log behind the cursor), then drained.
#[derive(Debug, Default)]
pub struct CompletionLog {
    records: Vec<Completion>,
    /// Records before this index have been fed to the reactive source.
    fed: usize,
}

impl CompletionLog {
    /// Appends a completion record.
    pub fn push(&mut self, completion: Completion) {
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
