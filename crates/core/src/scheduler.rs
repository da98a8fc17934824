//! Pipeline stage: **ORAM-request scheduling** (§3.4, §4.2, Algorithm 1).
//!
//! Wraps the fixed-size [`LabelQueue`] (Fig 7b/9) behind the two selection
//! entry points the controller actually uses:
//!
//! * [`RequestScheduler::select_pending`] — the refill-time top-candidate
//!   pick that maximizes overlap with the path being written back (this is
//!   the scheduling decision the paper's stats are counted over);
//! * [`RequestScheduler::select_initial`] — the pick that starts a burst
//!   after an idle gap, where unrevealed dummy padding is silently put
//!   back rather than executed.
//!
//! Aging/starvation, FIFO tie-breaking and dummy padding semantics live in
//! [`LabelQueue`]; this stage adds the policy wiring and the counters.

use fp_trace::{Counter, EventKind, TraceHandle};

use crate::queue::{Entry, EntryKind, LabelQueue};

/// The request-reordering stage: a label queue plus selection policy.
#[derive(Debug, Clone)]
pub struct RequestScheduler {
    lq: LabelQueue,
    scheduling: bool,
    trace: TraceHandle,
}

impl RequestScheduler {
    /// Creates the stage. `capacity` is the queue size `M`,
    /// `starvation_threshold` the age at which an entry wins outright, and
    /// `scheduling` toggles overlap-maximizing selection (false = ready-FIFO,
    /// the ablation baseline).
    pub fn new(capacity: usize, starvation_threshold: u32, scheduling: bool) -> Self {
        Self {
            lq: LabelQueue::new(capacity, starvation_threshold),
            scheduling,
            trace: TraceHandle::default(),
        }
    }

    /// Attaches a shared trace spine; scheduling counters and events
    /// report there from now on.
    pub fn attach_trace(&mut self, trace: TraceHandle) {
        self.trace = trace;
    }

    /// Whether overlap-maximizing selection is active.
    pub fn scheduling(&self) -> bool {
        self.scheduling
    }

    /// Selects the pending (next) request during a refill of `current`:
    /// the ready entry with the highest overlap degree, reals outranking
    /// dummy padding. Counts a scheduling round.
    pub fn select_pending(&mut self, levels: u32, current: u64, now_ps: u64) -> Option<Entry> {
        let ready = self.real_ready_times().filter(|&r| r <= now_ps).count() as u64;
        self.trace.add(Counter::SchedReadyReals, ready);
        self.trace.bump(Counter::SchedRounds);
        let picked = self.lq.select(levels, current, now_ps, self.scheduling);
        if let Some(e) = &picked {
            self.trace
                .record(now_ps, EventKind::RequestScheduled { label: e.label });
        }
        picked
    }

    /// Selects the first access of a burst (start-up or after an idle gap):
    /// only real entries count — unrevealed dummy padding is put back
    /// rather than executed, and no scheduling round is charged (the
    /// padding was never part of the externally visible stream).
    pub fn select_initial(&mut self, levels: u32, anchor: u64, now_ps: u64) -> Option<Entry> {
        let mut discarded = Vec::new();
        let picked = loop {
            match self.lq.select(levels, anchor, now_ps, self.scheduling) {
                Some(e) if e.is_dummy() => discarded.push(e),
                other => break other,
            }
        };
        for e in discarded {
            self.lq.restore(e);
        }
        if let Some(e) = &picked {
            self.trace
                .record(now_ps, EventKind::RequestScheduled { label: e.label });
        }
        picked
    }

    /// Inserts a real request (displacing the oldest dummy).
    ///
    /// # Errors
    ///
    /// Returns the kind back when the queue is full of reals — the address
    /// queue must apply backpressure.
    pub fn insert_real(
        &mut self,
        label: u64,
        kind: EntryKind,
        ready_ps: u64,
    ) -> Result<(), EntryKind> {
        self.lq.insert_real(label, kind, ready_ps)
    }

    /// Puts a previously selected entry back (Algorithm 1's swap).
    pub fn restore(&mut self, entry: Entry) {
        self.lq.restore(entry);
    }

    /// Pads the queue with dummies up to capacity (Fig 7b).
    pub fn pad_with(&mut self, fresh_label: impl FnMut() -> u64) {
        self.lq.pad_with(fresh_label);
    }

    /// Whether a real entry can currently be inserted.
    pub fn has_space_for_real(&self) -> bool {
        self.lq.has_space_for_real()
    }

    /// Ready times of the queued real entries, in queue order.
    fn real_ready_times(&self) -> impl Iterator<Item = u64> + '_ {
        let reals = self.lq.iter().filter(|e| !e.is_dummy());
        reals.map(|e| e.ready_ps)
    }

    /// Earliest time any queued real entry becomes schedulable.
    pub fn earliest_real_ready(&self) -> Option<u64> {
        self.real_ready_times().min()
    }

    /// Earliest ready time among the queued real entries that became
    /// ready after `after_ps` — the lower edge of a replacement window.
    pub fn earliest_real_ready_after(&self, after_ps: u64) -> Option<u64> {
        self.real_ready_times().filter(|&r| r > after_ps).min()
    }

    /// Searches for a mid-refill replacement candidate (§3.3); see
    /// [`LabelQueue::take_replacement`].
    #[allow(clippy::too_many_arguments)]
    pub fn take_replacement(
        &mut self,
        levels: u32,
        current: u64,
        window_lo: u64,
        now_ps: u64,
        pending_overlap: u32,
        pending_is_dummy: bool,
        max_cross_level: u32,
    ) -> Option<Entry> {
        self.lq.take_replacement(
            levels,
            current,
            window_lo,
            now_ps,
            pending_overlap,
            pending_is_dummy,
            max_cross_level,
        )
    }

    /// Iterates over the queued entries (stats/tests).
    pub fn iter(&self) -> impl Iterator<Item = &Entry> {
        self.lq.iter()
    }

    /// Number of real entries queued.
    pub fn real_count(&self) -> usize {
        self.lq.real_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn real(flight: u64) -> EntryKind {
        EntryKind::Real { flight }
    }

    /// (c) Reordering never breaks per-address program order: requests to
    /// the same address share a label (equal overlap with any current
    /// path), so the FIFO tie-break replays them in submission order.
    #[test]
    fn same_address_requests_keep_program_order() {
        let mut s = RequestScheduler::new(8, 64, true);
        // Three same-label (same-address) steps interleaved with traffic to
        // other labels.
        s.insert_real(5, real(0), 0).unwrap();
        s.insert_real(9, real(100), 0).unwrap();
        s.insert_real(5, real(1), 0).unwrap();
        s.insert_real(2, real(101), 0).unwrap();
        s.insert_real(5, real(2), 0).unwrap();
        s.pad_with(|| 3);
        let mut same_addr_order = Vec::new();
        for _ in 0..5 {
            let e = s.select_pending(4, 13, 0).unwrap();
            if e.label == 5 {
                same_addr_order.push(e.kind);
            }
        }
        assert_eq!(
            same_addr_order,
            vec![real(0), real(1), real(2)],
            "equal-label entries must come out FIFO"
        );
    }

    #[test]
    fn select_pending_counts_rounds_and_ready_reals() {
        let mut s = RequestScheduler::new(4, 64, true);
        s.insert_real(1, real(0), 0).unwrap();
        s.insert_real(2, real(1), 0).unwrap();
        s.insert_real(3, real(2), 5_000).unwrap(); // not ready yet
        s.pad_with(|| 0);
        let _ = s.select_pending(3, 1, 0);
        assert_eq!(s.trace.counter(Counter::SchedRounds), 1);
        assert_eq!(
            s.trace.counter(Counter::SchedReadyReals),
            2,
            "future entry is not ready"
        );
    }

    #[test]
    fn select_initial_discards_padding_and_charges_no_round() {
        let mut s = RequestScheduler::new(4, 64, true);
        s.pad_with(|| 7);
        s.insert_real(1, real(9), 0).unwrap();
        let picked = s.select_initial(3, 7, 0).unwrap();
        assert_eq!(picked.kind, real(9), "dummies are skipped, not executed");
        assert_eq!(
            s.trace.counter(Counter::SchedRounds),
            0,
            "initial pick is not a scheduling round"
        );
        // The discarded dummies went back: queue is full again minus the pick.
        assert_eq!(s.iter().count(), 3);
        assert_eq!(s.real_count(), 0);
    }

    #[test]
    fn select_initial_returns_none_when_only_padding() {
        let mut s = RequestScheduler::new(4, 64, true);
        s.pad_with(|| 1);
        assert!(s.select_initial(3, 1, 0).is_none());
        assert_eq!(s.iter().count(), 4, "padding restored intact");
    }

    #[test]
    fn earliest_real_ready_ignores_dummies() {
        let mut s = RequestScheduler::new(4, 64, true);
        s.pad_with(|| 0);
        assert_eq!(s.earliest_real_ready(), None);
        s.insert_real(1, real(0), 700).unwrap();
        s.insert_real(1, real(1), 300).unwrap();
        assert_eq!(s.earliest_real_ready(), Some(300));
    }

    #[test]
    fn earliest_real_ready_after_opens_the_window_strictly() {
        let mut s = RequestScheduler::new(4, 64, true);
        s.pad_with(|| 0);
        s.insert_real(1, real(0), 300).unwrap();
        s.insert_real(1, real(1), 700).unwrap();
        assert_eq!(s.earliest_real_ready_after(0), Some(300));
        assert_eq!(s.earliest_real_ready_after(299), Some(300));
        assert_eq!(
            s.earliest_real_ready_after(300),
            Some(700),
            "strictly after"
        );
        assert_eq!(
            s.earliest_real_ready_after(700),
            None,
            "padding never counts"
        );
    }

    #[test]
    fn fifo_mode_disables_overlap_ranking() {
        let mut s = RequestScheduler::new(4, 64, false);
        s.insert_real(4, real(1), 0).unwrap(); // poor overlap, first in
        s.insert_real(0, real(2), 0).unwrap(); // perfect overlap with current 1
        s.pad_with(|| 6);
        let picked = s.select_pending(3, 1, 0).unwrap();
        assert_eq!(picked.kind, real(1));
    }
}
