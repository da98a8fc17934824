//! Pipeline stage: **ORAM-request scheduling** (§3.4, §4.2, Algorithm 1).
//!
//! The label queue holds exactly `M` entries at all times: real pending
//! ORAM requests plus dummy padding with uniformly random labels (Fig 7b).
//! Every scheduling decision therefore operates on a constant-size window,
//! so the degree of path overlap reveals nothing about LLC intensity.
//!
//! [`LabelQueue`] is the whole stage — entries, selection policy and
//! counters — behind the entry points the controller uses:
//!
//! * [`LabelQueue::select_pending`] — the refill-time top-candidate pick
//!   that maximizes overlap with the path being written back (this is the
//!   scheduling decision the paper's stats are counted over);
//! * [`LabelQueue::select_initial`] — the pick that starts a burst after an
//!   idle gap, where unrevealed dummy padding is silently put back rather
//!   than executed;
//! * [`LabelQueue::take_replacement`] — the mid-refill replacement search
//!   of §3.3.

use fp_path_oram::path::overlap_degree;
use fp_trace::{Counter, EventKind, TraceHandle};

/// Age (in scheduling rounds) after which a pending entry is promoted to
/// the head of the queue to avoid starvation (§4).
const STARVATION_THRESHOLD: u32 = 512;

/// What an entry stands for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EntryKind {
    /// A real ORAM request: one step of some LLC request's posmap chain.
    /// The payload is an opaque flight id owned by the controller.
    Real {
        /// Controller-side flight identifier.
        flight: u64,
    },
    /// Dummy padding.
    Dummy,
}

/// One label-queue slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Entry {
    /// The ORAM path this request will traverse.
    pub(crate) label: u64,
    /// Real or dummy.
    pub(crate) kind: EntryKind,
    /// Time the entry became schedulable, picoseconds.
    pub(crate) ready_ps: u64,
    /// Scheduling rounds survived without being selected.
    age: u32,
    /// Insertion order, for FIFO tie-breaking.
    seq: u64,
}

impl Entry {
    /// Whether the entry is a dummy.
    pub(crate) fn is_dummy(&self) -> bool {
        matches!(self.kind, EntryKind::Dummy)
    }

    /// A free-standing dummy entry (used when the controller materializes
    /// the conceptual queue padding as the pending request).
    pub(crate) fn dummy(label: u64, ready_ps: u64) -> Self {
        Self {
            label,
            kind: EntryKind::Dummy,
            ready_ps,
            age: 0,
            seq: u64::MAX,
        }
    }
}

/// The fixed-size scheduling queue of Fig 9 plus its selection policy.
#[derive(Debug, Clone)]
pub(crate) struct LabelQueue {
    entries: Vec<Entry>,
    capacity: usize,
    /// Overlap-maximizing selection; false = ready-FIFO (with the same
    /// real-over-dummy preference), isolating merging for ablations.
    scheduling: bool,
    next_seq: u64,
    trace: TraceHandle,
}

impl LabelQueue {
    /// Creates an empty queue with capacity `M`; `scheduling` toggles
    /// overlap-maximizing selection.
    pub(crate) fn new(capacity: usize, scheduling: bool) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        Self {
            entries: Vec::with_capacity(capacity),
            capacity,
            scheduling,
            next_seq: 0,
            trace: TraceHandle::default(),
        }
    }

    /// Attaches a shared trace spine; scheduling counters and events
    /// report there from now on.
    pub(crate) fn attach_trace(&mut self, trace: TraceHandle) {
        self.trace = trace;
    }

    /// Whether a real entry can currently be inserted (a dummy to displace
    /// or a free slot exists).
    pub(crate) fn has_space_for_real(&self) -> bool {
        self.entries.len() < self.capacity || self.entries.iter().any(Entry::is_dummy)
    }

    /// Pads the queue with dummies until it holds `M` entries (Fig 7b).
    /// `fresh_label` draws a uniform leaf label per dummy.
    pub(crate) fn pad_with(&mut self, mut fresh_label: impl FnMut() -> u64) {
        while self.entries.len() < self.capacity {
            let seq = self.bump_seq();
            self.entries.push(Entry {
                label: fresh_label(),
                kind: EntryKind::Dummy,
                ready_ps: 0,
                age: 0,
                seq,
            });
        }
    }

    /// Inserts a real request, displacing the oldest dummy if the queue is
    /// full (Algorithm 1's "replace the first dummy request").
    ///
    /// # Errors
    ///
    /// Returns the entry back when the queue is full of real requests —
    /// the address queue must apply backpressure.
    pub(crate) fn insert_real(
        &mut self,
        label: u64,
        kind: EntryKind,
        ready_ps: u64,
    ) -> Result<(), EntryKind> {
        debug_assert!(!matches!(kind, EntryKind::Dummy));
        let seq = self.bump_seq();
        let entry = Entry {
            label,
            kind,
            ready_ps,
            age: 0,
            seq,
        };
        if self.entries.len() < self.capacity {
            self.entries.push(entry);
            return Ok(());
        }
        match self.oldest_dummy() {
            Some(idx) => {
                self.entries[idx] = entry;
                Ok(())
            }
            None => Err(kind),
        }
    }

    /// Selects the pending (next) request during a refill of `current`:
    /// the ready entry with the highest overlap degree, reals outranking
    /// dummy padding. Counts a scheduling round.
    pub(crate) fn select_pending(
        &mut self,
        levels: u32,
        current: u64,
        now_ps: u64,
    ) -> Option<Entry> {
        let ready = self.real_ready_times().filter(|&r| r <= now_ps).count() as u64;
        self.trace.add(Counter::SchedReadyReals, ready);
        self.trace.bump(Counter::SchedRounds);
        let picked = self.select(levels, current, now_ps);
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
    pub(crate) fn select_initial(
        &mut self,
        levels: u32,
        anchor: u64,
        now_ps: u64,
    ) -> Option<Entry> {
        let mut discarded = Vec::new();
        let picked = loop {
            match self.select(levels, anchor, now_ps) {
                Some(e) if e.is_dummy() => discarded.push(e),
                other => break other,
            }
        };
        for e in discarded {
            self.restore(e);
        }
        if let Some(e) = &picked {
            self.trace
                .record(now_ps, EventKind::RequestScheduled { label: e.label });
        }
        picked
    }

    /// Selects and removes the next request to merge with the path `current`
    /// (§3.4): the ready entry with the highest overlap degree; ties prefer
    /// real over dummy, then FIFO. An entry whose age exceeded the
    /// starvation threshold wins outright (oldest first). Without
    /// `scheduling` the overlap is ignored: ready-FIFO.
    ///
    /// Returns `None` when no entry is ready by `now_ps` (the queue is
    /// conceptually full of dummies; the controller materializes one
    /// lazily).
    fn select(&mut self, levels: u32, current: u64, now_ps: u64) -> Option<Entry> {
        let ready = |e: &Entry| e.ready_ps <= now_ps;

        // Starvation promotion first.
        let starved = self
            .entries
            .iter()
            .enumerate()
            .filter(|(_, e)| ready(e) && e.age >= STARVATION_THRESHOLD)
            .min_by_key(|(_, e)| e.seq)
            .map(|(i, _)| i);

        let idx = starved.or_else(|| {
            self.entries
                .iter()
                .enumerate()
                .filter(|(_, e)| ready(e))
                .max_by(|(_, a), (_, b)| {
                    let key = |e: &Entry| {
                        let overlap = if self.scheduling {
                            overlap_degree(levels, current, e.label)
                        } else {
                            0
                        };
                        // Real requests outrank dummy padding outright —
                        // dummies are launched only when no real request is
                        // schedulable (§3.2 step 6; this is what keeps the
                        // extra-request overhead at Fig 11's ~5% instead of
                        // letting padding flood the bus). Among peers:
                        // higher overlap first, then FIFO (smaller seq wins,
                        // so invert).
                        (!e.is_dummy(), overlap, u64::MAX - e.seq)
                    };
                    key(a).cmp(&key(b))
                })
                .map(|(i, _)| i)
        })?;

        // Age every loser that was eligible this round.
        for (i, e) in self.entries.iter_mut().enumerate() {
            if i != idx && e.ready_ps <= now_ps {
                e.age += 1;
            }
        }
        Some(self.entries.swap_remove(idx))
    }

    /// Puts a previously selected entry back (a real pending displaced by
    /// Algorithm 1's swap). Displaces the oldest dummy if needed; if the
    /// queue is somehow full of reals the entry is force-appended (capacity
    /// is then transiently exceeded, which can only happen via swaps).
    pub(crate) fn restore(&mut self, entry: Entry) {
        if self.entries.len() < self.capacity {
            self.entries.push(entry);
            return;
        }
        match self.oldest_dummy() {
            Some(idx) => self.entries[idx] = entry,
            None => self.entries.push(entry),
        }
    }

    /// Searches for a real entry that may replace the pending request
    /// mid-refill (§3.3 / Algorithm 1).
    ///
    /// Eligibility: the entry arrived *after* the pending request was
    /// selected (`ready_ps` in `(window_lo, now]`), the bucket where its
    /// path crosses the current path has not been committed yet
    /// (`divergence <= max_cross_level`, Fig 5 case 3), and it either beats
    /// the pending request's overlap strictly or the pending request is a
    /// dummy. Returns the best such entry, removed from the queue.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn take_replacement(
        &mut self,
        levels: u32,
        current: u64,
        window_lo: u64,
        now_ps: u64,
        pending_overlap: u32,
        pending_is_dummy: bool,
        max_cross_level: u32,
    ) -> Option<Entry> {
        let idx = self
            .entries
            .iter()
            .enumerate()
            .filter(|(_, e)| {
                !e.is_dummy()
                    && e.ready_ps > window_lo
                    && e.ready_ps <= now_ps
                    && overlap_degree(levels, current, e.label) - 1 <= max_cross_level
                    && (pending_is_dummy
                        || overlap_degree(levels, current, e.label) > pending_overlap)
            })
            .max_by_key(|(_, e)| (overlap_degree(levels, current, e.label), u64::MAX - e.seq))
            .map(|(i, _)| i)?;
        Some(self.entries.swap_remove(idx))
    }

    /// Ready times of the queued real entries, in queue order.
    fn real_ready_times(&self) -> impl Iterator<Item = u64> + '_ {
        let reals = self.entries.iter().filter(|e| !e.is_dummy());
        reals.map(|e| e.ready_ps)
    }

    /// Earliest time any queued real entry becomes schedulable.
    pub(crate) fn earliest_real_ready(&self) -> Option<u64> {
        self.real_ready_times().min()
    }

    /// Earliest ready time among the queued real entries that became
    /// ready after `after_ps` — the lower edge of a replacement window.
    pub(crate) fn earliest_real_ready_after(&self, after_ps: u64) -> Option<u64> {
        self.real_ready_times().filter(|&r| r > after_ps).min()
    }

    /// Index of the oldest dummy (smallest seq among dummies).
    fn oldest_dummy(&self) -> Option<usize> {
        let dummies = self
            .entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.is_dummy());
        dummies.min_by_key(|(_, e)| e.seq).map(|(i, _)| i)
    }

    fn bump_seq(&mut self) -> u64 {
        let s = self.next_seq;
        self.next_seq += 1;
        s
    }

    /// Number of entries (equals capacity once padded).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Number of real entries.
    #[cfg(test)]
    pub(crate) fn real_count(&self) -> usize {
        self.entries.iter().filter(|e| !e.is_dummy()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn real(flight: u64) -> EntryKind {
        EntryKind::Real { flight }
    }

    /// The queue with overlap-maximizing selection on.
    fn queue(capacity: usize) -> LabelQueue {
        LabelQueue::new(capacity, true)
    }

    #[test]
    fn pad_fills_to_capacity() {
        let mut q = queue(8);
        let mut n = 0u64;
        q.pad_with(|| {
            n += 1;
            n
        });
        assert_eq!(q.len(), 8);
        assert_eq!(q.real_count(), 0);
        assert!(q.has_space_for_real());
    }

    /// What the type's doc example used to show: padding fills the queue,
    /// and a real insertion displaces a dummy rather than growing it.
    #[test]
    fn a_real_displaces_padding() {
        let mut q = queue(4);
        q.pad_with(|| 5);
        assert_eq!(q.len(), 4);
        q.insert_real(3, real(0), 0).unwrap();
        assert_eq!(q.len(), 4);
        assert_eq!(q.real_count(), 1);
    }

    #[test]
    fn insert_replaces_oldest_dummy() {
        let mut q = queue(2);
        q.pad_with(|| 0);
        q.insert_real(5, real(1), 0).unwrap();
        assert_eq!(q.real_count(), 1);
        assert_eq!(q.len(), 2);
        q.insert_real(6, real(2), 0).unwrap();
        assert_eq!(q.real_count(), 2);
        // Now full of reals.
        assert!(!q.has_space_for_real());
        assert!(q.insert_real(7, real(3), 0).is_err());
    }

    #[test]
    fn select_prefers_highest_overlap() {
        // Fig 6: current = path-1 (L = 3); pending paths 4 and 0.
        let mut q = queue(4);
        q.insert_real(4, real(10), 0).unwrap();
        q.insert_real(0, real(20), 0).unwrap();
        q.pad_with(|| 7); // low-overlap dummies
        let picked = q.select(3, 1, 0).unwrap();
        assert_eq!(picked.label, 0, "path-0 overlaps path-1 more than path-4");
        assert_eq!(picked.kind, real(20));
    }

    #[test]
    fn tie_prefers_real_over_dummy() {
        let mut q = queue(2);
        // Dummy with the same label as the real: identical overlap.
        let mut labels = [3u64].into_iter();
        q.pad_with(|| labels.next().unwrap_or(3));
        q.insert_real(3, real(1), 0).unwrap();
        q.pad_with(|| 3);
        let picked = q.select(3, 3, 0).unwrap();
        assert!(!picked.is_dummy());
    }

    #[test]
    fn unready_entries_are_skipped() {
        let mut q = queue(2);
        q.insert_real(7, real(1), 1_000).unwrap(); // ready in the future
        q.pad_with(|| 0);
        let picked = q.select(3, 7, 500).unwrap();
        assert!(picked.is_dummy(), "future real must not be schedulable yet");
        assert_eq!(q.real_count(), 1);
    }

    #[test]
    fn select_returns_none_when_nothing_ready() {
        let mut q = queue(2);
        q.insert_real(7, real(1), 1_000).unwrap();
        assert!(q.select(3, 0, 500).is_none());
    }

    #[test]
    fn starvation_promotes_aged_entry() {
        let mut q = queue(4);
        q.insert_real(4, real(99), 0).unwrap(); // poor overlap with current 0
                                                // A stream of perfect-overlap competitors keeps winning...
        for i in 0..u64::from(STARVATION_THRESHOLD) {
            q.insert_real(0, real(i), 0).unwrap();
            let e = q.select(3, 0, 0).unwrap();
            assert_eq!(
                e.kind,
                real(i),
                "fresh perfect-overlap entry wins round {i}"
            );
        }
        // ...until the old entry's age crosses the threshold.
        q.insert_real(0, real(u64::MAX), 0).unwrap();
        let e = q.select(3, 0, 0).unwrap();
        assert_eq!(e.kind, real(99), "starved entry must be promoted");
    }

    #[test]
    fn dummy_only_launches_when_no_real_ready() {
        let mut q = queue(4);
        // Dummy with perfect overlap vs real with the worst overlap.
        q.pad_with(|| 1);
        q.insert_real(7, real(1), 0).unwrap();
        let e = q.select(3, 1, 0).unwrap();
        assert!(!e.is_dummy(), "reals outrank dummy padding outright");
    }

    #[test]
    fn fifo_mode_ignores_overlap() {
        let mut q = LabelQueue::new(4, false);
        q.insert_real(4, real(1), 0).unwrap(); // first in
        q.insert_real(0, real(2), 0).unwrap(); // better overlap with current 1
        q.pad_with(|| 6);
        let picked = q.select(3, 1, 0).unwrap();
        assert_eq!(picked.kind, real(1), "scheduling off = FIFO among reals");
    }

    #[test]
    fn restore_displaces_dummy() {
        let mut q = queue(2);
        q.pad_with(|| 0);
        let e = q.select(3, 0, 0).unwrap();
        q.pad_with(|| 0);
        let real_entry = Entry { kind: real(9), ..e };
        q.restore(real_entry);
        assert_eq!(q.len(), 2);
        assert_eq!(q.real_count(), 1);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = LabelQueue::new(0, true);
    }

    /// (c) Reordering never breaks per-address program order: requests to
    /// the same address share a label (equal overlap with any current
    /// path), so the FIFO tie-break replays them in submission order.
    #[test]
    fn same_address_requests_keep_program_order() {
        let mut q = queue(8);
        // Three same-label (same-address) steps interleaved with traffic to
        // other labels.
        q.insert_real(5, real(0), 0).unwrap();
        q.insert_real(9, real(100), 0).unwrap();
        q.insert_real(5, real(1), 0).unwrap();
        q.insert_real(2, real(101), 0).unwrap();
        q.insert_real(5, real(2), 0).unwrap();
        q.pad_with(|| 3);
        let mut same_addr_order = Vec::new();
        for _ in 0..5 {
            let e = q.select_pending(4, 13, 0).unwrap();
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
        let mut q = queue(4);
        q.insert_real(1, real(0), 0).unwrap();
        q.insert_real(2, real(1), 0).unwrap();
        q.insert_real(3, real(2), 5_000).unwrap(); // not ready yet
        q.pad_with(|| 0);
        let _ = q.select_pending(3, 1, 0);
        assert_eq!(q.trace.counter(Counter::SchedRounds), 1);
        assert_eq!(
            q.trace.counter(Counter::SchedReadyReals),
            2,
            "future entry is not ready"
        );
    }

    #[test]
    fn select_initial_discards_padding_and_charges_no_round() {
        let mut q = queue(4);
        q.pad_with(|| 7);
        q.insert_real(1, real(9), 0).unwrap();
        let picked = q.select_initial(3, 7, 0).unwrap();
        assert_eq!(picked.kind, real(9), "dummies are skipped, not executed");
        assert_eq!(
            q.trace.counter(Counter::SchedRounds),
            0,
            "initial pick is not a scheduling round"
        );
        // The discarded dummies went back: queue is full again minus the pick.
        assert_eq!(q.len(), 3);
        assert_eq!(q.real_count(), 0);
    }

    #[test]
    fn select_initial_returns_none_when_only_padding() {
        let mut q = queue(4);
        q.pad_with(|| 1);
        assert!(q.select_initial(3, 1, 0).is_none());
        assert_eq!(q.len(), 4, "padding restored intact");
    }

    #[test]
    fn earliest_real_ready_ignores_dummies() {
        let mut q = queue(4);
        q.pad_with(|| 0);
        assert_eq!(q.earliest_real_ready(), None);
        q.insert_real(1, real(0), 700).unwrap();
        q.insert_real(1, real(1), 300).unwrap();
        assert_eq!(q.earliest_real_ready(), Some(300));
    }

    #[test]
    fn earliest_real_ready_after_opens_the_window_strictly() {
        let mut q = queue(4);
        q.pad_with(|| 0);
        q.insert_real(1, real(0), 300).unwrap();
        q.insert_real(1, real(1), 700).unwrap();
        assert_eq!(q.earliest_real_ready_after(0), Some(300));
        assert_eq!(q.earliest_real_ready_after(299), Some(300));
        assert_eq!(
            q.earliest_real_ready_after(300),
            Some(700),
            "strictly after"
        );
        assert_eq!(
            q.earliest_real_ready_after(700),
            None,
            "padding never counts"
        );
    }

    #[test]
    fn fifo_mode_disables_overlap_ranking() {
        let mut q = LabelQueue::new(4, false);
        q.insert_real(4, real(1), 0).unwrap(); // poor overlap, first in
        q.insert_real(0, real(2), 0).unwrap(); // perfect overlap with current 1
        q.pad_with(|| 6);
        let picked = q.select_pending(3, 1, 0).unwrap();
        assert_eq!(picked.kind, real(1));
    }
}
