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
//!
//! A round costs what the real requests in it cost. Reals outrank padding
//! outright, so the reals and the padding are kept apart: the padding in
//! `seq` order (its front is the dummy a real displaces), and the reals
//! split into those already eligible — ready at some round, and so at
//! every later one, because `now_ps` never decreases — and those still
//! waiting for their ready time. A round scans the eligible reals, and the
//! padding's label column only when none is eligible. Nobody's age is
//! incremented: rounds are numbered, and an entry's age is the number of
//! rounds since it was born, an entry put back being born as many rounds
//! before as the age it brings. The reference the queue is held to — the
//! four passes and `age += 1` this replaced — is the `reference` test
//! module.

use std::cmp::Reverse;
use std::collections::VecDeque;

use fp_path_oram::path::overlap_degree;
use fp_trace::{Counter, EventKind, Tally};

#[cfg(test)]
mod reference;

/// Age (in scheduling rounds) after which a pending entry is promoted to
/// the head of the queue to avoid starvation (§4).
const STARVATION_THRESHOLD: u32 = 512;
const STARVATION_ROUNDS: u64 = STARVATION_THRESHOLD as u64;

/// The number of the first round: an entry born `age` rounds ago was born
/// in round `round - age`, which never wraps for a `u32` age.
const FIRST_ROUND: u64 = 1 << 32;

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

    /// Scheduling rounds survived without being selected.
    #[cfg(test)]
    pub(crate) fn age(&self) -> u32 {
        self.age
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

/// Where a refill stands when it asks whether a late real may take the
/// pending slot before the bucket at `level` is committed (§3.3, Fig 5).
#[derive(Debug, Clone, Copy)]
pub(crate) struct ReplacementWindow {
    /// Tree depth `L`.
    pub(crate) levels: u32,
    /// The path being refilled.
    pub(crate) leaf: u64,
    /// When the pending request was selected: only a real that became
    /// ready after it is late.
    pub(crate) lo_ps: u64,
    /// The moment of the check: only a real ready by now qualifies.
    pub(crate) now_ps: u64,
    /// The bucket about to be committed; every deeper one is written.
    pub(crate) level: u32,
}

/// A queued real, with the round it was born in once it is eligible. While
/// it waits for its ready time, `entry.age` is the age it came in with.
#[derive(Debug, Clone, Copy)]
struct Queued {
    entry: Entry,
    born: u64,
}

/// A dummy's `seq` and birth round; its label sits in the label column.
#[derive(Debug, Clone, Copy)]
struct Pad {
    seq: u64,
    born: u64,
}

/// Where a pick landed.
#[derive(Debug, Clone, Copy)]
enum Slot {
    Real(usize),
    Pad(usize),
}

/// How close `label`'s path runs to `current`'s: ordered as their
/// `overlap_degree` is, whatever the tree depth.
fn closeness(current: u64, label: u64) -> u32 {
    (current ^ label).leading_zeros()
}

/// The fixed-size scheduling queue of Fig 9 plus its selection policy.
#[derive(Debug, Clone)]
pub(crate) struct LabelQueue {
    /// Queued reals in no order: the first `eligible` were ready at some
    /// round, the rest wait for their ready time.
    reals: Vec<Queued>,
    eligible: usize,
    /// No waiting real is ready before this.
    wake_ps: u64,
    /// The padding, oldest first: labels in a column of their own for the
    /// pick's scan, and `seq` / birth round beside them.
    pad_labels: VecDeque<u64>,
    pads: VecDeque<Pad>,
    /// Padding a `select_initial` call picked and puts back at its end.
    set_aside: Vec<Entry>,
    capacity: usize,
    /// Overlap-maximizing selection; false = ready-FIFO (with the same
    /// real-over-dummy preference), isolating merging for ablations.
    scheduling: bool,
    next_seq: u64,
    /// The round the next pick makes; from [`FIRST_ROUND`].
    round: u64,
    /// No eligible entry starves before this round.
    starve_round: u64,
    /// The latest `now_ps` a call brought.
    now_ps: u64,
}

impl LabelQueue {
    /// Creates an empty queue with capacity `M`; `scheduling` toggles
    /// overlap-maximizing selection.
    pub(crate) fn new(capacity: usize, scheduling: bool) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        Self {
            reals: Vec::with_capacity(capacity),
            eligible: 0,
            wake_ps: u64::MAX,
            pad_labels: VecDeque::with_capacity(capacity),
            pads: VecDeque::with_capacity(capacity),
            set_aside: Vec::new(),
            capacity,
            scheduling,
            next_seq: 0,
            round: FIRST_ROUND,
            starve_round: u64::MAX,
            now_ps: 0,
        }
    }

    /// Number of entries (equals capacity once padded).
    pub(crate) fn len(&self) -> usize {
        self.reals.len() + self.pads.len()
    }

    /// Whether a real entry can currently be inserted (a dummy to displace
    /// or a free slot exists).
    pub(crate) fn has_space_for_real(&self) -> bool {
        self.len() < self.capacity || !self.pads.is_empty()
    }

    /// Pads the queue with dummies until it holds `M` entries (Fig 7b).
    /// `fresh_label` draws a uniform leaf label per dummy.
    pub(crate) fn pad_with(&mut self, mut fresh_label: impl FnMut() -> u64) {
        while self.len() < self.capacity {
            let seq = self.bump_seq();
            let born = self.born_aged(0);
            self.pad_labels.push_back(fresh_label());
            self.pads.push_back(Pad { seq, born });
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
        if self.len() >= self.capacity {
            if self.pads.is_empty() {
                return Err(kind);
            }
            self.pop_oldest_pad();
        }
        self.push_real(Entry {
            label,
            kind,
            ready_ps,
            age: 0,
            seq,
        });
        Ok(())
    }

    /// Selects the pending (next) request during a refill of `current`:
    /// any ready real before any dummy padding, the highest overlap degree
    /// within each (DESIGN.md §7 item 1). Counts a scheduling round in
    /// `tally`.
    pub(crate) fn select_pending(
        &mut self,
        current: u64,
        now_ps: u64,
        tally: &mut Tally,
    ) -> Option<Entry> {
        self.wake(now_ps);
        tally.add(Counter::SchedReadyReals, self.eligible as u64);
        tally.bump(Counter::SchedRounds);
        let picked = self.select(current);
        if let Some(e) = &picked {
            tally.record(now_ps, EventKind::RequestScheduled { label: e.label });
        }
        picked
    }

    /// Selects the first access of a burst (start-up or after an idle gap):
    /// only real entries count — unrevealed dummy padding is put back
    /// rather than executed, and no scheduling round is charged (the
    /// padding was never part of the externally visible stream).
    ///
    /// Algorithm 1 still ages the queue as if each dummy it passed over had
    /// been picked in a round of its own and put back: each is set aside,
    /// and goes back with its age once the pick is made. The pick's event
    /// goes to `tally`.
    pub(crate) fn select_initial(
        &mut self,
        anchor: u64,
        now_ps: u64,
        tally: &mut Tally,
    ) -> Option<Entry> {
        self.wake(now_ps);
        let picked = loop {
            match self.select(anchor) {
                Some(e) if e.is_dummy() => self.set_aside.push(e),
                other => break other,
            }
        };
        let mut aside = std::mem::take(&mut self.set_aside);
        for e in aside.drain(..) {
            let at = self.pads.partition_point(|p| p.seq < e.seq);
            self.pad_labels.insert(at, e.label);
            let born = self.born_aged(e.age);
            self.pads.insert(at, Pad { seq: e.seq, born });
        }
        self.set_aside = aside;
        if let Some(e) = &picked {
            tally.record(now_ps, EventKind::RequestScheduled { label: e.label });
        }
        picked
    }

    /// One round of Algorithm 1 with the queue woken to its `now_ps`:
    /// selects and removes the next request to merge with the path
    /// `current` (§3.4) — any ready real before any pad, not only on ties
    /// (DESIGN.md §7 item 1); within each, the highest overlap degree, then
    /// FIFO. An entry whose age reached the starvation threshold wins
    /// outright (oldest first). Without `scheduling` the overlap is
    /// ignored: ready-FIFO. Every other eligible entry is a round older
    /// afterwards.
    ///
    /// Returns `None` when no entry is ready (the queue is conceptually
    /// full of dummies; the controller materializes one lazily).
    fn select(&mut self, current: u64) -> Option<Entry> {
        let slot = self
            .starved()
            .or_else(|| self.best_real(current).map(Slot::Real))
            .or_else(|| self.best_pad(current).map(Slot::Pad))?;
        let picked = match slot {
            Slot::Real(i) => self.remove_real(i),
            Slot::Pad(i) => self.remove_pad(i),
        };
        self.round += 1;
        Some(picked)
    }

    /// The starved entry with the smallest `seq`, if the round has reached
    /// [`Self::starve_round`]; the scan then makes that bound exact.
    fn starved(&mut self) -> Option<Slot> {
        if self.round < self.starve_round {
            return None;
        }
        let round = self.round;
        let eligible = self.reals[..self.eligible].iter();
        let reals = eligible
            .enumerate()
            .map(|(i, q)| (q.born, q.entry.seq, Slot::Real(i)));
        let pads = self.pads.iter().enumerate();
        let all = reals.chain(pads.map(|(i, p)| (p.born, p.seq, Slot::Pad(i))));
        let (mut first_born, mut oldest) = (u64::MAX, None);
        for (born, seq, slot) in all {
            first_born = first_born.min(born);
            if round - born >= STARVATION_ROUNDS && oldest.is_none_or(|(s, _)| seq < s) {
                oldest = Some((seq, slot));
            }
        }
        self.starve_round = first_born.saturating_add(STARVATION_ROUNDS);
        oldest.map(|(_, slot)| slot)
    }

    /// The eligible real closest to `current` (the oldest on a tie).
    fn best_real(&self, current: u64) -> Option<usize> {
        let key = |q: &Queued| {
            let close = if self.scheduling {
                closeness(current, q.entry.label)
            } else {
                0
            };
            (close, Reverse(q.entry.seq))
        };
        let eligible = self.reals[..self.eligible].iter().enumerate();
        eligible.max_by_key(|(_, q)| key(q)).map(|(i, _)| i)
    }

    /// The dummy closest to `current`, the oldest on a tie: the first
    /// maximum of the label column in `seq` order, found as one branch-free
    /// `max` over keys that put a label's closeness above its position's
    /// complement (the column is `xor` + `lzcnt` + `max`, which vectorises).
    fn best_pad(&self, current: u64) -> Option<usize> {
        const AT: u64 = (1 << 57) - 1;
        if !self.scheduling {
            return (!self.pads.is_empty()).then_some(0);
        }
        let (front, back) = self.pad_labels.as_slices();
        let best = |labels: &[u64], first: usize| {
            let keys = labels.iter().enumerate().map(|(i, &l)| {
                (u64::from(closeness(current, l)) << 57) | (AT - (first + i) as u64)
            });
            keys.max()
        };
        let key = best(front, 0).max(best(back, front.len()))?;
        Some((AT - (key & AT)) as usize)
    }

    /// Puts a previously selected real back (a real pending displaced by
    /// Algorithm 1's swap), with its age. Displaces the oldest dummy if
    /// needed; if the queue is somehow full of reals the entry is
    /// force-appended (capacity is then transiently exceeded, which can
    /// only happen via swaps).
    pub(crate) fn restore(&mut self, entry: Entry) {
        debug_assert!(!entry.is_dummy(), "only a displaced real is put back");
        if self.len() >= self.capacity && !self.pads.is_empty() {
            self.pop_oldest_pad();
        }
        self.push_real(entry);
    }

    /// Searches for a real entry that may replace `pending` mid-refill
    /// (§3.3 / Algorithm 1).
    ///
    /// Eligibility: the entry arrived *after* the pending request was
    /// selected (`ready_ps` in `(lo_ps, now_ps]`), the bucket where its
    /// path crosses the refilled one has not been committed yet
    /// (`divergence <= level`, Fig 5), and it either beats the pending
    /// request's overlap strictly or the pending request is a dummy.
    /// Returns the best such entry, removed from the queue.
    pub(crate) fn take_replacement(
        &mut self,
        w: ReplacementWindow,
        pending: &Entry,
    ) -> Option<Entry> {
        self.wake(w.now_ps);
        let floor = overlap_degree(w.levels, w.leaf, pending.label);
        let candidates = self.reals.iter().enumerate().filter_map(|(i, q)| {
            let e = &q.entry;
            if e.ready_ps <= w.lo_ps || e.ready_ps > w.now_ps {
                return None;
            }
            let overlap = overlap_degree(w.levels, w.leaf, e.label);
            let fits = overlap - 1 <= w.level && (pending.is_dummy() || overlap > floor);
            fits.then_some((overlap, Reverse(e.seq), i))
        });
        let (_, _, i) = candidates.max()?;
        Some(self.remove_real(i))
    }

    /// Earliest time any queued real entry becomes schedulable.
    pub(crate) fn earliest_real_ready(&self) -> Option<u64> {
        self.reals.iter().map(|q| q.entry.ready_ps).min()
    }

    /// Earliest ready time among the queued real entries that became
    /// ready after `after_ps` — the lower edge of a replacement window.
    pub(crate) fn earliest_real_ready_after(&self, after_ps: u64) -> Option<u64> {
        let ready = self.reals.iter().map(|q| q.entry.ready_ps);
        ready.filter(|&r| r > after_ps).min()
    }

    /// Makes every waiting real ready by `now_ps` eligible, born in the
    /// coming round minus the age it brings.
    fn wake(&mut self, now_ps: u64) {
        debug_assert!(
            now_ps >= self.now_ps,
            "the label queue's clock went back from {} to {now_ps}",
            self.now_ps
        );
        self.now_ps = now_ps;
        if now_ps < self.wake_ps {
            return;
        }
        self.wake_ps = u64::MAX;
        for i in self.eligible..self.reals.len() {
            let ready_ps = self.reals[i].entry.ready_ps;
            if ready_ps > now_ps {
                self.wake_ps = self.wake_ps.min(ready_ps);
                continue;
            }
            let born = self.born_aged(self.reals[i].entry.age);
            self.reals[i].born = born;
            self.reals.swap(i, self.eligible);
            self.eligible += 1;
        }
    }

    /// The birth round of an entry `age` rounds old in the coming round,
    /// which also bounds when the first starvation can come.
    fn born_aged(&mut self, age: u32) -> u64 {
        let born = self.round - u64::from(age);
        self.starve_round = self.starve_round.min(born + STARVATION_ROUNDS);
        born
    }

    fn push_real(&mut self, entry: Entry) {
        self.wake_ps = self.wake_ps.min(entry.ready_ps);
        self.reals.push(Queued { entry, born: 0 });
    }

    /// The `i`-th real, with the age it has now.
    fn real_at(&self, i: usize) -> Entry {
        let Queued { mut entry, born } = self.reals[i];
        if i < self.eligible {
            entry.age = (self.round - born) as u32;
        }
        entry
    }

    fn remove_real(&mut self, mut i: usize) -> Entry {
        let entry = self.real_at(i);
        if i < self.eligible {
            self.eligible -= 1;
            self.reals.swap(i, self.eligible);
            i = self.eligible;
        }
        self.reals.swap_remove(i);
        entry
    }

    fn remove_pad(&mut self, i: usize) -> Entry {
        let label = self.pad_labels.remove(i).expect("index valid");
        let pad = self.pads.remove(i).expect("index valid");
        self.pad_entry(label, pad)
    }

    fn pop_oldest_pad(&mut self) {
        self.pad_labels.pop_front();
        self.pads.pop_front();
    }

    fn pad_entry(&self, label: u64, pad: Pad) -> Entry {
        Entry {
            label,
            kind: EntryKind::Dummy,
            ready_ps: 0,
            age: (self.round - pad.born) as u32,
            seq: pad.seq,
        }
    }

    fn bump_seq(&mut self) -> u64 {
        let s = self.next_seq;
        self.next_seq += 1;
        s
    }

    /// Every entry, by `seq`, with the age it has now.
    #[cfg(test)]
    pub(crate) fn entries(&self) -> Vec<Entry> {
        let reals = (0..self.reals.len()).map(|i| self.real_at(i));
        let pads = self.pads.iter().zip(&self.pad_labels);
        let mut all: Vec<Entry> = reals
            .chain(pads.map(|(p, &l)| self.pad_entry(l, *p)))
            .collect();
        all.sort_by_key(|e| e.seq);
        all
    }

    /// Number of real entries.
    #[cfg(test)]
    pub(crate) fn real_count(&self) -> usize {
        self.reals.len()
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
        let mut tally = Tally::default();
        // Fig 6: current = path-1 (L = 3); pending paths 4 and 0.
        let mut q = queue(4);
        q.insert_real(4, real(10), 0).unwrap();
        q.insert_real(0, real(20), 0).unwrap();
        q.pad_with(|| 7); // low-overlap dummies
        let picked = q.select_pending(1, 0, &mut tally).unwrap();
        assert_eq!(picked.label, 0, "path-0 overlaps path-1 more than path-4");
        assert_eq!(picked.kind, real(20));
    }

    #[test]
    fn tie_prefers_real_over_dummy() {
        let mut tally = Tally::default();
        let mut q = queue(2);
        // Dummy with the same label as the real: identical overlap.
        let mut labels = [3u64].into_iter();
        q.pad_with(|| labels.next().unwrap_or(3));
        q.insert_real(3, real(1), 0).unwrap();
        q.pad_with(|| 3);
        let picked = q.select_pending(3, 0, &mut tally).unwrap();
        assert!(!picked.is_dummy());
    }

    #[test]
    fn unready_entries_are_skipped() {
        let mut tally = Tally::default();
        let mut q = queue(2);
        q.insert_real(7, real(1), 1_000).unwrap(); // ready in the future
        q.pad_with(|| 0);
        let picked = q.select_pending(7, 500, &mut tally).unwrap();
        assert!(picked.is_dummy(), "future real must not be schedulable yet");
        assert_eq!(q.real_count(), 1);
    }

    #[test]
    fn select_returns_none_when_nothing_ready() {
        let mut tally = Tally::default();
        let mut q = queue(2);
        q.insert_real(7, real(1), 1_000).unwrap();
        assert!(q.select_pending(0, 500, &mut tally).is_none());
    }

    #[test]
    fn starvation_promotes_aged_entry() {
        let mut tally = Tally::default();
        let mut q = queue(4);
        q.insert_real(4, real(99), 0).unwrap(); // poor overlap with current 0
                                                // A stream of perfect-overlap competitors keeps winning...
        for i in 0..u64::from(STARVATION_THRESHOLD) {
            q.insert_real(0, real(i), 0).unwrap();
            let e = q.select_pending(0, 0, &mut tally).unwrap();
            assert_eq!(
                e.kind,
                real(i),
                "fresh perfect-overlap entry wins round {i}"
            );
        }
        // ...until the old entry's age crosses the threshold.
        q.insert_real(0, real(u64::MAX), 0).unwrap();
        let e = q.select_pending(0, 0, &mut tally).unwrap();
        assert_eq!(e.kind, real(99), "starved entry must be promoted");
    }

    #[test]
    fn dummy_only_launches_when_no_real_ready() {
        let mut tally = Tally::default();
        let mut q = queue(4);
        // Dummy with perfect overlap vs real with the worst overlap.
        q.pad_with(|| 1);
        q.insert_real(7, real(1), 0).unwrap();
        let e = q.select_pending(1, 0, &mut tally).unwrap();
        assert!(!e.is_dummy(), "reals outrank dummy padding outright");
    }

    #[test]
    fn fifo_mode_ignores_overlap() {
        let mut tally = Tally::default();
        let mut q = LabelQueue::new(4, false);
        q.insert_real(4, real(1), 0).unwrap(); // first in
        q.insert_real(0, real(2), 0).unwrap(); // better overlap with current 1
        q.pad_with(|| 6);
        let picked = q.select_pending(1, 0, &mut tally).unwrap();
        assert_eq!(picked.kind, real(1), "scheduling off = FIFO among reals");
    }

    #[test]
    fn restore_displaces_dummy() {
        let mut tally = Tally::default();
        let mut q = queue(2);
        q.pad_with(|| 0);
        let e = q.select_pending(0, 0, &mut tally).unwrap();
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
        let mut tally = Tally::default();
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
            let e = q.select_pending(13, 0, &mut tally).unwrap();
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
        let mut tally = Tally::default();
        let mut q = queue(4);
        q.insert_real(1, real(0), 0).unwrap();
        q.insert_real(2, real(1), 0).unwrap();
        q.insert_real(3, real(2), 5_000).unwrap(); // not ready yet
        q.pad_with(|| 0);
        let _ = q.select_pending(1, 0, &mut tally);
        assert_eq!(tally.counter(Counter::SchedRounds), 1);
        assert_eq!(
            tally.counter(Counter::SchedReadyReals),
            2,
            "future entry is not ready"
        );
    }

    #[test]
    fn select_initial_discards_padding_and_charges_no_round() {
        let mut tally = Tally::default();
        let mut q = queue(4);
        q.pad_with(|| 7);
        q.insert_real(1, real(9), 0).unwrap();
        let picked = q.select_initial(7, 0, &mut tally).unwrap();
        assert_eq!(picked.kind, real(9), "dummies are skipped, not executed");
        assert_eq!(
            tally.counter(Counter::SchedRounds),
            0,
            "initial pick is not a scheduling round"
        );
        // The discarded dummies went back: queue is full again minus the pick.
        assert_eq!(q.len(), 3);
        assert_eq!(q.real_count(), 0);
    }

    #[test]
    fn select_initial_returns_none_when_only_padding() {
        let mut tally = Tally::default();
        let mut q = queue(4);
        q.pad_with(|| 1);
        assert!(q.select_initial(1, 0, &mut tally).is_none());
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
        let mut tally = Tally::default();
        let mut q = LabelQueue::new(4, false);
        q.insert_real(4, real(1), 0).unwrap(); // poor overlap, first in
        q.insert_real(0, real(2), 0).unwrap(); // perfect overlap with current 1
        q.pad_with(|| 6);
        let picked = q.select_pending(1, 0, &mut tally).unwrap();
        assert_eq!(picked.kind, real(1));
    }
}
