//! Pipeline stage: **dummy-request management and replacing** (§3.3, §4.3).
//!
//! Two responsibilities:
//!
//! * deciding, after the scheduler picked (or failed to pick) a pending
//!   request, whether conceptual queue padding must be **materialized** as
//!   an executable dummy — or, conversely, whether a selected padding
//!   dummy should be silently dropped because the system is draining to
//!   idle ([`DummyReplacer::finalize`]);
//! * the mid-refill **replacement** check (Fig 5): a real request arriving
//!   while the bucket where its path crosses the current one is still
//!   uncommitted may take the pending slot, cancelling a dummy outright or
//!   swapping out a lower-overlap real ([`DummyReplacer::try_replace`]).

use fp_trace::{Counter, EventKind, Tally};

use crate::error::ControllerError;
use crate::queue::{Entry, LabelQueue, ReplacementWindow};

/// The dummy-request replacing stage. It counts into the engine's tally,
/// which its counting calls are handed.
#[derive(Debug, Clone)]
pub(crate) struct DummyReplacer {
    replacing: bool,
}

impl DummyReplacer {
    /// Creates the stage; `replacing` toggles mid-refill replacement
    /// (false = the ablation baseline where pending dummies always run).
    pub(crate) fn new(replacing: bool) -> Self {
        Self { replacing }
    }

    /// Whether mid-refill replacement is active.
    pub(crate) fn replacing(&self) -> bool {
        self.replacing
    }

    /// Post-selection fixup of the pending request (§3.2 step 6):
    ///
    /// * a selected padding dummy is dropped when no *imminent* real work
    ///   remains and fixed-rate protection is off, so finite workloads
    ///   terminate and long idle gaps are not bridged one dummy access at
    ///   a time (the controller goes idle and jumps the clock instead);
    /// * when nothing was selected but imminent work (or fixed-rate mode)
    ///   demands a pending request, padding is materialized as a dummy
    ///   with a fresh uniform label, ready at `sel_time_ps`.
    ///
    /// Counts either in `tally`.
    pub(crate) fn finalize(
        &mut self,
        mut pending: Option<Entry>,
        work_imminent: bool,
        fixed_rate: bool,
        sel_time_ps: u64,
        tally: &mut Tally,
        fresh_label: impl FnOnce() -> u64,
    ) -> Option<Entry> {
        if pending.as_ref().is_some_and(Entry::is_dummy) && !work_imminent && !fixed_rate {
            pending = None;
            tally.bump(Counter::DummiesTrailingDiscarded);
        }
        if pending.is_none() && (work_imminent || fixed_rate) {
            tally.bump(Counter::DummiesMaterialized);
            pending = Some(Entry::dummy(fresh_label(), sel_time_ps));
        }
        pending
    }

    /// Attempts one mid-refill replacement of `pending` before committing
    /// the bucket at `w.level` (Fig 5). Returns `true` when the pending
    /// request changed — the caller must recompute its write stop. A
    /// replaced dummy is cancelled outright, and counted in `tally`; a
    /// displaced real goes back into the label queue, with its age.
    ///
    /// # Errors
    ///
    /// [`ControllerError::MissingPending`] if the pending slot emptied
    /// mid-swap (an internal invariant violation).
    pub(crate) fn try_replace(
        &mut self,
        sched: &mut LabelQueue,
        w: ReplacementWindow,
        pending: &mut Option<Entry>,
        tally: &mut Tally,
    ) -> Result<bool, ControllerError> {
        if !self.replacing {
            return Ok(false);
        }
        let Some(p) = pending.as_ref() else {
            return Ok(false);
        };
        let Some(incoming) = sched.take_replacement(w, p) else {
            return Ok(false);
        };
        let new_label = incoming.label;
        let old = pending
            .replace(incoming)
            .ok_or(ControllerError::MissingPending)?;
        if old.is_dummy() {
            tally.bump(Counter::DummiesReplaced);
            tally.record(w.now_ps, EventKind::RequestReplaced { label: new_label });
        } else {
            sched.restore(old);
        }
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use std::cmp::{Ordering, Reverse};

    use fp_path_oram::path::overlap_degree;

    use super::*;
    use crate::queue::EntryKind;

    fn window(levels: u32, leaf: u64, lo_ps: u64, now_ps: u64, level: u32) -> ReplacementWindow {
        ReplacementWindow {
            levels,
            leaf,
            lo_ps,
            now_ps,
            level,
        }
    }

    fn real_entry(sched: &mut LabelQueue, label: u64, flight: u64, ready: u64) {
        sched
            .insert_real(label, EntryKind::Real { flight }, ready)
            .unwrap();
    }

    /// (b) The replacer never fires when real work is queued: a selected
    /// real pending request passes through untouched, and no dummy is
    /// materialized alongside it.
    #[test]
    fn never_materializes_when_a_real_was_selected() {
        let mut tally = Tally::default();
        let mut d = DummyReplacer::new(true);
        let mut s = LabelQueue::new(4, true);
        real_entry(&mut s, 3, 7, 0);
        s.pad_with(|| 1);
        let picked = s.select_pending(3, 0, &mut tally);
        assert!(picked.as_ref().is_some_and(|e| !e.is_dummy()));
        let out = d.finalize(picked, true, false, 0, &mut tally, || {
            panic!("must not draw a label")
        });
        assert!(out.is_some_and(|e| !e.is_dummy()));
        assert_eq!(tally.counter(Counter::DummiesMaterialized), 0);
        assert_eq!(tally.counter(Counter::DummiesTrailingDiscarded), 0);
    }

    #[test]
    fn materializes_only_when_work_or_fixed_rate_demands_it() {
        let mut tally = Tally::default();
        let mut d = DummyReplacer::new(true);
        // Idle, no fixed rate: nothing pending, nothing materialized.
        assert!(d
            .finalize(None, false, false, 10, &mut tally, || 5)
            .is_none());
        assert_eq!(tally.counter(Counter::DummiesMaterialized), 0);
        // Real work exists but none was schedulable: padding materializes.
        let out = d.finalize(None, true, false, 10, &mut tally, || 5).unwrap();
        assert!(out.is_dummy());
        assert_eq!(out.label, 5);
        assert_eq!(out.ready_ps, 10);
        assert_eq!(tally.counter(Counter::DummiesMaterialized), 1);
        // Fixed-rate mode materializes even when idle.
        assert!(d
            .finalize(None, false, true, 20, &mut tally, || 6)
            .is_some());
        assert_eq!(tally.counter(Counter::DummiesMaterialized), 2);
    }

    #[test]
    fn trailing_dummy_is_dropped_when_draining() {
        let mut tally = Tally::default();
        let mut d = DummyReplacer::new(true);
        let pad = Entry::dummy(9, 0);
        assert!(d
            .finalize(Some(pad), false, false, 0, &mut tally, || 1)
            .is_none());
        assert_eq!(tally.counter(Counter::DummiesTrailingDiscarded), 1);
        // ...but kept under fixed-rate protection.
        let pad = Entry::dummy(9, 0);
        assert!(d
            .finalize(Some(pad), false, true, 0, &mut tally, || 1)
            .is_some());
        assert_eq!(tally.counter(Counter::DummiesTrailingDiscarded), 1);
    }

    #[test]
    fn replaces_pending_dummy_with_late_real() {
        let mut tally = Tally::default();
        let mut d = DummyReplacer::new(true);
        let mut s = LabelQueue::new(4, true);
        // A real arriving at t=50, inside the (0, 100] replacement window.
        real_entry(&mut s, 3, 1, 50);
        let mut pending = Some(Entry::dummy(0, 0));
        // Refill of leaf 3 still at the leaf level: every cross-bucket is
        // uncommitted, so the late real is eligible.
        let changed = d
            .try_replace(&mut s, window(3, 3, 0, 100, 3), &mut pending, &mut tally)
            .unwrap();
        assert!(changed);
        assert!(pending.is_some_and(|e| !e.is_dummy()));
        assert_eq!(tally.counter(Counter::DummiesReplaced), 1);
    }

    #[test]
    fn displaced_real_returns_to_scheduler() {
        let mut tally = Tally::default();
        let mut d = DummyReplacer::new(true);
        let mut s = LabelQueue::new(4, true);
        // Incoming real with perfect overlap (same leaf).
        real_entry(&mut s, 3, 2, 50);
        // Pending real with zero overlap, pulled out of a scratch queue.
        let mut scratch = LabelQueue::new(1, true);
        real_entry(&mut scratch, 4, 9, 0);
        let mut pending = scratch.select_pending(4, 0, &mut tally);
        assert!(pending.as_ref().is_some_and(|e| !e.is_dummy()));
        let changed = d
            .try_replace(&mut s, window(3, 3, 0, 100, 3), &mut pending, &mut tally)
            .unwrap();
        assert!(changed);
        assert_eq!(
            tally.counter(Counter::DummiesReplaced),
            0,
            "a displaced real is not a replaced dummy"
        );
        assert_eq!(s.real_count(), 1, "the displaced real went back");
    }

    /// Where a late real's path crosses the refilled one, relative to the
    /// bucket about to be committed (Fig 5).
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Crossing {
        /// Above it: that bucket is not written yet.
        Uncommitted,
        /// At it: the refill stops short of it if the real takes over.
        BeingCommitted,
        /// Below it: the shared bucket is already written.
        Written,
    }

    /// Fig 5 over random refills. Before every bucket, a direct model
    /// reads the queue's entries and names the real a replacement check
    /// must take: one ready in `(selection, now]` whose crossing bucket is
    /// uncommitted or being committed, and which beats the pending
    /// request's overlap unless that is a dummy — the closest, then the
    /// oldest. `try_replace` must do exactly that; a dummy it replaces is
    /// counted, and a real it displaces is back in the queue with its age.
    #[test]
    fn replacement_follows_fig5_on_random_refills() {
        let mut rng = fp_crypto::Xoshiro256::new(0xF165);
        let (mut seen, mut took, mut displaced_age) = ([0u64; 3], [0u64; 2], 0);
        for case in 0..300 {
            let levels = 2 + rng.next_below(10) as u32;
            let leaf = rng.next_below(1 << levels);
            let label = |rng: &mut fp_crypto::Xoshiro256| rng.next_below(1 << levels);
            let mut tally = Tally::default();
            let (mut d, mut s) = (DummyReplacer::new(true), LabelQueue::new(16, true));
            // The pending request: padding, or a real that lost some rounds
            // to reals on the refilled path first.
            let mut pending = Some(Entry::dummy(label(&mut rng), 0));
            if rng.next_below(2) == 0 {
                let lost = rng.next_below(5);
                real_entry(&mut s, label(&mut rng), 0, 0);
                for flight in 1..=lost {
                    real_entry(&mut s, leaf, flight, 0);
                }
                for _ in 0..=lost {
                    pending = s.select_pending(leaf, 0, &mut tally);
                }
                let p = pending.expect("the real is ready");
                assert_eq!(
                    p.age(),
                    lost as u32,
                    "case {case}: one round older per loss"
                );
            }
            // Late reals on a 50 ps grid, so some are ready exactly at the
            // selection (not late) and some exactly at a check.
            let sel = 1_000;
            for flight in 100..100 + rng.next_below(8) {
                real_entry(
                    &mut s,
                    label(&mut rng),
                    flight,
                    sel - 200 + 50 * rng.next_below(12),
                );
            }
            s.pad_with(|| label(&mut rng));

            let (mut t, mut level) = (sel, levels);
            loop {
                t += 25 * rng.next_below(3);
                let w = window(levels, leaf, sel, t, level);
                let p = pending.expect("a pending request");
                let p_overlap = overlap_degree(levels, leaf, p.label);
                // `entries()` is in `seq` order: an earlier index is older.
                let late = s.entries().into_iter().enumerate();
                let late =
                    late.filter(|(_, e)| !e.is_dummy() && e.ready_ps > sel && e.ready_ps <= t);
                let mut want = None;
                for (older, e) in late {
                    let overlap = overlap_degree(levels, leaf, e.label);
                    let crossing = match (overlap - 1).cmp(&level) {
                        Ordering::Less => Crossing::Uncommitted,
                        Ordering::Equal => Crossing::BeingCommitted,
                        Ordering::Greater => Crossing::Written,
                    };
                    seen[crossing as usize] += 1;
                    let beats = p.is_dummy() || overlap > p_overlap;
                    let key = (overlap, Reverse(older));
                    if crossing != Crossing::Written && beats && want.is_none_or(|(k, _)| key > k) {
                        want = Some((key, e));
                    }
                }
                let replaced = tally.counter(Counter::DummiesReplaced);
                let changed = d.try_replace(&mut s, w, &mut pending, &mut tally).unwrap();
                let at = format!("case {case}, level {level}, t {t}");
                assert_eq!(changed, want.is_some(), "{at}");
                if let Some((_, e)) = want {
                    assert_eq!(pending, Some(e), "{at}");
                    took[usize::from(p.is_dummy())] += 1;
                    let counted = tally.counter(Counter::DummiesReplaced) - replaced;
                    assert_eq!(counted, u64::from(p.is_dummy()), "{at}");
                    let back = s.entries().contains(&p);
                    assert_eq!(back, !p.is_dummy(), "{at}: the displaced real, age and all");
                    displaced_age = displaced_age.max(p.age());
                }
                // The write stop of the pending request; at the root, done.
                let stop = overlap_degree(levels, leaf, pending.expect("pending").label);
                if level == 0 || level - 1 < stop {
                    break;
                }
                level -= 1;
            }
        }
        assert!(seen.iter().all(|&n| n > 0), "every Fig 5 case: {seen:?}");
        assert!(
            took.iter().all(|&n| n > 0),
            "reals displaced, dummies replaced: {took:?}"
        );
        assert!(displaced_age > 0, "a displaced real had lost rounds");
    }

    #[test]
    fn replacing_off_never_fires() {
        let mut tally = Tally::default();
        let mut d = DummyReplacer::new(false);
        let mut s = LabelQueue::new(4, true);
        real_entry(&mut s, 3, 1, 50);
        let mut pending = Some(Entry::dummy(0, 0));
        assert!(!d
            .try_replace(&mut s, window(3, 3, 0, 100, 0), &mut pending, &mut tally)
            .unwrap());
        assert!(pending.unwrap().is_dummy());
    }
}
