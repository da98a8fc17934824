//! The label queue as it was before rounds were counted (PR 25): one `Vec`
//! of entries, every pick four passes over it, and an `age += 1` on every
//! eligible loser. Kept as the oracle [`LabelQueue`] is held to: the
//! propcheck below drives both through the same random calls and compares
//! every returned entry, every entry left inside (age included), and every
//! counter and event.

use fp_crypto::Xoshiro256;
use fp_path_oram::path::overlap_degree;
use fp_trace::{Counter, EventKind, Tally, TraceHandle};

use super::{Entry, EntryKind, LabelQueue, ReplacementWindow, STARVATION_THRESHOLD};

/// Today's queue, with its entry points' arguments as they were.
pub(crate) struct Reference {
    entries: Vec<Entry>,
    capacity: usize,
    scheduling: bool,
    next_seq: u64,
    pub(crate) trace: TraceHandle,
}

impl Reference {
    pub(crate) fn new(capacity: usize, scheduling: bool, trace: TraceHandle) -> Self {
        Self {
            entries: Vec::with_capacity(capacity),
            capacity,
            scheduling,
            next_seq: 0,
            trace,
        }
    }

    pub(crate) fn has_space_for_real(&self) -> bool {
        self.entries.len() < self.capacity || self.entries.iter().any(Entry::is_dummy)
    }

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

    pub(crate) fn insert_real(
        &mut self,
        label: u64,
        kind: EntryKind,
        ready_ps: u64,
    ) -> Result<(), EntryKind> {
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

    pub(crate) fn take_replacement(
        &mut self,
        w: ReplacementWindow,
        pending: &Entry,
    ) -> Option<Entry> {
        let (levels, current) = (w.levels, w.leaf);
        let pending_overlap = overlap_degree(levels, current, pending.label);
        let idx = self
            .entries
            .iter()
            .enumerate()
            .filter(|(_, e)| {
                !e.is_dummy()
                    && e.ready_ps > w.lo_ps
                    && e.ready_ps <= w.now_ps
                    && overlap_degree(levels, current, e.label) - 1 <= w.level
                    && (pending.is_dummy()
                        || overlap_degree(levels, current, e.label) > pending_overlap)
            })
            .max_by_key(|(_, e)| (overlap_degree(levels, current, e.label), u64::MAX - e.seq))
            .map(|(i, _)| i)?;
        Some(self.entries.swap_remove(idx))
    }

    fn real_ready_times(&self) -> impl Iterator<Item = u64> + '_ {
        let reals = self.entries.iter().filter(|e| !e.is_dummy());
        reals.map(|e| e.ready_ps)
    }

    pub(crate) fn earliest_real_ready(&self) -> Option<u64> {
        self.real_ready_times().min()
    }

    pub(crate) fn earliest_real_ready_after(&self, after_ps: u64) -> Option<u64> {
        self.real_ready_times().filter(|&r| r > after_ps).min()
    }

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

    /// Every entry, by `seq`.
    pub(crate) fn entries(&self) -> Vec<Entry> {
        let mut all = self.entries.clone();
        all.sort_by_key(|e| e.seq);
        all
    }
}

/// What one propcheck case exercised, summed over the cases.
#[derive(Default, Debug)]
struct Coverage {
    /// Picks of an entry past the threshold: reals and padding by
    /// `select_pending`, reals by `select_initial` (which returns no
    /// padding; its starved padding is `put_back[1]`).
    starved: [u64; 3],
    /// `select_initial` calls that put padding back: all of it (no real
    /// ready), and some of it ahead of a real (starved padding first).
    put_back: [u64; 2],
    /// Replacements taken, restores, inserts refused for a full queue.
    replaced: u64,
    restored: u64,
    refused: u64,
    /// The longest case, in `select_pending` rounds.
    rounds: u64,
}

/// One seeded case: both queues through `ops` random calls, compared
/// after each.
fn run_case(seed: u64, ops: usize, cov: &mut Coverage) {
    let mut rng = Xoshiro256::new(seed);
    let capacity = 1 + rng.next_below(128) as usize;
    let scheduling = rng.next_below(4) != 0;
    let levels = 1 + rng.next_below(12) as u32;
    // Per-case weights, so that some cases rarely pad (padding then ages
    // until it starves) and some keep a real stream winning (the far real
    // starves): insert, pad, select_pending, select_initial, replace,
    // restore.
    let weights: Vec<u64> = (0..6).map(|_| 1 + rng.next_below(8)).collect();
    let total: u64 = weights.iter().sum();
    let at = format!("case {seed:#x}: capacity {capacity}, scheduling {scheduling}, L {levels}");

    let mut queue = LabelQueue::new(capacity, scheduling);
    let mut tally = Tally::new(TraceHandle::new(1 << 16));
    let mut reference = Reference::new(capacity, scheduling, TraceHandle::new(1 << 16));
    let (mut now, mut flight, mut rounds) = (0u64, 0u64, 0u64);
    // Reals taken out, which `restore` may put back.
    let mut held: Vec<Entry> = Vec::new();
    let label = |rng: &mut Xoshiro256| rng.next_below(1 << levels);

    for op in 0..ops {
        now += [0, 1, 10, 100][rng.next_below(4) as usize];
        // Mostly near the current path, so a far real can starve.
        let current = if rng.next_below(4) == 0 {
            label(&mut rng)
        } else {
            0
        };
        let mut roll = rng.next_below(total);
        let which = weights.iter().position(|&w| {
            let here = roll < w;
            roll = roll.wrapping_sub(w);
            here
        });
        match which.expect("roll < total") {
            0 => {
                let ready = match rng.next_below(3) {
                    0 => now.saturating_sub(rng.next_below(50)),
                    1 => now,
                    _ => now + rng.next_below(400),
                };
                let (l, kind) = (label(&mut rng), EntryKind::Real { flight });
                flight += 1;
                let got = queue.insert_real(l, kind, ready);
                assert_eq!(got, reference.insert_real(l, kind, ready), "{at}, op {op}");
                cov.refused += u64::from(got.is_err());
            }
            1 => {
                let labels: Vec<u64> = (0..capacity).map(|_| label(&mut rng)).collect();
                let mut a = labels.iter().copied();
                let mut b = labels.iter().copied();
                queue.pad_with(|| a.next().expect("one label per slot"));
                reference.pad_with(|| b.next().expect("one label per slot"));
            }
            2 | 3 => {
                let initial = which == Some(3);
                let before = reference.entries();
                let (got, want) = if initial {
                    let got = queue.select_initial(current, now, &mut tally);
                    (got, reference.select_initial(levels, current, now))
                } else {
                    rounds += 1;
                    let got = queue.select_pending(current, now, &mut tally);
                    (got, reference.select_pending(levels, current, now))
                };
                assert_eq!(got, want, "{at}, op {op}");
                if let Some(e) = want {
                    if e.age >= STARVATION_THRESHOLD {
                        cov.starved[if initial {
                            2
                        } else {
                            usize::from(e.is_dummy())
                        }] += 1;
                    }
                    if !e.is_dummy() {
                        held.push(e);
                    }
                }
                // Padding goes back when none is left to pick (no real was
                // ready), or when the first starved entry was padding.
                let padded = before.iter().any(Entry::is_dummy);
                let first_starved = before
                    .iter()
                    .find(|e| e.age >= STARVATION_THRESHOLD && e.ready_ps <= now);
                let aside = want.is_some() && first_starved.is_some_and(Entry::is_dummy);
                if initial && padded && (want.is_none() || aside) {
                    cov.put_back[usize::from(aside)] += 1;
                }
            }
            4 => {
                let w = ReplacementWindow {
                    levels,
                    leaf: current,
                    lo_ps: now.saturating_sub(rng.next_below(300)),
                    now_ps: now,
                    level: rng.next_below(u64::from(levels) + 1) as u32,
                };
                let pending = match held.last() {
                    Some(e) if rng.next_below(2) == 0 => *e,
                    _ => Entry::dummy(label(&mut rng), now),
                };
                let got = queue.take_replacement(w, &pending);
                assert_eq!(
                    got,
                    reference.take_replacement(w, &pending),
                    "{at}, op {op}"
                );
                cov.replaced += u64::from(got.is_some());
                held.extend(got);
            }
            _ => {
                if !held.is_empty() {
                    let e = held.swap_remove(rng.next_below(held.len() as u64) as usize);
                    queue.restore(e);
                    reference.restore(e);
                    cov.restored += 1;
                }
            }
        }
        assert_eq!(queue.entries(), reference.entries(), "{at}, op {op}");
        assert_eq!(
            queue.has_space_for_real(),
            reference.has_space_for_real(),
            "{at}, op {op}"
        );
        assert_eq!(
            queue.earliest_real_ready(),
            reference.earliest_real_ready(),
            "{at}, op {op}"
        );
        let after = now.saturating_sub(rng.next_below(200));
        assert_eq!(
            queue.earliest_real_ready_after(after),
            reference.earliest_real_ready_after(after),
            "{at}, op {op}"
        );
    }
    assert_eq!(tally.counters(), reference.trace.counters(), "{at}");
    assert_eq!(tally.handle().events(), reference.trace.events(), "{at}");
    cov.rounds = cov.rounds.max(rounds);
}

#[test]
fn label_queue_matches_the_reference_queue() {
    let mut cov = Coverage::default();
    for case in 0..32 {
        run_case(0x51E0_0000 + case, 3_000, &mut cov);
    }
    // Long enough for both kinds of starvation, and every rare path taken.
    assert!(cov.rounds > u64::from(STARVATION_THRESHOLD), "{cov:?}");
    assert!(cov.starved.iter().all(|&n| n > 0), "{cov:?}");
    assert!(cov.put_back.iter().all(|&n| n > 0), "{cov:?}");
    assert!(
        cov.replaced > 0 && cov.restored > 0 && cov.refused > 0,
        "{cov:?}"
    );
}
