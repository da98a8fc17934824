//! One writer's counts, published to the shared spine in one step.

use crate::event::{Counter, EventKind};
use crate::handle::TraceHandle;
use crate::hist::Log2Hist;

// The dirty mask has one bit per counter.
const _: () = assert!(Counter::COUNT <= 64);

/// The counts of one single-threaded writer (an engine component), held
/// as plain integers and folded into the [`TraceHandle`]'s spine by
/// [`Tally::publish`].
///
/// Counting is a plain add, not an atomic read-modify-write: one engine
/// runs on one thread. The engine counts in a tally of its own, which its
/// pipeline stages and its request ledger are handed to count into; its
/// stash and its DRAM system, which also run on their own, keep one each.
/// The engine publishes them together ([`Tally::publish_all`]) at the end
/// of an engine call — every 64th call while it is busy, and every call
/// that leaves it idle — so a reader of the spine sees whole engine calls,
/// a few behind a busy engine. The engine's own thread reads exact counts
/// at any time through [`Tally::counters_of`]: the spine plus what has not
/// been published.
///
/// Events keep their order and their ring: at ring capacity 0 (the
/// default) an event's count stays local until the next publish; at
/// capacity > 0 the event goes through [`TraceHandle::record_run`] at
/// once, counter and ring. So every retained event is already counted on
/// the spine, and [`TraceHandle::dropped`] never depends on when counts
/// are published. Histogram samples wait in the tally too, and join the
/// spine's histograms in the same cut as the counts of the calls that
/// took them, so a reader never sees a request's latency before its
/// `RequestsCompleted`.
#[derive(Debug)]
pub struct Tally {
    counts: [u64; Counter::COUNT],
    /// Bit `c` is set when `counts[c]` may be non-zero.
    dirty: u64,
    /// Latency samples not published yet. Raw values, not a histogram: a
    /// tally is built with every engine component and most never take a
    /// sample, and a publish empties the buffer but keeps its capacity.
    latency: Vec<u64>,
    /// Stash occupancy samples not published yet.
    occupancy: Vec<u64>,
    handle: TraceHandle,
}

impl Clone for Tally {
    /// A tally for the same spine, starting from zero: what this one has
    /// not published stays its own to publish, so nothing counts twice.
    fn clone(&self) -> Self {
        Self::new(self.handle.clone())
    }
}

impl Default for Tally {
    /// A tally over a fresh spine of its own (capacity 0).
    fn default() -> Self {
        Self::new(TraceHandle::default())
    }
}

impl Tally {
    /// An empty tally that publishes into `handle`'s spine.
    // Inlined so that a component's constructor writes the zeroed counts
    // in place rather than copying them out of a call.
    #[inline]
    pub fn new(handle: TraceHandle) -> Self {
        Self {
            counts: [0; Counter::COUNT],
            dirty: 0,
            latency: Vec::new(),
            occupancy: Vec::new(),
            handle,
        }
    }

    /// The spine this tally publishes into.
    pub fn handle(&self) -> &TraceHandle {
        &self.handle
    }

    /// Adds `n` to a counter; see [`TraceHandle::add`].
    #[inline]
    pub fn add(&mut self, c: Counter, n: u64) {
        self.counts[c as usize] += n;
        self.dirty |= 1 << c as u32;
    }

    /// Adds 1 to a counter.
    #[inline]
    pub fn bump(&mut self, c: Counter) {
        self.add(c, 1);
    }

    /// Records a typed event at simulated time `t_ps`; see
    /// [`TraceHandle::record`].
    #[inline]
    pub fn record(&mut self, t_ps: u64, kind: EventKind) {
        self.record_run(kind, 1, t_ps, 0);
    }

    /// Records `n` events of one kind; see [`TraceHandle::record_run`].
    // Allocation-free once warm: tests/hot_path_alloc.rs.
    #[inline]
    pub fn record_run(&mut self, kind: EventKind, n: u64, first_t_ps: u64, stride_ps: u64) {
        if self.handle.capacity() == 0 {
            self.add(kind.counter(), n);
        } else {
            self.handle.record_run(kind, n, first_t_ps, stride_ps);
        }
    }

    /// Records a typed event at the spine's coarse timestamp; see
    /// [`TraceHandle::record_now`].
    #[inline]
    pub fn record_now(&mut self, kind: EventKind) {
        if self.handle.capacity() == 0 {
            self.add(kind.counter(), 1);
        } else {
            self.handle.record_now(kind);
        }
    }

    /// Adds a request latency sample (picoseconds).
    #[inline]
    pub fn record_latency(&mut self, ps: u64) {
        self.latency.push(ps);
    }

    /// Adds a stash occupancy sample (blocks resident after a refill).
    #[inline]
    pub fn record_occupancy(&mut self, blocks: u64) {
        self.occupancy.push(blocks);
    }

    /// The latency histogram as the spine will read it once this tally
    /// publishes: the spine's plus the unpublished samples.
    pub fn latency_hist(&self) -> Log2Hist {
        let mut hist = self.handle.latency_hist();
        self.latency.iter().for_each(|&v| hist.add(v));
        hist
    }

    /// [`Tally::latency_hist`] for the occupancy histogram.
    pub fn occupancy_hist(&self) -> Log2Hist {
        let mut hist = self.handle.occupancy_hist();
        self.occupancy.iter().for_each(|&v| hist.add(v));
        hist
    }

    /// A counter as the spine will read it once this tally publishes
    /// (other writers aside): the spine's value plus the unpublished
    /// count.
    pub fn counter(&self, c: Counter) -> u64 {
        self.handle.counter(c) + self.counts[c as usize]
    }

    /// [`Tally::counter`] for the whole table.
    pub fn counters(&self) -> [u64; Counter::COUNT] {
        Self::counters_of([self])
    }

    /// The whole table as the spine will read it once several tallies of
    /// one spine publish ([`Tally::publish_all`]): the spine's values plus
    /// every tally's unpublished counts. All zero for no tally.
    pub fn counters_of<'a>(tallies: impl IntoIterator<Item = &'a Tally>) -> [u64; Counter::COUNT] {
        let mut all = None;
        for tally in tallies {
            let all = all.get_or_insert_with(|| tally.handle.counters());
            for (v, n) in all.iter_mut().zip(tally.counts) {
                *v += n;
            }
        }
        all.unwrap_or([0; Counter::COUNT])
    }

    /// Folds the counts into the spine — one atomic add per counter
    /// touched since the last publish — and the histogram samples into
    /// its histograms, and clears them.
    // Allocation-free: tests/hot_path_alloc.rs.
    pub fn publish(&mut self) {
        Self::publish_all([self]);
    }

    /// Publishes several tallies of one spine as one cut: a reader of
    /// [`TraceHandle::counters`] and the histograms sees all of them or
    /// none. Takes the spine's lock once, and not at all when no tally
    /// counted anything.
    pub fn publish_all<'a>(tallies: impl IntoIterator<Item = &'a mut Tally>) {
        let mut cut = None;
        for Tally {
            counts,
            dirty,
            latency,
            occupancy,
            handle,
        } in tallies
        {
            if *dirty == 0 && latency.is_empty() && occupancy.is_empty() {
                continue;
            }
            let handle: &TraceHandle = handle;
            let cut = cut.get_or_insert_with(|| handle.cut());
            debug_assert!(cut.is_of(handle), "one spine per cut");
            cut.fold(counts, dirty);
            cut.merge(latency, occupancy);
        }
    }
}
