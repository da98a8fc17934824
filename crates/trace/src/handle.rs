//! The shared trace spine: atomic counters for shared writers, plus an
//! event ring and two histograms behind one poison-tolerant mutex, all
//! reached through a cheap-to-clone handle. Engine components count in a
//! [`crate::Tally`], published at engine-call boundaries.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Mutex, MutexGuard};

use fp_stats::json::JsonObject;

use crate::event::{Counter, EventKind, TraceEvent};
use crate::hist::Log2Hist;
use crate::sync::relock;

/// What the mutex guards: the retained events and the two histograms.
#[derive(Debug, Default)]
struct Ring {
    events: VecDeque<TraceEvent>,
    latency: Log2Hist,
    occupancy: Log2Hist,
}

#[derive(Debug)]
struct Spine {
    /// The counter table. Counters publish no other data, so every
    /// access is `Relaxed`; a [`Cut`] and [`TraceHandle::counters`] hold
    /// `ring`'s lock, which is what makes a tally publish one cut.
    counters: [AtomicU64; Counter::COUNT],
    /// Ring capacity. Written only while `ring` is locked; `record_run`
    /// reads it unlocked first so capacity 0 never takes the lock.
    capacity: AtomicUsize,
    /// Coarse timestamp for [`TraceHandle::record_now`].
    now_ps: AtomicU64,
    ring: Mutex<Ring>,
}

/// A shared handle onto one trace spine.
///
/// Clones are shallow: every clone reports into the same counters, ring,
/// and histograms. Counters are atomics for shared writers (the shard
/// worker, the fault injector, the wire front end's threads):
/// [`TraceHandle::bump`], [`TraceHandle::add`] and — at ring capacity 0,
/// the default — [`TraceHandle::record`] and [`TraceHandle::record_run`]
/// take no lock. Engine components count in a [`crate::Tally`] instead,
/// published at engine-call boundaries. The mutex is taken to retain an
/// event (capacity > 0), to add a histogram sample, to publish tallies,
/// or to read the ring or the whole counter table, and it is
/// poison-tolerant: a thread that panicked while holding it costs at most
/// its own update.
#[derive(Debug, Clone)]
pub struct TraceHandle(Arc<Spine>);

impl Default for TraceHandle {
    fn default() -> Self {
        Self::new(0)
    }
}

impl TraceHandle {
    /// A fresh spine retaining up to `capacity` events (ring semantics:
    /// once full, the oldest event is dropped for each new one).
    pub fn new(capacity: usize) -> Self {
        Self(Arc::new(Spine {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            capacity: AtomicUsize::new(capacity),
            now_ps: AtomicU64::new(0),
            ring: Mutex::default(),
        }))
    }

    fn ring(&self) -> MutexGuard<'_, Ring> {
        relock(&self.0.ring)
    }

    /// Holds the spine still for a publish: readers of the whole table
    /// wait until the cut is dropped.
    pub(crate) fn cut(&self) -> Cut<'_> {
        Cut {
            counters: &self.0.counters,
            ring: self.ring(),
        }
    }

    /// Records a typed event at simulated time `t_ps`, bumping its
    /// matching counter.
    // Allocation-free once warm: tests/hot_path_alloc.rs.
    pub fn record(&self, t_ps: u64, kind: EventKind) {
        self.record_run(kind, 1, t_ps, 0);
    }

    /// Records `n` events of one kind, the first at `first_t_ps` and each
    /// `stride_ps` after the one before — what `n` calls of
    /// [`TraceHandle::record`] with those stamps would leave, counter and
    /// ring, for one counter update and at most one lock.
    // Allocation-free once warm: tests/hot_path_alloc.rs.
    pub fn record_run(&self, kind: EventKind, n: u64, first_t_ps: u64, stride_ps: u64) {
        self.add(kind.counter(), n);
        if self.0.capacity.load(Relaxed) == 0 {
            return;
        }
        let mut ring = self.ring();
        // Re-read under the lock: `set_capacity` may have shrunk the ring
        // since the unlocked check.
        let capacity = self.0.capacity.load(Relaxed);
        if capacity == 0 {
            return;
        }
        for k in 0..n {
            if ring.events.len() == capacity {
                ring.events.pop_front();
            }
            let t_ps = first_t_ps + k * stride_ps;
            ring.events.push_back(TraceEvent { t_ps, kind });
        }
    }

    /// Records a typed event at the last time set via
    /// [`TraceHandle::set_now`] — for components (stash, merge stage)
    /// that have no clock of their own; the controller stamps each phase.
    pub fn record_now(&self, kind: EventKind) {
        self.record(self.0.now_ps.load(Relaxed), kind);
    }

    /// Sets the coarse timestamp used by [`TraceHandle::record_now`].
    #[inline]
    pub fn set_now(&self, t_ps: u64) {
        self.0.now_ps.store(t_ps, Relaxed);
    }

    /// Adds `n` to a counter (no event is recorded). Counters that back
    /// an [`EventKind`] are bumped by [`TraceHandle::record`] and
    /// [`TraceHandle::record_run`] only, which is what lets
    /// [`TraceHandle::dropped`] be derived from them.
    // Allocation-free once warm: tests/hot_path_alloc.rs.
    pub fn add(&self, c: Counter, n: u64) {
        self.0.counters[c as usize].fetch_add(n, Relaxed);
    }

    /// Adds 1 to a counter (no event is recorded).
    pub fn bump(&self, c: Counter) {
        self.add(c, 1);
    }

    /// Raises a counter to `v` if `v` is larger (monotonic high-water
    /// mark; no event is recorded). Unlike [`TraceHandle::add`], calling
    /// this repeatedly with the same value is idempotent.
    pub fn raise(&self, c: Counter, v: u64) {
        self.0.counters[c as usize].fetch_max(v, Relaxed);
    }

    /// Current value of a counter.
    pub fn counter(&self, c: Counter) -> u64 {
        self.0.counters[c as usize].load(Relaxed)
    }

    /// Snapshot of the whole counter table, indexed by `Counter as usize`.
    /// It is one cut of the tally publishes (an engine's counts are whole
    /// engine calls); the atomic adds of shared writers land anywhere.
    pub fn counters(&self) -> [u64; Counter::COUNT] {
        let _ring = self.ring();
        std::array::from_fn(|i| self.0.counters[i].load(Relaxed))
    }

    /// Adds a request latency sample (picoseconds) from a shared writer;
    /// an engine's samples wait in its [`crate::Tally`].
    pub fn record_latency(&self, ps: u64) {
        self.ring().latency.add(ps);
    }

    /// Snapshot of the latency histogram.
    pub fn latency_hist(&self) -> Log2Hist {
        self.ring().latency.clone()
    }

    /// Snapshot of the occupancy histogram.
    pub fn occupancy_hist(&self) -> Log2Hist {
        self.ring().occupancy.clone()
    }

    /// Changes the ring capacity. Shrinking drops the oldest events.
    pub fn set_capacity(&self, capacity: usize) {
        let mut ring = self.ring();
        let excess = ring.events.len().saturating_sub(capacity);
        ring.events.drain(..excess);
        self.0.capacity.store(capacity, Relaxed);
    }

    /// Ring capacity currently in effect.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.0.capacity.load(Relaxed)
    }

    /// Number of events currently retained in the ring.
    pub fn len(&self) -> usize {
        self.ring().events.len()
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events recorded but not retained (ring overflow or capacity 0):
    /// every recorded event bumped its counter, so this is the sum of the
    /// event-backed counters minus what the ring still holds. A tally's
    /// events count once it publishes; a retained one was counted when it
    /// was retained, so this never underflows.
    pub fn dropped(&self) -> u64 {
        let ring = self.ring();
        self.recorded() - ring.events.len() as u64
    }

    fn recorded(&self) -> u64 {
        EventKind::COUNTERS.iter().map(|&c| self.counter(c)).sum()
    }

    /// Snapshot of the retained events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.ring().events.iter().copied().collect()
    }

    /// Serializes the counter table as one JSON object keyed by
    /// [`Counter::name`].
    pub(crate) fn counters_json(&self) -> String {
        let mut o = JsonObject::new();
        for c in Counter::ALL {
            o.field_u64(c.name(), self.counter(c));
        }
        o.finish()
    }

    /// Serializes the whole spine — counters, histograms, and the
    /// retained event timeline — as one JSON object.
    pub fn to_json(&self) -> String {
        let ring = self.ring();
        let retained = ring.events.len() as u64;
        let events = fp_stats::json::array(ring.events.iter().copied().map(TraceEvent::to_json));
        let mut o = JsonObject::new();
        o.field_raw("counters", &self.counters_json())
            .field_raw("latency_ps", &ring.latency.to_json())
            .field_raw("stash_occupancy", &ring.occupancy.to_json())
            .field_u64("events_dropped", self.recorded() - retained)
            .field_u64("events_retained", retained)
            .field_raw("events", &events);
        o.finish()
    }
}

/// The spine held still while tallies fold into it
/// ([`crate::Tally::publish_all`]).
pub(crate) struct Cut<'a> {
    counters: &'a [AtomicU64; Counter::COUNT],
    ring: MutexGuard<'a, Ring>,
}

impl Cut<'_> {
    /// Whether this is a cut of `handle`'s spine.
    pub(crate) fn is_of(&self, handle: &TraceHandle) -> bool {
        std::ptr::eq(self.counters, &handle.0.counters)
    }

    /// Adds each dirty count to its counter and clears counts and mask.
    pub(crate) fn fold(&self, counts: &mut [u64; Counter::COUNT], dirty: &mut u64) {
        let mut bits = std::mem::take(dirty);
        while bits != 0 {
            let i = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            self.counters[i].fetch_add(std::mem::take(&mut counts[i]), Relaxed);
        }
    }

    /// Adds the histogram samples to the spine's and empties them.
    pub(crate) fn merge(&mut self, latency: &mut Vec<u64>, occupancy: &mut Vec<u64>) {
        let ring = &mut *self.ring;
        for (spine, samples) in [
            (&mut ring.latency, latency),
            (&mut ring.occupancy, occupancy),
        ] {
            samples.drain(..).for_each(|v| spine.add(v));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tally;

    #[test]
    fn counters_survive_ring_overflow() {
        let t = TraceHandle::new(2);
        for i in 0..5 {
            t.record(i, EventKind::DramAct);
        }
        assert_eq!(t.counter(Counter::DramActs), 5);
        assert_eq!(t.len(), 2);
        assert_eq!(t.dropped(), 3);
        let evs = t.events();
        assert_eq!(evs[0].t_ps, 3, "ring keeps the most recent events");
        assert_eq!(evs[1].t_ps, 4);
    }

    #[test]
    fn record_run_is_n_records() {
        // Counter, retained events, their order and what overflow drops:
        // on a ring that never fills, one that fills mid-run, and none —
        // and the same calls made through a tally, then published.
        for capacity in [0usize, 3, 64] {
            let (run, each) = (TraceHandle::new(capacity), TraceHandle::new(capacity));
            let mut tally = Tally::new(TraceHandle::new(capacity));
            for t in [&run, &each] {
                t.record(5, EventKind::DramAct);
            }
            tally.record(5, EventKind::DramAct);
            run.record_run(EventKind::DramWrite, 6, 100, 7);
            tally.record_run(EventKind::DramWrite, 6, 100, 7);
            for k in 0..6 {
                each.record(100 + k * 7, EventKind::DramWrite);
            }
            run.record_run(EventKind::DramRead, 0, 900, 1);
            tally.record_run(EventKind::DramRead, 0, 900, 1);
            tally.publish();
            let tallied = tally.handle();
            assert_eq!(run.counters(), each.counters(), "capacity {capacity}");
            assert_eq!(tallied.counters(), each.counters(), "capacity {capacity}");
            assert_eq!(run.counter(Counter::DramWrites), 6);
            assert_eq!(run.events(), each.events(), "capacity {capacity}");
            assert_eq!(tallied.events(), each.events(), "capacity {capacity}");
            assert_eq!(run.dropped(), each.dropped(), "capacity {capacity}");
            assert_eq!(tallied.dropped(), each.dropped(), "capacity {capacity}");
        }
    }

    #[test]
    fn a_reader_between_publishes_sees_published_counts_only() {
        // Counted at capacity 0 and not yet published, then retained once
        // the ring has room: the retained events are counted on the spine,
        // the unpublished ones are not, and nothing underflows.
        let t = TraceHandle::new(0);
        let mut tally = Tally::new(t.clone());
        for k in 0..5 {
            tally.record(k, EventKind::DramRead);
        }
        tally.bump(Counter::CacheHits);
        tally.record_latency(7);
        tally.record_occupancy(3);
        t.set_capacity(4);
        tally.record_run(EventKind::DramWrite, 2, 10, 1);
        tally.record_now(EventKind::DramAct);
        assert_eq!(t.len(), 3);
        assert_eq!(t.counter(Counter::DramReads), 0, "unpublished");
        assert_eq!(t.counter(Counter::CacheHits), 0, "unpublished");
        assert_eq!(t.counter(Counter::DramWrites), 2, "retained: counted");
        assert_eq!(t.dropped(), 0);
        assert!(t.to_json().contains("\"events_dropped\":0,"));
        assert_eq!(tally.counter(Counter::DramReads), 5, "spine + pending");
        assert_eq!(t.latency_hist().count(), 0, "unpublished");
        assert_eq!(tally.latency_hist().sum(), 7, "spine + pending");
        assert_eq!(tally.occupancy_hist().sum(), 3, "spine + pending");
        tally.publish();
        assert_eq!(t.latency_hist().sum(), 7);
        assert_eq!(t.occupancy_hist().sum(), 3);
        assert_eq!(
            tally.latency_hist(),
            t.latency_hist(),
            "nothing left to publish"
        );
        assert_eq!(t.counter(Counter::DramReads), 5);
        assert_eq!(t.counter(Counter::CacheHits), 1);
        assert_eq!(t.dropped(), 5);
        assert!(t.to_json().contains("\"events_dropped\":5,"));
        assert_eq!(tally.counters(), t.counters(), "nothing left to publish");
    }

    #[test]
    fn tallies_publish_as_one_cut() {
        // Two tallies of one spine: a reader of the whole table sees both
        // or neither, never one of them.
        let t = TraceHandle::default();
        let (mut a, mut b) = (Tally::new(t.clone()), Tally::new(t.clone()));
        std::thread::scope(|s| {
            let reader = s.spawn(|| {
                for _ in 0..20_000 {
                    let c = t.counters();
                    let (hits, misses) = (
                        c[Counter::CacheHits as usize],
                        c[Counter::CacheMisses as usize],
                    );
                    assert_eq!(hits, misses, "half a publish");
                }
            });
            while !reader.is_finished() {
                a.bump(Counter::CacheHits);
                b.bump(Counter::CacheMisses);
                Tally::publish_all([&mut a, &mut b]);
            }
        });
        assert_eq!(
            t.counter(Counter::CacheHits),
            t.counter(Counter::CacheMisses)
        );
    }

    #[test]
    fn default_handle_counts_without_retaining() {
        let t = TraceHandle::default();
        t.record(7, EventKind::DramRead);
        t.bump(Counter::CacheHits);
        t.add(Counter::CacheMisses, 3);
        assert_eq!(t.counter(Counter::DramReads), 1);
        assert_eq!(t.counter(Counter::CacheHits), 1);
        assert_eq!(t.counter(Counter::CacheMisses), 3);
        assert!(t.is_empty());
        assert_eq!(t.dropped(), 1);
    }

    #[test]
    fn clones_share_the_spine() {
        let a = TraceHandle::new(8);
        let b = a.clone();
        b.record(1, EventKind::StashPush { addr: 42 });
        assert_eq!(a.counter(Counter::StashPushes), 1);
        assert_eq!(a.events().len(), 1);
    }

    #[test]
    fn record_now_uses_the_stamped_time() {
        let t = TraceHandle::new(4);
        t.set_now(99);
        t.record_now(EventKind::StashEvict { addr: 5 });
        assert_eq!(t.events()[0].t_ps, 99);
    }

    #[test]
    fn raise_is_a_monotonic_max() {
        let t = TraceHandle::default();
        t.raise(Counter::CoalesceIndexHighWater, 4);
        t.raise(Counter::CoalesceIndexHighWater, 2);
        assert_eq!(t.counter(Counter::CoalesceIndexHighWater), 4);
        t.raise(Counter::CoalesceIndexHighWater, 9);
        t.raise(Counter::CoalesceIndexHighWater, 9);
        assert_eq!(t.counter(Counter::CoalesceIndexHighWater), 9);
    }

    #[test]
    fn shrinking_capacity_drops_oldest() {
        let t = TraceHandle::new(8);
        for i in 0..6 {
            t.record(i, EventKind::DramWrite);
        }
        t.set_capacity(2);
        assert_eq!(t.len(), 2);
        assert_eq!(t.events()[0].t_ps, 4);
        t.set_capacity(0);
        assert!(t.is_empty());
        assert_eq!(t.dropped(), 6);
    }

    #[test]
    fn json_export_is_valid_and_complete() {
        let t = TraceHandle::new(16);
        t.record(10, EventKind::RequestSubmitted { id: 1 });
        t.record(20, EventKind::RequestCompleted { id: 1 });
        t.record_latency(10);
        let mut tally = Tally::new(t.clone());
        tally.record_occupancy(4);
        tally.publish();
        let s = t.to_json();
        assert!(fp_stats::json::validate(&s).is_ok(), "{s}");
        assert!(s.contains("\"requests_submitted\":1"));
        assert!(s.contains("\"events_retained\":2"));
        assert!(s.contains("\"kind\":\"request_completed\""));
    }

    #[test]
    fn handle_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TraceHandle>();
    }

    #[test]
    fn concurrent_bumps_and_records_are_exact() {
        const THREADS: u64 = 4;
        const PER_THREAD: u64 = 100_000;
        for capacity in [0usize, 64] {
            let t = TraceHandle::new(capacity);
            std::thread::scope(|s| {
                for _ in 0..THREADS {
                    s.spawn(|| {
                        for i in 0..PER_THREAD {
                            t.bump(Counter::CacheHits);
                            t.record(i, EventKind::DramRead);
                        }
                    });
                }
            });
            let total = THREADS * PER_THREAD;
            assert_eq!(t.counter(Counter::CacheHits), total);
            assert_eq!(t.counter(Counter::DramReads), total);
            assert_eq!(t.len(), capacity);
            assert_eq!(t.dropped(), total - capacity as u64);
        }
    }

    #[test]
    fn panic_under_the_ring_lock_does_not_stop_later_use() {
        let t = TraceHandle::new(4);
        t.record(1, EventKind::DramAct);
        let poisoner = t.clone();
        let died = std::thread::spawn(move || {
            let _guard = poisoner.ring();
            panic!("holder dies with the ring locked");
        })
        .join();
        assert!(died.is_err());
        assert!(t.0.ring.is_poisoned());
        t.record(2, EventKind::DramRead);
        t.record_latency(5);
        assert_eq!(t.events().len(), 2);
        assert_eq!(t.latency_hist().count(), 1);
        assert!(fp_stats::json::validate(&t.to_json()).is_ok());
    }
}
