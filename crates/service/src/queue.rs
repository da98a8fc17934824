//! A shard's inbox: a bounded multi-producer queue with explicit
//! backpressure, and the one rule by which its shard admits.
//!
//! The queue never blocks producers: a full queue rejects with
//! [`SubmitError::Busy`] and the caller decides whether to retry, shed, or
//! slow down. A closed queue refuses every push with the reason it was
//! first closed for: [`SubmitError::Shutdown`] once the service drains,
//! [`SubmitError::ShardDown`] once its shard's worker has died.
//!
//! **The admission rule.** Received requests wait in `(arrival_ps, seq)`
//! order, `seq` being a live submission's receipt order and a stamped
//! one's index in its trace or script: equal stamps admit in input order.
//! The *watermark* is the earliest key expected and not received: infinite
//! for live submission, a trace received whole and a closed queue. Each
//! turn ([`SubmissionQueue::admit`]) takes, up to the batch size, the
//! requests stamped at or before `min(engine clock, watermark)`; an idle
//! engine fast-forwards to the earliest received request if it precedes
//! the watermark. Otherwise, and while an unreceived request could be
//! stamped at or before the clock, the worker blocks. A stamped shard's
//! batches and accesses are thus a function of its requests' stamps, not
//! of when they reach the queue.
//!
//! A live queue's stamps are the host clock's, read as each request
//! arrives: they carry no order to keep, so its clock bound is lifted and
//! a turn takes whatever has been received, up to the batch size, as soon
//! as it is there (blocking only while the engine is idle and the queue
//! empty). Its batching thus follows the host's arrivals, as it always
//! did.

use std::collections::{BTreeSet, VecDeque};
use std::sync::{Condvar, Mutex};

use crate::request::{ServiceRequest, SubmitError};
use crate::sync::{relock, rewait};

/// A request's place in admission order: `(arrival_ps, seq)`.
type Key = (u64, u64);

#[derive(Debug)]
struct QueueState {
    items: VecDeque<(Key, ServiceRequest)>,
    /// Requests received so far: a live submission's `seq`.
    received: u64,
    /// A stamped queue's keys not yet received (empty for a trace
    /// received whole); `None` for live submission.
    expected: Option<BTreeSet<Key>>,
    /// Why the queue closed, first reason only; `None` while open.
    closed: Option<SubmitError>,
    high_water: usize,
}

/// A bounded MPSC queue feeding one shard worker.
#[derive(Debug)]
pub struct SubmissionQueue {
    state: Mutex<QueueState>,
    ready: Condvar,
    capacity: usize,
}

impl SubmissionQueue {
    /// A queue holding at most `capacity` pending requests.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be at least 1");
        Self {
            state: Mutex::new(QueueState {
                items: VecDeque::with_capacity(capacity),
                received: 0,
                expected: None,
                closed: None,
                high_water: 0,
            }),
            ready: Condvar::new(),
            capacity,
        }
    }

    /// Enqueues a live submission without blocking.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Busy`] when the queue is at capacity (backpressure);
    /// once the queue has been closed, the reason it was closed for;
    /// [`SubmitError::Unscripted`] when the queue serves a replay.
    pub fn try_push(&self, req: ServiceRequest) -> Result<(), SubmitError> {
        self.push(req, None)
    }

    /// [`SubmissionQueue::try_push`], or with `Some(index)` a replay's
    /// entry `index`: [`SubmitError::Unscripted`] unless the queue still
    /// expects `(req.arrival_ps, index)`.
    pub(crate) fn push(&self, req: ServiceRequest, index: Option<u64>) -> Result<(), SubmitError> {
        let mut st = relock(&self.state);
        if let Some(reason) = st.closed {
            return Err(reason);
        }
        if st.items.len() >= self.capacity {
            return Err(SubmitError::Busy);
        }
        let key = (req.arrival_ps, index.unwrap_or(st.received));
        let expected = match index {
            None => st.expected.is_none(),
            Some(_) => st.expected.as_mut().is_some_and(|keys| keys.remove(&key)),
        };
        if !expected {
            return Err(SubmitError::Unscripted);
        }
        st.received += 1;
        let at = st.items.partition_point(|(k, _)| *k <= key);
        st.items.insert(at, (key, req));
        st.high_water = st.high_water.max(st.items.len());
        drop(st);
        self.ready.notify_one();
        Ok(())
    }

    /// Receives a whole trace before its worker starts, stamped and
    /// expecting nothing more: past the capacity and the high-water mark,
    /// which measure backpressure on producers.
    pub(crate) fn preload(&self, mut schedule: Vec<ServiceRequest>) {
        schedule.sort_by_key(|req| req.arrival_ps); // stable: input order
        let mut st = relock(&self.state);
        st.items = (schedule.into_iter().zip(0..))
            .map(|(req, seq)| ((req.arrival_ps, seq), req))
            .collect();
        st.received = st.items.len() as u64;
        st.expected = Some(BTreeSet::new());
    }

    /// Makes the queue a replay's, expecting the `(arrival_ps, index)`
    /// keys of `script`.
    pub(crate) fn expect(&self, script: Vec<Key>) {
        relock(&self.state).expected = Some(script.into_iter().collect());
    }

    /// One turn of the admission rule for an engine at `clock` (ps), `idle`
    /// when it has no work: blocks until the batch is settled and takes it
    /// (up to `max`; empty only while the engine has work). `None` once the
    /// queue is closed and empty and the engine idle.
    pub(crate) fn admit(&self, max: usize, clock: u64, idle: bool) -> Option<Vec<ServiceRequest>> {
        let mut st = relock(&self.state);
        // A live queue's host stamps bound nothing (module docs).
        let clock = st.expected.as_ref().map_or(u64::MAX, |_| clock);
        loop {
            let expected = st.expected.as_ref().filter(|_| st.closed.is_none());
            let watermark = expected.and_then(|keys| keys.first().copied());
            let precedes = |key: &Key| watermark.is_none_or(|w| *key < w);
            let ready = (st.items.iter().take(max))
                .take_while(|(key, _)| key.0 <= clock && precedes(key))
                .count();
            // No unreceived request can be stamped at or before the clock.
            let settled = watermark.is_none_or(|(stamp, _)| stamp > clock);
            // Idle with nothing ready: fast-forward to the earliest.
            let take = match st.items.front() {
                _ if ready == max || (settled && (ready > 0 || !idle)) => ready,
                Some((key, _)) if settled && precedes(key) => 1,
                None if settled && st.closed.is_some() => return None,
                _ => {
                    st = rewait(&self.ready, st);
                    continue;
                }
            };
            return Some(st.items.drain(..take).map(|(_, req)| req).collect());
        }
    }

    /// Blocks until at least one request is available, then takes up to
    /// `max` of them in admission order whatever their stamps (a replay's
    /// up to its watermark). Returns `None` only once the queue is closed
    /// *and* empty — drain semantics: close() does not discard queued work.
    ///
    /// `max == 0` is a caller bug (it would ask for an empty batch while
    /// claiming to want work) and trips a debug assertion; release builds
    /// still take at least one request.
    pub fn pop_batch(&self, max: usize) -> Option<Vec<ServiceRequest>> {
        debug_assert!(max > 0, "pop_batch(max = 0) would never make progress");
        self.admit(max.max(1), u64::MAX, true)
    }

    /// Closes the queue for `reason`: subsequent pushes fail with it (the
    /// first close's reason wins), nothing more is expected, and consumers
    /// drain what remains, then see `None`.
    pub(crate) fn close(&self, reason: SubmitError) {
        relock(&self.state).closed.get_or_insert(reason);
        self.ready.notify_all();
    }

    /// Current occupancy.
    pub(crate) fn len(&self) -> usize {
        relock(&self.state).items.len()
    }

    /// Highest occupancy ever observed.
    pub(crate) fn high_water(&self) -> usize {
        relock(&self.state).high_water
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(tag: u64) -> ServiceRequest {
        ServiceRequest::read(tag, 0, tag)
    }

    #[test]
    fn full_queue_rejects_busy_without_blocking() {
        let q = std::sync::Arc::new(SubmissionQueue::new(2));
        q.try_push(req(0)).unwrap();
        q.try_push(req(1)).unwrap();
        // Nothing pops, so a push that waited for room would never return.
        // The watchdog only turns that hang into a failure: no deadline on
        // the push itself, which a loaded host may be slow to schedule.
        let (tx, rx) = std::sync::mpsc::channel();
        let pusher = {
            let q = q.clone();
            std::thread::spawn(move || tx.send(q.try_push(req(2))))
        };
        let pushed = rx.recv_timeout(std::time::Duration::from_secs(60));
        assert_eq!(
            pushed.expect("Busy must come back without a pop, not block"),
            Err(SubmitError::Busy)
        );
        pusher.join().unwrap().unwrap();
        assert_eq!(q.len(), 2);
        assert_eq!(q.high_water(), 2);
    }

    #[test]
    fn popping_frees_capacity() {
        let q = SubmissionQueue::new(1);
        q.try_push(req(0)).unwrap();
        assert_eq!(q.try_push(req(1)), Err(SubmitError::Busy));
        assert_eq!(q.pop_batch(8).unwrap().len(), 1);
        q.try_push(req(1)).unwrap();
        assert_eq!(q.high_water(), 1);
    }

    #[test]
    fn close_drains_then_ends() {
        let q = SubmissionQueue::new(4);
        q.try_push(req(0)).unwrap();
        q.try_push(req(1)).unwrap();
        q.close(SubmitError::Shutdown);
        assert_eq!(q.try_push(req(2)), Err(SubmitError::Shutdown));
        let batch = q.pop_batch(8).expect("queued work survives close");
        assert_eq!(batch.len(), 2);
        assert!(q.pop_batch(8).is_none(), "closed and empty ends the stream");
    }

    #[test]
    fn a_closed_queue_refuses_with_its_first_reason() {
        let q = SubmissionQueue::new(4);
        q.close(SubmitError::ShardDown);
        q.close(SubmitError::Shutdown);
        assert_eq!(q.try_push(req(0)), Err(SubmitError::ShardDown));
        assert!(q.pop_batch(8).is_none());
    }

    #[test]
    fn pop_batch_wakes_on_push() {
        let q = std::sync::Arc::new(SubmissionQueue::new(4));
        let q2 = q.clone();
        let consumer = std::thread::spawn(move || q2.pop_batch(8));
        // Gives the consumer time to block, so the push is what wakes it.
        #[expect(clippy::disallowed_methods)]
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.try_push(req(9)).unwrap();
        let got = consumer.join().unwrap().unwrap();
        assert_eq!(got[0].tag, 9);
    }

    /// Tags in the order one admission turn takes them.
    fn admitted(q: &SubmissionQueue, clock_ps: u64, idle: bool) -> Vec<u64> {
        let batch = q.admit(16, clock_ps, idle).expect("open queue");
        batch.iter().map(|r| r.tag).collect()
    }

    #[test]
    fn equal_stamps_admit_in_input_order() {
        let q = SubmissionQueue::new(8);
        for (tag, stamp) in [(0, 5), (1, 3), (2, 5), (3, 3), (4, 4)] {
            q.try_push(ServiceRequest::read(0, stamp, tag)).unwrap();
        }
        // The stable sort by stamp of the input order.
        assert_eq!(admitted(&q, 5, false), [1, 3, 4, 0, 2]);
        // A trace received whole keeps the same tie order.
        let q = SubmissionQueue::new(1);
        let trace = [(0, 5), (1, 3), (2, 5), (3, 3)];
        q.preload(
            trace
                .map(|(tag, at)| ServiceRequest::read(0, at, tag))
                .to_vec(),
        );
        assert_eq!(admitted(&q, 5, false), [1, 3, 0, 2]);
        assert_eq!(q.high_water(), 0, "a preloaded trace is not backpressure");
    }

    #[test]
    fn admission_follows_the_engine_clock_and_fast_forwards_when_idle() {
        let q = SubmissionQueue::new(8);
        let trace = [(0, 10), (1, 20), (2, 20)];
        q.preload(
            trace
                .map(|(tag, at)| ServiceRequest::read(0, at, tag))
                .to_vec(),
        );
        assert!(
            admitted(&q, 5, false).is_empty(),
            "busy: wait for the clock"
        );
        assert_eq!(admitted(&q, 5, true), [0], "idle: the earliest only");
        assert_eq!(
            q.admit(1, 20, false).unwrap().len(),
            1,
            "up to the batch size"
        );
        assert_eq!(admitted(&q, 20, false), [2]);
        q.close(SubmitError::Shutdown);
        assert!(
            admitted(&q, 20, false).is_empty(),
            "busy: the engine drains"
        );
        assert_eq!(q.admit(16, 20, true), None, "closed, empty and idle");
    }

    #[test]
    fn a_live_queue_admits_what_it_has_received() {
        let q = SubmissionQueue::new(8);
        for (tag, stamp) in [(0, 10), (1, 20), (2, 20)] {
            q.try_push(ServiceRequest::read(0, stamp, tag)).unwrap();
        }
        assert_eq!(q.admit(2, 5, false).unwrap().len(), 2, "up to the batch");
        assert_eq!(admitted(&q, 5, false), [2], "whatever the engine clock");
        assert!(admitted(&q, 5, false).is_empty(), "busy: never blocks");
        q.close(SubmitError::Shutdown);
        assert_eq!(q.admit(16, 5, true), None, "closed, empty and idle");
    }

    #[test]
    fn a_replay_admits_nothing_an_unsent_request_precedes() {
        let q = std::sync::Arc::new(SubmissionQueue::new(8));
        q.expect(vec![(10, 0), (20, 1), (20, 2)]);
        q.push(ServiceRequest::read(0, 20, 2), Some(2)).unwrap();
        let consumer = {
            let q = q.clone();
            std::thread::spawn(move || admitted(&q, 30, true))
        };
        // Gives the consumer time to block, so a push is what wakes it.
        let settle = || {
            #[expect(clippy::disallowed_methods)]
            std::thread::sleep(std::time::Duration::from_millis(20));
        };
        settle();
        assert!(!consumer.is_finished(), "index 0 precedes what it holds");
        q.push(ServiceRequest::read(0, 10, 0), Some(0)).unwrap();
        settle();
        // Index 1 ties with index 2 and precedes it, at or before the clock.
        assert!(!consumer.is_finished(), "index 1 belongs in this batch");
        q.push(ServiceRequest::read(0, 20, 1), Some(1)).unwrap();
        assert_eq!(consumer.join().unwrap(), [0, 1, 2]);
    }

    #[test]
    fn a_replay_refuses_what_its_script_does_not_hold() {
        let q = SubmissionQueue::new(8);
        q.expect(vec![(10, 0), (20, 1)]);
        let unscripted = Err(SubmitError::Unscripted);
        assert_eq!(q.push(ServiceRequest::read(0, 10, 0), Some(1)), unscripted);
        assert_eq!(q.try_push(ServiceRequest::read(0, 10, 0)), unscripted);
        q.push(ServiceRequest::read(0, 10, 0), Some(0)).unwrap();
        assert_eq!(q.push(ServiceRequest::read(0, 10, 0), Some(0)), unscripted);
        let live = SubmissionQueue::new(8);
        assert_eq!(
            live.push(ServiceRequest::read(0, 10, 0), Some(0)),
            unscripted
        );
        // Closing drops the expectation of index 1: the rest drains.
        q.close(SubmitError::Shutdown);
        assert_eq!(admitted(&q, 0, true), [0]);
        assert_eq!(q.admit(16, 10, true), None);
    }
}
