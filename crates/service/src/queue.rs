//! Bounded multi-producer submission queue with explicit backpressure.
//!
//! The queue never blocks producers: a full queue rejects with
//! [`SubmitError::Busy`] and the caller decides whether to retry, shed, or
//! slow down. Consumers (shard workers) block in [`SubmissionQueue::pop_batch`]
//! until work arrives or the queue is closed and fully drained. A closed
//! queue refuses every push with the reason it was first closed for:
//! [`SubmitError::Shutdown`] once the service drains,
//! [`SubmitError::ShardDown`] once its shard's worker has died.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

use crate::request::{ServiceRequest, SubmitError};
use crate::sync::{relock, rewait};

#[derive(Debug)]
struct QueueState {
    items: VecDeque<ServiceRequest>,
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
                closed: None,
                high_water: 0,
            }),
            ready: Condvar::new(),
            capacity,
        }
    }

    /// Enqueues without blocking.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Busy`] when the queue is at capacity (backpressure);
    /// once the queue has been closed, the reason it was closed for.
    pub fn try_push(&self, req: ServiceRequest) -> Result<(), SubmitError> {
        let mut st = relock(&self.state);
        if let Some(reason) = st.closed {
            return Err(reason);
        }
        if st.items.len() >= self.capacity {
            return Err(SubmitError::Busy);
        }
        st.items.push_back(req);
        st.high_water = st.high_water.max(st.items.len());
        drop(st);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks until at least one request is available, then takes up to
    /// `max` of them. Returns `None` only once the queue is closed *and*
    /// empty — drain semantics: close() does not discard queued work.
    ///
    /// `max == 0` is a caller bug (it would ask for an empty batch while
    /// claiming to want work) and trips a debug assertion; release builds
    /// still take at least one request.
    pub fn pop_batch(&self, max: usize) -> Option<Vec<ServiceRequest>> {
        debug_assert!(max > 0, "pop_batch(max = 0) would never make progress");
        let mut st = relock(&self.state);
        loop {
            if !st.items.is_empty() {
                let take = st.items.len().min(max.max(1));
                return Some(st.items.drain(..take).collect());
            }
            if st.closed.is_some() {
                return None;
            }
            st = rewait(&self.ready, st);
        }
    }

    /// Non-blocking variant of [`SubmissionQueue::pop_batch`] with the
    /// same termination contract: `Some(batch)` (possibly empty) while
    /// the queue is open or still draining, `None` only once it is closed
    /// *and* empty, so a non-blocking poller can tell "no work right now"
    /// from "closed and drained".
    ///
    /// `max == 0` trips the same debug assertion as
    /// [`SubmissionQueue::pop_batch`].
    pub(crate) fn try_pop_batch(&self, max: usize) -> Option<Vec<ServiceRequest>> {
        debug_assert!(max > 0, "try_pop_batch(max = 0) would never take work");
        let mut st = relock(&self.state);
        if st.items.is_empty() && st.closed.is_some() {
            return None;
        }
        let take = st.items.len().min(max.max(1));
        Some(st.items.drain(..take).collect())
    }

    /// Closes the queue for `reason`: subsequent pushes fail with it (the
    /// first close's reason wins); consumers drain what remains, then see
    /// `None`.
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

    #[test]
    fn try_pop_batch_never_blocks() {
        let q = SubmissionQueue::new(4);
        assert!(q.try_pop_batch(8).unwrap().is_empty());
        q.try_push(req(1)).unwrap();
        q.try_push(req(2)).unwrap();
        assert_eq!(q.try_pop_batch(1).unwrap().len(), 1);
        assert_eq!(q.try_pop_batch(8).unwrap().len(), 1);
    }

    #[test]
    fn try_pop_batch_distinguishes_idle_from_drained() {
        let q = SubmissionQueue::new(4);
        // Open + empty: "no work right now", keep polling.
        assert_eq!(q.try_pop_batch(8), Some(Vec::new()));
        q.try_push(req(1)).unwrap();
        q.close(SubmitError::Shutdown);
        // Closed but not yet drained: queued work survives close.
        assert_eq!(q.try_pop_batch(8).unwrap().len(), 1);
        // Closed and drained: the stream has ended.
        assert_eq!(q.try_pop_batch(8), None);
    }
}
