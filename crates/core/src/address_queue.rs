//! The address queue: LLC requests before transformation, with data-hazard
//! protection (§4).
//!
//! Request scheduling reorders ORAM requests, so the architecture resolves
//! same-address hazards *before* requests reach the position map:
//!
//! * **Read-before-Read** — no action.
//! * **Read-before-Write** — the write stalls until the read completes.
//! * **Write-before-Read** — the read is answered immediately by data
//!   forwarding; no ORAM request is generated.
//! * **Write-before-Write** — the earlier (untransformed) write is
//!   cancelled.

use std::collections::VecDeque;

use fp_path_oram::Op;

use crate::engine::LlcRequest;

/// What `submit` did with the request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum SubmitEffect {
    /// Queued normally.
    Queued,
    /// A read was satisfied by forwarding from an in-flight or queued write.
    Forwarded {
        /// The forwarded payload.
        data: Vec<u8>,
    },
    /// Queued, and an older queued write to the same address was cancelled.
    CancelledOlderWrite {
        /// Id of the cancelled request.
        cancelled_id: u64,
    },
}

/// FIFO of LLC requests awaiting transformation into ORAM requests
/// (Write-before-Read forwarding is `write_before_read_forwards` below).
#[derive(Debug, Clone, Default)]
pub(crate) struct AddressQueue {
    queue: VecDeque<LlcRequest>,
    /// Data addresses with an in-flight (transformed, not yet completed)
    /// read, for Read-before-Write stalling.
    inflight_reads: Vec<u64>,
    /// In-flight writes `(addr, data)` for Write-before-Read forwarding.
    inflight_writes: Vec<(u64, Vec<u8>)>,
}

impl AddressQueue {
    /// Creates an empty queue.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Whether no requests are waiting.
    pub(crate) fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Applies the §4 hazard rules and queues the request (unless it was
    /// forwarded).
    pub(crate) fn submit(&mut self, req: LlcRequest) -> SubmitEffect {
        match req.op {
            Op::Read => {
                // Write-before-Read: forward from the youngest earlier write.
                let from_queue = self
                    .queue
                    .iter()
                    .rev()
                    .find(|r| r.addr == req.addr && r.op == Op::Write)
                    .and_then(|r| r.data.clone());
                let data = from_queue.or_else(|| {
                    self.inflight_writes
                        .iter()
                        .rev()
                        .find(|(a, _)| *a == req.addr)
                        .map(|(_, d)| d.clone())
                });
                if let Some(data) = data {
                    return SubmitEffect::Forwarded { data };
                }
                self.queue.push_back(req);
                SubmitEffect::Queued
            }
            Op::Write => {
                // Write-before-Write: cancel an older untransformed write.
                if let Some(pos) = self
                    .queue
                    .iter()
                    .position(|r| r.addr == req.addr && r.op == Op::Write)
                {
                    let cancelled = self.queue.remove(pos).expect("index valid");
                    self.queue.push_back(req);
                    return SubmitEffect::CancelledOlderWrite {
                        cancelled_id: cancelled.id,
                    };
                }
                self.queue.push_back(req);
                SubmitEffect::Queued
            }
        }
    }

    /// Pops the head request if it is transformable at `now_ps`: it has
    /// arrived, and (for writes) no older read *or write* to the same
    /// address is still in flight (Read-before-Write, Write-after-Write).
    ///
    /// The write-after-write stall matters for correctness, not just
    /// timing: two concurrent chains to the same address can finish out
    /// of order (the younger one may shortcut through the PLB or stash
    /// while the older walks its full posmap chain), and whichever
    /// `apply_op` runs last wins — a lost update. Queued write pairs are
    /// already collapsed by cancellation at submit; this closes the
    /// popped-but-not-yet-complete window, so same-address writes apply
    /// in program order under any arrival pacing.
    pub(crate) fn pop_ready(&mut self, now_ps: u64) -> Option<LlcRequest> {
        let head = self.queue.front()?;
        if head.arrival_ps > now_ps {
            return None;
        }
        if head.op == Op::Write
            && (self.inflight_reads.contains(&head.addr)
                || self.inflight_writes.iter().any(|(a, _)| *a == head.addr))
        {
            return None;
        }
        let req = self.queue.pop_front().expect("front exists");
        match req.op {
            Op::Read => self.inflight_reads.push(req.addr),
            Op::Write => self
                .inflight_writes
                .push((req.addr, req.data.clone().unwrap_or_default())),
        }
        Some(req)
    }

    /// Arrival time of the head request, if any.
    pub(crate) fn head_arrival(&self) -> Option<u64> {
        self.queue.front().map(|r| r.arrival_ps)
    }

    /// Marks a transformed request as complete, releasing hazards.
    pub(crate) fn complete(&mut self, addr: u64, op: Op) {
        match op {
            Op::Read => {
                if let Some(pos) = self.inflight_reads.iter().position(|&a| a == addr) {
                    self.inflight_reads.swap_remove(pos);
                }
            }
            Op::Write => {
                if let Some(pos) = self.inflight_writes.iter().position(|(a, _)| *a == addr) {
                    self.inflight_writes.swap_remove(pos);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(id: u64, addr: u64, t: u64) -> LlcRequest {
        LlcRequest {
            id,
            addr,
            op: Op::Read,
            data: None,
            arrival_ps: t,
            tag: 0,
        }
    }

    fn write(id: u64, addr: u64, byte: u8, t: u64) -> LlcRequest {
        LlcRequest {
            id,
            addr,
            op: Op::Write,
            data: Some(vec![byte]),
            arrival_ps: t,
            tag: 0,
        }
    }

    #[test]
    fn read_before_read_both_queue() {
        let mut aq = AddressQueue::new();
        assert_eq!(aq.submit(read(1, 5, 0)), SubmitEffect::Queued);
        assert_eq!(aq.submit(read(2, 5, 1)), SubmitEffect::Queued);
        assert_eq!(aq.queue.len(), 2);
    }

    #[test]
    fn write_stalls_behind_inflight_same_address_write() {
        let mut aq = AddressQueue::new();
        aq.submit(write(1, 5, 0xAA, 0));
        let first = aq.pop_ready(10).expect("first write pops");
        assert_eq!(first.id, 1);
        // A second write to the same address arrives after the first was
        // transformed (so queue-level cancellation cannot collapse them).
        aq.submit(write(2, 5, 0xBB, 1));
        assert!(
            aq.pop_ready(10).is_none(),
            "same-address write must wait for the in-flight write"
        );
        aq.complete(5, Op::Write);
        let second = aq.pop_ready(10).expect("unblocked after completion");
        assert_eq!(second.id, 2);
    }

    #[test]
    fn write_before_read_forwards() {
        let mut aq = AddressQueue::new();
        aq.submit(write(1, 5, 0xAA, 0));
        let effect = aq.submit(read(2, 5, 1));
        assert_eq!(effect, SubmitEffect::Forwarded { data: vec![0xAA] });
        assert_eq!(aq.queue.len(), 1, "only the write remains queued");
    }

    #[test]
    fn forwarding_uses_youngest_write() {
        let mut aq = AddressQueue::new();
        aq.submit(write(1, 5, 1, 0));
        aq.submit(read(9, 6, 0)); // unrelated
                                  // WaW cancels the older write; the read must see the newer data.
        aq.submit(write(2, 5, 2, 1));
        let effect = aq.submit(read(3, 5, 2));
        assert_eq!(effect, SubmitEffect::Forwarded { data: vec![2] });
    }

    #[test]
    fn forwarding_from_inflight_write() {
        let mut aq = AddressQueue::new();
        aq.submit(write(1, 5, 0xBB, 0));
        let w = aq.pop_ready(0).unwrap();
        assert_eq!(w.id, 1);
        // The write is now in flight; a read still forwards.
        let effect = aq.submit(read(2, 5, 1));
        assert_eq!(effect, SubmitEffect::Forwarded { data: vec![0xBB] });
        aq.complete(5, Op::Write);
        // After completion the forwarding window closes.
        assert_eq!(aq.submit(read(3, 5, 2)), SubmitEffect::Queued);
    }

    #[test]
    fn write_before_write_cancels() {
        let mut aq = AddressQueue::new();
        aq.submit(write(1, 5, 1, 0));
        let effect = aq.submit(write(2, 5, 2, 1));
        assert_eq!(
            effect,
            SubmitEffect::CancelledOlderWrite { cancelled_id: 1 }
        );
        assert_eq!(aq.queue.len(), 1);
        let survivor = aq.pop_ready(10).unwrap();
        assert_eq!(survivor.id, 2);
    }

    #[test]
    fn read_before_write_stalls_write() {
        let mut aq = AddressQueue::new();
        aq.submit(read(1, 5, 0));
        let r = aq.pop_ready(0).unwrap();
        assert_eq!(r.id, 1);
        aq.submit(write(2, 5, 9, 1));
        assert!(
            aq.pop_ready(10).is_none(),
            "write stalls behind in-flight read"
        );
        aq.complete(5, Op::Read);
        assert_eq!(aq.pop_ready(10).unwrap().id, 2);
    }

    #[test]
    fn pop_respects_arrival_time() {
        let mut aq = AddressQueue::new();
        aq.submit(read(1, 5, 1_000));
        assert!(aq.pop_ready(500).is_none());
        assert_eq!(aq.head_arrival(), Some(1_000));
        assert!(aq.pop_ready(1_000).is_some());
    }
}
