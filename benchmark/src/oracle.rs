//! The plain-RAM reference every workload is checked against.
//!
//! Same-address operations apply in submission order at every layer (the
//! engines' address queues forward and cancel to keep it so), so the value
//! a read must return is fixed the moment it is submitted: the payload of
//! the last write submitted to that address before it, or zeros for a
//! block never written. The oracle records that expectation per request
//! and checks it when the completion (or wire response) arrives.

use std::collections::HashMap;

use fp_path_oram::Op;
use fp_workloads::zipf::{self, ScheduledRequest};

/// What a verification pass found: operations attempted and failed, and
/// descriptions of the first failures.
#[derive(Debug, Default, PartialEq)]
pub struct Checked {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Checked {
    /// Adds `other`'s tallies to these.
    pub fn absorb(&mut self, other: Checked) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
    }
}

/// Payload of write number `id` to `addr` (empty for a read): distinct per
/// request, so the oracle tells writes to one address apart.
pub fn payload(addr: u64, id: u64, op: Op, block_bytes: usize) -> Vec<u8> {
    match op {
        Op::Write => zipf::write_payload(addr, id, block_bytes),
        Op::Read => Vec::new(),
    }
}

enum Pending {
    /// Expected payload; `None` = never written (all zeros).
    Read(Option<Vec<u8>>),
    Write,
}

/// `HashMap<addr, payload>` model plus the per-request ledger.
pub struct Oracle {
    model: HashMap<u64, Vec<u8>>,
    pending: HashMap<u64, Pending>,
    /// Requests submitted.
    pub attempted: u64,
    /// Wrong data, unknown or duplicate reply, bad status, missing reply.
    pub failed: u64,
    first_failures: Vec<String>,
}

impl Oracle {
    pub fn new() -> Self {
        Self {
            model: HashMap::new(),
            pending: HashMap::new(),
            attempted: 0,
            failed: 0,
            first_failures: Vec::new(),
        }
    }

    /// An oracle expecting `requests` in this order, each write carrying
    /// [`payload`]`(addr, tag)`.
    pub fn expecting(requests: &[ScheduledRequest], block_bytes: usize) -> Self {
        let mut oracle = Self::new();
        for r in requests {
            oracle.on_submit(
                r.tag,
                r.addr,
                r.op,
                &payload(r.addr, r.tag, r.op, block_bytes),
            );
        }
        oracle
    }

    /// Records request `id` in program order.
    pub fn on_submit(&mut self, id: u64, addr: u64, op: Op, data: &[u8]) {
        self.attempted += 1;
        let entry = match op {
            Op::Write => {
                self.model.insert(addr, data.to_vec());
                Pending::Write
            }
            Op::Read => Pending::Read(self.model.get(&addr).cloned()),
        };
        if self.pending.insert(id, entry).is_some() {
            self.fail(format!("request id {id} submitted twice"));
        }
    }

    /// Checks the reply to request `id`. Write replies carry no checked
    /// payload (the engines echo the pre-write image, the wire an empty
    /// ack).
    pub fn on_reply(&mut self, id: u64, data: &[u8]) {
        match self.pending.remove(&id) {
            None => self.fail(format!("reply for unknown or already answered id {id}")),
            Some(Pending::Write) => {}
            Some(Pending::Read(expected)) => {
                let ok = match &expected {
                    Some(want) => data == want.as_slice(),
                    None => !data.is_empty() && data.iter().all(|&b| b == 0),
                };
                if !ok {
                    self.fail(format!(
                        "read id {id}: got {:?}.., want {:?}..",
                        &data[..data.len().min(16)],
                        expected.as_deref().map(|w| &w[..w.len().min(16)])
                    ));
                }
            }
        }
    }

    /// A reply that is itself a failure (non-ok status): closes the
    /// request's ledger entry and counts it failed.
    pub fn on_error(&mut self, id: u64, what: String) {
        self.pending.remove(&id);
        self.fail(what);
    }

    /// Counts one failed operation, keeping the first few descriptions.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.first_failures.len() < 5 {
            self.first_failures.push(what);
        }
    }

    /// Closes the ledger: every request still pending is a missing reply.
    pub fn finish(mut self) -> Checked {
        let missing = self.pending.len();
        if missing > 0 {
            self.failed += missing as u64;
            self.first_failures
                .push(format!("{missing} requests never answered"));
        }
        Checked {
            attempted: self.attempted,
            failed: self.failed,
            failures: self.first_failures,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_see_the_last_write_submitted_before_them() {
        let mut o = Oracle::new();
        o.on_submit(0, 7, Op::Read, &[]);
        o.on_submit(1, 7, Op::Write, &[1; 8]);
        o.on_submit(2, 7, Op::Read, &[]);
        o.on_submit(3, 7, Op::Write, &[2; 8]);
        o.on_reply(2, &[1; 8]);
        o.on_reply(0, &[0; 8]);
        o.on_reply(3, &[]);
        o.on_reply(1, &[9; 8]);
        let checked = o.finish();
        assert_eq!((checked.attempted, checked.failed), (4, 0));
        assert!(checked.failures.is_empty());
    }

    #[test]
    fn wrong_data_duplicate_and_missing_replies_fail() {
        let mut o = Oracle::new();
        o.on_submit(0, 1, Op::Write, &[5; 4]);
        o.on_submit(1, 1, Op::Read, &[]);
        o.on_submit(2, 2, Op::Read, &[]);
        o.on_reply(1, &[6; 4]);
        o.on_reply(1, &[5; 4]);
        let checked = o.finish();
        assert_eq!((checked.attempted, checked.failed), (3, 4));
        assert_eq!(checked.failures.len(), 3);
    }
}
