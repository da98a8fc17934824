//! Fixtures shared by the workspace's integration suites: the service and
//! wire fixtures of `service_level.rs`, `net_level.rs` and
//! `fault_tolerance.rs`, and the plain-RAM reference model that
//! `oram_correctness.rs` checks every controller against.

// Each suite compiles its own copy and none uses every item.
#![allow(dead_code)]

use std::collections::HashMap;
use std::sync::mpsc;
use std::time::Duration;

use fork_path_oram::path_oram::Op;
use fork_path_oram::service::{ServiceConfig, ServiceRequest};
use fork_path_oram::workloads::zipf::{self, ScheduledRequest};

/// The plain-RAM reference model: the last write to each block (zeros for
/// a block never written), plus the reads still owed an answer, keyed by
/// request id or tag.
pub struct RamModel {
    block_bytes: usize,
    memory: HashMap<u64, Vec<u8>>,
    expected: HashMap<u64, Vec<u8>>,
}

impl RamModel {
    /// An empty memory of `block_bytes`-byte blocks.
    pub fn new(block_bytes: usize) -> Self {
        Self {
            block_bytes,
            memory: HashMap::new(),
            expected: HashMap::new(),
        }
    }

    /// Applies a write of `data` to `addr`.
    pub fn write(&mut self, addr: u64, data: Vec<u8>) {
        self.memory.insert(addr, data);
    }

    /// What a read of `addr` returns now.
    pub fn read(&self, addr: u64) -> Vec<u8> {
        let zeros = || vec![0; self.block_bytes];
        self.memory.get(&addr).cloned().unwrap_or_else(zeros)
    }

    /// Expects the read known by `key` to return what `addr` holds now.
    pub fn expect_read(&mut self, key: u64, addr: u64) {
        self.expected.insert(key, self.read(addr));
    }

    /// Checks `got`, the data returned under `key`, if `key` names an
    /// expected read (a write's completion names none).
    pub fn check(&mut self, key: u64, addr: u64, got: &[u8]) {
        if let Some(want) = self.expected.remove(&key) {
            assert_eq!(got, want, "read {addr} returned wrong data");
        }
    }

    /// Whether every expected read has been checked.
    pub fn all_checked(&self) -> bool {
        self.expected.is_empty()
    }
}

/// A small config for tests: the fast-test geometry shrunk further so a
/// few hundred requests finish in tens of milliseconds per shard.
pub fn small_cfg(shards: usize) -> ServiceConfig {
    let mut cfg = ServiceConfig::fast_test(shards);
    cfg.oram.data_blocks = 1 << 12;
    cfg.oram.levels = 11;
    cfg.oram.onchip_posmap_entries = 1 << 6;
    cfg
}

/// Runs `f` on a helper thread and fails the test if it neither finishes
/// nor panics within `secs` — the bound that turns a hang or livelock
/// regression into a fast, attributable failure.
pub fn with_watchdog<T: Send + 'static>(
    name: &str,
    secs: u64,
    f: impl FnOnce() -> T + Send + 'static,
) -> T {
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(Duration::from_secs(secs)) {
        Ok(v) => {
            worker.join().expect("watchdog worker");
            v
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            // The closure panicked: propagate its panic.
            worker.join().expect("watchdog worker panicked");
            unreachable!("disconnected sender implies a panic");
        }
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("{name}: hung past {secs}s watchdog"),
    }
}

/// One scheduled request as the in-process trace replay takes it: writes
/// carry the schedule's seeded payload, nothing carries a deadline.
pub fn service_request(r: &ScheduledRequest, block_bytes: usize) -> ServiceRequest {
    ServiceRequest {
        addr: r.addr,
        op: r.op,
        data: match r.op {
            Op::Write => zipf::write_payload(r.addr, r.tag, block_bytes),
            Op::Read => Vec::new(),
        },
        arrival_ps: r.arrival_ps,
        deadline_ps: None,
        tag: r.tag,
    }
}
