//! Fixtures shared by the service-level suites (`service_level.rs`,
//! `net_level.rs`, `fault_tolerance.rs`).

// Each suite compiles its own copy and none uses every item.
#![allow(dead_code)]

use std::sync::mpsc;
use std::time::Duration;

use fork_path_oram::path_oram::Op;
use fork_path_oram::service::{ServiceConfig, ServiceRequest};
use fork_path_oram::workloads::zipf::{self, ScheduledRequest};

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
