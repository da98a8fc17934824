//! Fixtures shared by the service-level suites (`service_level.rs`,
//! `net_level.rs`, `fault_tolerance.rs`).

// Each suite compiles its own copy and none uses every item.
#![allow(dead_code)]

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
