//! The six workloads and the inputs each makes from `--seed`.
//!
//! Geometry is always `SystemConfig::fast_test()` / `ServiceConfig::
//! fast_test()` (L = 15, Z = 4, 64 B blocks, 2^16 data blocks, two
//! DDR3-1600 channels). The crates only ever see the generated inputs.

use fp_core::engine::{by_name, Scheme};
use fp_net::NetConfig;
use fp_path_oram::Op;
use fp_service::ServiceConfig;
use fp_sim::SystemConfig;
use fp_workloads::cpu::{untag_addr, MultiCoreWorkload};
use fp_workloads::mixes::{self, Mix};
use fp_workloads::service::ServiceClientPool;
use fp_workloads::zipf::{self, ScheduledRequest, ZipfConfig};

/// Default workload seed (the lineage of `BENCH_perf.json`). `0xB10C` is
/// the held-out seed later claims must also hold on.
pub const DEFAULT_SEED: u64 = 0x9A7E;

/// In-flight window of the one wire client (closed loop).
pub const WIRE_WINDOW: usize = 16;

/// What a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `fp_sim::run_workload` on a registry scheme, single-threaded.
    Sim { scheme: &'static str, real: bool },
    /// `OramService::run_closed_loop`, 2 shard workers, no sockets.
    Svc,
    /// `NetServer` on loopback + one `NetClient`, 1 shard.
    Wire { hot_rw: bool },
}

/// One benchmark workload. Names are fixed: later issues cite them.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub kind: Kind,
}

pub const WORKLOADS: [Spec; 6] = [
    Spec {
        name: "sim_fork_mac",
        kind: Kind::Sim {
            scheme: "fork+mac",
            real: false,
        },
    },
    Spec {
        name: "sim_fork_mac_real",
        kind: Kind::Sim {
            scheme: "fork+mac",
            real: true,
        },
    },
    Spec {
        name: "sim_traditional",
        kind: Kind::Sim {
            scheme: "traditional",
            real: false,
        },
    },
    Spec {
        name: "svc_closed",
        kind: Kind::Svc,
    },
    Spec {
        name: "wire_uniform",
        kind: Kind::Wire { hot_rw: false },
    },
    Spec {
        name: "wire_zipf_rw",
        kind: Kind::Wire { hot_rw: true },
    },
];

/// Request counts of one repetition. `scale` divides them (`--smoke`
/// runs at one tenth).
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub scale: u64,
}

impl Sizes {
    /// LLC misses per core of the `sim_*` workloads (4 cores).
    pub fn misses_per_core(self) -> u64 {
        750 / self.scale
    }

    /// Closed-loop budget of `svc_closed`.
    pub fn svc_requests(self) -> u64 {
        6_000 / self.scale
    }

    /// Schedule length of a `wire_*` workload.
    pub fn wire_requests(self, hot_rw: bool) -> u64 {
        (if hot_rw { 4_000 } else { 3_000 }) / self.scale
    }

    /// Requests of the stack replay (a prefix of the workload's stream).
    pub fn replay_requests(self) -> usize {
        (3_000 / self.scale) as usize
    }
}

/// Table 2's Mix1 shrunk to the fast-test tree: 4096 blocks per program,
/// still far larger than every on-chip structure.
pub fn mix1() -> Mix {
    let mut mix = mixes::all()[0].clone();
    for p in &mut mix.programs {
        p.working_set_blocks = 1 << 12;
    }
    mix
}

pub fn scheme(name: &str) -> Scheme {
    by_name(name).expect("workload schemes come from the engine registry")
}

pub fn sim_config(seed: u64, real: bool) -> SystemConfig {
    let mut cfg = SystemConfig::fast_test();
    cfg.seed = seed;
    if real {
        cfg = cfg.with_real_crypto();
    }
    cfg
}

pub fn sim_workload(seed: u64, misses_per_core: u64) -> MultiCoreWorkload {
    MultiCoreWorkload::from_mix(&mix1(), misses_per_core, seed ^ 0x5eed)
}

pub fn svc_config(seed: u64, shards: usize) -> ServiceConfig {
    let mut cfg = ServiceConfig::fast_test(shards);
    cfg.seed = seed;
    cfg
}

/// The client pool `OramService::run_closed_loop` builds for `shard`.
pub fn svc_pool(cfg: &ServiceConfig, shard: usize, budget: u64) -> ServiceClientPool {
    ServiceClientPool::from_profiles(
        &mix1().programs,
        cfg.shard_blocks(),
        budget,
        cfg.shard_seed(shard) ^ 0xC1EE_7C1E_E7C1_EE7C,
    )
}

/// One shard behind one connection; the shard queue holds the client's
/// whole window, so `Busy` cannot occur.
pub fn net_config(seed: u64) -> NetConfig {
    NetConfig {
        service: svc_config(seed, 1),
        port: 0,
        max_connections: 2,
        max_inflight_per_conn: WIRE_WINDOW,
        drain_wait_ms: 5_000,
    }
}

pub fn wire_schedule(seed: u64, hot_rw: bool, requests: u64) -> Vec<ScheduledRequest> {
    let cfg = ServiceConfig::fast_test(1);
    let (blocks, bytes) = (cfg.oram.data_blocks, cfg.oram.block_bytes);
    let seed = seed ^ 0x5C4E_D01E;
    let zc = if hot_rw {
        ZipfConfig {
            write_fraction: 0.5,
            ..ZipfConfig::hot(blocks, requests, bytes, seed)
        }
    } else {
        ZipfConfig::uniform(blocks, requests, bytes, seed)
    };
    zipf::generate(&zc)
}

/// FNV-1a over the first requests a workload's generator produces for
/// `seed` — the "different seed, different inputs" check. Reactive
/// generators are fed a fixed 1 us completion latency.
pub fn fingerprint(spec: &Spec, seed: u64) -> u64 {
    const N: usize = 512;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |addr: u64, op: Op| {
        for b in addr.to_le_bytes().into_iter().chain([op as u8]) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    match spec.kind {
        Kind::Sim { .. } => {
            let mut wl = sim_workload(seed, N as u64);
            for _ in 0..N {
                let t = wl.next_issue_time().expect("budget covers N issues");
                let (tagged, op) = wl.issue_at(t).expect("issueable");
                mix(untag_addr(tagged), op);
                wl.complete(tagged, t + 1_000_000);
            }
        }
        Kind::Svc => {
            let mut pool = svc_pool(&svc_config(seed, 2), 0, N as u64);
            let mut queue = pool.initial_burst();
            while let Some(r) = queue.pop() {
                mix(r.addr, r.op);
                queue.extend(pool.on_complete(r.client, r.arrival_ps + 1_000_000));
            }
        }
        Kind::Wire { hot_rw } => {
            for r in wire_schedule(seed, hot_rw, N as u64) {
                mix(r.addr, r.op);
            }
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprints_repeat_per_seed_and_differ_across_seeds() {
        for spec in &WORKLOADS {
            let a = fingerprint(spec, DEFAULT_SEED);
            assert_eq!(a, fingerprint(spec, DEFAULT_SEED), "{}", spec.name);
            assert_ne!(a, fingerprint(spec, DEFAULT_SEED ^ 1), "{}", spec.name);
        }
    }

    #[test]
    fn workload_names_are_unique() {
        let mut names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), WORKLOADS.len());
    }
}
