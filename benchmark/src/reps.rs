//! One repetition of a workload, driven the way a user of the system
//! drives it: `fp_sim::run_workload`, `OramService::run_closed_loop`, or a
//! `NetClient` against a `NetServer` on loopback.
//!
//! Every repetition builds a fresh engine / service / server: tree, stash
//! and MAC start empty, as in the figure binaries. Set-up (everything
//! before the first request is submitted) is timed apart from the
//! measured region and repeated (see [`repeat_setup`]) so its median is
//! steady.

use std::time::Instant;

use fp_dram::DramSystem;
use fp_net::{NetClient, NetReport, NetServer, WireOp, WireRequest, WireResponse, WireStatus};
use fp_path_oram::Op;
use fp_service::{OramService, ServeError, ServiceStats, ShardEngine, ShardHealth};
use fp_sim::run_workload;
use fp_trace::Counter;
use fp_workloads::zipf::ScheduledRequest;

use crate::drive::SimMetrics;
use crate::inputs::{self, Kind, Sizes, Spec};
use crate::layers::Row;
use crate::oracle::{payload, Checked, Oracle};
use crate::stats::cpu_ticks;

/// Timed set-ups per repetition, at least (the last one is the one used).
pub const SETUPS_PER_REP: usize = 8;

/// Times `set_up` [`SETUPS_PER_REP`] times — and on, up to 256 times, until
/// a millisecond has been timed, so that microsecond set-ups give a steady
/// median too. Every product but the last goes to `discard`, off the clock.
fn repeat_setup<T>(mut set_up: impl FnMut() -> T, mut discard: impl FnMut(T)) -> (Vec<f64>, T) {
    let mut setup_s = Vec::new();
    let mut timed = 0.0;
    loop {
        let t = Instant::now();
        let product = set_up();
        let s = t.elapsed().as_secs_f64();
        setup_s.push(s);
        timed += s;
        let enough = setup_s.len() >= SETUPS_PER_REP && (timed >= 1e-3 || setup_s.len() >= 256);
        if enough {
            return (setup_s, product);
        }
        discard(product);
    }
}

/// What the wire client saw in the measured region.
pub struct WireSide {
    /// Client-side round trips, ascending, ns.
    pub rtt_ns: Vec<u64>,
    /// Bytes on the wire, both directions.
    pub wire_bytes: u64,
    /// Process `(user, system)` CPU ticks spent in the measured region.
    pub cpu_ticks: (u64, u64),
}

/// One repetition's measurements and verification outcome.
pub struct Rep {
    /// One sample per set-up, seconds.
    pub setup_s: Vec<f64>,
    /// Measured region, host seconds.
    pub wall_s: f64,
    pub requests: u64,
    pub accesses: u64,
    pub checked: Checked,
    /// Simulated-clock results, deterministic for a seed: they must read
    /// the same in every repetition. Empty on `wire_*`, where wall arrival
    /// stamps drive the simulated clock.
    pub pins: Vec<Row>,
    pub wire: Option<WireSide>,
    pub service: Option<ServiceStats>,
}

/// Runs one repetition of `spec`.
pub fn run_rep(spec: &Spec, seed: u64, sizes: Sizes) -> Rep {
    match spec.kind {
        Kind::Sim { scheme, real } => sim_rep(scheme, real, seed, sizes),
        Kind::Svc => svc_rep(seed, sizes),
        Kind::Wire { hot_rw } => wire_rep(seed, || {
            inputs::wire_schedule(seed, hot_rw, sizes.wire_requests(hot_rw))
        }),
    }
}

fn sim_rep(scheme: &str, real: bool, seed: u64, sizes: Sizes) -> Rep {
    let scheme = inputs::scheme(scheme);
    let (setup_s, (cfg, wl, _)) = repeat_setup(
        || {
            let cfg = inputs::sim_config(seed, real);
            let wl = inputs::sim_workload(seed, sizes.misses_per_core());
            // `run_workload` builds its engine inside the measured region;
            // the same public constructor is timed here so that work moved
            // into engine construction shows as set-up.
            let engine = scheme.build(cfg.oram.clone(), DramSystem::new(cfg.dram.clone()), seed);
            (cfg, wl, engine)
        },
        drop,
    );

    let t = Instant::now();
    let r = run_workload(&cfg, scheme, wl);
    let wall_s = t.elapsed().as_secs_f64();

    Rep {
        setup_s,
        wall_s,
        requests: r.llc_requests,
        accesses: r.oram_accesses,
        // `run_workload` returns no payloads: the oracle check of this
        // stream runs in the benchmark's own driver (see `run.rs`), and
        // this repetition must reproduce that run's simulated results.
        checked: Checked {
            attempted: r.llc_requests,
            ..Checked::default()
        },
        pins: SimMetrics::new(
            r.oram_latency_ns,
            r.exec_time_ps,
            r.avg_path_len,
            r.oram_accesses,
            r.llc_requests,
            r.energy.total_pj(),
        )
        .rows()
        .to_vec(),
        wire: None,
        service: None,
    }
}

fn svc_rep(seed: u64, sizes: Sizes) -> Rep {
    const SHARDS: usize = 2;
    let budget = sizes.svc_requests();
    let (setup_s, _) = repeat_setup(
        || {
            let cfg = inputs::svc_config(seed, SHARDS);
            cfg.validate().expect("fast_test service config is valid");
            // What `run_closed_loop` builds before its first request.
            (0..SHARDS)
                .map(|shard| {
                    (
                        ShardEngine::new(&cfg, shard),
                        inputs::svc_pool(&cfg, shard, budget / SHARDS as u64),
                    )
                })
                .collect::<Vec<_>>()
        },
        drop,
    );

    let cfg = inputs::svc_config(seed, SHARDS);
    let t = Instant::now();
    let outcome = OramService::run_closed_loop(cfg, &inputs::mix1().programs, budget);
    let wall_s = t.elapsed().as_secs_f64();

    // `run_closed_loop` returns no payloads, so the check is the ledger:
    // every request completed, none expired or was refused, every shard
    // healthy. (The stream's data is oracle-checked at engine level.)
    let mut failures = Vec::new();
    let stats = match outcome {
        Ok(stats) => stats,
        Err(ServeError::Shards {
            failures: dead,
            stats,
        }) => {
            failures.push(format!("shards died: {dead:?}"));
            *stats
        }
        Err(e) => panic!("svc_closed could not start: {e}"),
    };
    if stats.expired() + stats.rejected_busy() > 0 {
        failures.push(format!(
            "expired {} rejected_busy {}",
            stats.expired(),
            stats.rejected_busy()
        ));
    }
    let healthy = stats.shards_with_health(ShardHealth::Healthy);
    if healthy != SHARDS {
        failures.push(format!("{healthy} of {SHARDS} shards healthy"));
    }
    let mut failed = budget.saturating_sub(stats.completed());
    if failed == 0 && !failures.is_empty() {
        failed = 1;
    }
    let completed = stats.completed().max(1) as f64;
    Rep {
        setup_s,
        wall_s,
        requests: stats.completed(),
        accesses: stats.oram_accesses(),
        checked: Checked {
            attempted: budget,
            failed,
            failures,
        },
        // Path length and energy are not exposed by `ServiceStats`; the
        // engine-level run reports them for this stream.
        pins: vec![
            ("sim_latency_ns_per_req", stats.latency.mean() / 1e3, "ns"),
            (
                "sim_exec_ns_per_req",
                stats.sim_finish_ps() as f64 / 1e3 / completed,
                "ns",
            ),
            (
                "sim_accesses_per_req",
                stats.oram_accesses() as f64 / completed,
                "ratio",
            ),
        ],
        wire: None,
        service: Some(stats),
    }
}

fn wire_request(r: &ScheduledRequest, block_bytes: usize) -> WireRequest {
    WireRequest {
        tag: r.tag,
        op: match r.op {
            Op::Read => WireOp::Read,
            Op::Write => WireOp::Write,
        },
        addr: r.addr,
        deadline_rel_ns: 0,
        payload: payload(r.addr, r.tag, r.op, block_bytes),
    }
}

/// One repetition over the wire: a 1-shard `NetServer`, one `NetClient`
/// on one connection with [`inputs::WIRE_WINDOW`] requests in flight (closed
/// loop). `make_schedule` is part of set-up; tags must be `0..n` in order.
pub fn wire_rep(seed: u64, make_schedule: impl Fn() -> Vec<ScheduledRequest>) -> Rep {
    let stop = |client: NetClient, server: NetServer| -> NetReport {
        drop(client);
        server.shutdown();
        server.join().expect("server join")
    };
    let (setup_s, (schedule, mut client, server, requests)) = repeat_setup(
        || {
            let schedule = make_schedule();
            let cfg = inputs::net_config(seed);
            let block_bytes = cfg.service.oram.block_bytes;
            let requests: Vec<WireRequest> = schedule
                .iter()
                .map(|r| wire_request(r, block_bytes))
                .collect();
            let server = NetServer::start(cfg).expect("server start");
            let client =
                NetClient::connect(server.local_addr(), inputs::WIRE_WINDOW).expect("connect");
            (schedule, client, server, requests)
        },
        |(_, client, server, _)| {
            stop(client, server);
        },
    );
    let n = requests.len();

    let mut sent_ns = vec![0u64; n];
    let mut rtt_ns = Vec::with_capacity(n);
    let mut replies: Vec<WireResponse> = Vec::with_capacity(n);
    let cpu0 = cpu_ticks();
    let origin = Instant::now();
    let mut absorb = |resp: WireResponse, sent_ns: &[u64]| {
        let now = origin.elapsed().as_nanos() as u64;
        if let Some(&sent) = sent_ns.get(resp.tag as usize) {
            rtt_ns.push(now - sent);
        }
        replies.push(resp);
    };
    for req in requests {
        let tag = req.tag as usize;
        // submit() first waits (reading replies) for room in the window;
        // the round trip starts when the frame has been written.
        client.submit(req).expect("submit over loopback");
        sent_ns[tag] = origin.elapsed().as_nanos() as u64;
        while client.ready() > 0 {
            absorb(client.recv().expect("recv"), &sent_ns);
        }
    }
    for resp in client.drain().expect("drain") {
        absorb(resp, &sent_ns);
    }
    let wall_s = origin.elapsed().as_secs_f64();
    let cpu1 = cpu_ticks();
    let wire_bytes = client.bytes_out() + client.bytes_in();
    let report = stop(client, server);

    // Oracle: expectations in submission order, then every reply by tag.
    let block_bytes = inputs::net_config(seed).service.oram.block_bytes;
    let mut oracle = Oracle::expecting(&schedule, block_bytes);
    for resp in &replies {
        if resp.status == WireStatus::Ok {
            oracle.on_reply(resp.tag, &resp.data);
        } else {
            oracle.on_error(
                resp.tag,
                format!("tag {}: status {}", resp.tag, resp.status.name()),
            );
        }
    }
    // Ledger: replies = requests = service completed = admitted.
    let stats = &report.stats;
    if !report.failures.is_empty() {
        oracle.fail(format!("shards died: {:?}", report.failures));
    }
    if stats.completed() != n as u64 || stats.admitted() != n as u64 {
        oracle.fail(format!(
            "ledger open: {n} requests, admitted {}, completed {}",
            stats.admitted(),
            stats.completed()
        ));
    }
    let protocol_errors = report.net_counter(Counter::NetProtocolErrors);
    if protocol_errors > 0 {
        oracle.fail(format!("{protocol_errors} net protocol errors"));
    }

    rtt_ns.sort_unstable();
    Rep {
        setup_s,
        wall_s,
        requests: replies.len() as u64,
        accesses: stats.oram_accesses(),
        checked: oracle.finish(),
        pins: Vec::new(),
        wire: Some(WireSide {
            rtt_ns,
            wire_bytes,
            cpu_ticks: (cpu1.0 - cpu0.0, cpu1.1 - cpu0.1),
        }),
        service: Some(report.stats),
    }
}
