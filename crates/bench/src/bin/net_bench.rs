//! Wire-level load harness for the network front end (`fp-net`).
//!
//! Replays the seeded `fp-workloads` schedules (uniform and Zipf-hot)
//! over a real loopback socket: one `NetServer` in front of the sharded
//! service, `K` pipelined client connections, each replaying its slice of
//! the schedule with a bounded in-flight window. Unlike `service_bench`
//! (in-process, simulated-clock), the headline numbers here are
//! *wall-clock* — the cost of framing, socket hops, and thread handoffs
//! is exactly what this harness exists to measure.
//!
//! The schedule is partitioned across connections by `addr % K`, so every
//! address is owned by exactly one client and per-address request order
//! is preserved end to end. With deadlines off and the shard queues sized
//! to the total possible in-flight window (`K * window`), backpressure is
//! structurally impossible — every request must complete `Ok`, and the
//! harness asserts a closed ledger: responses received == requests sent ==
//! service completions == service admissions.
//!
//! `--verify` (implied by `--smoke`) additionally replays the same
//! schedule through the in-process `OramService::run_trace` and asserts
//! the per-tag `{status, data}` pairs are identical over the wire — the
//! socket boundary must be semantically invisible.
//!
//! Usage: `net_bench [--smoke] [--requests <per-workload>] [--conns <K>]
//!         [--window <W>] [--shards <N>] [--coalesce] [--verify]
//!         [--seed <n>] [--out <path>]`
//!
//! The JSON report is validated with `fp_stats::json::validate` before
//! being written (default `results/BENCH_net.json`). See EXPERIMENTS.md
//! ("Network front end") for the schema.

#![forbid(unsafe_code)]
#![allow(clippy::disallowed_methods)] // wall-clock measurement is this harness's purpose

use std::collections::HashMap;
use std::time::Instant;

use fp_net::{NetClient, NetConfig, NetServer, WireOp, WireRequest, WireStatus};
use fp_path_oram::Op;
use fp_service::{OramService, ServiceConfig, ServiceRequest};
use fp_stats::json::{self, JsonObject};
use fp_workloads::zipf::{self, ScheduledRequest, ZipfConfig};

/// Fixed harness seed (decorrelated from the other benches' seeds).
const BENCH_SEED: u64 = 0x2E7B_E4C4;

struct Args {
    requests: u64,
    conns: usize,
    window: usize,
    shards: usize,
    coalesce: bool,
    verify: bool,
    seed: u64,
    out_path: String,
    mode: &'static str,
    smoke: bool,
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| argv.iter().any(|a| a == name);
    let value = |name: &str| {
        argv.iter()
            .position(|a| a == name)
            .and_then(|i| argv.get(i + 1).cloned())
    };
    let smoke = flag("--smoke");
    let mode = if smoke { "smoke" } else { "full" };
    Args {
        requests: value("--requests")
            .map(|s| s.parse().expect("--requests takes a number"))
            .unwrap_or(if smoke { 2_000 } else { 20_000 }),
        conns: value("--conns")
            .map(|s| s.parse().expect("--conns takes a number"))
            .unwrap_or(4),
        window: value("--window")
            .map(|s| s.parse().expect("--window takes a number"))
            .unwrap_or(16),
        shards: value("--shards")
            .map(|s| s.parse().expect("--shards takes a number"))
            .unwrap_or(if smoke { 2 } else { 4 }),
        coalesce: flag("--coalesce"),
        verify: smoke || flag("--verify"),
        seed: value("--seed")
            .map(|s| s.parse().expect("--seed takes a number"))
            .unwrap_or(BENCH_SEED),
        out_path: value("--out").unwrap_or_else(|| "results/BENCH_net.json".to_string()),
        mode,
        smoke,
    }
}

fn net_config(args: &Args) -> NetConfig {
    let mut service = ServiceConfig::fast_test(args.shards);
    service.seed = args.seed;
    service.coalesce = args.coalesce;
    if args.smoke {
        // Smaller global tree so tier-1 stays in low seconds.
        service.oram.data_blocks = 1 << 12;
        service.oram.levels = 11;
        service.oram.onchip_posmap_entries = 1 << 6;
    }
    // Make Busy structurally impossible: every connection's full window
    // fits in each shard queue simultaneously.
    service.queue_depth = service.queue_depth.max(args.conns * args.window);
    NetConfig {
        service,
        port: 0,
        max_connections: args.conns + 1,
        max_inflight_per_conn: args.window,
        drain_wait_ms: 5_000,
    }
}

/// One workload's seeded schedule over the configured address space.
fn schedule(args: &Args, cfg: &ServiceConfig, workload: &str) -> Vec<ScheduledRequest> {
    let blocks = cfg.oram.data_blocks;
    let bytes = cfg.oram.block_bytes;
    let seed = args.seed ^ 0x5C4E_D01E;
    let zc = match workload {
        "uniform" => ZipfConfig::uniform(blocks, args.requests, bytes, seed),
        "zipf-hot" => ZipfConfig::hot(blocks, args.requests, bytes, seed),
        other => panic!("unknown workload {other}"),
    };
    zipf::generate(&zc)
}

fn wire_request(r: &ScheduledRequest, block_bytes: usize) -> WireRequest {
    let (op, payload) = match r.op {
        Op::Read => (WireOp::Read, Vec::new()),
        Op::Write => (
            WireOp::Write,
            zipf::write_payload(r.addr, r.tag, block_bytes),
        ),
    };
    WireRequest {
        tag: r.tag,
        op,
        addr: r.addr,
        deadline_rel_ns: 0,
        payload,
    }
}

/// What one client thread brings home.
struct ClientOutcome {
    /// tag -> (status, data) for every response received.
    responses: HashMap<u64, (WireStatus, Vec<u8>)>,
    /// Wall round-trip time per response, nanoseconds.
    rtt_ns: Vec<u64>,
    bytes_out: u64,
    bytes_in: u64,
    frames_out: u64,
    frames_in: u64,
}

/// Replays `slice` through one pipelined connection, timing every
/// round trip.
fn run_client(
    addr: std::net::SocketAddr,
    window: usize,
    slice: &[ScheduledRequest],
    block_bytes: usize,
) -> ClientOutcome {
    let mut client = NetClient::connect(addr, window).expect("client connect");
    let mut submitted: HashMap<u64, Instant> = HashMap::with_capacity(window * 2);
    let mut out = ClientOutcome {
        responses: HashMap::with_capacity(slice.len()),
        rtt_ns: Vec::with_capacity(slice.len()),
        bytes_out: 0,
        bytes_in: 0,
        frames_out: 0,
        frames_in: 0,
    };
    let mut absorb = |resp: fp_net::WireResponse, submitted: &mut HashMap<u64, Instant>| {
        if let Some(t0) = submitted.remove(&resp.tag) {
            out.rtt_ns.push(t0.elapsed().as_nanos() as u64);
        }
        out.responses.insert(resp.tag, (resp.status, resp.data));
    };
    for r in slice {
        // submit() blocks (pumping) while the window is full; harvest
        // whatever arrived afterwards so RTTs are timely.
        submitted.insert(r.tag, Instant::now());
        client
            .submit(wire_request(r, block_bytes))
            .expect("submit over loopback");
        while client.ready() > 0 {
            absorb(client.recv().expect("recv"), &mut submitted);
        }
    }
    for resp in client.drain().expect("drain") {
        absorb(resp, &mut submitted);
    }
    out.bytes_out = client.bytes_out();
    out.bytes_in = client.bytes_in();
    out.frames_out = client.frames_out();
    out.frames_in = client.frames_in();
    out
}

/// Percentile of a sorted sample set (nearest-rank).
fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
}

/// Replays the same schedule in-process and asserts per-tag `{status,
/// data}` equality with the wire run.
fn verify_against_trace(
    cfg: &ServiceConfig,
    sched: &[ScheduledRequest],
    wire: &HashMap<u64, (WireStatus, Vec<u8>)>,
) {
    let requests: Vec<ServiceRequest> = sched
        .iter()
        .map(|r| {
            let data = match r.op {
                Op::Write => zipf::write_payload(r.addr, r.tag, cfg.oram.block_bytes),
                Op::Read => Vec::new(),
            };
            ServiceRequest {
                addr: r.addr,
                op: r.op,
                data,
                arrival_ps: r.arrival_ps,
                deadline_ps: None,
                tag: r.tag,
            }
        })
        .collect();
    let ops: HashMap<u64, Op> = sched.iter().map(|r| (r.tag, r.op)).collect();
    let (_, completions) =
        OramService::run_trace(cfg.clone(), requests).expect("in-process replay");
    assert_eq!(completions.len(), wire.len(), "completion count mismatch");
    let mut diverged = 0u64;
    for c in completions {
        let (status, data) = wire
            .get(&c.tag)
            .unwrap_or_else(|| panic!("tag {} missing from the wire run", c.tag));
        assert_eq!(
            *status,
            WireStatus::Ok,
            "tag {}: wire status {} != ok",
            c.tag,
            status.name()
        );
        assert_eq!(
            c.status.name(),
            "ok",
            "tag {}: trace status {} != ok",
            c.tag,
            c.status.name()
        );
        match ops[&c.tag] {
            // Read data is pacing-independent (same-address ops apply in
            // program order), so wire and replay must agree byte for byte.
            Op::Read => {
                if data != &c.data {
                    let dec = |d: &[u8]| {
                        if d.len() >= 16 {
                            (
                                u64::from_le_bytes(d[0..8].try_into().unwrap()),
                                u64::from_le_bytes(d[8..16].try_into().unwrap()),
                            )
                        } else {
                            (0, 0)
                        }
                    };
                    let (wa, wt) = dec(data);
                    let (ra, rt) = dec(&c.data);
                    eprintln!(
                        "DIVERGE tag {} addr {}: wire payload (addr {wa}, tag {wt}) \
                         vs replay (addr {ra}, tag {rt})",
                        c.tag, c.addr
                    );
                    diverged += 1;
                }
            }
            // Write acks are payload-free on the wire; the replay's
            // pre-write echo depends on in-flight interleaving.
            Op::Write => assert!(
                data.is_empty(),
                "tag {}: write ack carried {} payload bytes",
                c.tag,
                data.len()
            ),
        }
    }
    assert_eq!(diverged, 0, "{diverged} reads diverged from the replay");
}

/// Runs one workload end to end and returns its JSON row.
fn run_workload(args: &Args, workload: &str) -> String {
    let cfg = net_config(args);
    let sched = schedule(args, &cfg.service, workload);
    let block_bytes = cfg.service.oram.block_bytes;
    let service_cfg = cfg.service.clone();

    let server = NetServer::start(cfg).expect("server start");
    let addr = server.local_addr();

    // Partition by address so each address is owned by one connection and
    // per-address order survives the fan-out.
    let slices: Vec<Vec<ScheduledRequest>> = (0..args.conns as u64)
        .map(|c| {
            sched
                .iter()
                .filter(|r| r.addr % args.conns as u64 == c)
                .cloned()
                .collect()
        })
        .collect();

    let t0 = Instant::now();
    let outcomes: Vec<ClientOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = slices
            .iter()
            .map(|slice| scope.spawn(|| run_client(addr, args.window, slice, block_bytes)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall_ns = t0.elapsed().as_nanos() as u64;

    server.shutdown();
    let report = server.join().expect("server join");
    assert!(
        report.failures.is_empty(),
        "shards died: {:?}",
        report.failures
    );

    // Fold the client views together.
    let mut responses: HashMap<u64, (WireStatus, Vec<u8>)> = HashMap::new();
    let mut rtt: Vec<u64> = Vec::new();
    let (mut c_bytes_out, mut c_bytes_in, mut c_frames_out, mut c_frames_in) = (0, 0, 0, 0);
    for o in outcomes {
        responses.extend(o.responses);
        rtt.extend(o.rtt_ns);
        c_bytes_out += o.bytes_out;
        c_bytes_in += o.bytes_in;
        c_frames_out += o.frames_out;
        c_frames_in += o.frames_in;
    }
    rtt.sort_unstable();

    // Closed ledger: nothing lost or invented anywhere along the path.
    assert_eq!(
        responses.len() as u64,
        args.requests,
        "responses != requests"
    );
    let mut status_counts: HashMap<&'static str, u64> = HashMap::new();
    for (status, _) in responses.values() {
        *status_counts.entry(status.name()).or_default() += 1;
    }
    assert_eq!(
        status_counts.get("ok").copied().unwrap_or(0),
        args.requests,
        "backpressure/deadlines are off, every request must complete ok; got {status_counts:?}"
    );
    assert_eq!(
        report.stats.completed(),
        report.stats.admitted(),
        "service ledger must close"
    );
    assert!(
        report.net_counter(fp_trace::Counter::NetWireBytesIn) > 0
            && report.net_counter(fp_trace::Counter::NetWireBytesOut) > 0
            && report.net_counter(fp_trace::Counter::NetFramesIn) > 0,
        "wire counters must be live"
    );

    if args.verify {
        verify_against_trace(&service_cfg, &sched, &responses);
    }

    let p50 = percentile(&rtt, 50.0);
    let p99 = percentile(&rtt, 99.0);
    let wall_rps = args.requests as f64 / (wall_ns.max(1) as f64 / 1e9);
    println!(
        "{:<10} {:>8} {:>6} {:>7} {:>11.0} {:>10.1} {:>10.1} {:>12} {:>12}",
        workload,
        args.requests,
        args.conns,
        args.window,
        wall_rps,
        p50 as f64 / 1e3,
        p99 as f64 / 1e3,
        c_bytes_out,
        c_bytes_in,
    );

    let statuses = {
        let mut o = JsonObject::new();
        let mut names: Vec<_> = status_counts.iter().collect();
        names.sort();
        for (name, count) in names {
            o.field_u64(name, *count);
        }
        o.finish()
    };
    JsonObject::new()
        .field_str("workload", workload)
        .field_u64("requests", args.requests)
        .field_u64("wall_ns", wall_ns)
        .field_f64("wall_requests_per_sec", wall_rps)
        .field_u64("rtt_p50_ns", p50)
        .field_u64("rtt_p99_ns", p99)
        .field_raw("statuses", &statuses)
        .field_u64("client_bytes_out", c_bytes_out)
        .field_u64("client_bytes_in", c_bytes_in)
        .field_u64("client_frames_out", c_frames_out)
        .field_u64("client_frames_in", c_frames_in)
        .field_bool("verified_against_trace", args.verify)
        .field_raw("net", &report.net_json())
        .field_raw("service", &report.stats.to_json())
        .finish()
}

fn main() {
    let args = parse_args();
    println!(
        "== net_bench ({}, shards={}, conns={}, window={}, coalesce={}, verify={}) ==",
        args.mode, args.shards, args.conns, args.window, args.coalesce, args.verify
    );
    println!(
        "{:<10} {:>8} {:>6} {:>7} {:>11} {:>10} {:>10} {:>12} {:>12}",
        "workload",
        "requests",
        "conns",
        "window",
        "wall_req/s",
        "p50_us",
        "p99_us",
        "bytes_out",
        "bytes_in"
    );
    let rows: Vec<String> = ["uniform", "zipf-hot"]
        .iter()
        .map(|w| run_workload(&args, w))
        .collect();
    let report = JsonObject::new()
        .field_str("bench", "net_bench")
        .field_str("mode", args.mode)
        .field_u64("seed", args.seed)
        .field_u64("requests_per_workload", args.requests)
        .field_u64("connections", args.conns as u64)
        .field_u64("window", args.window as u64)
        .field_u64("shards", args.shards as u64)
        .field_bool("coalesce", args.coalesce)
        .field_raw("runs", &json::array(rows))
        .finish();
    json::validate(&report).expect("net_bench emitted invalid JSON");
    if let Some(dir) = std::path::Path::new(&args.out_path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create output directory");
        }
    }
    std::fs::write(&args.out_path, format!("{report}\n")).expect("write net report");
    println!("report written to {}", args.out_path);
}
