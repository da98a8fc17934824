//! Loopback integration tests for the network front end (`fp-net`): real
//! sockets, pipelined clients, and the sharded service behind them.
//!
//! The headline property: the socket boundary must be semantically
//! invisible. Every request answered over the wire must carry the same
//! `{status, data}` the in-process [`OramService::run_trace`] replay
//! produces for the same tag — reads byte-for-byte (same-address operations
//! apply in program order, so read data is pacing-independent), writes as
//! payload-free acks.

// Watchdog deadlines only: a livelock fails the test instead of hanging
// CI; no wall time reaches a simulated measurement.
#![allow(clippy::disallowed_methods)]

mod common;

use std::collections::HashMap;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};

use common::{service_request, small_cfg, with_watchdog};
use fork_path_oram::core::FaultConfig;
use fork_path_oram::net::wire::{read_frame, write_frame, MAX_FRAME, VERSION};
use fork_path_oram::net::{
    Frame, NetClient, NetConfig, NetError, NetServer, WireOp, WireRequest, WireResponse, WireStatus,
};
use fork_path_oram::path_oram::Op;
use fork_path_oram::propcheck::{run_cases, Gen};
use fork_path_oram::service::{OramService, ServiceConfig, ServiceRequest, ShardHealth};
use fork_path_oram::trace::Counter;
use fork_path_oram::workloads::zipf::{self, ScheduledRequest, ZipfConfig};

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

/// Replays `slice` through one pipelined connection and returns
/// tag -> (status, data) for every response.
fn run_client(
    addr: std::net::SocketAddr,
    window: usize,
    slice: &[ScheduledRequest],
    block_bytes: usize,
) -> HashMap<u64, (WireStatus, Vec<u8>)> {
    let mut client = NetClient::connect(addr, window).expect("client connect");
    let mut out = HashMap::with_capacity(slice.len());
    for r in slice {
        client.submit(wire_request(r, block_bytes)).expect("submit");
        while client.ready() > 0 {
            let resp = client.recv().expect("recv");
            out.insert(resp.tag, (resp.status, resp.data));
        }
    }
    for resp in client.drain().expect("drain") {
        out.insert(resp.tag, (resp.status, resp.data));
    }
    out
}

// ---------- wire/in-process equivalence ------------------------------

/// N pipelined clients against a 4-shard server over loopback: the wire
/// run's per-tag `{status, data}` must match the in-process trace replay
/// of the same schedule, the service ledger must close and the wire
/// counters must be live with no protocol error. The cases alternate
/// between the uniform schedule (the serving path itself) and the Zipfian
/// hotspot, whose hot addresses carry long read/write dependency chains —
/// exactly the case where a reordering or stale-forwarding bug in the
/// network plane would surface as divergent read data.
#[test]
fn wire_responses_match_in_process_replay() {
    let mut workloads = [ZipfConfig::uniform, ZipfConfig::hot].into_iter().cycle();
    run_cases("net-loopback-equivalence", 2, |g: &mut Gen| {
        let conns = 1 << g.range(1, 2); // 2 or 4 clients
        let window = g.range_usize(4, 16);
        let service = small_cfg(4);
        let block_bytes = service.oram.block_bytes;
        let workload = workloads.next().expect("cycle never ends");
        let zc = workload(
            service.oram.data_blocks,
            600,
            block_bytes,
            g.below(u64::MAX),
        );
        let sched = zipf::generate(&zc);

        let cfg = NetConfig {
            service: service.clone(),
            port: 0,
            max_connections: conns + 1,
            max_inflight_per_conn: window,
            // Busy must be structurally impossible: every connection's
            // full window fits in each shard queue simultaneously.
            drain_wait_ms: 5_000,
        };
        assert!(cfg.service.queue_depth >= conns * window, "test sizing");

        let server = NetServer::start(cfg).expect("server start");
        let addr = server.local_addr();

        // Partition by address so each address is owned by exactly one
        // connection and per-address program order survives the fan-out.
        let slices: Vec<Vec<ScheduledRequest>> = (0..conns as u64)
            .map(|c| {
                sched
                    .iter()
                    .filter(|r| r.addr % conns as u64 == c)
                    .cloned()
                    .collect()
            })
            .collect();
        let wire: HashMap<u64, (WireStatus, Vec<u8>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = slices
                .iter()
                .map(|slice| scope.spawn(|| run_client(addr, window, slice, block_bytes)))
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("client thread"))
                .collect()
        });

        server.shutdown();
        let report = server.join().expect("server join");
        assert!(
            report.failures.is_empty(),
            "shards died: {:?}",
            report.failures
        );
        assert_eq!(wire.len(), sched.len(), "every request must be answered");
        assert_eq!(
            report.stats.completed(),
            report.stats.admitted(),
            "service ledger must close"
        );
        for live in [
            Counter::NetFramesIn,
            Counter::NetWireBytesIn,
            Counter::NetWireBytesOut,
        ] {
            assert!(report.net_counter(live) > 0, "{} must be live", live.name());
        }
        assert_eq!(report.net_counter(Counter::NetProtocolErrors), 0);

        // The in-process replay of the same schedule.
        let requests: Vec<ServiceRequest> = sched
            .iter()
            .map(|r| service_request(r, block_bytes))
            .collect();
        let (_, completions) = OramService::run_trace(service, requests).expect("replay");
        assert_eq!(
            completions.len(),
            wire.len(),
            "completion counts must agree"
        );
        for c in completions {
            let (status, data) = &wire[&c.tag];
            assert_eq!(c.status.name(), "ok", "replay tag {} not ok", c.tag);
            assert_eq!(*status, WireStatus::Ok, "wire tag {} not ok", c.tag);
            match sched
                .iter()
                .find(|r| r.tag == c.tag)
                .expect("tag in schedule")
                .op
            {
                Op::Read => assert_eq!(data, &c.data, "tag {}: wire read data diverges", c.tag),
                Op::Write => assert!(
                    data.is_empty(),
                    "tag {}: write ack must be payload-free",
                    c.tag
                ),
            }
        }
    });
}

// ---------- fault containment ----------------------------------------

/// A shard killed by deterministic fault injection must not take the
/// server down, and no request may go unanswered or be answered twice.
/// 64 requests alternate between the doomed shard 0 (even tags, address 0)
/// and the survivor (odd tags, address 1), pipelined eight deep, so the
/// dying shard holds accepted requests when it dies: those come back from
/// the shard itself as [`WireStatus::ShardDown`], later ones are refused
/// `ShardDown` at submit. The survivor answers every one of its requests
/// `Ok`. Health is read where it lives, in the stats snapshot: over the
/// wire (`"dead":1`) and in the final report, which also carries the one
/// shard failure and a closed ledger on every shard.
#[test]
fn dead_shard_answers_shard_down_while_survivors_serve() {
    const REQUESTS: u64 = 64;
    with_watchdog("dead-shard-over-the-wire", 60, || {
        let mut service = small_cfg(2);
        service.fault = Some(FaultConfig {
            // Kill shard 0 on its third processed access.
            fail_at_access: Some(2),
            ..FaultConfig::default()
        });
        service.fault_shard = Some(0);
        let server = NetServer::start(NetConfig {
            service,
            port: 0,
            max_connections: 2,
            max_inflight_per_conn: 8,
            drain_wait_ms: 2_000,
        })
        .expect("server start");
        let mut client = NetClient::connect(server.local_addr(), 8).expect("client connect");

        let mut answers: HashMap<u64, WireStatus> = HashMap::new();
        let mut file = |resp: WireResponse| {
            assert!(
                answers.insert(resp.tag, resp.status).is_none(),
                "tag {} answered twice",
                resp.tag
            );
        };
        for tag in 0..REQUESTS {
            client
                .submit(WireRequest {
                    tag,
                    op: WireOp::Read,
                    addr: tag % 2,
                    deadline_rel_ns: 0,
                    payload: Vec::new(),
                })
                .expect("submit");
            while client.ready() > 0 {
                file(client.recv().expect("recv"));
            }
        }
        for resp in client.drain().expect("drain") {
            file(resp);
        }
        assert_eq!(
            answers.len() as u64,
            REQUESTS,
            "every request is answered exactly once"
        );
        let mut shard_down = 0;
        for (tag, status) in &answers {
            match (tag % 2, status) {
                (_, WireStatus::Ok) => {}
                (0, WireStatus::ShardDown) => shard_down += 1,
                _ => panic!("tag {tag}: unexpected status {}", status.name()),
            }
        }
        assert!(shard_down > 0, "the dead shard must answer ShardDown");

        let json = client.stats_json().expect("stats");
        assert_eq!(json_u64(&json, "dead"), 1, "stats report one dead shard");
        assert_eq!(json_u64(&json, "healthy"), 1, "and one healthy shard");

        server.shutdown();
        let report = server.join().expect("server join");
        assert_eq!(
            report.failures.len(),
            1,
            "exactly one shard failure: {:?}",
            report.failures
        );
        assert_eq!(report.failures[0].shard, 0);
        let shards = &report.stats.per_shard;
        assert_eq!(shards[0].health, ShardHealth::Dead);
        assert_eq!(shards[1].health, ShardHealth::Healthy);
        for s in shards {
            let c = &s.counters;
            assert_eq!(
                c.enqueued,
                c.completed + c.expired + c.failed,
                "shard {} ledger open: {c:?}",
                s.shard
            );
        }
    });
}

// ---------- control frames and client edge cases ---------------------

/// A one-shard loopback server for the control-plane tests.
fn control_plane_server() -> NetServer {
    NetServer::start(NetConfig {
        service: small_cfg(1),
        port: 0,
        max_connections: 2,
        max_inflight_per_conn: 8,
        drain_wait_ms: 2_000,
    })
    .expect("server start")
}

fn read_request(tag: u64) -> WireRequest {
    WireRequest {
        tag,
        op: WireOp::Read,
        addr: tag,
        deadline_rel_ns: 0,
        payload: Vec::new(),
    }
}

/// `recv` with nothing buffered and nothing in flight must fail at once:
/// the server owes no frame, so pumping the socket would wait forever.
#[test]
fn recv_with_nothing_in_flight_errors_instead_of_blocking() {
    with_watchdog("recv-nothing-in-flight", 30, || {
        let server = control_plane_server();
        let mut client = NetClient::connect(server.local_addr(), 8).expect("client connect");
        assert!(matches!(client.recv(), Err(NetError::Protocol(_))));

        // Still an error once a served request has been taken.
        client.submit(read_request(1)).expect("submit");
        assert_eq!(client.recv().expect("recv").status, WireStatus::Ok);
        assert!(matches!(client.recv(), Err(NetError::Protocol(_))));

        server.shutdown();
        server.join().expect("server join");
    });
}

/// The value of `"name":<u64>` in a flat-enough JSON text.
fn json_u64(json: &str, name: &str) -> u64 {
    let key = format!("\"{name}\":");
    let at = json.find(&key).unwrap_or_else(|| panic!("{name} missing")) + key.len();
    let digits: String = json[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits
        .parse()
        .unwrap_or_else(|_| panic!("{name} not a number"))
}

/// The two client-sent control frames the data-path tests never send:
/// `StatsReq` answers live, named counters of both planes, and `Shutdown`
/// drains the server on its own — `join` returns with a closed ledger and
/// a later request is refused, never served.
#[test]
fn stats_and_shutdown_frames_are_served() {
    with_watchdog("stats-and-shutdown", 60, || {
        let server = control_plane_server();
        let mut client = NetClient::connect(server.local_addr(), 8).expect("client connect");
        for tag in 0..32 {
            client.submit(read_request(tag)).expect("submit");
        }
        let answered = client.drain().expect("drain");
        assert_eq!(answered.len(), 32);
        assert!(answered.iter().all(|r| r.status == WireStatus::Ok));

        let json = client.stats_json().expect("stats");
        fork_path_oram::stats::json::validate(&json).expect("stats JSON must validate");
        assert!(json.starts_with("{\"net\":{"), "net object first: {json}");
        assert!(json.contains("\"service\":{"), "service object: {json}");
        assert!(json_u64(&json, "net_frames_in") > 32, "requests + control");
        assert_eq!(json_u64(&json, "net_protocol_errors"), 0);
        assert_eq!(json_u64(&json, "requests_completed"), 32);

        client.shutdown_server().expect("shutdown frame");
        // The reader sees this request after the Shutdown frame; it is
        // refused unless the drain closed the socket first (an `Err`).
        if let Ok(resp) = client.submit(read_request(99)).and_then(|()| client.recv()) {
            assert_eq!(resp.status, WireStatus::Shutdown);
        }
        // No `server.shutdown()`: the frame alone must end the run.
        let report = server.join().expect("server join");
        assert!(report.failures.is_empty());
        assert_eq!(report.stats.completed(), 32);
        assert_eq!(report.stats.completed(), report.stats.admitted());
    });
}

/// The shutdown drain delivers what it counts: a client with a full
/// window in flight when `shutdown` begins receives an answer for every
/// request the report counts as completed. The drain once closed each
/// socket both ways as soon as the last answer reached its writer's
/// channel, possibly before the writer had sent it; the run is repeated so
/// that such a race shows.
#[test]
fn a_drain_delivers_every_answer_it_counts() {
    const ROUNDS: u64 = 200;
    const WINDOW: u64 = 8;
    with_watchdog("drain-delivers-every-answer", 120, || {
        for round in 0..ROUNDS {
            let server = control_plane_server();
            let mut client =
                NetClient::connect(server.local_addr(), WINDOW as usize).expect("client connect");
            for tag in 0..WINDOW {
                client.submit(read_request(tag)).expect("submit");
            }
            server.shutdown();
            let mut answered = 0;
            while let Ok(resp) = client.recv() {
                answered += u64::from(resp.status == WireStatus::Ok);
            }
            let report = server.join().expect("server join");
            assert_eq!(answered, report.stats.completed(), "round {round}");
        }
    });
}

// ---------- hostile peers ---------------------------------------------

/// A raw socket past the handshake: sends `Hello`, takes the `HelloAck`.
fn handshaken(addr: SocketAddr) -> TcpStream {
    let mut sock = TcpStream::connect(addr).expect("connect");
    write_frame(&mut sock, &Frame::Hello { version: VERSION }).expect("hello");
    match read_frame(&mut sock) {
        Ok(Some((Frame::HelloAck { .. }, _))) => sock,
        other => panic!("expected HelloAck, got {other:?}"),
    }
}

/// Hostile peers against a live server, then a well-formed client, which
/// must still read back every block it wrote. Every case runs the same
/// peers against a different server: one shard, and two shards with
/// coalescing on. The peers:
///
/// * a client that submits a full window of reads and closes without
///   reading: answers that reach the service's sink after the connection
///   is gone are dropped, and the shards stay healthy;
/// * a storm of `STORM` connections that close without a `Hello`;
/// * a peer that sends half a request frame and then nothing, held open
///   until the server has shut down;
/// * a peer that sends a length prefix and half a request body, then
///   hangs up;
/// * a peer whose length prefix is `MAX_FRAME + 1`;
/// * a peer that writes `OVERRUN` requests at once against a window of
///   `WINDOW`, reading nothing until it has sent them all, and repeats
///   the burst until a request in it is refused.
///
/// After `shutdown` + `join` the run has no shard failure, every shard's
/// ledger closes (`enqueued == completed + expired + failed`) and every
/// pinned counter is exact:
///
/// * `net_connections_opened` = 56 = the storm's 50, the five peers and
///   the client. `max_connections` (64) is above what can be open at
///   once, so no connection is refused at accept, and the client's
///   handshake completes only after the acceptor has taken every earlier
///   connection off the backlog. Every one of them closes
///   (`net_connections_closed` = 56): the stalled peer's when shutdown
///   cuts its socket.
/// * `net_protocol_errors` = 1, the oversize prefix. A connection that
///   closes without a `Hello`, a peer that disconnects with answers
///   unread, a peer that hangs up mid-frame (`WireError::Closed`) and a
///   frame cut short by the server's own shutdown are disconnects, not
///   protocol errors.
/// * `net_busy_rejections` = the `Busy` answers the overrun peer read.
///   Nothing else can be refused: the early closer and the client keep
///   at most `WINDOW` requests in flight, and a shard queue (64) holds
///   every window at once.
#[test]
fn hostile_peers_leave_the_server_serving() {
    for (name, shards, coalesce) in [
        ("hostile-peers-one-shard", 1, false),
        ("hostile-peers-two-shards-coalescing", 2, true),
    ] {
        with_watchdog(name, 60, move || hostile_peers_case(name, shards, coalesce));
    }
}

/// One case of [`hostile_peers_leave_the_server_serving`]: the peers
/// against a server of `shards` shards, coalescing as `coalesce` says.
fn hostile_peers_case(name: &str, shards: usize, coalesce: bool) {
    const STORM: u64 = 50;
    const WINDOW: usize = 4;
    const OVERRUN: u64 = 32;
    const BURSTS: u64 = 8;
    const BLOCKS: u64 = 16;
    let mut service = small_cfg(shards);
    service.coalesce = coalesce;
    let block_bytes = service.oram.block_bytes;
    let server = NetServer::start(NetConfig {
        service,
        port: 0,
        max_connections: 64,
        max_inflight_per_conn: WINDOW,
        drain_wait_ms: 2_000,
    })
    .expect("server start");
    let addr = server.local_addr();

    let mut early = NetClient::connect(addr, WINDOW).expect("client connect");
    for tag in 0..WINDOW as u64 {
        early.submit(read_request(tag)).expect("submit");
    }
    drop(early);

    for _ in 0..STORM {
        drop(TcpStream::connect(addr).expect("storm connect"));
    }

    let mut request = Vec::new();
    Frame::Request(read_request(0)).encode(&mut request);

    let mut stalled = handshaken(addr);
    stalled
        .write_all(&request[..request.len() / 2])
        .expect("half a frame");

    // The 4-byte length prefix, then half of the body it announces.
    let mut hang_up = handshaken(addr);
    hang_up
        .write_all(&request[..4 + (request.len() - 4) / 2])
        .expect("prefix and half a body");
    drop(hang_up);

    let mut oversize = handshaken(addr);
    oversize
        .write_all(&(MAX_FRAME as u32 + 1).to_le_bytes())
        .expect("oversize prefix");
    assert!(
        matches!(read_frame(&mut oversize), Ok(None)),
        "{name}: the server drops a connection that announces an oversize frame"
    );

    // A burst overruns the window unless the shard answers each request
    // before the reader takes the next one, which the host's scheduler
    // now and then arranges (the reader's submit wakes the worker, and
    // the worker runs first); so the peer repeats the burst, up to
    // `BURSTS` times, until one request in it is refused.
    let mut overrun = handshaken(addr);
    let mut burst = Vec::new();
    for tag in 0..OVERRUN {
        Frame::Request(read_request(tag)).encode(&mut burst);
    }
    let (mut sent, mut busy) = (0, 0);
    while busy == 0 && sent < BURSTS * OVERRUN {
        overrun.write_all(&burst).expect("burst");
        sent += OVERRUN;
        for _ in 0..OVERRUN {
            match read_frame(&mut overrun) {
                Ok(Some((Frame::Response(r), _))) => match r.status {
                    WireStatus::Ok => {}
                    WireStatus::Busy => busy += 1,
                    s => panic!("{name}: tag {}: unexpected status {}", r.tag, s.name()),
                },
                other => panic!("{name}: expected a response, got {other:?}"),
            }
        }
    }
    assert!(
        busy > 0,
        "{name}: {BURSTS} bursts of {OVERRUN} requests at once overrun a window of {WINDOW}"
    );
    drop(overrun);

    let mut client = NetClient::connect(addr, WINDOW).expect("client connect");
    let payload = |tag: u64| vec![tag as u8 + 1; block_bytes];
    for tag in 0..BLOCKS {
        client
            .submit(WireRequest {
                tag,
                op: WireOp::Write,
                addr: tag * 3,
                deadline_rel_ns: 0,
                payload: payload(tag),
            })
            .expect("submit write");
    }
    let acks = client.drain().expect("drain writes");
    assert_eq!(acks.len() as u64, BLOCKS, "{name}");
    assert!(acks.iter().all(|r| r.status == WireStatus::Ok), "{name}");
    for tag in 0..BLOCKS {
        client
            .submit(WireRequest {
                tag: BLOCKS + tag,
                ..read_request(tag * 3)
            })
            .expect("submit read");
    }
    let reads = client.drain().expect("drain reads");
    assert_eq!(reads.len() as u64, BLOCKS, "{name}");
    for r in &reads {
        assert_eq!(r.status, WireStatus::Ok, "{name}: tag {}", r.tag);
        assert_eq!(
            r.data,
            payload(r.tag - BLOCKS),
            "{name}: tag {}: read data",
            r.tag
        );
    }

    server.shutdown();
    let report = server.join().expect("server join");
    drop(stalled);
    assert!(
        report.failures.is_empty(),
        "{name}: shards died: {:?}",
        report.failures
    );
    assert_eq!(report.stats.per_shard.len(), shards, "{name}");
    for s in &report.stats.per_shard {
        assert_eq!(s.health, ShardHealth::Healthy, "{name}: shard {}", s.shard);
        let c = &s.counters;
        assert_eq!(
            c.enqueued,
            c.completed + c.expired + c.failed,
            "{name}: shard {} ledger open: {c:?}",
            s.shard
        );
    }
    assert_eq!(
        report.stats.completed(),
        WINDOW as u64 + (sent - busy) + 2 * BLOCKS,
        "{name}: every accepted request was served"
    );
    let opened = STORM + 6;
    assert_eq!(
        report.net_counter(Counter::NetConnectionsOpened),
        opened,
        "{name}"
    );
    assert_eq!(
        report.net_counter(Counter::NetConnectionsClosed),
        opened,
        "{name}"
    );
    assert_eq!(report.net_counter(Counter::NetProtocolErrors), 1, "{name}");
    assert_eq!(
        report.net_counter(Counter::NetBusyRejections),
        busy,
        "{name}"
    );
}

// ---------- a scripted wire replays bit for bit ------------------------

/// A replay server for `service` whose every window and queue holds the
/// whole script, so none ever binds: a binding window would make the run
/// a closed loop, not a replay.
fn replay_config(mut service: ServiceConfig, requests: usize) -> NetConfig {
    service.queue_depth = requests;
    NetConfig {
        service,
        port: 0,
        max_connections: 8,
        max_inflight_per_conn: requests,
        drain_wait_ms: 5_000,
    }
}

/// Sends each slice whole over a connection of its own, windowed as wide
/// as the slice, and returns every answer with its tag.
fn send_slices(
    addr: SocketAddr,
    slices: &[Vec<ScheduledRequest>],
    block_bytes: usize,
) -> Vec<WireResponse> {
    std::thread::scope(|scope| {
        let clients: Vec<_> = (slices.iter())
            .map(|slice| {
                scope.spawn(move || {
                    let mut client = NetClient::connect(addr, slice.len().max(1)).expect("connect");
                    for r in slice {
                        client.submit(wire_request(r, block_bytes)).expect("submit");
                    }
                    client.drain().expect("drain")
                })
            })
            .collect();
        (clients.into_iter())
            .flat_map(|c| c.join().expect("client thread"))
            .collect()
    })
}

/// A wire run from [`NetServer::replay`] is [`OramService::run_trace`]'s
/// bit for bit: over 1, 2 and 4 shards, 2 and 4 connections, uniform and
/// hot schedules, with each request dealt to a random connection (so one
/// address crosses several sockets), every tag's `{status, data}`, each
/// shard's fingerprint and the latency histogram equal the in-process
/// trace replay's.
#[test]
fn scripted_wire_replays_run_trace_bit_for_bit() {
    type Workload = fn(u64, u64, usize, u64) -> ZipfConfig;
    let cases: [(usize, usize, Workload, bool); 5] = [
        (1, 2, ZipfConfig::uniform, false),
        (2, 4, ZipfConfig::hot, false),
        (4, 2, ZipfConfig::hot, true),
        (4, 4, ZipfConfig::uniform, false),
        (2, 2, ZipfConfig::hot, true),
    ];
    let mut cases = cases.into_iter();
    run_cases("net-scripted-replay", 5, |g: &mut Gen| {
        let (shards, conns, workload, coalesce) = cases.next().expect("one per case");
        let mut service = small_cfg(shards);
        service.coalesce = coalesce;
        let block_bytes = service.oram.block_bytes;
        let zc = workload(
            service.oram.data_blocks,
            400,
            block_bytes,
            g.below(u64::MAX),
        );
        let sched = zipf::generate(&zc);
        let script: Vec<ServiceRequest> = (sched.iter())
            .map(|r| service_request(r, block_bytes))
            .collect();
        let mut slices = vec![Vec::new(); conns];
        for r in &sched {
            slices[g.range_usize(0, conns - 1)].push(r.clone());
        }

        let cfg = replay_config(service.clone(), sched.len());
        let server = NetServer::replay(cfg, script.clone()).expect("server start");
        let wire = send_slices(server.local_addr(), &slices, block_bytes);
        server.shutdown();
        let report = server.join().expect("server join");
        assert!(report.failures.is_empty(), "{:?}", report.failures);

        let (trace, done) = OramService::run_trace(service, script).expect("trace replay");
        let wire: HashMap<u64, (&'static str, Vec<u8>)> = (wire.into_iter())
            .map(|r| (r.tag, (r.status.name(), r.data)))
            .collect();
        let trace_tags: HashMap<u64, (&'static str, Vec<u8>)> = (done.into_iter())
            .map(|c| (c.tag, (c.status.name(), c.data)))
            .collect();
        assert_eq!(wire.len(), sched.len(), "one answer per request");
        assert_eq!(wire, trace_tags, "{shards} shards, {conns} connections");
        assert_eq!(report.stats.fingerprint(), trace.fingerprint());
        assert_eq!(report.stats.latency, trace.latency);
    });
}

/// A replay whose clients leave part of the script unsent stalls each
/// shard at its first missing stamp, and still shuts down: the drain
/// stops waiting for the missing requests and the service answers every
/// request it accepted exactly once. A tag the script does not hold, and
/// one sent twice, are answered `BadRequest`. The client reads answers
/// until the drain closes its connection; an answer routed during the
/// drain may be cut off by that close, so the ledger is read from the
/// report, and the wire is only held to no tag answered twice.
#[test]
fn a_replay_whose_clients_skip_part_of_the_script_still_shuts_down() {
    with_watchdog("partial-replay", 60, || {
        let service = small_cfg(2);
        let block_bytes = service.oram.block_bytes;
        let zc = ZipfConfig::uniform(service.oram.data_blocks, 120, block_bytes, 0x5C41);
        let sched = zipf::generate(&zc);
        let script: Vec<ServiceRequest> = (sched.iter())
            .map(|r| service_request(r, block_bytes))
            .collect();
        let server =
            NetServer::replay(replay_config(service, sched.len()), script).expect("server start");
        let sent: Vec<&ScheduledRequest> = sched.iter().filter(|r| r.tag % 3 != 1).collect();
        let mut client = NetClient::connect(server.local_addr(), sched.len()).expect("connect");
        for r in &sent {
            client.submit(wire_request(r, block_bytes)).expect("submit");
        }
        let mut unscripted = read_request(1);
        unscripted.tag = 10_000;
        client.submit(unscripted).expect("submit");
        client
            .submit(wire_request(sent[0], block_bytes))
            .expect("submit");
        // The reader answers a stats request after it has submitted every
        // request before it. Tag 1 never comes, so its shard holds what is
        // stamped after it until the drain, which must not wait for it.
        let json = client.stats_json().expect("stats");
        assert_eq!(json_u64(&json, "enqueued"), sent.len() as u64);
        assert!(json_u64(&json, "completed") < sent.len() as u64, "stalled");
        server.shutdown();
        let mut answers: HashMap<(u64, &str), usize> = HashMap::new();
        while let Ok(a) = client.recv() {
            *answers.entry((a.tag, a.status.name())).or_default() += 1;
        }
        let report = server.join().expect("server join");

        assert!(report.failures.is_empty(), "{:?}", report.failures);
        assert_eq!(report.stats.enqueued(), sent.len() as u64);
        assert_eq!(report.stats.completed(), sent.len() as u64);
        assert_eq!(report.stats.failed() + report.stats.expired(), 0);
        assert!(answers.values().all(|&n| n == 1), "{answers:?}");
        for ((tag, status), _) in answers {
            let scripted = sched.iter().any(|r| r.tag == tag) && tag % 3 != 1;
            let refused = tag == 10_000 || tag == sent[0].tag;
            match status {
                "ok" => assert!(scripted, "tag {tag} served"),
                "bad_request" => assert!(refused, "tag {tag} refused"),
                other => panic!("tag {tag}: {other}"),
            }
        }
    });
}

/// A replay stamps a request from its script only if the request is the
/// entry its tag names: another address or deadline under a scripted tag
/// is answered `BadRequest`, and the refusal leaves the entry unsent, so
/// the right request sent after it is served and the run still equals
/// [`OramService::run_trace`].
#[test]
fn a_replay_refuses_a_request_that_is_not_its_tags_entry() {
    with_watchdog("mismatched-replay", 60, || {
        let service = small_cfg(2);
        let block_bytes = service.oram.block_bytes;
        assert!(service.oram.data_blocks >= 4);
        let zc = ZipfConfig::hot(service.oram.data_blocks, 60, block_bytes, 0x7A65);
        let sched = zipf::generate(&zc);
        let script: Vec<ServiceRequest> = (sched.iter())
            .map(|r| service_request(r, block_bytes))
            .collect();
        let cfg = replay_config(service.clone(), sched.len());
        let server = NetServer::replay(cfg, script.clone()).expect("server start");
        let mut client = NetClient::connect(server.local_addr(), sched.len()).expect("connect");
        let first = wire_request(&sched[0], block_bytes);
        // Another address on the same shard (two shards: the low bit).
        let elsewhere = WireRequest {
            addr: first.addr ^ 2,
            ..first.clone()
        };
        let with_deadline = WireRequest {
            deadline_rel_ns: 1_000,
            ..first.clone()
        };
        for wrong in [elsewhere, with_deadline] {
            client.submit(wrong).expect("submit");
            let refused = client.recv().expect("refusal");
            assert_eq!(
                (refused.tag, refused.status.name()),
                (first.tag, "bad_request")
            );
        }
        for r in &sched {
            client.submit(wire_request(r, block_bytes)).expect("submit");
        }
        let wire = client.drain().expect("drain");
        server.shutdown();
        let report = server.join().expect("server join");

        let (trace, done) = OramService::run_trace(service, script).expect("trace replay");
        let wire: HashMap<u64, (&str, Vec<u8>)> = (wire.into_iter())
            .map(|r| (r.tag, (r.status.name(), r.data)))
            .collect();
        let trace_tags: HashMap<u64, (&str, Vec<u8>)> = (done.into_iter())
            .map(|c| (c.tag, (c.status.name(), c.data)))
            .collect();
        assert_eq!(wire.len(), sched.len(), "one answer per request");
        assert_eq!(wire, trace_tags);
        assert_eq!(report.stats.fingerprint(), trace.fingerprint());
    });
}
