//! The threaded TCP front end over [`OramService`].
//!
//! [`NetServer::start`] binds a loopback listener and runs the sharded
//! service ([`OramService::serve`]; [`OramService::replay`] for
//! [`NetServer::replay`]) with the serve driver as the network plane:
//!
//! * an **acceptor** admits connections up to
//!   [`NetConfig::max_connections`] (excess connections are dropped and
//!   counted as [`Counter::NetBusyRejections`]);
//! * each connection gets a **reader** thread (handshake, decode,
//!   validate, submit) and a **writer** thread (serialize responses from
//!   an unbounded channel) — responses go out **in completion order**,
//!   so a fast request on one shard overtakes a slow one on another and
//!   the wire stays fully pipelined;
//! * the service's completion **sink** runs on the shard worker that
//!   finished the request and routes the answer straight into its
//!   connection's writer channel. It keeps no copy of the service's
//!   bookkeeping: the shard strips write payloads and answers every
//!   request it accepted, so routing is all that is left.
//!
//! A connection's window is its request ledger: each slot holds the
//! client's tag of the request in flight in it, and the service tag names
//! the slot (`conn * window + slot`). A full window answers `Busy`, a
//! closed connection takes its ledger along (late answers are dropped),
//! and the shutdown drain waits for every window to empty. It then shuts
//! the sockets' read halves: each reader exits, and each writer sends what
//! its channel holds and exits once its senders are gone. Only a socket
//! still open at [`NetConfig::drain_wait_ms`] is closed outright.
//!
//! A wire request thus crosses three threads — reader, shard worker,
//! writer — and waits on no timer.
//!
//! ## Arrival stamps and deadline mapping
//!
//! The service runs on a *simulated* clock. [`NetServer::start`] stamps a
//! request's arrival as the wall ns since the server started, 1 wall ns =
//! 1 simulated ns; [`NetServer::replay`] stamps it from its script. A
//! wire deadline `deadline_rel_ns = d > 0` becomes `arrival + d`, judged
//! when the shard admits the request. The clocks run at very
//! different rates, so host-stamped deadlines are a *load-shedding knob*,
//! not a real-time guarantee — see DESIGN.md.
//!
//! ## Failure containment
//!
//! Failures become per-request wire statuses on a healthy connection,
//! never connection teardowns, by two paths: a submission the service
//! refuses ([`SubmitError::Busy`], [`SubmitError::ShardDown`], ...) is
//! answered at once by the reader, and a request a shard accepted and
//! then could not serve because its worker died comes back from the
//! dying shard as a `ShardDown` completion, which the sink routes like
//! any other as [`WireStatus::ShardDown`]. Shard health is read from the
//! stats snapshot (`StatsResp`).

use std::collections::HashMap;
use std::io::ErrorKind;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex, Weak};
use std::time::{Duration, Instant};

use fp_path_oram::Op;
use fp_service::sync::relock;
use fp_service::{
    CompletionStatus, OramService, ServeError, ServiceCompletion, ServiceConfig, ServiceHandle,
    ServiceRequest, ServiceStats, ShardFailure, SubmitError,
};
use fp_stats::json::JsonObject;
use fp_trace::{Counter, TraceHandle};

use crate::wire::{
    read_frame, write_frame, Frame, WireError, WireOp, WireRequest, WireResponse, WireStatus,
    VERSION,
};

/// The network-plane counters, in the order the stats JSON's `"net"`
/// section lists them.
const NET_COUNTERS: [Counter; 8] = [
    Counter::NetConnectionsOpened,
    Counter::NetConnectionsClosed,
    Counter::NetFramesIn,
    Counter::NetFramesOut,
    Counter::NetWireBytesIn,
    Counter::NetWireBytesOut,
    Counter::NetProtocolErrors,
    Counter::NetBusyRejections,
];

/// Configuration of the network front end.
#[derive(Debug, Clone, PartialEq)]
pub struct NetConfig {
    /// The sharded service behind the listener.
    pub service: ServiceConfig,
    /// Loopback port to bind (`0` picks an ephemeral port; read it back
    /// with [`NetServer::local_addr`]). The listener always binds
    /// `127.0.0.1` — this front end is a loopback harness, not an
    /// internet-facing daemon.
    pub port: u16,
    /// Maximum simultaneous connections; excess connections are dropped
    /// at accept.
    pub max_connections: usize,
    /// Maximum requests one connection may have in flight; requests over
    /// the window are answered [`WireStatus::Busy`].
    pub max_inflight_per_conn: usize,
    /// How long a graceful shutdown waits for in-flight requests to
    /// complete before force-closing connections.
    pub drain_wait_ms: u64,
}

impl NetConfig {
    /// Validates the configuration (including the embedded service
    /// configuration).
    ///
    /// # Errors
    ///
    /// Returns a description of the violated constraint.
    pub(crate) fn validate(&self) -> Result<(), String> {
        self.service.validate()?;
        if self.max_connections == 0 {
            return Err("max_connections must be at least 1".into());
        }
        if self.max_inflight_per_conn == 0 {
            return Err("max_inflight_per_conn must be at least 1".into());
        }
        Ok(())
    }
}

/// Why a network server or client operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// The configuration failed validation; nothing was bound or spawned.
    Config(String),
    /// Socket-level I/O failed.
    Io(String),
    /// A frame could not be read, decoded, or written.
    Wire(WireError),
    /// The peer violated the protocol (wrong frame at the wrong time).
    Protocol(String),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Config(e) => write!(f, "invalid net config: {e}"),
            NetError::Io(e) => write!(f, "net i/o: {e}"),
            NetError::Wire(e) => write!(f, "wire: {e}"),
            NetError::Protocol(e) => write!(f, "protocol violation: {e}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<WireError> for NetError {
    fn from(e: WireError) -> Self {
        match e {
            WireError::Io(io) => NetError::Io(io),
            other => NetError::Wire(other),
        }
    }
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(format!("{}: {e}", e.kind()))
    }
}

/// Everything a finished server run reports.
#[derive(Debug)]
pub struct NetReport {
    /// Aggregate service statistics (partial when shards died).
    pub stats: ServiceStats,
    /// Abnormal shard exits (empty on a clean run).
    pub failures: Vec<ShardFailure>,
    /// Final snapshot of the network plane's trace counters, indexed by
    /// [`Counter`]; [`NetReport::net_counter`] reads one by name.
    pub net: [u64; Counter::COUNT],
}

impl NetReport {
    /// Final value of one network-plane counter.
    pub fn net_counter(&self, c: Counter) -> u64 {
        self.net[c as usize]
    }
}

/// Per-connection state shared between the acceptor, its reader, and the
/// completion sink.
struct ConnSlot {
    /// Response channel into the connection's writer thread.
    tx: mpsc::Sender<Frame>,
    /// The connection's request ledger: one entry per window slot, the
    /// client tag of the request in flight in it.
    window: Vec<Option<u64>>,
}

/// Where a request's arrival stamp comes from (module docs): the host
/// clock from the server's start, or a replay's script with each entry's
/// index by client tag.
enum Arrivals {
    Host(Instant),
    Script(Vec<ServiceRequest>, HashMap<u64, usize>),
}

/// The shared network plane handed to every connection thread.
struct NetShared {
    cfg: NetConfig,
    trace: TraceHandle,
    draining: AtomicBool,
    conns: Mutex<HashMap<u64, ConnSlot>>,
    arrivals: Arrivals,
    local: SocketAddr,
}

impl NetShared {
    /// Takes a free slot of connection `conn`'s window for the request the
    /// client tagged `client_tag`, and returns the service tag naming the
    /// slot; `None` when every slot is taken.
    fn claim_slot(&self, conn: u64, client_tag: u64) -> Option<u64> {
        let mut conns = relock(&self.conns);
        let window = &mut conns.get_mut(&conn)?.window;
        let slot = window.iter().position(Option::is_none)?;
        window[slot] = Some(client_tag);
        Some(conn * window.len() as u64 + slot as u64)
    }

    /// Frees the slot service tag `tag` names and answers its request on
    /// the connection's writer, under the client's tag; drops the answer
    /// when the connection has closed since. The completion sink (on the
    /// shard worker) and a refused submission both answer here; neither
    /// blocks, the writer's channel is unbounded.
    fn answer(&self, tag: u64, status: WireStatus, latency_ps: u64, data: Vec<u8>) {
        let window = self.cfg.max_inflight_per_conn as u64;
        let mut conns = relock(&self.conns);
        let Some(conn) = conns.get_mut(&(tag / window)) else {
            return; // it closed while the request was in flight
        };
        if let Some(client_tag) = conn.window[(tag % window) as usize].take() {
            let _ = conn.tx.send(Frame::Response(WireResponse {
                tag: client_tag,
                status,
                latency_ps,
                data,
            }));
        }
    }

    /// Whether no connection has a request in flight.
    fn idle(&self) -> bool {
        relock(&self.conns)
            .values()
            .all(|c| c.window.iter().all(Option::is_none))
    }

    /// The request the client tagged `tag`, built by `at(arrival_ps)`
    /// once stamped, and its script index. The host arm stamps wall ns
    /// since the server started as simulated ps (1 wall ns = 1 simulated
    /// ns); the script arm, the entry with that tag, and returns `None`
    /// unless the request is that entry (its address, direction, payload
    /// and deadline). The queue refuses an entry sent before.
    fn stamp(
        &self,
        tag: u64,
        at: impl FnOnce(u64) -> ServiceRequest,
    ) -> Option<(ServiceRequest, Option<usize>)> {
        match &self.arrivals {
            Arrivals::Host(start) => {
                let ps = (start.elapsed().as_nanos() as u64).saturating_mul(1_000);
                Some((at(ps), None))
            }
            Arrivals::Script(script, by_tag) => {
                let (i, entry) = by_tag.get(&tag).map(|&i| (i, &script[i]))?;
                let req = at(entry.arrival_ps);
                let same = (req.addr, req.op, &req.data, req.deadline_ps)
                    == (entry.addr, entry.op, &entry.data, entry.deadline_ps);
                same.then_some((req, Some(i)))
            }
        }
    }

    /// Begins the drain and unblocks the acceptor (which sits in
    /// `accept()`) with a self-connection.
    fn begin_drain(&self) {
        self.draining.store(true, Ordering::Release);
        // The accepted stream is dropped immediately; its only job is to
        // wake the acceptor so it re-checks the draining flag.
        let _ = TcpStream::connect(self.local);
    }
}

/// The TCP front end. Start it, talk to [`NetServer::local_addr`] with a
/// [`crate::NetClient`], then [`NetServer::shutdown`] and
/// [`NetServer::join`] for the final [`NetReport`].
pub struct NetServer {
    local: SocketAddr,
    shared: Arc<NetShared>,
    worker: std::thread::JoinHandle<Result<NetReport, NetError>>,
}

impl NetServer {
    /// Binds the listener and starts the service and network threads.
    /// Returns once the socket is accepting, so a client may connect
    /// immediately.
    ///
    /// # Errors
    ///
    /// [`NetError::Config`] for invalid configurations, [`NetError::Io`]
    /// when the bind fails.
    pub fn start(cfg: NetConfig) -> Result<Self, NetError> {
        // The wall-clock epoch host stamps count from (module docs).
        #[expect(clippy::disallowed_methods)]
        let epoch = Instant::now();
        Self::launch(cfg, Arrivals::Host(epoch))
    }

    /// [`NetServer::start`] for [`OramService::replay`] of `script` (a
    /// run's requests in input order): a request is stamped by its client
    /// tag from the script, so the answers, per-shard fingerprints and
    /// latency histogram are [`OramService::run_trace`]'s over `script`.
    /// A request the script does not hold under its tag (another address,
    /// direction, payload or deadline), or one sent and accepted before,
    /// is answered `BadRequest`; one refused `Busy` may be sent again.
    /// Precondition: distinct tags, and no client window,
    /// `max_inflight_per_conn` or `queue_depth` that binds. An entry no
    /// client sends stalls its shard until the drain begins.
    ///
    /// # Errors
    ///
    /// As [`NetServer::start`]'s.
    pub fn replay(cfg: NetConfig, script: Vec<ServiceRequest>) -> Result<Self, NetError> {
        let by_tag = (script.iter().enumerate()).map(|(i, r)| (r.tag, i));
        let by_tag = by_tag.collect();
        Self::launch(cfg, Arrivals::Script(script, by_tag))
    }

    fn launch(cfg: NetConfig, arrivals: Arrivals) -> Result<Self, NetError> {
        cfg.validate().map_err(NetError::Config)?;
        let listener = TcpListener::bind(("127.0.0.1", cfg.port))?;
        let local = listener.local_addr()?;
        let shared = Arc::new(NetShared {
            cfg,
            trace: TraceHandle::default(),
            draining: AtomicBool::new(false),
            conns: Mutex::new(HashMap::new()),
            arrivals,
            local,
        });
        let worker_shared = Arc::clone(&shared);
        let worker = std::thread::spawn(move || run_server(listener, worker_shared));
        Ok(Self {
            local,
            shared,
            worker,
        })
    }

    /// The bound address clients connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.local
    }

    /// Begins a graceful shutdown: stop accepting, answer what is in
    /// flight (bounded by [`NetConfig::drain_wait_ms`]), then close.
    /// Idempotent; [`NetServer::join`] collects the result.
    pub fn shutdown(&self) {
        self.shared.begin_drain();
    }

    /// Waits for the server to finish and returns the final report. A
    /// run in which shards died still returns `Ok` — the failures are in
    /// [`NetReport::failures`].
    ///
    /// # Errors
    ///
    /// [`NetError::Config`] if the service rejected the configuration
    /// after start (never for a validated [`NetConfig`]).
    pub fn join(self) -> Result<NetReport, NetError> {
        match self.worker.join() {
            Ok(r) => r,
            Err(_) => Err(NetError::Protocol("server worker panicked".into())),
        }
    }
}

/// The server worker: runs the sharded service with the network plane as
/// its driver and [`NetShared::answer`] as its completion sink, and folds the outcome
/// into a [`NetReport`].
fn run_server(listener: TcpListener, shared: Arc<NetShared>) -> Result<NetReport, NetError> {
    let cfg = shared.cfg.service.clone();
    let sink = |c: ServiceCompletion| {
        shared.answer(c.tag, completion_status(c.status), c.latency_ps, c.data);
    };
    let driver = |handle: &ServiceHandle| drive(&listener, handle, &shared);
    let outcome = match &shared.arrivals {
        Arrivals::Host(_) => OramService::serve(cfg, sink, driver),
        Arrivals::Script(script, _) => OramService::replay(cfg, script, sink, driver),
    };
    let (stats, failures) = match outcome {
        Ok((stats, ())) => (stats, Vec::new()),
        Err(ServeError::Shards { failures, stats }) => (*stats, failures),
        Err(ServeError::Config(e)) => return Err(NetError::Config(e)),
    };
    Ok(NetReport {
        stats,
        failures,
        net: shared.trace.counters(),
    })
}

/// The network plane: the acceptor (this thread) and the per-connection
/// threads, all scoped so the service's run cannot end until every socket
/// thread has exited.
fn drive(listener: &TcpListener, handle: &ServiceHandle, shared: &NetShared) {
    std::thread::scope(|scope| {
        let mut next_conn = 0u64;
        // Every connection's socket, open while its reader or its writer
        // holds it: what the drain shuts down.
        let mut socks: Vec<Weak<TcpStream>> = Vec::new();
        loop {
            let stream = match listener.accept() {
                Ok((s, _)) => s,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => break,
            };
            if shared.draining.load(Ordering::Acquire) {
                break;
            }
            if relock(&shared.conns).len() >= shared.cfg.max_connections {
                shared.trace.bump(Counter::NetBusyRejections);
                drop(stream);
                continue;
            }
            let _ = stream.set_nodelay(true);
            let sock = Arc::new(stream);
            socks.retain(|s| s.strong_count() > 0);
            socks.push(Arc::downgrade(&sock));
            next_conn += 1;
            let conn_id = next_conn;
            let (tx, rx) = mpsc::channel::<Frame>();
            relock(&shared.conns).insert(
                conn_id,
                ConnSlot {
                    tx: tx.clone(),
                    window: vec![None; shared.cfg.max_inflight_per_conn],
                },
            );
            shared.trace.bump(Counter::NetConnectionsOpened);
            let writer = Arc::clone(&sock);
            scope.spawn(move || write_responses(&writer, rx, shared));
            scope.spawn(move || serve_connection(&sock, conn_id, tx, handle, shared));
        }
        // Drain: no new work, no wait for an unsent scripted request, and
        // a bounded chance for what is in flight, in wall time by
        // definition: the clock reads and the timed wait here.
        handle.drain();
        #[expect(clippy::disallowed_methods)]
        let deadline = Instant::now() + Duration::from_millis(shared.cfg.drain_wait_ms);
        #[expect(clippy::disallowed_methods)]
        let wait_until = |done: &dyn Fn() -> bool| {
            while Instant::now() < deadline && !done() {
                std::thread::sleep(Duration::from_millis(1));
            }
        };
        wait_until(&|| shared.idle());
        // Stop reading: each reader exits and drops its channel senders, so
        // its writer sends what the channel holds, then exits too.
        let open = || socks.iter().filter_map(Weak::upgrade);
        for sock in open() {
            let _ = sock.shutdown(Shutdown::Read);
        }
        wait_until(&|| open().next().is_none());
        // Close what is still open at the deadline: a peer that never reads
        // must not hold the server up.
        for sock in open() {
            let _ = sock.shutdown(Shutdown::Both);
        }
    });
}

/// Writer thread of one connection: serializes frames from the channel
/// until every sender is gone or the socket dies.
fn write_responses(mut sock: &TcpStream, rx: mpsc::Receiver<Frame>, shared: &NetShared) {
    for frame in rx {
        match write_frame(&mut sock, &frame) {
            Ok(n) => {
                shared.trace.bump(Counter::NetFramesOut);
                shared.trace.add(Counter::NetWireBytesOut, n as u64);
            }
            Err(_) => break,
        }
    }
}

/// Reader thread of one connection: handshake, then decode/validate/
/// submit until EOF, a protocol error, or shutdown.
fn serve_connection(
    mut sock: &TcpStream,
    conn_id: u64,
    tx: mpsc::Sender<Frame>,
    handle: &ServiceHandle,
    shared: &NetShared,
) {
    if handshake(&mut sock, &tx, handle, shared).is_ok() {
        read_requests(&mut sock, conn_id, &tx, handle, shared);
    }
    // Cleanup: unregister the connection, and its ledger with it — the
    // client is gone, nobody can receive the answers still in flight. In a
    // drain the socket stays open for the writer to send what it holds;
    // the drain closes what outlives its deadline.
    relock(&shared.conns).remove(&conn_id);
    shared.trace.bump(Counter::NetConnectionsClosed);
    if !shared.draining.load(Ordering::Acquire) {
        let _ = sock.shutdown(Shutdown::Both);
    }
}

/// Expects a `Hello` with the right magic and version, answers with the
/// service geometry.
fn handshake(
    sock: &mut &TcpStream,
    tx: &mpsc::Sender<Frame>,
    handle: &ServiceHandle,
    shared: &NetShared,
) -> Result<(), ()> {
    match read_frame(sock) {
        Ok(Some((Frame::Hello { version }, n))) => {
            shared.trace.bump(Counter::NetFramesIn);
            shared.trace.add(Counter::NetWireBytesIn, n as u64);
            if version != VERSION {
                shared.trace.bump(Counter::NetProtocolErrors);
                return Err(());
            }
            let cfg = handle.config();
            let _ = tx.send(Frame::HelloAck {
                version: VERSION,
                data_blocks: cfg.oram.data_blocks,
                block_bytes: cfg.oram.block_bytes as u32,
                shards: cfg.shards as u32,
            });
            Ok(())
        }
        Ok(None) => Err(()), // connected and left without a word
        _ => {
            shared.trace.bump(Counter::NetProtocolErrors);
            Err(())
        }
    }
}

/// The post-handshake read loop.
fn read_requests(
    sock: &mut &TcpStream,
    conn_id: u64,
    tx: &mpsc::Sender<Frame>,
    handle: &ServiceHandle,
    shared: &NetShared,
) {
    loop {
        let (frame, n) = match read_frame(sock) {
            Ok(Some(got)) => got,
            Ok(None) => return, // clean EOF
            Err(WireError::Io(_)) | Err(WireError::Closed) => return,
            Err(_) => {
                // Malformed bytes: framing is unrecoverable, drop the
                // connection.
                shared.trace.bump(Counter::NetProtocolErrors);
                return;
            }
        };
        shared.trace.bump(Counter::NetFramesIn);
        shared.trace.add(Counter::NetWireBytesIn, n as u64);
        match frame {
            Frame::Request(req) => {
                handle_request(req, conn_id, tx, handle, shared);
            }
            Frame::StatsReq => {
                let mut o = JsonObject::new();
                let mut net = JsonObject::new();
                for &c in &NET_COUNTERS {
                    net.field_u64(c.name(), shared.trace.counter(c));
                }
                o.field_raw("net", &net.finish())
                    .field_raw("service", &handle.stats().to_json());
                let _ = tx.send(Frame::StatsResp { json: o.finish() });
            }
            Frame::Shutdown => {
                shared.begin_drain();
            }
            _ => {
                // Clients must not send server-only frames.
                shared.trace.bump(Counter::NetProtocolErrors);
                return;
            }
        }
    }
}

/// Validates, windows, and submits one wire request; every path answers
/// the client exactly once (here, or later through [`NetShared::answer`]).
fn handle_request(
    req: WireRequest,
    conn_id: u64,
    tx: &mpsc::Sender<Frame>,
    handle: &ServiceHandle,
    shared: &NetShared,
) {
    let refuse = |status: WireStatus| {
        let _ = tx.send(Frame::Response(WireResponse {
            tag: req.tag,
            status,
            latency_ps: 0,
            data: Vec::new(),
        }));
    };
    let cfg = handle.config();
    if req.addr >= cfg.oram.data_blocks {
        refuse(WireStatus::OutOfRange);
        return;
    }
    let (op, payload_ok) = match req.op {
        WireOp::Read => (Op::Read, req.payload.is_empty()),
        WireOp::Write => (Op::Write, req.payload.len() == cfg.oram.block_bytes),
    };
    if !payload_ok {
        shared.trace.bump(Counter::NetProtocolErrors);
        refuse(WireStatus::BadRequest);
        return;
    }
    if shared.draining.load(Ordering::Acquire) {
        refuse(WireStatus::Shutdown);
        return;
    }
    // Claim the window slot before submitting: the shard's worker may
    // route the answer — and free the slot — on its own thread before
    // submit() even returns.
    let Some(service_tag) = shared.claim_slot(conn_id, req.tag) else {
        shared.trace.bump(Counter::NetBusyRejections);
        refuse(WireStatus::Busy);
        return;
    };
    let at = |arrival_ps: u64| ServiceRequest {
        addr: req.addr,
        op,
        data: req.payload,
        arrival_ps,
        deadline_ps: (req.deadline_rel_ns > 0)
            .then(|| arrival_ps.saturating_add(req.deadline_rel_ns.saturating_mul(1_000))),
        tag: service_tag,
    };
    let Some((service_req, index)) = shared.stamp(req.tag, at) else {
        shared.answer(service_tag, WireStatus::BadRequest, 0, Vec::new());
        return;
    };
    if let Err(e) = handle.submit_scripted(index, service_req) {
        let status = match e {
            SubmitError::Busy => {
                shared.trace.bump(Counter::NetBusyRejections);
                WireStatus::Busy
            }
            SubmitError::ShardDown => WireStatus::ShardDown,
            SubmitError::Shutdown => WireStatus::Shutdown,
            SubmitError::OutOfRange => WireStatus::OutOfRange,
            SubmitError::Unscripted => WireStatus::BadRequest,
        };
        shared.answer(service_tag, status, 0, Vec::new());
    }
}

fn completion_status(s: CompletionStatus) -> WireStatus {
    match s {
        CompletionStatus::Ok => WireStatus::Ok,
        CompletionStatus::Late => WireStatus::Late,
        CompletionStatus::Expired => WireStatus::Expired,
        CompletionStatus::ShardDown => WireStatus::ShardDown,
    }
}
