//! The benchmark's own engine-level driver.
//!
//! A copy of the loops `fp-sim` and `fp-service` run over an
//! [`OramEngine`], written against public items only, so the benchmark can
//! put spans around every call into the engine, record the request stream
//! (for the stack replay) and check every completion against the
//! plain-RAM oracle once the clock has stopped. With spans off it is the
//! untraced twin the tracing overhead is measured against.

use std::collections::VecDeque;
use std::time::Instant;

use fp_core::engine::{OramEngine, Scheme};
use fp_core::{NewRequest, ReactiveSource};
use fp_dram::{DramConfig, DramStats, DramSystem};
use fp_path_oram::{Completion, Op, OramConfig, OramStats};
use fp_sim::energy::{self, EnergyParams};
use fp_trace::Counter;
use fp_workloads::cpu::{untag_addr, untag_core, MultiCoreWorkload};
use fp_workloads::service::ServiceClientPool;
use fp_workloads::zipf::ScheduledRequest;

use crate::oracle::{payload, Checked, Oracle};
use crate::spans::{SpanLog, NONE};

/// The simulated-clock results of one run: the paper's figures, per
/// request. Deterministic for a seed, so they compare bit for bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimMetrics {
    /// "ORAM latency" (Fig 12), simulated ns.
    pub latency_ns_per_req: f64,
    /// Execution time per request (Fig 14 numerator), simulated ns.
    pub exec_ns_per_req: f64,
    /// Average path length (Fig 10), buckets.
    pub avg_path_len: f64,
    /// ORAM accesses per request (Fig 11 inflation).
    pub accesses_per_req: f64,
    /// Memory-system energy per request (Fig 15), simulated uJ.
    pub energy_uj_per_req: f64,
}

impl SimMetrics {
    pub fn new(
        latency_ns: f64,
        exec_time_ps: u64,
        avg_path_len: f64,
        accesses: u64,
        requests: u64,
        energy_pj: u64,
    ) -> Self {
        let n = requests.max(1) as f64;
        Self {
            latency_ns_per_req: latency_ns,
            exec_ns_per_req: exec_time_ps as f64 / 1e3 / n,
            avg_path_len,
            accesses_per_req: accesses as f64 / n,
            energy_uj_per_req: energy_pj as f64 / 1e6 / n,
        }
    }

    /// `(metric name, value, unit)` rows.
    pub fn rows(&self) -> [(&'static str, f64, &'static str); 5] {
        [
            ("sim_latency_ns_per_req", self.latency_ns_per_req, "ns"),
            ("sim_exec_ns_per_req", self.exec_ns_per_req, "ns"),
            ("sim_avg_path_len", self.avg_path_len, "buckets"),
            ("sim_accesses_per_req", self.accesses_per_req, "ratio"),
            ("sim_energy_uj_per_req", self.energy_uj_per_req, "uJ"),
        ]
    }
}

/// Where an engine-level run's requests come from.
pub enum Stream {
    /// `fp-sim`'s closed loop: cores issue when think time and MLP allow.
    Cores(MultiCoreWorkload),
    /// `fp-service`'s closed loop: each completion births the client's
    /// next request.
    Pool(ServiceClientPool),
    /// `fp-service`'s trace replay: requests admitted in arrival order as
    /// the engine clock reaches them, in batches of at most 16.
    Schedule(Vec<ScheduledRequest>),
}

/// Switches of one engine-level run.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineOpts {
    /// Record spans.
    pub spans: bool,
    /// Event-ring capacity handed to `set_trace_capacity`.
    pub ring: usize,
}

/// Everything one engine-level run leaves behind.
pub struct EngineRun {
    /// First submit to last drained completion, host seconds.
    pub wall_s: f64,
    pub requests: u64,
    pub oram: OramStats,
    pub dram: DramStats,
    /// fp-trace counters in `Counter::ALL` order.
    pub counters: Vec<u64>,
    pub stash_high_water: usize,
    pub sim: SimMetrics,
    pub checked: Checked,
    pub spans: SpanLog,
    /// The request stream as submitted (tag = engine request id).
    pub issued: Vec<ScheduledRequest>,
}

/// The driver's side of the engine: feeds requests, takes completions.
struct Feed {
    stream: Stream,
    block_bytes: usize,
    log: SpanLog,
    issued: Vec<ScheduledRequest>,
    last_done_ps: u64,
}

impl Feed {
    /// Registers the next request in program order and builds its engine
    /// form. Engines number requests in submission order, so the id is
    /// known before the engine assigns it.
    fn admit(&mut self, addr: u64, op: Op, arrival_ps: u64, tag: u64) -> NewRequest {
        let id = self.issued.len() as u64;
        let data = payload(addr, id, op, self.block_bytes);
        self.issued.push(ScheduledRequest {
            addr,
            op,
            arrival_ps,
            tag: id,
        });
        NewRequest {
            addr,
            op,
            data,
            arrival_ps,
            tag,
        }
    }

    /// Every miss the cores can issue right now (fp-sim's `drain_issues`).
    fn core_issues(&mut self) -> Vec<NewRequest> {
        let mut out = Vec::new();
        loop {
            self.log.enter("workloads.issue", self.issued.len() as u64);
            let next = match &mut self.stream {
                Stream::Cores(wl) => wl
                    .next_issue_time()
                    .map(|t| (t, wl.issue_at(t).expect("issueable"))),
                _ => None,
            };
            self.log.exit();
            let Some((t, (tagged, op))) = next else {
                return out;
            };
            out.push(self.admit(untag_addr(tagged), op, t, untag_core(tagged) as u64));
        }
    }

    /// Requests that exist before any completion.
    fn initial(&mut self) -> Vec<NewRequest> {
        if matches!(self.stream, Stream::Cores(_)) {
            return self.core_issues();
        }
        self.log.enter("workloads.issue", NONE);
        let burst = match &mut self.stream {
            Stream::Pool(pool) => pool.initial_burst(),
            _ => Vec::new(),
        };
        self.log.exit();
        burst
            .into_iter()
            .map(|r| self.admit(r.addr, r.op, r.arrival_ps, r.client as u64))
            .collect()
    }
}

impl ReactiveSource for Feed {
    fn on_complete(&mut self, c: &Completion) -> Vec<NewRequest> {
        self.log.enter("driver.on_complete", c.id);
        self.last_done_ps = self.last_done_ps.max(c.done_ps);
        let born = match &mut self.stream {
            Stream::Cores(wl) => {
                wl.complete_core(c.tag as usize, c.done_ps);
                self.core_issues()
            }
            Stream::Pool(pool) => {
                self.log.enter("workloads.issue", self.issued.len() as u64);
                let next = pool.on_complete(c.tag as usize, c.done_ps);
                self.log.exit();
                next.map(|r| self.admit(r.addr, r.op, r.arrival_ps, r.client as u64))
                    .into_iter()
                    .collect()
            }
            Stream::Schedule(_) => Vec::new(),
        };
        self.log.exit();
        born
    }
}

/// Runs `stream` to completion on a fresh engine of `scheme`.
///
/// # Panics
///
/// Panics when the engine reports a broken internal invariant.
pub fn run_engine(
    scheme: &Scheme,
    oram: OramConfig,
    dram: DramConfig,
    seed: u64,
    stream: Stream,
    opts: EngineOpts,
) -> EngineRun {
    let block_bytes = oram.block_bytes;
    let background_mw_per_rank = dram.background_mw_per_rank;
    let mut engine = scheme.build(oram, DramSystem::new(dram), seed);
    engine.set_trace_capacity(opts.ring);
    let mut feed = Feed {
        stream,
        block_bytes,
        log: SpanLog::new(opts.spans),
        issued: Vec::new(),
        last_done_ps: 0,
    };

    let started = Instant::now();
    if let Stream::Schedule(schedule) = &mut feed.stream {
        // fp-service's `run_schedule`: in arrival order, admit what has
        // arrived by the engine clock; when idle, fast-forward to the
        // next arrival.
        schedule.sort_by_key(|r| r.arrival_ps);
        let mut pending: VecDeque<ScheduledRequest> = std::mem::take(schedule).into();
        while !pending.is_empty() || engine.has_pending_work() {
            let clock = engine.clock_ps();
            let mut batch = Vec::new();
            while batch.len() < 16 && pending.front().is_some_and(|r| r.arrival_ps <= clock) {
                let r = pending.pop_front().expect("front checked");
                batch.push(feed.admit(r.addr, r.op, r.arrival_ps, r.tag));
            }
            if batch.is_empty() && !engine.has_pending_work() {
                if let Some(r) = pending.pop_front() {
                    batch.push(feed.admit(r.addr, r.op, r.arrival_ps, r.tag));
                }
            }
            if !batch.is_empty() {
                feed.log.enter("engine.submit", NONE);
                engine.submit_batch(batch).expect("engine invariant");
                feed.log.exit();
            }
            feed.log.enter("engine.process_one", NONE);
            engine.process_one(&mut feed).expect("engine invariant");
            feed.log.exit();
        }
    } else {
        // fp-sim's `run_workload`: per-request submits (each pumps the
        // pipeline, as arrivals do in the hardware model), then pump the
        // engine with closed-loop feedback until no work remains.
        for (id, r) in feed.initial().into_iter().enumerate() {
            feed.log.enter("engine.submit", id as u64);
            engine.submit(r).expect("engine invariant");
            feed.log.exit();
        }
        loop {
            feed.log.enter("engine.process_one", NONE);
            let more = engine.process_one(&mut feed).expect("engine invariant");
            feed.log.exit();
            if !more {
                break;
            }
        }
    }
    feed.log.enter("engine.drain", NONE);
    let done = engine.drain_completions();
    feed.log.exit();
    let wall_s = started.elapsed().as_secs_f64();

    let oram = engine.stats().clone();
    let dram = engine.dram().stats().clone();
    let requests = feed.issued.len() as u64;
    let exec_time_ps = feed.last_done_ps.max(oram.finish_time_ps);
    let energy = energy::compute(
        &EnergyParams::default(),
        &dram,
        &oram,
        exec_time_ps,
        engine.dram().total_ranks(),
        background_mw_per_rank,
    );
    let sim = SimMetrics::new(
        oram.avg_latency_ns(),
        exec_time_ps,
        oram.avg_path_len(),
        oram.oram_accesses,
        requests,
        energy.total_pj(),
    );
    // The plain-RAM check, off the clock: expectations in submission
    // order, then every completion by request id.
    let mut oracle = Oracle::expecting(&feed.issued, block_bytes);
    for c in &done {
        oracle.on_reply(c.id, &c.data);
    }
    EngineRun {
        wall_s,
        requests,
        counters: Counter::ALL
            .iter()
            .map(|&c| engine.trace().counter(c))
            .collect(),
        stash_high_water: engine.stash_high_water(),
        oram,
        dram,
        sim,
        checked: oracle.finish(),
        spans: feed.log,
        issued: feed.issued,
    }
}
