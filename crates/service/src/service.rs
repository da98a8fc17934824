//! The service front end: shard spawning, request routing, drain/shutdown,
//! and fail-fast supervision.
//!
//! [`OramService::serve`] runs the external-submission mode: shard workers
//! block on their bounded queues while a caller-supplied driver submits
//! requests through a [`ServiceHandle`], and each worker hands every
//! completion to the caller's sink on its own thread. When the driver
//! returns, queues close, workers drain in-flight work, and the scope
//! joins them — shutdown cannot deadlock because `close()` wakes every
//! blocked consumer, drops every expectation of a replay, and the queue
//! ends its worker's loop once closed-and-empty. [`OramService::replay`]
//! is the same run with a script of stamps the queues expect.
//!
//! Workers are *supervised*: a controller error or a panic inside one
//! shard marks that shard [`ShardHealth::Dead`] (closing its queue so
//! producers get [`SubmitError::ShardDown`] instead of spinning on
//! `Busy`), while the surviving shards keep serving. The dying worker
//! answers every request it had accepted with
//! [`CompletionStatus::ShardDown`](crate::CompletionStatus::ShardDown), so
//! the sink sees exactly one completion per accepted request, dead shards
//! included. The run then returns
//! [`ServeError::Shards`] carrying every failure *and* the partial
//! aggregate statistics — a fault never panics the caller or hangs the
//! scope. Shard health is read from the stats snapshot
//! ([`ServiceHandle::stats`], `per_shard[i].health`).
//!
//! [`OramService::run_trace`] runs the deterministic trace-replay mode:
//! each shard serves its part of a pre-generated request list, so results
//! are a pure function of the list and the configuration. All three run
//! one shard worker loop through one supervised run.
//! [`OramService::run_closed_loop`] runs the deterministic load mode: each
//! shard embeds a seeded client pool driven by its own completions in
//! simulated time, so results are a pure function of the configuration.

use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use fp_workloads::service::ServiceClientPool;
use fp_workloads::BenchmarkProfile;

use crate::config::ServiceConfig;
use crate::request::{ServiceCompletion, ServiceRequest, SubmitError};
use crate::shard::{ShardEngine, ShardShared};
use crate::stats::{ServiceStats, ShardSnapshot};
use crate::sync::relock;

/// One shard's abnormal exit, as observed by the supervisor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardFailure {
    /// Which shard died.
    pub shard: usize,
    /// `true` when the worker panicked; `false` for a controller error.
    pub panicked: bool,
    /// Human-readable failure description.
    pub error: String,
}

impl std::fmt::Display for ShardFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = if self.panicked { "panicked" } else { "failed" };
        write!(f, "shard {} {kind}: {}", self.shard, self.error)
    }
}

/// Why a service run did not finish cleanly.
#[derive(Debug)]
pub enum ServeError {
    /// The configuration failed validation; nothing was spawned.
    Config(String),
    /// One or more shard workers died. The surviving shards completed
    /// their drain normally; `stats` carries the partial aggregate
    /// (including the dead shards' counters up to the failure).
    Shards {
        /// Every abnormal worker exit, in shard order.
        failures: Vec<ShardFailure>,
        /// Partial statistics captured after the scope joined.
        stats: Box<ServiceStats>,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Config(e) => write!(f, "invalid service config: {e}"),
            ServeError::Shards { failures, .. } => {
                write!(f, "{} shard worker(s) died: ", failures.len())?;
                for (i, fail) in failures.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    write!(f, "{fail}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// Submission handle passed to the driver of [`OramService::serve`].
/// Cloneable across driver threads.
#[derive(Clone)]
pub struct ServiceHandle {
    cfg: Arc<ServiceConfig>,
    shards: Arc<Vec<Arc<ShardShared>>>,
}

impl ServiceHandle {
    /// Routes `req` (global address) to its owning shard.
    ///
    /// # Errors
    ///
    /// [`SubmitError::OutOfRange`] for addresses outside the global space,
    /// [`SubmitError::Busy`] when the target shard's queue is full, and
    /// whatever its queue was closed for once it is:
    /// [`SubmitError::ShardDown`] when the owning shard's worker has died
    /// (final — retrying cannot help), [`SubmitError::Shutdown`] once
    /// draining has begun. [`SubmitError::Unscripted`] in a replay.
    pub fn submit(&self, req: ServiceRequest) -> Result<usize, SubmitError> {
        self.submit_scripted(None, req)
    }

    /// [`ServiceHandle::submit`], or with `Some(i)` entry `i` of the
    /// script [`OramService::replay`] runs: [`SubmitError::Unscripted`]
    /// unless its shard still expects that entry's stamp.
    pub fn submit_scripted(
        &self,
        index: Option<usize>,
        mut req: ServiceRequest,
    ) -> Result<usize, SubmitError> {
        if req.addr >= self.cfg.oram.data_blocks {
            return Err(SubmitError::OutOfRange);
        }
        let shard = self.cfg.shard_of(req.addr);
        req.addr = self.cfg.local_addr(req.addr);
        let shared = &self.shards[shard];
        match shared.queue.push(req, index.map(|i| i as u64)) {
            Ok(()) => {
                shared.note_enqueued();
                Ok(shard)
            }
            Err(e) => {
                if e == SubmitError::Busy {
                    shared.note_rejected();
                }
                Err(e)
            }
        }
    }

    /// Begins the drain, as [`OramService::serve`] does when its driver
    /// returns: the queues refuse new work with [`SubmitError::Shutdown`]
    /// and stop waiting for a replay's unsent requests.
    pub fn drain(&self) {
        for shared in self.shards.iter() {
            shared.queue.close(SubmitError::Shutdown);
        }
    }

    /// Point-in-time aggregate statistics (wall time reported as 0; the
    /// final stats from [`OramService::serve`] carry the real duration).
    /// The one read path for shard health: `per_shard[i].health`.
    pub fn stats(&self) -> ServiceStats {
        OramService::snapshot(&self.cfg, &self.shards, 0)
    }

    /// The service configuration (global geometry, scheme, limits) —
    /// read-only, for front ends that advertise it to clients.
    pub fn config(&self) -> &ServiceConfig {
        &self.cfg
    }
}

/// The sharded ORAM service. See the crate docs for its run modes.
pub struct OramService;

impl OramService {
    fn build(cfg: &ServiceConfig) -> (Vec<ShardEngine>, Vec<Arc<ShardShared>>) {
        let mut engines = Vec::with_capacity(cfg.shards);
        let mut shareds = Vec::with_capacity(cfg.shards);
        for shard in 0..cfg.shards {
            let (engine, shared) = ShardEngine::new(cfg, shard);
            engines.push(engine);
            shareds.push(shared);
        }
        (engines, shareds)
    }

    fn snapshot(cfg: &ServiceConfig, shards: &[Arc<ShardShared>], wall_ns: u64) -> ServiceStats {
        let snaps = shards
            .iter()
            .enumerate()
            .map(|(i, s)| ShardSnapshot::capture(i, s))
            .collect();
        ServiceStats::aggregate(cfg.shards, cfg.queue_depth, snaps, wall_ns)
    }

    /// The supervisor every run mode shares: spawns one worker per shard
    /// (`job_for(shard)` builds the worker's job on the calling thread,
    /// just before its spawn), runs `driver` on the calling thread, joins
    /// the workers and snapshots the shards. A job that fails has already
    /// caught its error or panic and marked its shard dead (the contract
    /// of `ShardEngine::run` and `run_closed_loop`, kept by
    /// `ShardEngine::or_fail`).
    fn supervise<J, R>(
        cfg: &ServiceConfig,
        engines: Vec<ShardEngine>,
        shards: &[Arc<ShardShared>],
        mut job_for: impl FnMut(usize) -> J,
        driver: impl FnOnce() -> R,
    ) -> Result<(ServiceStats, R), ServeError>
    where
        J: FnOnce(ShardEngine) -> Result<(), ShardFailure> + Send,
    {
        // wall_requests_per_sec only: measures real serving throughput and
        // never feeds back into the simulation.
        #[expect(clippy::disallowed_methods)]
        let start = Instant::now();
        let (out, failures) = std::thread::scope(|scope| {
            let workers: Vec<_> = engines
                .into_iter()
                .enumerate()
                .map(|(shard, engine)| {
                    let job = job_for(shard);
                    scope.spawn(move || job(engine).err())
                })
                .collect();
            let out = driver();
            let failures: Vec<ShardFailure> = workers
                .into_iter()
                .enumerate()
                .filter_map(|(shard, w)| {
                    // `ShardEngine::or_fail` catches the job's panics, so a
                    // join error means its cleanup itself panicked; record
                    // it rather than panic the supervisor.
                    w.join().unwrap_or_else(|_| {
                        Some(ShardFailure {
                            shard,
                            panicked: true,
                            error: "worker died outside supervision".to_string(),
                        })
                    })
                })
                .collect();
            (out, failures)
        });
        let wall_ns = start.elapsed().as_nanos() as u64;
        let stats = Self::snapshot(cfg, shards, wall_ns);
        if failures.is_empty() {
            Ok((stats, out))
        } else {
            Err(ServeError::Shards {
                failures,
                stats: Box::new(stats),
            })
        }
    }

    /// Runs the service in external-submission mode: spawns one worker per
    /// shard, hands a [`ServiceHandle`] to `driver`, and once the driver
    /// returns closes all queues, drains in-flight work, and joins the
    /// workers. Returns the aggregate stats and the driver's result.
    ///
    /// Every completion goes to `sink`, which the owning shard's worker
    /// calls on its own thread, once for each request
    /// [`ServiceHandle::submit`] accepted, with the global address. The
    /// call may come before `submit` returns, and the last ones after
    /// `driver` has returned, until `serve` itself returns. The sink must
    /// not block or panic: the worker serves nothing else meanwhile.
    ///
    /// Workers are supervised: a controller failure or panic in one shard
    /// marks it dead and closes its queue *immediately* (producers see
    /// [`SubmitError::ShardDown`]), while the other shards keep serving
    /// and drain normally. The dead shard answers every request it had
    /// accepted and not yet answered with
    /// [`CompletionStatus::ShardDown`](crate::CompletionStatus::ShardDown).
    ///
    /// # Errors
    ///
    /// [`ServeError::Config`] before anything is spawned;
    /// [`ServeError::Shards`] when workers died — it still carries the
    /// partial aggregate statistics (the driver's result is dropped).
    pub fn serve<R>(
        cfg: ServiceConfig,
        sink: impl Fn(ServiceCompletion) + Sync,
        driver: impl FnOnce(&ServiceHandle) -> R,
    ) -> Result<(ServiceStats, R), ServeError> {
        Self::run(cfg, |_, _| Ok(()), sink, driver)
    }

    /// Runs [`OramService::serve`] as the replay of `script`, a run's
    /// requests in input order: entry `i` is submitted by
    /// [`ServiceHandle::submit_scripted`]`(Some(i), ..)`, stamped
    /// `script[i].arrival_ps`, to the shard of `script[i].addr`. Shards
    /// admit by the script's stamps, not by when submissions reach them,
    /// so the run's completions, per-shard fingerprints and latency
    /// histogram are [`OramService::run_trace`]'s over `script`, however
    /// many threads submit it in whatever order.
    ///
    /// Precondition: `queue_depth` holds whatever a shard has received
    /// and not admitted, and no submitter holds a request back until
    /// another is answered — a binding window is a closed loop, not a
    /// replay. An unsent entry stalls its shard until the drain begins.
    ///
    /// # Errors
    ///
    /// As [`OramService::serve`]'s.
    pub fn replay<R>(
        cfg: ServiceConfig,
        script: &[ServiceRequest],
        sink: impl Fn(ServiceCompletion) + Sync,
        driver: impl FnOnce(&ServiceHandle) -> R,
    ) -> Result<(ServiceStats, R), ServeError> {
        let prepare = |cfg: &ServiceConfig, shards: &[Arc<ShardShared>]| {
            let mut keys = vec![Vec::new(); cfg.shards];
            for (i, req) in script.iter().enumerate() {
                keys[cfg.shard_of(req.addr)].push((req.arrival_ps, i as u64));
            }
            for (shared, keys) in shards.iter().zip(keys) {
                shared.queue.expect(keys);
            }
            Ok(())
        };
        Self::run(cfg, prepare, sink, driver)
    }

    /// Runs the deterministic trace-replay mode: `requests` (global
    /// addresses) are partitioned across the shards up front, and each
    /// shard's queue receives its slice whole before its worker starts —
    /// no queue backpressure or host-thread timing effects, so the
    /// outcome is a pure function of the request list and the
    /// configuration. This is the mode the Zipfian service workload and
    /// the coalescing benchmarks use: duplicate-address requests genuinely
    /// overlap in flight, which the closed-loop harness (disjoint
    /// per-client regions) can never produce. Returns the aggregate
    /// statistics and every completion, with addresses mapped back to the
    /// global space.
    ///
    /// # Errors
    ///
    /// [`ServeError::Config`] for invalid configurations or a request
    /// address outside the global space; [`ServeError::Shards`] when
    /// workers died, carrying the partial statistics but no completions.
    pub fn run_trace(
        cfg: ServiceConfig,
        requests: Vec<ServiceRequest>,
    ) -> Result<(ServiceStats, Vec<ServiceCompletion>), ServeError> {
        let prepare = |cfg: &ServiceConfig, shards: &[Arc<ShardShared>]| {
            let mut per_shard = vec![Vec::new(); cfg.shards];
            for mut req in requests {
                if req.addr >= cfg.oram.data_blocks {
                    return Err(ServeError::Config(format!(
                        "trace address {} outside the {}-block global space",
                        req.addr, cfg.oram.data_blocks
                    )));
                }
                let shard = cfg.shard_of(req.addr);
                req.addr = cfg.local_addr(req.addr);
                per_shard[shard].push(req);
            }
            for (shared, schedule) in shards.iter().zip(per_shard) {
                shared.preload(schedule);
            }
            Ok(())
        };
        let done = Mutex::new(Vec::new());
        let sink = |c: ServiceCompletion| relock(&done).push(c);
        let (stats, ()) = Self::run(cfg, prepare, sink, |_| ())?;
        let mut done = done.into_inner().unwrap_or_else(PoisonError::into_inner);
        // Stable: each shard's answers keep their order, so the list does
        // not depend on how the workers interleaved.
        done.sort_by_key(|c| c.shard);
        Ok((stats, done))
    }

    /// Every mode but closed loop: builds the shards, `prepare`s their
    /// queues and supervises their worker loops; `driver`, then the
    /// drain, on the calling thread.
    fn run<R>(
        cfg: ServiceConfig,
        prepare: impl FnOnce(&ServiceConfig, &[Arc<ShardShared>]) -> Result<(), ServeError>,
        sink: impl Fn(ServiceCompletion) + Sync,
        driver: impl FnOnce(&ServiceHandle) -> R,
    ) -> Result<(ServiceStats, R), ServeError> {
        cfg.validate().map_err(ServeError::Config)?;
        let (engines, shareds) = Self::build(&cfg);
        prepare(&cfg, &shareds)?;
        let handle = ServiceHandle {
            cfg: Arc::new(cfg),
            shards: Arc::new(shareds),
        };
        let sink = &sink;
        Self::supervise(
            &handle.cfg,
            engines,
            &handle.shards,
            |_| move |engine: ShardEngine| engine.run(sink),
            || {
                let out = driver(&handle);
                handle.drain();
                out
            },
        )
    }

    /// Runs the deterministic closed-loop mode: each shard gets a private
    /// client pool built from `profiles` over its own address slice, with
    /// `total_budget` requests split evenly across shards. Returns once
    /// every pool is exhausted and every shard is idle. Workers are
    /// supervised exactly like [`OramService::serve`]'s.
    ///
    /// # Errors
    ///
    /// [`ServeError::Config`] for invalid configurations (or an empty
    /// profile list); [`ServeError::Shards`] when workers died, carrying
    /// the partial statistics.
    pub fn run_closed_loop(
        cfg: ServiceConfig,
        profiles: &[BenchmarkProfile],
        total_budget: u64,
    ) -> Result<ServiceStats, ServeError> {
        cfg.validate().map_err(ServeError::Config)?;
        if profiles.is_empty() {
            return Err(ServeError::Config(
                "closed-loop mode needs at least one profile".into(),
            ));
        }
        let (engines, shareds) = Self::build(&cfg);
        let n = cfg.shards as u64;
        let job_for = |shard: usize| {
            let budget = total_budget / n + u64::from((shard as u64) < total_budget % n);
            let pool = ServiceClientPool::from_profiles(
                profiles,
                cfg.shard_blocks(),
                budget,
                // Pool seed decorrelated from the controller seed.
                cfg.shard_seed(shard) ^ 0xC1EE_7C1E_E7C1_EE7C,
            );
            move |engine: ShardEngine| engine.run_closed_loop(pool)
        };
        Self::supervise(&cfg, engines, &shareds, job_for, || ()).map(|(stats, ())| stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::CompletionStatus;
    use crate::shard::ShardHealth;
    use fp_workloads::mixes;

    #[test]
    fn serve_round_trips_requests() {
        let cfg = ServiceConfig::fast_test(2);
        let blocks = cfg.oram.data_blocks;
        let (stats, collected) = OramService::serve(
            cfg,
            |_| {},
            |h| {
                let mut accepted = 0u64;
                for i in 0..64u64 {
                    let addr = (i * 37) % blocks;
                    loop {
                        match h.submit(ServiceRequest::read(addr, i * 1_000_000, i)) {
                            Ok(_) => break,
                            Err(SubmitError::Busy) => std::thread::yield_now(),
                            Err(e) => panic!("unexpected: {e}"),
                        }
                    }
                    accepted += 1;
                }
                accepted
            },
        )
        .unwrap();
        assert_eq!(collected, 64);
        assert_eq!(stats.enqueued(), 64);
        assert_eq!(stats.completed(), 64);
        assert_eq!(stats.expired(), 0);
        assert!(stats.sim_finish_ps() > 0);
        assert!(stats.latency.count() >= 64);
    }

    #[test]
    fn out_of_range_is_rejected_before_routing() {
        let cfg = ServiceConfig::fast_test(1);
        let blocks = cfg.oram.data_blocks;
        let ((), ()) = OramService::serve(
            cfg,
            |_| {},
            |h| {
                assert_eq!(
                    h.submit(ServiceRequest::read(blocks, 0, 0)),
                    Err(SubmitError::OutOfRange)
                );
            },
        )
        .map(|(_, out)| ((), out))
        .unwrap();
    }

    #[test]
    fn completions_report_global_addresses() {
        let cfg = ServiceConfig::fast_test(4);
        let addrs: Vec<u64> = vec![0, 1, 2, 3, 5, 8, 13, 21];
        let submitted = addrs.clone();
        let done = Mutex::new(Vec::new());
        OramService::serve(
            cfg,
            |c| relock(&done).push(c),
            move |h| {
                for (i, &a) in submitted.iter().enumerate() {
                    while h.submit(ServiceRequest::read(a, 0, i as u64)) == Err(SubmitError::Busy) {
                        std::thread::yield_now();
                    }
                }
            },
        )
        .unwrap();
        let done = done.into_inner().unwrap();
        let mut got: Vec<u64> = done.iter().map(|c| c.addr).collect();
        got.sort_unstable();
        assert_eq!(got, addrs);
        assert!(done.iter().all(|c| c.status == CompletionStatus::Ok));
    }

    #[test]
    fn trace_replay_completes_everything_and_restores_global_addresses() {
        let mut cfg = ServiceConfig::fast_test(2);
        cfg.coalesce = true;
        let reqs: Vec<ServiceRequest> = (0..40u64)
            .map(|i| ServiceRequest::read((i * 3) % 16, i * 1_000_000, i))
            .collect();
        let (stats, done) = OramService::run_trace(cfg.clone(), reqs.clone()).unwrap();
        assert_eq!(stats.enqueued(), 40);
        assert_eq!(stats.completed(), 40);
        assert_eq!(done.len(), 40);
        assert!(
            done.iter().all(|c| c.addr < 16),
            "addresses are global again"
        );
        // Pure function of (config, request list).
        let (stats2, _) = OramService::run_trace(cfg, reqs).unwrap();
        assert_eq!(stats.fingerprint(), stats2.fingerprint());
    }

    #[test]
    fn handle_reads_health_from_the_stats_snapshot() {
        let cfg = ServiceConfig::fast_test(2);
        OramService::serve(
            cfg,
            |_| {},
            |h| {
                assert_eq!(h.config().shards, 2);
                let stats = h.stats();
                assert_eq!(stats.per_shard.len(), 2);
                assert_eq!(stats.per_shard[1].health, ShardHealth::Healthy);
            },
        )
        .unwrap();
    }

    #[test]
    fn trace_replay_rejects_out_of_range_addresses() {
        let cfg = ServiceConfig::fast_test(1);
        let blocks = cfg.oram.data_blocks;
        let err = OramService::run_trace(cfg, vec![ServiceRequest::read(blocks, 0, 0)]);
        assert!(matches!(err, Err(ServeError::Config(_))));
    }

    #[test]
    fn closed_loop_runs_to_exhaustion() {
        let cfg = ServiceConfig::fast_test(2);
        let stats = OramService::run_closed_loop(cfg, &mixes::all()[0].programs, 300).unwrap();
        assert_eq!(stats.enqueued(), 300);
        assert_eq!(stats.completed(), 300);
        assert!(stats.sim_requests_per_sec() > 0.0);
        assert!(stats.wall_ns > 0);
    }
}
