//! Integration tests for the fault-tolerance subsystem: deterministic
//! fault injection (`fp_core::FaultInjector`) driving the fp-service
//! supervision paths. The scenarios the serving layer must survive:
//!
//! * a hard integrity fault kills one shard — producers get `ShardDown`
//!   (not an endless `Busy` livelock), survivors keep serving, and `serve`
//!   returns a structured [`ServeError::Shards`] with partial stats;
//! * a worker panic is caught, the shard is marked dead, and the final
//!   snapshot survives (poison-tolerant locks) instead of cascading;
//! * however the shard dies, every request it accepted gets exactly one
//!   completion (`ShardDown` when it was not served), so the ledger
//!   closes on the dead shard too;
//! * a forced stash overflow surfaces the Path ORAM failure mode as a
//!   structured error;
//! * transient faults absorbed by retries leave the run `Ok` but the
//!   affected shards report `Degraded` with nonzero fault counters;
//! * at fault rate 0.0 the injector is byte-identical to the bare engine
//!   (propcheck property over random schemes/seeds/streams).
//!
//! Every serve-based test runs under a watchdog thread so a regression to
//! the old dead-shard hang fails the test quickly instead of wedging CI.

// Watchdog deadlines only: a livelock fails the test instead of hanging
// CI; no wall time reaches a simulated measurement.
#![allow(clippy::disallowed_methods)]

mod common;

use std::collections::HashMap;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use common::{small_cfg, with_watchdog};
use fork_path_oram::core::engine::registry;
use fork_path_oram::core::{FaultConfig, FaultInjector, OramEngine};
use fork_path_oram::dram::{DramConfig, DramSystem};
use fork_path_oram::path_oram::{NewRequest, Op, OramConfig};
use fork_path_oram::propcheck::{run_cases, Gen};
use fork_path_oram::service::{
    CompletionStatus, OramService, ServeError, ServiceRequest, ShardEngine, ShardHealth,
    ShardSnapshot, SubmitError,
};
use fork_path_oram::trace::Counter;
use fork_path_oram::workloads::mixes;

// ---------- hard fault: fail-fast + survivor continuity --------------

/// A mid-run hard integrity fault on shard 0 must (a) surface
/// `SubmitError::ShardDown` to producers instead of letting them retry
/// `Busy` forever, (b) leave shard 1 serving and `Healthy`, and (c) turn
/// the run into a structured `ServeError::Shards` carrying partial stats —
/// no panic, no hang.
#[test]
fn integrity_failure_kills_one_shard_while_survivor_serves() {
    let err = with_watchdog("integrity-failover", 120, || {
        let mut cfg = small_cfg(2);
        cfg.fault = Some(FaultConfig {
            fail_at_access: Some(4),
            ..FaultConfig::default()
        });
        cfg.fault_shard = Some(0);
        let mut saw_down = false;
        let mut survivor_accepted = 0u64;
        let err = OramService::serve(
            cfg,
            |_| {},
            |h| {
                // Feed both shards; with 2 shards, even addresses route to
                // shard 0 (the doomed one) and odd to shard 1 (the survivor).
                let deadline = Instant::now() + Duration::from_secs(60);
                let mut tag = 0u64;
                while Instant::now() < deadline {
                    match h.submit(ServiceRequest::read(0, 0, tag)) {
                        Err(SubmitError::ShardDown) => saw_down = true,
                        Ok(_) | Err(SubmitError::Busy) => {}
                        Err(e) => panic!("unexpected submit error: {e}"),
                    }
                    if h.submit(ServiceRequest::read(1, 0, tag)).is_ok() {
                        survivor_accepted += 1;
                    }
                    tag += 1;
                    if saw_down && survivor_accepted >= 16 {
                        break;
                    }
                    std::thread::yield_now();
                }
            },
        )
        .expect_err("a dead shard must fail the run");
        assert!(
            saw_down,
            "dead shard must surface ShardDown, not endless Busy"
        );
        assert!(survivor_accepted >= 16, "survivor must keep accepting");
        err
    });
    match err {
        ServeError::Shards { failures, stats } => {
            assert_eq!(failures.len(), 1, "exactly one shard died");
            assert_eq!(failures[0].shard, 0);
            assert!(!failures[0].panicked);
            assert!(
                failures[0].error.contains("integrity"),
                "unexpected failure text: {}",
                failures[0].error
            );
            assert_eq!(stats.shards_with_health(ShardHealth::Dead), 1);
            assert_eq!(stats.shards_with_health(ShardHealth::Healthy), 1);
            assert_eq!(stats.counter(Counter::ShardFailovers), 1);
            assert_eq!(stats.per_shard[0].health, ShardHealth::Dead);
            assert!(
                stats.per_shard[0]
                    .fault
                    .as_deref()
                    .is_some_and(|f| f.contains("integrity")),
                "dead shard records its fault"
            );
            // The survivor drained everything it accepted.
            assert_eq!(stats.per_shard[1].health, ShardHealth::Healthy);
            assert!(stats.per_shard[1].counters.completed >= 16);
            // Partial stats still serialize.
            fork_path_oram::stats::json::validate(&stats.to_json()).unwrap();
        }
        other => panic!("expected ServeError::Shards, got: {other}"),
    }
}

// ---------- worker panic: supervision + poison tolerance -------------

/// An injected worker panic must be caught by the supervisor: the run
/// returns `ServeError::Shards` with `panicked = true` and partial stats
/// (instead of the old cascading `expect("counters poisoned")` panic in
/// the final snapshot), and the survivor still completes its work.
#[test]
fn worker_panic_yields_structured_error_with_partial_stats() {
    let err = with_watchdog("panic-supervision", 120, || {
        let mut cfg = small_cfg(2);
        cfg.fault = Some(FaultConfig {
            panic_at_access: Some(2),
            ..FaultConfig::default()
        });
        cfg.fault_shard = Some(0);
        OramService::serve(
            cfg,
            |_| {},
            |h| {
                for tag in 0..16u64 {
                    for addr in [0u64, 1] {
                        while h.submit(ServiceRequest::read(addr, 0, tag)) == Err(SubmitError::Busy)
                        {
                            std::thread::yield_now();
                        }
                    }
                }
            },
        )
        .expect_err("a panicking worker must fail the run")
    });
    match err {
        ServeError::Shards { failures, stats } => {
            assert_eq!(failures.len(), 1);
            assert_eq!(failures[0].shard, 0);
            assert!(failures[0].panicked);
            assert!(
                failures[0].error.contains("injected worker panic"),
                "unexpected panic text: {}",
                failures[0].error
            );
            assert_eq!(stats.per_shard[0].health, ShardHealth::Dead);
            assert_eq!(stats.per_shard[1].health, ShardHealth::Healthy);
            // The survivor's 16 submissions all completed.
            assert!(stats.per_shard[1].counters.completed >= 16);
            assert!(stats.counter(Counter::FaultsInjected) >= 1);
        }
        other => panic!("expected ServeError::Shards, got: {other}"),
    }
}

/// Poison recovery at the lock level: a thread that panics while holding
/// the shared counter lock must not take the snapshot (or the front-end
/// accounting) down with it.
#[test]
fn snapshot_survives_poisoned_shard_locks() {
    let cfg = small_cfg(1);
    let (_engine, shared) = ShardEngine::new(&cfg, 0);
    shared.note_enqueued();
    // Poison the front-end mutex.
    for _ in 0..2 {
        let shared = &shared;
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _counters = shared.counters.lock().unwrap();
            panic!("poison the counters lock");
        }));
    }
    assert!(shared.counters.is_poisoned());
    // Accounting and snapshots keep working on the poisoned locks.
    shared.note_enqueued();
    let snap = ShardSnapshot::capture(0, &shared);
    assert_eq!(snap.counters.enqueued, 2);
    assert_eq!(snap.health, ShardHealth::Healthy);
}

// ---------- the ledger closes on a dead shard ------------------------

/// Kills shard 0 of two at its fifth access (`fault`, with or without
/// coalescing) while 64 requests over eight hot addresses are in flight,
/// then takes completions from the sink's channel until every accepted
/// tag is answered (the watchdog bounds the wait: a stranded request
/// hangs it). Returns each accepted tag's shard, each answer's status,
/// any completion published after the driver returned, and the run's
/// error.
fn kill_shard_zero(
    name: &'static str,
    fault: FaultConfig,
    coalesce: bool,
) -> (
    HashMap<u64, usize>,
    HashMap<u64, CompletionStatus>,
    usize,
    ServeError,
) {
    with_watchdog(name, 60, move || {
        let mut cfg = small_cfg(2);
        cfg.fault = Some(fault);
        cfg.fault_shard = Some(0);
        cfg.coalesce = coalesce;
        let mut accepted = HashMap::new();
        let mut answers = HashMap::new();
        let (tx, rx) = mpsc::channel();
        let sink = move |c| {
            let _ = tx.send(c);
        };
        let err = OramService::serve(cfg, sink, |h| {
            for tag in 0..64u64 {
                loop {
                    match h.submit(ServiceRequest::read(tag % 8, 0, tag)) {
                        Ok(shard) => {
                            accepted.insert(tag, shard);
                            break;
                        }
                        Err(SubmitError::Busy) => std::thread::yield_now(),
                        Err(SubmitError::ShardDown) => break,
                        Err(e) => panic!("unexpected submit error: {e}"),
                    }
                }
            }
            while answers.len() < accepted.len() {
                let c = rx.recv().expect("the sink lives until serve returns");
                assert!(
                    accepted.contains_key(&c.tag),
                    "tag {} never accepted",
                    c.tag
                );
                assert!(
                    answers.insert(c.tag, c.status).is_none(),
                    "tag {} answered twice",
                    c.tag
                );
            }
        })
        .expect_err("a dead shard must fail the run");
        let late = rx.try_iter().count();
        (accepted, answers, late, err)
    })
}

/// In `serve` mode every request `submit` accepted gets exactly one
/// completion, dead shard included, whether the shard died of a controller
/// error or a panic, with coalescing off and on. The survivor answers all
/// of its requests `Ok`; the dead shard answers `Ok` (served before the
/// death) or `ShardDown`, nothing else; and `enqueued == completed +
/// expired + failed` on each shard.
#[test]
fn dead_shard_answers_every_accepted_request_once() {
    let error = FaultConfig {
        fail_at_access: Some(4),
        ..FaultConfig::default()
    };
    let panic = FaultConfig {
        panic_at_access: Some(4),
        ..FaultConfig::default()
    };
    for (name, fault, coalesce) in [
        ("ledger-error", error.clone(), false),
        ("ledger-panic", panic, false),
        ("ledger-error-coalesced", error, true),
    ] {
        let (accepted, answers, late, err) = kill_shard_zero(name, fault, coalesce);
        assert_eq!(answers.len(), accepted.len(), "{name}: one answer per tag");
        assert_eq!(late, 0, "{name}: nothing published after the drain");
        let mut shard_down = 0;
        for (tag, status) in &answers {
            match (accepted[tag], status) {
                (_, CompletionStatus::Ok) => {}
                (0, CompletionStatus::ShardDown) => shard_down += 1,
                (shard, s) => panic!("{name}: tag {tag} on shard {shard} answered {}", s.name()),
            }
        }
        assert!(shard_down > 0, "{name}: stranded requests answer ShardDown");
        let ServeError::Shards { failures, stats } = err else {
            panic!("{name}: expected ServeError::Shards, got: {err}");
        };
        assert_eq!(failures.len(), 1, "{name}");
        assert_eq!(failures[0].shard, 0, "{name}");
        assert_eq!(
            stats.failed(),
            shard_down,
            "{name}: failed counts ShardDown"
        );
        for s in &stats.per_shard {
            let c = &s.counters;
            assert_eq!(
                c.enqueued,
                c.completed + c.expired + c.failed,
                "{name}: shard {} ledger open: {c:?}",
                s.shard
            );
        }
    }
}

// ---------- stash overflow ------------------------------------------

/// Path ORAM's inherent failure mode, forced deterministically: the run
/// ends with a structured stash-overflow error, not a panic or a hang.
#[test]
fn forced_stash_overflow_surfaces_structured_error() {
    let err = with_watchdog("stash-overflow", 120, || {
        let mut cfg = small_cfg(1);
        cfg.fault = Some(FaultConfig {
            overflow_at_access: Some(1),
            ..FaultConfig::default()
        });
        OramService::serve(
            cfg,
            |_| {},
            |h| {
                for tag in 0..8u64 {
                    while h.submit(ServiceRequest::read(tag * 3, 0, tag)) == Err(SubmitError::Busy)
                    {
                        std::thread::yield_now();
                    }
                }
            },
        )
        .expect_err("forced overflow must fail the run")
    });
    match err {
        ServeError::Shards { failures, .. } => {
            assert_eq!(failures.len(), 1);
            assert!(!failures[0].panicked);
            assert!(
                failures[0].error.contains("stash overflow"),
                "unexpected failure text: {}",
                failures[0].error
            );
        }
        other => panic!("expected ServeError::Shards, got: {other}"),
    }
}

// ---------- transient faults: degraded, not dead ---------------------

/// Transient faults absorbed by the retry budget leave the run `Ok`: the
/// full budget completes, affected shards report `Degraded`, the fault
/// counters are nonzero, and nothing failed over. Rerunning reproduces the
/// identical outcome (fault injection is part of the deterministic seed).
#[test]
fn absorbed_transient_faults_degrade_but_complete() {
    let run = || {
        let mut cfg = small_cfg(2);
        let mut fault = FaultConfig::transient(0xD15EA5E, 0.25);
        fault.max_retries = 12; // survival probability ~1 per access
        cfg.fault = Some(fault);
        OramService::run_closed_loop(cfg, &mixes::all()[0].programs, 200)
            .expect("deep retries must absorb every fault")
    };
    let stats = run();
    assert_eq!(stats.completed(), 200);
    assert!(
        stats.counter(Counter::FaultsInjected) > 0,
        "rate 0.25 must fire"
    );
    assert!(stats.counter(Counter::FaultRetries) >= stats.counter(Counter::FaultsInjected));
    assert_eq!(stats.counter(Counter::ShardFailovers), 0);
    assert_eq!(stats.shards_with_health(ShardHealth::Dead), 0);
    assert!(
        stats.shards_with_health(ShardHealth::Degraded) >= 1,
        "shards that absorbed faults must report degraded"
    );
    assert_eq!(
        stats.fingerprint(),
        run().fingerprint(),
        "fault injection must be deterministic per seed"
    );
}

/// Health is derived while the shard serves, not settled when its worker
/// exits: once transient faults were injected and absorbed, a stats
/// snapshot taken mid-run — every submitted request answered, the workers
/// still blocked on their queues — already reports the shard `Degraded`.
#[test]
fn degraded_health_is_visible_while_the_shard_serves() {
    const REQUESTS: u64 = 64;
    let live = with_watchdog("degraded-while-serving", 60, || {
        let mut cfg = small_cfg(2);
        let mut fault = FaultConfig::transient(0xD15EA5E, 0.25);
        fault.max_retries = 12; // survival probability ~1 per access
        cfg.fault = Some(fault);
        let (tx, rx) = mpsc::channel();
        let sink = move |c| {
            let _ = tx.send(c);
        };
        let (_, live) = OramService::serve(cfg, sink, |h| {
            for tag in 0..REQUESTS {
                while h.submit(ServiceRequest::read(tag * 5, 0, tag)) == Err(SubmitError::Busy) {
                    std::thread::yield_now();
                }
            }
            for _ in 0..REQUESTS {
                let c = rx.recv().expect("the sink lives until serve returns");
                assert_eq!(c.status, CompletionStatus::Ok, "tag {}", c.tag);
            }
            h.stats()
        })
        .expect("deep retries must absorb every fault");
        live
    });
    assert_eq!(live.completed(), REQUESTS);
    assert!(
        live.counter(Counter::FaultsInjected) > 0,
        "rate 0.25 must fire"
    );
    assert_eq!(live.shards_with_health(ShardHealth::Dead), 0);
    assert!(
        live.shards_with_health(ShardHealth::Degraded) >= 1,
        "a shard that absorbed faults reports degraded while it serves"
    );
}

// ---------- rate 0.0 transparency ------------------------------------

/// Propcheck property: a `FaultInjector` at fault rate 0.0 (no triggers)
/// is byte-identical to the bare engine — same completions, same stats,
/// same clock, same stash high-water — across random schemes, seeds, and
/// request streams.
#[test]
fn fault_injector_at_rate_zero_is_transparent() {
    run_cases("fault-injector-rate-zero-identity", 6, |g: &mut Gen| {
        let reg = registry();
        let scheme = reg[g.range_usize(0, reg.len() - 1)].1.clone();
        let seed = g.below(u64::MAX);
        let blocks = OramConfig::small_test().data_blocks;
        let reqs: Vec<NewRequest> = (0..g.range(32, 96))
            .map(|i| NewRequest {
                addr: g.below(blocks),
                op: Op::Read,
                data: Vec::new(),
                arrival_ps: i * 750,
                tag: i,
            })
            .collect();
        let build = || {
            let dram = DramSystem::new(DramConfig::ddr3_1600(2));
            scheme.build(OramConfig::small_test(), dram, seed)
        };
        let mut bare = build();
        let mut wrapped = FaultInjector::new(
            build(),
            FaultConfig {
                seed: g.below(u64::MAX),
                ..FaultConfig::default()
            },
        );
        for r in &reqs {
            bare.submit(r.clone()).unwrap();
            wrapped.submit(r.clone()).unwrap();
        }
        let a = bare.run_to_idle().unwrap();
        let b = wrapped.run_to_idle().unwrap();
        assert_eq!(a, b, "completions diverged under a rate-0 injector");
        assert_eq!(bare.clock_ps(), wrapped.clock_ps());
        assert_eq!(bare.stats(), wrapped.stats());
        assert_eq!(bare.stash_high_water(), wrapped.stash_high_water());
    });
}

/// The same transparency at the service level: a configured-but-inert
/// fault injector (rate 0.0) leaves the closed-loop fingerprint identical
/// to an unwrapped run.
#[test]
fn inert_fault_config_leaves_service_fingerprint_unchanged() {
    let run = |fault: Option<FaultConfig>| {
        let mut cfg = small_cfg(2);
        cfg.fault = fault;
        OramService::run_closed_loop(cfg, &mixes::all()[0].programs, 128)
            .expect("closed loop must not fail")
    };
    let bare = run(None);
    let inert = run(Some(FaultConfig::default()));
    assert_eq!(bare.fingerprint(), inert.fingerprint());
    assert_eq!(inert.counter(Counter::FaultsInjected), 0);
    assert_eq!(inert.shards_with_health(ShardHealth::Healthy), 2);
}
