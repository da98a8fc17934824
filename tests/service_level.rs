//! Integration tests for the sharded serving layer (`fp-service`):
//! backpressure, deadline accounting, drain/shutdown under load, shard
//! scaling, and the cross-rerun determinism property the closed-loop mode
//! guarantees.

mod common;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;

use common::{service_request, small_cfg};
use fork_path_oram::core::engine::registry;
use fork_path_oram::propcheck::{run_cases, Gen};
use fork_path_oram::service::{
    CompletionStatus, OramService, ServeError, ServiceCompletion, ServiceConfig, ServiceRequest,
    ServiceStats, SubmitError,
};
use fork_path_oram::trace::Counter;
use fork_path_oram::workloads::{mixes, zipf};

// ---------- configuration ---------------------------------------------

/// A DRAM geometry the model would divide by zero on is refused before
/// anything is spawned, not by a panic on a shard worker's first access.
#[test]
fn dram_geometry_is_validated_with_the_service_config() {
    let mut cfg = small_cfg(2);
    cfg.dram.channels = 0;
    let err = cfg.validate().expect_err("zero channels");
    assert!(err.starts_with("dram config:"), "{err}");
    assert!(matches!(
        OramService::run_trace(cfg, Vec::new()),
        Err(ServeError::Config(_))
    ));
}

// ---------- determinism (the closed-loop property) ------------------

/// Same seed + shard count => bit-identical aggregate trace counters and
/// request accounting, no matter how the host scheduler interleaves the
/// worker threads. This is the property that makes the benchmark's
/// `svc_closed` `sim_*` values exact pins; it holds because each shard's
/// client pool is driven by the shard's own completions in *simulated* time.
#[test]
fn closed_loop_reruns_are_counter_identical() {
    run_cases("service-closed-loop-determinism", 4, |g: &mut Gen| {
        let shards = 1 << g.range(0, 2); // 1, 2, or 4
        let seed = g.below(u64::MAX);
        let budget = g.range(64, 256);
        let run = || {
            let mut cfg = small_cfg(shards as usize);
            cfg.seed = seed;
            OramService::run_closed_loop(cfg, &mixes::all()[0].programs, budget)
                .expect("closed loop must not fail")
        };
        let a = run();
        let b = run();
        assert_eq!(
            a.fingerprint(),
            b.fingerprint(),
            "shards={shards} seed={seed:#x} budget={budget}: reruns diverged"
        );
        assert_eq!(a.completed(), budget);
        assert_eq!(a.sim_finish_ps(), b.sim_finish_ps());
    });
}

/// The scheme-agnostic engine layer end to end: the *same* `ShardEngine`
/// worker path serves every scheme the shared registry names, selected
/// only by `ServiceConfig::scheme`. Every run is rerun-deterministic
/// (identical per-shard fingerprints), and Fork Path's redundancy removal
/// shows up as strictly higher aggregate simulated throughput than
/// traditional Path ORAM's.
#[test]
fn traditional_and_fork_serve_through_the_same_engine_path() {
    let sim_rps: BTreeMap<&str, f64> = registry()
        .into_iter()
        .map(|(name, scheme)| {
            let run = || {
                let mut cfg = small_cfg(4);
                cfg.scheme = scheme.clone();
                OramService::run_closed_loop(cfg, &mixes::all()[0].programs, 512)
                    .unwrap_or_else(|e| panic!("scheme {name}: closed loop failed: {e}"))
            };
            let (a, b) = (run(), run());
            assert_eq!(
                a.fingerprint(),
                b.fingerprint(),
                "scheme {name}: reruns diverged"
            );
            assert_eq!(a.completed(), 512, "scheme {name}");
            (name, a.sim_requests_per_sec())
        })
        .collect();
    let (fork, traditional) = (sim_rps["fork"], sim_rps["traditional"]);
    assert!(
        fork > traditional,
        "fork {fork:.0} req/s must beat traditional {traditional:.0} req/s"
    );
}

// ---------- backpressure --------------------------------------------

/// Flooding one shard faster than it can serve must surface `Busy` to the
/// producer (and count the rejections) rather than blocking or dropping
/// silently; everything accepted still completes.
#[test]
fn overload_surfaces_busy_and_loses_nothing() {
    let mut cfg = small_cfg(1);
    cfg.queue_depth = 4;
    let (stats, (accepted, rejected)) = OramService::serve(
        cfg,
        |_| {},
        |h| {
            let mut accepted = 0u64;
            let mut rejected = 0u64;
            // Push far more than queue_depth with no pacing: most submissions
            // must bounce off the full queue.
            for i in 0..512u64 {
                match h.submit(ServiceRequest::read(i % 4096, 0, i)) {
                    Ok(_) => accepted += 1,
                    Err(SubmitError::Busy) => rejected += 1,
                    Err(e) => panic!("unexpected: {e}"),
                }
            }
            (accepted, rejected)
        },
    )
    .unwrap();
    assert!(
        rejected > 0,
        "a 4-deep queue cannot absorb 512 instant submissions"
    );
    assert_eq!(accepted + rejected, 512);
    assert_eq!(stats.rejected_busy(), rejected);
    assert_eq!(stats.enqueued(), accepted);
    assert_eq!(stats.completed(), accepted, "accepted work must all finish");
}

// ---------- deadlines ------------------------------------------------

/// A request whose deadline already passed at admission is dropped as
/// Expired (no ORAM access); a completion past its deadline counts Late.
#[test]
fn deadlines_classify_expired_and_late() {
    let cfg = small_cfg(1);
    let (stats, ()) = OramService::serve(
        cfg,
        |_| {},
        |h| {
            // Deadline in the past at admission -> Expired.
            let mut dead = ServiceRequest::read(17, 1_000_000, 1);
            dead.deadline_ps = Some(999);
            h.submit(dead).unwrap();
            // A 1 ps deadline cannot cover a multi-microsecond ORAM access ->
            // completes, but Late.
            let mut tight = ServiceRequest::read(33, 0, 2);
            tight.deadline_ps = Some(1);
            // arrival 0 with deadline 1 >= arrival: admitted, then late.
            tight.arrival_ps = 0;
            h.submit(tight).unwrap();
            // No deadline -> plain Ok.
            h.submit(ServiceRequest::read(49, 0, 3)).unwrap();
        },
    )
    .unwrap();
    assert_eq!(stats.expired(), 1);
    assert_eq!(stats.completed_late(), 1);
    assert_eq!(
        stats.completed(),
        2,
        "only served requests count as completed; the expired one does not"
    );
    assert_eq!(
        stats.enqueued(),
        stats.admitted() + stats.expired(),
        "every accepted request is either admitted or shed"
    );
}

/// The accounting ledger balances on randomized runs mixing normal and
/// already-expired requests: every accepted request is either admitted to
/// the ORAM or shed at admission (`enqueued == admitted + expired`), and at
/// drain everything admitted has been served (`completed == admitted`).
/// This is the invariant behind every req/s figure the service reports —
/// expired requests must never inflate the served count.
#[test]
fn accounting_ledger_balances_under_random_expirations() {
    run_cases("service-accounting-ledger", 4, |g: &mut Gen| {
        let shards = 1usize << g.range(0, 2); // 1, 2, or 4
        let total = g.range(48, 160);
        let expired_target = g.range(1, total / 2);
        let cfg = small_cfg(shards);
        let (tx, rx) = mpsc::channel();
        let (stats, ()) = OramService::serve(
            cfg,
            move |c| {
                let _ = tx.send(c);
            },
            |h| {
                for i in 0..total {
                    let mut req = ServiceRequest::read((i * 131) % 4096, 1_000, i);
                    if i < expired_target {
                        // Deadline already passed at the 1000 ps arrival:
                        // shed at admission, never served.
                        req.deadline_ps = Some(1);
                    }
                    while h.submit(req.clone()) == Err(SubmitError::Busy) {
                        std::thread::yield_now();
                    }
                }
            },
        )
        .unwrap();
        let done: Vec<_> = rx.iter().collect();
        assert_eq!(stats.enqueued(), total, "nothing accepted may vanish");
        assert_eq!(stats.expired(), expired_target);
        assert_eq!(
            stats.enqueued(),
            stats.admitted() + stats.expired(),
            "admission ledger must balance"
        );
        assert_eq!(
            stats.completed(),
            stats.admitted(),
            "at drain, everything admitted has been served"
        );
        // The completion stream agrees with the counters, status by status.
        let expired = done
            .iter()
            .filter(|c| c.status == CompletionStatus::Expired)
            .count() as u64;
        assert_eq!(expired, stats.expired());
        assert_eq!(done.len() as u64, stats.completed() + stats.expired());
    });
}

// ---------- drain / shutdown ----------------------------------------

/// Shutdown while producers are still mid-burst and workers mid-access
/// must terminate (no deadlock) and account for every accepted request.
/// The driver returning triggers the drain, so ending it with requests
/// still queued and in flight exercises exactly that window.
#[test]
fn drain_under_load_terminates_and_accounts() {
    let mut cfg = small_cfg(4);
    cfg.queue_depth = 8;
    let accepted = AtomicU64::new(0);
    let (stats, ()) = OramService::serve(
        cfg,
        |_| {},
        |h| {
            for i in 0..256u64 {
                if h.submit(ServiceRequest::read(i % 4096, 0, i)).is_ok() {
                    accepted.fetch_add(1, Ordering::Relaxed);
                }
            }
            // Return immediately: queues are still loaded, shards mid-flight.
        },
    )
    .unwrap();
    let accepted = accepted.load(Ordering::Relaxed);
    assert!(accepted > 0);
    assert_eq!(stats.completed(), accepted, "drain must finish queued work");
    let done_tags: Vec<_> = stats
        .per_shard
        .iter()
        .map(|s| s.counters.completed)
        .collect();
    assert_eq!(done_tags.iter().sum::<u64>(), accepted);
}

/// Submissions after drain has begun are refused with Shutdown, not lost.
#[test]
fn post_drain_submissions_are_refused() {
    let cfg = small_cfg(1);
    let (_, handle) = OramService::serve(cfg, |_| {}, |h| h.clone()).unwrap();
    assert_eq!(
        handle.submit(ServiceRequest::read(1, 0, 0)),
        Err(SubmitError::Shutdown)
    );
}

// ---------- scaling --------------------------------------------------

/// Aggregate *simulated* throughput must grow with the shard count on a
/// fixed workload: shards serve smaller trees and their simulated clocks
/// advance concurrently. (Wall-clock throughput is host-dependent and not
/// asserted here; the benchmark's `svc_closed` workload tracks it.)
#[test]
fn sim_throughput_scales_with_shards() {
    let run = |shards: usize| {
        let cfg = small_cfg(shards);
        OramService::run_closed_loop(cfg, &mixes::all()[0].programs, 512)
            .unwrap()
            .sim_requests_per_sec()
    };
    let one = run(1);
    let two = run(2);
    let four = run(4);
    assert!(one > 0.0);
    assert!(
        two > one,
        "2 shards ({two:.0} req/s) must beat 1 ({one:.0})"
    );
    assert!(
        four > two,
        "4 shards ({four:.0} req/s) must beat 2 ({two:.0})"
    );
}

// ---------- completions ----------------------------------------------

/// Reads round-trip through sharding: completions surface global
/// addresses, correct tags, and Ok status.
#[test]
fn completions_carry_global_addresses_and_tags() {
    let cfg = small_cfg(4);
    let (tx, rx) = mpsc::channel();
    let (stats, ()) = OramService::serve(
        cfg,
        move |c| {
            let _ = tx.send(c);
        },
        |h| {
            for i in 0..32u64 {
                let addr = i * 97 % 4096;
                while h.submit(ServiceRequest::read(addr, 0, addr)) == Err(SubmitError::Busy) {
                    std::thread::yield_now();
                }
            }
        },
    )
    .unwrap();
    let done: Vec<_> = rx.iter().collect();
    assert_eq!(stats.completed(), 32);
    assert_eq!(done.len(), 32);
    for c in &done {
        assert_eq!(c.addr, c.tag, "global address must round-trip");
        assert_eq!(c.status, CompletionStatus::Ok);
        assert!(c.latency_ps > 0);
    }
}

// ---------- coalescing ------------------------------------------------

/// Runs one Zipf schedule through trace replay and indexes the
/// completions by tag.
fn replay(
    mut cfg: ServiceConfig,
    schedule: &[zipf::ScheduledRequest],
    coalesce: bool,
) -> (
    fork_path_oram::service::ServiceStats,
    BTreeMap<u64, (CompletionStatus, Vec<u8>)>,
) {
    cfg.coalesce = coalesce;
    let block_bytes = cfg.oram.block_bytes;
    let requests: Vec<ServiceRequest> = schedule
        .iter()
        .map(|r| service_request(r, block_bytes))
        .collect();
    let (stats, done) = OramService::run_trace(cfg, requests).expect("trace replay must not fail");
    let by_tag = done
        .into_iter()
        .map(|c| (c.tag, (c.status, c.data)))
        .collect();
    (stats, by_tag)
}

/// Coalescing is invisible to clients: under randomized hot Zipf
/// schedules, a coalesced and a non-coalesced replay of the *same*
/// schedule serve every request with an identical status and identical
/// data, tag by tag — while the coalesced run submits strictly fewer
/// requests to the ORAM engines. This is the data-equivalence property
/// that makes `ServiceConfig::coalesce` safe to enable: attaching a request
/// as a waiter instead of running its own access never changes what the
/// client observes (the engine's per-address hazard rules already
/// serialize same-address operations in arrival order; the coalescing
/// index preserves that order among waiters).
#[test]
fn coalescing_preserves_per_request_results() {
    run_cases("service-coalescing-equivalence", 4, |g: &mut Gen| {
        let cfg = small_cfg(4);
        let mut zc = zipf::ZipfConfig::hot(
            cfg.oram.data_blocks,
            g.range(300, 700),
            cfg.oram.block_bytes,
            g.below(u64::MAX),
        );
        // Wander around the hot default so the property is not tied to
        // one operating point.
        zc.theta = 0.9 + g.range(0, 60) as f64 / 100.0;
        zc.write_fraction = g.range(0, 30) as f64 / 100.0;
        let schedule = zipf::generate(&zc);
        let (plain, plain_tags) = replay(cfg.clone(), &schedule, false);
        let (coal, coal_tags) = replay(cfg, &schedule, true);

        // Same served count, same tags, same observable result per tag.
        assert_eq!(plain.completed(), schedule.len() as u64);
        assert_eq!(coal.completed(), plain.completed());
        assert_eq!(plain_tags.len(), coal_tags.len());
        for (tag, (status, data)) in &plain_tags {
            let (c_status, c_data) = &coal_tags[tag];
            assert_eq!(status, c_status, "tag {tag}: status diverged");
            assert_eq!(data, c_data, "tag {tag}: data diverged");
        }

        // The whole point: waiters never reach the engines. Submissions
        // include coalesce write-back flushes, so the saving is net.
        let submitted = |s: &fork_path_oram::service::ServiceStats| {
            s.trace_counter_totals()[Counter::RequestsSubmitted as usize]
        };
        let attached =
            coal.counter(Counter::CoalescedReads) + coal.counter(Counter::CoalescedWrites);
        assert!(
            coal.counter(Counter::CoalescedReads) > 0,
            "a hot Zipf schedule (theta={:.2}) must coalesce reads",
            zc.theta
        );
        assert_eq!(
            submitted(&coal) + attached - coal.counter(Counter::CoalesceFlushes),
            submitted(&plain),
            "every request either reaches an engine or attaches as a waiter"
        );
        assert!(
            submitted(&coal) < submitted(&plain),
            "coalescing must shrink engine traffic net of flushes"
        );
    });
}

// ---------- trace replay golden -----------------------------------------

/// FNV-1a, 64 bit, over the little-endian bytes of `words`.
fn fnv1a(words: &[u64]) -> u64 {
    words
        .iter()
        .flat_map(|w| w.to_le_bytes())
        .fold(0xCBF2_9CE4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
        })
}

/// One replay's pinned values: per shard the fingerprint's digest,
/// `batches` and `max_batch`; then the latency histogram's count and sum.
type ReplayPins = (Vec<(u64, u64, u64)>, u64, u64);

fn replay_pins(stats: &ServiceStats) -> ReplayPins {
    let shards = stats
        .fingerprint()
        .iter()
        .zip(&stats.per_shard)
        .map(|((_, fp), s)| (fnv1a(fp), s.counters.batches, s.counters.max_batch))
        .collect();
    (shards, stats.latency.count(), stats.latency.sum())
}

/// `run_trace` is a pure function of the schedule and the configuration,
/// and these are its values: one fixed hot Zipf schedule on two shards,
/// with coalescing off and on, held against literals recorded at 59c9a5d,
/// before the live service and trace replay shared one admission loop. A
/// change to how a shard admits that moves one access, one counter or one
/// latency sample fails here.
#[test]
fn trace_replay_reproduces_the_recorded_fingerprint() {
    let cfg = small_cfg(2);
    let hot = zipf::ZipfConfig::hot(cfg.oram.data_blocks, 600, cfg.oram.block_bytes, 0x7ACE_5EED);
    // The default pacing saturates the shards (full batches); the open one
    // leaves them idle between arrivals, so admission fast-forwards.
    let open = zipf::ZipfConfig {
        mean_gap_ns: 1_500.0,
        ..hot.clone()
    };
    let mut got: Vec<ReplayPins> = Vec::new();
    for zc in [hot, open] {
        let schedule = zipf::generate(&zc);
        for coalesce in [false, true] {
            got.push(replay_pins(&replay(cfg.clone(), &schedule, coalesce).0));
        }
    }
    let recorded: Vec<ReplayPins> = vec![
        (
            vec![(3838750451467185017, 24, 16), (8025189724999398657, 23, 16)],
            600,
            9073209178,
        ),
        (
            vec![
                (13446207782838789201, 23, 9),
                (10818838531826339039, 24, 10),
            ],
            617,
            13723679057,
        ),
        (
            vec![
                (13362031903232488284, 334, 3),
                (5812139258905250007, 231, 3),
            ],
            600,
            787908900,
        ),
        (
            vec![
                (12948445619453693052, 320, 3),
                (16842137470596417486, 229, 2),
            ],
            602,
            783858878,
        ),
    ];
    assert_eq!(got, recorded);
}

// ---------- replay: one admission rule, whatever the interleaving -------

type ByTag = BTreeMap<u64, (CompletionStatus, Vec<u8>)>;

/// `requests` through [`OramService::replay`], submitted by `threads`
/// driver threads: each request is dealt to a random thread, and each
/// thread submits its share in a random order.
fn scrambled_replay(
    cfg: ServiceConfig,
    requests: &[ServiceRequest],
    threads: usize,
    g: &mut Gen,
) -> (ServiceStats, ByTag) {
    let mut shares = vec![Vec::new(); threads];
    for i in 0..requests.len() {
        shares[g.below(threads as u64) as usize].push(i);
    }
    for share in &mut shares {
        for i in (1..share.len()).rev() {
            share.swap(i, g.below(i as u64 + 1) as usize);
        }
    }
    let (tx, rx) = mpsc::channel();
    let sink = move |c: ServiceCompletion| tx.send((c.tag, (c.status, c.data))).unwrap_or(());
    let (stats, ()) = OramService::replay(cfg, requests, sink, |h| {
        std::thread::scope(|scope| {
            for share in &shares {
                scope.spawn(move || {
                    for &i in share {
                        h.submit_scripted(Some(i), requests[i].clone())
                            .expect("the queues never bind");
                    }
                });
            }
        });
    })
    .expect("replay must not fail");
    (stats, rx.into_iter().collect())
}

/// The replayed run's pins against trace replay's of the same requests:
/// every answer, each shard's fingerprint and the latency histogram.
fn assert_replays_the_trace(cfg: &ServiceConfig, requests: &[ServiceRequest], g: &mut Gen) {
    let (trace, done) = OramService::run_trace(cfg.clone(), requests.to_vec()).expect("trace");
    let trace_tags: ByTag = done
        .into_iter()
        .map(|c| (c.tag, (c.status, c.data)))
        .collect();
    let threads = g.range_usize(2, 5);
    let (replay, replay_tags) = scrambled_replay(cfg.clone(), requests, threads, g);
    assert_eq!(replay_tags, trace_tags, "{threads} submitters: answers");
    assert_eq!(
        replay.fingerprint(),
        trace.fingerprint(),
        "{threads} submitters"
    );
    assert_eq!(
        replay.latency, trace.latency,
        "{threads} submitters: latency"
    );
}

/// Several driver threads submit one schedule to a replay in scrambled
/// interleavings; whatever order the submissions reach the shards in, the
/// run is trace replay's, bit for bit. The queues hold the whole schedule,
/// so no submission waits on an answer.
#[test]
fn a_replay_equals_run_trace_however_its_submitters_interleave() {
    run_cases("service-replay-equals-trace", 6, |g: &mut Gen| {
        let mut cfg = small_cfg(1 << g.range(0, 2));
        cfg.coalesce = g.bool();
        cfg.queue_depth = 800;
        let workload = [zipf::ZipfConfig::uniform, zipf::ZipfConfig::hot][g.range_usize(0, 1)];
        let mut zc = workload(
            cfg.oram.data_blocks,
            g.range(200, 600),
            cfg.oram.block_bytes,
            g.below(u64::MAX),
        );
        zc.mean_gap_ns = [15.0, 400.0][g.range_usize(0, 1)];
        let requests: Vec<ServiceRequest> = zipf::generate(&zc)
            .iter()
            .map(|r| service_request(r, cfg.oram.block_bytes))
            .collect();
        assert_replays_the_trace(&cfg, &requests, g);
    });
}

/// Requests with equal stamps are admitted in input order, by trace
/// replay and by a replay alike: trace replay of a schedule whose stamps
/// tie in runs equals trace replay of its stable sort by stamp (the order
/// a shard admits in), and a scrambled replay of it equals both.
#[test]
fn equal_stamps_admit_in_input_order() {
    run_cases("service-tie-order", 4, |g: &mut Gen| {
        let mut cfg = small_cfg(2);
        cfg.queue_depth = 800;
        let mut zc = zipf::ZipfConfig::hot(
            cfg.oram.data_blocks,
            400,
            cfg.oram.block_bytes,
            g.below(u64::MAX),
        );
        zc.write_fraction = 0.4;
        // Stamps on a 2 us grid tie in runs of several requests, and the
        // input holds each run in reverse, so input order is not tag order.
        let mut requests: Vec<ServiceRequest> = zipf::generate(&zc)
            .iter()
            .map(|r| {
                let mut req = service_request(r, cfg.oram.block_bytes);
                req.arrival_ps -= req.arrival_ps % 2_000_000;
                req
            })
            .collect();
        requests.reverse();
        let mut sorted = requests.clone();
        sorted.sort_by_key(|r| r.arrival_ps);
        assert!(
            sorted
                .windows(2)
                .any(|w| w[0].arrival_ps == w[1].arrival_ps),
            "the schedule must tie"
        );
        let by_tag = |(stats, done): (ServiceStats, Vec<ServiceCompletion>)| {
            let tags: ByTag = done
                .into_iter()
                .map(|c| (c.tag, (c.status, c.data)))
                .collect();
            (stats.fingerprint(), tags)
        };
        let input = OramService::run_trace(cfg.clone(), requests.clone()).expect("trace");
        let stable = OramService::run_trace(cfg.clone(), sorted).expect("trace");
        assert_eq!(by_tag(input), by_tag(stable));
        assert_replays_the_trace(&cfg, &requests, g);
    });
}
