//! Per-layer numbers taken from outside the program.
//!
//! Three kinds: *kernels* (a layer's public function timed alone on
//! inputs shaped like the workload), *exact counts* (from `OramStats`,
//! `DramStats` and the fp-trace counters of one engine-level run), and the
//! *stack replay* (the same request stream through the bare engine,
//! `OramService::run_trace`, and `NetServer` + `NetClient`, to price the
//! service and wire layers). Kernels x counts give the first host-time
//! ranking of the layers inside one ORAM access. Every time is divided by
//! the host-speed index of the readings around it (see `host.rs`).

use std::hint::black_box;
use std::time::{Duration, Instant};

use fp_core::engine::{fork_with_mac, Scheme};
use fp_core::{MergingAwareCache, PosMapLookasideBuffer};
use fp_crypto::{BlockCipher, Nonce, Xoshiro256};
use fp_dram::layout::{SubtreeLayout, TreeLayout};
use fp_dram::{AccessKind, DramConfig, DramSystem};
use fp_net::{Frame, WireOp, WireRequest, WireResponse, WireStatus};
use fp_path_oram::cache::BucketCache;
use fp_path_oram::{Block, CipherMode, Op, OramConfig, Stash, TreeStore};
use fp_service::{CompletionStatus, OramService, ServiceRequest, ServiceStats, SubmissionQueue};
use fp_trace::{Counter, TraceHandle};
use fp_workloads::zipf::{self, ScheduledRequest, ZipfConfig};

use crate::drive::{run_engine, EngineOpts, EngineRun, Stream};
use crate::host::{Brackets, Probe};
use crate::inputs;
use crate::oracle::{payload, Checked, Oracle};
use crate::reps::wire_rep;
use crate::stats::{median, percentile, TICKS_PER_S};

/// `(name, value, unit)`.
pub type Row = (&'static str, f64, &'static str);

/// The workload's shape, as the kernels need it.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Mean stash occupancy after refills, blocks.
    pub stash_occupancy: usize,
    /// Mean real blocks per written bucket.
    pub bucket_fill: f64,
}

impl Shape {
    pub fn of(run: &EngineRun) -> Self {
        let counter = |c: Counter| run.counters[c as usize] as f64;
        Self {
            stash_occupancy: run.oram.avg_stash_occupancy().round() as usize,
            bucket_fill: counter(Counter::StashEvicts) / counter(Counter::BucketsWritten).max(1.0),
        }
    }

    /// Real blocks in the `i`-th bucket of a batch: spreads the mean fill
    /// evenly (Bresenham), at most Z.
    fn blocks_in(&self, i: usize, z: usize) -> usize {
        let upto = |k: usize| (self.bucket_fill * k as f64).floor() as usize;
        (upto(i + 1) - upto(i)).min(z)
    }
}

/// Budget and brackets of a kernel series.
pub struct KernelTimer<'a> {
    /// Timed work per sample.
    pub budget: Duration,
    pub brackets: &'a mut Brackets,
}

impl KernelTimer<'_> {
    /// Times `body` (which performs `ops` operations on the state `prep`
    /// makes, untimed) and returns normalised nanoseconds per operation:
    /// median of 5 samples, each repeating prep + body until `budget` of
    /// timed work, over the host-speed index around the five.
    fn kernel<S>(
        &mut self,
        ops: u64,
        mut prep: impl FnMut() -> S,
        mut body: impl FnMut(&mut S),
    ) -> f64 {
        let budget = self.budget;
        let (samples, index) = self.brackets.around(|| {
            let mut samples = Vec::with_capacity(5);
            for _ in 0..5 {
                let mut timed = Duration::ZERO;
                let mut done = 0u64;
                while timed < budget {
                    let mut state = prep();
                    let t = Instant::now();
                    body(&mut state);
                    timed += t.elapsed();
                    done += ops;
                    black_box(&state);
                }
                samples.push(timed.as_nanos() as f64 / done as f64);
            }
            samples
        });
        median(&samples) / index
    }
}

fn oram_config(mode: CipherMode) -> OramConfig {
    let mut cfg = inputs::sim_config(0, false).oram;
    cfg.cipher_mode = mode;
    cfg
}

fn blocks(addr: u64, count: usize, rng: &mut Xoshiro256, cfg: &OramConfig) -> Vec<Block> {
    (0..count as u64)
        .map(|i| {
            Block::new(
                addr * 8 + i,
                rng.next_below(cfg.leaf_count()),
                vec![0xAB; cfg.block_bytes],
            )
        })
        .collect()
}

/// Distinct heap node ids of the L = 15 tree, shuffled.
fn nodes(n: usize, rng: &mut Xoshiro256, cfg: &OramConfig) -> Vec<u64> {
    let mut seen = std::collections::HashSet::with_capacity(n);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let node = 1 + rng.next_below(cfg.bucket_count());
        if seen.insert(node) {
            out.push(node);
        }
    }
    out
}

/// A tree store in steady state (every batch node written once) plus the
/// payloads of the next write of each node.
fn tree_state(
    mode: CipherMode,
    shape: &Shape,
    taken: bool,
    seed: u64,
) -> (TreeStore, Vec<(u64, Vec<Block>)>) {
    const BATCH: usize = 2048;
    let cfg = oram_config(mode);
    let mut rng = Xoshiro256::new(seed);
    let ids = nodes(BATCH, &mut rng, &cfg);
    let payloads = |rng: &mut Xoshiro256| -> Vec<(u64, Vec<Block>)> {
        ids.iter()
            .enumerate()
            .map(|(i, &n)| (n, blocks(n, shape.blocks_in(i, cfg.z), rng, &cfg)))
            .collect()
    };
    let mut store = TreeStore::new(&cfg, [7; 32]);
    for (node, b) in payloads(&mut rng) {
        store.write_bucket(node, b);
    }
    if taken {
        for &node in &ids {
            black_box(store.take_bucket(node));
        }
    }
    (store, payloads(&mut rng))
}

/// Every kernel, on inputs shaped like the workload.
pub fn kernels(shape: &Shape, seed: u64, mut timer: KernelTimer) -> Vec<Row> {
    let mut rows: Vec<Row> = Vec::new();
    let cfg = oram_config(CipherMode::Transparent);
    let (levels, z) = (cfg.levels, cfg.z);

    // fp-crypto: one sealed bucket image (Z slots), reported per block.
    let cipher = BlockCipher::new([7; 32]);
    let image = {
        let real = oram_config(CipherMode::Real);
        let mut store = TreeStore::new(&real, [7; 32]);
        store.write_bucket(1, Vec::new());
        store.raw_bucket(1).expect("bucket just written")
    };
    let mut counter = 0u64;
    let per_bucket = timer.kernel(
        256,
        || (),
        |_| {
            for _ in 0..256 {
                counter += 1;
                black_box(cipher.encrypt(Nonce::new(counter, 1), black_box(&image)));
            }
        },
    );
    rows.push(("crypto.encrypt_ns_per_block", per_bucket / z as f64, "ns"));
    let per_bucket = timer.kernel(
        256,
        || (),
        |_| {
            for _ in 0..256 {
                black_box(cipher.decrypt(Nonce::new(9, 1), black_box(&image)));
            }
        },
    );
    rows.push(("crypto.decrypt_ns_per_block", per_bucket / z as f64, "ns"));

    // fp-path-oram tree store: a read phase takes buckets, a refill
    // writes them back.
    let ns = timer.kernel(
        2048,
        || tree_state(CipherMode::Transparent, shape, false, seed),
        |(store, next)| {
            for (node, _) in next.iter() {
                black_box(store.take_bucket(*node));
            }
        },
    );
    rows.push(("tree.take_bucket_ns", ns, "ns"));
    for (name, mode) in [
        ("tree.write_bucket_ns", CipherMode::Transparent),
        ("tree.write_bucket_real_ns", CipherMode::Real),
    ] {
        let ns = timer.kernel(
            2048,
            || tree_state(mode, shape, true, seed),
            |(store, next)| {
                for (node, b) in next.drain(..) {
                    store.write_bucket(node, b);
                }
            },
        );
        rows.push((name, ns, "ns"));
    }

    // Stash at the workload's mean occupancy plus one path's blocks.
    let path_blocks = ((shape.bucket_fill * f64::from(levels + 1)).round() as usize).max(1);
    let stash_with = |extra: usize, rng: &mut Xoshiro256| {
        let mut s = Stash::new(cfg.stash_capacity);
        for b in blocks(1, shape.stash_occupancy + extra, rng, &cfg) {
            s.insert(b);
        }
        s
    };
    let mut rng = Xoshiro256::new(seed ^ 0x57A5);
    let ns = timer.kernel(
        path_blocks as u64,
        || {
            let stash = stash_with(0, &mut rng);
            let incoming = blocks(1 << 20, path_blocks, &mut rng, &cfg);
            (stash, incoming)
        },
        |(stash, incoming)| {
            for b in incoming.drain(..) {
                stash.insert(b);
            }
        },
    );
    rows.push(("stash.insert_ns", ns, "ns"));
    // One path's refill as the controllers do it: one eviction plan per
    // level, leaf to root.
    let ns = timer.kernel(
        1,
        || {
            let stash = stash_with(path_blocks, &mut rng);
            (stash, rng.next_below(cfg.leaf_count()))
        },
        |(stash, leaf)| {
            for level in (0..=levels).rev() {
                black_box(stash.plan_eviction_level(levels, *leaf, level, z));
            }
        },
    );
    rows.push(("stash.plan_eviction_us", ns / 1e3, "us"));

    // fp-dram: one path read, laid out in row-sized subtrees.
    let dram_cfg = DramConfig::ddr3_1600(2);
    let layout = SubtreeLayout::fit_row(levels + 1, cfg.bucket_bytes(), dram_cfg.row_bytes);
    let bursts_per_bucket = cfg.bucket_bytes() / dram_cfg.burst_bytes;
    let bursts = u64::from(levels + 1) * bursts_per_bucket;
    let mut dram = DramSystem::new(dram_cfg.clone());
    let mut now = 0u64;
    let ns = timer.kernel(
        bursts * 16,
        || (),
        |_| {
            for _ in 0..16 {
                let mut batch = Vec::with_capacity(bursts as usize);
                let mut node = cfg.leaf_count() + rng.next_below(cfg.leaf_count());
                while node >= 1 {
                    let base = layout.bucket_address(node);
                    for i in 0..bursts_per_bucket {
                        batch.push((base + i * dram_cfg.burst_bytes, AccessKind::Read));
                    }
                    node >>= 1;
                }
                now = dram.access_batch(now, &batch).batch_finish_ps;
            }
        },
    );
    rows.push(("dram.access_batch_ns_per_burst", ns, "ns"));

    // fp-core on-chip structures.
    let mut plb = PosMapLookasideBuffer::new(1024);
    for a in 0..1024 {
        plb.touch(a);
    }
    let ns = timer.kernel(
        1024,
        || (),
        |_| {
            for _ in 0..1024 {
                black_box(plb.touch(rng.next_below(2048)));
            }
        },
    );
    rows.push(("plb.touch_ns", ns, "ns"));
    let Scheme::Fork(fork) = fork_with_mac(256 << 10) else {
        unreachable!("fork_with_mac builds a fork scheme");
    };
    let m1 = fork
        .mac_bypass_levels
        .unwrap_or_else(|| fork.derived_mac_bypass());
    let mut mac = MergingAwareCache::with_capacity_bytes_for_tree(
        256 << 10,
        cfg.bucket_bytes(),
        4,
        m1,
        levels,
    );
    let ns = timer.kernel(
        1024,
        || (),
        |_| {
            for _ in 0..1024 {
                let level = m1 + rng.next_below(u64::from(levels + 1 - m1)) as u32;
                let node = (1u64 << level) + rng.next_below(1 << level);
                black_box(mac.insert_on_write(node));
                black_box(mac.lookup_for_read(node));
            }
        },
    );
    rows.push(("mac.lookup_insert_ns", ns, "ns"));

    // fp-trace: one counter bump.
    let trace = TraceHandle::default();
    let ns = timer.kernel(
        1024,
        || (),
        |_| {
            for _ in 0..1024 {
                trace.bump(Counter::FullReads);
            }
        },
    );
    rows.push(("trace.bump_ns", ns, "ns"));

    // fp-service: one admission batch through the shard queue.
    let queue = SubmissionQueue::new(64);
    let ns = timer.kernel(
        16 * 64,
        || (),
        |_| {
            for round in 0..64u64 {
                for i in 0..16 {
                    let _ = queue.try_push(ServiceRequest::read(i, round, i));
                }
                black_box(queue.pop_batch(16));
            }
        },
    );
    rows.push(("queue.push_pop_ns", ns, "ns"));

    // fp-net framing: one request + one response, 64 B payload each way.
    let payload = vec![0xAB; cfg.block_bytes];
    let frames = [
        Frame::Request(WireRequest {
            tag: 77,
            op: WireOp::Write,
            addr: 4242,
            deadline_rel_ns: 0,
            payload: payload.clone(),
        }),
        Frame::Response(WireResponse {
            tag: 77,
            status: WireStatus::Ok,
            latency_ps: 1_234_567,
            data: payload,
        }),
    ];
    let mut buf = Vec::with_capacity(256);
    let ns = timer.kernel(
        512,
        || (),
        |_| {
            for _ in 0..512 {
                for f in &frames {
                    buf.clear();
                    black_box(f.encode(&mut buf));
                }
            }
        },
    );
    rows.push(("wire.encode_ns", ns, "ns"));
    let encoded: Vec<(u8, Vec<u8>)> = frames
        .iter()
        .map(|f| {
            let mut b = Vec::new();
            f.encode(&mut b);
            (f.kind(), b[5..].to_vec())
        })
        .collect();
    let ns = timer.kernel(
        512,
        || (),
        |_| {
            for _ in 0..512 {
                for (kind, body) in &encoded {
                    black_box(Frame::decode(*kind, black_box(body)).expect("own encoding"));
                }
            }
        },
    );
    rows.push(("wire.decode_ns", ns, "ns"));

    // fp-workloads: the Zipf schedule generator (CDF table included).
    let zc = ZipfConfig::hot(cfg.data_blocks, 2_000, cfg.block_bytes, seed);
    let ns = timer.kernel(
        zc.requests,
        || (),
        |_| {
            black_box(zipf::generate(&zc));
        },
    );
    rows.push(("workloads.zipf_generate_ns_per_req", ns, "ns"));
    rows
}

/// The deterministic "work done" and "useful / attempted" ratios of one
/// engine-level run.
pub fn counts(run: &EngineRun, real: bool) -> Vec<Row> {
    let (o, d) = (&run.oram, &run.dram);
    let counter = |c: Counter| run.counters[c as usize] as f64;
    let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let accesses = o.oram_accesses as f64;
    let requests = run.requests as f64;
    let buckets = (o.buckets_read + o.buckets_written) as f64;
    let z = oram_config(CipherMode::Transparent).z as f64;
    // Counters that tally events, one call each. The rest accumulate
    // quantities (blocks, levels, bytes) or hold a maximum.
    const QUANTITIES: [Counter; 8] = [
        Counter::SchedReadyReals,
        Counter::ReadLevelsSkipped,
        Counter::DramBlocksRead,
        Counter::DramBlocksWritten,
        Counter::DramRefsSkipped,
        Counter::CoalesceIndexHighWater,
        Counter::NetWireBytesIn,
        Counter::NetWireBytesOut,
    ];
    let events: f64 = Counter::ALL
        .iter()
        .filter(|c| !QUANTITIES.contains(c))
        .map(|&c| counter(c))
        .sum();
    vec![
        ("sched.dummy_share", o.dummy_fraction(), "ratio"),
        (
            "dummy.replaced_share",
            per(
                counter(Counter::DummiesReplaced),
                counter(Counter::DummiesMaterialized),
            ),
            "ratio",
        ),
        (
            "merge.read_levels_skipped_per_access",
            per(counter(Counter::ReadLevelsSkipped), accesses),
            "levels",
        ),
        (
            "posmap.real_accesses_per_req",
            per(o.real_accesses as f64, requests),
            "ratio",
        ),
        (
            "stash.hit_share",
            per(o.stash_hits as f64, (o.stash_hits + o.real_accesses) as f64),
            "ratio",
        ),
        ("stash.high_water", run.stash_high_water as f64, "blocks"),
        ("stash.mean_occupancy", o.avg_stash_occupancy(), "blocks"),
        ("mac.hit_rate", o.cache_hit_rate(), "ratio"),
        ("tree.buckets_per_access", per(buckets, accesses), "buckets"),
        (
            "crypto.blocks_per_access",
            if real {
                per(buckets * z, accesses)
            } else {
                0.0
            },
            "blocks",
        ),
        (
            "dram.bursts_per_access",
            per(d.accesses() as f64, accesses),
            "bursts",
        ),
        (
            "dram.acts_per_access",
            per(d.activations as f64, accesses),
            "acts",
        ),
        ("dram.row_hit_rate", d.row_hit_rate(), "ratio"),
        (
            "trace.counter_events_per_access",
            per(events, accesses),
            "events",
        ),
    ]
}

/// Calls per access x ns per call, over the measured host time of one
/// access: an estimate from outside, with the remainder reported.
pub fn estimated_shares(
    run: &EngineRun,
    counts: &[Row],
    kernels: &[Row],
    access_us: f64,
) -> Vec<Row> {
    let get = |rows: &[Row], name: &str| {
        rows.iter()
            .find(|r| r.0 == name)
            .unwrap_or_else(|| panic!("missing row {name}"))
            .1
    };
    let (c, k) = (|n: &str| get(counts, n), |n: &str| get(kernels, n));
    let o = &run.oram;
    let accesses = (o.oram_accesses as f64).max(1.0);
    let levels = f64::from(oram_config(CipherMode::Transparent).levels + 1);
    let reads = o.buckets_read as f64 / accesses;
    let writes = o.buckets_written as f64 / accesses;
    let pushes = run.counters[Counter::StashPushes as usize] as f64 / accesses;
    let lookups = (o.cache_hits + o.cache_misses) as f64 / accesses;
    let access_ns = access_us * 1e3;
    let shares = [
        (
            "crypto.est_share",
            c("crypto.blocks_per_access") / 2.0
                * (k("crypto.encrypt_ns_per_block") + k("crypto.decrypt_ns_per_block")),
        ),
        (
            "tree.est_share",
            reads * k("tree.take_bucket_ns") + writes * k("tree.write_bucket_ns"),
        ),
        (
            "stash.est_share",
            pushes * k("stash.insert_ns") + writes / levels * k("stash.plan_eviction_us") * 1e3,
        ),
        (
            "dram.est_share",
            c("dram.bursts_per_access") * k("dram.access_batch_ns_per_burst"),
        ),
        ("mac.est_share", lookups * k("mac.lookup_insert_ns")),
        (
            "trace.est_share",
            c("trace.counter_events_per_access") * k("trace.bump_ns"),
        ),
    ];
    let mut rows: Vec<Row> = shares
        .iter()
        .map(|&(name, ns)| (name, ns / access_ns, "ratio"))
        .collect();
    let attributed: f64 = rows.iter().map(|r| r.1).sum();
    rows.push(("engine.est_attributed_share", attributed, "ratio"));
    rows.push(("engine.est_unattributed_share", 1.0 - attributed, "ratio"));
    rows
}

/// What the stack replay measured.
pub struct Replay {
    pub rows: Vec<Row>,
    /// Service statistics of the last wire repetition.
    pub service: ServiceStats,
    pub checked: Checked,
}

/// Replays `schedule` (tags `0..n` in order) through a 1-shard stack —
/// bare engine, `OramService::run_trace`, `NetServer` + `NetClient` —
/// `rounds` times each, interleaved, and prices the service and wire
/// layers per request as a stage's normalised host time minus that of the
/// stage below. `brackets` (one-thread) serve the engine and the service,
/// whose one worker does all the work; the wire stage gets two-thread
/// brackets of its own.
pub fn stack_replay(
    schedule: &[ScheduledRequest],
    seed: u64,
    rounds: usize,
    brackets: &mut Brackets,
) -> Replay {
    let cfg = inputs::svc_config(seed, 1);
    let block_bytes = cfg.oram.block_bytes;
    let requests = schedule.len().max(1) as f64;
    let mut checked = Checked::default();
    // Per round and stage: normalised us per request.
    let (mut engine_us, mut service_us, mut net_us) = (Vec::new(), Vec::new(), Vec::new());
    let (mut engine_apr, mut net_apr) = (0.0, 0.0);
    let (mut p50_us, mut p99_us, mut sys_share, mut cpu_util) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut last_wire = None;
    let mut wire_brackets = Brackets::open(Probe::TwoThreads);
    for _ in 0..rounds {
        let (e, index) = brackets.around(|| {
            run_engine(
                &cfg.scheme,
                cfg.shard_oram(),
                cfg.dram.clone(),
                cfg.shard_seed(0),
                Stream::Schedule(schedule.to_vec()),
                EngineOpts::default(),
            )
        });
        engine_us.push(e.wall_s * 1e6 / index / requests);
        engine_apr = e.oram.oram_accesses as f64 / requests;
        checked.absorb(e.checked);

        let service_requests: Vec<ServiceRequest> = schedule
            .iter()
            .map(|r| match r.op {
                Op::Read => ServiceRequest::read(r.addr, r.arrival_ps, r.tag),
                Op::Write => ServiceRequest::write(
                    r.addr,
                    payload(r.addr, r.tag, r.op, block_bytes),
                    r.arrival_ps,
                    r.tag,
                ),
            })
            .collect();
        let mut oracle = Oracle::expecting(schedule, block_bytes);
        let ((stats, done, wall_s), index) = brackets.around(|| {
            let t = Instant::now();
            let (stats, done) =
                OramService::run_trace(cfg.clone(), service_requests).expect("service replay");
            (stats, done, t.elapsed().as_secs_f64())
        });
        for c in &done {
            if c.status == CompletionStatus::Ok {
                oracle.on_reply(c.tag, &c.data);
            } else {
                oracle.on_error(c.tag, format!("tag {}: {}", c.tag, c.status.name()));
            }
        }
        checked.absorb(oracle.finish());
        service_us.push(wall_s * 1e6 / index / requests);
        if stats.oram_accesses() != e.oram.oram_accesses {
            // Both pace by simulated arrival time, so both must do the
            // same engine work; only then is their difference the service.
            checked.failures.push(format!(
                "replay: service made {} accesses, bare engine {}",
                stats.oram_accesses(),
                e.oram.oram_accesses
            ));
        }

        let (mut n, index) = wire_brackets.around(|| wire_rep(seed, || schedule.to_vec()));
        checked.absorb(std::mem::take(&mut n.checked));
        net_us.push(n.wall_s * 1e6 / index / requests);
        net_apr = n.accesses as f64 / requests;
        let wire = n.wire.as_ref().expect("wire repetition");
        p50_us.push(percentile(&wire.rtt_ns, 50.0) as f64 / 1e3 / index);
        p99_us.push(percentile(&wire.rtt_ns, 99.0) as f64 / 1e3 / index);
        let (user_ticks, sys_ticks) = (wire.cpu_ticks.0 as f64, wire.cpu_ticks.1 as f64);
        sys_share.push(sys_ticks / (user_ticks + sys_ticks).max(1.0));
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
        cpu_util.push((user_ticks + sys_ticks) / TICKS_PER_S / (n.wall_s * nproc));
        last_wire = Some(n);
    }
    let last_wire = last_wire.expect("at least one round");
    let wire = last_wire.wire.as_ref().expect("wire repetition");
    let (e, s, n) = (median(&engine_us), median(&service_us), median(&net_us));
    Replay {
        rows: vec![
            ("replay.engine_us_per_req", e, "us"),
            ("replay.service_us_per_req", s, "us"),
            ("replay.net_us_per_req", n, "us"),
            // The service paces by simulated arrival time like the bare
            // engine; the wire stamps arrivals on the host clock, so its
            // engine work differs (idle gaps are padded with dummies,
            // bunched requests merge) and is part of what the wire costs.
            ("replay.engine_accesses_per_req", engine_apr, "ratio"),
            ("replay.net_accesses_per_req", net_apr, "ratio"),
            ("service.overhead_us_per_req", s - e, "us"),
            ("net.overhead_us_per_req", n - s, "us"),
            ("net.rtt_p50_us", median(&p50_us), "us"),
            // p99 keeps 10 samples beyond it from 1000 samples up; the
            // count is reported beside it.
            ("net.rtt_p99_us", median(&p99_us), "us"),
            ("net.rtt_samples", wire.rtt_ns.len() as f64, "count"),
            (
                "net.wire_bytes_per_req",
                wire.wire_bytes as f64 / requests,
                "bytes",
            ),
            ("net.cpu_sys_share", median(&sys_share), "ratio"),
            ("net.cpu_util", median(&cpu_util), "ratio"),
        ],
        service: last_wire.service.expect("wire repetition"),
        checked,
    }
}
