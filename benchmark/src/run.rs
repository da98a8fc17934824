//! One workload, start to finish: the plain pass (end-to-end metrics,
//! tracing off) and the traced pass (per-layer metrics), each with its
//! verification and determinism cross-checks built in.

use std::time::{Duration, Instant};

use fp_path_oram::CipherMode;
use fp_service::ServiceStats;

use crate::drive::{run_engine, EngineOpts, EngineRun, Stream};
use crate::host::{Brackets, Probe};
use crate::inputs::{self, Kind, Sizes, Spec};
use crate::layers::{self, KernelTimer, Row, Shape};
use crate::oracle::Checked;
use crate::reps::{run_rep, Rep};
use crate::spans::SpanLog;
use crate::stats::{median, peak_rss_mb, summarize, Summary};

/// One reported number.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Quartiles and range over the repetitions, for medians of wall
    /// measurements.
    pub spread: Option<Summary>,
}

impl Metric {
    pub fn of(row: Row) -> Self {
        Self {
            name: row.0,
            unit: row.2,
            value: row.1,
            spread: None,
        }
    }

    fn median_of(name: &'static str, unit: &'static str, samples: &[f64]) -> Self {
        let s = summarize(samples);
        Self {
            name,
            unit,
            value: s.median,
            spread: Some(s),
        }
    }
}

/// What one pass over one workload produced.
#[derive(Default)]
pub struct Outcome {
    /// The metrics `BENCHMARK.json` names for this pass.
    pub metrics: Vec<Metric>,
    /// Readings behind them (raw wall values, the host-speed index):
    /// printed and kept in the result file, not part of the contract.
    pub detail: Vec<Metric>,
    /// Simulated-clock values that must compare bit for bit across
    /// repetitions, runs and commits (plain pass; the traced pass reports
    /// them as per-layer metrics).
    pub exact: Vec<Row>,
    pub attempted: u64,
    pub failed: u64,
    /// Failed operations and broken cross-checks, described.
    pub problems: Vec<String>,
    /// Timed repetitions behind each median.
    pub reps: usize,
    pub spans: Option<SpanLog>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// Adds a verification pass's tallies; its failures become problems.
    fn absorb(&mut self, checked: &mut Checked) {
        let checked = std::mem::take(checked);
        self.attempted += checked.attempted;
        self.failed += checked.failed;
        self.problems.extend(checked.failures);
    }

    fn value(&mut self, row: Row) {
        self.metrics.push(Metric::of(row));
    }

    /// Records a broken cross-check unless the two sides are bit-identical.
    fn must_match(&mut self, what: &str, a: &[Row], b: &[Row]) {
        for x in a {
            if let Some(y) = b.iter().find(|y| y.0 == x.0) {
                if x.1.to_bits() != y.1.to_bits() {
                    self.problems
                        .push(format!("{what}: {} reads {} vs {}", x.0, x.1, y.1));
                }
            }
        }
    }
}

/// The workload's request stream on one bare engine, through the
/// benchmark's own driver: `sim_*` as `fp-sim` runs them; the serving
/// workloads on a 1-shard engine with their client pool (`svc_closed`) or
/// their schedule replayed in arrival order (`wire_*`).
fn engine_level(spec: &Spec, seed: u64, sizes: Sizes, real: bool, opts: EngineOpts) -> EngineRun {
    let mode = if real {
        CipherMode::Real
    } else {
        CipherMode::Transparent
    };
    match spec.kind {
        Kind::Sim { scheme, .. } => {
            let cfg = inputs::sim_config(seed, real);
            let wl = inputs::sim_workload(seed, sizes.misses_per_core());
            run_engine(
                &inputs::scheme(scheme),
                cfg.oram,
                cfg.dram,
                cfg.seed,
                Stream::Cores(wl),
                opts,
            )
        }
        Kind::Svc | Kind::Wire { .. } => {
            let cfg = inputs::svc_config(seed, 1);
            let mut oram = cfg.shard_oram();
            oram.cipher_mode = mode;
            let stream = match spec.kind {
                Kind::Wire { hot_rw } => Stream::Schedule(inputs::wire_schedule(
                    seed,
                    hot_rw,
                    sizes.wire_requests(hot_rw),
                )),
                _ => Stream::Pool(inputs::svc_pool(&cfg, 0, sizes.svc_requests())),
            };
            run_engine(
                &cfg.scheme,
                oram,
                cfg.dram.clone(),
                cfg.shard_seed(0),
                stream,
                opts,
            )
        }
    }
}

fn is_real(spec: &Spec) -> bool {
    matches!(spec.kind, Kind::Sim { real: true, .. })
}

/// "A different seed changes the inputs" — and, for the deterministic
/// simulator workloads, the simulated results (checked at a tenth of the
/// size).
fn check_seed_sensitivity(out: &mut Outcome, spec: &Spec, seed: u64, sizes: Sizes) {
    if inputs::fingerprint(spec, seed) == inputs::fingerprint(spec, seed ^ 1) {
        out.problems
            .push("inputs do not depend on --seed".to_string());
    }
    if let Kind::Sim { .. } = spec.kind {
        let small = Sizes {
            scale: sizes.scale * 10,
        };
        let run = |s: u64| engine_level(spec, s, small, is_real(spec), EngineOpts::default()).sim;
        if run(seed) == run(seed ^ 1) {
            out.problems
                .push("sim_* do not depend on --seed".to_string());
        }
    }
}

/// The plain pass: tracing off, end-to-end metrics. One untimed warm-up
/// that doubles as verification, then timed repetitions until `seconds` of
/// measured region (at least `min_reps`), each between two host-speed
/// index readings; every wall metric is the median over the repetitions
/// of the repetition's normalised value.
pub fn plain_pass(spec: &Spec, seed: u64, seconds: f64, sizes: Sizes, min_reps: usize) -> Outcome {
    let mut out = Outcome::default();
    check_seed_sensitivity(&mut out, spec, seed, sizes);

    // `run_workload` hands back no payloads, so the `sim_*` streams run
    // once through the benchmark's own driver, where every read completion
    // meets the oracle; the timed repetitions must then reproduce its
    // simulated results exactly.
    let mut reference = None;
    match spec.kind {
        Kind::Sim { scheme, real } => {
            let mut own = engine_level(spec, seed, sizes, real, EngineOpts::default());
            out.absorb(&mut own.checked);
            if real {
                // Cipher mode must never move the simulated clock.
                let transparent = Spec {
                    name: spec.name,
                    kind: Kind::Sim {
                        scheme,
                        real: false,
                    },
                };
                let plain = run_rep(&transparent, seed, sizes);
                out.must_match("Real vs Transparent", &own.sim.rows(), &plain.pins);
            }
            reference = Some(own.sim.rows());
        }
        Kind::Svc | Kind::Wire { .. } => {
            let mut warm = run_rep(spec, seed, sizes);
            out.absorb(&mut warm.checked);
        }
    }
    // Read after one verified repetition, not at exit: the number of timed
    // repetitions (and with it the allocator's high-water mark) varies
    // with the host's speed.
    out.value(("peak_rss_mb", peak_rss_mb(), "MB"));

    let mut reps: Vec<(Rep, f64)> = Vec::new();
    let mut measured = 0.0;
    let mut brackets = Brackets::open(match spec.kind {
        Kind::Sim { .. } => Probe::OneThread,
        // Two shard workers; client thread plus shard worker.
        Kind::Svc | Kind::Wire { .. } => Probe::TwoThreads,
    });
    while measured < seconds || reps.len() < min_reps {
        let (mut rep, index) = brackets.around(|| run_rep(spec, seed, sizes));
        measured += rep.wall_s;
        out.absorb(&mut rep.checked);
        reps.push((rep, index));
    }
    out.reps = reps.len();

    let first = &reps[0].0;
    for (rep, _) in &reps[1..] {
        out.must_match("repetitions differ", &first.pins, &rep.pins);
    }
    if let Some(reference) = &reference {
        out.must_match("own driver vs run_workload", reference, &first.pins);
    }
    out.exact = first.pins.clone();

    fn us_per_access(r: &Rep) -> f64 {
        r.wall_s * 1e6 / r.accesses.max(1) as f64
    }
    let per_rep = |f: fn(&Rep, f64) -> f64| -> Vec<f64> {
        reps.iter().map(|(rep, index)| f(rep, *index)).collect()
    };
    out.metrics.extend([
        Metric::median_of("setup_s", "s", &per_rep(|r, i| median(&r.setup_s) / i)),
        Metric::median_of(
            "wall_us_per_access",
            "us",
            &per_rep(|r, i| us_per_access(r) / i),
        ),
    ]);
    // Not gated: on `wire_*` the host's arrival stamps pace the simulated
    // engine, so a slower host pads more idle gaps with dummy accesses and
    // requests per second fall faster than the host slows.
    out.detail.extend([
        Metric::median_of(
            "wall_req_per_s",
            "req/s",
            &per_rep(|r, i| r.requests as f64 * i / r.wall_s),
        ),
        Metric::median_of("host_index", "ratio", &per_rep(|_, i| i)),
        Metric::median_of("raw_setup_s", "s", &per_rep(|r, _| median(&r.setup_s))),
        Metric::median_of(
            "raw_wall_req_per_s",
            "req/s",
            &per_rep(|r, _| r.requests as f64 / r.wall_s),
        ),
        Metric::median_of(
            "raw_wall_us_per_access",
            "us",
            &per_rep(|r, _| us_per_access(r)),
        ),
    ]);
    out
}

fn service_rows(own: Option<&ServiceStats>, replay: &ServiceStats) -> Vec<Row> {
    let admitted: u64 = replay.per_shard.iter().map(|s| s.counters.admitted).sum();
    let batches: u64 = replay.per_shard.iter().map(|s| s.counters.batches).sum();
    let high_water = replay
        .per_shard
        .iter()
        .map(|s| s.queue_high_water)
        .max()
        .unwrap_or(0);
    // Imbalance of the workload's own service where it has one (2 shards
    // on `svc_closed`), else of the 1-shard replay (1 by construction).
    let shards = &own.unwrap_or(replay).per_shard;
    let accesses: Vec<f64> = shards
        .iter()
        .map(|s| {
            (s.trace_counters[fp_trace::Counter::FullReads as usize]
                + s.trace_counters[fp_trace::Counter::MergedReads as usize]) as f64
        })
        .collect();
    let mean = accesses.iter().sum::<f64>() / accesses.len().max(1) as f64;
    let max = accesses.iter().copied().fold(0.0, f64::max);
    vec![
        (
            "service.batch_mean",
            admitted as f64 / batches.max(1) as f64,
            "requests",
        ),
        ("service.queue_high_water", high_water as f64, "requests"),
        (
            "service.shard_imbalance",
            if mean > 0.0 { max / mean } else { 1.0 },
            "ratio",
        ),
    ]
}

/// The traced pass: per-layer metrics from outside the program. Spans go
/// around the benchmark's own calls into the engine; kernels and counts
/// price the layers inside one access; the stack replay prices the
/// service and wire layers. Timed comparisons repeat in interleaved rounds
/// for about `seconds` (at least two rounds); every time is normalised by
/// the host-speed index of its own brackets.
pub fn traced_pass(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    sizes: Sizes,
    kernel_budget: Duration,
) -> Outcome {
    let mut out = Outcome::default();
    check_seed_sensitivity(&mut out, spec, seed, sizes);
    let real = is_real(spec);
    let untraced = EngineOpts::default();
    let spans_on = EngineOpts {
        spans: true,
        ring: 0,
    };
    let ring_on = EngineOpts {
        spans: false,
        ring: 65_536,
    };
    let mut brackets = Brackets::open(Probe::OneThread);
    // One engine-level run, its normalised host time per ORAM access, and
    // the index it was normalised by.
    let engine = |out: &mut Outcome, brackets: &mut Brackets, real: bool, opts: EngineOpts| {
        let (mut run, index) = brackets.around(|| engine_level(spec, seed, sizes, real, opts));
        out.absorb(&mut run.checked);
        let ns_per_access = run.wall_s * 1e9 / index / run.oram.oram_accesses.max(1) as f64;
        (run, ns_per_access, index)
    };

    // Engine-level runs of the same stream — untraced, with spans, with a
    // retaining event ring, in the other cipher mode — in interleaved
    // rounds; medians are compared.
    let started = Instant::now();
    let (plain, first_ns, _) = engine(&mut out, &mut brackets, real, untraced);
    let mut plain_ns = vec![first_ns];
    let (mut spans_ns, mut ring_ns, mut other_ns) = (Vec::new(), Vec::new(), Vec::new());
    let mut traced = None;
    while spans_ns.len() < 2 || started.elapsed().as_secs_f64() < seconds / 2.0 {
        if traced.is_some() {
            let (again, ns, _) = engine(&mut out, &mut brackets, real, untraced);
            out.must_match("untraced runs differ", &plain.sim.rows(), &again.sim.rows());
            plain_ns.push(ns);
        }
        let (t, ns, index) = engine(&mut out, &mut brackets, real, spans_on);
        out.must_match("traced vs untraced", &plain.sim.rows(), &t.sim.rows());
        spans_ns.push(ns);
        traced = Some((t, index));
        let (ring, ns, _) = engine(&mut out, &mut brackets, real, ring_on);
        out.must_match(
            "event ring moved sim_*",
            &plain.sim.rows(),
            &ring.sim.rows(),
        );
        ring_ns.push(ns);
        // Identical inputs, other cipher mode: the wall difference is
        // fp-crypto plus the tree store's seal/unseal path.
        let (other, ns, _) = engine(&mut out, &mut brackets, !real, untraced);
        out.must_match(
            "cipher mode moved sim_*",
            &plain.sim.rows(),
            &other.sim.rows(),
        );
        other_ns.push(ns);
    }
    let rounds = spans_ns.len();
    let (traced, traced_index) = traced.expect("at least two rounds");

    // The workload as its user runs it, once: the simulator must
    // reproduce the own driver's results, the service reports its shards.
    let mut user = run_rep(spec, seed, sizes);
    out.absorb(&mut user.checked);
    if let Kind::Sim { .. } = spec.kind {
        out.must_match("own driver vs run_workload", &plain.sim.rows(), &user.pins);
    }

    for row in plain.sim.rows() {
        out.value(row);
    }

    // Spans -> self times of the last traced run, normalised like its wall.
    let accesses = traced.oram.oram_accesses.max(1) as f64;
    let requests = traced.requests.max(1) as f64;
    let traced_wall_ns = traced.wall_s * 1e9 / traced_index;
    let self_times = traced.spans.self_times();
    // Self time of a span name (normalised ns) and its call count.
    let self_ns = |name: &str| {
        self_times.get(name).map_or((0.0, 0.0), |t| {
            (t.self_ns as f64 / traced_index, t.count as f64)
        })
    };
    let (submit_ns, submit_calls) = self_ns("engine.submit");
    let (process_ns, _) = self_ns("engine.process_one");
    let (drain_ns, _) = self_ns("engine.drain");
    let (callback_ns, _) = self_ns("driver.on_complete");
    let issue_ns = match spec.kind {
        // Schedules are generated up front, not issued reactively.
        Kind::Wire { hot_rw } => {
            let requests = sizes.wire_requests(hot_rw);
            let (wall_ns, index) = brackets.around(|| {
                let t = Instant::now();
                std::hint::black_box(inputs::wire_schedule(seed, hot_rw, requests));
                t.elapsed().as_nanos() as f64
            });
            wall_ns / index / requests.max(1) as f64
        }
        _ => self_ns("workloads.issue").0 / requests,
    };
    // A batch submit carries up to 16 requests; a reactive stream only
    // submits its opening burst from the driver (the rest are born inside
    // `process_one` and submitted by the engine itself).
    let submitted = match spec.kind {
        Kind::Wire { .. } => requests,
        _ => submit_calls.max(1.0),
    };
    let process_us = process_ns / 1e3 / accesses;
    let plain_ns = median(&plain_ns);
    out.metrics.extend(
        [
            ("workloads.issue_ns_per_req", issue_ns, "ns"),
            ("engine.submit_ns_per_req", submit_ns / submitted, "ns"),
            ("engine.process_one_us_per_access", process_us, "us"),
            ("engine.drain_ns_per_req", drain_ns / requests, "ns"),
            ("bench.on_complete_ns_per_req", callback_ns / requests, "ns"),
            // Host time of the traced run outside the engine's own spans:
            // request issue, the completion callback, the loop itself.
            (
                "sim.driver_overhead_share",
                1.0 - (submit_ns + process_ns + drain_ns) / traced_wall_ns,
                "ratio",
            ),
            (
                "trace.ring_overhead_share",
                median(&ring_ns) / plain_ns - 1.0,
                "ratio",
            ),
            (
                "bench.tracing_overhead_share",
                median(&spans_ns) / plain_ns - 1.0,
                "ratio",
            ),
            (
                "crypto.real_overhead_share",
                if real {
                    1.0 - median(&other_ns) / plain_ns
                } else {
                    1.0 - plain_ns / median(&other_ns)
                },
                "ratio",
            ),
        ]
        .map(Metric::of),
    );

    // Stack replay of a prefix of the stream, in arrival order (the order
    // the service's trace replay imposes), tagged `0..n`.
    let mut prefix = plain.issued[..plain.issued.len().min(sizes.replay_requests())].to_vec();
    prefix.sort_by_key(|r| r.arrival_ps);
    for (tag, r) in prefix.iter_mut().enumerate() {
        r.tag = tag as u64;
    }
    let mut replay = layers::stack_replay(&prefix, seed, rounds, &mut brackets);
    out.absorb(&mut replay.checked);
    out.metrics
        .extend(replay.rows.iter().copied().map(Metric::of));
    for row in service_rows(user.service.as_ref(), &replay.service) {
        out.value(row);
    }

    // Kernels x counts -> the estimated split of one access.
    let counts = layers::counts(&plain, real);
    let kernels = layers::kernels(
        &Shape::of(&plain),
        seed,
        KernelTimer {
            budget: kernel_budget,
            brackets: &mut brackets,
        },
    );
    for &row in counts.iter().chain(&kernels) {
        out.value(row);
    }
    for row in layers::estimated_shares(&plain, &counts, &kernels, process_us) {
        out.value(row);
    }
    out.reps = rounds;
    out.spans = Some(traced.spans);
    out
}
