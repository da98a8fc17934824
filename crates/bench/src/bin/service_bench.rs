//! Closed-loop load harness for the sharded serving layer (`fp-service`).
//!
//! Drives a fixed-seed Mix1 client population through `OramService`'s
//! deterministic closed-loop mode at each requested shard count and prints
//! the scaling curve. The headline metric is *simulated* aggregate
//! requests/sec (total completions over the slowest shard's simulated
//! makespan): it is a pure function of the seed, so it is comparable
//! across PRs and host machines, unlike wall-clock throughput, which is
//! also reported. Sharding shrinks each shard's tree by `log2(N)` levels
//! while the shards' simulated clocks advance concurrently, so aggregate
//! simulated throughput must rise monotonically from 1 to 4 shards — the
//! binary checks that invariant and exits nonzero if it fails.
//!
//! Usage: `service_bench [--smoke|--fast] [--shards 1,2,4,8]
//!         [--requests <per-run>] [--seed <n>] [--scheme <name>]
//!         [--fault-rate <f>] [--zipf] [--coalesce] [--out <path>]`
//!
//! * `--smoke` — tier-1 CI mode: a smaller tree and 10k total requests
//!   across shard counts {1,2}; seconds of wall time.
//! * `--fast` — reduced budget (16384 requests per shard count).
//! * `--scheme <name>` — any name from the shared engine registry
//!   (`fp_core::engine::registry`), e.g. `traditional` or `fork`
//!   (default). Every shard runs the selected engine.
//! * `--fault-rate <f>` — wrap every shard engine in a deterministic
//!   `fp_core::FaultInjector` rolling transient integrity faults at
//!   per-access probability `f` (deep retry budget, so runs complete in
//!   degraded mode). The scaling invariant is skipped: retry penalties
//!   perturb per-shard simulated time. `0.0` (the default) adds no
//!   wrapper at all.
//! * `--zipf` — replace the closed-loop Mix1 population with a seeded
//!   Zipfian hotspot schedule (`fp_workloads::zipf::ZipfConfig::hot`:
//!   θ = 1.2, 10% writes, 15 ns mean inter-arrival gaps) replayed
//!   through the service's deterministic trace mode.
//!   Skewed open-loop traffic keeps duplicate-address requests in flight
//!   together — the workload cross-request coalescing exists for. The
//!   scaling invariant is skipped (arrivals are fixed in time).
//! * `--coalesce` — enable the per-shard coalescing index. Requires
//!   `--zipf` (the closed-loop pools use disjoint per-client regions, so
//!   they never produce coalescible traffic). The report gains
//!   per-run `oram_accesses` and `accesses_saved`.
//! * default — 262144 requests per shard count; over the default four
//!   shard counts that is ≥1M requests total.
//!
//! The JSON report is validated with [`fp_stats::json::validate`] before
//! being written (default `results/BENCH_service.json`). See
//! EXPERIMENTS.md ("Serving layer") for the schema.

#![forbid(unsafe_code)]

use fp_bench::{by_name, registry};
use fp_core::{FaultConfig, Scheme};
use fp_path_oram::Op;
use fp_service::{OramService, ServiceConfig, ServiceRequest, ServiceStats};
use fp_stats::json::{self, JsonObject};
use fp_workloads::{mixes, zipf};

/// Fixed service seed.
const BENCH_SEED: u64 = 0x5E2F_1CE0;

struct Args {
    shard_counts: Vec<usize>,
    requests_per_run: u64,
    seed: u64,
    out_path: String,
    mode: &'static str,
    smoke: bool,
    scheme_name: String,
    scheme: Scheme,
    fault_rate: f64,
    zipf: bool,
    coalesce: bool,
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
    let fast = flag("--fast");
    let mode = if smoke {
        "smoke"
    } else if fast {
        "fast"
    } else {
        "full"
    };
    let shard_counts: Vec<usize> = value("--shards")
        .map(|s| {
            s.split(',')
                .map(|t| t.trim().parse().expect("--shards takes a CSV of counts"))
                .collect()
        })
        .unwrap_or_else(|| if smoke { vec![1, 2] } else { vec![1, 2, 4, 8] });
    let requests_per_run = value("--requests")
        .map(|s| s.parse().expect("--requests takes a number"))
        .unwrap_or(match mode {
            "smoke" => 5_000,
            "fast" => 16_384,
            _ => 262_144,
        });
    let seed = value("--seed")
        .map(|s| s.parse().expect("--seed takes a number"))
        .unwrap_or(BENCH_SEED);
    let out_path = value("--out").unwrap_or_else(|| "results/BENCH_service.json".to_string());
    let fault_rate: f64 = value("--fault-rate")
        .map(|s| s.parse().expect("--fault-rate takes a probability"))
        .unwrap_or(0.0);
    assert!(
        (0.0..=1.0).contains(&fault_rate),
        "--fault-rate must be in [0, 1]"
    );
    let scheme_name = value("--scheme").unwrap_or_else(|| "fork".to_string());
    let scheme = by_name(&scheme_name).unwrap_or_else(|| {
        let known: Vec<&str> = registry().into_iter().map(|(n, _)| n).collect();
        panic!("unknown scheme {scheme_name:?}; registry has {known:?}")
    });
    let zipf = flag("--zipf");
    let coalesce = flag("--coalesce");
    assert!(
        zipf || !coalesce,
        "--coalesce requires --zipf: the closed-loop pools use disjoint \
         per-client regions and never produce coalescible traffic"
    );
    Args {
        shard_counts,
        requests_per_run,
        seed,
        out_path,
        mode,
        smoke,
        scheme_name,
        scheme,
        fault_rate,
        zipf,
        coalesce,
    }
}

fn config_for(args: &Args, shards: usize) -> ServiceConfig {
    let mut cfg = ServiceConfig::fast_test(shards);
    cfg.seed = args.seed;
    cfg.scheme = args.scheme.clone();
    if args.smoke {
        // Smaller global tree so tier-1 stays in low seconds.
        cfg.oram.data_blocks = 1 << 12;
        cfg.oram.levels = 11;
        cfg.oram.onchip_posmap_entries = 1 << 6;
    }
    if args.fault_rate > 0.0 {
        // Deep retry budget: the run should finish degraded, not dead.
        let mut fault = FaultConfig::transient(args.seed ^ 0xFA_017, args.fault_rate);
        fault.max_retries = 8;
        cfg.fault = Some(fault);
    }
    cfg.coalesce = args.coalesce;
    cfg
}

/// The Zipfian hotspot schedule replayed by `--zipf` runs: identical for
/// every shard count and coalescing setting at a given seed, so rows are
/// directly comparable request-for-request.
fn zipf_schedule(args: &Args, cfg: &ServiceConfig) -> Vec<ServiceRequest> {
    let zc = zipf::ZipfConfig::hot(
        cfg.oram.data_blocks,
        args.requests_per_run,
        cfg.oram.block_bytes,
        args.seed ^ 0x21BF_21BF,
    );
    zipf::generate(&zc)
        .into_iter()
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
        .collect()
}

fn run_to_json(shards: usize, requests: u64, stats: &ServiceStats) -> String {
    JsonObject::new()
        .field_u64("shards", shards as u64)
        .field_u64("requests", requests)
        .field_raw("stats", &stats.to_json())
        .finish()
}

fn main() {
    let args = parse_args();
    let mix = &mixes::all()[0];
    let workload_name = if args.zipf { "zipf-hot" } else { mix.name };

    println!(
        "== service_bench ({}, scheme={} \"{}\", workload={}, fault_rate={}, coalesce={}) ==",
        args.mode,
        args.scheme_name,
        args.scheme.label(),
        workload_name,
        args.fault_rate,
        args.coalesce
    );
    println!(
        "{:<7} {:>10} {:>10} {:>12} {:>10} {:>12} {:>10} {:>10} {:>6} {:>10} {:>8}",
        "shards",
        "requests",
        "wall_ms",
        "wall_req/s",
        "sim_ms",
        "sim_req/s",
        "p50_us",
        "p99_us",
        "late",
        "accesses",
        "saved"
    );

    let mut rows = Vec::new();
    let mut sim_curve: Vec<(usize, f64)> = Vec::new();
    for &shards in &args.shard_counts {
        let cfg = config_for(&args, shards);
        let stats = if args.zipf {
            let schedule = zipf_schedule(&args, &cfg);
            let (stats, _) = OramService::run_trace(cfg, schedule)
                .unwrap_or_else(|e| panic!("shards={shards}: {e}"));
            stats
        } else {
            OramService::run_closed_loop(cfg, &mix.programs, args.requests_per_run)
                .unwrap_or_else(|e| panic!("shards={shards}: {e}"))
        };
        assert_eq!(
            stats.completed(),
            args.requests_per_run,
            "shards={shards}: every scheduled request must be served"
        );
        println!(
            "{:<7} {:>10} {:>10.1} {:>12.0} {:>10.2} {:>12.0} {:>10.1} {:>10.1} {:>6} {:>10} {:>8}",
            shards,
            stats.completed(),
            stats.wall_ns as f64 / 1e6,
            stats.wall_requests_per_sec(),
            stats.sim_finish_ps() as f64 / 1e9,
            stats.sim_requests_per_sec(),
            stats.p50_le_ps() as f64 / 1e6,
            stats.p99_le_ps() as f64 / 1e6,
            stats.completed_late(),
            stats.oram_accesses(),
            stats.coalesce_accesses_saved(),
        );
        sim_curve.push((shards, stats.sim_requests_per_sec()));
        rows.push(run_to_json(shards, args.requests_per_run, &stats));
        if args.coalesce {
            let saved = stats.coalesce_accesses_saved();
            let pct = 100.0 * saved as f64 / stats.completed().max(1) as f64;
            println!(
                "        coalescing: {} reads + {} writes attached, {} flushes -> {} ORAM accesses saved ({:.1}% of requests)",
                stats.coalesced_reads(),
                stats.coalesced_writes(),
                stats.coalesce_flushes(),
                saved,
                pct
            );
        }
    }

    // Scaling invariant: aggregate simulated throughput must not regress
    // as shards grow from 1 to 4 (8 shards may taper on a 2^16 tree).
    // Skipped under fault injection (retry penalties perturb sim time)
    // and in zipf mode (open-loop arrivals are fixed in time, so the
    // makespan is arrival-bound rather than service-bound).
    let check_scaling = args.fault_rate == 0.0 && !args.zipf;
    let mut monotonic_1_to_4 = true;
    let mut prev = 0.0f64;
    for &(shards, rps) in sim_curve.iter().filter(|&&(s, _)| check_scaling && s <= 4) {
        if rps <= prev {
            monotonic_1_to_4 = false;
            eprintln!(
                "scaling violation: {shards} shards {:.0} req/s <= previous {:.0}",
                rps, prev
            );
        }
        prev = rps;
    }

    let report = JsonObject::new()
        .field_str("bench", "service_bench")
        .field_str("mode", args.mode)
        .field_str("scheme", &args.scheme.label())
        .field_u64("seed", args.seed)
        .field_u64("requests_per_run", args.requests_per_run)
        .field_f64("fault_rate", args.fault_rate)
        .field_str("workload", workload_name)
        .field_bool("zipf", args.zipf)
        .field_bool("coalesce", args.coalesce)
        .field_raw(
            "shard_counts",
            &json::array(args.shard_counts.iter().map(|s| s.to_string())),
        )
        .field_bool("sim_rps_monotonic_1_to_4", monotonic_1_to_4)
        .field_raw("runs", &json::array(rows))
        .finish();
    json::validate(&report).expect("service_bench emitted invalid JSON");
    if let Some(dir) = std::path::Path::new(&args.out_path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create output directory");
        }
    }
    std::fs::write(&args.out_path, format!("{report}\n")).expect("write service report");
    println!("report written to {}", args.out_path);

    if check_scaling {
        assert!(
            monotonic_1_to_4,
            "aggregate simulated req/s must rise monotonically from 1 to 4 shards"
        );
    }
}
