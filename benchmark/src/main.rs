//! The repo's one benchmark: six workloads over the simulator, the
//! sharded service and the wire front end, timed on the host clock and
//! pinned on the simulated clock. See `README.md` beside this package and
//! `BENCHMARK.json` at the repo root.
//!
//! ```text
//! fp-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! ```
//!
//! With `--workload` it runs that workload in this process, prints every
//! metric as `workload metric value unit`, and ends with one JSON line
//! (`correct`, `attempted`, `failed`, `metrics`). Without it, it runs each
//! workload in a process of its own and gathers their results into
//! `benchmark/results/latest.json` (`latest_trace.json` with `--trace 1`).
//! It exits non-zero when any operation failed or any cross-check broke.

#![forbid(unsafe_code)]
// Wall-clock measurement is this package's purpose (the workspace-wide
// ban protects simulated code).
#![allow(clippy::disallowed_methods)]

mod contract;
mod drive;
mod host;
mod inputs;
mod layers;
mod oracle;
mod reps;
mod run;
mod spans;
mod stats;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Duration;

use fp_stats::json::{self, JsonObject};

use inputs::{Sizes, Spec, DEFAULT_SEED, WORKLOADS};
use run::{Metric, Outcome};

/// Where result files go, relative to the repo root (`run.sh` enters it).
const RESULTS_DIR: &str = "benchmark/results";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        traced: false,
        smoke: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} takes a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => {
                args.seed = parse_u64(&value()?).ok_or("--seed takes a number (decimal or 0x..)")?
            }
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds takes a non-negative number")?
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--traced" => args.traced = true,
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn metrics_json(metrics: &[Metric], with_spread: bool) -> String {
    let mut all = JsonObject::new();
    for m in metrics {
        let mut o = JsonObject::new();
        o.field_f64("value", m.value).field_str("unit", m.unit);
        if let (true, Some(s)) = (with_spread, &m.spread) {
            o.field_f64("q1", s.q1)
                .field_f64("q3", s.q3)
                .field_f64("min", s.min)
                .field_f64("max", s.max)
                .field_u64("n", s.n as u64);
        }
        all.field_raw(m.name, &o.finish());
    }
    all.finish()
}

fn detail_path(workload: &str, traced: bool) -> PathBuf {
    Path::new(RESULTS_DIR).join(format!("{workload}.trace{}.json", u8::from(traced)))
}

/// Holds a pass's metrics against the names `BENCHMARK.json` promises.
fn check_contract(out: &mut Outcome, traced: bool) {
    let promised: &[&str] = if traced {
        &contract::PER_LAYER
    } else {
        &contract::END_TO_END
    };
    let produced: Vec<&str> = out.metrics.iter().map(|m| m.name).collect();
    if produced != promised {
        out.problems.push(format!(
            "metrics differ from the contract: produced {produced:?}, promised {promised:?}"
        ));
    }
    for m in &out.metrics {
        if !m.value.is_finite() {
            out.problems.push(format!("{} is not a number", m.name));
        }
    }
}

/// Runs one workload in this process.
fn run_one(spec: &Spec, args: &Args) -> bool {
    let sizes = Sizes {
        scale: if args.smoke { 10 } else { 1 },
    };
    // A smoke run keeps every check and shrinks everything timed.
    let (seconds, min_reps, kernel_budget) = if args.smoke {
        (0.0, 1, Duration::from_micros(300))
    } else {
        (args.seconds, 3, Duration::from_millis(3))
    };
    let mut out = if args.traced {
        run::traced_pass(spec, args.seed, seconds, sizes, kernel_budget)
    } else {
        run::plain_pass(spec, args.seed, seconds, sizes, min_reps)
    };
    check_contract(&mut out, args.traced);

    for m in &out.metrics {
        print!("{} {} {} {}", spec.name, m.name, m.value, m.unit);
        if let Some(s) = &m.spread {
            print!(
                "  (q1 {} q3 {} min {} max {} n {})",
                s.q1, s.q3, s.min, s.max, s.n
            );
        }
        println!();
    }
    for m in &out.detail {
        println!("{} {} {} {}  (detail)", spec.name, m.name, m.value, m.unit);
    }
    for (name, value, unit) in &out.exact {
        println!("{} {name} {value} {unit}  (exact)", spec.name);
    }
    let failed_share = out.failed as f64 / out.attempted.max(1) as f64;
    println!("{} failed_share {failed_share} ratio", spec.name);
    for p in &out.problems {
        println!("{} PROBLEM {p}", spec.name);
    }

    std::fs::create_dir_all(RESULTS_DIR).expect("create results directory");
    if let Some(spans) = &out.spans {
        let doc = JsonObject::new()
            .field_str("workload", spec.name)
            .field_u64("seed", args.seed)
            .field_u64("spans_recorded", spans.len() as u64)
            .field_raw("spans", &spans.to_json())
            .finish();
        let path = Path::new(RESULTS_DIR).join(format!("trace_{}.json", spec.name));
        std::fs::write(&path, doc).expect("write span file");
    }
    let exact: Vec<Metric> = out.exact.iter().copied().map(Metric::of).collect();
    let detail = JsonObject::new()
        .field_str("workload", spec.name)
        .field_u64("seed", args.seed)
        .field_u64("trace", u64::from(args.traced))
        .field_bool("smoke", args.smoke)
        .field_f64("seconds", seconds)
        .field_u64("reps", out.reps as u64)
        .field_u64(
            "nproc",
            std::thread::available_parallelism().map_or(1, |n| n.get()) as u64,
        )
        .field_bool("correct", out.correct())
        .field_u64("attempted", out.attempted)
        .field_u64("failed", out.failed)
        .field_raw(
            "problems",
            &json::array(
                out.problems
                    .iter()
                    .map(|p| format!("\"{}\"", json::escape(p))),
            ),
        )
        .field_raw("metrics", &metrics_json(&out.metrics, true))
        .field_raw("detail", &metrics_json(&out.detail, true))
        .field_raw("exact", &metrics_json(&exact, false))
        .finish();
    json::validate(&detail).expect("detail file is valid JSON");
    std::fs::write(detail_path(spec.name, args.traced), format!("{detail}\n"))
        .expect("write detail file");

    // The contract line: last on stdout.
    let line = JsonObject::new()
        .field_bool("correct", out.correct())
        .field_u64("attempted", out.attempted.max(1))
        .field_u64("failed", out.failed)
        .field_raw("metrics", &metrics_json(&out.metrics, false))
        .finish();
    json::validate(&line).expect("result line is valid JSON");
    println!("{line}");
    out.correct()
}

/// Runs every workload, each in a process of its own, and gathers the
/// detail files into one result file.
fn run_all(args: &Args) -> bool {
    let exe = std::env::current_exe().expect("own executable path");
    let mut all_ok = true;
    let mut details = Vec::new();
    for spec in &WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", spec.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.traced { "1" } else { "0" }]);
        if args.smoke {
            cmd.arg("--smoke");
        }
        let status = cmd.status().expect("spawn workload process");
        all_ok &= status.success();
        match std::fs::read_to_string(detail_path(spec.name, args.traced)) {
            Ok(detail) => details.push(detail.trim_end().to_string()),
            Err(e) => {
                println!("{} PROBLEM no result file: {e}", spec.name);
                all_ok = false;
            }
        }
    }
    let doc = JsonObject::new()
        .field_str("benchmark", "fork-path-oram")
        .field_u64("seed", args.seed)
        .field_u64("trace", u64::from(args.traced))
        .field_bool("smoke", args.smoke)
        .field_bool("correct", all_ok)
        .field_raw("workloads", &json::array(details))
        .finish();
    json::validate(&doc).expect("result file is valid JSON");
    let name = if args.traced {
        "latest_trace.json"
    } else {
        "latest.json"
    };
    let path = Path::new(RESULTS_DIR).join(name);
    std::fs::write(&path, format!("{doc}\n")).expect("write result file");
    println!("results written to {}", path.display());
    all_ok
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fp-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let ok = match &args.workload {
        None => run_all(&args),
        Some(name) => match WORKLOADS.iter().find(|w| w.name == name) {
            Some(spec) => run_one(spec, &args),
            None => {
                let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                eprintln!("fp-benchmark: unknown workload {name}; one of {names:?}");
                return ExitCode::from(2);
            }
        },
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
