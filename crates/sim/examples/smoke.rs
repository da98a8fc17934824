#![allow(clippy::disallowed_methods)] // example: shows the operator its own wall-clock runtime, not a simulated quantity

use fp_sim::experiment::{mix_workload, run_mix, trace_path_from_args, MissBudget};
use fp_sim::{run_workload_traced, Scheme, SystemConfig};
use fp_workloads::mixes;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = SystemConfig::paper_default();
    for mix_name in ["Mix1", "Mix3"] {
        let mix = mixes::by_name(mix_name).unwrap();
        println!("== {mix_name} ==");
        let mut insecure_exec = 0f64;
        for scheme in [
            Scheme::Insecure,
            Scheme::Traditional,
            Scheme::TraditionalTreetop { bytes: 1 << 20 },
            Scheme::ForkDefault,
            Scheme::Fork(fp_core::ForkConfig::paper_best()),
        ] {
            let t0 = Instant::now();
            let r = run_mix(&cfg, &scheme, &mix, MissBudget::Fast);
            if r.scheme == "insecure" {
                insecure_exec = r.exec_time_ps as f64;
            }
            println!(
                "{:<28} lat={:>9.1}ns path={:>5.2} oram={} dummy={} repl={} slowdown={:.1}x E={:.2}mJ [{:.1}s]",
                r.scheme, r.oram_latency_ns, r.avg_path_len, r.oram_accesses, r.dummy_accesses,
                r.dummies_replaced, r.exec_time_ps as f64 / insecure_exec, r.energy_mj(),
                t0.elapsed().as_secs_f64()
            );
        }
    }
    // `--trace <path>`: dump the trace spine of one Fork Path run.
    if let Some(path) = trace_path_from_args(&args) {
        let mix = mixes::by_name("Mix1").unwrap();
        let wl = mix_workload(&mix, MissBudget::Fast, cfg.seed ^ 0x5eed);
        let (_, trace) = run_workload_traced(&cfg, Scheme::ForkDefault, wl, 4096);
        std::fs::write(&path, trace.to_json()).expect("write trace dump");
        println!("trace written to {}", path.display());
    }
}
