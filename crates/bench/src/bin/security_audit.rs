//! Security audit: statistical battery over the externally visible label
//! sequence (backing §3.6's arguments with measurements).
//!
//! Checks, for both the traditional and the Fork Path controller:
//! 1. marginal uniformity of leaf labels (chi-square + KS),
//! 2. indistinguishability across two very different programs (two-sample
//!    chi-square),
//! 3. serial structure (lag-1..4 autocorrelation; with overlap scheduling
//!    the reordering is a public-information function, so correlation is
//!    expected — shown for contrast against the FIFO configuration),
//! 4. the overlap-degree distribution against its closed form
//!    P(overlap >= k) = 2^-(k-1).

#![forbid(unsafe_code)]

use fp_core::{ForkConfig, ForkPathController};
use fp_dram::{DramConfig, DramSystem};
use fp_path_oram::path::overlap_degree;
use fp_path_oram::{BaselineController, Op, OramConfig};
use fp_stats::{
    autocorrelation, chi_square_critical, chi_square_two_sample, chi_square_uniform, ks_critical,
    ks_uniform,
};

fn dram() -> DramSystem {
    DramSystem::new(DramConfig::ddr3_1600(2))
}

fn fork_trace(pattern: &[u64], scheduling: bool, seed: u64) -> (Vec<u64>, u64) {
    let cfg = OramConfig::small_test();
    let leaves = cfg.leaf_count();
    let fork_cfg = ForkConfig {
        scheduling,
        ..ForkConfig::default()
    };
    let mut ctl = ForkPathController::new(cfg, fork_cfg, dram(), seed);
    ctl.enable_label_trace();
    for &addr in pattern {
        ctl.submit(addr, Op::Read, vec![], ctl.clock_ps());
        if addr % 5 == 0 {
            ctl.run_to_idle();
        }
    }
    ctl.run_to_idle();
    (ctl.label_trace().unwrap().to_vec(), leaves)
}

fn verdict(ok: bool) -> &'static str {
    if ok {
        "PASS"
    } else {
        "FAIL"
    }
}

fn main() {
    let n = 4000u64;
    let sequential: Vec<u64> = (0..n).map(|i| i % 400).collect();
    let hot: Vec<u64> = (0..n).map(|i| (i * i) % 16).collect();

    fp_bench::print_title("1. Marginal uniformity of the label sequence");
    for (name, trace, leaves) in [
        ("fork/sequential", fork_trace(&sequential, true, 1)),
        ("fork/hot-set", fork_trace(&hot, true, 2)),
    ]
    .map(|(n, (t, l))| (n, t, l))
    {
        let bins = 64usize;
        let mut counts = vec![0u64; bins];
        for &l in &trace {
            counts[(l as u128 * bins as u128 / leaves as u128) as usize] += 1;
        }
        let chi2 = chi_square_uniform(&counts);
        let crit = chi_square_critical(bins as f64 - 1.0, 3.09);
        let mut unit: Vec<f64> = trace.iter().map(|&l| l as f64 / leaves as f64).collect();
        let d = ks_uniform(&mut unit);
        let dc = ks_critical(trace.len(), 0.001);
        println!(
            "{name:<18} n={:<6} chi2={chi2:8.1} (<{crit:.1}) {}   KS={d:.4} (<{dc:.4}) {}",
            trace.len(),
            verdict(chi2 < crit),
            verdict(d < dc)
        );
    }

    fp_bench::print_title("2. Two-sample indistinguishability (different programs)");
    {
        let (t1, leaves) = fork_trace(&sequential, true, 3);
        let (t2, _) = fork_trace(&hot, true, 3);
        let bins = 32usize;
        let hist = |t: &[u64]| {
            let mut h = vec![0u64; bins];
            for &l in t {
                h[(l as u128 * bins as u128 / leaves as u128) as usize] += 1;
            }
            h
        };
        let chi2 = chi_square_two_sample(&hist(&t1), &hist(&t2));
        let crit = chi_square_critical(bins as f64 - 1.0, 3.09);
        println!(
            "sequential vs hot-set: chi2={chi2:.1} (<{crit:.1}) {}",
            verdict(chi2 < crit)
        );
    }

    fp_bench::print_title("3. Serial correlation (scheduling reorders on public info)");
    for (name, scheduling) in [("FIFO queue", false), ("overlap scheduling", true)] {
        let (trace, leaves) = fork_trace(&sequential, scheduling, 4);
        let xs: Vec<f64> = trace.iter().map(|&l| l as f64 / leaves as f64).collect();
        let rho: Vec<f64> = (1..=4).map(|k| autocorrelation(&xs, k)).collect();
        let bound = 4.0 / (xs.len() as f64).sqrt();
        let flat = rho.iter().all(|r| r.abs() < bound);
        println!(
            "{name:<20} rho(1..4) = [{:+.3} {:+.3} {:+.3} {:+.3}]  {}",
            rho[0],
            rho[1],
            rho[2],
            rho[3],
            if scheduling {
                "(correlation expected: overlap-first order)"
            } else {
                verdict(flat)
            }
        );
    }

    fp_bench::print_title("4. Overlap-degree distribution vs P(ovl >= k) = 2^-(k-1)");
    {
        let cfg = OramConfig::small_test();
        let levels = cfg.levels;
        let mut base = BaselineController::new(cfg, dram(), 5);
        base.enable_label_trace();
        for i in 0..3000u64 {
            base.access_sync(i % 300, Op::Read, vec![]);
        }
        let trace = base.label_trace().unwrap();
        let mut ge = [0u64; 8];
        let pairs = trace.len() - 1;
        for w in trace.windows(2) {
            let o = overlap_degree(levels, w[0], w[1]) as usize;
            for (k, slot) in ge.iter_mut().enumerate() {
                if o > k {
                    *slot += 1;
                }
            }
        }
        let mut ok = true;
        print!("k:        ");
        for k in 1..=6 {
            print!(" {k:>7}");
        }
        print!("\nmeasured: ");
        for k in 1..=6usize {
            let p = ge[k - 1] as f64 / pairs as f64;
            print!(" {p:>7.4}");
            let theory = 0.5f64.powi(k as i32 - 1);
            if (p - theory).abs() > 4.0 * (theory / pairs as f64).sqrt() + 0.01 {
                ok = false;
            }
        }
        print!("\ntheory:   ");
        for k in 1..=6 {
            print!(" {:>7.4}", 0.5f64.powi(k - 1));
        }
        println!("\nconsecutive labels independent: {}", verdict(ok));
    }
}
