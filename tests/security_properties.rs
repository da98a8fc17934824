//! Statistical security checks backing §3.6's arguments: the externally
//! visible label sequence must be uniform and independent of the program's
//! access pattern, and the Fork Path optimizations must not change that.

use fork_path_oram::core::{
    BaselineController, ForkConfig, ForkPathController, NewRequest, OramEngine,
};
use fork_path_oram::crypto::Xoshiro256;
use fork_path_oram::dram::{DramConfig, DramSystem};
use fork_path_oram::path_oram::OramConfig;

fn dram() -> DramSystem {
    DramSystem::new(DramConfig::ddr3_1600(2))
}

/// Chi-square statistic of a trace bucketed into `bins` equal leaf ranges.
fn chi_square(trace: &[u64], leaves: u64, bins: usize) -> f64 {
    let mut counts = vec![0u64; bins];
    for &l in trace {
        counts[(l as u128 * bins as u128 / leaves as u128) as usize] += 1;
    }
    let expected = trace.len() as f64 / bins as f64;
    counts
        .iter()
        .map(|&c| {
            let d = c as f64 - expected;
            d * d / expected
        })
        .sum()
}

/// 99.9th percentile of chi-square with `k` degrees of freedom (rough
/// Wilson–Hilferty approximation) — loose enough to avoid flaky tests.
fn chi2_crit(k: f64) -> f64 {
    let z = 3.09; // ~99.9th percentile of N(0,1)
    k * (1.0 - 2.0 / (9.0 * k) + z * (2.0 / (9.0 * k)).sqrt()).powi(3)
}

fn fork_trace(pattern: &[u64], seed: u64) -> (Vec<u64>, u64) {
    let cfg = OramConfig::small_test();
    let leaves = cfg.leaf_count();
    let mut ctl = ForkPathController::new(cfg, ForkConfig::default(), dram(), seed);
    ctl.enable_label_trace();
    for &addr in pattern {
        ctl.submit(NewRequest::read(addr, ctl.clock_ps())).unwrap();
        if addr % 3 == 0 {
            ctl.run_to_idle().unwrap();
        }
    }
    ctl.run_to_idle().unwrap();
    (ctl.label_trace().unwrap().to_vec(), leaves)
}

#[test]
fn fork_labels_uniform_for_sequential_pattern() {
    let pattern: Vec<u64> = (0..400).map(|i| i % 128).collect();
    let (trace, leaves) = fork_trace(&pattern, 21);
    assert!(trace.len() > 200);
    let chi2 = chi_square(&trace, leaves, 16);
    assert!(chi2 < chi2_crit(15.0), "chi2={chi2} trace={}", trace.len());
}

#[test]
fn fork_labels_uniform_for_single_hot_address() {
    // The most revealing pattern imaginable: one address, hammered.
    let pattern = vec![42u64; 400];
    let (trace, leaves) = fork_trace(&pattern, 22);
    let chi2 = chi_square(&trace, leaves, 16);
    assert!(chi2 < chi2_crit(15.0), "chi2={chi2}");
}

#[test]
fn label_distributions_indistinguishable_across_patterns() {
    // Two very different programs: labels must look the same. Two-sample
    // chi-square over leaf octants.
    let seq: Vec<u64> = (0..400).map(|i| i % 200).collect();
    let mut rng = Xoshiro256::new(5);
    let rand: Vec<u64> = (0..400).map(|_| rng.next_below(200)).collect();

    let (t1, leaves) = fork_trace(&seq, 23);
    let (t2, _) = fork_trace(&rand, 23);

    let bins = 8usize;
    let hist = |t: &[u64]| {
        let mut h = vec![0f64; bins];
        for &l in t {
            h[(l as u128 * bins as u128 / leaves as u128) as usize] += 1.0;
        }
        h
    };
    let (h1, h2) = (hist(&t1), hist(&t2));
    let (n1, n2) = (t1.len() as f64, t2.len() as f64);
    let mut chi2 = 0.0;
    for b in 0..bins {
        let pooled = (h1[b] + h2[b]) / (n1 + n2);
        let (e1, e2) = (pooled * n1, pooled * n2);
        chi2 += (h1[b] - e1).powi(2) / e1.max(1.0) + (h2[b] - e2).powi(2) / e2.max(1.0);
    }
    assert!(chi2 < chi2_crit(7.0), "two-sample chi2={chi2}");
}

#[test]
fn consecutive_labels_are_uncorrelated_without_scheduling() {
    // With overlap scheduling the controller *deliberately* orders similar
    // labels next to each other — a reordering computed purely from the
    // public label sequence (§3.6). With scheduling disabled, consecutive
    // labels must show no serial structure at all.
    let pattern: Vec<u64> = (0..600).map(|i| (i * 7) % 256).collect();
    let (trace, leaves) = {
        let cfg = OramConfig::small_test();
        let leaves = cfg.leaf_count();
        let fork_cfg = ForkConfig {
            scheduling: false,
            ..ForkConfig::default()
        };
        let mut ctl = ForkPathController::new(cfg, fork_cfg, dram(), 24);
        ctl.enable_label_trace();
        for &addr in &pattern {
            ctl.submit(NewRequest::read(addr, ctl.clock_ps())).unwrap();
            if addr % 3 == 0 {
                ctl.run_to_idle().unwrap();
            }
        }
        ctl.run_to_idle().unwrap();
        (ctl.label_trace().unwrap().to_vec(), leaves)
    };
    let n = trace.len() - 1;
    let xs: Vec<f64> = trace.iter().map(|&l| l as f64 / leaves as f64).collect();
    let mean = xs.iter().sum::<f64>() / xs.len() as f64;
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
    let cov = (0..n)
        .map(|i| (xs[i] - mean) * (xs[i + 1] - mean))
        .sum::<f64>()
        / n as f64;
    let rho = cov / var;
    // With ~500 samples, |rho| beyond ~4/sqrt(n) would be suspicious.
    let bound = 4.0 / (n as f64).sqrt();
    assert!(
        rho.abs() < bound,
        "serial correlation rho={rho} bound={bound}"
    );
}

#[test]
fn baseline_labels_equally_uniform() {
    let cfg = OramConfig::small_test();
    let leaves = cfg.leaf_count();
    let mut ctl = BaselineController::new(cfg, dram(), 31);
    ctl.enable_label_trace();
    for i in 0..300u64 {
        ctl.submit(NewRequest::read(i % 64, ctl.clock_ps()))
            .unwrap();
        ctl.run_to_idle().unwrap();
    }
    let trace = ctl.label_trace().unwrap().to_vec();
    let chi2 = chi_square(&trace, leaves, 16);
    assert!(chi2 < chi2_crit(15.0), "chi2={chi2}");
}

#[test]
fn merging_does_not_inflate_stash_occupancy_unboundedly() {
    // §3.6: merging must not change the stash-overflow story. Run a long
    // storm and verify the high-water mark stays far below pathological.
    let cfg = OramConfig::small_test();
    let capacity = cfg.stash_capacity;
    let mut ctl = ForkPathController::new(cfg, ForkConfig::default(), dram(), 32);
    let mut rng = Xoshiro256::new(99);
    for _ in 0..1500 {
        let addr = rng.next_below(300);
        let req = if rng.gen_bool(0.4) {
            NewRequest::write(addr, vec![1; 16], ctl.clock_ps())
        } else {
            NewRequest::read(addr, ctl.clock_ps())
        };
        ctl.submit(req).unwrap();
    }
    ctl.run_to_idle().unwrap();
    let hw = ctl.state().stash().high_water();
    assert!(
        hw < capacity,
        "stash high water {hw} must stay under C={capacity}"
    );
    ctl.state().check_invariants().unwrap();
}

#[test]
fn refill_never_writes_buckets_shared_with_next_path() {
    // Direct check of the fork-shape access property on the stats: merged
    // accesses must touch strictly fewer buckets than full paths.
    let cfg = OramConfig::small_test();
    let full = cfg.path_len() as f64;
    let mut ctl = ForkPathController::new(cfg, ForkConfig::default(), dram(), 33);
    for a in 0..128u64 {
        ctl.submit(NewRequest::read(a, 0)).unwrap();
    }
    ctl.run_to_idle().unwrap();
    let s = ctl.stats();
    assert!(s.avg_path_len() < full - 1.0, "merging must shorten paths");
    // And the first access of the session read a complete path (step 0).
    assert!(s.buckets_read > 0);
}
