//! Integration tests for the beyond-the-paper extensions: fixed-rate
//! timing protection and the PosMap Lookaside Buffer. What sealing does
//! and does not defend against is pinned in the tree store's own tests
//! (DESIGN.md §2).

use fork_path_oram::core::timing::{enforce_fixed_rate, idle_cost};
use fork_path_oram::core::{ForkConfig, ForkPathController, NewRequest, NoFeedback, OramEngine};
use fork_path_oram::dram::{DramConfig, DramSystem};
use fork_path_oram::path_oram::OramConfig;
use fork_path_oram::sim::{run_workload, Scheme, SystemConfig};
use fork_path_oram::workloads::cpu::MultiCoreWorkload;
use fork_path_oram::workloads::mixes;

fn dram() -> DramSystem {
    DramSystem::new(DramConfig::ddr3_1600(2))
}

// ---------- Fixed-rate timing protection --------------------------------

#[test]
fn fixed_rate_keeps_access_cadence_data_independent() {
    // Compare two very different programs under protection: the number of
    // accesses in the window must be driven by the rate, not the program.
    let run = |requests: u64| {
        let mut ctl =
            ForkPathController::new(OramConfig::small_test(), ForkConfig::default(), dram(), 52);
        for a in 0..requests {
            ctl.submit(NewRequest::read(a, 0)).unwrap();
        }
        let mut src = NoFeedback;
        let _ = enforce_fixed_rate(&mut ctl, &mut src, 40_000_000, 500_000);
        ctl.stats().oram_accesses
    };
    let busy = run(60);
    let quiet = run(2);
    let ratio = busy as f64 / quiet as f64;
    assert!(
        (0.5..2.0).contains(&ratio),
        "access counts must not differ wildly under protection: {busy} vs {quiet}"
    );
}

#[test]
fn protection_cost_scales_with_window() {
    let mut ctl =
        ForkPathController::new(OramConfig::small_test(), ForkConfig::default(), dram(), 53);
    let short = idle_cost(&mut ctl, 10_000_000, 500_000).forced_dummies;
    let long = idle_cost(&mut ctl, 40_000_000, 500_000).forced_dummies;
    assert!(long > 2 * short, "{long} vs {short}");
}

// ---------- PLB at system level ------------------------------------------

#[test]
fn plb_improves_system_latency_on_hot_working_sets() {
    let cfg = SystemConfig::fast_test();
    let mut mix = mixes::all()[2].clone();
    for p in &mut mix.programs {
        p.working_set_blocks = 1 << 11; // hot: heavy posmap reuse
        p.avg_gap_ns = 400.0;
    }
    let wl = || MultiCoreWorkload::from_mix(&mix, 120, 54);
    let plain = run_workload(&cfg, Scheme::ForkDefault, wl());
    let plb = run_workload(
        &cfg,
        Scheme::Fork(ForkConfig {
            plb_blocks: 64,
            ..ForkConfig::default()
        }),
        wl(),
    );
    assert!(
        plb.oram_accesses < plain.oram_accesses,
        "PLB cuts accesses: {} vs {}",
        plb.oram_accesses,
        plain.oram_accesses
    );
    assert!(plb.oram_latency_ns <= plain.oram_latency_ns * 1.05);
}
