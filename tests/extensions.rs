//! Integration tests for the beyond-the-paper extensions: Merkle integrity
//! riding on ORAM traffic, fixed-rate timing protection, and the PosMap
//! Lookaside Buffer.

use fork_path_oram::core::timing::{enforce_fixed_rate, idle_cost};
use fork_path_oram::core::{ForkConfig, ForkPathController, NewRequest, NoFeedback, OramEngine};
use fork_path_oram::dram::{DramConfig, DramSystem};
use fork_path_oram::path_oram::integrity::{siphash24, MerkleTree};
use fork_path_oram::path_oram::OramConfig;
use fork_path_oram::sim::{run_workload, Scheme, SystemConfig};
use fork_path_oram::workloads::cpu::MultiCoreWorkload;
use fork_path_oram::workloads::mixes;

fn dram() -> DramSystem {
    DramSystem::new(DramConfig::ddr3_1600(2))
}

// ---------- Merkle integrity over live ORAM traffic ----------------------

#[test]
fn merkle_tree_tracks_a_full_oram_run() {
    // Shadow the untrusted tree with a Merkle tree: after every ORAM
    // operation, re-hash the touched paths and verify a sample of buckets.
    let cfg = OramConfig::small_test();
    let levels = cfg.levels;
    let mut ctl = ForkPathController::new(cfg, ForkConfig::default(), dram(), 51);
    let mut merkle = MerkleTree::new(levels, [11, 22]);

    for a in 0..48u64 {
        ctl.submit(NewRequest::write(a, vec![a as u8; 16], ctl.clock_ps()))
            .unwrap();
    }
    ctl.run_to_idle().unwrap();

    // Hash the current untrusted state wholesale (a verifier snapshot).
    let contents: Vec<(u64, Vec<u8>)> = ctl
        .state()
        .tree()
        .iter_buckets()
        .map(|(node, blocks)| {
            let mut bytes = Vec::new();
            for b in &blocks {
                bytes.extend_from_slice(&b.addr.to_le_bytes());
                bytes.extend_from_slice(&b.data);
            }
            (node, bytes)
        })
        .collect();
    for (node, bytes) in &contents {
        merkle.update_bucket(*node, bytes);
    }
    // Rehash every leaf-to-root path that has content.
    for (node, _) in &contents {
        let mut n = *node;
        while n < (1 << levels) {
            n *= 2; // descend to a leaf under this node
        }
        merkle.rehash_path(levels, n - (1 << levels));
    }
    // Full rehash of all leaves keeps ancestors coherent.
    for leaf in 0..(1u64 << levels.min(9)) {
        merkle.rehash_path(levels, leaf);
    }

    // Every stored bucket verifies; a tampered byte string does not.
    for (node, bytes) in contents.iter().take(32) {
        merkle.verify_bucket(*node, bytes).unwrap();
        let mut bad = bytes.clone();
        if bad.is_empty() {
            bad.push(1);
        } else {
            bad[0] ^= 0xFF;
        }
        assert!(merkle.verify_bucket(*node, &bad).is_err(), "node {node}");
    }
}

#[test]
fn siphash_distributes_over_buckets() {
    // Avalanche sanity: one-bit input changes flip about half the output.
    let key = [7u64, 13u64];
    let base = siphash24(key, b"bucket contents here");
    let variant = siphash24(key, b"bucket contents hers");
    let flipped = (base ^ variant).count_ones();
    assert!(
        (12..=52).contains(&flipped),
        "weak diffusion: {flipped} bits"
    );
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
