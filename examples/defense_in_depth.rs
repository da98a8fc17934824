//! Defense in depth: Fork Path ORAM combined with the two orthogonal
//! countermeasures the paper points to in §2.2 — Merkle-tree integrity
//! verification (active attacks) and a fixed-rate request stream (timing
//! channel).
//!
//! Run with: `cargo run --release --example defense_in_depth`

use fork_path_oram::core::timing::idle_cost;
use fork_path_oram::core::{ForkConfig, ForkPathController, NewRequest, NoFeedback, OramEngine};
use fork_path_oram::dram::{DramConfig, DramSystem};
use fork_path_oram::path_oram::integrity::MerkleTree;
use fork_path_oram::path_oram::OramConfig;

fn main() {
    // --- 1. Integrity: a Merkle tree over the ORAM tree -----------------
    println!("=== Merkle-tree integrity (vs active attacks) ===");
    let levels = 9;
    let mut merkle = MerkleTree::new(levels, [0xfeed, 0xbeef]);
    // Writes ride along with ORAM refills: hash the bucket, rehash the path.
    let leaf_node = (1u64 << levels) + 123;
    merkle.update_bucket(leaf_node, b"encrypted bucket v1");
    merkle.rehash_path(levels, 123);
    merkle
        .verify_bucket(leaf_node, b"encrypted bucket v1")
        .unwrap();
    println!(
        "honest bucket        : verified (root {:016x})",
        merkle.root()
    );

    // An active adversary replays the stale version after an update.
    merkle.update_bucket(leaf_node, b"encrypted bucket v2");
    merkle.rehash_path(levels, 123);
    match merkle.verify_bucket(leaf_node, b"encrypted bucket v1") {
        Err(e) => println!("replayed stale bucket: rejected ({e})"),
        Ok(()) => unreachable!("replay must be detected"),
    }

    // --- 2. Timing protection: a fixed-rate ORAM stream ------------------
    println!("\n=== Fixed-rate stream (vs the timing channel) ===");
    let dram = DramSystem::new(DramConfig::ddr3_1600(2));
    let mut ctl =
        ForkPathController::new(OramConfig::small_test(), ForkConfig::default(), dram, 99);

    // A short program burst...
    for a in 0..16u64 {
        ctl.submit(NewRequest::write(a, vec![a as u8; 16], 0))
            .expect("controller invariant violated");
    }
    let mut src = NoFeedback;
    while ctl
        .process_one(&mut src)
        .expect("controller invariant violated")
    {}
    let busy_end = ctl.clock_ps();

    // ...followed by 100 us of program silence that must stay invisible.
    let report = idle_cost(&mut ctl, 100_000_000, 1_000_000);
    println!(
        "program burst ended at     : {:.1} us",
        busy_end as f64 / 1e6
    );
    println!("protected idle window      : 100 us at 1 access/us");
    println!("padding dummies issued     : {}", report.forced_dummies);
    println!(
        "avg path per padded access : {:.2} buckets (merging still applies)",
        ctl.stats().avg_path_len()
    );

    // The data survives the padded period, of course.
    ctl.submit(NewRequest::read(7, ctl.clock_ps()))
        .expect("controller invariant violated");
    let done = ctl.run_to_idle().expect("controller invariant violated");
    assert_eq!(done.last().unwrap().data[0], 7);
    ctl.state().check_invariants().unwrap();
    println!("post-protection read check : OK");
}
