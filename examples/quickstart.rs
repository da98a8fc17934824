//! Quickstart: store and fetch data through a Fork Path ORAM controller.
//!
//! Run with: `cargo run --release --example quickstart`
//!
//! Demonstrates the core promise of the library: a standard read/write
//! memory interface whose external access pattern is oblivious, with the
//! Fork Path optimizations (path merging, request scheduling, dummy
//! replacing) cutting the memory traffic of every access.

use fork_path_oram::core::{ForkConfig, ForkPathController, NewRequest, OramEngine};
use fork_path_oram::dram::{DramConfig, DramSystem};
use fork_path_oram::path_oram::{CipherMode, OramConfig};

fn main() {
    // A small ORAM with real counter-mode encryption of the tree contents.
    let mut oram_cfg = OramConfig::small_test();
    oram_cfg.cipher_mode = CipherMode::Real;

    let dram = DramSystem::new(DramConfig::ddr3_1600(2));
    let mut ctl = ForkPathController::new(oram_cfg, ForkConfig::default(), dram, 42);

    // Write a few records.
    println!("writing 16 records...");
    for i in 0u64..16 {
        let payload = vec![i as u8; 16];
        ctl.submit(NewRequest::write(i, payload, ctl.clock_ps()))
            .expect("controller invariant violated");
    }
    ctl.run_to_idle().expect("controller invariant violated");

    // Read them back — every access re-encrypts and re-shuffles.
    println!("reading them back...");
    for i in 0u64..16 {
        ctl.submit(NewRequest::read(i, ctl.clock_ps()))
            .expect("controller invariant violated");
    }
    let done = ctl.run_to_idle().expect("controller invariant violated");
    for c in &done {
        assert_eq!(c.data, vec![c.addr as u8; 16], "record {} intact", c.addr);
    }

    let s = ctl.stats();
    println!("\nall {} records verified.", done.len());
    println!("ORAM accesses executed      : {}", s.oram_accesses);
    println!("  of which dummies          : {}", s.dummy_accesses);
    println!(
        "avg buckets touched / phase : {:.2} (full path would be {})",
        s.avg_path_len(),
        ctl.state().config().path_len()
    );
    println!("avg request latency         : {:.1} ns", s.avg_latency_ns());
    println!(
        "stash high water            : {} blocks",
        ctl.state().stash().high_water()
    );
    ctl.state()
        .check_invariants()
        .expect("Path ORAM invariants hold");
    println!("Path ORAM invariants        : OK");
}
