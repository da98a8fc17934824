//! A fixed-rate request stream: Fork Path ORAM combined with the timing
//! countermeasure the paper points to in §2.2. A short program burst is
//! followed by a silence the controller pads with dummy accesses at a
//! fixed cadence, so the access stream does not reveal when the program
//! went quiet; path merging still applies to the padding.
//!
//! Run with: `cargo run --release --example fixed_rate_stream`

use fork_path_oram::core::timing::idle_cost;
use fork_path_oram::core::{ForkConfig, ForkPathController, NewRequest, NoFeedback, OramEngine};
use fork_path_oram::dram::{DramConfig, DramSystem};
use fork_path_oram::path_oram::OramConfig;

fn main() {
    println!("=== Fixed-rate stream (vs the timing channel) ===");
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
