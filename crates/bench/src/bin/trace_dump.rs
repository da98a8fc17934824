//! Trace-spine dump: drives a ~1k-access mixed workload through the Fork
//! Path controller with the event ring enabled and prints the full spine
//! as validated JSON (counters, latency/occupancy histograms, and the
//! most recent events).
//!
//! Usage: `trace_dump [--trace <path>]` — with `--trace` the JSON goes to
//! the file instead of stdout (only the summary line is printed). Pipe the
//! output into the figure scripts or inspect `events[]` directly to see
//! per-access fork levels and DRAM command interleaving.

#![forbid(unsafe_code)]

use fp_core::{ForkConfig, ForkPathController};
use fp_dram::{DramConfig, DramSystem};
use fp_path_oram::{Op, OramConfig};
use fp_sim::experiment::trace_path_from_args;

/// Number of LLC requests driven through the controller.
const REQUESTS: u64 = 1_000;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = OramConfig::small_test();
    let data_blocks = cfg.data_blocks;
    let dram = DramSystem::new(DramConfig::ddr3_1600(2));
    let mut ctl = ForkPathController::new(cfg, ForkConfig::default(), dram, 0xf0f0);
    ctl.set_trace_capacity(8192);

    // A mixed read/write workload with reuse (hot set) and strides, in
    // bursts so the scheduler sees contention and idle gaps alike.
    for i in 0..REQUESTS {
        let addr = match i % 4 {
            0 => (i * 17) % data_blocks,              // stride
            1 => i % 16,                              // hot set
            2 => (i * i) % data_blocks,               // irregular
            _ => (data_blocks - 1 - i) % data_blocks, // reverse stride
        };
        let op = if i % 3 == 0 { Op::Write } else { Op::Read };
        let data = match op {
            Op::Write => vec![(i & 0xff) as u8; 64],
            Op::Read => vec![],
        };
        ctl.submit(addr, op, data, ctl.clock_ps());
        if i % 7 == 0 {
            ctl.run_to_idle();
        }
    }
    ctl.run_to_idle();

    let trace = ctl.trace();
    let json = trace.to_json();
    fp_stats::json::validate(&json).expect("trace JSON must validate");
    println!(
        "{} requests: {} oram accesses, {} events kept, {} dropped",
        REQUESTS,
        ctl.stats().oram_accesses,
        trace.len(),
        trace.dropped()
    );
    match trace_path_from_args(&args) {
        Some(path) => {
            std::fs::write(&path, &json).expect("write trace dump");
            println!("trace written to {}", path.display());
        }
        None => println!("{json}"),
    }
}
