//! # fp-dram
//!
//! A DDR3 main-memory timing and energy simulator, standing in for DRAMSim2
//! in the Fork Path ORAM reproduction (§5.1 of the paper).
//!
//! The model captures what the paper's evaluation depends on:
//!
//! * **Bank/row-buffer state**: open-page policy, row hits vs. row misses,
//!   with full ACT/PRE/CAS timing (`tRCD`, `tRP`, `tCL`, `tCWL`, `tRAS`,
//!   `tCCD`, `tRTP`, `tWR`, `tWTR`, `tRRD`, `tFAW`).
//! * **Channel-level parallelism** and data-bus serialization with
//!   read/write turnaround penalties.
//! * **FR-FCFS scheduling** of request batches (a path read/write issues all
//!   its bucket blocks at once).
//! * **Energy accounting** from command counts (activation, read, write)
//!   plus rank background power — the inputs of Fig 15.
//! * **Subtree layout** ([`layout::SubtreeLayout`], Ren et al. \[18\]): ORAM
//!   tree buckets are packed so that a path descent touches few DRAM rows.
//!
//! # Example
//!
//! ```
//! use fp_dram::{AccessKind, DramConfig, DramSystem};
//!
//! let mut dram = DramSystem::new(DramConfig::ddr3_1600(2));
//! let done = dram.access_spans(0, AccessKind::Read, &[4096], 1);
//! assert!(done > 0);
//! assert_eq!(dram.stats().reads, 1);
//! ```

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]
#![deny(clippy::allow_attributes)]
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]
#![warn(missing_docs)]

mod channel;
mod config;
pub mod layout;
mod stats;
mod system;

pub use config::{DramConfig, DramTiming};
pub use stats::DramStats;
pub use system::{AccessKind, BatchResult, DramSystem};
