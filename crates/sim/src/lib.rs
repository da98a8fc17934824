//! # fp-sim
//!
//! The full-system simulation layer of the Fork Path reproduction — the
//! stand-in for the paper's gem5 + DRAMSim2 infrastructure (§5.1).
//!
//! * [`SystemConfig`] — Table 1 in code: 4-core 2 GHz processor, a 4 GB
//!   unified hierarchical Path ORAM (`L = 24`, `Z = 4`, 64 B blocks), two
//!   DDR3-1600 channels.
//! * [`Scheme`] — the systems compared throughout §5: the insecure
//!   processor, traditional Path ORAM (optionally with treetop caching),
//!   and Fork Path in any [`fp_core::ForkConfig`] variant.
//! * [`run_workload`] — drives a [`fp_workloads::cpu::MultiCoreWorkload`]
//!   through a scheme and returns a [`RunResult`] holding every metric the
//!   paper reports: average ORAM latency, average accessed path length,
//!   total/dummy ORAM request counts, execution time, and an energy
//!   breakdown from the [`energy`] model.
//! * [`experiment`] — sweep helpers (per-mix runs, geometric means,
//!   normalization) shared by the figure-regeneration binaries in
//!   `fp-bench`.
//!
//! # Example
//!
//! ```
//! use fp_sim::{run_workload, Scheme, SystemConfig};
//! use fp_workloads::{cpu::MultiCoreWorkload, mixes};
//!
//! let cfg = SystemConfig::fast_test();
//! // Shrink the mix footprint to the test ORAM's capacity.
//! let mut mix = mixes::all()[0].clone();
//! for p in &mut mix.programs {
//!     p.working_set_blocks = 1 << 12;
//! }
//! let wl = MultiCoreWorkload::from_mix(&mix, 30, 7);
//! let result = run_workload(&cfg, Scheme::ForkDefault, wl);
//! assert!(result.oram_latency_ns > 0.0);
//! ```

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]
#![deny(clippy::allow_attributes)]
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]
#![warn(missing_docs)]

mod config;
pub mod energy;
pub mod experiment;
pub mod metrics;
pub mod report;
mod system;

pub use config::{Scheme, SystemConfig};
pub use metrics::RunResult;
pub use system::{run_workload, run_workload_traced};
