//! # fork-path-oram
//!
//! Facade crate for the Fork Path ORAM (MICRO 2015) reproduction workspace.
//!
//! Re-exports the subsystem crates so examples and downstream users can
//! depend on a single crate:
//!
//! * [`crypto`] — ChaCha20 counter-mode probabilistic encryption, seedable RNGs.
//! * [`dram`] — DDR3 timing/energy simulator with subtree layout.
//! * [`path_oram`] — baseline Path ORAM: tree, stash, recursion, controller.
//! * [`core`] — the paper's contribution: path merging, request scheduling,
//!   dummy replacing, merging-aware caching, the Fork Path controller.
//! * [`workloads`] — synthetic SPEC/PARSEC stand-ins and the CPU frontend.
//! * [`service`] — sharded concurrent serving layer: bounded queues with
//!   backpressure, deadlines, drain/shutdown, aggregate service stats.
//! * [`net`] — network front end: framed wire protocol, threaded TCP
//!   server over the service, pipelined client.
//! * [`sim`] — full-system simulation, metrics, and energy accounting.
//! * [`stats`] — the statistical tests behind the security audit.
//! * [`trace`] — the shared tracing/metrics spine (counters, histograms,
//!   typed event ring) every subsystem reports into.
//!
//! The facade also hosts [`propcheck`], the small seeded property-testing
//! driver the invariant suite runs on.
//!
//! See `README.md` for a quickstart and `DESIGN.md` for the system inventory.

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]
#![deny(clippy::allow_attributes)]
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

pub mod propcheck;

pub use fp_core as core;
pub use fp_crypto as crypto;
pub use fp_dram as dram;
pub use fp_net as net;
pub use fp_path_oram as path_oram;
pub use fp_service as service;
pub use fp_sim as sim;
pub use fp_stats as stats;
pub use fp_trace as trace;
pub use fp_workloads as workloads;
