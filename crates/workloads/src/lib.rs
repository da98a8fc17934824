//! # fp-workloads
//!
//! Synthetic workload models standing in for the paper's SPEC 2006 and
//! PARSEC benchmark suites (§5.1, Table 2), plus the processor frontend that
//! turns them into timed LLC-miss streams.
//!
//! The paper evaluates Fork Path with gem5 running SPEC/PARSEC binaries; we
//! cannot redistribute or execute those. What the ORAM controller actually
//! sees, however, is only the *LLC miss stream*: its intensity (mean gap
//! between misses), its memory-level parallelism, its read/write split and
//! its footprint. Each benchmark here is therefore a [`BenchmarkProfile`]
//! with those parameters, calibrated so the paper's *high ORAM overhead
//! group* (HG) is memory-intensive and the *low group* (LG) is compute-bound
//! — the partition Table 2's mixes are built from. The substitution is
//! documented in `DESIGN.md` §2.
//!
//! * [`spec`] — the seventeen SPEC CPU2006 profiles used by Table 2.
//! * [`mixes`] — Mix1–Mix10 exactly as listed in Table 2.
//! * [`parsec`] — multithreaded profiles for the Fig 19 experiment.
//! * [`cpu`] — `cpu::CoreModel` / [`cpu::MultiCoreWorkload`]: in-order or
//!   out-of-order cores with bounded outstanding misses, deterministic per
//!   seed so every controller variant replays an identical request stream.
//! * [`service`] — [`service::ServiceClientPool`]: closed-loop tenant
//!   clients for the sharded serving layer (`fp-service`), deterministic
//!   per `(seed, shard)` in simulated time.
//! * [`zipf`] — seeded Zipfian hotspot schedules (open-loop, global
//!   addresses) for the serving layer's trace-replay mode; the skewed
//!   duplicate-address traffic that exercises cross-request coalescing.
//!
//! # Example
//!
//! ```
//! use fp_workloads::{cpu::MultiCoreWorkload, mixes};
//!
//! let mix1 = &mixes::all()[0];
//! let mut wl = MultiCoreWorkload::from_mix(mix1, 100, 42);
//! let first = wl.next_issue_time().unwrap();
//! let (addr, _op) = wl.issue_at(first).unwrap();
//! assert!(addr < 1 << 26);
//! ```

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]
#![deny(clippy::allow_attributes)]
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]
#![warn(missing_docs)]

pub mod cpu;
pub mod mixes;
pub mod parsec;
mod profile;
pub mod service;
pub mod spec;
pub mod zipf;

pub use profile::{BenchmarkProfile, OverheadGroup};
