//! # fp-path-oram
//!
//! The baseline Path ORAM substrate of the Fork Path reproduction (§2.3 of
//! the paper): everything a secure processor's ORAM controller needs *before*
//! the Fork Path optimizations are layered on top by `fp-core`.
//!
//! ## Components
//!
//! * [`OramConfig`] — tree geometry (levels, bucket size `Z`, block size) and
//!   capacity helpers mirroring Table 1 (4 GB data ORAM, `L = 24`, `Z = 4`).
//! * [`path`] — leaf/path arithmetic: path node enumeration, shared-prefix
//!   ("overlap degree") computation that path merging and request scheduling
//!   are built on.
//! * [`TreeStore`] — the untrusted external memory: a sparse, lazily
//!   initialized bucket store, paged by depth-5 subtree, with counter-mode
//!   probabilistic re-encryption on every bucket write.
//! * [`Stash`] — the trusted on-chip block buffer with greedy deepest-first
//!   eviction, consumed as a stream: candidates ordered once per refill,
//!   one bucket taken per level.
//! * [`PosMapHierarchy`] — unified hierarchical position map (Fig 2): posmap
//!   ORAMs share the data ORAM's tree and address space; recursion continues
//!   until the top map fits on chip.
//! * [`OramState`] — the combined trusted state (tree, stash, posmap, label
//!   RNG) with the block handling between the phases (`chain_step`,
//!   `apply_op`).
//! * [`Datapath`] — the one datapath under both controllers: owns the
//!   state, the DRAM system, the [`WritebackEngine`] and the trace spine,
//!   and exposes the two phases of an access — `read_path` from a floor
//!   down, and the refill stream `begin_refill` + `refill_level`, leaf to
//!   root for as many levels as the controller decides.
//! * [`BaselineController`] — the traditional Path ORAM controller: every
//!   access reads and refills a complete path, driven either synchronously
//!   ([`BaselineController::access_sync`]) or incrementally through the
//!   submit/pump model ([`BaselineController::process_one`]).
//! * The closed-loop feedback vocabulary ([`NewRequest`],
//!   [`ReactiveSource`], [`NoFeedback`], at the crate root) shared by every
//!   incremental engine from the baseline to Fork Path.
//! * [`cache`] — the on-chip bucket-cache abstraction with the prior-art
//!   [`cache::TreetopCache`] policy (Phantom \[13\]).
//! * [`keyed`] — the `u64`-keyed map and set aliases (one-multiply hasher)
//!   for keys the program makes itself: node ids, block addresses, tags.
//! * [`integrity`] — Merkle-tree verification over the ORAM tree, the
//!   combinable defence against active attacks the paper points to (§2.2).
//!
//! # Example
//!
//! ```
//! use fp_path_oram::{BaselineController, OramConfig, Op};
//! use fp_dram::{DramConfig, DramSystem};
//!
//! let cfg = OramConfig::small_test(); // tiny tree for examples/tests
//! let dram = DramSystem::new(DramConfig::ddr3_1600(2));
//! let mut ctl = BaselineController::new(cfg, dram, 1234);
//! ctl.submit(7, Op::Write, vec![0xAB; 16], 0);
//! let completions = ctl.run_to_idle();
//! assert_eq!(completions.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]
#![deny(clippy::allow_attributes)]
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]
#![warn(missing_docs)]

pub mod cache;
mod config;
mod controller;
mod datapath;
pub mod integrity;
pub mod keyed;
pub mod path;
mod posmap;
mod reactive;
mod stash;
mod state;
mod stats;
mod tree;
mod writeback;

pub use config::{CipherMode, OramConfig};
pub use controller::{BaselineController, Completion, LlcRequest, Op};
pub use datapath::{Datapath, CTRL_PHASE_LATENCY_PS};
pub use integrity::IntegrityError;
pub use posmap::PosMapHierarchy;
pub use reactive::{CompletionLog, NewRequest, NoFeedback, ReactiveSource};
pub use stash::{Block, Stash};
pub use state::{AccessOutcome, OramState};
pub use stats::{AccessTimes, OramStats};
pub use tree::TreeStore;
pub use writeback::WritebackEngine;
