//! # fp-core
//!
//! The paper's contribution: **Fork Path ORAM** (Zhang et al., MICRO 2015).
//!
//! Traditional Path ORAM treats every request independently, reading and
//! refilling a complete root-to-leaf path. Consecutive paths always share a
//! prefix (at least the root), and the shared buckets are written out and
//! immediately read back *unchanged* — redundant traffic that is public
//! information and can be removed without weakening ORAM security (§3.1).
//! Fork Path does so with three cooperating techniques:
//!
//! * **Path merging** (§3.2): the read phase skips buckets shared with the
//!   *previous* path (they are still in the stash); the refill skips buckets
//!   shared with the *next* path (they stay in the stash). Two consecutive
//!   accesses touch memory in the shape of a fork.
//! * **ORAM request scheduling** (§3.4): a fixed-size label queue is kept
//!   full (padded with dummies), and the next request merged is any ready
//!   real one before any dummy, the highest overlap degree within each;
//!   per-entry age counters prevent starvation (Algorithm 1). §3.4 read
//!   literally ("highest overlap, reals win ties") lets padding win most
//!   rounds, so a dummy runs only when no real is ready (DESIGN.md §7
//!   item 1).
//! * **Dummy request replacing** (§3.3): a dummy selected for merging can be
//!   replaced by a late-arriving real request up until the refill commits
//!   the bucket where the two paths cross (Fig 5, cases 1–3).
//!
//! On top of these, the **merging-aware cache** ([`MergingAwareCache`],
//! §3.5) skips the top `len_overlap` levels — which merging keeps in the
//! stash anyway — and dedicates its capacity to the whole mid-tree levels
//! below them.
//!
//! [`ForkPathController`] (§4) combines everything behind the same
//! two-queue architecture as Fig 9: an address queue with data-hazard
//! handling feeding a label queue that schedules the ORAM requests.
//!
//! The paper's baseline, traditional Path ORAM ([`BaselineController`]),
//! lives beside it and drives the same `fp_path_oram::Datapath` with its
//! own FIFO orchestration. Every memory system — those two and an insecure
//! plain-DRAM engine — implements one scheme-agnostic incremental API,
//! [`OramEngine`], and is driven through nothing else; [`Scheme`] names
//! and constructs them, so simulators, the serving layer, and the bench
//! harness drive every memory system through the same loop.
//!
//! # Example
//!
//! ```
//! use fp_core::{ForkConfig, ForkPathController, NewRequest, OramEngine};
//! use fp_path_oram::OramConfig;
//! use fp_dram::{DramConfig, DramSystem};
//!
//! let dram = DramSystem::new(DramConfig::ddr3_1600(2));
//! let mut ctl = ForkPathController::new(
//!     OramConfig::small_test(),
//!     ForkConfig::default(),
//!     dram,
//!     1,
//! );
//! ctl.submit(NewRequest::write(9, vec![1; 16], 0)).unwrap();
//! ctl.submit(NewRequest::read(9, 0)).unwrap();
//! let done = ctl.run_to_idle().unwrap();
//! assert_eq!(done.len(), 2);
//! assert!(ctl.stats().avg_path_len() < 10.0, "merging shortens paths");
//! ```

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]
#![deny(clippy::allow_attributes)]
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]
#![warn(missing_docs)]

mod address_queue;
mod baseline;
mod config;
mod controller;
mod dummy;
pub mod engine;
mod error;
mod fault;
mod flight;
mod mac;
mod merge;
mod plb;
mod queue;
pub mod timing;

pub use baseline::BaselineController;
pub use config::{CacheChoice, ForkConfig};
pub use controller::ForkPathController;
pub use engine::{OramEngine, Scheme};
pub use error::ControllerError;
pub use fault::{FaultConfig, FaultInjector};
pub use fp_path_oram::{NewRequest, NoFeedback, ReactiveSource};
pub use mac::MergingAwareCache;
pub use merge::PathMerger;
pub use plb::PosMapLookasideBuffer;
