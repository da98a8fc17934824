//! # fp-path-oram
//!
//! The Path ORAM substrate of the Fork Path reproduction (§2.3 of the
//! paper): everything a secure processor's ORAM controller drives, with or
//! without the Fork Path optimizations `fp-core` layers on top.
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
//!   probabilistic re-encryption on every bucket write. The encryption is
//!   for confidentiality only; an image's length is the one check, and
//!   its [`IntegrityError`] catches framing errors and injected faults,
//!   not tampering (DESIGN.md §2).
//! * [`Stash`] — the trusted on-chip block buffer with greedy deepest-first
//!   eviction, consumed as a stream: candidates ordered once per refill,
//!   one bucket taken per level.
//! * [`PosMapHierarchy`] — unified hierarchical position map (Fig 2): posmap
//!   ORAMs share the data ORAM's tree and address space; recursion continues
//!   until the top map fits on chip.
//! * [`OramState`] — the combined trusted state (tree, stash, posmap, label
//!   RNG) with the block handling between the phases (`chain_step`,
//!   `apply_op`).
//! * [`Datapath`] — the one datapath under every controller: owns the
//!   state, the DRAM system, the [`WritebackEngine`] and the trace spine,
//!   and exposes the two phases of an access — `read_path` from a floor
//!   down, and the refill stream `begin_refill` + `refill_level`, leaf to
//!   root for as many levels as the controller decides.
//! * The request vocabulary ([`Op`], [`NewRequest`], [`Completion`]) and
//!   the closed-loop feedback ([`ReactiveSource`], [`NoFeedback`],
//!   [`CompletionLog`]) shared by every engine.
//! * [`cache`] — the on-chip bucket-cache abstraction with the prior-art
//!   [`cache::TreetopCache`] policy (Phantom \[13\]).
//! * [`keyed`] — the `u64`-keyed map and set aliases (one-multiply hasher)
//!   for keys the program makes itself: node ids, block addresses, tags.
//!
//! The controllers that sequence these phases — traditional Path ORAM
//! and Fork Path — and the engine trait they are driven through live in
//! `fp-core`; [`Datapath`]'s own example runs one access by hand.

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]
#![deny(clippy::allow_attributes)]
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]
#![warn(missing_docs)]

pub mod cache;
mod config;
mod datapath;
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
pub use datapath::{Datapath, CTRL_PHASE_LATENCY_PS};
pub use posmap::PosMapHierarchy;
pub use reactive::{Completion, CompletionLog, NewRequest, NoFeedback, Op, ReactiveSource};
pub use stash::{Block, Stash};
pub use state::{AccessOutcome, OramState};
pub use stats::{AccessTimes, OramStats};
pub use tree::{IntegrityError, TreeStore};
pub use writeback::WritebackEngine;
