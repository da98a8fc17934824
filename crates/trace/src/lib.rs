//! # fp-trace
//!
//! The unified observability spine of the Fork Path ORAM reproduction.
//! Every simulation crate (DRAM channel model, stash, the controllers and
//! their pipeline stages) reports into one [`TraceHandle`]:
//!
//! * **Monotonic counters** ([`Counter`]) — always on and exact: atomics
//!   for shared writers; engine components count in a [`Tally`],
//!   published at engine-call boundaries. This table is the only place an
//!   event is counted: the `OramStats` / `DramStats` records are by-value
//!   views assembled from it on demand.
//! * **Typed events** ([`EventKind`]) — an optional fixed-capacity ring
//!   buffer of timestamped records (request lifecycle, DRAM commands,
//!   stash traffic). Capacity 0 (the default) keeps counters only.
//! * **Log2 histograms** ([`Log2Hist`]) — request latency and stash
//!   occupancy distributions, bucketed by bit length.
//!
//! Everything exports through `fp_stats::json`, so `--trace <path>` runs
//! and `repro trace` emit one consistent schema for the paper's figures.
//!
//! The handle is a cheap-to-clone shared reference: an engine creates one
//! spine and counts in a [`Tally`] over it, which its pipeline stages and
//! request ledger count into too; its stash and DRAM system keep a tally
//! each over the same spine. It is `Send +
//! Sync`; counters are `Relaxed` atomics, and the event ring and
//! histograms sit behind one poison-tolerant mutex ([`sync::relock`])
//! that is taken when an event is retained, a sample is added, or the
//! engine publishes its tallies — as one cut at the end of an engine call,
//! every 64th while it is busy and every one that leaves it idle, so a
//! reader of the whole table on another thread sees whole engine calls.

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]
#![deny(clippy::allow_attributes)]
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]
#![warn(missing_docs)]

mod event;
mod handle;
mod hist;
pub mod sync;
mod tally;

pub use event::{Counter, EventKind, TraceEvent};
pub use handle::TraceHandle;
pub use hist::Log2Hist;
pub use tally::Tally;
