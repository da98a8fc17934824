//! # fp-service
//!
//! A sharded, concurrent serving layer over any ORAM engine: the paper's
//! single-controller pipeline (`fp-core`), scaled out the way a
//! secure-memory *service* would deploy it. Each shard runs the
//! scheme-agnostic [`fp_core::OramEngine`] selected by
//! [`ServiceConfig`]'s `scheme` field — traditional Path ORAM and Fork
//! Path are served by the *same* worker code path, differing only in the
//! engine the scheme builds.
//!
//! ## Architecture
//!
//! * **Sharding** ([`ServiceConfig`]) — the global block address space is
//!   interleaved across `N` independent engines
//!   (`shard = addr % N`, local address `addr / N`), each with a
//!   proportionally smaller tree and a private simulated DRAM system.
//!   Obliviousness is preserved per shard: routing depends only on public
//!   address bits, and each shard applies the full Fork Path access
//!   discipline to its own stream.
//! * **Backpressure and admission** ([`SubmissionQueue`]) — each shard is
//!   fed by a bounded queue; a full queue rejects with
//!   [`SubmitError::Busy`] without blocking the producer. The queue also
//!   holds the one rule by which its shard admits.
//! * **Deadlines** — requests may carry an absolute deadline (fp-net
//!   stamps the wire's relative one onto it). Requests already past their
//!   deadline at admission are dropped as [`CompletionStatus::Expired`]
//!   without charging an ORAM access; completions past their deadline are
//!   counted [`CompletionStatus::Late`].
//! * **Drain/shutdown** — closing the queues wakes every idle worker;
//!   queued and in-flight requests finish before workers exit, so
//!   shutdown is deadlock-free by construction.
//! * **Fail-fast supervision** ([`ShardHealth`], [`ServeError`]) — a
//!   worker that errors or panics marks its shard *dead*: the queue
//!   closes (producers get [`SubmitError::ShardDown`] instead of
//!   spinning on `Busy`), every request it accepted and had not answered
//!   is answered [`CompletionStatus::ShardDown`] (so each request a
//!   queue accepted gets exactly one completion), its poisoned
//!   locks are recovered, and the run returns a structured
//!   [`ServeError::Shards`] carrying partial stats while the surviving
//!   shards drain normally. Health is read from the stats snapshot
//!   ([`ShardSnapshot::health`]). Deterministic fault
//!   injection ([`fp_core::FaultInjector`], enabled via
//!   [`ServiceConfig::fault`]) exercises these paths on demand; a shard
//!   that absorbs transient faults through retries reports *degraded*
//!   from its first fault on, while it serves.
//! * **Cross-request coalescing** ([`ServiceConfig::coalesce`]) — each
//!   shard can keep an in-flight index (address → pending entry) so a
//!   duplicate-address request arriving while an access is outstanding
//!   attaches as a *waiter* instead of submitting a second ORAM access;
//!   the one result fans out to every waiter (reads share data, writes
//!   absorb last-writer-wins and flush once). This extends the paper's
//!   redundant-access removal across *concurrent* requests; see DESIGN.md
//!   for the obliviousness caveat.
//! * **Statistics** ([`ServiceStats`]) — per-shard fp-trace counters and
//!   latency histograms fold into aggregate throughput (simulated and
//!   wall-clock, with *served* completions as the numerator — expired
//!   requests are reported separately), p50/p99 latency upper bounds,
//!   queue high-water marks, coalescing savings, per-shard health, fault
//!   counters, and JSON.
//!
//! ## Run modes
//!
//! [`OramService::serve`] accepts external submissions through a
//! [`ServiceHandle`] (concurrent, backpressured) and pushes every
//! completion into the caller's sink, on the shard worker that finished
//! it — nothing is buffered for the caller to poll. For benchmarking,
//! [`OramService::run_closed_loop`] embeds a deterministic client pool in
//! each shard worker, driven by shard completions in *simulated* time — so
//! its results are a pure function of the configuration and seed,
//! independent of host thread interleaving. [`OramService::run_trace`]
//! replays a pre-generated request list (e.g. the Zipfian service
//! workload from `fp-workloads`) deterministically per shard — the mode
//! that exercises cross-request coalescing, since its duplicate-address
//! requests genuinely overlap in flight. [`OramService::replay`] takes
//! such a list as a script of stamps for live submitters and equals
//! `run_trace` however their submissions race; it, `serve` and
//! `run_trace` run one shard worker loop.
//!
//! # Example
//!
//! ```
//! use std::sync::mpsc;
//! use fp_service::{OramService, ServiceConfig, ServiceRequest};
//!
//! // The sink runs on the shard's worker thread; a channel send never blocks.
//! let (tx, rx) = mpsc::channel();
//! let sink = move |done| tx.send(done).unwrap_or(());
//! let (stats, ()) = OramService::serve(ServiceConfig::fast_test(2), sink, |handle| {
//!     for i in 0..8u64 {
//!         handle
//!             .submit(ServiceRequest::read(i * 101, i * 1_000_000, i))
//!             .expect("queue has room for a short burst");
//!     }
//! })
//! .unwrap();
//! assert_eq!(stats.completed(), 8);
//! assert!(rx.iter().all(|c| c.addr == c.tag * 101)); // global addresses
//! ```

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]
#![deny(clippy::allow_attributes)]
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]
#![warn(missing_docs)]

mod coalesce;
mod config;
mod queue;
mod request;
mod service;
mod shard;
mod stats;
pub mod sync;

pub use config::ServiceConfig;
pub use queue::SubmissionQueue;
pub use request::{CompletionStatus, ServiceCompletion, ServiceRequest, SubmitError};
pub use service::{OramService, ServeError, ServiceHandle, ShardFailure};
pub use shard::{ShardCounters, ShardEngine, ShardHealth, ShardShared};
pub use stats::{ServiceStats, ShardSnapshot};
