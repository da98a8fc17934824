//! # fp-net
//!
//! The network serving front end of the Fork Path ORAM reproduction: a
//! versioned, length-prefixed binary wire protocol ([`wire`]), a
//! threaded TCP server over the sharded [`fp_service::OramService`]
//! ([`NetServer`]), and a pipelined synchronous client ([`NetClient`]).
//! Everything is `std`-only and loopback-testable offline — the crate
//! exists so the serving layer's contracts (backpressure, deadlines,
//! shard failure containment, graceful drain) can be exercised across a
//! real socket boundary, where request submission, completion delivery,
//! and client pacing genuinely race.
//!
//! ## Shape
//!
//! * [`wire`] — explicit encode/decode of every frame, typed
//!   [`WireError`]s, no panics on malformed input. See the frame layout
//!   table on [`Frame`].
//! * [`NetServer`] — acceptor + per-connection reader/writer threads
//!   inside the service's serve driver; the service's completion sink
//!   routes each answer from the shard worker to its connection's writer.
//!   Responses are pipelined out of order and matched by tag; submission
//!   failures become per-request statuses, not connection teardowns. The
//!   sink only routes: the service strips write payloads and a dying
//!   shard answers every request it accepted (`ShardDown`), so every wire
//!   request gets exactly one response. Shard health is part of the stats
//!   JSON (`StatsResp`).
//! * [`NetClient`] — single-threaded windowed pipelining: submitting
//!   past the window first pumps arrived responses off the socket.
//!
//! ## What the wire does *not* hide
//!
//! The protocol carries plaintext addresses and data: obliviousness in
//! this system is a property of each shard's *memory access pattern*,
//! not of the client↔front-end link (which models the trusted
//! processor boundary). See DESIGN.md's threat-model note.
//!
//! # Example
//!
//! ```
//! use fp_net::{NetClient, NetConfig, NetServer};
//! use fp_net::wire::{WireOp, WireRequest, WireStatus};
//! use fp_service::ServiceConfig;
//!
//! let cfg = NetConfig {
//!     service: ServiceConfig::fast_test(2),
//!     port: 0, // ephemeral
//!     max_connections: 64,
//!     max_inflight_per_conn: 64,
//!     drain_wait_ms: 2_000,
//! };
//! let server = NetServer::start(cfg).unwrap();
//! let mut client = NetClient::connect(server.local_addr(), 8).unwrap();
//! for tag in 0..4 {
//!     client
//!         .submit(WireRequest {
//!             tag,
//!             op: WireOp::Read,
//!             addr: tag * 97,
//!             deadline_rel_ns: 0,
//!             payload: Vec::new(),
//!         })
//!         .unwrap();
//! }
//! let responses = client.drain().unwrap();
//! assert_eq!(responses.len(), 4);
//! assert!(responses.iter().all(|r| r.status == WireStatus::Ok));
//! server.shutdown();
//! let report = server.join().unwrap();
//! assert_eq!(report.stats.completed(), 4);
//! ```

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]
#![deny(clippy::allow_attributes)]
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]
#![warn(missing_docs)]

mod client;
mod server;
pub mod wire;

pub use client::NetClient;
pub use server::{NetConfig, NetError, NetReport, NetServer};
pub use wire::{Frame, WireError, WireOp, WireRequest, WireResponse, WireStatus};
