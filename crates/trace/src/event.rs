//! Typed trace events and the monotonic counter namespace.

/// Declares the counter namespace once. Each `/// doc  Variant =>
/// "json_name",` row becomes an enum variant (its discriminant is the
/// row's position, which is also its index into the counter array), an
/// entry of [`Counter::ALL`] and an arm of [`Counter::name`], so the
/// three cannot disagree. The EXPERIMENTS.md registry block is held
/// against the table by a unit test below.
macro_rules! counters {
    ($($(#[$doc:meta])* $variant:ident => $name:literal,)+) => {
        /// One monotonic counter. Counters are always recorded exactly,
        /// independent of the event ring's capacity.
        ///
        /// The discriminant doubles as the index into the counter array;
        /// `counters!` keeps the enum dense by construction.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        #[repr(usize)]
        pub enum Counter {
            $($(#[$doc])* $variant,)+
        }

        impl Counter {
            /// All counters, in discriminant order.
            pub const ALL: [Counter; Counter::COUNT] = [$(Counter::$variant,)+];

            /// Number of distinct counters (the counter array length).
            pub const COUNT: usize = [$($name,)+].len();

            /// Stable snake_case name used as the JSON key.
            pub fn name(self) -> &'static str {
                match self {
                    $(Counter::$variant => $name,)+
                }
            }
        }
    };
}

// Append new counters: snapshots are positional (`[u64; COUNT]`), so an
// insertion would renumber every later one.
counters! {
    /// Requests submitted to the controller (before forwarding/cancelling).
    RequestsSubmitted => "requests_submitted",
    /// Requests selected out of the label queue to become an access.
    RequestsScheduled => "requests_scheduled",
    /// Accesses whose read path was merged with the previous path.
    RequestsMerged => "requests_merged",
    /// Dummy slots replaced by late-arriving real requests (Fig 5).
    RequestsReplaced => "requests_replaced",
    /// Completion records produced (answered, written back, or cancelled).
    RequestsCompleted => "requests_completed",
    /// Scheduling rounds run by the request scheduler.
    SchedRounds => "sched_rounds",
    /// Real requests that were ready when a scheduling round ran.
    SchedReadyReals => "sched_ready_reals",
    /// Path reads that started above the root (merged with predecessor).
    MergedReads => "merged_reads",
    /// Path reads that read the full path from the root.
    FullReads => "full_reads",
    /// Tree levels skipped across all merged reads.
    ReadLevelsSkipped => "read_levels_skipped",
    /// Merge-anchor resets (idle gaps, fixed-rate mode exits).
    MergeResets => "merge_resets",
    /// Dummy accesses materialized by the scheduler's padding.
    DummiesMaterialized => "dummies_materialized",
    /// Dummies replaced by real requests mid-refill.
    DummiesReplaced => "dummies_replaced",
    /// Dummy ORAM accesses actually executed.
    DummiesExecuted => "dummies_executed",
    /// Trailing dummies discarded unexecuted at idle.
    DummiesTrailingDiscarded => "dummies_trailing_discarded",
    /// Bucket reads served from the merging-aware on-chip cache.
    CacheHits => "cache_hits",
    /// Bucket reads that had to go to DRAM.
    CacheMisses => "cache_misses",
    /// Blocks fetched from DRAM: the datapath's read batches, or the
    /// insecure engine's reads.
    DramBlocksRead => "dram_blocks_read",
    /// Blocks stored to DRAM: the datapath's bucket writes, or the
    /// insecure engine's writes.
    DramBlocksWritten => "dram_blocks_written",
    /// Buckets written back (cached or written through).
    BucketsWritten => "buckets_written",
    /// DRAM row activations (ACT commands).
    DramActs => "dram_acts",
    /// DRAM column reads (RD commands, burst granularity).
    DramReads => "dram_reads",
    /// DRAM column writes (WR commands, burst granularity).
    DramWrites => "dram_writes",
    /// DRAM refreshes actually stalled for / modeled (REF commands).
    DramRefs => "dram_refs",
    /// DRAM refreshes skipped while the rank was idle (not modeled).
    DramRefsSkipped => "dram_refs_skipped",
    /// Blocks inserted into the stash (occupancy-increasing inserts).
    StashPushes => "stash_pushes",
    /// Blocks evicted or removed from the stash.
    StashEvicts => "stash_evicts",
    /// Transient faults injected by a `FaultInjector` engine wrapper
    /// (flipped MAC/ciphertext detections, forced overflows).
    FaultsInjected => "faults_injected",
    /// Retries spent recovering from injected transient faults.
    FaultRetries => "fault_retries",
    /// Completion-latency spikes injected by a `FaultInjector`.
    LatencySpikes => "latency_spikes",
    /// Shards declared dead by the serving layer's supervisor.
    ShardFailovers => "shard_failovers",
    /// Duplicate-address reads attached as waiters to an in-flight
    /// access by the serving layer's coalescing index (no ORAM access).
    CoalescedReads => "coalesced_reads",
    /// Duplicate-address writes absorbed by the coalescing index
    /// (last-writer-wins; no immediate ORAM access).
    CoalescedWrites => "coalesced_writes",
    /// Write-back accesses issued to flush coalesced-write data after
    /// the anchor access completed.
    CoalesceFlushes => "coalesce_flushes",
    /// High-water mark of the per-shard coalescing index (distinct
    /// in-flight addresses). Monotonic-max, not a sum.
    CoalesceIndexHighWater => "coalesce_index_high_water",
    /// TCP connections accepted by the network front end.
    NetConnectionsOpened => "net_connections_opened",
    /// TCP connections that finished (client EOF, protocol error, or
    /// server shutdown).
    NetConnectionsClosed => "net_connections_closed",
    /// Wire frames decoded from clients (handshakes, requests, control).
    NetFramesIn => "net_frames_in",
    /// Wire frames encoded to clients (responses, control replies).
    NetFramesOut => "net_frames_out",
    /// Bytes received on the wire, including length prefixes.
    NetWireBytesIn => "net_wire_bytes_in",
    /// Bytes sent on the wire, including length prefixes.
    NetWireBytesOut => "net_wire_bytes_out",
    /// Malformed or out-of-protocol frames (bad magic, version mismatch,
    /// truncation, oversize, unknown kinds); each closes its connection.
    NetProtocolErrors => "net_protocol_errors",
    /// Requests rejected with a `Busy` status frame: the per-connection
    /// in-flight window, the global connection limit, or the owning
    /// shard's bounded queue was full.
    NetBusyRejections => "net_busy_rejections",
    /// DRAM precharges (PRE commands): a row conflict closed the open row
    /// before the activation. Idle precharge is not modelled.
    DramPrecharges => "dram_precharges",
    /// Chain steps answered from the stash with no ORAM access (the
    /// paper's Step 1: a hit is "returned to LLC immediately").
    StashHits => "stash_hits",
    /// Queued writes superseded on chip by a younger write to the same
    /// address: acknowledged with a completion record, never executed.
    WritesCancelled => "writes_cancelled",
}

/// A typed, timestamped occurrence in the simulated system.
///
/// Recording an event also bumps its matching [`Counter`], so counters
/// stay exact even when the ring overflows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A request entered the controller.
    RequestSubmitted {
        /// Controller-assigned request id.
        id: u64,
    },
    /// A queued request was selected to become the next ORAM access.
    RequestScheduled {
        /// Path label the access will read.
        label: u64,
    },
    /// An access's read path was merged with its predecessor's.
    RequestMerged {
        /// Path label of the merged access.
        label: u64,
        /// First tree level actually read (the fork level).
        fork_level: u32,
    },
    /// A pending dummy was replaced by a real request mid-refill.
    RequestReplaced {
        /// Path label of the replacing real request.
        label: u64,
    },
    /// A completion record was produced for a request.
    RequestCompleted {
        /// Controller-assigned request id.
        id: u64,
    },
    /// DRAM row activation.
    DramAct,
    /// DRAM burst read.
    DramRead,
    /// DRAM burst write.
    DramWrite,
    /// DRAM refresh that was actually stalled for / modeled.
    DramRef,
    /// A block entered the stash.
    StashPush {
        /// Logical block address.
        addr: u64,
    },
    /// A block left the stash (eviction or explicit removal).
    StashEvict {
        /// Logical block address.
        addr: u64,
    },
}

impl EventKind {
    /// Every counter an event kind contributes to — their sum is the
    /// number of events ever recorded.
    pub(crate) const COUNTERS: [Counter; 11] = [
        Counter::RequestsSubmitted,
        Counter::RequestsScheduled,
        Counter::RequestsMerged,
        Counter::RequestsReplaced,
        Counter::RequestsCompleted,
        Counter::DramActs,
        Counter::DramReads,
        Counter::DramWrites,
        Counter::DramRefs,
        Counter::StashPushes,
        Counter::StashEvicts,
    ];

    /// The monotonic counter this event contributes to.
    pub(crate) fn counter(&self) -> Counter {
        match self {
            EventKind::RequestSubmitted { .. } => Counter::RequestsSubmitted,
            EventKind::RequestScheduled { .. } => Counter::RequestsScheduled,
            EventKind::RequestMerged { .. } => Counter::RequestsMerged,
            EventKind::RequestReplaced { .. } => Counter::RequestsReplaced,
            EventKind::RequestCompleted { .. } => Counter::RequestsCompleted,
            EventKind::DramAct => Counter::DramActs,
            EventKind::DramRead => Counter::DramReads,
            EventKind::DramWrite => Counter::DramWrites,
            EventKind::DramRef => Counter::DramRefs,
            EventKind::StashPush { .. } => Counter::StashPushes,
            EventKind::StashEvict { .. } => Counter::StashEvicts,
        }
    }

    /// Stable snake_case event name used as the JSON `kind` field.
    pub(crate) fn name(&self) -> &'static str {
        match self {
            EventKind::RequestSubmitted { .. } => "request_submitted",
            EventKind::RequestScheduled { .. } => "request_scheduled",
            EventKind::RequestMerged { .. } => "request_merged",
            EventKind::RequestReplaced { .. } => "request_replaced",
            EventKind::RequestCompleted { .. } => "request_completed",
            EventKind::DramAct => "dram_act",
            EventKind::DramRead => "dram_read",
            EventKind::DramWrite => "dram_write",
            EventKind::DramRef => "dram_ref",
            EventKind::StashPush { .. } => "stash_push",
            EventKind::StashEvict { .. } => "stash_evict",
        }
    }
}

/// One recorded event: a kind plus the simulated time it occurred at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated time, picoseconds.
    pub t_ps: u64,
    /// What happened.
    pub kind: EventKind,
}

impl TraceEvent {
    /// Serializes the event as one JSON object (`{"t_ps":..,"kind":..}`
    /// plus the kind's payload fields, if any).
    pub(crate) fn to_json(self) -> String {
        let mut o = fp_stats::json::JsonObject::new();
        o.field_u64("t_ps", self.t_ps);
        o.field_str("kind", self.kind.name());
        match self.kind {
            EventKind::RequestSubmitted { id } | EventKind::RequestCompleted { id } => {
                o.field_u64("id", id);
            }
            EventKind::RequestScheduled { label } | EventKind::RequestReplaced { label } => {
                o.field_u64("label", label);
            }
            EventKind::RequestMerged { label, fork_level } => {
                o.field_u64("label", label);
                o.field_u64("fork_level", u64::from(fork_level));
            }
            EventKind::StashPush { addr } | EventKind::StashEvict { addr } => {
                o.field_u64("addr", addr);
            }
            EventKind::DramAct
            | EventKind::DramRead
            | EventKind::DramWrite
            | EventKind::DramRef => {}
        }
        o.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn discriminants_are_dense_and_match_all() {
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i, "{c:?} out of order in Counter::ALL");
        }
    }

    #[test]
    fn counter_names_are_unique_and_snake_case() {
        for (i, a) in Counter::ALL.iter().enumerate() {
            let name = a.name();
            assert!(
                !name.is_empty()
                    && name.starts_with(|c: char| c.is_ascii_lowercase())
                    && name
                        .chars()
                        .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'),
                "{a:?} has a non-snake_case JSON name {name:?}"
            );
            for b in &Counter::ALL[i + 1..] {
                assert_ne!(name, b.name());
            }
        }
    }

    /// The registry block of EXPERIMENTS.md lists every counter name, in
    /// `Counter::ALL` order, and nothing else.
    #[test]
    fn experiments_registry_block_matches_the_table() {
        let doc = include_str!("../../../EXPERIMENTS.md");
        let (_, rest) = doc
            .split_once("<!-- counter-registry begin -->")
            .expect("EXPERIMENTS.md has the registry begin marker");
        let (block, _) = rest
            .split_once("<!-- counter-registry end -->")
            .expect("EXPERIMENTS.md has the registry end marker");
        // Names are the backtick-quoted spans: the odd pieces of a split.
        let documented: Vec<&str> = block.split('`').skip(1).step_by(2).collect();
        let declared: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(
            documented, declared,
            "EXPERIMENTS.md counter registry is out of step with counters!"
        );
    }

    #[test]
    fn event_json_carries_payload() {
        let e = TraceEvent {
            t_ps: 42,
            kind: EventKind::RequestMerged {
                label: 7,
                fork_level: 3,
            },
        };
        let s = e.to_json();
        assert!(s.contains("\"t_ps\":42"));
        assert!(s.contains("\"kind\":\"request_merged\""));
        assert!(s.contains("\"fork_level\":3"));
        assert!(fp_stats::json::validate(&s).is_ok());
    }

    #[test]
    fn every_event_maps_to_a_listed_counter() {
        let all = [
            EventKind::RequestSubmitted { id: 0 },
            EventKind::RequestScheduled { label: 0 },
            EventKind::RequestMerged {
                label: 0,
                fork_level: 0,
            },
            EventKind::RequestReplaced { label: 0 },
            EventKind::RequestCompleted { id: 0 },
            EventKind::DramAct,
            EventKind::DramRead,
            EventKind::DramWrite,
            EventKind::DramRef,
            EventKind::StashPush { addr: 0 },
            EventKind::StashEvict { addr: 0 },
        ];
        let mapped: Vec<Counter> = all.iter().map(EventKind::counter).collect();
        assert_eq!(mapped, EventKind::COUNTERS);
    }
}
