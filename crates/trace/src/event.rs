//! Typed trace events and the monotonic counter namespace.

/// One monotonic counter. Counters are always recorded exactly,
/// independent of the event ring's capacity.
///
/// The discriminant doubles as the index into the counter array, so the
/// enum must stay dense (no explicit discriminants, no gaps).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Counter {
    /// Requests submitted to the controller (before forwarding/cancelling).
    RequestsSubmitted,
    /// Requests selected out of the label queue to become an access.
    RequestsScheduled,
    /// Accesses whose read path was merged with the previous path.
    RequestsMerged,
    /// Dummy slots replaced by late-arriving real requests (Fig 5).
    RequestsReplaced,
    /// Completion records produced (answered, written back, or cancelled).
    RequestsCompleted,
    /// Scheduling rounds run by the request scheduler.
    SchedRounds,
    /// Real requests that were ready when a scheduling round ran.
    SchedReadyReals,
    /// Path reads that started above the root (merged with predecessor).
    MergedReads,
    /// Path reads that read the full path from the root.
    FullReads,
    /// Tree levels skipped across all merged reads.
    ReadLevelsSkipped,
    /// Merge-anchor resets (idle gaps, fixed-rate mode exits).
    MergeResets,
    /// Dummy accesses materialized by the scheduler's padding.
    DummiesMaterialized,
    /// Dummies replaced by real requests mid-refill.
    DummiesReplaced,
    /// Dummy ORAM accesses actually executed.
    DummiesExecuted,
    /// Trailing dummies discarded unexecuted at idle.
    DummiesTrailingDiscarded,
    /// Bucket reads served from the merging-aware on-chip cache.
    CacheHits,
    /// Bucket reads that had to go to DRAM.
    CacheMisses,
    /// Blocks fetched from DRAM by the writeback engine.
    DramBlocksRead,
    /// Blocks stored to DRAM by the writeback engine.
    DramBlocksWritten,
    /// Buckets written back (cached or written through).
    BucketsWritten,
    /// DRAM row activations (ACT commands).
    DramActs,
    /// DRAM column reads (RD commands, burst granularity).
    DramReads,
    /// DRAM column writes (WR commands, burst granularity).
    DramWrites,
    /// DRAM refreshes actually stalled for / modeled (REF commands).
    DramRefs,
    /// DRAM refreshes skipped while the rank was idle (not modeled).
    DramRefsSkipped,
    /// Blocks inserted into the stash (occupancy-increasing inserts).
    StashPushes,
    /// Blocks evicted or removed from the stash.
    StashEvicts,
    /// Transient faults injected by a `FaultInjector` engine wrapper
    /// (flipped MAC/ciphertext detections, forced overflows).
    FaultsInjected,
    /// Retries spent recovering from injected transient faults.
    FaultRetries,
    /// Completion-latency spikes injected by a `FaultInjector`.
    LatencySpikes,
    /// Shards declared dead by the serving layer's supervisor.
    ShardFailovers,
    /// Duplicate-address reads attached as waiters to an in-flight
    /// access by the serving layer's coalescing index (no ORAM access).
    CoalescedReads,
    /// Duplicate-address writes absorbed by the coalescing index
    /// (last-writer-wins; no immediate ORAM access).
    CoalescedWrites,
    /// Write-back accesses issued to flush coalesced-write data after
    /// the anchor access completed.
    CoalesceFlushes,
    /// High-water mark of the per-shard coalescing index (distinct
    /// in-flight addresses). Monotonic-max, not a sum.
    CoalesceIndexHighWater,
    /// TCP connections accepted by the network front end.
    NetConnectionsOpened,
    /// TCP connections that finished (client EOF, protocol error, or
    /// server shutdown).
    NetConnectionsClosed,
    /// Wire frames decoded from clients (handshakes, requests, control).
    NetFramesIn,
    /// Wire frames encoded to clients (responses, control replies).
    NetFramesOut,
    /// Bytes received on the wire, including length prefixes.
    NetWireBytesIn,
    /// Bytes sent on the wire, including length prefixes.
    NetWireBytesOut,
    /// Malformed or out-of-protocol frames (bad magic, version mismatch,
    /// truncation, oversize, unknown kinds); each closes its connection.
    NetProtocolErrors,
    /// Requests rejected with a `Busy` status frame: the per-connection
    /// in-flight window, the global connection limit, or the owning
    /// shard's bounded queue was full.
    NetBusyRejections,
    /// DRAM precharges (PRE commands): a row conflict closed the open row
    /// before the activation. Idle precharge is not modelled.
    DramPrecharges,
    /// Chain steps answered from the stash with no ORAM access (the
    /// paper's Step 1: a hit is "returned to LLC immediately").
    StashHits,
    /// Queued writes superseded on chip by a younger write to the same
    /// address: acknowledged with a completion record, never executed.
    WritesCancelled,
}

impl Counter {
    /// All counters, in discriminant order.
    pub const ALL: [Counter; 46] = [
        Counter::RequestsSubmitted,
        Counter::RequestsScheduled,
        Counter::RequestsMerged,
        Counter::RequestsReplaced,
        Counter::RequestsCompleted,
        Counter::SchedRounds,
        Counter::SchedReadyReals,
        Counter::MergedReads,
        Counter::FullReads,
        Counter::ReadLevelsSkipped,
        Counter::MergeResets,
        Counter::DummiesMaterialized,
        Counter::DummiesReplaced,
        Counter::DummiesExecuted,
        Counter::DummiesTrailingDiscarded,
        Counter::CacheHits,
        Counter::CacheMisses,
        Counter::DramBlocksRead,
        Counter::DramBlocksWritten,
        Counter::BucketsWritten,
        Counter::DramActs,
        Counter::DramReads,
        Counter::DramWrites,
        Counter::DramRefs,
        Counter::DramRefsSkipped,
        Counter::StashPushes,
        Counter::StashEvicts,
        Counter::FaultsInjected,
        Counter::FaultRetries,
        Counter::LatencySpikes,
        Counter::ShardFailovers,
        Counter::CoalescedReads,
        Counter::CoalescedWrites,
        Counter::CoalesceFlushes,
        Counter::CoalesceIndexHighWater,
        Counter::NetConnectionsOpened,
        Counter::NetConnectionsClosed,
        Counter::NetFramesIn,
        Counter::NetFramesOut,
        Counter::NetWireBytesIn,
        Counter::NetWireBytesOut,
        Counter::NetProtocolErrors,
        Counter::NetBusyRejections,
        Counter::DramPrecharges,
        Counter::StashHits,
        Counter::WritesCancelled,
    ];

    /// Number of distinct counters (the counter array length).
    pub const COUNT: usize = Counter::ALL.len();

    /// Stable snake_case name used as the JSON key.
    pub fn name(self) -> &'static str {
        match self {
            Counter::RequestsSubmitted => "requests_submitted",
            Counter::RequestsScheduled => "requests_scheduled",
            Counter::RequestsMerged => "requests_merged",
            Counter::RequestsReplaced => "requests_replaced",
            Counter::RequestsCompleted => "requests_completed",
            Counter::SchedRounds => "sched_rounds",
            Counter::SchedReadyReals => "sched_ready_reals",
            Counter::MergedReads => "merged_reads",
            Counter::FullReads => "full_reads",
            Counter::ReadLevelsSkipped => "read_levels_skipped",
            Counter::MergeResets => "merge_resets",
            Counter::DummiesMaterialized => "dummies_materialized",
            Counter::DummiesReplaced => "dummies_replaced",
            Counter::DummiesExecuted => "dummies_executed",
            Counter::DummiesTrailingDiscarded => "dummies_trailing_discarded",
            Counter::CacheHits => "cache_hits",
            Counter::CacheMisses => "cache_misses",
            Counter::DramBlocksRead => "dram_blocks_read",
            Counter::DramBlocksWritten => "dram_blocks_written",
            Counter::BucketsWritten => "buckets_written",
            Counter::DramActs => "dram_acts",
            Counter::DramReads => "dram_reads",
            Counter::DramWrites => "dram_writes",
            Counter::DramRefs => "dram_refs",
            Counter::DramRefsSkipped => "dram_refs_skipped",
            Counter::StashPushes => "stash_pushes",
            Counter::StashEvicts => "stash_evicts",
            Counter::FaultsInjected => "faults_injected",
            Counter::FaultRetries => "fault_retries",
            Counter::LatencySpikes => "latency_spikes",
            Counter::ShardFailovers => "shard_failovers",
            Counter::CoalescedReads => "coalesced_reads",
            Counter::CoalescedWrites => "coalesced_writes",
            Counter::CoalesceFlushes => "coalesce_flushes",
            Counter::CoalesceIndexHighWater => "coalesce_index_high_water",
            Counter::NetConnectionsOpened => "net_connections_opened",
            Counter::NetConnectionsClosed => "net_connections_closed",
            Counter::NetFramesIn => "net_frames_in",
            Counter::NetFramesOut => "net_frames_out",
            Counter::NetWireBytesIn => "net_wire_bytes_in",
            Counter::NetWireBytesOut => "net_wire_bytes_out",
            Counter::NetProtocolErrors => "net_protocol_errors",
            Counter::NetBusyRejections => "net_busy_rejections",
            Counter::DramPrecharges => "dram_precharges",
            Counter::StashHits => "stash_hits",
            Counter::WritesCancelled => "writes_cancelled",
        }
    }
}

/// A typed, timestamped occurrence in the simulated system.
///
/// Recording an event also bumps its [matching counter](EventKind::counter),
/// so counters stay exact even when the ring overflows.
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
    pub const COUNTERS: [Counter; 11] = [
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
    pub fn counter(&self) -> Counter {
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
    pub fn name(&self) -> &'static str {
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
    pub fn to_json(&self) -> String {
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
    fn counter_names_are_unique() {
        for (i, a) in Counter::ALL.iter().enumerate() {
            for b in &Counter::ALL[i + 1..] {
                assert_ne!(a.name(), b.name());
            }
        }
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
