//! Aggregate service statistics: per-shard snapshots folded into service
//! totals, latency quantiles, and simulated/wall throughput.

use fp_stats::json::{self, JsonObject};
use fp_trace::{Counter, Log2Hist};

use crate::shard::{ShardCounters, ShardHealth, ShardShared};
use crate::sync::relock;

/// Point-in-time view of one shard.
#[derive(Debug, Clone)]
pub struct ShardSnapshot {
    /// Shard index.
    pub shard: usize,
    /// Monotonic request accounting.
    pub counters: ShardCounters,
    /// Queue occupancy at snapshot time.
    pub queue_len: usize,
    /// Highest queue occupancy observed.
    pub queue_high_water: usize,
    /// Completion-latency histogram from the shard's fp-trace spine.
    pub latency: Log2Hist,
    /// All exact trace counters, indexed by [`Counter::ALL`] order.
    pub trace_counters: Vec<u64>,
    /// Shard liveness at snapshot time.
    pub health: ShardHealth,
    /// Failure description when the shard is dead.
    pub fault: Option<String>,
}

impl ShardSnapshot {
    /// Snapshots `shared` as shard `shard`. Poison-tolerant: a shard whose
    /// worker panicked still yields its partial counters.
    pub fn capture(shard: usize, shared: &ShardShared) -> Self {
        Self {
            shard,
            counters: *relock(&shared.counters),
            queue_len: shared.queue.len(),
            queue_high_water: shared.queue.high_water(),
            latency: shared.trace.latency_hist(),
            trace_counters: shared.trace.counters().to_vec(),
            health: shared.health(),
            fault: shared.fault(),
        }
    }

    fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        o.field_u64("shard", self.shard as u64)
            .field_str("health", self.health.name())
            .field_u64("enqueued", self.counters.enqueued)
            .field_u64("rejected_busy", self.counters.rejected_busy)
            .field_u64("admitted", self.counters.admitted)
            .field_u64("expired", self.counters.expired)
            .field_u64("completed", self.counters.completed)
            .field_u64("completed_late", self.counters.completed_late)
            .field_u64("failed", self.counters.failed)
            .field_u64("batches", self.counters.batches)
            .field_u64("max_batch", self.counters.max_batch)
            .field_u64("queue_len", self.queue_len as u64)
            .field_u64("queue_high_water", self.queue_high_water as u64)
            .field_u64("sim_finish_ps", self.counters.sim_finish_ps)
            .field_u64(
                "oram_accesses",
                self.trace_counter(Counter::FullReads) + self.trace_counter(Counter::MergedReads),
            )
            .field_u64(
                "coalesced_reads",
                self.trace_counter(Counter::CoalescedReads),
            )
            .field_u64(
                "coalesced_writes",
                self.trace_counter(Counter::CoalescedWrites),
            )
            .field_u64(
                "coalesce_flushes",
                self.trace_counter(Counter::CoalesceFlushes),
            )
            .field_u64(
                "coalesce_index_high_water",
                self.trace_counter(Counter::CoalesceIndexHighWater),
            );
        if let Some(fault) = &self.fault {
            o.field_str("fault", fault);
        }
        o.finish()
    }

    fn trace_counter(&self, c: Counter) -> u64 {
        self.trace_counters[c as usize]
    }
}

/// Aggregate statistics over all shards of a service run.
#[derive(Debug, Clone)]
pub struct ServiceStats {
    /// Shard count.
    pub shards: usize,
    /// Per-shard queue capacity.
    pub queue_depth: usize,
    /// Per-shard snapshots.
    pub per_shard: Vec<ShardSnapshot>,
    /// Wall-clock duration of the run, nanoseconds.
    pub wall_ns: u64,
    /// Merged completion-latency histogram across shards (picoseconds).
    pub latency: Log2Hist,
}

impl ServiceStats {
    /// Folds per-shard snapshots into aggregate stats.
    pub(crate) fn aggregate(
        shards: usize,
        queue_depth: usize,
        per_shard: Vec<ShardSnapshot>,
        wall_ns: u64,
    ) -> Self {
        let mut latency = Log2Hist::new();
        for s in &per_shard {
            latency.merge(&s.latency);
        }
        Self {
            shards,
            queue_depth,
            per_shard,
            wall_ns,
            latency,
        }
    }

    /// Sums one counter field across shards.
    fn total(&self, f: impl Fn(&ShardCounters) -> u64) -> u64 {
        self.per_shard.iter().map(|s| f(&s.counters)).sum()
    }

    /// Total requests accepted.
    pub fn enqueued(&self) -> u64 {
        self.total(|c| c.enqueued)
    }

    /// Total `Busy` rejections.
    pub fn rejected_busy(&self) -> u64 {
        self.total(|c| c.rejected_busy)
    }

    /// Total client requests accepted past admission control (engine
    /// submissions plus coalesced waiters; never internal flushes).
    pub fn admitted(&self) -> u64 {
        self.total(|c| c.admitted)
    }

    /// Total requests expired at admission. Disjoint from
    /// [`ServiceStats::completed`]: an expired request was never served.
    pub fn expired(&self) -> u64 {
        self.total(|c| c.expired)
    }

    /// Total client requests *served* to completion (`Ok` + `Late`).
    /// Excludes expirations — they never executed — so this is the
    /// correct numerator for every throughput rate.
    pub fn completed(&self) -> u64 {
        self.total(|c| c.completed)
    }

    /// Total completions past their deadline.
    pub fn completed_late(&self) -> u64 {
        self.total(|c| c.completed_late)
    }

    /// Total requests dying shards answered `ShardDown`.
    pub fn failed(&self) -> u64 {
        self.total(|c| c.failed)
    }

    /// The service's simulated makespan: the slowest shard's final clock,
    /// picoseconds. Shards run concurrently, so aggregate simulated
    /// throughput divides total completions by this.
    pub fn sim_finish_ps(&self) -> u64 {
        self.per_shard
            .iter()
            .map(|s| s.counters.sim_finish_ps)
            .max()
            .unwrap_or(0)
    }

    /// Aggregate throughput on the simulated clock, requests per second.
    /// Deterministic per seed — the headline scaling metric. The numerator
    /// is *served* completions only ([`ServiceStats::completed`]); expired
    /// requests are reported separately and never inflate this rate.
    pub fn sim_requests_per_sec(&self) -> f64 {
        let ps = self.sim_finish_ps();
        if ps == 0 {
            return 0.0;
        }
        self.completed() as f64 * 1e12 / ps as f64
    }

    /// Host wall-clock throughput, requests per second. Same served-only
    /// numerator as [`ServiceStats::sim_requests_per_sec`].
    pub(crate) fn wall_requests_per_sec(&self) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        self.completed() as f64 * 1e9 / self.wall_ns as f64
    }

    /// Median completion latency *upper bound*, picoseconds: the
    /// histogram stores log2 buckets, so this is the top of the bucket
    /// holding the median (a `2^k - 1` value), not an exact sample.
    pub(crate) fn p50_le_ps(&self) -> u64 {
        self.latency.quantile(0.50)
    }

    /// 99th-percentile completion latency upper bound, picoseconds
    /// (log2-bucket top, like [`ServiceStats::p50_le_ps`]).
    pub(crate) fn p99_le_ps(&self) -> u64 {
        self.latency.quantile(0.99)
    }

    /// Element-wise sum of the trace counters across shards, in
    /// [`Counter::ALL`] order.
    pub fn trace_counter_totals(&self) -> Vec<u64> {
        let mut totals = vec![0u64; Counter::COUNT];
        for s in &self.per_shard {
            for (t, v) in totals.iter_mut().zip(&s.trace_counters) {
                *t += v;
            }
        }
        totals
    }

    /// One trace counter summed across shards: e.g.
    /// [`Counter::FaultsInjected`], [`Counter::ShardFailovers`] (each dead
    /// shard counts once) or [`Counter::CoalescedReads`].
    pub fn counter(&self, c: Counter) -> u64 {
        self.per_shard
            .iter()
            .map(|s| s.trace_counters[c as usize])
            .sum()
    }

    /// Total ORAM tree accesses actually executed (full + merged reads).
    pub fn oram_accesses(&self) -> u64 {
        self.counter(Counter::FullReads) + self.counter(Counter::MergedReads)
    }

    /// Net ORAM accesses avoided by coalescing: every coalesced request
    /// skipped one access, minus the flush write-backs the layer issued.
    fn coalesce_accesses_saved(&self) -> u64 {
        (self.counter(Counter::CoalescedReads) + self.counter(Counter::CoalescedWrites))
            .saturating_sub(self.counter(Counter::CoalesceFlushes))
    }

    /// Shards currently reporting `health`.
    pub fn shards_with_health(&self, health: ShardHealth) -> usize {
        self.per_shard.iter().filter(|s| s.health == health).count()
    }

    /// Order-insensitive fingerprint of every shard's trace counters and
    /// request accounting — equal across reruns iff the service behaved
    /// identically. Used by the determinism property test.
    pub fn fingerprint(&self) -> Vec<(usize, Vec<u64>)> {
        let mut fp: Vec<(usize, Vec<u64>)> = self
            .per_shard
            .iter()
            .map(|s| {
                let mut v = s.trace_counters.clone();
                v.extend([
                    s.counters.enqueued,
                    s.counters.admitted,
                    s.counters.expired,
                    s.counters.completed,
                    s.counters.sim_finish_ps,
                ]);
                (s.shard, v)
            })
            .collect();
        fp.sort_by_key(|(shard, _)| *shard);
        fp
    }

    /// Serializes the stats as a self-contained JSON object.
    pub fn to_json(&self) -> String {
        let mut requests = JsonObject::new();
        requests
            .field_u64("enqueued", self.enqueued())
            .field_u64("rejected_busy", self.rejected_busy())
            .field_u64("admitted", self.admitted())
            .field_u64("expired", self.expired())
            .field_u64("completed", self.completed())
            .field_u64("completed_late", self.completed_late())
            .field_u64("failed", self.failed());

        let mut throughput = JsonObject::new();
        throughput
            .field_f64("wall_ms", self.wall_ns as f64 / 1e6)
            .field_f64("wall_requests_per_sec", self.wall_requests_per_sec())
            .field_f64("sim_ms", self.sim_finish_ps() as f64 / 1e9)
            .field_f64("sim_requests_per_sec", self.sim_requests_per_sec());

        // Quantiles carry a `_le_` infix: log2-bucket upper bounds
        // (2^k - 1 values), not exact samples.
        let mut latency = JsonObject::new();
        latency
            .field_f64("mean_ps", self.latency.mean())
            .field_u64("p50_le_ps", self.p50_le_ps())
            .field_u64("p99_le_ps", self.p99_le_ps())
            .field_u64("max_ps", self.latency.max())
            .field_u64("count", self.latency.count());

        let mut coalescing = JsonObject::new();
        coalescing
            .field_u64("coalesced_reads", self.counter(Counter::CoalescedReads))
            .field_u64("coalesced_writes", self.counter(Counter::CoalescedWrites))
            .field_u64("coalesce_flushes", self.counter(Counter::CoalesceFlushes))
            .field_u64("oram_accesses", self.oram_accesses())
            .field_u64("accesses_saved", self.coalesce_accesses_saved());

        let mut counters = JsonObject::new();
        for (c, total) in Counter::ALL.iter().zip(self.trace_counter_totals()) {
            counters.field_u64(c.name(), total);
        }

        let mut health = JsonObject::new();
        health
            .field_u64(
                "healthy",
                self.shards_with_health(ShardHealth::Healthy) as u64,
            )
            .field_u64(
                "degraded",
                self.shards_with_health(ShardHealth::Degraded) as u64,
            )
            .field_u64("dead", self.shards_with_health(ShardHealth::Dead) as u64)
            .field_u64("faults_injected", self.counter(Counter::FaultsInjected))
            .field_u64("fault_retries", self.counter(Counter::FaultRetries))
            .field_u64("latency_spikes", self.counter(Counter::LatencySpikes))
            .field_u64("shard_failovers", self.counter(Counter::ShardFailovers));

        let mut o = JsonObject::new();
        o.field_u64("shards", self.shards as u64)
            .field_u64("queue_depth", self.queue_depth as u64)
            .field_raw("requests", &requests.finish())
            .field_raw("throughput", &throughput.finish())
            .field_raw("latency", &latency.finish())
            .field_raw("coalescing", &coalescing.finish())
            .field_raw("health", &health.finish())
            .field_raw("trace_counter_totals", &counters.finish())
            .field_raw(
                "per_shard",
                &json::array(self.per_shard.iter().map(|s| s.to_json())),
            );
        o.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot(shard: usize, completed: u64, finish: u64) -> ShardSnapshot {
        let mut latency = Log2Hist::new();
        for i in 0..completed {
            latency.add(1000 + i * 100);
        }
        ShardSnapshot {
            shard,
            counters: ShardCounters {
                enqueued: completed,
                admitted: completed,
                completed,
                sim_finish_ps: finish,
                ..ShardCounters::default()
            },
            queue_len: 0,
            queue_high_water: 3,
            latency,
            trace_counters: vec![shard as u64 + 1; Counter::COUNT],
            health: ShardHealth::Healthy,
            fault: None,
        }
    }

    #[test]
    fn aggregation_sums_and_takes_max_finish() {
        let stats = ServiceStats::aggregate(
            2,
            64,
            vec![snapshot(0, 10, 2_000_000), snapshot(1, 30, 5_000_000)],
            1_000_000,
        );
        assert_eq!(stats.completed(), 40);
        assert_eq!(stats.sim_finish_ps(), 5_000_000);
        // 40 requests / 5 us of simulated time = 8M req/s.
        assert!((stats.sim_requests_per_sec() - 8.0e6).abs() < 1.0);
        assert_eq!(stats.latency.count(), 40);
        let totals = stats.trace_counter_totals();
        assert!(totals.iter().all(|&v| v == 3));
    }

    #[test]
    fn fingerprint_is_shard_order_insensitive() {
        let a = ServiceStats::aggregate(2, 64, vec![snapshot(0, 10, 1), snapshot(1, 20, 2)], 1);
        let b = ServiceStats::aggregate(2, 64, vec![snapshot(1, 20, 2), snapshot(0, 10, 1)], 99);
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn json_is_valid() {
        let stats = ServiceStats::aggregate(1, 64, vec![snapshot(0, 5, 1_000_000)], 500_000);
        let s = stats.to_json();
        json::validate(&s).unwrap();
        assert!(s.contains("\"sim_requests_per_sec\""));
        assert!(s.contains("\"per_shard\""));
        assert!(s.contains("\"health\""));
        assert!(s.contains("\"shard_failovers\""));
        assert!(s.contains("\"coalescing\""));
        assert!(s.contains("\"accesses_saved\""));
        // Counters ship by name, not by position.
        assert!(s.contains("\"trace_counter_totals\":{\"requests_submitted\":1,"));
        assert!(s.contains("\"writes_cancelled\":1}"));
        // Quantile keys carry the upper-bound marker, not exact values.
        assert!(s.contains("\"p50_le_ps\""));
        assert!(s.contains("\"p99_le_ps\""));
        assert!(!s.contains("\"p50_ps\""));
    }

    #[test]
    fn expired_requests_lower_reported_throughput() {
        // Two runs over the same simulated makespan and enqueue volume;
        // the second expired half its requests at admission. With the
        // corrected accounting (expired requests are not completions) it
        // must report *lower* req/s, not equal.
        let healthy = snapshot(0, 100, 1_000_000);
        let mut shedding = snapshot(0, 50, 1_000_000);
        shedding.counters.enqueued = 100;
        shedding.counters.admitted = 50;
        shedding.counters.expired = 50;
        let full = ServiceStats::aggregate(1, 64, vec![healthy], 1_000);
        let shed = ServiceStats::aggregate(1, 64, vec![shedding], 1_000);
        assert_eq!(full.enqueued(), shed.enqueued());
        assert_eq!(shed.completed() + shed.expired(), shed.enqueued());
        assert!(
            shed.sim_requests_per_sec() < full.sim_requests_per_sec(),
            "dropped requests must not inflate simulated throughput"
        );
        assert!(
            shed.wall_requests_per_sec() < full.wall_requests_per_sec(),
            "dropped requests must not inflate wall throughput"
        );
    }

    #[test]
    fn health_counts_and_fault_fields_serialize() {
        let mut sick = snapshot(1, 3, 2_000_000);
        sick.health = ShardHealth::Dead;
        sick.fault = Some("integrity violation at tree node 7".into());
        let mut tired = snapshot(2, 4, 3_000_000);
        tired.health = ShardHealth::Degraded;
        let stats = ServiceStats::aggregate(3, 64, vec![snapshot(0, 5, 1_000_000), sick, tired], 1);
        assert_eq!(stats.shards_with_health(ShardHealth::Healthy), 1);
        assert_eq!(stats.shards_with_health(ShardHealth::Degraded), 1);
        assert_eq!(stats.shards_with_health(ShardHealth::Dead), 1);
        let s = stats.to_json();
        json::validate(&s).unwrap();
        assert!(s.contains("\"health\":\"dead\""));
        assert!(s.contains("integrity violation"));
    }
}
