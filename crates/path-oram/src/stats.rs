//! Controller-level statistics shared by every engine — a by-value view
//! over the engine's fp-trace spine.

use fp_trace::{Counter, Tally};

/// The quantities neither a trace counter nor a histogram carries: the
/// memory-bus busy sum and the finish time. The engine owns these as plain
/// fields (counters tally events; a time sum or a gauge in the counter
/// table would read as events).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccessTimes {
    /// Total memory-bus busy time across accesses, picoseconds.
    pub access_busy_ps: u64,
    /// Time the last access finished, picoseconds.
    pub finish_time_ps: u64,
}

/// Counters describing ORAM behaviour over a simulation run.
///
/// Nothing here is accumulated separately: [`OramStats::view`] assembles
/// the record on demand from the engine's trace counters, the exact sums
/// of the latency and stash occupancy histograms, and the engine-owned
/// [`AccessTimes`].
///
/// The paper's headline metrics map onto these fields:
///
/// * **Average ORAM path length** (Fig 10) = `(buckets_read +
///   buckets_written) / (2 * oram_accesses)` — traditional Path ORAM pins
///   this at `L + 1`.
/// * **Normalized ORAM request count** (Fig 11) = `oram_accesses /
///   real_accesses` relative to the baseline run.
/// * **ORAM latency** (Fig 12+) = `sum_latency_ps / completed_requests`,
///   the completion time of an LLC request since it entered the controller.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OramStats {
    /// LLC requests completed.
    pub completed_requests: u64,
    /// Total ORAM accesses executed (real + dummy).
    pub oram_accesses: u64,
    /// Real (data-carrying) ORAM accesses.
    pub real_accesses: u64,
    /// Dummy ORAM accesses (inserted for merging or background eviction).
    pub dummy_accesses: u64,
    /// Dummy requests that were replaced by late-arriving real requests
    /// before being revealed (§3.3).
    pub dummies_replaced: u64,
    /// Buckets logically read (path-length numerator, read phases).
    pub buckets_read: u64,
    /// Buckets logically written (path-length numerator, write phases).
    pub buckets_written: u64,
    /// Blocks fetched from DRAM (after on-chip caching).
    pub dram_blocks_read: u64,
    /// Blocks written to DRAM (after on-chip caching).
    pub dram_blocks_written: u64,
    /// On-chip bucket-cache hits.
    pub cache_hits: u64,
    /// Read-phase buckets that went to DRAM (every bucket, when there is
    /// no on-chip cache).
    pub cache_misses: u64,
    /// Sum of LLC-request latencies (arrival -> data return), picoseconds:
    /// the latency histogram's exact sum. On a coalescing service shard it
    /// also holds the samples of the waiters the shard answers itself.
    pub sum_latency_ps: u64,
    /// Stash-hit fast returns (block found on chip at request time).
    pub stash_hits: u64,
    /// Time the last access finished, picoseconds.
    pub finish_time_ps: u64,
    /// Total memory-bus busy time across accesses (read + write phase
    /// durations, queueing excluded), picoseconds — Fig 10's per-access
    /// DRAM latency numerator.
    pub access_busy_ps: u64,
    /// Sum of stash occupancy sampled after every refill (§3.6 evidence).
    pub stash_size_sum: u64,
    /// Number of stash samples taken.
    pub stash_samples: u64,
    /// Sum over scheduling rounds of the number of schedulable real
    /// requests (diagnostic for merging efficiency).
    pub sched_ready_reals: u64,
    /// Scheduling rounds observed.
    pub sched_rounds: u64,
}

impl OramStats {
    /// Assembles the record from an engine's counter table (`counters`:
    /// the spine plus what the engine has not published, so the engine's
    /// own thread reads it exact) and the histograms as the engine's
    /// `tally`, which takes its samples, will publish them.
    ///
    /// The derived fields rest on three facts every engine keeps: each
    /// access's read phase is counted once as a full or a merged read;
    /// each bucket of a read phase is looked up in the bucket cache once
    /// (a hit or a miss); and a cancelled write produces a completion
    /// record but is not a completed request.
    pub fn view(counters: &[u64; Counter::COUNT], tally: &Tally, times: AccessTimes) -> Self {
        let c = |c: Counter| counters[c as usize];
        let occupancy = tally.occupancy_hist();
        let oram_accesses = c(Counter::FullReads) + c(Counter::MergedReads);
        let dummy_accesses = c(Counter::DummiesExecuted);
        Self {
            completed_requests: c(Counter::RequestsCompleted) - c(Counter::WritesCancelled),
            oram_accesses,
            real_accesses: oram_accesses - dummy_accesses,
            dummy_accesses,
            dummies_replaced: c(Counter::DummiesReplaced),
            buckets_read: c(Counter::CacheHits) + c(Counter::CacheMisses),
            buckets_written: c(Counter::BucketsWritten),
            dram_blocks_read: c(Counter::DramBlocksRead),
            dram_blocks_written: c(Counter::DramBlocksWritten),
            cache_hits: c(Counter::CacheHits),
            cache_misses: c(Counter::CacheMisses),
            sum_latency_ps: tally.latency_hist().sum(),
            stash_hits: c(Counter::StashHits),
            finish_time_ps: times.finish_time_ps,
            access_busy_ps: times.access_busy_ps,
            stash_size_sum: occupancy.sum(),
            stash_samples: occupancy.count(),
            sched_ready_reals: c(Counter::SchedReadyReals),
            sched_rounds: c(Counter::SchedRounds),
        }
    }

    /// Average buckets touched per phase — the Fig 10 path-length metric.
    pub fn avg_path_len(&self) -> f64 {
        if self.oram_accesses == 0 {
            0.0
        } else {
            (self.buckets_read + self.buckets_written) as f64 / (2.0 * self.oram_accesses as f64)
        }
    }

    /// Average LLC-request latency in nanoseconds (the paper's "ORAM
    /// latency").
    pub fn avg_latency_ns(&self) -> f64 {
        if self.completed_requests == 0 {
            0.0
        } else {
            self.sum_latency_ps as f64 / self.completed_requests as f64 / 1000.0
        }
    }

    /// ORAM accesses per completed LLC request (baseline: hierarchy depth).
    pub fn accesses_per_request(&self) -> f64 {
        if self.completed_requests == 0 {
            0.0
        } else {
            self.oram_accesses as f64 / self.completed_requests as f64
        }
    }

    /// Fraction of ORAM accesses that were dummies.
    pub fn dummy_fraction(&self) -> f64 {
        if self.oram_accesses == 0 {
            0.0
        } else {
            self.dummy_accesses as f64 / self.oram_accesses as f64
        }
    }

    /// Mean stash occupancy (blocks) sampled after refills.
    pub fn avg_stash_occupancy(&self) -> f64 {
        if self.stash_samples == 0 {
            0.0
        } else {
            self.stash_size_sum as f64 / self.stash_samples as f64
        }
    }

    /// Average DRAM busy time per ORAM access, nanoseconds (Fig 10's
    /// "average DRAM latency").
    pub fn avg_access_busy_ns(&self) -> f64 {
        if self.oram_accesses == 0 {
            0.0
        } else {
            self.access_busy_ps as f64 / self.oram_accesses as f64 / 1000.0
        }
    }

    /// Cache hit rate over cacheable accesses.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_metrics_handle_zero() {
        let s = OramStats::default();
        assert_eq!(s.avg_path_len(), 0.0);
        assert_eq!(s.avg_latency_ns(), 0.0);
        assert_eq!(s.accesses_per_request(), 0.0);
        assert_eq!(s.dummy_fraction(), 0.0);
        assert_eq!(s.cache_hit_rate(), 0.0);
    }

    #[test]
    fn avg_path_len_matches_baseline_shape() {
        let s = OramStats {
            oram_accesses: 10,
            buckets_read: 250,
            buckets_written: 250,
            ..Default::default()
        };
        assert_eq!(s.avg_path_len(), 25.0);
    }

    #[test]
    fn latency_is_per_completed_request() {
        let s = OramStats {
            completed_requests: 4,
            sum_latency_ps: 8_000_000,
            ..Default::default()
        };
        assert_eq!(s.avg_latency_ns(), 2000.0);
    }
}
