//! **Caching and deferred writeback** of tree buckets (§3.5, §4.4) — the
//! one place bucket node ids become DRAM traffic, and the timing-only half
//! of [`crate::Datapath`], which owns it.
//!
//! Holds the on-chip bucket cache (any [`BucketCache`] policy) and the
//! subtree-aligned DRAM layout. Bucket node ids and commit times come in;
//! the ones the cache does not absorb go out to the DRAM model as bucket
//! base addresses, a path's worth per batch — it cuts them into bursts and
//! rows itself. The blocks themselves move in the datapath.

use fp_dram::layout::{SubtreeLayout, TreeLayout};
use fp_dram::{AccessKind, DramConfig, DramSystem};
use fp_trace::{Counter, TraceHandle};

use crate::cache::{BucketCache, WriteOutcome};
use crate::config::OramConfig;

/// Bucket cache + DRAM batch generation.
#[derive(Debug)]
pub struct WritebackEngine {
    cache: Box<dyn BucketCache + Send>,
    layout: SubtreeLayout,
    bursts_per_bucket: u64,
    trace: TraceHandle,
    /// Reusable batch buffer: base addresses of the buckets to read.
    bases: Vec<u64>,
}

impl WritebackEngine {
    /// Creates the engine around a cache policy for `oram`'s tree
    /// geometry laid out over `dram`'s rows and bursts, its counters
    /// reporting into `trace`.
    pub fn with_cache(
        cache: Box<dyn BucketCache + Send>,
        oram: &OramConfig,
        dram: &DramConfig,
        trace: TraceHandle,
    ) -> Self {
        let bucket_bytes = oram.bucket_bytes();
        Self {
            cache,
            layout: SubtreeLayout::fit_row(oram.path_len(), bucket_bytes, dram.row_bytes),
            bursts_per_bucket: bucket_bytes.div_ceil(dram.burst_bytes).max(1),
            trace,
            bases: Vec::new(),
        }
    }

    /// DRAM reads for a path range, minus cache hits, FR-FCFS batched.
    /// Returns the batch finish time (or `now_ps` when every bucket hit
    /// the cache); the controller adds its pipeline latency on top.
    // Allocation-free once warm, the DRAM batch it issues included: tests/hot_path_alloc.rs.
    pub fn read_path(&mut self, dram: &mut DramSystem, nodes: &[u64], now_ps: u64) -> u64 {
        self.bases.clear();
        for &node in nodes {
            if !self.cache.lookup_for_read(node) {
                self.bases.push(self.layout.bucket_address(node));
            }
        }
        let misses = self.bases.len() as u64;
        self.trace
            .add(Counter::CacheHits, nodes.len() as u64 - misses);
        self.trace.add(Counter::CacheMisses, misses);
        if misses == 0 {
            return now_ps;
        }
        self.trace
            .add(Counter::DramBlocksRead, misses * self.bursts_per_bucket);
        dram.access_spans(
            now_ps,
            AccessKind::Read,
            &self.bases,
            self.bursts_per_bucket,
        )
    }

    /// Commits one refill bucket through the cache; returns its commit
    /// time. A cached bucket commits instantly; a write-through or an
    /// eviction victim pays the DRAM write.
    // Allocation-free once warm, the DRAM batch it issues included: tests/hot_path_alloc.rs.
    pub fn write_bucket(&mut self, dram: &mut DramSystem, node: u64, t_ps: u64) -> u64 {
        self.trace.bump(Counter::BucketsWritten);
        let to_dram = match self.cache.insert_on_write(node) {
            WriteOutcome::Cached => return t_ps,
            WriteOutcome::WriteThrough => node,
            WriteOutcome::CachedEvicting { victim } => victim,
        };
        self.trace
            .add(Counter::DramBlocksWritten, self.bursts_per_bucket);
        let base = self.layout.bucket_address(to_dram);
        dram.access_spans(t_ps, AccessKind::Write, &[base], self.bursts_per_bucket)
    }

    /// Buckets currently resident in the on-chip cache.
    pub fn resident(&self) -> usize {
        self.cache.resident()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{NoCache, TreetopCache};

    fn engine(cache: Box<dyn BucketCache + Send>) -> (WritebackEngine, DramSystem, TraceHandle) {
        let dram = DramSystem::new(DramConfig::ddr3_1600(1));
        let trace = TraceHandle::default();
        let oram = OramConfig::small_test();
        let wb = WritebackEngine::with_cache(cache, &oram, dram.config(), trace.clone());
        (wb, dram, trace)
    }

    #[test]
    fn uncached_path_read_hits_dram_per_bucket() {
        let (mut wb, mut d, trace) = engine(Box::new(NoCache));
        let nodes: Vec<u64> = (1..=8).collect();
        let finish = wb.read_path(&mut d, &nodes, 0);
        assert!(finish > 0);
        assert_eq!(trace.counter(Counter::CacheMisses), 8);
        assert_eq!(trace.counter(Counter::CacheHits), 0);
        assert_eq!(
            trace.counter(Counter::DramBlocksRead) % 8,
            0,
            "whole bursts per bucket"
        );
    }

    #[test]
    fn empty_read_batch_costs_no_dram_time() {
        let (mut wb, mut d, trace) = engine(Box::new(NoCache));
        assert_eq!(wb.read_path(&mut d, &[], 42), 42);
        assert_eq!(trace.counter(Counter::DramBlocksRead), 0);
    }

    #[test]
    fn no_cache_writes_through() {
        let (mut wb, mut d, trace) = engine(Box::new(NoCache));
        let t = wb.write_bucket(&mut d, 5, 0);
        assert!(t > 0, "write-through pays DRAM time");
        assert!(trace.counter(Counter::DramBlocksWritten) > 0);
        assert_eq!(trace.counter(Counter::BucketsWritten), 1);
        assert_eq!(wb.resident(), 0);
    }

    #[test]
    fn cached_buckets_commit_instantly_and_hit_on_read() {
        let (mut wb, mut d, trace) = engine(Box::new(TreetopCache::new(3)));
        let t = wb.write_bucket(&mut d, 2, 1_000);
        assert_eq!(t, 1_000, "cached commit is instantaneous");
        let finish = wb.read_path(&mut d, &[2], 2_000);
        assert_eq!(finish, 2_000, "cache hit needs no DRAM");
        assert_eq!(trace.counter(Counter::CacheHits), 1);
        assert_eq!(trace.counter(Counter::DramBlocksWritten), 0);
    }
}
