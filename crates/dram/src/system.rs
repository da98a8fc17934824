//! The top-level DRAM system: request entry points and FR-FCFS batching.

use fp_trace::TraceHandle;

use crate::channel::Channel;
use crate::config::{DramConfig, Location};
use crate::stats::DramStats;

/// Direction of a memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Data flows DRAM → controller.
    Read,
    /// Data flows controller → DRAM.
    Write,
}

/// Result of a single access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Time the data transfer completed (ps).
    pub finish_ps: u64,
    /// Whether the access hit an open row.
    pub row_hit: bool,
}

/// Result of a batch of accesses issued together.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchResult {
    /// Completion time of each access, in the order given to
    /// [`DramSystem::access_batch`].
    pub finish_ps: Vec<u64>,
    /// Completion of the whole batch.
    pub batch_finish_ps: u64,
}

/// A multi-channel DDR3 memory system with FR-FCFS batch scheduling.
///
/// State (open rows, bus occupancy) persists across calls, so back-to-back
/// ORAM phases see realistic row-buffer locality.
///
/// # Example
///
/// ```
/// use fp_dram::{AccessKind, DramConfig, DramSystem};
/// let mut dram = DramSystem::new(DramConfig::ddr3_1600(2));
/// let batch: Vec<(u64, AccessKind)> =
///     (0..8).map(|i| (i * 64, AccessKind::Read)).collect();
/// let result = dram.access_batch(0, &batch);
/// assert_eq!(result.finish_ps.len(), 8);
/// ```
#[derive(Debug, Clone)]
pub struct DramSystem {
    config: DramConfig,
    channels: Vec<Channel>,
    trace: TraceHandle,
    scratch: FrFcfsScratch,
}

/// Sentinel: the bank's first-row-hit cache is stale (its open row changed
/// since the last scan).
const HIT_STALE: u64 = u64::MAX;
/// Sentinel: the bank's queue holds no row-hit under its current open row.
const HIT_NONE: u64 = u64::MAX - 1;

/// Reusable per-batch scheduling state for [`DramSystem::access_batch`].
///
/// FR-FCFS picks "the first row-hit in arrival order, else the oldest".
/// Row-hit status of a queued request can only change when *its own bank*
/// is serviced (scheduling never touches another bank's open row), so the
/// batch is partitioned into per-bank arrival-order queues and each bank
/// caches the request index of its first row-hit; the cache goes stale only
/// for the bank just serviced. The oldest pending request comes from an
/// amortized-O(1) per-channel cursor. A pick therefore costs one sweep over
/// the channel's banks (a handful of loads) plus one amortized hit rescan —
/// the old `O(queue²)` full-rescan arbiter becomes `O(queue × banks)`.
#[derive(Debug, Clone, Default)]
struct FrFcfsScratch {
    /// Decomposed location of each batch request.
    locs: Vec<Location>,
    /// Arrival-ordered request indices per channel.
    chan_q: Vec<Vec<usize>>,
    /// First possibly-unserviced position in each channel queue.
    chan_cursor: Vec<usize>,
    /// Arrival-ordered request indices, one queue per (channel, rank, bank).
    bank_q: Vec<Vec<usize>>,
    /// First possibly-unserviced position in each bank queue.
    bank_head: Vec<usize>,
    /// Cached request index of the bank's first row-hit, or a sentinel.
    hit_idx: Vec<u64>,
    /// Queue position of the cached hit (valid when `hit_idx` holds one).
    hit_pos: Vec<usize>,
    /// Where to resume the bank's next hit scan (monotone while the bank's
    /// open row is unchanged).
    scan_from: Vec<usize>,
    /// Whether each request has been serviced (hits are removed from the
    /// middle of a bank queue; cursors skip over them lazily).
    done: Vec<bool>,
}

impl DramSystem {
    /// Creates a memory system from `config`.
    pub fn new(config: DramConfig) -> Self {
        let channels = (0..config.channels)
            .map(|_| Channel::new(&config))
            .collect();
        Self {
            config,
            channels,
            trace: TraceHandle::default(),
            scratch: FrFcfsScratch::default(),
        }
    }

    /// Attaches a shared trace spine; DRAM command events and counters
    /// report there from now on.
    pub fn attach_trace(&mut self, trace: TraceHandle) {
        self.trace = trace;
    }

    /// The trace spine this system reports into.
    pub fn trace(&self) -> &TraceHandle {
        &self.trace
    }

    /// The configuration this system was built with.
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    /// Cumulative statistics: a view over the attached spine's DRAM
    /// command counters (so a spine shared with another DRAM system, or
    /// swapped by [`DramSystem::attach_trace`] mid-run, is what it shows).
    pub fn stats(&self) -> DramStats {
        DramStats::view(&self.trace.counters(), &self.config)
    }

    /// Performs one access arriving at `now_ps`.
    pub fn access(&mut self, now_ps: u64, addr: u64, kind: AccessKind) -> AccessResult {
        let loc = self.config.decompose(addr);
        let sched =
            self.channels[loc.channel].schedule(&self.config, loc, kind, now_ps, &self.trace);
        AccessResult {
            finish_ps: sched.finish,
            row_hit: sched.row_hit,
        }
    }

    /// Performs a batch of accesses all arriving at `now_ps`, scheduled
    /// FR-FCFS per channel: among pending requests, open-row hits are
    /// serviced first, then the oldest.
    ///
    /// Returns per-access completion times in input order.
    // Allocates the returned buffer and nothing else once warm: tests/hot_path_alloc.rs.
    pub fn access_batch(&mut self, now_ps: u64, accesses: &[(u64, AccessKind)]) -> BatchResult {
        let mut finish = vec![0u64; accesses.len()];
        let mut batch_finish = now_ps;

        let banks_per_rank = self.config.banks_per_rank;
        let banks_per_channel = self.config.ranks_per_channel * banks_per_rank;
        let num_queues = self.config.channels * banks_per_channel;

        // Reset the reusable scratch (no per-batch allocation once warm).
        let s = &mut self.scratch;
        s.locs.clear();
        s.chan_q.resize_with(self.config.channels, Vec::new);
        for q in &mut s.chan_q {
            q.clear();
        }
        s.chan_cursor.clear();
        s.chan_cursor.resize(self.config.channels, 0);
        s.bank_q.resize_with(num_queues, Vec::new);
        for q in &mut s.bank_q {
            q.clear();
        }
        s.bank_head.clear();
        s.bank_head.resize(num_queues, 0);
        s.hit_idx.clear();
        s.hit_idx.resize(num_queues, HIT_STALE);
        s.hit_pos.clear();
        s.hit_pos.resize(num_queues, 0);
        s.scan_from.clear();
        s.scan_from.resize(num_queues, 0);
        s.done.clear();
        s.done.resize(accesses.len(), false);

        // Partition by channel and by (channel, rank, bank), preserving
        // arrival order.
        for (idx, &(addr, _)) in accesses.iter().enumerate() {
            let loc = self.config.decompose(addr);
            let q = loc.channel * banks_per_channel + loc.rank * banks_per_rank + loc.bank;
            s.chan_q[loc.channel].push(idx);
            s.bank_q[q].push(idx);
            s.locs.push(loc);
        }

        for ch_idx in 0..self.config.channels {
            let channel = &mut self.channels[ch_idx];
            let q_base = ch_idx * banks_per_channel;
            for _ in 0..s.chan_q[ch_idx].len() {
                // FR-FCFS: first row-hit in arrival order, else the oldest.
                // Only the bank serviced by the previous pick can have a
                // stale hit cache, so this sweep does one amortized rescan
                // plus a handful of loads.
                let mut best = HIT_NONE;
                let mut best_q = q_base;
                for q in q_base..q_base + banks_per_channel {
                    if s.hit_idx[q] == HIT_STALE {
                        let qq = &s.bank_q[q];
                        let len = qq.len();
                        let mut head = s.bank_head[q];
                        while head < len && s.done[qq[head]] {
                            head += 1;
                        }
                        s.bank_head[q] = head;
                        let mut pos = s.scan_from[q].max(head);
                        while pos < len {
                            let idx = qq[pos];
                            if !s.done[idx] && channel.is_row_hit(s.locs[idx]) {
                                break;
                            }
                            pos += 1;
                        }
                        s.scan_from[q] = pos;
                        if pos < len {
                            s.hit_idx[q] = qq[pos] as u64;
                            s.hit_pos[q] = pos;
                        } else {
                            s.hit_idx[q] = HIT_NONE;
                        }
                    }
                    if s.hit_idx[q] < best {
                        best = s.hit_idx[q];
                        best_q = q;
                    }
                }
                let (idx, q, was_hit) = if best < HIT_NONE {
                    (best as usize, best_q, true)
                } else {
                    // No hit anywhere: the channel's oldest pending request.
                    let cq = &s.chan_q[ch_idx];
                    let mut c = s.chan_cursor[ch_idx];
                    while s.done[cq[c]] {
                        c += 1;
                    }
                    s.chan_cursor[ch_idx] = c;
                    let idx = cq[c];
                    let loc = s.locs[idx];
                    (idx, q_base + loc.rank * banks_per_rank + loc.bank, false)
                };
                let sched = channel.schedule(
                    &self.config,
                    s.locs[idx],
                    accesses[idx].1,
                    now_ps,
                    &self.trace,
                );
                finish[idx] = sched.finish;
                batch_finish = batch_finish.max(sched.finish);
                s.done[idx] = true;
                if was_hit {
                    // Open row unchanged; the next hit (same row) is at or
                    // after the consumed position.
                    s.scan_from[q] = s.hit_pos[q] + 1;
                } else {
                    // The bank opened a new row: every cached decision for
                    // this bank is stale. Rescan from its head.
                    s.scan_from[q] = 0;
                }
                s.hit_idx[q] = HIT_STALE;
            }
        }

        BatchResult {
            finish_ps: finish,
            batch_finish_ps: batch_finish,
        }
    }

    /// Total rank count (for background-energy accounting).
    pub fn total_ranks(&self) -> u64 {
        (self.config.channels * self.config.ranks_per_channel) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_access_returns_positive_latency() {
        let mut dram = DramSystem::new(DramConfig::ddr3_1600(2));
        let r = dram.access(1000, 0, AccessKind::Read);
        assert!(r.finish_ps > 1000);
        assert!(!r.row_hit);
    }

    #[test]
    fn batch_same_row_mostly_hits() {
        let mut dram = DramSystem::new(DramConfig::ddr3_1600(1));
        let batch: Vec<_> = (0..16u64).map(|i| (i * 64, AccessKind::Read)).collect();
        let _ = dram.access_batch(0, &batch);
        assert_eq!(dram.stats().activations, 1, "one row, one activation");
        assert_eq!(dram.stats().row_hits, 15);
    }

    #[test]
    fn two_channels_overlap_transfers() {
        let cfg1 = DramConfig::ddr3_1600(1);
        let mut one = DramSystem::new(cfg1);
        let mut cfg2 = DramConfig::ddr3_1600(2);
        cfg2.mapping = crate::AddressMapping::ChannelInterleaved;
        let mut two = DramSystem::new(cfg2);
        let batch: Vec<_> = (0..32u64).map(|i| (i * 64, AccessKind::Read)).collect();
        let t1 = one.access_batch(0, &batch).batch_finish_ps;
        let t2 = two.access_batch(0, &batch).batch_finish_ps;
        assert!(t2 < t1, "2 channels ({t2}) should beat 1 channel ({t1})");
    }

    #[test]
    fn fr_fcfs_prefers_open_row() {
        let mut dram = DramSystem::new(DramConfig::ddr3_1600(1));
        let row = dram.config().row_bytes;
        // Open row 0 first.
        dram.access(0, 0, AccessKind::Read);
        // Batch: a conflicting row-miss first, then a row-hit. FR-FCFS
        // services the hit first, so the hit's finish < miss's finish.
        let batch = vec![
            (row * dram.config().banks_per_rank as u64, AccessKind::Read),
            (64, AccessKind::Read),
        ];
        // Both map to bank 0? ensure second is row 0 same bank: addr 64 is row 0.
        let r = dram.access_batch(100_000, &batch);
        assert!(
            r.finish_ps[1] < r.finish_ps[0],
            "row hit serviced first: {:?}",
            r.finish_ps
        );
    }

    #[test]
    fn state_persists_across_batches() {
        let mut dram = DramSystem::new(DramConfig::ddr3_1600(1));
        let b1: Vec<_> = (0..4u64).map(|i| (i * 64, AccessKind::Read)).collect();
        let r1 = dram.access_batch(0, &b1);
        // Second batch to the same row: all hits.
        let hits_before = dram.stats().row_hits;
        let r2 = dram.access_batch(r1.batch_finish_ps, &b1);
        assert_eq!(dram.stats().row_hits, hits_before + 4);
        assert!(r2.batch_finish_ps > r1.batch_finish_ps);
    }

    #[test]
    fn writes_and_reads_both_counted() {
        let mut dram = DramSystem::new(DramConfig::ddr3_1600(2));
        let batch = vec![
            (0u64, AccessKind::Read),
            (64, AccessKind::Write),
            (128, AccessKind::Write),
        ];
        dram.access_batch(0, &batch);
        assert_eq!(dram.stats().reads, 1);
        assert_eq!(dram.stats().writes, 2);
        assert_eq!(dram.stats().accesses(), 3);
    }

    /// The pre-optimization arbiter, verbatim: rescan the whole pending
    /// queue per pick. Kept as the semantic reference for the per-bank
    /// indexed scheduler.
    fn access_batch_reference(
        sys: &mut DramSystem,
        now_ps: u64,
        accesses: &[(u64, AccessKind)],
    ) -> BatchResult {
        let mut finish = vec![0u64; accesses.len()];
        let mut batch_finish = now_ps;
        let mut per_channel: Vec<Vec<usize>> = vec![Vec::new(); sys.config.channels];
        let locs: Vec<_> = accesses
            .iter()
            .map(|&(a, _)| sys.config.decompose(a))
            .collect();
        for (idx, loc) in locs.iter().enumerate() {
            per_channel[loc.channel].push(idx);
        }
        for (ch_idx, mut pending) in per_channel.into_iter().enumerate() {
            let channel = &mut sys.channels[ch_idx];
            while !pending.is_empty() {
                let pick_pos = pending
                    .iter()
                    .position(|&idx| channel.is_row_hit(locs[idx]))
                    .unwrap_or(0);
                let idx = pending.remove(pick_pos);
                let sched =
                    channel.schedule(&sys.config, locs[idx], accesses[idx].1, now_ps, &sys.trace);
                finish[idx] = sched.finish;
                batch_finish = batch_finish.max(sched.finish);
            }
        }
        BatchResult {
            finish_ps: finish,
            batch_finish_ps: batch_finish,
        }
    }

    #[test]
    fn indexed_arbiter_matches_reference_on_random_batches() {
        // The per-bank indexed scheduler must be pick-for-pick identical to
        // the full-rescan reference: same per-access finish times and same
        // hit/activation counts, across batches and persisting bank state.
        let mut xs = 0x9E3779B97F4A7C15u64; // splitmix64 stream
        let mut next = move || {
            xs = xs.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = xs;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        };
        for &channels in &[1usize, 2] {
            let cfg = DramConfig::ddr3_1600(channels);
            let row_bytes = cfg.row_bytes;
            let mut fast = DramSystem::new(cfg.clone());
            let mut slow = DramSystem::new(cfg);
            let mut now = 0u64;
            for _ in 0..6 {
                let len = 1 + (next() % 200) as usize;
                let batch: Vec<(u64, AccessKind)> = (0..len)
                    .map(|_| {
                        let row = next() % 48;
                        let col = (next() % 64) * 64;
                        let kind = if next() % 4 == 0 {
                            AccessKind::Write
                        } else {
                            AccessKind::Read
                        };
                        (row * row_bytes + col, kind)
                    })
                    .collect();
                let a = fast.access_batch(now, &batch);
                let b = access_batch_reference(&mut slow, now, &batch);
                assert_eq!(a, b, "divergence at channels={channels}");
                now = a.batch_finish_ps;
            }
            assert_eq!(fast.stats().row_hits, slow.stats().row_hits);
            assert_eq!(fast.stats().activations, slow.stats().activations);
        }
    }
}
