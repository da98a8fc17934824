//! The top-level DRAM system: request entry points and FR-FCFS batching.

use fp_trace::{Tally, TraceHandle};

use crate::channel::Channel;
use crate::config::{AddressMap, DramConfig, Location};
use crate::stats::DramStats;

/// Direction of a memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Data flows DRAM → controller.
    Read,
    /// Data flows controller → DRAM.
    Write,
}

/// Result of a batch of accesses issued together.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchResult<'a> {
    /// Completion time of each access, in the order given to
    /// [`DramSystem::access_batch`]; borrowed from the system's scratch,
    /// which the next batch overwrites.
    pub finish_ps: &'a [u64],
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
    map: AddressMap,
    channels: Vec<Channel>,
    /// DRAM command events and counters; the engine publishes it.
    tally: Tally,
    scratch: FrFcfsScratch,
}

/// Sentinel: the bank's first-row-hit cache is stale (its open row changed
/// since the last scan).
const HIT_STALE: usize = usize::MAX;
/// Sentinel: the bank's queue holds no row-hit under its current open row.
const HIT_NONE: usize = usize::MAX - 1;

/// Reusable per-batch scheduling state of a [`DramSystem`].
///
/// FR-FCFS picks "the first row-hit in arrival order, else the oldest",
/// and the arbiter makes that pick once per *run* — a stretch of
/// consecutive bursts of one kind sharing a [`Location`], which is what a
/// bucket's bursts are — then schedules the whole run back to back. That is
/// the per-request order exactly, for any split into same-location
/// contiguous runs: row-hit status of a queued request can only change when
/// *its own bank* is serviced, so once a run's first request is picked (as
/// the earliest hit, or as the oldest when nothing hits) its row is open,
/// the rest of the run hits, and no pending hit can be older — it would
/// have been picked first, and a run is a contiguous index range. A run cut
/// short where the kind changes is followed by the next run of its row,
/// which is then the earliest hit for the same reason.
///
/// Runs wait in per-bank arrival-order queues and each bank caches its
/// first row-hit; the cache goes stale only for the bank just serviced. A
/// pick is one sweep over the channel's banks *that hold runs of this
/// batch* plus one amortized hit rescan. A batch of one run (a bucket
/// write) never comes here: [`DramSystem::access_spans`] schedules it
/// directly.
#[derive(Debug, Clone, Default)]
struct FrFcfsScratch {
    /// Completion time of each burst of the batch, in input order; only
    /// [`DramSystem::access_batch`] fills it.
    finish: Vec<u64>,
    /// The batch split into runs, in arrival order.
    runs: Vec<Run>,
    /// One queue per (channel, rank, bank); sized by the first batch.
    banks: Vec<BankQueue>,
    /// Per channel, the `banks` indices that hold runs of this batch. Only
    /// these are swept, and only these are cleared afterwards.
    active: Vec<Vec<usize>>,
}

/// Consecutive bursts of a batch that share a location and a kind.
#[derive(Debug, Clone)]
struct Run {
    loc: Location,
    kind: AccessKind,
    bursts: u64,
    /// Serviced (hits leave the middle of a bank queue; cursors skip them).
    done: bool,
    /// Once serviced: when the first burst's data transfer finished. Each
    /// later burst finishes one column stride after the one before.
    first_finish: u64,
}

/// The runs of one batch waiting on one bank.
#[derive(Debug, Clone, Default)]
struct BankQueue {
    /// Arrival-ordered indices into `runs`.
    queue: Vec<usize>,
    /// First possibly-unserviced queue position.
    head: usize,
    /// Cached run index of the bank's first row-hit, or a sentinel.
    hit: usize,
    /// Where the next hit scan resumes (monotone while the bank's open row
    /// is unchanged); the queue position of the cached hit when `hit`
    /// holds one.
    scan_from: usize,
}

impl BankQueue {
    /// Advances `head` past serviced runs and recomputes the cached hit
    /// under the bank's current open row.
    fn rescan(&mut self, runs: &[Run], channel: &Channel) {
        let len = self.queue.len();
        while self.head < len && runs[self.queue[self.head]].done {
            self.head += 1;
        }
        let mut pos = self.scan_from.max(self.head);
        while pos < len {
            let run = &runs[self.queue[pos]];
            if !run.done && channel.is_row_hit(run.loc) {
                break;
            }
            pos += 1;
        }
        self.scan_from = pos;
        self.hit = self.queue.get(pos).copied().unwrap_or(HIT_NONE);
    }
}

impl DramSystem {
    /// Creates a memory system from `config`.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`DramConfig::validate`].
    pub fn new(config: DramConfig) -> Self {
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid DRAM config: {e}"));
        let channels = (0..config.channels)
            .map(|_| Channel::new(&config))
            .collect();
        Self {
            map: AddressMap::new(&config),
            config,
            channels,
            tally: Tally::default(),
            scratch: FrFcfsScratch::default(),
        }
    }

    /// Attaches a shared trace spine; DRAM command events and counters
    /// are counted for it from now on (what was counted before is
    /// published to the old one). A method rather than an argument of
    /// [`DramSystem::new`] because the benchmark builds a system bare and
    /// the datapath takes one already built.
    pub fn attach_trace(&mut self, trace: TraceHandle) {
        self.tally.publish();
        self.tally = Tally::new(trace);
    }

    /// The system's counts, for the engine that owns it to read with its
    /// own ([`Tally::counters_of`]).
    pub fn tally(&self) -> &Tally {
        &self.tally
    }

    /// The system's counts, for the engine that owns it to publish
    /// ([`Tally::publish_all`]) at the end of its calls.
    pub fn tally_mut(&mut self) -> &mut Tally {
        &mut self.tally
    }

    /// The configuration this system was built with.
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    /// Cumulative statistics: a view over the attached spine's DRAM
    /// command counters plus what this system has not published yet (so a
    /// spine shared with another DRAM system, or swapped by
    /// [`DramSystem::attach_trace`] mid-run, is what it shows).
    pub fn stats(&self) -> DramStats {
        DramStats::view(&self.tally.counters(), &self.config)
    }

    /// Performs a batch of accesses all arriving at `now_ps`, scheduled
    /// FR-FCFS per channel: among pending requests, open-row hits are
    /// serviced first, then the oldest.
    ///
    /// Returns per-access completion times in input order. This is the
    /// per-burst door: any addresses, any mix of kinds. A caller that moves
    /// whole buckets and wants only the batch finish uses
    /// [`DramSystem::access_spans`], which is the same model.
    // Allocation-free once warm: tests/hot_path_alloc.rs.
    pub fn access_batch(&mut self, now_ps: u64, accesses: &[(u64, AccessKind)]) -> BatchResult<'_> {
        self.split(accesses.iter().map(|&(addr, kind)| (addr, 1, kind)));
        let batch_finish_ps = self.arbitrate(now_ps);
        let stride = self.config.timing.column_stride();
        let FrFcfsScratch { finish, runs, .. } = &mut self.scratch;
        finish.clear();
        finish.reserve(accesses.len());
        // The runs partition the batch in input order.
        for run in runs.iter() {
            finish.extend((0..run.bursts).map(|k| run.first_finish + k * stride));
        }
        BatchResult {
            finish_ps: finish,
            batch_finish_ps,
        }
    }

    /// Performs a batch of `kind` accesses all arriving at `now_ps`, each
    /// one `bursts` consecutive bursts starting at an address of `bases` —
    /// a path's buckets — scheduled as [`DramSystem::access_batch`]
    /// schedules the same bursts listed one by one. Returns the completion
    /// of the whole batch, `now_ps` for an empty one.
    ///
    /// A batch that is one run — one base, `bursts > 0`, and a span that
    /// ends inside its row, which is every bucket write-back and every
    /// insecure-engine access — goes straight to the channel: with one run
    /// FR-FCFS has nothing to choose between, so the split and the arbiter
    /// are skipped, not changed.
    ///
    /// # Example
    ///
    /// ```
    /// use fp_dram::{AccessKind, DramConfig, DramSystem};
    /// let mut dram = DramSystem::new(DramConfig::ddr3_1600(2));
    /// // Two 256 B buckets, four 64 B bursts each.
    /// let done = dram.access_spans(0, AccessKind::Read, &[0x1000, 0x8000], 4);
    /// assert!(done > 0);
    /// assert_eq!(dram.stats().reads, 8);
    /// ```
    // Allocation-free once warm: tests/hot_path_alloc.rs.
    pub fn access_spans(
        &mut self,
        now_ps: u64,
        kind: AccessKind,
        bases: &[u64],
        bursts: u64,
    ) -> u64 {
        if let [base] = *bases {
            // `split`'s test for a span that fits its first piece, verbatim.
            let row = self.map.location_span(base);
            if bursts > 0 && base.saturating_add(bursts * self.config.burst_bytes) <= row.end {
                let loc = self.map.decompose(base);
                let sched = self.channels[loc.channel].schedule_run(
                    &self.config,
                    loc,
                    kind,
                    bursts,
                    now_ps,
                    &mut self.tally,
                );
                return now_ps.max(sched.last_finish);
            }
        }
        self.split(bases.iter().map(|&base| (base, bursts, kind)));
        self.arbitrate(now_ps)
    }

    /// Splits a batch of `(base, bursts, kind)` spans into runs, queued per
    /// bank in arrival order. A run ends where the location or the kind
    /// changes: a span contributes one piece per location span it reaches
    /// into (a 256 B bucket is one piece, or two where it straddles a row),
    /// and a piece extends the run before it when both match.
    fn split(&mut self, spans: impl Iterator<Item = (u64, u64, AccessKind)>) {
        let burst_bytes = self.config.burst_bytes;
        let banks_per_rank = self.config.banks_per_rank;
        let banks_per_channel = self.config.ranks_per_channel * banks_per_rank;
        let FrFcfsScratch {
            runs,
            banks,
            active,
            ..
        } = &mut self.scratch;
        if banks.is_empty() {
            banks.resize_with(self.config.channels * banks_per_channel, BankQueue::default);
            active.resize_with(self.config.channels, Vec::new);
        }

        runs.clear();
        let mut span = 0..0;
        let mut span_kind = AccessKind::Read;
        for (base, bursts, kind) in spans {
            let mut taken = 0;
            while taken < bursts {
                let addr = base + taken * burst_bytes;
                if !(span.contains(&addr) && kind == span_kind) {
                    span = self.map.location_span(addr);
                    span_kind = kind;
                    let loc = self.map.decompose(addr);
                    let q = loc.channel * banks_per_channel + loc.rank * banks_per_rank + loc.bank;
                    let bank = &mut banks[q];
                    if bank.queue.is_empty() {
                        // The bank's first run of this batch: every cursor
                        // starts afresh and the hit cache stale.
                        active[loc.channel].push(q);
                        bank.head = 0;
                        bank.scan_from = 0;
                        bank.hit = HIT_STALE;
                    }
                    bank.queue.push(runs.len());
                    runs.push(Run {
                        loc,
                        kind,
                        bursts: 0,
                        done: false,
                        first_finish: 0,
                    });
                }
                // The bursts that start inside the location span: usually
                // all that are left (no division), else up to its end.
                let left = bursts - taken;
                let fit = if addr.saturating_add(left * burst_bytes) <= span.end {
                    left
                } else {
                    (span.end - addr).div_ceil(burst_bytes)
                };
                if let Some(run) = runs.last_mut() {
                    run.bursts += fit;
                }
                taken += fit;
            }
        }
    }

    /// Services every queued run, all arriving at `now_ps`, FR-FCFS per
    /// channel; returns the completion of the last one.
    fn arbitrate(&mut self, now_ps: u64) -> u64 {
        let FrFcfsScratch {
            runs,
            banks,
            active,
            ..
        } = &mut self.scratch;
        let mut batch_finish = now_ps;
        for (channel, active) in self.channels.iter_mut().zip(active) {
            let pending: usize = active.iter().map(|&q| banks[q].queue.len()).sum();
            for _ in 0..pending {
                // FR-FCFS: first row-hit in arrival order, else the oldest.
                // Only the bank serviced by the previous pick can have a
                // stale hit cache, so this sweep does one amortized rescan
                // plus a handful of loads.
                let mut first_hit = (HIT_NONE, 0);
                let mut oldest = (usize::MAX, 0);
                for &q in active.iter() {
                    let bank = &mut banks[q];
                    if bank.hit == HIT_STALE {
                        bank.rescan(runs, channel);
                    }
                    if bank.hit < first_hit.0 {
                        first_hit = (bank.hit, q);
                    }
                    // `head` is current: only a rescan follows a service.
                    if let Some(&r) = bank.queue.get(bank.head) {
                        if r < oldest.0 {
                            oldest = (r, q);
                        }
                    }
                }
                let was_hit = first_hit.0 < HIT_NONE;
                let (r, q) = if was_hit { first_hit } else { oldest };
                let run = &mut runs[r];
                run.done = true;
                let sched = channel.schedule_run(
                    &self.config,
                    run.loc,
                    run.kind,
                    run.bursts,
                    now_ps,
                    &mut self.tally,
                );
                run.first_finish = sched.finish;
                batch_finish = batch_finish.max(sched.last_finish);
                let bank = &mut banks[q];
                // After a hit the open row is unchanged and the next hit
                // (same row) lies past the consumed position; after a miss
                // the bank opened a new row, so rescan from its head.
                bank.scan_from = if was_hit { bank.scan_from + 1 } else { 0 };
                bank.hit = HIT_STALE;
            }
            for q in active.drain(..) {
                banks[q].queue.clear();
            }
        }
        batch_finish
    }

    /// Total rank count (for background-energy accounting).
    pub fn total_ranks(&self) -> u64 {
        (self.config.channels * self.config.ranks_per_channel) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DramTiming;

    #[test]
    fn single_access_returns_positive_latency() {
        let mut dram = DramSystem::new(DramConfig::ddr3_1600(2));
        let finish = dram.access_spans(1000, AccessKind::Read, &[0], 1);
        assert!(finish > 1000);
        assert_eq!(dram.stats().row_hits, 0);
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
        let mut two = DramSystem::new(DramConfig::ddr3_1600(2));
        // Sixteen bursts in each of rows 0 and 1: one channel each when
        // there are two, two banks behind one bus when there is one.
        let row = DramConfig::ddr3_1600(1).row_bytes;
        let batch: Vec<_> = (0..32u64)
            .map(|i| ((i % 2) * row + i / 2 * 64, AccessKind::Read))
            .collect();
        let t1 = one.access_batch(0, &batch).batch_finish_ps;
        let t2 = two.access_batch(0, &batch).batch_finish_ps;
        assert!(t2 < t1, "2 channels ({t2}) should beat 1 channel ({t1})");
    }

    #[test]
    fn fr_fcfs_prefers_open_row() {
        let mut dram = DramSystem::new(DramConfig::ddr3_1600(1));
        let row = dram.config().row_bytes;
        // Open row 0 first.
        dram.access_spans(0, AccessKind::Read, &[0], 1);
        // Batch: a conflicting row-miss first, then a row-hit. FR-FCFS
        // services the hit first, so the hit's finish < miss's finish.
        let (miss, hit) = (row * dram.config().banks_per_rank as u64, 64);
        let (m, h) = (dram.map.decompose(miss), dram.map.decompose(hit));
        let bank = |l: Location| (l.channel, l.rank, l.bank);
        assert_eq!([bank(m), bank(h)], [(0, 0, 0); 2], "both in bank 0");
        assert_eq!((m.row, h.row), (1, 0), "and they differ in row");
        let batch = vec![(miss, AccessKind::Read), (hit, AccessKind::Read)];
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
        let t1 = dram.access_batch(0, &b1).batch_finish_ps;
        // Second batch to the same row: all hits.
        let hits_before = dram.stats().row_hits;
        let t2 = dram.access_batch(t1, &b1).batch_finish_ps;
        assert_eq!(dram.stats().row_hits, hits_before + 4);
        assert!(t2 > t1);
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
    /// queue per pick, one request per pick. Kept as the semantic reference
    /// for the per-bank run scheduler; hands back `(finish_ps,
    /// batch_finish_ps)`.
    fn access_batch_reference(
        sys: &mut DramSystem,
        now_ps: u64,
        accesses: &[(u64, AccessKind)],
    ) -> (Vec<u64>, u64) {
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
                let sched = channel.schedule(
                    &sys.config,
                    locs[idx],
                    accesses[idx].1,
                    now_ps,
                    &mut sys.tally,
                );
                finish[idx] = sched.finish;
                batch_finish = batch_finish.max(sched.finish);
            }
        }
        (finish, batch_finish)
    }

    /// A splitmix64 stream.
    fn splitmix(seed: u64) -> impl FnMut() -> u64 {
        let mut xs = seed;
        move || {
            xs = xs.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = xs;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        }
    }

    /// Two systems of one configuration, each retaining every event it
    /// records: the model under test and the one the reference drives.
    fn traced_pair(cfg: &DramConfig) -> (DramSystem, DramSystem) {
        let traced = || {
            let mut sys = DramSystem::new(cfg.clone());
            sys.attach_trace(TraceHandle::new(1 << 16));
            sys
        };
        (traced(), traced())
    }

    /// Same commands at the same times in the same order, nothing dropped.
    fn assert_same_events(fast: &DramSystem, slow: &DramSystem, case: &str) {
        let (fast, slow) = (fast.tally.handle(), slow.tally.handle());
        assert_eq!(fast.events(), slow.events(), "{case}");
        assert_eq!(fast.dropped(), 0, "{case}: ring too small");
    }

    #[test]
    fn indexed_arbiter_matches_reference_on_random_batches() {
        // The per-bank indexed scheduler must be pick-for-pick identical to
        // the full-rescan reference: same per-access finish times and same
        // hit/activation counts, across batches and persisting bank state.
        let mut next = splitmix(0x9E3779B97F4A7C15);
        for &channels in &[1usize, 2] {
            let cfg = DramConfig::ddr3_1600(channels);
            let row_bytes = cfg.row_bytes;
            let (mut fast, mut slow) = traced_pair(&cfg);
            let mut now = 0u64;
            for _ in 0..6 {
                let len = 1 + (next() % 200) as usize;
                let batch: Vec<(u64, AccessKind)> = (0..len)
                    .map(|_| {
                        let row = next() % 48;
                        let col = (next() % 64) * 64;
                        let kind = if next().is_multiple_of(4) {
                            AccessKind::Write
                        } else {
                            AccessKind::Read
                        };
                        (row * row_bytes + col, kind)
                    })
                    .collect();
                let a = fast.access_batch(now, &batch);
                let b = access_batch_reference(&mut slow, now, &batch);
                assert_eq!(
                    (a.finish_ps, a.batch_finish_ps),
                    (&b.0[..], b.1),
                    "divergence at channels={channels}"
                );
                now = a.batch_finish_ps;
                assert_same_events(&fast, &slow, &format!("channels={channels}"));
            }
            assert_eq!(fast.stats(), slow.stats());
        }
    }

    #[test]
    fn run_arbiter_matches_reference_on_bucket_shaped_batches() {
        // The traffic the ORAM makes: whole buckets of contiguous bursts,
        // so a batch is a few multi-burst runs. 320 B buckets straddle the
        // 8 KiB rows (one bucket, two runs); a flipped burst changes kind
        // inside a run; idle gaps let refreshes fall due inside one.
        let mut next = splitmix(0x0B0C_4E75);
        for (channels, ranks) in [(1, 1), (1, 2), (2, 1), (2, 2), (4, 1), (4, 2)] {
            for bucket_bytes in [64u64, 256, 320] {
                let cfg = DramConfig {
                    ranks_per_channel: ranks,
                    ..DramConfig::ddr3_1600(channels)
                };
                let case = format!("x{channels} ranks={ranks} {bucket_bytes} B");
                let buckets = 48 * cfg.row_bytes / bucket_bytes;
                let bursts = bucket_bytes / cfg.burst_bytes;
                let (mut fast, mut slow) = traced_pair(&cfg);
                let mut now = 0u64;
                for round in 0..40 {
                    let mut batch = Vec::new();
                    for _ in 0..1 + next() % 24 {
                        let base = next() % buckets * bucket_bytes;
                        let kind = [AccessKind::Read, AccessKind::Write][(next() % 2) as usize];
                        for i in 0..bursts {
                            let kind = match (next() % 16, kind) {
                                (0, AccessKind::Read) => AccessKind::Write,
                                (0, AccessKind::Write) => AccessKind::Read,
                                _ => kind,
                            };
                            batch.push((base + i * cfg.burst_bytes, kind));
                        }
                    }
                    let a = fast.access_batch(now, &batch);
                    let b = access_batch_reference(&mut slow, now, &batch);
                    assert_eq!(
                        (a.finish_ps, a.batch_finish_ps),
                        (&b.0[..], b.1),
                        "{case}, batch {round}"
                    );
                    now = a.batch_finish_ps;
                    assert_same_events(&fast, &slow, &format!("{case}, batch {round}"));
                    if round % 3 == 2 {
                        now += next() % 40_000_000;
                    }
                }
                assert_eq!(fast.stats(), slow.stats(), "{case}");
            }
        }
    }

    #[test]
    fn span_door_matches_reference() {
        // The door the ORAM engine uses, on the batches it makes — whole
        // buckets of one kind, a path of them or a single one — against
        // the reference fed the same bursts one by one. 320 B buckets
        // straddle rows; idle gaps skip refreshes and every eighth batch
        // arrives while one is due; every stride table.
        let mut next = splitmix(0x5BA2_D002);
        for (table, timing) in DramTiming::stride_tables() {
            for (channels, ranks) in [(1, 1), (1, 2), (2, 1), (2, 2), (4, 1), (4, 2)] {
                for bucket_bytes in [64u64, 256, 320] {
                    let cfg = DramConfig {
                        ranks_per_channel: ranks,
                        timing: timing.clone(),
                        ..DramConfig::ddr3_1600(channels)
                    };
                    let case = format!("{table} x{channels} ranks={ranks} {bucket_bytes} B");
                    let buckets = 48 * cfg.row_bytes / bucket_bytes;
                    let bursts = bucket_bytes / cfg.burst_bytes;
                    let (mut fast, mut slow) = traced_pair(&cfg);
                    let mut now = 0u64;
                    for round in 0..40 {
                        let kind = [AccessKind::Read, AccessKind::Write][(next() % 2) as usize];
                        let len = if next().is_multiple_of(3) {
                            1
                        } else {
                            1 + next() % 24
                        };
                        let bases: Vec<u64> =
                            (0..len).map(|_| next() % buckets * bucket_bytes).collect();
                        let per_burst: Vec<(u64, AccessKind)> = bases
                            .iter()
                            .flat_map(|&base| {
                                (0..bursts).map(move |i| (base + i * cfg.burst_bytes, kind))
                            })
                            .collect();
                        let a = fast.access_spans(now, kind, &bases, bursts);
                        let b = access_batch_reference(&mut slow, now, &per_burst);
                        assert_eq!(a, b.1, "{case}, batch {round}");
                        assert_same_events(&fast, &slow, &format!("{case}, batch {round}"));
                        now = a;
                        if round % 3 == 2 {
                            now += next() % 40_000_000;
                        }
                        if round % 8 == 5 {
                            // Land inside the next refresh.
                            let t = &cfg.timing;
                            now = (now / t.t_refi + 1) * t.t_refi + next() % t.t_rfc;
                        }
                    }
                    assert_eq!(fast.stats(), slow.stats(), "{case}");
                    assert!(fast.stats().refreshes > 0, "{case}: no REF fell due");
                }
            }
        }
    }

    #[test]
    fn both_doors_are_one_model() {
        // The per-burst door fed a bucket batch burst by burst lands where
        // the span door does, and reports each burst's finish.
        let cfg = DramConfig::ddr3_1600(2);
        let (mut spans, mut each) = traced_pair(&cfg);
        // The second bucket straddles a row; the third repeats the first.
        let bases = [0x1_0000, 0x2_0000 - 128, 0x1_0000];
        let per_burst: Vec<(u64, AccessKind)> = bases
            .iter()
            .flat_map(|&base| (0..4).map(move |i| (base + i * 64, AccessKind::Write)))
            .collect();
        let finish = spans.access_spans(0, AccessKind::Write, &bases, 4);
        let result = each.access_batch(0, &per_burst);
        assert_eq!(result.batch_finish_ps, finish);
        assert_eq!(result.finish_ps.len(), 12);
        assert_eq!(result.finish_ps.iter().max(), Some(&finish));
        assert_same_events(&spans, &each, "three buckets");
        assert_eq!(spans.access_spans(finish, AccessKind::Read, &[], 4), finish);
    }

    /// `access_spans` of `kind` on a fresh system against the reference fed
    /// the same bursts one by one: batch finish, counters and event ring.
    /// Hands back the finish and the system, whose split scratch holds no
    /// run when the one-run door took the batch.
    fn spans_match_reference(
        now: u64,
        kind: AccessKind,
        bases: &[u64],
        bursts: u64,
        case: &str,
    ) -> (u64, DramSystem) {
        let (mut fast, mut slow) = traced_pair(&DramConfig::ddr3_1600(2));
        let per_burst: Vec<(u64, AccessKind)> = bases
            .iter()
            .flat_map(|&base| (0..bursts).map(move |i| (base + i * 64, kind)))
            .collect();
        let finish = fast.access_spans(now, kind, bases, bursts);
        let (_, reference) = access_batch_reference(&mut slow, now, &per_burst);
        assert_eq!(finish, reference, "{case}");
        assert_same_events(&fast, &slow, case);
        assert_eq!(fast.stats(), slow.stats(), "{case}");
        (finish, fast)
    }

    #[test]
    fn one_base_of_no_bursts_is_an_empty_batch() {
        let (finish, dram) = spans_match_reference(7_000, AccessKind::Write, &[0x4000], 0, "empty");
        assert_eq!(finish, 7_000);
        assert_eq!(dram.tally.handle().events(), Vec::new(), "nothing recorded");
        assert_eq!(dram.stats(), DramStats::default());
    }

    #[test]
    fn a_bucket_that_ends_at_a_row_end_is_one_run() {
        let row = DramConfig::ddr3_1600(2).row_bytes;
        for kind in [AccessKind::Read, AccessKind::Write] {
            let (finish, dram) = spans_match_reference(0, kind, &[row - 256], 4, "row end");
            assert!(finish > 0);
            assert_eq!(dram.stats().accesses(), 4);
            assert!(dram.scratch.runs.is_empty(), "{kind:?}: the one-run door");
        }
    }

    #[test]
    fn a_bucket_that_crosses_a_row_end_takes_the_arbiter() {
        let row = DramConfig::ddr3_1600(2).row_bytes;
        for kind in [AccessKind::Read, AccessKind::Write] {
            let (_, dram) = spans_match_reference(0, kind, &[row - 128], 4, "row crossing");
            assert_eq!(dram.scratch.runs.len(), 2, "{kind:?}: one run per row");
        }
    }

    #[test]
    fn the_last_row_of_the_address_space_is_one_run_through_the_span_door() {
        // `location_span` saturates there: the span ends at `u64::MAX`, and
        // a bucket reaching past it still fits, as it does in `split`.
        for (base, bursts) in [(u64::MAX - 255, 4), (u64::MAX - 63, 1), (u64::MAX, 1)] {
            let (_, dram) = spans_match_reference(0, AccessKind::Read, &[base], bursts, "top");
            assert_eq!(dram.stats().accesses(), bursts, "{base:#x}");
            assert!(dram.scratch.runs.is_empty(), "{base:#x}: the one-run door");
        }
    }

    #[test]
    fn the_top_of_the_address_space_is_one_more_location() {
        // `location_span` saturates there; the split must still advance.
        let mut dram = DramSystem::new(DramConfig::ddr3_1600(2));
        let top = [
            (u64::MAX, AccessKind::Read),
            (u64::MAX - 63, AccessKind::Write),
        ];
        let result = dram.access_batch(0, &top);
        assert_eq!(result.finish_ps.len(), 2);
        assert_eq!(dram.stats().accesses(), 2);
    }
}
