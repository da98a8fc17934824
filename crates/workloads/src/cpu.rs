//! The processor frontend: cores turning profiles into timed LLC misses.
//!
//! Table 1's processor is a 4-core, 8-way-issue out-of-order Alpha at
//! 2 GHz; §5.3 also evaluates an in-order variant. For the ORAM controller
//! the only relevant difference is memory-level parallelism: an out-of-order
//! core keeps several misses outstanding (bounded by the profile's MLP and
//! its MSHRs), an in-order core blocks on each miss. `CoreModel`
//! implements both; [`MultiCoreWorkload`] aggregates one core per program.
//!
//! Address streams are deterministic per seed and independent of memory
//! timing, so the baseline, Fork Path, and insecure systems all replay an
//! identical request sequence — only completion times differ.

use fp_crypto::Xoshiro256;
use fp_path_oram::Op;

use crate::mixes::Mix;
use crate::parsec::ParsecWorkload;
use crate::profile::BenchmarkProfile;

/// Pipeline discipline of a core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipelineKind {
    /// Out-of-order: up to the profile's MLP outstanding misses.
    OutOfOrder,
    /// In-order: a miss blocks the core until it completes.
    InOrder,
}

/// One core executing one benchmark profile.
#[derive(Debug, Clone)]
pub(crate) struct CoreModel {
    profile: BenchmarkProfile,
    pipeline: PipelineKind,
    rng: Xoshiro256,
    /// First block of this core's private address region.
    region_base: u64,
    /// Blocks shared with other cores (PARSEC mode); 0 = fully private.
    shared_blocks: u64,
    /// Blocks private to this core.
    private_blocks: u64,
    outstanding: usize,
    issued: u64,
    budget: u64,
    next_issue_ps: u64,
    last_addr: u64,
}

impl CoreModel {
    /// Creates a core over a private region starting at `region_base`.
    pub(crate) fn new(
        profile: BenchmarkProfile,
        pipeline: PipelineKind,
        region_base: u64,
        budget: u64,
        seed: u64,
    ) -> Self {
        let private_blocks = profile.working_set_blocks;
        Self {
            profile,
            pipeline,
            rng: Xoshiro256::new(seed),
            region_base,
            shared_blocks: 0,
            private_blocks,
            outstanding: 0,
            issued: 0,
            budget,
            next_issue_ps: 0,
            last_addr: region_base,
        }
    }

    /// Creates a PARSEC-style thread: `shared_blocks` at address 0 are
    /// shared by all threads, the rest of the working set is private.
    pub(crate) fn new_thread(
        workload: &ParsecWorkload,
        pipeline: PipelineKind,
        thread: usize,
        budget: u64,
        seed: u64,
    ) -> Self {
        let ws = workload.profile.working_set_blocks;
        let shared = ((ws as f64) * workload.shared_fraction) as u64;
        let private = (ws - shared).max(1);
        Self {
            profile: workload.profile.clone(),
            pipeline,
            rng: Xoshiro256::new(seed ^ (thread as u64).wrapping_mul(0x9E37)),
            region_base: shared + thread as u64 * private,
            shared_blocks: shared,
            private_blocks: private,
            outstanding: 0,
            issued: 0,
            budget,
            next_issue_ps: 0,
            last_addr: 0,
        }
    }

    /// Whether all budgeted misses have been issued *and* completed.
    pub(crate) fn finished(&self) -> bool {
        self.issued >= self.budget && self.outstanding == 0
    }

    /// Whether the core can issue a miss right now (budget and MLP allow).
    fn can_issue(&self) -> bool {
        let mlp = match self.pipeline {
            PipelineKind::OutOfOrder => self.profile.mlp,
            PipelineKind::InOrder => 1,
        };
        self.issued < self.budget && self.outstanding < mlp
    }

    /// When the next miss can issue, if one can.
    pub(crate) fn next_issue_time(&self) -> Option<u64> {
        self.can_issue().then_some(self.next_issue_ps)
    }

    /// Issues the next miss at `now_ps`, returning `(address, op)`.
    ///
    /// # Panics
    ///
    /// Panics if the core cannot issue (check [`CoreModel::next_issue_time`]).
    pub(crate) fn issue(&mut self, now_ps: u64) -> (u64, Op) {
        assert!(self.can_issue(), "core cannot issue");
        self.issued += 1;
        self.outstanding += 1;
        // Think time to the next miss, exponential around the profile gap.
        let gap_ns = self.profile.avg_gap_ns * self.rng.exponential();
        self.next_issue_ps = now_ps.max(self.next_issue_ps) + (gap_ns * 1000.0) as u64;

        let addr = self.next_address();
        let op = if self.rng.gen_bool(self.profile.write_fraction) {
            Op::Write
        } else {
            Op::Read
        };
        (addr, op)
    }

    /// Records a completed miss at `done_ps`.
    pub(crate) fn complete(&mut self, done_ps: u64) {
        debug_assert!(self.outstanding > 0);
        let was_blocked = !self.can_issue() && self.issued < self.budget;
        self.outstanding -= 1;
        match self.pipeline {
            PipelineKind::InOrder => {
                // The blocked core resumes compute only after the data
                // returns.
                let gap_ns = self.profile.avg_gap_ns * self.rng.exponential();
                self.next_issue_ps = done_ps + (gap_ns * 1000.0) as u64;
            }
            PipelineKind::OutOfOrder => {
                // A miss held back by a full MLP window can only reach the
                // memory controller once this completion frees a slot.
                if was_blocked {
                    self.next_issue_ps = self.next_issue_ps.max(done_ps);
                }
            }
        }
    }

    /// Misses issued so far.
    pub(crate) fn issued(&self) -> u64 {
        self.issued
    }

    fn next_address(&mut self) -> u64 {
        let addr = if self.rng.gen_bool(self.profile.locality) {
            // Short forward stride from the previous access.
            let stride = 1 + self.rng.next_below(8);
            self.wrap(self.last_addr, stride)
        } else if self.shared_blocks > 0 && self.rng.gen_bool(0.5) {
            // PARSEC mode: jump within the shared region.
            self.rng.next_below(self.shared_blocks)
        } else {
            self.region_base + self.rng.next_below(self.private_blocks)
        };
        self.last_addr = addr;
        addr
    }

    /// Advances `addr` by `stride`, wrapping within the region that
    /// contains it.
    fn wrap(&self, addr: u64, stride: u64) -> u64 {
        if self.shared_blocks > 0 && addr < self.shared_blocks {
            (addr + stride) % self.shared_blocks
        } else {
            self.region_base + (addr - self.region_base + stride) % self.private_blocks
        }
    }
}

/// One core per program: the unit the system simulator drives.
#[derive(Debug, Clone)]
pub struct MultiCoreWorkload {
    cores: Vec<CoreModel>,
    /// Total distinct blocks across all cores (for ORAM sizing checks).
    footprint_blocks: u64,
}

impl MultiCoreWorkload {
    /// Builds a multiprogrammed workload from a Table 2 mix: one
    /// out-of-order core per program, each over a private region.
    pub fn from_mix(mix: &Mix, misses_per_core: u64, seed: u64) -> Self {
        Self::from_profiles(
            &mix.programs,
            PipelineKind::OutOfOrder,
            misses_per_core,
            seed,
        )
    }

    /// Builds a workload from explicit profiles and a pipeline kind.
    pub fn from_profiles(
        programs: &[BenchmarkProfile],
        pipeline: PipelineKind,
        misses_per_core: u64,
        seed: u64,
    ) -> Self {
        let mut cores = Vec::with_capacity(programs.len());
        let mut base = 0u64;
        for (i, p) in programs.iter().enumerate() {
            cores.push(CoreModel::new(
                p.clone(),
                pipeline,
                base,
                misses_per_core,
                seed.wrapping_add(i as u64 * 0x1234_5678),
            ));
            base += p.working_set_blocks;
        }
        Self {
            cores,
            footprint_blocks: base,
        }
    }

    /// Builds a multithreaded PARSEC workload with `threads` threads.
    pub fn from_parsec(
        workload: &ParsecWorkload,
        threads: usize,
        misses_per_thread: u64,
        seed: u64,
    ) -> Self {
        let cores: Vec<_> = (0..threads)
            .map(|t| {
                CoreModel::new_thread(
                    workload,
                    PipelineKind::OutOfOrder,
                    t,
                    misses_per_thread,
                    seed,
                )
            })
            .collect();
        let footprint = workload.profile.working_set_blocks
            + cores.iter().map(|c| c.private_blocks).sum::<u64>();
        Self {
            cores,
            footprint_blocks: footprint,
        }
    }

    /// Total distinct blocks the workload can touch.
    pub fn footprint_blocks(&self) -> u64 {
        self.footprint_blocks
    }

    /// Whether every core has issued and completed its budget.
    pub fn finished(&self) -> bool {
        self.cores.iter().all(CoreModel::finished)
    }

    /// The earliest time any core can issue a miss, if any can.
    pub fn next_issue_time(&self) -> Option<u64> {
        self.cores
            .iter()
            .filter_map(CoreModel::next_issue_time)
            .min()
    }

    /// Issues the miss of the earliest-ready core at `now_ps` (which must be
    /// at least that core's ready time). Returns `(core_tagged_addr, op)` —
    /// `None` if no core can issue.
    pub fn issue_at(&mut self, now_ps: u64) -> Option<(u64, Op)> {
        let (idx, _) = self
            .cores
            .iter()
            .enumerate()
            .filter_map(|(i, c)| c.next_issue_time().map(|t| (i, t)))
            .min_by_key(|&(_, t)| t)?;
        let (addr, op) = self.cores[idx].issue(now_ps);
        Some((tag(addr, idx), op))
    }

    /// Records a completion for the tagged address.
    pub fn complete(&mut self, tagged_addr: u64, done_ps: u64) {
        self.complete_core(untag_core(tagged_addr), done_ps);
    }

    /// Records a completion for an explicit core index (drivers that carry
    /// the core in a request tag rather than in the address).
    pub fn complete_core(&mut self, core: usize, done_ps: u64) {
        self.cores[core].complete(done_ps);
    }

    /// Total misses issued across cores.
    pub fn total_issued(&self) -> u64 {
        self.cores.iter().map(CoreModel::issued).sum()
    }
}

/// Tags an address with its issuing core in the top byte so completions can
/// be routed back. Addresses stay well below 2^48 blocks.
fn tag(addr: u64, core: usize) -> u64 {
    debug_assert!(addr < 1 << 48);
    addr | ((core as u64) << 48)
}

/// Extracts the core from a tagged address.
pub fn untag_core(tagged: u64) -> usize {
    (tagged >> 48) as usize
}

/// Strips the core tag, recovering the block address.
pub fn untag_addr(tagged: u64) -> u64 {
    tagged & ((1 << 48) - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{mixes, parsec, spec};

    #[test]
    fn core_respects_mlp() {
        let mut core = CoreModel::new(spec::mcf(), PipelineKind::OutOfOrder, 0, 100, 1);
        let mlp = core.profile.mlp;
        let mut n = 0;
        while core.next_issue_time().is_some() {
            let t = core.next_issue_time().unwrap();
            core.issue(t);
            n += 1;
        }
        assert_eq!(n, mlp, "stops at the MLP bound");
        core.complete(1_000_000);
        assert!(core.next_issue_time().is_some(), "completion frees a slot");
    }

    #[test]
    fn inorder_blocks_on_each_miss() {
        let mut core = CoreModel::new(spec::mcf(), PipelineKind::InOrder, 0, 10, 1);
        let t = core.next_issue_time().unwrap();
        core.issue(t);
        assert!(
            core.next_issue_time().is_none(),
            "in-order: one outstanding"
        );
        core.complete(5_000_000);
        let next = core.next_issue_time().unwrap();
        assert!(next > 5_000_000, "resumes after completion plus think time");
    }

    #[test]
    fn addresses_stay_in_region() {
        let profile = spec::povray();
        let ws = profile.working_set_blocks;
        let mut core = CoreModel::new(profile, PipelineKind::OutOfOrder, 1000, 500, 9);
        for _ in 0..500 {
            if core.next_issue_time().is_none() {
                core.complete(0);
            }
            let (addr, _) = core.issue(0);
            assert!(
                (1000..1000 + ws).contains(&addr),
                "addr {addr} outside [{}, {})",
                1000,
                1000 + ws
            );
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let make = || {
            let mut wl = MultiCoreWorkload::from_mix(&mixes::all()[2], 50, 7);
            let mut seq = Vec::new();
            while let Some(t) = wl.next_issue_time() {
                let (a, op) = wl.issue_at(t).unwrap();
                seq.push((a, op));
                // Complete immediately so budgets drain.
                wl.complete(a, t + 1);
                if seq.len() > 300 {
                    break;
                }
            }
            seq
        };
        assert_eq!(make(), make());
    }

    #[test]
    fn mix_regions_do_not_overlap() {
        let mut wl = MultiCoreWorkload::from_mix(&mixes::all()[0], 200, 3);
        let mut per_core: Vec<std::collections::HashSet<u64>> = vec![Default::default(); 4];
        while let Some(t) = wl.next_issue_time() {
            let (tagged, _) = wl.issue_at(t).unwrap();
            per_core[untag_core(tagged)].insert(untag_addr(tagged));
            wl.complete(tagged, t + 1);
        }
        for i in 0..4 {
            for j in (i + 1)..4 {
                assert!(
                    per_core[i].is_disjoint(&per_core[j]),
                    "cores {i} and {j} overlap"
                );
            }
        }
    }

    #[test]
    fn parsec_threads_share_addresses() {
        let wl_def = parsec::by_name("canneal").unwrap();
        let mut wl = MultiCoreWorkload::from_parsec(&wl_def, 4, 300, 5);
        let mut per_core: Vec<std::collections::HashSet<u64>> = vec![Default::default(); 4];
        while let Some(t) = wl.next_issue_time() {
            let (tagged, _) = wl.issue_at(t).unwrap();
            per_core[untag_core(tagged)].insert(untag_addr(tagged));
            wl.complete(tagged, t + 1);
        }
        // Exact collisions are improbable in a multi-million-block shared
        // region; instead verify every thread visits the shared region
        // (addresses below the shared boundary).
        let shared = ((wl_def.profile.working_set_blocks as f64) * wl_def.shared_fraction) as u64;
        for (i, set) in per_core.iter().enumerate() {
            assert!(
                set.iter().any(|&a| a < shared),
                "thread {i} never touched the shared region"
            );
        }
    }

    #[test]
    fn issue_rate_tracks_profile_gap() {
        let profile = spec::libquantum();
        let expect_ns = profile.avg_gap_ns;
        let mut core = CoreModel::new(profile, PipelineKind::OutOfOrder, 0, 1000, 2);
        let mut last = 0u64;
        let mut total_gap = 0u64;
        let mut n = 0u64;
        while let Some(t) = core.next_issue_time() {
            core.issue(t);
            core.complete(t); // never memory-bound
            if n > 0 {
                total_gap += t - last;
            }
            last = t;
            n += 1;
        }
        let mean_ns = total_gap as f64 / (n - 1) as f64 / 1000.0;
        assert!(
            (mean_ns - expect_ns).abs() / expect_ns < 0.15,
            "mean gap {mean_ns} ns vs profile {expect_ns} ns"
        );
    }

    #[test]
    fn workload_finishes_exactly_at_budget() {
        let mut wl = MultiCoreWorkload::from_mix(&mixes::all()[4], 25, 1);
        while let Some(t) = wl.next_issue_time() {
            let (a, _) = wl.issue_at(t).unwrap();
            wl.complete(a, t + 10);
        }
        assert!(wl.finished());
        assert_eq!(wl.total_issued(), 100);
    }
}
