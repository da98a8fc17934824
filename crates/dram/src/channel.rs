//! Per-channel timing state: banks, data bus, activation windows.

use std::collections::VecDeque;

use fp_trace::{Counter, EventKind, Tally};

use crate::config::{DramConfig, Location};
use crate::system::AccessKind;

/// State of one DRAM bank.
#[derive(Debug, Clone, Default)]
#[cfg_attr(test, derive(PartialEq))]
struct Bank {
    /// Currently open row, if any.
    open_row: Option<u64>,
    /// Time of the last ACT to this bank (for tRAS).
    act_time: u64,
    /// Earliest time the next column command may issue to this bank.
    next_cas: u64,
    /// Earliest time a PRE may issue (read/write recovery).
    next_pre: u64,
    /// Earliest time an ACT may issue (after precharge completes).
    next_act: u64,
}

/// Per-rank activation history for tFAW / tRRD enforcement, plus the
/// periodic-refresh schedule.
#[derive(Debug, Clone, Default)]
#[cfg_attr(test, derive(PartialEq))]
struct RankWindow {
    last_act: Option<u64>,
    recent_acts: VecDeque<u64>,
    /// Time the next REF command is due.
    next_refresh_due: u64,
}

/// One DRAM channel: a set of banks sharing a command/data bus.
#[derive(Debug, Clone)]
#[cfg_attr(test, derive(PartialEq))]
pub(crate) struct Channel {
    banks: Vec<Bank>,
    ranks: Vec<RankWindow>,
    /// Time the shared data bus becomes free.
    bus_free: u64,
    /// Direction of the last data transfer (for turnaround penalties).
    last_kind: Option<AccessKind>,
    banks_per_rank: usize,
}

/// Outcome of scheduling a run of bursts on a channel. Burst `k` of the
/// run (from 0) finishes at `finish + k * column_stride`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Scheduled {
    /// When the first burst's data transfer finishes (data fully read or
    /// written).
    pub finish: u64,
    /// When the last burst's does.
    pub last_finish: u64,
}

impl Channel {
    pub(crate) fn new(cfg: &DramConfig) -> Self {
        let banks = vec![Bank::default(); cfg.ranks_per_channel * cfg.banks_per_rank];
        let ranks = vec![
            RankWindow {
                next_refresh_due: cfg.timing.t_refi,
                ..RankWindow::default()
            };
            cfg.ranks_per_channel
        ];
        Self {
            banks,
            ranks,
            bus_free: 0,
            last_kind: None,
            banks_per_rank: cfg.banks_per_rank,
        }
    }

    /// Returns whether `loc`'s bank currently has `loc.row` open — the
    /// FR-FCFS "row hit" predicate.
    pub(crate) fn is_row_hit(&self, loc: Location) -> bool {
        self.banks[loc.rank * self.banks_per_rank + loc.bank].open_row == Some(loc.row)
    }

    /// Schedules a single burst at or after `earliest`, updating all state:
    /// the reference [`Channel::schedule_run`] is held to.
    #[cfg(test)]
    pub(crate) fn schedule(
        &mut self,
        cfg: &DramConfig,
        loc: Location,
        kind: AccessKind,
        earliest: u64,
        trace: &mut Tally,
    ) -> Scheduled {
        self.schedule_run(cfg, loc, kind, 1, earliest, trace)
    }

    /// Schedules `n >= 1` bursts of one kind to one location, all at or
    /// after `earliest`, leaving the channel and the trace exactly as `n`
    /// calls of [`Channel::schedule`] would.
    ///
    /// Only the first burst is scheduled command by command. Each later
    /// one hits the row the first opened, follows a transfer of its own
    /// kind (no turnaround) and meets no refresh: the first burst left
    /// `earliest < next_refresh_due` (it skipped every elapsed REF and
    /// stalled for a due one, after which `earliest < due + tRFC < due +
    /// tREFI` — `DramConfig::validate` holds tRFC below tREFI). So its
    /// column command waits only for its bank (`tCCD` after the previous
    /// one) and for the data bus (`tBURST` after the previous transfer
    /// began), both of which lie past `earliest`: the column commands are
    /// an arithmetic progression, and only the last one's state survives.
    // Allocation-free once warm: tests/hot_path_alloc.rs.
    pub(crate) fn schedule_run(
        &mut self,
        cfg: &DramConfig,
        loc: Location,
        kind: AccessKind,
        n: u64,
        earliest: u64,
        trace: &mut Tally,
    ) -> Scheduled {
        let t = &cfg.timing;
        let bank_idx = loc.rank * self.banks_per_rank + loc.bank;

        // Periodic refresh: the rank is unavailable during [due, due+tRFC].
        // Refreshes that completed during idle time only advance the
        // schedule — nothing waited on them, so they are counted as
        // skipped and charged no energy. A refresh overlapping this
        // command is actually modeled: the command stalls for tRFC and
        // the REF energy is charged.
        let earliest = {
            let rank = &mut self.ranks[loc.rank];
            let mut earliest = earliest;
            if rank.next_refresh_due + t.t_rfc <= earliest {
                // Skip all idle refreshes in one step: after a long idle
                // gap (open-loop serving can stamp arrivals seconds of
                // simulated time apart) the interval count is huge, and
                // advancing one tREFI per iteration made access cost
                // proportional to idle time.
                let skipped = 1 + (earliest - rank.next_refresh_due - t.t_rfc) / t.t_refi;
                rank.next_refresh_due += skipped * t.t_refi;
                trace.add(Counter::DramRefsSkipped, skipped);
            }
            if earliest >= rank.next_refresh_due {
                let due = rank.next_refresh_due;
                earliest = due + t.t_rfc;
                rank.next_refresh_due += t.t_refi;
                trace.record(due, EventKind::DramRef);
            }
            earliest
        };

        let row_hit = self.banks[bank_idx].open_row == Some(loc.row);
        let had_open_row = self.banks[bank_idx].open_row.is_some();

        // -- Row command phase -------------------------------------------
        let mut cas_ready = earliest;
        if !row_hit {
            let bank = &self.banks[bank_idx];
            let mut act_at = earliest.max(bank.next_act);
            if had_open_row {
                // Precharge the old row first.
                let pre_at = earliest.max(bank.next_pre).max(bank.act_time + t.t_ras);
                act_at = act_at.max(pre_at + t.t_rp);
                trace.bump(Counter::DramPrecharges);
            }
            // Rank-level activation constraints.
            {
                let rank = &mut self.ranks[loc.rank];
                if let Some(last) = rank.last_act {
                    act_at = act_at.max(last + t.t_rrd);
                }
                while rank.recent_acts.len() >= 4 {
                    let oldest = rank.recent_acts.front().copied().unwrap_or(0);
                    if act_at >= oldest + t.t_faw {
                        rank.recent_acts.pop_front();
                    } else {
                        act_at = oldest + t.t_faw;
                    }
                }
                rank.last_act = Some(act_at);
                rank.recent_acts.push_back(act_at);
            }
            let bank = &mut self.banks[bank_idx];
            bank.act_time = act_at;
            bank.open_row = Some(loc.row);
            cas_ready = cas_ready.max(act_at + t.t_rcd);
            trace.record(act_at, EventKind::DramAct);
        }

        // -- Column command phase ----------------------------------------
        let cas_latency = match kind {
            AccessKind::Read => t.t_cl,
            AccessKind::Write => t.t_cwl,
        };
        let bank = &self.banks[bank_idx];
        let mut cas_at = cas_ready.max(bank.next_cas);

        // Bus availability: data must start no earlier than bus_free, plus a
        // turnaround gap when the transfer direction changes.
        let turnaround = match (self.last_kind, kind) {
            (Some(AccessKind::Read), AccessKind::Write) => t.t_rtw,
            (Some(AccessKind::Write), AccessKind::Read) => t.t_wtr,
            _ => 0,
        };
        let earliest_data = self.bus_free + turnaround;
        if cas_at + cas_latency < earliest_data {
            cas_at = earliest_data - cas_latency;
        }

        let data_start = cas_at + cas_latency;
        let data_end = data_start + t.t_burst;

        // -- The run's other bursts (closed form) ---------------------------
        let stride = t.column_stride();
        let last_cas = cas_at + (n - 1) * stride;
        let last_end = data_end + (n - 1) * stride;

        // -- State updates -------------------------------------------------
        let bank = &mut self.banks[bank_idx];
        bank.next_cas = last_cas + t.t_ccd;
        match kind {
            AccessKind::Read => {
                bank.next_pre = bank.next_pre.max(last_cas + t.t_rtp);
                trace.record_run(EventKind::DramRead, n, data_start, stride);
            }
            AccessKind::Write => {
                bank.next_pre = bank.next_pre.max(last_end + t.t_wr);
                trace.record_run(EventKind::DramWrite, n, data_start, stride);
            }
        }
        // ACT after PRE: next_act tracks "row closed and precharged"; derive
        // lazily when the next conflicting access arrives.
        bank.next_act = bank.next_act.max(bank.act_time + t.t_ras + t.t_rp);

        self.bus_free = last_end;
        self.last_kind = Some(kind);

        Scheduled {
            finish: data_end,
            last_finish: last_end,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::DramStats;

    fn loc(bank: usize, row: u64) -> Location {
        Location {
            channel: 0,
            rank: 0,
            bank,
            row,
        }
    }

    fn setup() -> (DramConfig, Channel, Tally) {
        let cfg = DramConfig::ddr3_1600(1);
        let ch = Channel::new(&cfg);
        (cfg, ch, Tally::default())
    }

    #[test]
    fn first_access_pays_act_plus_cas() {
        let (cfg, mut ch, mut tr) = setup();
        let s = ch.schedule(&cfg, loc(0, 5), AccessKind::Read, 0, &mut tr);
        let t = &cfg.timing;
        assert_eq!(s.finish, t.t_rcd + t.t_cl + t.t_burst);
        let st = DramStats::view(&tr.counters(), &cfg);
        assert_eq!(st.activations, 1);
        assert_eq!(st.row_misses, 1);
    }

    #[test]
    fn row_hit_is_faster_than_miss() {
        let (cfg, mut ch, mut tr) = setup();
        let first = ch.schedule(&cfg, loc(0, 5), AccessKind::Read, 0, &mut tr);
        let hit = ch.schedule(&cfg, loc(0, 5), AccessKind::Read, first.finish, &mut tr);
        assert_eq!(DramStats::view(&tr.counters(), &cfg).row_hits, 1);
        let hit_latency = hit.finish - first.finish;

        let (cfg2, mut ch2, mut tr2) = setup();
        let f = ch2.schedule(&cfg2, loc(0, 5), AccessKind::Read, 0, &mut tr2);
        let miss = ch2.schedule(&cfg2, loc(0, 9), AccessKind::Read, f.finish, &mut tr2);
        let miss_latency = miss.finish - f.finish;
        assert!(
            miss_latency > hit_latency,
            "{miss_latency} vs {hit_latency}"
        );
        let st2 = DramStats::view(&tr2.counters(), &cfg2);
        assert_eq!(st2.row_hits, 0);
        assert_eq!(st2.precharges, 1, "conflict forced a precharge");
    }

    #[test]
    fn data_bus_serializes_parallel_banks() {
        let (cfg, mut ch, mut tr) = setup();
        // Two different banks activated in parallel still share the bus.
        let a = ch.schedule(&cfg, loc(0, 1), AccessKind::Read, 0, &mut tr);
        let b = ch.schedule(&cfg, loc(1, 1), AccessKind::Read, 0, &mut tr);
        assert!(b.finish >= a.finish + cfg.timing.t_burst);
    }

    #[test]
    fn write_to_read_turnaround_applies() {
        let (cfg, mut ch, mut tr) = setup();
        let w = ch.schedule(&cfg, loc(0, 1), AccessKind::Write, 0, &mut tr);
        let r = ch.schedule(&cfg, loc(1, 1), AccessKind::Read, 0, &mut tr);
        assert!(r.finish >= w.finish + cfg.timing.t_wtr + cfg.timing.t_burst);
    }

    #[test]
    fn faw_limits_burst_of_activations() {
        let (cfg, mut ch, mut tr) = setup();
        // 5 activations to distinct banks at time 0: the 5th must wait tFAW.
        let mut finishes = Vec::new();
        for bank in 0..5 {
            let s = ch.schedule(&cfg, loc(bank, 1), AccessKind::Read, 0, &mut tr);
            finishes.push(s.finish);
        }
        let st = DramStats::view(&tr.counters(), &cfg);
        assert_eq!(st.activations, 5);
        // The 5th ACT is at >= tFAW, so its data can't finish before
        // tFAW + tRCD + tCL + tBURST.
        let t = &cfg.timing;
        assert!(finishes[4] >= t.t_faw + t.t_rcd + t.t_cl + t.t_burst);
    }

    #[test]
    fn energy_accumulates_per_command() {
        let (cfg, mut ch, mut tr) = setup();
        ch.schedule(&cfg, loc(0, 1), AccessKind::Read, 0, &mut tr);
        ch.schedule(&cfg, loc(0, 1), AccessKind::Write, 0, &mut tr);
        let st = DramStats::view(&tr.counters(), &cfg);
        assert_eq!(st.act_energy_pj, cfg.act_pre_energy_pj);
        assert_eq!(st.read_energy_pj, cfg.read_energy_pj);
        assert_eq!(st.write_energy_pj, cfg.write_energy_pj);
    }
}

#[cfg(test)]
mod run_tests {
    use super::*;
    use crate::config::DramTiming;

    #[test]
    fn a_row_closes_only_after_the_last_burst_of_a_run_recovers() {
        // A conflicting read behind a run long enough to outlast tRAS: its
        // precharge waits out the run's *last* burst — tWR from the end of
        // written data, tRTP from the last read command.
        let cfg = DramConfig::ddr3_1600(1);
        let t = &cfg.timing;
        let row = |row| Location {
            channel: 0,
            rank: 0,
            bank: 0,
            row,
        };
        let (open, other) = (row(1), row(2));
        for kind in [AccessKind::Write, AccessKind::Read] {
            for via_run in [true, false] {
                let mut ch = Channel::new(&cfg);
                let mut tr = Tally::default();
                let last_finish = if via_run {
                    ch.schedule_run(&cfg, open, kind, 8, 0, &mut tr).last_finish
                } else {
                    (0..8).fold(0, |_, _| ch.schedule(&cfg, open, kind, 0, &mut tr).finish)
                };
                let pre_at = match kind {
                    AccessKind::Write => last_finish + t.t_wr,
                    AccessKind::Read => last_finish - t.t_burst - t.t_cl + t.t_rtp,
                };
                assert!(pre_at > t.t_ras, "tRAS must not be what binds");
                let conflict = ch.schedule(&cfg, other, AccessKind::Read, 0, &mut tr);
                assert_eq!(
                    conflict.finish,
                    pre_at + t.t_rp + t.t_rcd + t.t_cl + t.t_burst,
                    "{kind:?}, via_run={via_run}"
                );
            }
        }
    }

    #[test]
    fn schedule_run_leaves_the_channel_as_n_schedules_do() {
        // Runs of every length and both kinds, over two rows of two banks
        // and two ranks (hits, conflicts, turnarounds), at arrival times
        // that sit still, creep, and jump past refreshes due and elapsed.
        for (_, timing) in DramTiming::stride_tables() {
            let cfg = DramConfig {
                timing,
                ranks_per_channel: 2,
                ..DramConfig::ddr3_1600(1)
            };
            let (mut run, mut each) = (Channel::new(&cfg), Channel::new(&cfg));
            let ring = || Tally::new(fp_trace::TraceHandle::new(1 << 12));
            let (mut run_trace, mut each_trace) = (ring(), ring());
            let mut now = 0;
            for step in 0..400u64 {
                let loc = Location {
                    channel: 0,
                    rank: (step / 2 % 2) as usize,
                    bank: (step / 5 % 2) as usize,
                    row: step / 3 % 2,
                };
                let kind = [AccessKind::Read, AccessKind::Write][(step / 7 % 2) as usize];
                let n = 1 + step % 9;
                let got = run.schedule_run(&cfg, loc, kind, n, now, &mut run_trace);
                let finishes: Vec<u64> = (0..n)
                    .map(|_| each.schedule(&cfg, loc, kind, now, &mut each_trace).finish)
                    .collect();
                let case = format!("step {step}: {n} x {kind:?} at {loc:?}");
                let stride = cfg.timing.column_stride();
                let closed_form: Vec<u64> = (0..n).map(|k| got.finish + k * stride).collect();
                assert_eq!(closed_form, finishes, "{case}");
                assert_eq!(got.last_finish, finishes[finishes.len() - 1], "{case}");
                assert_eq!(run, each, "{case}");
                assert_eq!(
                    run_trace.handle().events(),
                    each_trace.handle().events(),
                    "{case}"
                );
                assert_eq!(run_trace.counters(), each_trace.counters(), "{case}");
                now = match step % 4 {
                    0 => now,
                    1 => now + 20_000,
                    2 => got.last_finish,
                    _ => now + cfg.timing.t_refi * (1 + step % 3) - 100_000,
                };
            }
            assert!(run_trace.counter(Counter::DramRefs) > 0);
            assert!(run_trace.counter(Counter::DramRefsSkipped) > 0);
        }
    }
}

#[cfg(test)]
mod refresh_tests {
    use super::*;
    use crate::stats::DramStats;

    #[test]
    fn refresh_delays_overlapping_access() {
        let cfg = DramConfig::ddr3_1600(1);
        let mut ch = Channel::new(&cfg);
        let mut tr = Tally::default();
        let loc = Location {
            channel: 0,
            rank: 0,
            bank: 0,
            row: 1,
        };
        // Land exactly on the first refresh due time.
        let due = cfg.timing.t_refi;
        let s = ch.schedule(&cfg, loc, AccessKind::Read, due, &mut tr);
        assert!(s.finish >= due + cfg.timing.t_rfc, "command waits out tRFC");
        let st = DramStats::view(&tr.counters(), &cfg);
        assert_eq!(st.refreshes, 1);
        assert_eq!(st.refreshes_skipped, 0);
        assert_eq!(st.ref_energy_pj, cfg.ref_energy_pj);
        assert_eq!(tr.counter(Counter::DramRefs), 1);
    }

    #[test]
    fn idle_refreshes_advance_schedule_silently() {
        let cfg = DramConfig::ddr3_1600(1);
        let mut ch = Channel::new(&cfg);
        let mut tr = Tally::default();
        let loc = Location {
            channel: 0,
            rank: 0,
            bank: 0,
            row: 1,
        };
        // Arrive after ~10 refresh intervals of idleness. Nothing waited
        // on those refreshes, so they are skipped — not counted as
        // executed and charged no energy (the pre-fix code inflated
        // `refreshes` and with it the Fig 15 REF energy).
        let t = cfg.timing.t_refi * 10 + cfg.timing.t_refi / 2;
        let s = ch.schedule(&cfg, loc, AccessKind::Read, t, &mut tr);
        let st = DramStats::view(&tr.counters(), &cfg);
        assert_eq!(st.refreshes, 0, "idle refreshes are not executed");
        assert!(st.refreshes_skipped >= 10);
        assert_eq!(st.ref_energy_pj, 0, "skipped refreshes cost no energy");
        assert!(tr.counter(Counter::DramRefsSkipped) >= 10);
        // The access itself is not delayed (it fell between refreshes).
        let expected = t + cfg.timing.t_rcd + cfg.timing.t_cl + cfg.timing.t_burst;
        assert_eq!(s.finish, expected);
    }

    #[test]
    fn refresh_energy_matches_idd_expectation() {
        let cfg = DramConfig::ddr3_1600(1);
        let mut ch = Channel::new(&cfg);
        let mut tr = Tally::default();
        let loc = Location {
            channel: 0,
            rank: 0,
            bank: 0,
            row: 1,
        };
        // Land on several consecutive refresh due times so each REF is
        // actually stalled for, with idle gaps in between (those advance
        // the schedule as skips).
        for k in 1..=6u64 {
            let due = cfg.timing.t_refi * (2 * k);
            ch.schedule(&cfg, loc, AccessKind::Read, due, &mut tr);
        }
        let st = DramStats::view(&tr.counters(), &cfg);
        assert!(st.refreshes >= 6);
        assert!(st.refreshes_skipped > 0);
        // IDD-based expectation: exactly ref_energy_pj per modeled REF,
        // nothing for skipped ones.
        assert_eq!(st.ref_energy_pj, st.refreshes * cfg.ref_energy_pj);
        let other = st.act_energy_pj + st.read_energy_pj + st.write_energy_pj;
        assert_eq!(st.dynamic_energy_pj(), other + st.ref_energy_pj);
    }
}
