//! Timing-channel protection: a fixed-rate ORAM request stream.
//!
//! §2.2: the *number* of ORAM requests leaks the LLC hit rate, so "a
//! nonstop stream of accesses to the external memory" is used — requests
//! issue at data-independent times whether or not real misses exist
//! (Fletcher et al. \[25\]). The simulator normally elides the nonstop stream
//! (finite workloads must terminate); this module enforces it explicitly
//! for a bounded horizon, which is both the faithful model and a way to
//! measure the protection's bandwidth/energy cost.
//!
//! [`enforce_fixed_rate`] drives a [`ForkPathController`] so that an ORAM
//! access *starts* at least every `interval_ps` until `horizon_ps`,
//! inserting merged dummy accesses whenever the program supplies no work.

use fp_path_oram::{NoFeedback, ReactiveSource};

use crate::controller::ForkPathController;
use crate::engine::OramEngine;
use crate::error::must;

/// Outcome of a fixed-rate enforcement run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FixedRateReport {
    /// Dummy accesses inserted purely to keep the stream nonstop.
    pub forced_dummies: u64,
    /// Real (program) accesses executed during the window.
    pub real_accesses: u64,
    /// Time the stream actually ended, picoseconds.
    pub end_ps: u64,
}

/// Drives `ctl` at a fixed request rate until `horizon_ps`.
///
/// Completions are routed through `source` exactly as in
/// [`OramEngine::process_one`], so closed-loop workloads keep functioning
/// under protection.
pub fn enforce_fixed_rate<S: ReactiveSource>(
    ctl: &mut ForkPathController,
    source: &mut S,
    horizon_ps: u64,
    interval_ps: u64,
) -> FixedRateReport {
    assert!(interval_ps > 0, "interval must be positive");
    let real_before = ctl.stats().real_accesses;
    let dummies_before = ctl.stats().dummy_accesses;

    ctl.set_fixed_rate(true);
    let mut report = FixedRateReport::default();
    // Strict slotting: one ORAM access starts at every interval boundary,
    // whether or not the program supplied work — the data-independent
    // cadence of [25]. If an access overruns its slot (bus contention),
    // the stream resumes at the next boundary after the bus frees.
    let origin = ctl.clock_ps();
    let mut slot = origin;
    while slot < horizon_ps {
        if !must(ctl.process_one_at(source, slot)) {
            ctl.force_dummy_at(slot);
        }
        slot += interval_ps;
        let clock = ctl.clock_ps();
        if slot < clock {
            let missed = (clock - slot).div_ceil(interval_ps);
            slot += missed * interval_ps;
        }
    }
    ctl.set_fixed_rate(false);

    report.forced_dummies = ctl.stats().dummy_accesses - dummies_before;
    report.real_accesses = ctl.stats().real_accesses - real_before;
    report.end_ps = ctl.clock_ps();
    report
}

/// Convenience: measure how many protection dummies a silent period costs.
pub fn idle_cost(
    ctl: &mut ForkPathController,
    window_ps: u64,
    interval_ps: u64,
) -> FixedRateReport {
    let horizon = ctl.clock_ps() + window_ps;
    let mut source = NoFeedback;
    enforce_fixed_rate(ctl, &mut source, horizon, interval_ps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ForkConfig;
    use fp_dram::{DramConfig, DramSystem};
    use fp_path_oram::{NewRequest, OramConfig};

    fn ctl() -> ForkPathController {
        let dram = DramSystem::new(DramConfig::ddr3_1600(2));
        ForkPathController::new(OramConfig::small_test(), ForkConfig::default(), dram, 3)
    }

    #[test]
    fn silent_period_is_fully_padded() {
        let mut c = ctl();
        let report = idle_cost(&mut c, 50_000_000, 1_000_000); // 50 us, 1 us rate
        assert!(
            report.forced_dummies >= 40,
            "~50 dummies expected: {report:?}"
        );
        assert!(
            report.forced_dummies <= 60,
            "paced, not back-to-back: {report:?}"
        );
        assert_eq!(report.real_accesses, 0);
        // The last slot starts before the horizon and may finish just shy
        // of it.
        assert!(report.end_ps >= 50_000_000 - 1_000_000);
        c.state().check_invariants().unwrap();
    }

    #[test]
    fn real_work_displaces_padding() {
        let mut c = ctl();
        for a in 0..32u64 {
            c.submit(NewRequest::write(a, vec![a as u8; 16], 0))
                .unwrap();
        }
        let mut source = NoFeedback;
        let report = enforce_fixed_rate(&mut c, &mut source, 50_000_000, 1_000_000);
        assert!(report.real_accesses > 0);
        // Same wall-clock horizon as the silent run, fewer forced dummies.
        let mut silent = ctl();
        let silent_report = idle_cost(&mut silent, 50_000_000, 1_000_000);
        assert!(
            report.forced_dummies < silent_report.forced_dummies,
            "{} vs {}",
            report.forced_dummies,
            silent_report.forced_dummies
        );
        // And the data is still correct afterwards.
        c.submit(NewRequest::read(5, c.clock_ps())).unwrap();
        let done = c.run_to_idle().unwrap();
        assert_eq!(done.last().unwrap().data[0], 5);
    }

    #[test]
    fn stream_has_no_long_idle_gaps() {
        let mut c = ctl();
        c.enable_label_trace();
        // Two bursts separated by a long program silence.
        for a in 0..8u64 {
            c.submit(NewRequest::read(a, 0)).unwrap();
        }
        for a in 0..8u64 {
            c.submit(NewRequest::read(a, 40_000_000)).unwrap();
        }
        let mut source = NoFeedback;
        let report = enforce_fixed_rate(&mut c, &mut source, 60_000_000, 500_000);
        // The silence between the bursts must have been padded.
        assert!(report.forced_dummies > 20, "{report:?}");
        c.state().check_invariants().unwrap();
    }

    #[test]
    fn padding_dummies_still_merge() {
        // Forced dummies participate in path merging: average accessed path
        // stays below the full path length.
        let mut c = ctl();
        let full = c.state().config().path_len() as f64;
        idle_cost(&mut c, 30_000_000, 500_000);
        assert!(c.stats().avg_path_len() < full, "merged padding expected");
    }
}
