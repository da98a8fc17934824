//! The closed-loop full-system driver.
//!
//! A run couples a [`MultiCoreWorkload`] to a memory system: cores issue
//! LLC misses when their think time elapses and their MLP window allows;
//! completions feed back into the cores. Address streams are identical
//! across schemes for a given workload/seed — only timing differs.
//!
//! There is exactly ONE driver loop. [`Scheme::build`] constructs the
//! engine ([`fp_core::OramEngine`]) and the loop below pumps it: insecure
//! DRAM, traditional Path ORAM (with or without a treetop cache), and
//! every Fork Path configuration all run through the same code path.

use fp_core::NewRequest;
use fp_core::ReactiveSource;
use fp_path_oram::{Completion, Op};
use fp_trace::TraceHandle;
use fp_workloads::cpu::{untag_addr, untag_core, MultiCoreWorkload};

use crate::config::{Scheme, SystemConfig};
use crate::energy::{self, EnergyParams};
use crate::metrics::RunResult;

/// Runs `workload` (consumed) on `scheme` and returns the metrics.
///
/// # Panics
///
/// Panics if the workload footprint exceeds the ORAM's data capacity.
pub fn run_workload(cfg: &SystemConfig, scheme: Scheme, workload: MultiCoreWorkload) -> RunResult {
    run_workload_traced(cfg, scheme, workload, 0).0
}

/// Like [`run_workload`], but also returns the engine's trace spine
/// (counters, histograms, and an event ring of `trace_capacity` most
/// recent events). Every scheme carries a trace — counters are always
/// exact; the event ring is empty when `trace_capacity` is 0.
///
/// # Panics
///
/// Panics if the workload footprint exceeds the ORAM's data capacity.
pub fn run_workload_traced(
    cfg: &SystemConfig,
    scheme: Scheme,
    mut wl: MultiCoreWorkload,
    trace_capacity: usize,
) -> (RunResult, TraceHandle) {
    assert!(
        wl.footprint_blocks() <= cfg.oram.data_blocks,
        "workload footprint {} exceeds ORAM capacity {}",
        wl.footprint_blocks(),
        cfg.oram.data_blocks
    );
    let dram = fp_dram::DramSystem::new(cfg.dram.clone());
    let mut engine = scheme.build(cfg.oram.clone(), dram, cfg.seed);
    engine.set_trace_capacity(trace_capacity);
    let block_bytes = cfg.oram.block_bytes;

    // Per-request submission: each submit pumps the engine's pipeline, so
    // arrival order and the label-stream consumption match the hardware
    // model (a batch submit would change fork's dummy padding).
    for r in drain_issues(&mut wl, block_bytes) {
        engine.submit(r).expect("engine invariant violated");
    }
    {
        let mut src = CoreSource {
            wl: &mut wl,
            block_bytes,
        };
        while engine
            .process_one(&mut src)
            .expect("engine invariant violated")
        {}
    }
    let done = engine.drain_completions();
    debug_assert!(wl.finished(), "driver must drain the workload");

    let exec_time_ps = done
        .iter()
        .map(|c| c.done_ps)
        .max()
        .unwrap_or(0)
        .max(engine.stats().finish_time_ps);
    let result = build_result(
        &scheme,
        &wl,
        engine.stats(),
        engine.dram().stats(),
        exec_time_ps,
        engine.dram().total_ranks(),
        cfg.dram.background_mw_per_rank,
        engine.stash_high_water(),
    );
    (result, engine.trace().clone())
}

fn write_payload(addr: u64, block_bytes: usize) -> Vec<u8> {
    let mut v = addr.to_le_bytes().to_vec();
    v.resize(block_bytes, 0xA5);
    v
}

/// Pulls every currently issueable miss out of the workload.
fn drain_issues(wl: &mut MultiCoreWorkload, block_bytes: usize) -> Vec<NewRequest> {
    let mut out = Vec::new();
    while let Some(t) = wl.next_issue_time() {
        let (tagged, op) = wl.issue_at(t).expect("issueable");
        let addr = untag_addr(tagged);
        let data = match op {
            Op::Write => write_payload(addr, block_bytes),
            Op::Read => Vec::new(),
        };
        out.push(NewRequest {
            addr,
            op,
            data,
            arrival_ps: t,
            tag: untag_core(tagged) as u64,
        });
    }
    out
}

struct CoreSource<'a> {
    wl: &'a mut MultiCoreWorkload,
    block_bytes: usize,
}

impl ReactiveSource for CoreSource<'_> {
    fn on_complete(&mut self, completion: &Completion) -> Vec<NewRequest> {
        self.wl
            .complete_core(completion.tag as usize, completion.done_ps);
        drain_issues(self.wl, self.block_bytes)
    }
}

// Eight separately-sourced inputs of one flat record, called once: a
// struct to carry them would be a second copy of `RunResult`'s fields.
#[expect(clippy::too_many_arguments)]
fn build_result(
    scheme: &Scheme,
    wl: &MultiCoreWorkload,
    oram: fp_path_oram::OramStats,
    dram: fp_dram::DramStats,
    exec_time_ps: u64,
    ranks: u64,
    background_mw_per_rank: u64,
    stash_high_water: usize,
) -> RunResult {
    let energy = energy::compute(
        &EnergyParams::default(),
        &dram,
        &oram,
        exec_time_ps,
        ranks,
        background_mw_per_rank,
    );
    RunResult {
        scheme: scheme.label(),
        workload: String::new(),
        oram_latency_ns: oram.avg_latency_ns(),
        avg_path_len: oram.avg_path_len(),
        dram_busy_ns_per_access: oram.avg_access_busy_ns(),
        llc_requests: wl.total_issued(),
        oram_accesses: oram.oram_accesses,
        real_accesses: oram.real_accesses,
        dummy_accesses: oram.dummy_accesses,
        dummies_replaced: oram.dummies_replaced,
        exec_time_ps,
        energy,
        row_hit_rate: dram.row_hit_rate(),
        dram_blocks_read: dram.reads,
        dram_blocks_written: dram.writes,
        stash_high_water,
        sched_ready_reals: if oram.sched_rounds == 0 {
            0.0
        } else {
            oram.sched_ready_reals as f64 / oram.sched_rounds as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fp_workloads::mixes;

    fn wl(miss_budget: u64) -> MultiCoreWorkload {
        // A dense, small-footprint mix that fits the fast_test ORAM: the
        // regime the paper's headline claims target (high memory intensity).
        let mut mix = mixes::all()[4].clone();
        for p in &mut mix.programs {
            p.working_set_blocks = 1 << 12;
            p.avg_gap_ns = 300.0;
            p.mlp = 8;
        }
        MultiCoreWorkload::from_mix(&mix, miss_budget, 21)
    }

    #[test]
    fn all_schemes_complete_the_workload() {
        let cfg = SystemConfig::fast_test();
        for scheme in [
            Scheme::Insecure,
            Scheme::Traditional,
            Scheme::TraditionalTreetop { bytes: 64 << 10 },
            Scheme::ForkDefault,
        ] {
            let r = run_workload(&cfg, scheme.clone(), wl(40));
            assert_eq!(r.llc_requests, 160, "{}", r.scheme);
            assert!(r.exec_time_ps > 0, "{}", r.scheme);
            assert!(r.oram_latency_ns > 0.0, "{}", r.scheme);
        }
    }

    #[test]
    fn oram_is_slower_than_insecure() {
        let cfg = SystemConfig::fast_test();
        let insecure = run_workload(&cfg, Scheme::Insecure, wl(60));
        let oram = run_workload(&cfg, Scheme::Traditional, wl(60));
        assert!(
            oram.exec_time_ps > insecure.exec_time_ps,
            "ORAM {} vs insecure {}",
            oram.exec_time_ps,
            insecure.exec_time_ps
        );
        assert!(oram.oram_latency_ns > 5.0 * insecure.oram_latency_ns);
        assert_eq!(insecure.avg_path_len, 1.0, "plain DRAM touches one block");
        assert_eq!(insecure.stash_high_water, 0);
    }

    #[test]
    fn fork_beats_traditional_on_latency() {
        let cfg = SystemConfig::fast_test();
        let base = run_workload(&cfg, Scheme::Traditional, wl(80));
        let fork = run_workload(&cfg, Scheme::ForkDefault, wl(80));
        assert!(
            fork.oram_latency_ns < base.oram_latency_ns,
            "fork {} vs traditional {}",
            fork.oram_latency_ns,
            base.oram_latency_ns
        );
        assert!(fork.avg_path_len < base.avg_path_len);
    }

    #[test]
    fn traced_run_counters_match_run_result() {
        use fp_trace::Counter;
        let cfg = SystemConfig::fast_test();
        let (r, t) = run_workload_traced(&cfg, Scheme::ForkDefault, wl(40), 256);
        // Two layers, two counters: every burst the datapath issued is
        // one the DRAM channels serviced.
        assert_eq!(t.counter(Counter::DramBlocksRead), r.dram_blocks_read);
        assert_eq!(t.counter(Counter::DramBlocksWritten), r.dram_blocks_written);
        assert_eq!(t.len(), 256, "ring kept the most recent events");
        assert!(fp_stats::json::validate(&t.to_json()).is_ok());
        // Every engine carries the same trace spine now — the traditional
        // baseline and even the insecure DRAM run report through it.
        let (rb, tb) = run_workload_traced(&cfg, Scheme::Traditional, wl(40), 256);
        assert_eq!(tb.counter(Counter::RequestsSubmitted), rb.llc_requests);
        assert_eq!(tb.counter(Counter::DramBlocksRead), rb.dram_blocks_read);
        assert_eq!(
            tb.counter(Counter::DramBlocksWritten),
            rb.dram_blocks_written
        );
        assert!(fp_stats::json::validate(&tb.to_json()).is_ok());
        let (ri, ti) = run_workload_traced(&cfg, Scheme::Insecure, wl(40), 16);
        assert_eq!(ti.counter(Counter::RequestsSubmitted), ri.llc_requests);
        assert_eq!(ti.counter(Counter::RequestsCompleted), ri.llc_requests);
        assert!(ti.counter(Counter::DramActs) > 0);
    }

    #[test]
    fn fork_reduces_energy() {
        let cfg = SystemConfig::fast_test();
        let base = run_workload(&cfg, Scheme::Traditional, wl(80));
        let fork = run_workload(&cfg, Scheme::ForkDefault, wl(80));
        assert!(
            fork.energy.total_pj() < base.energy.total_pj(),
            "fork {} vs traditional {}",
            fork.energy.total_pj(),
            base.energy.total_pj()
        );
    }

    #[test]
    fn identical_streams_across_schemes() {
        // The same seed must produce the same issued request count.
        let cfg = SystemConfig::fast_test();
        let a = run_workload(&cfg, Scheme::Insecure, wl(50));
        let b = run_workload(&cfg, Scheme::ForkDefault, wl(50));
        assert_eq!(a.llc_requests, b.llc_requests);
    }

    #[test]
    #[should_panic(expected = "exceeds ORAM capacity")]
    fn oversized_workload_is_rejected() {
        let cfg = SystemConfig::fast_test();
        let mix = mixes::all()[2].clone(); // HG mix: multi-GB footprint
        let wl = MultiCoreWorkload::from_mix(&mix, 10, 1);
        let _ = run_workload(&cfg, Scheme::ForkDefault, wl);
    }
}
