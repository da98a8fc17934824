//! End-to-end tests of the [`ForkPathController`] facade, exercising all
//! four pipeline stages through the public API only.

use fp_core::{
    BaselineController, CacheChoice, ForkConfig, ForkPathController, NewRequest, OramEngine,
    ReactiveSource,
};
use fp_dram::{DramConfig, DramSystem};
use fp_path_oram::{Completion, OramConfig};

fn dram() -> DramSystem {
    DramSystem::new(DramConfig::ddr3_1600(2))
}

fn fork(cfg: ForkConfig) -> ForkPathController {
    ForkPathController::new(OramConfig::small_test(), cfg, dram(), 11)
}

#[test]
fn write_then_read_roundtrips() {
    let mut ctl = fork(ForkConfig::default());
    ctl.submit(NewRequest::write(77, vec![0xEE; 16], 0))
        .unwrap();
    let _ = ctl.run_to_idle().unwrap();
    ctl.submit(NewRequest::read(77, ctl.clock_ps())).unwrap();
    let done = ctl.run_to_idle().unwrap();
    let read = done.iter().find(|c| c.addr == 77).unwrap();
    assert_eq!(read.data, vec![0xEE; 16]);
    ctl.state().check_invariants().unwrap();
}

#[test]
fn many_interleaved_requests_stay_consistent() {
    let mut ctl = fork(ForkConfig::default());
    // Writes to 32 addresses, then reads, submitted in bulk so
    // scheduling reorders aggressively.
    for a in 0..32u64 {
        ctl.submit(NewRequest::write(a, vec![a as u8; 16], 0))
            .unwrap();
    }
    let _ = ctl.run_to_idle().unwrap();
    for a in 0..32u64 {
        ctl.submit(NewRequest::read(a, ctl.clock_ps())).unwrap();
    }
    let done = ctl.run_to_idle().unwrap();
    for c in done {
        assert_eq!(c.data, vec![c.addr as u8; 16], "addr {}", c.addr);
    }
    ctl.state().check_invariants().unwrap();
}

#[test]
fn merging_shortens_paths_vs_baseline() {
    let mut base = BaselineController::new(OramConfig::small_test(), dram(), 11);
    let mut ctl = fork(ForkConfig::default());
    for a in 0..64u64 {
        base.submit(NewRequest::read(a, 0)).unwrap();
        ctl.submit(NewRequest::read(a, 0)).unwrap();
    }
    base.run_to_idle().unwrap();
    ctl.run_to_idle().unwrap();
    let full = base.stats().avg_path_len();
    let merged = ctl.stats().avg_path_len();
    assert_eq!(full, 10.0, "baseline reads/writes complete paths");
    assert!(merged < full - 1.0, "merged {merged} vs full {full}");
}

#[test]
fn bigger_queue_shortens_paths_further() {
    let run = |m: usize| {
        let cfg = ForkConfig {
            label_queue_size: m,
            ..ForkConfig::default()
        };
        let mut ctl = fork(cfg);
        for a in 0..200u64 {
            ctl.submit(NewRequest::read(a % 96, 0)).unwrap();
        }
        ctl.run_to_idle().unwrap();
        ctl.stats().avg_path_len()
    };
    let q1 = run(1);
    let q16 = run(16);
    assert!(q16 < q1 - 0.5, "queue 16 ({q16}) beats queue 1 ({q1})");
}

#[test]
fn sparse_arrivals_insert_dummies() {
    let mut ctl = fork(ForkConfig::default());
    // Requests arriving far apart: each refill needs a pending request,
    // so dummies are materialized.
    let gap = 10_000_000; // 10 us
    for a in 0..8u64 {
        ctl.submit(NewRequest::read(a, a * gap)).unwrap();
    }
    ctl.run_to_idle().unwrap();
    assert!(
        ctl.stats().dummy_accesses > 0,
        "sparse arrivals force dummies"
    );
}

#[test]
fn dense_arrivals_avoid_dummies() {
    let mut ctl = fork(ForkConfig::default());
    for a in 0..64u64 {
        ctl.submit(NewRequest::read(a, 0)).unwrap();
    }
    ctl.run_to_idle().unwrap();
    let frac = ctl.stats().dummy_fraction();
    assert!(frac < 0.2, "dense queue rarely needs dummies: {frac}");
}

#[test]
fn replacement_rescues_dummies_in_closed_loop() {
    struct Chaser {
        next_addr: u64,
        remaining: u32,
        gap_ps: u64,
    }
    impl ReactiveSource for Chaser {
        fn on_complete(&mut self, c: &Completion) -> Vec<NewRequest> {
            if self.remaining == 0 {
                return Vec::new();
            }
            self.remaining -= 1;
            self.next_addr += 1;
            vec![NewRequest::read(self.next_addr, c.done_ps + self.gap_ps)]
        }
    }
    // A dependent chain of requests, each arriving shortly after the
    // previous completes — inside the refill window.
    let mut ctl = fork(ForkConfig::default());
    let mut src = Chaser {
        next_addr: 100,
        remaining: 60,
        gap_ps: 30_000,
    };
    ctl.submit(NewRequest::read(100, 0)).unwrap();
    while ctl.process_one(&mut src).unwrap() {}
    let s = ctl.stats();
    assert!(
        s.dummies_replaced > 0,
        "chained arrivals should replace pending dummies: {s:?}"
    );
    ctl.state().check_invariants().unwrap();
}

#[test]
fn replacing_flag_controls_replacement() {
    let run = |replacing: bool| {
        let cfg = ForkConfig {
            replacing,
            ..ForkConfig::default()
        };
        let mut ctl = fork(cfg);
        // Moderate gaps: some arrivals land inside refill windows.
        for a in 0..48u64 {
            ctl.submit(NewRequest::read(a, a * 400_000)).unwrap();
        }
        ctl.run_to_idle().unwrap();
        (ctl.stats().dummies_replaced, ctl.stats().dummy_accesses)
    };
    let (replaced_on, _) = run(true);
    let (replaced_off, dummies_off) = run(false);
    assert!(
        replaced_on > 0,
        "staggered arrivals should replace some dummies"
    );
    assert_eq!(replaced_off, 0, "flag off must never replace");
    assert!(
        dummies_off > 0,
        "without replacing, pending dummies execute"
    );
}

#[test]
fn merging_off_reads_full_paths() {
    let cfg = ForkConfig {
        merging: false,
        ..ForkConfig::default()
    };
    let mut ctl = fork(cfg);
    for a in 0..16u64 {
        ctl.submit(NewRequest::read(a, 0)).unwrap();
    }
    ctl.run_to_idle().unwrap();
    assert_eq!(ctl.stats().avg_path_len(), 10.0);

    // Staggered arrivals land inside refills, so pending dummies get
    // replaced mid-stream (replacing stays on). The next read is still a
    // full path, so the retargeted refill must still commit every level.
    let mut ctl = fork(cfg);
    for a in 0..48u64 {
        ctl.submit(NewRequest::read(a, a * 400_000)).unwrap();
    }
    ctl.run_to_idle().unwrap();
    assert!(ctl.stats().dummies_replaced > 0, "replacement fired");
    assert_eq!(ctl.stats().avg_path_len(), 10.0);
}

#[test]
fn mac_reduces_dram_traffic() {
    let run = |cache: CacheChoice| {
        let cfg = ForkConfig {
            cache,
            mac_bypass_levels: Some(3),
            ..ForkConfig::default()
        };
        let mut ctl = fork(cfg);
        for round in 0..4u64 {
            for a in 0..48u64 {
                ctl.submit(NewRequest::read(a, round)).unwrap();
            }
        }
        ctl.run_to_idle().unwrap();
        (
            ctl.stats().dram_blocks_read,
            ctl.stats().dram_blocks_written,
        )
    };
    let (plain_r, plain_w) = run(CacheChoice::None);
    let (mac_r, mac_w) = run(CacheChoice::MergingAware { bytes: 8 << 10 });
    assert!(mac_r < plain_r, "MAC cuts reads: {mac_r} vs {plain_r}");
    assert!(mac_w < plain_w, "MAC cuts writes: {mac_w} vs {plain_w}");
}

#[test]
fn label_trace_is_roughly_uniform() {
    let mut ctl = fork(ForkConfig::default());
    ctl.enable_label_trace();
    for a in 0..256u64 {
        ctl.submit(NewRequest::read(a % 100, 0)).unwrap();
    }
    ctl.run_to_idle().unwrap();
    let trace = ctl.label_trace().unwrap().to_vec();
    assert_eq!(trace.len() as u64, ctl.stats().oram_accesses);
    assert!(
        trace.len() > 100,
        "expect a decent sample, got {}",
        trace.len()
    );
    let leaves = ctl.state().config().leaf_count();
    // Coarse uniformity: split leaf space into 8 octants.
    let mut counts = [0u32; 8];
    for &l in &trace {
        counts[(l * 8 / leaves) as usize] += 1;
    }
    let expected = trace.len() as f64 / 8.0;
    let chi2: f64 = counts
        .iter()
        .map(|&c| {
            let d = c as f64 - expected;
            d * d / expected
        })
        .sum();
    // 7 dof, 99.9th percentile ~ 24.3.
    assert!(chi2 < 24.3, "label octants skewed: chi2={chi2} {counts:?}");
}

#[test]
fn hazard_forwarding_and_cancellation_complete_requests() {
    // Queue of one plus a blocker keeps w1 resident in the address
    // queue, exercising the §4 hazard rules.
    let cfg = ForkConfig {
        label_queue_size: 1,
        ..ForkConfig::default()
    };
    let mut ctl = fork(cfg);
    let _blocker = ctl.submit(NewRequest::read(900, 0)).unwrap();
    let w1 = ctl.submit(NewRequest::write(5, vec![1; 16], 0)).unwrap();
    let w2 = ctl.submit(NewRequest::write(5, vec![2; 16], 10)).unwrap();
    let r = ctl.submit(NewRequest::read(5, 20)).unwrap();
    let done = ctl.run_to_idle().unwrap();
    let by_id = |id: u64| done.iter().find(|c| c.id == id).unwrap();
    // w1 cancelled by w2 (Write-before-Write): acknowledged with no data.
    assert!(by_id(w1).data.is_empty());
    // r forwarded from w2 (Write-before-Read).
    assert_eq!(by_id(r).data, vec![2; 16]);
    let _ = by_id(w2);
    // A later read (after the write completed) sees the stored value.
    ctl.submit(NewRequest::read(5, ctl.clock_ps())).unwrap();
    let done = ctl.run_to_idle().unwrap();
    assert_eq!(done[0].data, vec![2; 16]);
}

#[test]
fn stash_fast_path_completions_survive_the_final_drain() {
    // Same-address reads serialize in the address queue; when the first
    // access completes, its block sits in the stash, so each follower is
    // served by pump()'s fast path without an access of its own. Those
    // completions are produced *between* feedback flushes — if the
    // controller then goes idle, a drain must still surface every one of
    // them (they used to strand behind the feedback cursor).
    let mut ctl = fork(ForkConfig::default());
    let mut ids = Vec::new();
    for i in 0..4u64 {
        ids.push(ctl.submit(NewRequest::read(42, i)).unwrap());
    }
    let done = ctl.run_to_idle().unwrap();
    assert!(!ctl.has_pending_work());
    let mut done_ids: Vec<u64> = done.iter().map(|c| c.id).collect();
    done_ids.sort_unstable();
    assert_eq!(
        done_ids, ids,
        "every same-address read must surface exactly once"
    );
    assert_eq!(ctl.drain_completions().len(), 0, "nothing may linger");
    ctl.state().check_invariants().unwrap();
}

#[test]
fn pending_work_covers_undrained_completions() {
    // External drivers (the serving layer's shard workers) loop on
    // `has_pending_work` and drain after each `process_one`. When the
    // *final* process_one executes an access, its completion is pushed
    // but not yet routed through feedback, so `drain_completions` cannot
    // return it yet. `has_pending_work` must report true for that state,
    // or the driver exits one completion short (requests silently lost
    // at the tail of a trace replay).
    use fp_core::NoFeedback;
    let mut ctl = fork(ForkConfig::default());
    let mut ids = Vec::new();
    for i in 0..6u64 {
        ids.push(ctl.submit(NewRequest::read(i * 7, i * 1_000)).unwrap());
    }
    let mut done = Vec::new();
    while ctl.has_pending_work() {
        let _ = ctl.process_one(&mut NoFeedback).unwrap();
        done.extend(ctl.drain_completions());
    }
    let mut done_ids: Vec<u64> = done.iter().map(|c| c.id).collect();
    done_ids.sort_unstable();
    assert_eq!(
        done_ids, ids,
        "driver-style loop must surface every request"
    );
    assert_eq!(ctl.drain_completions().len(), 0, "nothing may linger");
}

#[test]
fn idle_gap_resets_merging_cleanly() {
    let mut ctl = fork(ForkConfig::default());
    ctl.submit(NewRequest::write(1, vec![7; 16], 0)).unwrap();
    let _ = ctl.run_to_idle().unwrap();
    // Long idle; next burst must still behave correctly.
    let later = ctl.clock_ps() + 1_000_000_000;
    ctl.submit(NewRequest::read(1, later)).unwrap();
    let done = ctl.run_to_idle().unwrap();
    assert_eq!(done[0].data, vec![7; 16]);
    ctl.state().check_invariants().unwrap();
}

#[test]
fn stash_stays_bounded() {
    let mut ctl = fork(ForkConfig::default());
    for i in 0..400u64 {
        let req = if i % 3 == 0 {
            NewRequest::write(i % 80, vec![3; 16], 0)
        } else {
            NewRequest::read(i % 80, 0)
        };
        ctl.submit(req).unwrap();
    }
    ctl.run_to_idle().unwrap();
    let hw = ctl.state().stash().high_water();
    assert!(hw < 200, "stash high water {hw}");
    ctl.state().check_invariants().unwrap();
}

#[test]
fn submit_batch_matches_sequential_submits() {
    // The batch handoff (one pump after N enqueues) must complete the same
    // requests with the same data as N pumped submits; ids stay in order.
    let run = |batched: bool| {
        let mut ctl = fork(ForkConfig::default());
        for a in 0..16u64 {
            ctl.submit(NewRequest::write(a, vec![a as u8; 16], 0))
                .unwrap();
        }
        ctl.run_to_idle().unwrap();
        let t = ctl.clock_ps();
        if batched {
            let batch: Vec<NewRequest> = (0..16u64)
                .map(|a| NewRequest {
                    tag: a,
                    ..NewRequest::read(a, t)
                })
                .collect();
            let ids = ctl.submit_batch(batch).unwrap();
            assert_eq!(ids.len(), 16);
            assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids in submit order");
        } else {
            for a in 0..16u64 {
                ctl.submit(NewRequest::read(a, t)).unwrap();
            }
        }
        let mut done: Vec<(u64, Vec<u8>)> = ctl
            .run_to_idle()
            .unwrap()
            .into_iter()
            .map(|c| (c.addr, c.data))
            .collect();
        done.sort();
        done
    };
    let batched = run(true);
    assert_eq!(batched.len(), 16);
    for (a, data) in &batched {
        assert_eq!(data[0], *a as u8);
    }
    assert_eq!(batched, run(false));
}

#[test]
fn invalid_config_surfaces_typed_error() {
    use fp_core::ControllerError;
    let cfg = ForkConfig {
        label_queue_size: 0,
        ..ForkConfig::default()
    };
    let err = ForkPathController::try_new(OramConfig::small_test(), cfg, dram(), 1).unwrap_err();
    assert!(matches!(err, ControllerError::InvalidConfig(_)), "{err}");
}

mod plb_tests {
    use super::*;

    #[test]
    fn plb_cuts_posmap_accesses() {
        let run = |plb_blocks: usize| {
            let cfg = OramConfig::small_test();
            let fork_cfg = ForkConfig {
                plb_blocks,
                ..ForkConfig::default()
            };
            let dram = DramSystem::new(DramConfig::ddr3_1600(2));
            let mut ctl = ForkPathController::new(cfg, fork_cfg, dram, 44);
            // Strided reads with posmap-block reuse.
            for round in 0..4u64 {
                for a in 0..64u64 {
                    ctl.submit(NewRequest::read(a, round)).unwrap();
                }
                ctl.run_to_idle().unwrap();
            }
            (
                ctl.stats().accesses_per_request(),
                ctl.state().stash().high_water(),
            )
        };
        let (without, _) = run(0);
        let (with, hw) = run(32);
        assert!(
            with < without,
            "PLB should cut accesses/request: {with:.2} vs {without:.2}"
        );
        assert!(hw < 200, "pinning must not blow up the stash: {hw}");
    }

    #[test]
    fn plb_preserves_correctness() {
        let cfg = OramConfig::small_test();
        let fork_cfg = ForkConfig {
            plb_blocks: 16,
            ..ForkConfig::default()
        };
        let dram = DramSystem::new(DramConfig::ddr3_1600(2));
        let mut ctl = ForkPathController::new(cfg, fork_cfg, dram, 45);
        for a in 0..80u64 {
            ctl.submit(NewRequest::write(a, vec![a as u8; 16], 0))
                .unwrap();
        }
        ctl.run_to_idle().unwrap();
        for a in 0..80u64 {
            ctl.submit(NewRequest::read(a, ctl.clock_ps())).unwrap();
        }
        for c in ctl.run_to_idle().unwrap() {
            assert_eq!(c.data[0], c.addr as u8);
        }
        ctl.state().check_invariants().unwrap();
    }
}

/// Six rounds of writes to four addresses under one posmap block, all
/// outstanding at once, then a read of each: every chain step shares the
/// posmap blocks and same-address writes serialize on their block, so the
/// reads see the last round.
#[test]
fn interleaved_same_address_writes_stay_in_order() {
    let mut ctl = fork(ForkConfig::default());
    for round in 0..6u8 {
        for a in 0..4u64 {
            ctl.submit(NewRequest::write(
                a,
                vec![round * 10 + a as u8; 16],
                ctl.clock_ps(),
            ))
            .unwrap();
        }
    }
    ctl.run_to_idle().unwrap();
    for a in 0..4u64 {
        ctl.submit(NewRequest::read(a, ctl.clock_ps())).unwrap();
    }
    for c in ctl.run_to_idle().unwrap() {
        assert_eq!(c.data[0], 50 + c.addr as u8);
    }
    ctl.state().check_invariants().unwrap();
}
