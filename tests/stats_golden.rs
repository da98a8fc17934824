//! Golden statistics records: the guard against a wrong view mapping.
//!
//! `OramStats` and `DramStats` are by-value views assembled from the
//! fp-trace counters. This test drives every registry scheme the
//! benchmark and the figures use (plus one traditional run with a
//! one-block stash, so background evictions fire) through a fixed-seed
//! 2 000-request mix and holds the *entire* records against literals
//! captured at the last commit that still accumulated each field by hand
//! (81b6ec7, where `OramStats` also had an always-zero `created_blocks`).
//! Any field the view derives differently shows up here as a diff.

use fork_path_oram::core::engine::by_name;
use fork_path_oram::core::{NewRequest, NoFeedback};
use fork_path_oram::crypto::Xoshiro256;
use fork_path_oram::dram::{DramConfig, DramStats, DramSystem};
use fork_path_oram::path_oram::{Op, OramStats};
use fork_path_oram::sim::SystemConfig;

struct Golden {
    scheme: &'static str,
    stash_capacity: usize,
    stash_high_water: usize,
    oram: OramStats,
    dram: DramStats,
}

/// Bursty arrivals (a third back to back, occasional 20-100 us idle gaps
/// that reset merging and skip refreshes) over a hot set, a stride and
/// uniform addresses, 30 % writes; pumped to idle every 16 submissions so
/// same-address requests meet in the queues (forwarding, cancellation).
fn run(scheme: &str, stash_capacity: usize) -> (OramStats, DramStats, usize) {
    let mut cfg = SystemConfig::fast_test().oram;
    cfg.stash_capacity = stash_capacity;
    let (blocks, block_bytes) = (cfg.data_blocks, cfg.block_bytes);
    let dram = DramSystem::new(DramConfig::ddr3_1600(2));
    let mut engine = by_name(scheme)
        .expect("registry scheme")
        .build(cfg, dram, 0x601D);
    let mut rng = Xoshiro256::new(0x601D_5EED);
    let mut t = 0u64;
    for i in 0..2_000u64 {
        t += match rng.next_below(16) {
            0 => 20_000_000 + rng.next_below(80_000_000),
            1..=5 => 0,
            _ => rng.next_below(400_000),
        };
        let addr = match rng.next_below(4) {
            0 => rng.next_below(8),
            1 => (i * 31) % blocks,
            _ => rng.next_below(blocks),
        };
        let write = rng.next_below(10) < 3;
        engine
            .submit(NewRequest {
                addr,
                op: if write { Op::Write } else { Op::Read },
                data: if write {
                    vec![i as u8; block_bytes]
                } else {
                    Vec::new()
                },
                arrival_ps: t,
                tag: i,
            })
            .unwrap();
        if i % 16 == 15 {
            while engine.process_one(&mut NoFeedback).unwrap() {}
        }
    }
    assert_eq!(engine.run_to_idle().unwrap().len(), 2_000);
    (
        engine.stats(),
        engine.dram().stats(),
        engine.stash_high_water(),
    )
}

#[test]
fn every_scheme_reproduces_the_recorded_stats() {
    for g in golden() {
        let (oram, dram, high_water) = run(g.scheme, g.stash_capacity);
        let case = format!("{} (stash capacity {})", g.scheme, g.stash_capacity);
        assert_eq!(oram, g.oram, "{case}");
        assert_eq!(dram, g.dram, "{case}");
        assert_eq!(high_water, g.stash_high_water, "{case}");
    }
}

fn golden() -> Vec<Golden> {
    vec![
        Golden {
            scheme: "insecure",
            stash_capacity: 200,
            stash_high_water: 0,
            oram: OramStats {
                completed_requests: 2000,
                oram_accesses: 2000,
                real_accesses: 2000,
                dummy_accesses: 0,
                dummies_replaced: 0,
                buckets_read: 2000,
                buckets_written: 2000,
                dram_blocks_read: 1411,
                dram_blocks_written: 589,
                cache_hits: 0,
                cache_misses: 0,
                sum_latency_ps: 94_121_253,
                stash_hits: 0,
                finish_time_ps: 7_340_482_661,
                access_busy_ps: 94_121_253,
                stash_size_sum: 0,
                stash_samples: 0,
                sched_ready_reals: 0,
                sched_rounds: 0,
            },
            dram: DramStats {
                reads: 1411,
                writes: 589,
                activations: 1358,
                precharges: 1342,
                row_hits: 642,
                row_misses: 1358,
                act_energy_pj: 33_950_000,
                read_energy_pj: 8_466_000,
                write_energy_pj: 3_828_500,
                refreshes: 54,
                refreshes_skipped: 1828,
                ref_energy_pj: 3_564_000,
            },
        },
        Golden {
            scheme: "traditional",
            stash_capacity: 200,
            stash_high_water: 33,
            oram: OramStats {
                completed_requests: 2000,
                oram_accesses: 6000,
                real_accesses: 6000,
                dummy_accesses: 0,
                dummies_replaced: 0,
                buckets_read: 96_000,
                buckets_written: 96_000,
                dram_blocks_read: 384_000,
                dram_blocks_written: 384_000,
                cache_hits: 0,
                cache_misses: 96_000,
                sum_latency_ps: 160_879_350_676,
                stash_hits: 1,
                finish_time_ps: 7_397_173_750,
                access_busy_ps: 4_807_613_273,
                stash_size_sum: 75,
                stash_samples: 6000,
                sched_ready_reals: 0,
                sched_rounds: 0,
            },
            dram: DramStats {
                reads: 384_000,
                writes: 384_000,
                activations: 27_571,
                precharges: 27_555,
                row_hits: 740_429,
                row_misses: 27_571,
                act_energy_pj: 689_275_000,
                read_energy_pj: 2_304_000_000,
                write_energy_pj: 2_496_000_000,
                refreshes: 652,
                refreshes_skipped: 1244,
                ref_energy_pj: 43_032_000,
            },
        },
        Golden {
            scheme: "traditional+treetop",
            stash_capacity: 200,
            stash_high_water: 33,
            oram: OramStats {
                completed_requests: 2000,
                oram_accesses: 6000,
                real_accesses: 6000,
                dummy_accesses: 0,
                dummies_replaced: 0,
                buckets_read: 96_000,
                buckets_written: 96_000,
                dram_blocks_read: 96_000,
                dram_blocks_written: 96_000,
                cache_hits: 72_000,
                cache_misses: 24_000,
                sum_latency_ps: 23_619_533_570,
                stash_hits: 1,
                finish_time_ps: 7_357_676_250,
                access_busy_ps: 1_640_789_829,
                stash_size_sum: 75,
                stash_samples: 6000,
                sched_ready_reals: 0,
                sched_rounds: 0,
            },
            dram: DramStats {
                reads: 96_000,
                writes: 96_000,
                activations: 15_874,
                precharges: 15_858,
                row_hits: 176_126,
                row_misses: 15_874,
                act_energy_pj: 396_850_000,
                read_energy_pj: 576_000_000,
                write_energy_pj: 624_000_000,
                refreshes: 257,
                refreshes_skipped: 1629,
                ref_energy_pj: 16_962_000,
            },
        },
        Golden {
            scheme: "fork",
            stash_capacity: 200,
            stash_high_water: 32,
            oram: OramStats {
                completed_requests: 1999,
                oram_accesses: 5011,
                real_accesses: 4882,
                dummy_accesses: 129,
                dummies_replaced: 12,
                buckets_read: 61_464,
                buckets_written: 61_464,
                dram_blocks_read: 245_856,
                dram_blocks_written: 245_856,
                cache_hits: 0,
                cache_misses: 61_464,
                sum_latency_ps: 60_711_993_154,
                stash_hits: 1040,
                finish_time_ps: 7_375_696_250,
                access_busy_ps: 3_203_786_146,
                stash_size_sum: 38_086,
                stash_samples: 5011,
                sched_ready_reals: 32_937,
                sched_rounds: 5011,
            },
            dram: DramStats {
                reads: 245_856,
                writes: 245_856,
                activations: 21_514,
                precharges: 21_498,
                row_hits: 470_198,
                row_misses: 21_514,
                act_energy_pj: 537_850_000,
                read_energy_pj: 1_475_136_000,
                write_energy_pj: 1_598_064_000,
                refreshes: 441,
                refreshes_skipped: 1449,
                ref_energy_pj: 29_106_000,
            },
        },
        Golden {
            scheme: "fork+mac",
            stash_capacity: 200,
            stash_high_water: 29,
            oram: OramStats {
                completed_requests: 1999,
                oram_accesses: 5082,
                real_accesses: 4892,
                dummy_accesses: 190,
                dummies_replaced: 10,
                buckets_read: 62_815,
                buckets_written: 62_815,
                dram_blocks_read: 112_376,
                dram_blocks_written: 112_376,
                cache_hits: 34_721,
                cache_misses: 28_094,
                sum_latency_ps: 25_293_696_916,
                stash_hits: 1030,
                finish_time_ps: 7_358_231_250,
                access_busy_ps: 1_745_663_379,
                stash_size_sum: 35_793,
                stash_samples: 5082,
                sched_ready_reals: 30_399,
                sched_rounds: 5082,
            },
            dram: DramStats {
                reads: 112_376,
                writes: 112_376,
                activations: 14_451,
                precharges: 14_435,
                row_hits: 210_301,
                row_misses: 14_451,
                act_energy_pj: 361_275_000,
                read_energy_pj: 674_256_000,
                write_energy_pj: 730_444_000,
                refreshes: 252,
                refreshes_skipped: 1634,
                ref_energy_pj: 16_632_000,
            },
        },
        Golden {
            scheme: "traditional",
            stash_capacity: 1,
            stash_high_water: 33,
            oram: OramStats {
                completed_requests: 2000,
                oram_accesses: 6012,
                real_accesses: 6000,
                dummy_accesses: 12,
                dummies_replaced: 0,
                buckets_read: 96_192,
                buckets_written: 96_192,
                dram_blocks_read: 384_768,
                dram_blocks_written: 384_768,
                cache_hits: 0,
                cache_misses: 96_192,
                sum_latency_ps: 161_479_573_035,
                stash_hits: 0,
                finish_time_ps: 7_396_825_000,
                access_busy_ps: 4_812_438_342,
                stash_size_sum: 72,
                stash_samples: 6000,
                sched_ready_reals: 0,
                sched_rounds: 0,
            },
            dram: DramStats {
                reads: 384_768,
                writes: 384_768,
                activations: 27_583,
                precharges: 27_567,
                row_hits: 741_953,
                row_misses: 27_583,
                act_energy_pj: 689_575_000,
                read_energy_pj: 2_308_608_000,
                write_energy_pj: 2_500_992_000,
                refreshes: 648,
                refreshes_skipped: 1248,
                ref_energy_pj: 42_768_000,
            },
        },
    ]
}
