//! Cross-crate functional correctness: both controllers must behave as a
//! standard RAM against a reference model, under random operation storms,
//! recursion, scheduling reorders, hazards, and real encryption.

mod common;

use common::RamModel;
use fork_path_oram::core::engine::{by_name, Scheme};
use fork_path_oram::core::{BaselineController, ForkConfig, ForkPathController};
use fork_path_oram::core::{NewRequest, OramEngine, ReactiveSource};
use fork_path_oram::crypto::Xoshiro256;
use fork_path_oram::dram::{DramConfig, DramSystem};
use fork_path_oram::path_oram::{CipherMode, Completion, Op, OramConfig};

fn dram() -> DramSystem {
    DramSystem::new(DramConfig::ddr3_1600(2))
}

/// Submits `req` at the engine's clock and runs it to completion; returns
/// the data it read.
fn access_now(engine: &mut impl OramEngine, req: NewRequest) -> Vec<u8> {
    let req = NewRequest {
        arrival_ps: engine.clock_ps(),
        ..req
    };
    engine.submit(req).unwrap();
    let mut done = engine.run_to_idle().unwrap();
    done.pop().expect("one completion").data
}

/// Drives `ops` random operations through the fork controller, checking
/// reads against the plain-RAM model.
fn storm_fork(cfg: OramConfig, seed: u64, ops: usize, addr_space: u64) {
    let block = cfg.block_bytes;
    let mut ctl = ForkPathController::new(cfg, ForkConfig::default(), dram(), seed);
    let mut rng = Xoshiro256::new(seed ^ 0xABCD);
    let mut model = RamModel::new(block);

    for i in 0..ops {
        let addr = rng.next_below(addr_space);
        if rng.gen_bool(0.45) {
            let mut payload = vec![(i & 0xFF) as u8; block];
            payload[0] = addr as u8;
            model.write(addr, payload.clone());
            ctl.submit(NewRequest::write(addr, payload, ctl.clock_ps()))
                .unwrap();
        } else {
            let id = ctl.submit(NewRequest::read(addr, ctl.clock_ps())).unwrap();
            model.expect_read(id, addr);
        }
        // Occasionally let the controller drain, so both batched and
        // incremental processing paths are exercised.
        if rng.gen_bool(0.25) {
            for c in ctl.run_to_idle().unwrap() {
                model.check(c.id, c.addr, &c.data);
            }
        }
    }
    for c in ctl.run_to_idle().unwrap() {
        model.check(c.id, c.addr, &c.data);
    }
    assert!(model.all_checked(), "all reads completed");
    ctl.state().check_invariants().unwrap();
}

#[test]
fn fork_random_storm_small_config() {
    storm_fork(OramConfig::small_test(), 1, 600, 256);
}

#[test]
fn fork_random_storm_narrow_addresses_forces_hazards() {
    // 8 addresses: constant same-address traffic exercises forwarding,
    // cancellation, and same-block serialization.
    storm_fork(OramConfig::small_test(), 2, 400, 8);
}

#[test]
fn fork_random_storm_with_real_encryption() {
    let mut cfg = OramConfig::small_test();
    cfg.cipher_mode = CipherMode::Real;
    storm_fork(cfg, 3, 250, 128);
}

/// The closed loop of the parking stress: checks every read it gets back
/// against the plain-RAM model (reads keyed by tag) and answers each
/// completion with one new request, arriving 30 ns later — inside the
/// refill of the access that completed it, where dummy replacing looks for
/// it.
struct ParkingLoop {
    rng: Xoshiro256,
    model: RamModel,
    issued: u64,
    budget: u64,
    block_bytes: usize,
    data_blocks: u64,
}

impl ParkingLoop {
    /// The next request in program order: four in five to the sixteen
    /// addresses under one top-level posmap block (four level-one posmap
    /// blocks of four addresses each).
    fn next_request(&mut self, arrival_ps: u64) -> NewRequest {
        let addr = if self.rng.gen_bool(0.8) {
            self.rng.next_below(16)
        } else {
            self.rng.next_below(self.data_blocks)
        };
        let tag = self.issued;
        self.issued += 1;
        let (op, data) = if self.rng.gen_bool(0.4) {
            let mut payload = vec![tag as u8; self.block_bytes];
            payload[0] = addr as u8;
            self.model.write(addr, payload.clone());
            (Op::Write, payload)
        } else {
            self.model.expect_read(tag, addr);
            (Op::Read, Vec::new())
        };
        NewRequest {
            addr,
            op,
            data,
            arrival_ps,
            tag,
        }
    }
}

impl ReactiveSource for ParkingLoop {
    fn on_complete(&mut self, c: &Completion) -> Vec<NewRequest> {
        // A cancelled write's acknowledgement carries the tag of the write
        // that superseded it, never a read's.
        self.model.check(c.tag, c.addr, &c.data);
        if self.issued == self.budget {
            return Vec::new();
        }
        vec![self.next_request(c.done_ps + 30_000)]
    }
}

/// Parking-heavy closed loop, 32 requests outstanding throughout: most
/// chain steps park behind the owner of a shared posmap block or of the
/// same address (a write in flight), and every completion's follow-up lands in a refill window, where
/// it displaces a pending real of lower overlap (the queue never runs dry,
/// so no dummy is pending). Debug builds hold each skipped stalled step and
/// each refill's replacement bound against a fresh look (the
/// `debug_assert!`s of `FlightTable::retry_stalled` and
/// `ForkPathController::refill`).
#[test]
fn fork_parking_stress_with_32_outstanding_matches_reference() {
    for name in ["fork", "fork+mac"] {
        let fork_cfg = match by_name(name).unwrap() {
            Scheme::ForkDefault => ForkConfig::default(),
            Scheme::Fork(f) => f,
            other => panic!("{name} is not a fork scheme: {other:?}"),
        };
        let cfg = OramConfig::small_test();
        let mut source = ParkingLoop {
            rng: Xoshiro256::new(0x9A7E),
            model: RamModel::new(cfg.block_bytes),
            issued: 0,
            budget: 1500,
            block_bytes: cfg.block_bytes,
            data_blocks: cfg.data_blocks,
        };
        let mut ctl = ForkPathController::new(cfg, fork_cfg, dram(), 21);
        for _ in 0..32 {
            let r = source.next_request(0);
            ctl.submit(r).unwrap();
        }
        while ctl.process_one(&mut source).unwrap() {}
        assert_eq!(ctl.drain_completions().len() as u64, source.budget);
        assert!(source.model.all_checked(), "{name}: all reads completed");
        assert!(
            ctl.stats().stash_hits > 0,
            "{name}: steps completed on chip"
        );
        ctl.state().check_invariants().unwrap();
    }
}

#[test]
fn fork_random_storm_paper_geometry() {
    // The full 4 GB tree geometry (sparse): deep paths, 3 posmap levels.
    storm_fork(OramConfig::paper_default(4 << 30), 4, 150, 4096);
}

#[test]
fn baseline_random_storm_matches_reference() {
    let cfg = OramConfig::small_test();
    let block = cfg.block_bytes;
    let mut ctl = BaselineController::new(cfg, dram(), 9);
    let mut rng = Xoshiro256::new(77);
    let mut model = RamModel::new(block);
    for i in 0..500u64 {
        let addr = rng.next_below(200);
        if rng.gen_bool(0.5) {
            let payload = vec![(i & 0xFF) as u8; block];
            model.write(addr, payload.clone());
            access_now(&mut ctl, NewRequest::write(addr, payload, 0));
        } else {
            let got = access_now(&mut ctl, NewRequest::read(addr, 0));
            assert_eq!(got, model.read(addr), "addr {addr}");
        }
    }
    ctl.state().check_invariants().unwrap();
}

#[test]
fn fork_and_baseline_agree_on_final_state() {
    // The same operation sequence must produce the same program-visible
    // memory under both controllers.
    let ops: Vec<(u64, Option<u8>)> = {
        let mut rng = Xoshiro256::new(31);
        (0..300)
            .map(|_| {
                let addr = rng.next_below(64);
                let write = rng.gen_bool(0.5).then(|| rng.next_below(255) as u8);
                (addr, write)
            })
            .collect()
    };

    let cfg = OramConfig::small_test();
    let block = cfg.block_bytes;

    let mut base = BaselineController::new(cfg.clone(), dram(), 5);
    for &(addr, w) in &ops {
        let req = match w {
            Some(b) => NewRequest::write(addr, vec![b; block], 0),
            None => NewRequest::read(addr, 0),
        };
        access_now(&mut base, req);
    }

    let mut fork = ForkPathController::new(cfg, ForkConfig::default(), dram(), 6);
    for &(addr, w) in &ops {
        match w {
            Some(b) => fork
                .submit(NewRequest::write(addr, vec![b; block], fork.clock_ps()))
                .unwrap(),
            None => fork
                .submit(NewRequest::read(addr, fork.clock_ps()))
                .unwrap(),
        };
    }
    fork.run_to_idle().unwrap();

    for addr in 0..64u64 {
        let a = access_now(&mut base, NewRequest::read(addr, 0));
        let b = access_now(&mut fork, NewRequest::read(addr, 0));
        assert_eq!(a, b, "state diverged at address {addr}");
    }
}

#[test]
fn tiny_queue_and_huge_queue_both_correct() {
    for queue in [1usize, 128] {
        let cfg = OramConfig::small_test();
        let block = cfg.block_bytes;
        let fork_cfg = ForkConfig {
            label_queue_size: queue,
            ..ForkConfig::default()
        };
        let mut ctl = ForkPathController::new(cfg, fork_cfg, dram(), 8);
        for a in 0..40u64 {
            ctl.submit(NewRequest::write(a, vec![a as u8; block], 0))
                .unwrap();
        }
        ctl.run_to_idle().unwrap();
        for a in 0..40u64 {
            ctl.submit(NewRequest::read(a, ctl.clock_ps())).unwrap();
        }
        for c in ctl.run_to_idle().unwrap() {
            assert_eq!(c.data[0], c.addr as u8, "queue={queue}");
        }
        ctl.state().check_invariants().unwrap();
    }
}

#[test]
fn ablation_variants_remain_correct() {
    // Disabling each technique must never affect functional behaviour.
    for (merging, scheduling, replacing) in [
        (false, false, false),
        (true, false, false),
        (true, true, false),
        (true, true, true),
    ] {
        let cfg = OramConfig::small_test();
        let block = cfg.block_bytes;
        let fork_cfg = ForkConfig {
            merging,
            scheduling,
            replacing,
            ..ForkConfig::default()
        };
        let mut ctl = ForkPathController::new(cfg, fork_cfg, dram(), 10);
        for a in 0..32u64 {
            ctl.submit(NewRequest::write(a, vec![!(a as u8); block], 0))
                .unwrap();
        }
        ctl.run_to_idle().unwrap();
        for a in 0..32u64 {
            ctl.submit(NewRequest::read(a, ctl.clock_ps())).unwrap();
        }
        for c in ctl.run_to_idle().unwrap() {
            assert_eq!(
                c.data[0],
                !(c.addr as u8),
                "merging={merging} scheduling={scheduling} replacing={replacing}"
            );
        }
        ctl.state().check_invariants().unwrap();
    }
}

#[test]
fn caches_do_not_change_functional_results() {
    use fork_path_oram::core::CacheChoice;
    for cache in [
        CacheChoice::None,
        CacheChoice::Treetop { bytes: 8 << 10 },
        CacheChoice::MergingAware { bytes: 8 << 10 },
    ] {
        let cfg = OramConfig::small_test();
        let block = cfg.block_bytes;
        let fork_cfg = ForkConfig {
            cache,
            ..ForkConfig::default()
        };
        let mut ctl = ForkPathController::new(cfg, fork_cfg, dram(), 12);
        for round in 0..3 {
            for a in 0..48u64 {
                ctl.submit(NewRequest::write(
                    a,
                    vec![a as u8 ^ round; block],
                    ctl.clock_ps(),
                ))
                .unwrap();
            }
            ctl.run_to_idle().unwrap();
            for a in 0..48u64 {
                ctl.submit(NewRequest::read(a, ctl.clock_ps())).unwrap();
            }
            for c in ctl.run_to_idle().unwrap() {
                assert_eq!(c.data[0], c.addr as u8 ^ round, "{cache:?}");
            }
        }
        ctl.state().check_invariants().unwrap();
    }
}
