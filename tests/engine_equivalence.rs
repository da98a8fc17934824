//! Old-vs-new access API equivalence for the baseline Path ORAM
//! controller.
//!
//! The baseline grew the same incremental submit/pump surface the Fork
//! Path controller has (and both now implement `fp_core::OramEngine`).
//! These tests pin the refactor: a request stream driven through the
//! historical synchronous pattern (`submit` + `run_to_idle` per request,
//! or `access_sync`) and the same stream driven through the incremental
//! engine API — submitted in randomized chunks, pumped step by step,
//! drained mid-flight — must produce bit-identical completions,
//! statistics, and stash high-water marks, with and without a treetop
//! cache. And the two cipher modes are one datapath: every engine with a
//! tree runs the same with it sealed as in the clear.

use fork_path_oram::core::engine::registry;
use fork_path_oram::core::{
    ForkConfig, ForkPathController, NewRequest, NoFeedback, OramEngine, Scheme,
};
use fork_path_oram::crypto::Xoshiro256;
use fork_path_oram::dram::{DramConfig, DramSystem};
use fork_path_oram::path_oram::{
    BaselineController, Block, CipherMode, Completion, Op, OramConfig, OramState,
};
use fork_path_oram::propcheck::{run_cases, Gen};
use fork_path_oram::trace::{Counter, TraceEvent};

fn controller(treetop: bool, seed: u64) -> BaselineController {
    let cfg = OramConfig::small_test();
    let dram = DramSystem::new(DramConfig::ddr3_1600(2));
    if treetop {
        BaselineController::with_treetop(cfg, dram, seed, 16 << 10)
    } else {
        BaselineController::new(cfg, dram, seed)
    }
}

struct Req {
    addr: u64,
    op: Op,
    data: Vec<u8>,
    arrival_ps: u64,
}

/// A randomized request stream with non-decreasing arrivals over a small
/// address space (so stash pressure and path reuse both occur).
fn gen_stream(g: &mut Gen, n: usize) -> Vec<Req> {
    let mut t = 0u64;
    (0..n)
        .map(|_| {
            t += g.below(2_000_000);
            let addr = g.below(256);
            let (op, data) = if g.below(3) == 0 {
                (Op::Write, vec![(addr % 251) as u8; 16])
            } else {
                (Op::Read, Vec::new())
            };
            Req {
                addr,
                op,
                data,
                arrival_ps: t,
            }
        })
        .collect()
}

/// Same seed, same stream: the old one-request-at-a-time sync pattern and
/// the new incremental API (random chunked submissions, stepwise pumping,
/// mid-flight drains) are indistinguishable in every observable output.
#[test]
fn sync_and_incremental_drives_are_equivalent() {
    run_cases("baseline-sync-vs-incremental", 6, |g: &mut Gen| {
        let treetop = g.below(2) == 1;
        let seed = g.below(u64::MAX);
        let stream = gen_stream(g, 24);

        // Drive A: the historical synchronous pattern.
        let mut a = controller(treetop, seed);
        let mut a_done = Vec::new();
        for r in &stream {
            a.submit(r.addr, r.op, r.data.clone(), r.arrival_ps);
            a_done.extend(a.run_to_idle());
        }

        // Drive B: the same stream through the engine trait, in random
        // chunks with interleaved pumping and draining.
        let mut b = controller(treetop, seed);
        let mut b_done = Vec::new();
        let mut next = 0usize;
        while next < stream.len() {
            let chunk = 1 + g.below(5) as usize;
            for r in stream.iter().skip(next).take(chunk) {
                OramEngine::submit(
                    &mut b,
                    NewRequest {
                        addr: r.addr,
                        op: r.op,
                        data: r.data.clone(),
                        arrival_ps: r.arrival_ps,
                        tag: 0,
                    },
                )
                .expect("baseline submit is infallible");
            }
            next += chunk;
            for _ in 0..g.below(4) {
                OramEngine::process_one(&mut b, &mut NoFeedback)
                    .expect("baseline pump is infallible");
            }
            if g.below(2) == 0 {
                b_done.extend(OramEngine::drain_completions(&mut b));
            }
        }
        b_done.extend(OramEngine::run_to_idle(&mut b).expect("baseline run_to_idle"));

        assert_eq!(
            a_done, b_done,
            "treetop={treetop} seed={seed:#x}: completion streams diverged"
        );
        assert_eq!(a.stats(), b.stats(), "treetop={treetop} seed={seed:#x}");
        assert_eq!(
            a.state().stash().high_water(),
            b.state().stash().high_water(),
            "treetop={treetop} seed={seed:#x}"
        );
        assert_eq!(a.clock_ps(), b.clock_ps());
    });
}

/// `access_sync` is a thin wrapper: each call equals one trait-level
/// submit at the current clock plus a run to idle.
#[test]
fn access_sync_matches_incremental_single_steps() {
    for treetop in [false, true] {
        let mut a = controller(treetop, 42);
        let mut b = controller(treetop, 42);
        for i in 0..16u64 {
            let addr = (i * 37) % 64;
            let (op, data) = if i % 3 == 0 {
                (Op::Write, vec![i as u8; 16])
            } else {
                (Op::Read, Vec::new())
            };
            let da = a.access_sync(addr, op, data.clone());
            let arrival_ps = b.clock_ps();
            let id = OramEngine::submit(
                &mut b,
                NewRequest {
                    addr,
                    op,
                    data,
                    arrival_ps,
                    tag: 0,
                },
            )
            .expect("baseline submit is infallible");
            let done = OramEngine::run_to_idle(&mut b).expect("baseline run_to_idle");
            assert_eq!(done.len(), 1, "treetop={treetop}");
            assert_eq!(done[0].id, id);
            assert_eq!(done[0].data, da, "treetop={treetop} i={i}");
        }
        assert_eq!(a.stats(), b.stats(), "treetop={treetop}");
        assert_eq!(
            a.state().stash().high_water(),
            b.state().stash().high_water()
        );
    }
}

/// What one run shows from outside the engine and of its tree.
#[derive(Debug, PartialEq)]
struct Observed {
    completions: Vec<Completion>,
    counters: [u64; Counter::COUNT],
    /// The whole event ring: every stash push and evict, in order.
    events: Vec<TraceEvent>,
    stash_high_water: usize,
    clock_ps: u64,
    /// `(node, real blocks)` of every stored bucket, by node id.
    tree: Vec<(u64, Vec<Block>)>,
}

const CIPHER_SEED: u64 = 0xC1F3_E2D0;

/// One seeded workload on `engine`: 240 reads and writes over all 1024
/// blocks of `small_test` (so every access walks two posmap levels),
/// arriving every 200 ns on average — faster than an access completes, so
/// the label queue fills and the Fork Path schemes merge refills.
fn drive<E: OramEngine>(mut engine: E, state: fn(&E) -> &OramState) -> Observed {
    engine.set_trace_capacity(1 << 17);
    let mut rng = Xoshiro256::new(CIPHER_SEED);
    let mut arrival_ps = 0;
    for tag in 0..240u64 {
        arrival_ps += rng.next_below(400_000);
        let addr = rng.next_below(1024);
        let (op, data) = if rng.next_below(3) == 0 {
            (Op::Write, vec![tag as u8; 16])
        } else {
            (Op::Read, Vec::new())
        };
        let req = NewRequest {
            addr,
            op,
            data,
            arrival_ps,
            tag,
        };
        engine.submit(req).expect("submit");
    }
    let completions = engine.run_to_idle().expect("run_to_idle");
    assert_eq!(engine.trace().dropped(), 0, "the ring kept every event");
    let mut tree: Vec<_> = state(&engine).tree().iter_buckets().collect();
    tree.sort_by_key(|(node, _)| *node);
    Observed {
        completions,
        counters: engine.trace().counters(),
        events: engine.trace().events(),
        stash_high_water: engine.stash_high_water(),
        clock_ps: engine.clock_ps(),
        tree,
    }
}

/// [`drive`] on the engine `scheme` builds, its tree in `mode`.
fn observe(scheme: &Scheme, mode: CipherMode) -> Observed {
    let mut oram = OramConfig::small_test();
    oram.cipher_mode = mode;
    let dram = DramSystem::new(DramConfig::ddr3_1600(2));
    let seed = CIPHER_SEED;
    match scheme {
        Scheme::Traditional => drive(
            BaselineController::new(oram, dram, seed),
            BaselineController::state,
        ),
        Scheme::TraditionalTreetop { bytes } => drive(
            BaselineController::with_treetop(oram, dram, seed, *bytes),
            BaselineController::state,
        ),
        Scheme::ForkDefault => drive(
            ForkPathController::new(oram, ForkConfig::default(), dram, seed),
            ForkPathController::state,
        ),
        Scheme::Fork(fork) => drive(
            ForkPathController::new(oram, *fork, dram, seed),
            ForkPathController::state,
        ),
        Scheme::Insecure => unreachable!("the insecure engine has no tree"),
    }
}

/// `CipherMode::Real` seals the same slots `Transparent` keeps in the
/// clear, in the same order: for every registry scheme with a tree, one
/// workload gives identical completions, counters, stash high water, clock
/// and tree contents in both modes.
#[test]
fn cipher_modes_are_one_datapath() {
    for (name, scheme) in registry() {
        if scheme == Scheme::Insecure {
            continue;
        }
        let clear = observe(&scheme, CipherMode::Transparent);
        assert_eq!(clear.completions.len(), 240, "{name}");
        assert!(clear.tree.iter().any(|(_, b)| !b.is_empty()), "{name}");
        if name.starts_with("fork") {
            let merged = clear.counters[Counter::MergedReads as usize];
            assert!(merged > 0, "{name}: no merged refill");
        }
        assert_eq!(clear, observe(&scheme, CipherMode::Real), "{name}");
    }
}
