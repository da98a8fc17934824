//! Drive-pattern equivalence for the baseline Path ORAM controller, and
//! one datapath under both cipher modes.
//!
//! A request stream driven synchronously (`submit` + `run_to_idle` per
//! request) and the same stream driven incrementally — submitted in
//! randomized chunks, pumped step by step, drained mid-flight — must
//! produce bit-identical completions, statistics, and stash high-water
//! marks, with and without a treetop cache. And the two cipher modes are
//! one datapath: every engine with a tree runs the same with it sealed as
//! in the clear.

use fork_path_oram::core::engine::{by_name, registry};
use fork_path_oram::core::{
    BaselineController, CacheChoice, ForkConfig, ForkPathController, MergingAwareCache, NewRequest,
    NoFeedback, OramEngine, Scheme,
};
use fork_path_oram::crypto::{BlockCipher, Nonce, Xoshiro256};
use fork_path_oram::dram::{DramConfig, DramSystem};
use fork_path_oram::path_oram::{
    Block, CipherMode, Completion, Op, OramConfig, OramState, TreeStore,
};
use fork_path_oram::propcheck::{run_cases, Gen};
use fork_path_oram::trace::{Counter, TraceEvent};
use std::collections::HashMap;

fn controller(treetop: bool, seed: u64) -> BaselineController {
    let cfg = OramConfig::small_test();
    let dram = DramSystem::new(DramConfig::ddr3_1600(2));
    if treetop {
        BaselineController::with_treetop(cfg, dram, seed, 16 << 10)
    } else {
        BaselineController::new(cfg, dram, seed)
    }
}

/// A randomized request stream with non-decreasing arrivals over a small
/// address space (so stash pressure and path reuse both occur).
fn gen_stream(g: &mut Gen, n: usize) -> Vec<NewRequest> {
    let mut t = 0u64;
    (0..n)
        .map(|_| {
            t += g.below(2_000_000);
            let addr = g.below(256);
            if g.below(3) == 0 {
                NewRequest::write(addr, vec![(addr % 251) as u8; 16], t)
            } else {
                NewRequest::read(addr, t)
            }
        })
        .collect()
}

/// Same seed, same stream: one request at a time, each run to idle, and
/// random chunked submissions with stepwise pumping and mid-flight drains
/// are indistinguishable in every observable output.
#[test]
fn sync_and_incremental_drives_are_equivalent() {
    run_cases("baseline-sync-vs-incremental", 6, |g: &mut Gen| {
        let treetop = g.below(2) == 1;
        let seed = g.below(u64::MAX);
        let stream = gen_stream(g, 24);

        // Drive A: one request at a time, each run to idle.
        let mut a = controller(treetop, seed);
        let mut a_done = Vec::new();
        for r in &stream {
            a.submit(r.clone()).expect("baseline submit");
            a_done.extend(a.run_to_idle().expect("baseline run_to_idle"));
        }

        // Drive B: the same stream in random chunks with interleaved
        // pumping and draining.
        let mut b = controller(treetop, seed);
        let mut b_done = Vec::new();
        let mut next = 0usize;
        while next < stream.len() {
            let chunk = 1 + g.below(5) as usize;
            for r in stream.iter().skip(next).take(chunk) {
                b.submit(r.clone()).expect("baseline submit");
            }
            next += chunk;
            for _ in 0..g.below(4) {
                b.process_one(&mut NoFeedback).expect("baseline pump");
            }
            if g.below(2) == 0 {
                b_done.extend(b.drain_completions());
            }
        }
        b_done.extend(b.run_to_idle().expect("baseline run_to_idle"));

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

/// When the requests of [`drive`] arrive.
#[derive(Debug, Clone, Copy)]
enum Pacing {
    /// Gaps drawn below 400 ns, 200 ns on average: faster than an access
    /// completes, so the label queue fills and the Fork Path schemes merge
    /// refills.
    Saturating,
    /// One request every 800 ns: the label queue runs dry between
    /// arrivals, so refills carry dummies, and a real that becomes ready
    /// while one streams replaces its dummy (§3.3) and moves the write stop
    /// mid-refill — under `fork`, both up and down.
    Open,
}

/// One seeded workload on `engine`: 240 reads and writes over all 1024
/// blocks of `small_test` (so every access walks two posmap levels),
/// arriving at `pacing`.
fn drive<E: OramEngine>(engine: &mut E, state: fn(&E) -> &OramState, pacing: Pacing) -> Observed {
    engine.set_trace_capacity(1 << 17);
    let mut rng = Xoshiro256::new(CIPHER_SEED);
    let mut arrival_ps = 0;
    for tag in 0..240u64 {
        arrival_ps += match pacing {
            Pacing::Saturating => rng.next_below(400_000),
            Pacing::Open => 800_000,
        };
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
    let mut tree: Vec<_> = state(engine).tree().iter_buckets().collect();
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

fn small_test(mode: CipherMode) -> OramConfig {
    let mut oram = OramConfig::small_test();
    oram.cipher_mode = mode;
    oram
}

/// [`drive`] on the engine `scheme` builds, its tree in `mode`.
fn observe(scheme: &Scheme, mode: CipherMode, pacing: Pacing) -> Observed {
    let oram = small_test(mode);
    let dram = DramSystem::new(DramConfig::ddr3_1600(2));
    let seed = CIPHER_SEED;
    match scheme {
        Scheme::Traditional => drive(
            &mut BaselineController::new(oram, dram, seed),
            BaselineController::state,
            pacing,
        ),
        Scheme::TraditionalTreetop { bytes } => drive(
            &mut BaselineController::with_treetop(oram, dram, seed, *bytes),
            BaselineController::state,
            pacing,
        ),
        Scheme::ForkDefault => drive(
            &mut ForkPathController::new(oram, ForkConfig::default(), dram, seed),
            ForkPathController::state,
            pacing,
        ),
        Scheme::Fork(fork) => drive(
            &mut ForkPathController::new(oram, *fork, dram, seed),
            ForkPathController::state,
            pacing,
        ),
        Scheme::Insecure => unreachable!("the insecure engine has no tree"),
    }
}

/// `CipherMode::Real` seals the same slots `Transparent` keeps in the
/// clear, in the same order: for every registry scheme with a tree, one
/// workload gives identical completions, counters, stash high water, clock
/// and tree contents in both modes. The open pacing moves the Fork Path
/// write stop mid-refill both ways: a sealed refill seals each bucket it
/// sends to DRAM as it stores it, wherever it stops, and the tree must
/// still decode to the same blocks.
#[test]
fn cipher_modes_are_one_datapath() {
    for (name, scheme) in registry() {
        if scheme == Scheme::Insecure {
            continue;
        }
        for pacing in [Pacing::Saturating, Pacing::Open] {
            let case = format!("{name}, {pacing:?}");
            let clear = observe(&scheme, CipherMode::Transparent, pacing);
            assert_eq!(clear.completions.len(), 240, "{case}");
            assert!(clear.tree.iter().any(|(_, b)| !b.is_empty()), "{case}");
            let fired = |counter: Counter| clear.counters[counter as usize] > 0;
            match pacing {
                Pacing::Saturating if name.starts_with("fork") => {
                    assert!(fired(Counter::MergedReads), "{case}: no merged refill");
                }
                Pacing::Open if name == "fork" => {
                    assert!(fired(Counter::DummiesReplaced), "{case}: no replacement");
                }
                _ => {}
            }
            assert_eq!(clear, observe(&scheme, CipherMode::Real, pacing), "{case}");
        }
    }
}

/// FNV-1a, 64 bit: a digest of bytes with no dependency.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// A seeded `fork+mac` run in `Real` mode, open pacing (so replacement
/// moves the write stop): the engine whose stored images the two tests
/// below pin.
fn sealed_fork_run() -> ForkPathController {
    let Some(Scheme::Fork(fork)) = by_name("fork+mac") else {
        panic!("fork+mac is a Fork Path scheme");
    };
    let oram = small_test(CipherMode::Real);
    let dram = DramSystem::new(DramConfig::ddr3_1600(2));
    let mut engine = ForkPathController::new(oram, fork, dram, CIPHER_SEED);
    let run = drive(&mut engine, ForkPathController::state, Pacing::Open);
    assert!(run.counters[Counter::DummiesReplaced as usize] > 0);
    engine
}

/// The sealed bytes themselves, pinned: [`sealed_fork_run`]'s untrusted
/// memory, digested over every image in it — ciphertext and write-counter
/// trailer — in node order, beside the count of the stored buckets the
/// merging-aware cache holds on chip, which untrusted memory does not
/// have. The literal was recorded when the write counter alone became the
/// nonce of a seal; a keystream that differs in one byte, for one nonce, a
/// slot laid out elsewhere, or a bucket on the wrong side of the DRAM
/// boundary, changes it.
#[test]
fn sealed_images_match_the_recorded_digest() {
    let engine = sealed_fork_run();
    let levels = engine.state().config().levels;
    let tree = engine.state().tree();
    let mut digest = 0xcbf2_9ce4_8422_2325;
    let mut images = 0;
    for node in 1..1u64 << (levels + 1) {
        if let Some(image) = tree.image(node) {
            digest = fnv1a(digest, &node.to_le_bytes());
            digest = fnv1a(digest, image);
            images += 1;
        }
    }
    let on_chip = tree.iter_buckets().count() - images;
    assert_eq!(
        (images, on_chip, digest),
        (7, 1015, 0x6268_4232_a37d_df24),
        "sealed images"
    );
}

/// A bucket's image rebuilt from its real `blocks` without the tree
/// store's sealer: the Z headers `[addr | leaf]`, a dummy's `[u64::MAX |
/// 0]`, then the payloads, a dummy's zero, encrypted by `encrypt_in_place`
/// under `counter` alone, then the counter.
fn rebuild(cipher: &BlockCipher, cfg: &OramConfig, blocks: &[Block], counter: u64) -> Vec<u8> {
    let mut rebuilt = Vec::new();
    for i in 0..cfg.z {
        let (addr, leaf) = blocks.get(i).map_or((u64::MAX, 0), |b| (b.addr, b.leaf));
        rebuilt.extend_from_slice(&addr.to_le_bytes());
        rebuilt.extend_from_slice(&leaf.to_le_bytes());
    }
    for i in 0..cfg.z {
        match blocks.get(i) {
            Some(b) => rebuilt.extend_from_slice(&b.data),
            None => rebuilt.resize(rebuilt.len() + cfg.block_bytes, 0),
        }
    }
    cipher.encrypt_in_place(Nonce::new(counter, 0), &mut rebuilt);
    rebuilt.extend_from_slice(&counter.to_le_bytes());
    rebuilt
}

/// The cipher of an engine seeded [`CIPHER_SEED`]: its key is the seed,
/// little-endian, zero-padded.
fn engine_cipher() -> BlockCipher {
    let mut key = [0u8; 32];
    key[..8].copy_from_slice(&CIPHER_SEED.to_le_bytes());
    BlockCipher::new(key)
}

/// Checks every image in `tree`'s untrusted memory that differs from the
/// one `seen` holds for its node: it has the sealed length and rebuilds
/// from its blocks under its trailer's counter ([`rebuild`]). Returns the
/// nodes that have an image.
fn check_sealed(tree: &TreeStore, cfg: &OramConfig, seen: &mut HashMap<u64, Vec<u8>>) -> Vec<u64> {
    let cipher = engine_cipher();
    let sealed = cfg.z * (16 + cfg.block_bytes) + 8;
    let mut images = Vec::new();
    for node in 1..1u64 << (cfg.levels + 1) {
        let Some(image) = tree.image(node) else {
            continue;
        };
        images.push(node);
        if seen.get(&node).is_some_and(|old| old[..] == *image) {
            continue;
        }
        assert_eq!(image.len(), sealed, "node {node}: sealed length");
        let counter = u64::from_le_bytes(image[sealed - 8..].try_into().expect("8 bytes"));
        let blocks = tree.bucket(node).expect("stored");
        assert_eq!(
            rebuild(&cipher, cfg, &blocks, counter),
            image,
            "node {node}"
        );
        seen.insert(node, image.to_vec());
    }
    images
}

/// Untrusted memory is sealed at every moment, not just at the end of a
/// run: a sealed `fork+mac` engine on [`drive`]'s open-paced stream,
/// checked after each engine call ([`check_sealed`]) — every submit, then
/// every `process_one` until the engine idles. The registry's cache and one
/// of 4 KiB, which holds fewer levels, keep their buckets on chip: none of
/// them is ever in untrusted memory.
#[test]
fn untrusted_memory_is_sealed_after_every_engine_call() {
    let Some(Scheme::Fork(registry_fork)) = by_name("fork+mac") else {
        panic!("fork+mac is a Fork Path scheme");
    };
    let small = CacheChoice::MergingAware { bytes: 4 << 10 };
    for fork in [
        registry_fork,
        ForkConfig {
            cache: small,
            ..registry_fork
        },
    ] {
        let oram = small_test(CipherMode::Real);
        let CacheChoice::MergingAware { bytes } = fork.cache else {
            panic!("a merging-aware cache");
        };
        let mac = MergingAwareCache::range(
            bytes,
            oram.bucket_bytes(),
            fork.derived_mac_bypass(),
            oram.levels,
        );
        let dram = DramSystem::new(DramConfig::ddr3_1600(2));
        let mut engine = ForkPathController::new(oram.clone(), fork, dram, CIPHER_SEED);
        let mut seen = HashMap::new();
        let mut check = |engine: &ForkPathController| {
            let images = check_sealed(engine.state().tree(), &oram, &mut seen);
            let cached = images.iter().filter(|&&node| mac.holds(node)).count();
            assert_eq!(cached, 0, "{bytes} B: a bucket of the cache went to memory");
        };
        let mut rng = Xoshiro256::new(CIPHER_SEED);
        for tag in 0..240u64 {
            let (addr, arrival_ps) = (rng.next_below(1024), 800_000 * (tag + 1));
            let req = if rng.next_below(3) == 0 {
                NewRequest::write(addr, vec![tag as u8; 16], arrival_ps)
            } else {
                NewRequest::read(addr, arrival_ps)
            };
            engine.submit(req).expect("submit");
            check(&engine);
        }
        while engine.process_one(&mut NoFeedback).expect("process_one") {
            check(&engine);
        }
        assert_eq!(engine.drain_completions().len(), 240);
        let tree = engine.state().tree();
        let on_chip = tree
            .iter_buckets()
            .filter(|(node, _)| tree.image(*node).is_none());
        assert!(
            on_chip.count() > 0,
            "{bytes} B: the cache holds buckets on chip"
        );
    }
}

/// Every image in [`sealed_fork_run`]'s untrusted memory, rebuilt from its
/// blocks without the tree store's sealer ([`rebuild`]). Byte for byte
/// what the store holds, so the digest above pins this layout and this
/// cipher; the stored buckets untrusted memory does not have are the ones
/// the cache holds on chip.
#[test]
fn sealed_images_rebuild_from_their_blocks() {
    let engine = sealed_fork_run();
    let cfg = engine.state().config();
    let tree = engine.state().tree();
    let images = check_sealed(tree, cfg, &mut HashMap::new());
    let on_chip = tree.iter_buckets().count() - images.len();
    assert_eq!((images.len(), on_chip), (7, 1015));
}
