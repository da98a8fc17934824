//! The allocation contract of the per-access kernels, measured.
//!
//! Every structure the Fig 9 pipeline touches once per bucket — the PLB,
//! the merging-aware cache (§3.5), the FR-FCFS batch scheduler behind both
//! its doors, the writeback batches, the stash's eviction stream, the
//! stalled chain steps a pump scans, the trace counters, the tree store in
//! both cipher modes and its cipher, and the datapath's two phases over
//! them — must not allocate once warm, or allocates exactly what it hands
//! back; and the tree store allocates by touched subtree, never by the size
//! of the tree. A global allocator that
//! counts holds that through every callee, whatever the allocation is
//! spelled like. The per-call counts are exact, never a tolerance; a new
//! per-access kernel joins this file (DESIGN.md §12).
//!
//! The `GlobalAlloc` forwarder below is the only `unsafe` in the
//! repository: the trait cannot be implemented without it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use fork_path_oram::core::engine::by_name;
use fork_path_oram::core::{MergingAwareCache, PosMapLookasideBuffer};
use fork_path_oram::crypto::{BlockCipher, Nonce, Xoshiro256};
use fork_path_oram::dram::{AccessKind, DramConfig, DramSystem};
use fork_path_oram::path_oram::cache::{BucketCache, NoCache};
use fork_path_oram::path_oram::path::{leaf_node, path_nodes};
use fork_path_oram::path_oram::{
    Block, CipherMode, Datapath, NewRequest, Op, OramConfig, Stash, TreeStore, WritebackEngine,
};
use fork_path_oram::trace::{Counter, EventKind, TraceHandle};

thread_local! {
    /// Allocations made by this thread. Per thread, so the harness's own
    /// threads cannot pollute a measurement; `const`-initialised and
    /// without a destructor, so reading it never allocates.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes those allocations asked for (a `realloc` counts its whole new
    /// size): what the lazy tree store is held to.
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are plain thread-local
// integers. `alloc_zeroed` is the provided method, which calls `alloc`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.set(ALLOCATIONS.get() + 1);
        BYTES.set(BYTES.get() + layout.size() as u64);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.set(ALLOCATIONS.get() + 1);
        BYTES.set(BYTES.get() + new_size as u64);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations the current thread makes while `f` runs.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.get();
    f();
    ALLOCATIONS.get() - before
}

/// `(allocations, bytes asked for)` by the current thread while `f` runs.
fn allocated(f: impl FnOnce()) -> (u64, u64) {
    let before = BYTES.get();
    let n = allocations(f);
    (n, BYTES.get() - before)
}

const CALLS: u64 = 4096;

#[test]
fn per_access_kernels_keep_their_allocation_contract() {
    let mut rng = Xoshiro256::new(7);

    // PLB at capacity: hits relink, misses evict the LRU entry.
    let mut plb = PosMapLookasideBuffer::new(1024);
    for addr in 0..1024 {
        plb.touch(addr);
    }
    let n = allocations(|| {
        for _ in 0..CALLS {
            black_box(plb.touch(rng.next_below(2048)));
        }
    });
    assert_eq!(n, 0, "PosMapLookasideBuffer::touch");

    // Merging-aware cache: inserts (evicting once the sets fill) and lookups.
    let oram = OramConfig::small_test();
    let levels = oram.levels;
    let mut mac = MergingAwareCache::new_for_tree(16, 4, 2, levels);
    let n = allocations(|| {
        for _ in 0..CALLS {
            let level = 2 + rng.next_below(u64::from(levels - 1)) as u32;
            let node = (1u64 << level) + rng.next_below(1 << level);
            black_box(mac.insert_on_write(node));
            black_box(mac.lookup_for_read(node));
        }
    });
    assert_eq!(
        n, 0,
        "MergingAwareCache::{{insert_on_write, lookup_for_read}}"
    );

    // Trace spine: counters always; events with retention off and on a
    // ring that is already full.
    let counters_only = TraceHandle::default();
    let ring = TraceHandle::new(64);
    for t in 0..64 {
        ring.record(t, EventKind::DramAct);
    }
    let n = allocations(|| {
        for t in 0..CALLS {
            counters_only.add(Counter::DramBlocksRead, 8);
            counters_only.bump(Counter::FullReads);
            counters_only.record(t, EventKind::DramAct);
            ring.record(t, EventKind::DramAct);
            counters_only.record_run(EventKind::DramRead, 4, t, 5_000);
            ring.record_run(EventKind::DramRead, 4, t, 5_000);
        }
    });
    assert_eq!(n, 0, "TraceHandle::{{add, bump, record, record_run}}");
    assert_eq!(ring.len(), 64, "the ring stayed full");

    // FR-FCFS batch (Channel::schedule_run runs under it) through the
    // per-burst door: 64 unrelated bursts, and one bucket of four
    // contiguous write bursts. The result borrows the scheduler's scratch.
    let dram_cfg = DramConfig::ddr3_1600(2);
    let mut dram = DramSystem::new(dram_cfg.clone());
    let scattered: Vec<(u64, AccessKind)> = (0..64)
        .map(|i| {
            let kind = [AccessKind::Read, AccessKind::Write][i % 2];
            (rng.next_below(1 << 20) * dram_cfg.burst_bytes, kind)
        })
        .collect();
    let bucket: Vec<(u64, AccessKind)> = (0..4)
        .map(|i| (0x4_2100 + i * dram_cfg.burst_bytes, AccessKind::Write))
        .collect();
    let mut now = 0;
    for (batch, shape) in [(&scattered, "64 scattered bursts"), (&bucket, "one bucket")] {
        now = dram.access_batch(now, batch).batch_finish_ps;
        let n = allocations(|| {
            for _ in 0..CALLS {
                now = dram.access_batch(now, batch).batch_finish_ps;
            }
        });
        assert_eq!(n, 0, "DramSystem::access_batch, {shape}");
    }

    // The same arbiter through the door the engine uses, in the two shapes
    // it makes: a 16-bucket path read and a one-bucket write.
    let bursts = oram.bucket_bytes().div_ceil(dram_cfg.burst_bytes);
    let path_bases: Vec<u64> = (0..16)
        .map(|_| rng.next_below(1 << 18) * oram.bucket_bytes())
        .collect();
    for (kind, bases, shape) in [
        (AccessKind::Read, &path_bases[..], "a 16-bucket read"),
        (AccessKind::Write, &path_bases[..1], "a one-bucket write"),
    ] {
        now = dram.access_spans(now, kind, bases, bursts);
        let n = allocations(|| {
            for _ in 0..CALLS {
                now = dram.access_spans(now, kind, bases, bursts);
            }
        });
        assert_eq!(n, 0, "DramSystem::access_spans, {shape}");
    }

    // Writeback without a cache: every call issues exactly one DRAM batch.
    let path: Vec<u64> = (0..=levels).map(|l| (1u64 << l) + 1).collect();
    let mut wb =
        WritebackEngine::with_cache(Box::new(NoCache), &oram, &dram_cfg, TraceHandle::default());
    now = wb.read_path(&mut dram, &path, now);
    let n = allocations(|| {
        for _ in 0..CALLS {
            now = wb.read_path(&mut dram, &path, now);
        }
    });
    assert_eq!(n, 0, "WritebackEngine::read_path, one batch per call");
    let n = allocations(|| {
        for i in 0..CALLS {
            now = wb.write_bucket(&mut dram, path[(i % 10) as usize], now);
        }
    });
    assert_eq!(n, 0, "WritebackEngine::write_bucket, one batch per call");

    // Writeback behind the MAC: buckets the cache absorbs issue no batch.
    // 64 sets x 4 ways hold levels 2..=7 whole, one slot per bucket.
    let absorbed: Vec<u64> = (2..=7).map(|l| (1u64 << l) + 1).collect();
    let mac: Box<dyn BucketCache + Send> =
        Box::new(MergingAwareCache::new_for_tree(64, 4, 2, levels));
    let mut wb = WritebackEngine::with_cache(mac, &oram, &dram_cfg, TraceHandle::default());
    let n = allocations(|| {
        for _ in 0..CALLS {
            for &node in &absorbed {
                assert_eq!(wb.write_bucket(&mut dram, node, now), now);
            }
            assert_eq!(wb.read_path(&mut dram, &absorbed, now), now);
        }
    });
    assert_eq!(
        n, 0,
        "cache-absorbed buckets reach neither DRAM nor the heap"
    );

    // Eviction stream on a bare stash, near-empty and at the occupancy the
    // wire workloads run at: once the candidate buffer is sized, starting
    // a refill allocates nothing, and neither does taking a level — a
    // chosen block is handed over by reference and its payload buffer
    // stays in the stash.
    for resident in [3u64, 64] {
        const REFILLS: u64 = 256;
        let mut stash = Stash::new(oram.stash_capacity);
        let (mut begins, mut takes, mut non_empty) = (0, 0, 0);
        for refill in 0..=REFILLS {
            for addr in 0..resident {
                let leaf = rng.next_below(oram.leaf_count());
                stash.insert(Block::new(addr, leaf, vec![0; oram.block_bytes]));
            }
            let leaf = rng.next_below(oram.leaf_count());
            let begin = allocations(|| stash.begin_eviction(levels, leaf));
            let mut filled = 0;
            let take = allocations(|| {
                for level in (0..=levels).rev() {
                    let mut chosen = 0;
                    stash.evict_next(level, oram.z, |block| {
                        black_box(block);
                        chosen += 1;
                    });
                    filled += u64::from(chosen > 0);
                }
            });
            if refill > 0 {
                begins += begin;
                takes += take;
                non_empty += filled;
            }
        }
        assert_eq!(begins, 0, "Stash::begin_eviction at {resident} blocks");
        assert!(non_empty > 0 && non_empty < REFILLS * u64::from(levels + 1));
        assert_eq!(takes, 0, "Stash::evict_next at {resident} blocks");
    }

    // A pump over parked chain steps. Twelve reads of distinct addresses
    // under one top-level posmap block (it maps sixteen), and no access
    // run: the first flight owns that block in the label queue, the other
    // eleven stay parked behind it, and every pump scans them in place.
    let mut engine = by_name("fork")
        .unwrap()
        .build(oram.clone(), DramSystem::new(dram_cfg), 7);
    for addr in 0..12 {
        let read = NewRequest {
            addr,
            op: Op::Read,
            data: Vec::new(),
            arrival_ps: 0,
            tag: addr,
        };
        engine.submit(read).unwrap();
    }
    let n = allocations(|| {
        for _ in 0..CALLS {
            engine.pump().unwrap();
        }
    });
    assert_eq!(n, 0, "OramEngine::pump over eleven parked chain steps");
    assert_eq!(engine.run_to_idle().unwrap().len(), 12);
}

/// The sealed data path (`CipherMode::Real`): the keystream runs in place
/// or into a buffer that keeps its capacity, and the tree store's two doors for whole buckets of blocks cost what
/// they hand over — a write fills an image a take emptied and allocates
/// nothing, a take allocates the `Vec<Block>` it returns and
/// one payload per real block, so nothing for an empty bucket.
#[test]
fn sealed_path_keeps_its_allocation_contract() {
    let cipher = BlockCipher::new([7; 32]);
    let mut image = vec![0u8; 320];
    let n = allocations(|| {
        for counter in 0..CALLS {
            cipher.encrypt_in_place(Nonce::new(counter, 1), black_box(&mut image));
        }
    });
    assert_eq!(n, 0, "BlockCipher::encrypt_in_place over a 320 B image");
    let mut nonces: Vec<Nonce> = (0..11).map(|node| Nonce::new(0, node)).collect();
    let mut keystream = Vec::new();
    cipher.keystreams(&nonces, 320, &mut keystream);
    let n = allocations(|| {
        for counter in 0..CALLS {
            nonces[0].write_counter = counter;
            cipher.keystreams(black_box(&nonces), 320, &mut keystream);
        }
    });
    assert_eq!(n, 0, "BlockCipher::keystreams of eleven 320 B images, warm");

    // A warm store: every node below was written and taken once, so its
    // subtree has a page, the directory never grows again, the open bucket
    // has its room and the taken images wait for the next writes.
    const NODES: u64 = 64;
    let mut oram = OramConfig::small_test();
    oram.cipher_mode = CipherMode::Real;
    let mut store = TreeStore::new(&oram, [7; 32]);
    for node in 1..=NODES {
        store.write_bucket(node, vec![Block::new(node, 0, vec![0; oram.block_bytes])]);
    }
    for node in 1..=NODES {
        assert_eq!(store.take_bucket(node).len(), 1);
    }
    for call in 0..CALLS {
        let node = 1 + call % NODES;
        let k = call % (oram.z as u64 + 1);
        let blocks: Vec<Block> = (0..k)
            .map(|addr| Block::new(addr, call, vec![0; oram.block_bytes]))
            .collect();
        let n = allocations(|| store.write_bucket(node, blocks));
        assert_eq!(n, 0, "sealed TreeStore::write_bucket of {k} blocks");
        let mut taken = Vec::new();
        let n = allocations(|| taken = store.take_bucket(node));
        assert_eq!(taken.len() as u64, k);
        let expected = if k == 0 { 0 } else { 1 + k };
        assert_eq!(n, expected, "sealed TreeStore::take_bucket of {k} blocks");
    }
}

/// The datapath under both controllers, in both cipher modes: a read
/// phase decodes each image into the stash and keeps the emptied buffer,
/// and the refill encodes what the eviction stream picks and stores it in
/// one of those buffers, so a warm read of a whole path and its full
/// refill move every block without the allocator.
#[test]
fn a_warm_path_read_and_refill_allocate_nothing() {
    for mode in [CipherMode::Transparent, CipherMode::Real] {
        let mut oram = OramConfig::small_test();
        oram.cipher_mode = mode;
        let levels = oram.levels;
        let dram = DramSystem::new(DramConfig::ddr3_1600(2));
        let mut dp = Datapath::new(oram.clone(), dram, 7, Box::new(NoCache));
        // Sixteen blocks the path to leaf 0 holds: ten mapped to it fill
        // the leaf bucket and the one above and half the next, three share
        // only the root, three the top three levels.
        for addr in 0..16u64 {
            let label = match addr {
                0..=9 => 0,
                10..=12 => 1 << (levels - 1),
                _ => 1 << (levels - 3),
            };
            dp.state_mut().apply_op(addr, label, None);
        }
        // The first refill writes the images, the first read keeps them.
        let mut now = 0;
        for cycle in 0..4 {
            let pushes = dp.trace().counter(Counter::StashPushes);
            let n = allocations(|| {
                now = dp.read_path(0, 0, now).unwrap();
                dp.begin_refill(0, 0);
                for level in (0..=levels).rev() {
                    now = dp.refill_level(level, now);
                }
            });
            if cycle > 1 {
                assert_eq!(n, 0, "{mode:?}: read_path + a full refill, cycle {cycle}");
                let moved = dp.trace().counter(Counter::StashPushes) - pushes;
                assert_eq!(moved, 16, "{mode:?}: every block went through the stash");
            }
        }
        let mut sizes: Vec<usize> = dp
            .state()
            .tree()
            .iter_buckets()
            .map(|(_, blocks)| blocks.len())
            .filter(|&k| k > 0)
            .collect();
        sizes.sort_unstable();
        assert_eq!(sizes, [2, 3, 3, 4, 4], "{mode:?}: full and partial buckets");
        assert!(dp.state().stash().is_empty());
        dp.state().check_invariants().unwrap();
    }
}

/// The tree store is lazy by subtree page (DESIGN.md §1): at the paper
/// geometry (L = 24) nothing is sized by the tree, a path costs at most its
/// five pages, and a warm page is written and taken without the allocator.
#[test]
fn tree_store_allocates_one_page_per_touched_subtree() {
    /// 31 slots of 24 B.
    const PAGE_BYTES: u64 = 744;
    let paper = OramConfig::paper_default(4 << 30);
    let levels = paper.levels;
    assert_eq!(levels, 24);
    for mode in [CipherMode::Transparent, CipherMode::Real] {
        let mut cfg = paper.clone();
        cfg.cipher_mode = mode;
        let (n, bytes) = allocated(|| drop(black_box(TreeStore::new(&cfg, [7; 32]))));
        assert_eq!((n, bytes), (0, 0), "TreeStore::new, {mode:?}");
    }
    let mut store = TreeStore::new(&paper, [7; 32]);
    let (_, bytes) = allocated(|| store.write_bucket(leaf_node(levels, 0), Vec::new()));
    assert!(bytes < 16 << 10, "first leaf-level write: {bytes} B");

    // 256 fresh random paths, 25 buckets each: five pages a path at most,
    // plus the doubling growth of a 1,280-entry directory (16 B entries)
    // and page vector (8 B) — under 128 KB between them.
    const PATHS: u64 = 256;
    let mut rng = Xoshiro256::new(24);
    let (_, bytes) = allocated(|| {
        for _ in 0..PATHS {
            // Leaf to root, the order of a refill. `path_nodes` allocates
            // its 25 ids: 200 B a path, inside the slack below.
            for node in path_nodes(levels, rng.next_below(1 << levels))
                .into_iter()
                .rev()
            {
                store.write_bucket(node, Vec::new());
            }
        }
    });
    assert!(
        bytes <= PATHS * 5 * PAGE_BYTES + (128 << 10),
        "{PATHS} paths: {bytes} B"
    );
    assert!(bytes >= PATHS * 3 * PAGE_BYTES, "the paths were fresh");

    // Warm pages, exact. Six subtrees of the 10-level test tree: the top
    // one and five of the 32 under it. The directory and the page vector
    // grew for the fifth and have room for three more, so a first write
    // into a sixth untouched subtree is its page and nothing else.
    let small = OramConfig::small_test();
    let mut store = TreeStore::new(&small, [7; 32]);
    for node in [1, 32, 33, 34, 35] {
        store.write_bucket(node, Vec::new());
    }
    let fresh = allocated(|| store.write_bucket(36, Vec::new()));
    assert_eq!(fresh, (1, PAGE_BYTES), "first write into a subtree");
    // One image of each size, written and taken: the buffers every write
    // below reuses.
    for k in 1..=small.z as u64 {
        let blocks = (0..k).map(|addr| Block::new(addr, 0, vec![0; small.block_bytes]));
        store.write_bucket(2, blocks.collect());
        assert_eq!(store.take_bucket(2).len() as u64, k);
    }
    for call in 0..CALLS {
        let node = [1, 2, 31, 32, 65, 36 << 4][(call % 6) as usize];
        let k = call % (small.z as u64 + 1);
        let blocks: Vec<Block> = (0..k)
            .map(|addr| Block::new(addr, call, vec![0; small.block_bytes]))
            .collect();
        let n = allocations(|| store.write_bucket(node, blocks));
        assert_eq!(
            n, 0,
            "plain TreeStore::write_bucket copies into a spare image of its size"
        );
        let mut taken = Vec::new();
        let n = allocations(|| taken = store.take_bucket(node));
        let expected = if k == 0 { 0 } else { 1 + k };
        assert_eq!(n, expected, "plain TreeStore::take_bucket of {k} blocks");
        assert_eq!(taken.len() as u64, k);
    }
}
