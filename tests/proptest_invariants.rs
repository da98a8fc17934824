//! Property-based tests over the core data structures and the end-to-end
//! controllers: Path ORAM invariants, path arithmetic, eviction legality,
//! cache geometry, and RAM semantics under arbitrary operation sequences.
//!
//! Runs on the in-repo [`propcheck`] driver (seeded by the workspace's own
//! Xoshiro256); a failure prints the seed that replays it.
//!
//! [`propcheck`]: fork_path_oram::propcheck

use fork_path_oram::core::{
    ForkConfig, ForkPathController, MergingAwareCache, NewRequest, OramEngine,
    PosMapLookasideBuffer,
};
use fork_path_oram::dram::{DramConfig, DramSystem};
use fork_path_oram::path_oram::cache::CacheRange;
use fork_path_oram::path_oram::path::{
    divergence_level, node_at_level, node_level, overlap_degree, path_contains, path_nodes,
};
use fork_path_oram::path_oram::{Block, Datapath, OramConfig, Stash};
use fork_path_oram::propcheck::{run_cases, Gen};

const CASES: u64 = 64;

fn dram() -> DramSystem {
    DramSystem::new(DramConfig::ddr3_1600(2))
}

// ---------- path arithmetic ----------------------------------------

#[test]
fn overlap_matches_explicit_path_intersection() {
    run_cases(
        "overlap_matches_explicit_path_intersection",
        CASES,
        |g: &mut Gen| {
            let levels = g.range_u32(1, 12);
            let leaves = 1u64 << levels;
            let a = g.below(leaves);
            let b = g.below(leaves);
            let pa = path_nodes(levels, a);
            let pb = path_nodes(levels, b);
            let shared = pa.iter().filter(|n| pb.contains(n)).count() as u32;
            assert_eq!(overlap_degree(levels, a, b), shared);
        },
    );
}

#[test]
fn divergence_is_deepest_shared_level() {
    run_cases(
        "divergence_is_deepest_shared_level",
        CASES,
        |g: &mut Gen| {
            let levels = g.range_u32(1, 12);
            let leaves = 1u64 << levels;
            let a = g.below(leaves);
            let b = g.below(leaves);
            let d = divergence_level(levels, a, b);
            assert_eq!(node_at_level(levels, a, d), node_at_level(levels, b, d));
            if d < levels {
                assert_ne!(
                    node_at_level(levels, a, d + 1),
                    node_at_level(levels, b, d + 1)
                );
            }
        },
    );
}

#[test]
fn every_path_node_contains_its_leaf() {
    run_cases("every_path_node_contains_its_leaf", CASES, |g: &mut Gen| {
        let levels = g.range_u32(1, 12);
        let leaf = g.below(1 << levels);
        for (d, node) in path_nodes(levels, leaf).iter().enumerate() {
            assert_eq!(node_level(*node), d as u32);
            assert!(path_contains(levels, leaf, *node));
        }
    });
}

// ---------- stash eviction ------------------------------------------

#[test]
fn eviction_only_places_legal_blocks() {
    run_cases("eviction_only_places_legal_blocks", CASES, |g: &mut Gen| {
        let levels = 8u32;
        let leaf = g.below(256);
        let block_leaves = g.vec(1, 64, |g| g.below(256));
        let lo = g.range_u32(0, 8);
        let hi = levels;
        let mut stash = Stash::new(256);
        for (i, &bl) in block_leaves.iter().enumerate() {
            stash.insert(Block::new(i as u64, bl, vec![0u8; 8]));
        }
        let before = stash.len();
        stash.begin_eviction(levels, leaf);
        let mut evicted = 0usize;
        for level in (lo..=hi).rev() {
            let mut placed = 0;
            stash.evict_next(level, 4, |blocks| {
                // Path ORAM invariant: the block's path passes through the
                // bucket it is placed in.
                let bucket = node_at_level(levels, leaf, level);
                for b in blocks {
                    assert!(path_contains(levels, b.leaf, bucket));
                }
                placed = blocks.len();
            });
            assert!(placed <= 4, "bucket capacity");
            evicted += placed;
        }
        assert_eq!(evicted + stash.len(), before, "no block lost");
    });
}

/// Ordering the candidates once is the same algorithm as ordering them per
/// bucket: for a random stash (some blocks pinned), leaf and `lo..=hi`, one
/// eviction stream taken from `hi` down to a drawn stop level chooses
/// exactly what `plan_eviction_level` chooses when called afresh per level
/// — and a stream abandoned above `lo` leaves every block it did not choose
/// in the stash, the pinned ones in any case.
#[test]
fn eviction_stream_equals_per_level_calls() {
    run_cases(
        "eviction_stream_equals_per_level_calls",
        CASES,
        |g: &mut Gen| {
            let levels = 8u32;
            let leaf = g.below(256);
            let lo = g.range_u32(0, levels + 1);
            let hi = g.range_u32(lo, levels + 1);
            let stop = g.range_u32(lo, hi + 1);
            let z = g.range_usize(1, 5);
            let mut streamed = Stash::new(256);
            let mut pinned = Vec::new();
            for (i, bl) in g.vec(0, 96, |g| g.below(256)).into_iter().enumerate() {
                streamed.insert(Block::new(i as u64, bl, vec![i as u8]));
                if g.below(8) == 0 {
                    streamed.pin(i as u64);
                    pinned.push(i as u64);
                }
            }
            let mut stepwise = streamed.clone();
            let before = streamed.len();

            streamed.begin_eviction(levels, leaf);
            let stream: Vec<Vec<Block>> = (stop..=hi)
                .rev()
                .map(|level| {
                    let mut bucket = Vec::new();
                    streamed.evict_next(level, z, |blocks| bucket = blocks.to_vec());
                    bucket
                })
                .collect();
            let per_level: Vec<Vec<Block>> = (stop..=hi)
                .rev()
                .map(|level| stepwise.plan_eviction_level(levels, leaf, level, z))
                .collect();
            assert_eq!(stream, per_level);

            let chosen: usize = stream.iter().map(Vec::len).sum();
            assert_eq!(chosen + streamed.len(), before, "unchosen blocks stay");
            assert!(pinned.iter().all(|&a| streamed.contains(a)), "pins hold");
        },
    );
}

// ---------- MAC geometry --------------------------------------------

/// The merging-aware cache is the run of whole levels from `m1` down that
/// its budget holds (Fig 9's density: half a bucket a bucket), stopped at
/// the leaf level: every level is on chip or not as a whole, the levels on
/// chip start at `m1`, fit the budget, and the next level would not fit
/// or does not exist.
#[test]
fn mac_range_is_the_whole_levels_that_fit() {
    run_cases(
        "mac_range_is_the_whole_levels_that_fit",
        CASES,
        |g: &mut Gen| {
            let bucket_bytes = 64 * (1 + g.below(8));
            let bytes = 1 + g.below(1 << 21);
            let m1 = g.range_u32(1, 8);
            let leaf = g.range_u32(1, 20);
            let mac = MergingAwareCache::range(bytes, bucket_bytes, m1, leaf);
            let budget = (bytes / (bucket_bytes / 2)).max(1);
            let held: Vec<u32> = (0..=leaf + 1)
                .filter(|&level| {
                    let (first, last) = (1u64 << level, (2u64 << level) - 1);
                    let on_chip = mac.holds(first);
                    assert_eq!(mac.holds(last), on_chip, "level {level} is whole");
                    let inside = first + g.below(1 << level);
                    assert_eq!(mac.holds(inside), on_chip, "level {level} is whole");
                    on_chip
                })
                .collect();
            let fits = |end: u32| (1u64 << end) - (1u64 << m1) <= budget;
            match (held.first(), held.last()) {
                (Some(&lo), Some(&hi)) => {
                    assert_eq!(lo, m1, "the range starts at m1");
                    assert_eq!(held.len() as u32, hi - lo + 1, "one run of levels");
                    assert!(
                        hi <= leaf && fits(hi + 1),
                        "the range fits the tree and budget"
                    );
                    assert!(hi == leaf || !fits(hi + 2), "the next level does not fit");
                }
                _ => assert!(m1 > leaf || !fits(m1 + 1), "level m1 does not fit"),
            }
        },
    );
}

// ---------- optimized hot-path structures vs reference models ---------
//
// The PLB was rewritten for O(1) operation, as a hashmap-indexed intrusive
// LRU list. This property pins it to a straightforward reference model —
// the shape of the original implementation — over randomized access
// streams: every observable (return values, membership, occupancy) must
// agree at every step.

/// Reference LRU: the `VecDeque` + linear-scan shape the PLB replaced.
struct RefPlb {
    queue: std::collections::VecDeque<u64>,
    capacity: usize,
}

impl RefPlb {
    fn touch(&mut self, addr: u64) -> Option<u64> {
        if self.capacity == 0 {
            return None;
        }
        if let Some(pos) = self.queue.iter().position(|&a| a == addr) {
            self.queue.remove(pos);
            self.queue.push_back(addr);
            return None;
        }
        self.queue.push_back(addr);
        if self.queue.len() > self.capacity {
            self.queue.pop_front()
        } else {
            None
        }
    }
}

#[test]
fn plb_matches_lru_reference_model() {
    run_cases("plb_matches_lru_reference_model", CASES, |g: &mut Gen| {
        let capacity = g.range_usize(0, 24);
        // A small address universe forces plenty of hits, refreshes of
        // middle elements, and evictions.
        let addrs = g.vec(1, 200, |g| g.below(40));
        let mut plb = PosMapLookasideBuffer::new(capacity);
        let mut reference = RefPlb {
            queue: Default::default(),
            capacity,
        };
        for &addr in &addrs {
            assert_eq!(
                plb.touch(addr),
                reference.touch(addr),
                "touch({addr}) diverged (capacity {capacity})"
            );
            assert_eq!(plb.len(), reference.queue.len());
            assert_eq!(plb.is_empty(), reference.queue.is_empty());
            for probe in 0..40 {
                assert_eq!(
                    plb.contains(probe),
                    reference.queue.contains(&probe),
                    "contains({probe}) diverged"
                );
            }
        }
    });
}

// ---------- whole-ORAM state ------------------------------------------

#[test]
fn state_invariants_hold_under_random_access_mix() {
    run_cases(
        "state_invariants_hold_under_random_access_mix",
        CASES,
        |g: &mut Gen| {
            let seed = g.below(1000);
            let addrs = g.vec(1, 40, |g| g.below(512));
            let cfg = OramConfig::small_test();
            let levels = cfg.levels;
            let mut dp = Datapath::new(cfg, dram(), seed, CacheRange::NONE);
            let mut t = 0;
            for &addr in &addrs {
                let chain = dp.state().chain(addr);
                let (mut old, mut new) = dp.state_mut().start_chain(addr);
                for (i, &u) in chain.iter().enumerate() {
                    t = dp
                        .read_path(old, 0, t)
                        .expect("integrity holds on an untampered tree");
                    let leaf = old;
                    if i + 1 < chain.len() {
                        (old, new) = dp.state_mut().chain_step(u, new, chain[i + 1]);
                    } else {
                        let _ = dp.state_mut().apply_op(u, new, Some(&[addr as u8]));
                    }
                    dp.begin_refill(leaf);
                    for level in (0..=levels).rev() {
                        t = dp.refill_level(level, t);
                    }
                    t = dp.end_refill(t);
                }
            }
            assert!(dp.state().check_invariants().is_ok());
        },
    );
}

// ---------- end-to-end RAM semantics ---------------------------------

#[test]
fn fork_controller_behaves_like_ram() {
    run_cases("fork_controller_behaves_like_ram", CASES, |g: &mut Gen| {
        let seed = g.below(500);
        let ops = g.vec(1, 48, |g| (g.below(48), g.option(|g| g.below(255) as u8)));
        let cfg = OramConfig::small_test();
        let block = cfg.block_bytes;
        let mut ctl = ForkPathController::new(cfg, ForkConfig::default(), dram(), seed);
        let mut shadow: std::collections::HashMap<u64, u8> = Default::default();
        let mut expected: std::collections::HashMap<u64, u8> = Default::default();
        for &(addr, wr) in &ops {
            match wr {
                Some(byte) => {
                    shadow.insert(addr, byte);
                    ctl.submit(NewRequest::write(addr, vec![byte; block], ctl.clock_ps()))
                        .unwrap();
                }
                None => {
                    let want = shadow.get(&addr).copied().unwrap_or(0);
                    let id = ctl.submit(NewRequest::read(addr, ctl.clock_ps())).unwrap();
                    expected.insert(id, want);
                }
            }
        }
        for c in ctl.run_to_idle().unwrap() {
            if let Some(want) = expected.remove(&c.id) {
                assert_eq!(c.data[0], want, "addr {}", c.addr);
            }
        }
        assert!(expected.is_empty());
        assert!(ctl.state().check_invariants().is_ok());
    });
}

#[test]
fn label_queue_sizes_never_break_ram_semantics() {
    run_cases(
        "label_queue_sizes_never_break_ram_semantics",
        CASES,
        |g: &mut Gen| {
            let queue = g.range_usize(1, 16);
            let ops = g.vec(4, 24, |g| (g.below(24), g.below(255) as u8));
            let cfg = OramConfig::small_test();
            let block = cfg.block_bytes;
            let fork_cfg = ForkConfig {
                label_queue_size: queue,
                ..ForkConfig::default()
            };
            let mut ctl = ForkPathController::new(cfg, fork_cfg, dram(), 7);
            // Writes first (all at t=0 to force scheduling), then verify reads.
            let mut last: std::collections::HashMap<u64, u8> = Default::default();
            for &(addr, byte) in &ops {
                last.insert(addr, byte);
                ctl.submit(NewRequest::write(addr, vec![byte; block], 0))
                    .unwrap();
            }
            ctl.run_to_idle().unwrap();
            let mut expected = std::collections::HashMap::new();
            for (&addr, &byte) in &last {
                let id = ctl.submit(NewRequest::read(addr, ctl.clock_ps())).unwrap();
                expected.insert(id, byte);
            }
            for c in ctl.run_to_idle().unwrap() {
                if let Some(want) = expected.remove(&c.id) {
                    assert_eq!(c.data[0], want);
                }
            }
            assert!(expected.is_empty());
        },
    );
}

// ---------- fork-level clamping (merge stage) -------------------------

#[test]
fn fork_floor_stays_inside_the_path() {
    use fork_path_oram::core::PathMerger;
    use fork_path_oram::trace::Tally;
    run_cases("fork_floor_stays_inside_the_path", CASES, |g: &mut Gen| {
        let levels = g.range_u32(1, 12);
        let leaves = 1u64 << levels;
        let a = g.below(leaves);
        // Exercise the identical-label corner explicitly in some cases.
        let b = if g.bool() { a } else { g.below(leaves) };
        let (mut m, mut tally) = (PathMerger::new(true), Tally::default());
        assert_eq!(
            m.read_floor(levels, a, &mut tally),
            0,
            "first access reads fully"
        );
        m.commit(a);
        let floor = m.read_floor(levels, b, &mut tally);
        assert!(
            floor <= levels,
            "fork floor {floor} escapes the tree (levels={levels})"
        );
        assert_eq!(floor, (divergence_level(levels, a, b) + 1).min(levels));
        // A merged read always touches at least one new bucket; identical
        // consecutive paths re-read exactly the leaf bucket.
        let buckets_read = levels - floor + 1;
        assert!(buckets_read >= 1, "a merged read never touches 0 buckets");
        if a == b {
            assert_eq!(floor, levels);
            assert_eq!(buckets_read, 1, "identical paths re-read only the leaf");
        } else {
            // Exactly the buckets below the divergence are new.
            assert_eq!(buckets_read, levels - divergence_level(levels, a, b));
        }
        // The refill stop — initial or after a mid-refill replacement —
        // obeys the same clamp, and is the root when the next read will
        // not merge.
        let mut m2 = PathMerger::new(true);
        m2.commit(a);
        assert!(m2.write_stop(levels, a, Some(b)) <= levels);
        assert_eq!(PathMerger::new(false).write_stop(levels, a, Some(b)), 0);
    });
}

// ---------- trace spine vs driver-side ground truth --------------------

#[test]
fn trace_counters_track_request_lifecycle_and_stash_flow() {
    use fork_path_oram::trace::Counter;
    // A 10k-access mixed workload (reads, writes, hot-set reuse, bursts):
    // the spine's lifecycle counters and histograms must agree exactly
    // with what the driver submitted and drained, and the stash's
    // push/evict counters with its residency.
    run_cases(
        "trace_counters_track_request_lifecycle_and_stash_flow",
        2,
        |g: &mut Gen| {
            let seed = g.below(1000);
            let cfg = OramConfig::small_test();
            let data_blocks = cfg.data_blocks;
            let block = cfg.block_bytes;
            let mut ctl = ForkPathController::new(cfg, ForkConfig::default(), dram(), seed);
            let mut submitted = 0u64;
            let mut completions = 0u64;
            while ctl.stats().oram_accesses < 10_000 {
                for _ in 0..64 {
                    let addr = match g.below(4) {
                        0 => g.below(data_blocks),
                        1 => g.below(16), // hot set
                        2 => (submitted * 31) % data_blocks,
                        _ => g.below(64),
                    };
                    let req = if g.bool() {
                        let data = vec![(submitted & 0xff) as u8; block];
                        NewRequest::write(addr, data, ctl.clock_ps())
                    } else {
                        NewRequest::read(addr, ctl.clock_ps())
                    };
                    ctl.submit(req).unwrap();
                    submitted += 1;
                }
                completions += ctl.run_to_idle().unwrap().len() as u64;
            }
            completions += ctl.run_to_idle().unwrap().len() as u64;

            let t = ctl.trace();
            assert_eq!(t.counter(Counter::RequestsSubmitted), submitted);
            assert_eq!(t.counter(Counter::RequestsCompleted), completions);
            assert_eq!(t.latency_hist().count(), completions);
            assert_eq!(
                t.counter(Counter::StashPushes) - t.counter(Counter::StashEvicts),
                ctl.state().stash().len() as u64
            );
        },
    );
}
