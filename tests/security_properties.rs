//! Security checks backing §3.6's arguments: the externally visible label
//! sequence must be uniform and independent of the program's access
//! pattern, the Fork Path optimizations must not change that, and what a
//! refill writes to memory is the part of its own path it is known to
//! write.

use fork_path_oram::core::engine::registry;
use fork_path_oram::core::{
    BaselineController, CacheChoice, ForkConfig, ForkPathController, MergingAwareCache, NewRequest,
    NoFeedback, OramEngine, Scheme,
};
use fork_path_oram::crypto::Xoshiro256;
use fork_path_oram::dram::{DramConfig, DramSystem};
use fork_path_oram::path_oram::cache::CacheRange;
use fork_path_oram::path_oram::path::{node_at_level, node_level, path_contains};
use fork_path_oram::path_oram::{CipherMode, OramConfig, OramState, TreeStore};

fn dram() -> DramSystem {
    DramSystem::new(DramConfig::ddr3_1600(2))
}

/// Chi-square statistic of a trace bucketed into `bins` equal leaf ranges.
fn chi_square(trace: &[u64], leaves: u64, bins: usize) -> f64 {
    let mut counts = vec![0u64; bins];
    for &l in trace {
        counts[(l as u128 * bins as u128 / leaves as u128) as usize] += 1;
    }
    let expected = trace.len() as f64 / bins as f64;
    counts
        .iter()
        .map(|&c| {
            let d = c as f64 - expected;
            d * d / expected
        })
        .sum()
}

/// 99.9th percentile of chi-square with `k` degrees of freedom (rough
/// Wilson–Hilferty approximation) — loose enough to avoid flaky tests.
fn chi2_crit(k: f64) -> f64 {
    let z = 3.09; // ~99.9th percentile of N(0,1)
    k * (1.0 - 2.0 / (9.0 * k) + z * (2.0 / (9.0 * k)).sqrt()).powi(3)
}

fn fork_trace(pattern: &[u64], seed: u64) -> (Vec<u64>, u64) {
    let cfg = OramConfig::small_test();
    let leaves = cfg.leaf_count();
    let mut ctl = ForkPathController::new(cfg, ForkConfig::default(), dram(), seed);
    ctl.enable_label_trace();
    for &addr in pattern {
        ctl.submit(NewRequest::read(addr, ctl.clock_ps())).unwrap();
        if addr % 3 == 0 {
            ctl.run_to_idle().unwrap();
        }
    }
    ctl.run_to_idle().unwrap();
    (ctl.label_trace().unwrap().to_vec(), leaves)
}

#[test]
fn fork_labels_uniform_for_sequential_pattern() {
    let pattern: Vec<u64> = (0..400).map(|i| i % 128).collect();
    let (trace, leaves) = fork_trace(&pattern, 21);
    assert!(trace.len() > 200);
    let chi2 = chi_square(&trace, leaves, 16);
    assert!(chi2 < chi2_crit(15.0), "chi2={chi2} trace={}", trace.len());
}

#[test]
fn fork_labels_uniform_for_single_hot_address() {
    // The most revealing pattern imaginable: one address, hammered.
    let pattern = vec![42u64; 400];
    let (trace, leaves) = fork_trace(&pattern, 22);
    let chi2 = chi_square(&trace, leaves, 16);
    assert!(chi2 < chi2_crit(15.0), "chi2={chi2}");
}

#[test]
fn label_distributions_indistinguishable_across_patterns() {
    // Two very different programs: labels must look the same. Two-sample
    // chi-square over leaf octants.
    let seq: Vec<u64> = (0..400).map(|i| i % 200).collect();
    let mut rng = Xoshiro256::new(5);
    let rand: Vec<u64> = (0..400).map(|_| rng.next_below(200)).collect();

    let (t1, leaves) = fork_trace(&seq, 23);
    let (t2, _) = fork_trace(&rand, 23);

    let bins = 8usize;
    let hist = |t: &[u64]| {
        let mut h = vec![0f64; bins];
        for &l in t {
            h[(l as u128 * bins as u128 / leaves as u128) as usize] += 1.0;
        }
        h
    };
    let (h1, h2) = (hist(&t1), hist(&t2));
    let (n1, n2) = (t1.len() as f64, t2.len() as f64);
    let mut chi2 = 0.0;
    for b in 0..bins {
        let pooled = (h1[b] + h2[b]) / (n1 + n2);
        let (e1, e2) = (pooled * n1, pooled * n2);
        chi2 += (h1[b] - e1).powi(2) / e1.max(1.0) + (h2[b] - e2).powi(2) / e2.max(1.0);
    }
    assert!(chi2 < chi2_crit(7.0), "two-sample chi2={chi2}");
}

#[test]
fn consecutive_labels_are_uncorrelated_without_scheduling() {
    // With overlap scheduling the controller *deliberately* orders similar
    // labels next to each other — a reordering computed purely from the
    // public label sequence (§3.6). With scheduling disabled, consecutive
    // labels must show no serial structure at all.
    let pattern: Vec<u64> = (0..600).map(|i| (i * 7) % 256).collect();
    let (trace, leaves) = {
        let cfg = OramConfig::small_test();
        let leaves = cfg.leaf_count();
        let fork_cfg = ForkConfig {
            scheduling: false,
            ..ForkConfig::default()
        };
        let mut ctl = ForkPathController::new(cfg, fork_cfg, dram(), 24);
        ctl.enable_label_trace();
        for &addr in &pattern {
            ctl.submit(NewRequest::read(addr, ctl.clock_ps())).unwrap();
            if addr % 3 == 0 {
                ctl.run_to_idle().unwrap();
            }
        }
        ctl.run_to_idle().unwrap();
        (ctl.label_trace().unwrap().to_vec(), leaves)
    };
    let n = trace.len() - 1;
    let xs: Vec<f64> = trace.iter().map(|&l| l as f64 / leaves as f64).collect();
    let mean = xs.iter().sum::<f64>() / xs.len() as f64;
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
    let cov = (0..n)
        .map(|i| (xs[i] - mean) * (xs[i + 1] - mean))
        .sum::<f64>()
        / n as f64;
    let rho = cov / var;
    // With ~500 samples, |rho| beyond ~4/sqrt(n) would be suspicious.
    let bound = 4.0 / (n as f64).sqrt();
    assert!(
        rho.abs() < bound,
        "serial correlation rho={rho} bound={bound}"
    );
}

#[test]
fn baseline_labels_equally_uniform() {
    let cfg = OramConfig::small_test();
    let leaves = cfg.leaf_count();
    let mut ctl = BaselineController::new(cfg, dram(), 31);
    ctl.enable_label_trace();
    for i in 0..300u64 {
        ctl.submit(NewRequest::read(i % 64, ctl.clock_ps()))
            .unwrap();
        ctl.run_to_idle().unwrap();
    }
    let trace = ctl.label_trace().unwrap().to_vec();
    let chi2 = chi_square(&trace, leaves, 16);
    assert!(chi2 < chi2_crit(15.0), "chi2={chi2}");
}

#[test]
fn merging_does_not_inflate_stash_occupancy_unboundedly() {
    // §3.6: merging must not change the stash-overflow story. Run a long
    // storm and verify the high-water mark stays far below pathological.
    let cfg = OramConfig::small_test();
    let capacity = cfg.stash_capacity;
    let mut ctl = ForkPathController::new(cfg, ForkConfig::default(), dram(), 32);
    let mut rng = Xoshiro256::new(99);
    for _ in 0..1500 {
        let addr = rng.next_below(300);
        let req = if rng.gen_bool(0.4) {
            NewRequest::write(addr, vec![1; 16], ctl.clock_ps())
        } else {
            NewRequest::read(addr, ctl.clock_ps())
        };
        ctl.submit(req).unwrap();
    }
    ctl.run_to_idle().unwrap();
    let hw = ctl.state().stash().high_water();
    assert!(
        hw < capacity,
        "stash high water {hw} must stay under C={capacity}"
    );
    ctl.state().check_invariants().unwrap();
}

#[test]
fn refill_never_writes_buckets_shared_with_next_path() {
    // Direct check of the fork-shape access property on the stats: merged
    // accesses must touch strictly fewer buckets than full paths.
    let cfg = OramConfig::small_test();
    let full = cfg.path_len() as f64;
    let mut ctl = ForkPathController::new(cfg, ForkConfig::default(), dram(), 33);
    for a in 0..128u64 {
        ctl.submit(NewRequest::read(a, 0)).unwrap();
    }
    ctl.run_to_idle().unwrap();
    let s = ctl.stats();
    assert!(s.avg_path_len() < full - 1.0, "merging must shorten paths");
    // And the first access of the session read a complete path (step 0).
    assert!(s.buckets_read > 0);
}

/// The tree [`a_refill_writes_only_its_own_path`] runs on: L = 12 and
/// 256 B buckets, so `fork+mac`'s 256 KiB holds levels 3..=10 and leaves
/// levels 11 and 12 to DRAM, as at the benchmark's L = 15 it leaves level
/// 11 and below, and a 1 MiB treetop leaves the leaf level. The whole
/// position map is on chip, so a request is one access and a traditional
/// engine call refills one path.
fn written_set_oram(mode: CipherMode) -> OramConfig {
    OramConfig {
        levels: 12,
        block_bytes: 64,
        onchip_posmap_entries: 1024,
        cipher_mode: mode,
        ..OramConfig::small_test()
    }
}

/// The buckets whose image in untrusted memory appeared or changed since
/// `seen` (indexed by node id) was taken, which it then becomes.
fn changed_images(tree: &TreeStore, seen: &mut [Option<Vec<u8>>]) -> Vec<u64> {
    let mut changed = Vec::new();
    for (node, old) in seen.iter_mut().enumerate().skip(1) {
        let image = tree.image(node as u64);
        if old.as_deref() != image {
            *old = image.map(<[u8]>::to_vec);
            changed.extend(image.map(|_| node as u64));
        }
    }
    changed
}

/// 160 seeded reads and writes arriving every 800 ns on `engine`, whose
/// label trace is on; after the submits and after every `process_one`,
/// what the engine wrote to untrusted memory is checked against the paths
/// it read since (the labels it added to the trace; a refill writes back
/// the path its access read):
///
/// - every written bucket is on one of those paths and outside `range`;
/// - sealed, where every write shows (a fresh counter), a call of one
///   access wrote exactly its path from some stop level down to the leaf,
///   minus `range`: nothing above the stop, nothing skipped below it.
///
/// In the clear a rewrite that leaves an image's bytes as they were does
/// not show, so there the first rule checks what does.
fn refills_write_their_own_paths<E: OramEngine>(
    engine: &mut E,
    state: fn(&E) -> &OramState,
    labels: fn(&E) -> Option<&[u64]>,
    range: CacheRange,
    case: &str,
) {
    let levels = state(engine).config().levels;
    let sealed = state(engine).config().cipher_mode == CipherMode::Real;
    let mut seen = vec![None; 1 << (levels + 1)];
    let (mut traced, mut exact) = (0, 0);
    let mut check = |engine: &E, call: &str| {
        let written = changed_images(state(engine).tree(), &mut seen);
        let paths = &labels(engine).expect("the label trace is on")[traced..];
        traced += paths.len();
        for &node in &written {
            assert!(
                !range.holds(node),
                "{case}, {call}: cached node {node} went to memory"
            );
            assert!(
                paths.iter().any(|&leaf| path_contains(levels, leaf, node)),
                "{case}, {call}: node {node} is on no path the call read ({paths:?})"
            );
        }
        let (&[leaf], Some(stop)) = (paths, written.iter().map(|&n| node_level(n)).min()) else {
            return;
        };
        if sealed {
            let mut suffix: Vec<u64> = (stop..=levels)
                .map(|level| node_at_level(levels, leaf, level))
                .filter(|&node| !range.holds(node))
                .collect();
            suffix.sort_unstable();
            let mut written = written;
            written.sort_unstable();
            assert_eq!(
                written, suffix,
                "{case}, {call}: its path from level {stop} down"
            );
            exact += 1;
        }
    };
    let mut rng = Xoshiro256::new(0x5E7);
    for tag in 0..160u64 {
        let addr = rng.next_below(1024);
        let arrival_ps = 800_000 * (tag + 1);
        let req = if rng.next_below(3) == 0 {
            NewRequest::write(addr, vec![tag as u8; 64], arrival_ps)
        } else {
            NewRequest::read(addr, arrival_ps)
        };
        engine.submit(req).expect("submit");
    }
    check(engine, "submit");
    while engine.process_one(&mut NoFeedback).expect("process_one") {
        check(engine, "process_one");
    }
    assert_eq!(engine.drain_completions().len(), 160, "{case}");
    assert!(traced >= 120, "{case}: {traced} accesses");
    // Every refill writes its leaf bucket unless the leaf level is on chip.
    let leaf_on_chip = range.holds(1 << levels);
    assert!(
        !sealed || leaf_on_chip || exact > 60,
        "{case}: {exact} single-access calls"
    );
}

/// DESIGN.md §7 item 3's written set, observed in untrusted memory: for
/// every registry scheme with a tree, in both cipher modes, a refill sends
/// to DRAM only buckets of its own path, below its stop level and outside
/// the on-chip range. A cache that evicted a bucket of an earlier path to
/// make room would write that path's address here.
#[test]
fn a_refill_writes_only_its_own_path() {
    for (name, scheme) in registry() {
        for mode in [CipherMode::Transparent, CipherMode::Real] {
            let case = format!("{name}, {mode:?}");
            let oram = written_set_oram(mode);
            let bucket_bytes = oram.bucket_bytes();
            let (levels, seed) = (oram.levels, 0x0A11);
            let fork_range = |fork: &ForkConfig| match fork.cache {
                CacheChoice::None => CacheRange::NONE,
                CacheChoice::Treetop { bytes } => CacheRange::treetop(bytes, bucket_bytes),
                CacheChoice::MergingAware { bytes } => {
                    let m1 = fork.derived_mac_bypass();
                    MergingAwareCache::range(bytes, bucket_bytes, m1, levels)
                }
            };
            let baseline = |mut engine: BaselineController, range| {
                engine.enable_label_trace();
                let (state, labels) = (BaselineController::state, BaselineController::label_trace);
                refills_write_their_own_paths(&mut engine, state, labels, range, &case);
            };
            let fork = |fork: ForkConfig| {
                let mut engine = ForkPathController::new(oram.clone(), fork, dram(), seed);
                engine.enable_label_trace();
                let (state, labels) = (ForkPathController::state, ForkPathController::label_trace);
                let range = fork_range(&fork);
                refills_write_their_own_paths(&mut engine, state, labels, range, &case);
            };
            match scheme {
                Scheme::Insecure => {}
                Scheme::Traditional => {
                    baseline(
                        BaselineController::new(oram.clone(), dram(), seed),
                        CacheRange::NONE,
                    );
                }
                Scheme::TraditionalTreetop { bytes } => baseline(
                    BaselineController::with_treetop(oram.clone(), dram(), seed, bytes),
                    CacheRange::treetop(bytes, bucket_bytes),
                ),
                Scheme::ForkDefault => fork(ForkConfig::default()),
                Scheme::Fork(config) => fork(config),
            }
        }
    }
}
