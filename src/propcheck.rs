//! A minimal in-repo property-testing driver.
//!
//! Replaces the external `proptest` dependency for this workspace's
//! invariant suite. A property is a closure over a [`Gen`] — a seeded
//! source of structured random values backed by [`fp_crypto::Xoshiro256`],
//! the same deterministic RNG the simulator itself uses. [`run_cases`]
//! executes the property across a fixed number of derived seeds and, on
//! failure, reports the property name and the failing seed so the case can
//! be replayed exactly (`Gen::new(seed)`), serving the role of proptest's
//! regression file without one.
//!
//! No shrinking is attempted: generators here draw from small domains, so
//! failing cases are already near-minimal.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use fp_crypto::{SplitMix64, Xoshiro256};

/// A seeded generator of structured random test inputs.
#[derive(Debug)]
pub struct Gen {
    rng: Xoshiro256,
}

impl Gen {
    /// A generator replaying the exact value stream of `seed`.
    pub(crate) fn new(seed: u64) -> Self {
        Self {
            rng: Xoshiro256::new(seed),
        }
    }

    /// Uniform draw from `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.rng.next_below(bound)
    }

    /// Uniform draw from the half-open range `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + self.rng.next_below(hi - lo)
    }

    /// Uniform `u32` draw from `[lo, hi)`.
    pub fn range_u32(&mut self, lo: u32, hi: u32) -> u32 {
        self.range(u64::from(lo), u64::from(hi)) as u32
    }

    /// Uniform `usize` draw from `[lo, hi)`.
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        self.range(lo as u64, hi as u64) as usize
    }

    /// A fair coin.
    pub fn bool(&mut self) -> bool {
        self.rng.next_below(2) == 1
    }

    /// `Some(f(self))` with probability 1/2.
    pub fn option<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> Option<T> {
        if self.bool() {
            Some(f(self))
        } else {
            None
        }
    }

    /// A vector of `len ∈ [min, max)` elements drawn from `f`.
    pub fn vec<T>(&mut self, min: usize, max: usize, mut f: impl FnMut(&mut Self) -> T) -> Vec<T> {
        let len = self.range_usize(min, max);
        (0..len).map(|_| f(self)).collect()
    }
}

/// Derives a per-case seed from the property name and case index, so every
/// property sees an independent, reproducible stream.
fn case_seed(name: &str, case: u64) -> u64 {
    // FNV-1a over the name, mixed with the case index through SplitMix64.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    SplitMix64::new(h ^ case).next_u64()
}

/// Runs `prop` for `cases` independently seeded inputs. On a failing case
/// the panic is re-raised after reporting the property name and the seed
/// that replays it.
///
/// # Panics
///
/// Re-raises the property's panic on the first failing case.
pub fn run_cases(name: &str, cases: u64, mut prop: impl FnMut(&mut Gen)) {
    for case in 0..cases {
        let seed = case_seed(name, case);
        let outcome = catch_unwind(AssertUnwindSafe(|| prop(&mut Gen::new(seed))));
        if let Err(panic) = outcome {
            // Replay instructions, printed only when a property already failed.
            #[expect(clippy::print_stderr)]
            {
                eprintln!("property `{name}` failed on case {case}: replay with Gen::new({seed})");
            }
            resume_unwind(panic);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_replays_the_same_stream() {
        let mut a = Gen::new(42);
        let mut b = Gen::new(42);
        for _ in 0..100 {
            assert_eq!(a.range(3, 4096), b.range(3, 4096));
        }
    }

    #[test]
    fn range_respects_bounds() {
        let mut g = Gen::new(7);
        for _ in 0..1000 {
            let v = g.range(10, 20);
            assert!((10..20).contains(&v));
        }
    }

    #[test]
    fn vec_length_in_bounds() {
        let mut g = Gen::new(9);
        for _ in 0..100 {
            let v = g.vec(1, 5, |g| g.below(10));
            assert!((1..5).contains(&v.len()));
        }
    }

    #[test]
    fn distinct_properties_get_distinct_seeds() {
        assert_ne!(case_seed("a", 0), case_seed("b", 0));
        assert_ne!(case_seed("a", 0), case_seed("a", 1));
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn failing_property_reports_and_reraises() {
        run_cases("always_fails", 3, |_| panic!("boom"));
    }
}
