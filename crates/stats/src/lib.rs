//! # fp-stats
//!
//! Statistical tests used to audit the ORAM's externally visible behaviour
//! (§3.6's security arguments) and to analyse simulation output:
//!
//! * [`chi_square_uniform`] / [`chi_square_two_sample`] — goodness-of-fit
//!   and two-sample tests over histograms, with critical values from the
//!   Wilson–Hilferty approximation ([`chi_square_critical`]).
//! * [`ks_uniform`] — Kolmogorov–Smirnov distance of a sample from the
//!   uniform distribution on `[0, 1)`.
//! * [`autocorrelation`] — lag-k serial correlation, for detecting
//!   structure in label sequences.
//!
//! All tests are implemented from scratch (no external stats dependency)
//! and are deliberately conservative: thresholds target the 99.9th
//! percentile so randomized CI runs stay deterministic in practice.

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]
#![deny(clippy::allow_attributes)]
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]
#![warn(missing_docs)]

pub mod json;

/// Chi-square statistic of observed counts against a uniform expectation.
///
/// # Panics
///
/// Panics if `counts` is empty or all-zero.
pub fn chi_square_uniform(counts: &[u64]) -> f64 {
    assert!(!counts.is_empty(), "no bins");
    let total: u64 = counts.iter().sum();
    assert!(total > 0, "no samples");
    let expected = total as f64 / counts.len() as f64;
    counts
        .iter()
        .map(|&c| {
            let d = c as f64 - expected;
            d * d / expected
        })
        .sum()
}

/// Two-sample chi-square statistic over paired histograms (pooled
/// expectation). Degrees of freedom = `bins - 1`.
///
/// # Panics
///
/// Panics if the histograms differ in length or either is empty.
pub fn chi_square_two_sample(a: &[u64], b: &[u64]) -> f64 {
    assert_eq!(a.len(), b.len(), "bin mismatch");
    let (na, nb) = (a.iter().sum::<u64>() as f64, b.iter().sum::<u64>() as f64);
    assert!(na > 0.0 && nb > 0.0, "empty sample");
    let mut chi2 = 0.0;
    for (&ca, &cb) in a.iter().zip(b) {
        let pooled = (ca + cb) as f64 / (na + nb);
        if pooled == 0.0 {
            continue;
        }
        let (ea, eb) = (pooled * na, pooled * nb);
        chi2 += (ca as f64 - ea).powi(2) / ea + (cb as f64 - eb).powi(2) / eb;
    }
    chi2
}

/// Approximate upper quantile of the chi-square distribution with `dof`
/// degrees of freedom (Wilson–Hilferty): `z` is the standard-normal
/// quantile (e.g. 3.09 for 99.9 %).
pub fn chi_square_critical(dof: f64, z: f64) -> f64 {
    let a = 2.0 / (9.0 * dof);
    dof * (1.0 - a + z * a.sqrt()).powi(3)
}

/// Kolmogorov–Smirnov distance of `samples` (values in `[0, 1)`) from the
/// uniform distribution. Compare against `ks_critical`.
pub fn ks_uniform(samples: &mut [f64]) -> f64 {
    assert!(!samples.is_empty(), "no samples");
    samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let n = samples.len() as f64;
    let mut d = 0.0f64;
    for (i, &x) in samples.iter().enumerate() {
        let cdf = x.clamp(0.0, 1.0);
        let hi = (i as f64 + 1.0) / n - cdf;
        let lo = cdf - i as f64 / n;
        d = d.max(hi).max(lo);
    }
    d
}

/// Approximate KS critical value at significance `alpha` for `n` samples
/// (asymptotic formula `c(alpha) / sqrt(n)`).
pub fn ks_critical(n: usize, alpha: f64) -> f64 {
    let c = (-(alpha / 2.0).ln() / 2.0).sqrt();
    c / (n as f64).sqrt()
}

/// Lag-`k` autocorrelation coefficient of a series.
///
/// Returns 0 for degenerate inputs (constant series or too short).
pub fn autocorrelation(series: &[f64], lag: usize) -> f64 {
    if series.len() <= lag + 1 {
        return 0.0;
    }
    let n = series.len();
    let mean = series.iter().sum::<f64>() / n as f64;
    let var = series.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
    if var == 0.0 {
        return 0.0;
    }
    let cov = (0..n - lag)
        .map(|i| (series[i] - mean) * (series[i + lag] - mean))
        .sum::<f64>()
        / (n - lag) as f64;
    cov / var
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lcg(seed: u64) -> impl FnMut() -> f64 {
        let mut s = seed;
        move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    #[test]
    fn chi_square_accepts_uniform_rejects_skew() {
        let mut rng = lcg(1);
        let mut counts = [0u64; 16];
        for _ in 0..16_000 {
            counts[(rng() * 16.0) as usize % 16] += 1;
        }
        let crit = chi_square_critical(15.0, 3.09);
        assert!(chi_square_uniform(&counts) < crit);

        let skewed = [5000u64, 100, 100, 100, 100, 100, 100, 100];
        assert!(chi_square_uniform(&skewed) > chi_square_critical(7.0, 3.09));
    }

    #[test]
    fn two_sample_chi_square_symmetry_and_null() {
        let a = [100u64, 110, 95, 105];
        let b = [102u64, 98, 107, 93];
        let ab = chi_square_two_sample(&a, &b);
        let ba = chi_square_two_sample(&b, &a);
        assert!((ab - ba).abs() < 1e-9);
        assert!(ab < chi_square_critical(3.0, 3.09));
        let c = [400u64, 10, 10, 10];
        assert!(chi_square_two_sample(&a, &c) > chi_square_critical(3.0, 3.09));
    }

    #[test]
    fn wilson_hilferty_matches_known_values() {
        // chi2(0.999; 15) ~ 37.70, chi2(0.999; 7) ~ 24.32.
        assert!((chi_square_critical(15.0, 3.09) - 37.7).abs() < 1.0);
        assert!((chi_square_critical(7.0, 3.09) - 24.3).abs() < 1.0);
    }

    #[test]
    fn ks_uniform_behaviour() {
        let mut rng = lcg(7);
        let mut uniform: Vec<f64> = (0..2000).map(|_| rng()).collect();
        let d = ks_uniform(&mut uniform);
        assert!(d < ks_critical(2000, 0.001), "d={d}");

        let mut clustered: Vec<f64> = (0..2000).map(|_| rng() * 0.5).collect();
        let d = ks_uniform(&mut clustered);
        assert!(d > ks_critical(2000, 0.001));
    }

    #[test]
    fn autocorrelation_detects_structure() {
        let mut rng = lcg(3);
        let noise: Vec<f64> = (0..4000).map(|_| rng()).collect();
        assert!(autocorrelation(&noise, 1).abs() < 0.06);

        let trend: Vec<f64> = (0..4000).map(|i| (i as f64 / 50.0).sin()).collect();
        assert!(autocorrelation(&trend, 1) > 0.9);

        let constant = vec![1.0; 100];
        assert_eq!(autocorrelation(&constant, 1), 0.0);
        assert_eq!(autocorrelation(&[1.0], 5), 0.0);
    }

    #[test]
    #[should_panic(expected = "no bins")]
    fn chi_square_rejects_empty() {
        let _ = chi_square_uniform(&[]);
    }
}
