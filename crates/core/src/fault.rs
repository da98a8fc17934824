//! Deterministic fault injection over any [`OramEngine`].
//!
//! Fork Path's per-path MAC verification (and the Merkle combination the
//! paper points to for active adversaries, §2.2) is exactly where real
//! hardware surfaces transient memory faults, and Path ORAM carries its own
//! inherent negligible-probability failure mode: stash overflow. The
//! serving layer must *degrade* — not wedge or panic — when a shard hits
//! either. [`FaultInjector`] makes those paths testable and benchmarkable:
//! it wraps any engine from the [`crate::engine`] registry and injects
//!
//! * **transient integrity faults** — with per-access probability
//!   [`FaultConfig::fault_rate`], an access "detects" a flipped
//!   MAC/ciphertext. The injector retries in simulated time (exponential
//!   backoff charged to the engine clock, [`fp_trace::Counter::FaultRetries`]);
//!   a fault that survives [`FaultConfig::max_retries`] re-reads becomes a
//!   hard [`ControllerError::Integrity`], the signal a shard supervisor
//!   turns into fail-fast shutdown.
//! * **forced stash overflow** — [`FaultConfig::overflow_at_access`]
//!   surfaces [`ControllerError::StashOverflow`] at a chosen access index.
//! * **worker panics** — [`FaultConfig::panic_at_access`] panics mid-run,
//!   exercising supervisor `catch_unwind` + mutex-poison recovery.
//! * **latency spikes** — with probability
//!   [`FaultConfig::latency_spike_rate`], a completion's `done_ps` is
//!   pushed out by [`FaultConfig::latency_spike_ps`] (tail-latency noise).
//!
//! Everything is driven by a seeded [`Xoshiro256`] stream, so a run is a
//! pure function of `(workload seed, fault seed)` — reproducing a failure
//! is rerunning it. At `fault_rate == 0.0` with no deterministic triggers,
//! the wrapper is byte-identical to the bare engine (same completions,
//! stats, and clock); a propcheck property pins that.

use fp_crypto::Xoshiro256;
use fp_dram::DramSystem;
use fp_path_oram::{Completion, NewRequest, OramStats, ReactiveSource};
use fp_trace::{Counter, TraceHandle};

use crate::engine::OramEngine;
use crate::error::ControllerError;

/// Fault-injection parameters. `Default` injects nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Seed for the injector's private RNG stream (decorrelated from the
    /// engine's label/workload streams).
    pub seed: u64,
    /// Per-access probability of a transient integrity fault in `[0, 1]`.
    pub fault_rate: f64,
    /// Re-reads attempted before a transient fault is declared hard. With
    /// independent per-retry rolls at rate `p`, an access dies with
    /// probability `p^(max_retries + 1)`.
    pub max_retries: u32,
    /// Simulated-time cost of the first retry, doubled per attempt.
    pub retry_backoff_ps: u64,
    /// Per-completion probability of a latency spike in `[0, 1]`.
    pub latency_spike_rate: f64,
    /// Extra picoseconds added to a spiked completion's `done_ps`.
    pub latency_spike_ps: u64,
    /// Injects an unrecoverable integrity fault on the Nth processed
    /// access (0-based), bypassing the retry loop — a deterministic
    /// shard-killer for supervision tests.
    pub fail_at_access: Option<u64>,
    /// Surfaces a stash overflow on the Nth processed access.
    pub overflow_at_access: Option<u64>,
    /// Panics on the Nth processed access (tests worker panic recovery).
    pub panic_at_access: Option<u64>,
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self {
            seed: 0xFA_017,
            fault_rate: 0.0,
            max_retries: 3,
            retry_backoff_ps: 50_000, // 50 ns: a couple of path re-reads
            latency_spike_rate: 0.0,
            latency_spike_ps: 0,
            fail_at_access: None,
            overflow_at_access: None,
            panic_at_access: None,
        }
    }
}

impl FaultConfig {
    /// A transient-fault profile at `rate` with the default retry budget.
    pub fn transient(seed: u64, rate: f64) -> Self {
        Self {
            seed,
            fault_rate: rate,
            ..Self::default()
        }
    }

    /// Checks rates are probabilities and the retry budget is sane.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.fault_rate) {
            return Err(format!("fault_rate {} outside [0, 1]", self.fault_rate));
        }
        if !(0.0..=1.0).contains(&self.latency_spike_rate) {
            return Err(format!(
                "latency_spike_rate {} outside [0, 1]",
                self.latency_spike_rate
            ));
        }
        if self.fault_rate > 0.0 && self.max_retries == 0 && self.fault_rate >= 1.0 {
            return Err("fault_rate 1.0 with no retries kills the first access".into());
        }
        Ok(())
    }
}

/// A deterministic fault-injecting [`OramEngine`] wrapper.
///
/// Composes over any boxed engine (it is itself an engine, so injectors
/// nest and `Box<dyn OramEngine + Send>` drivers take it unchanged). Counters
/// ([`Counter::FaultsInjected`], [`Counter::FaultRetries`],
/// [`Counter::LatencySpikes`]) land on the wrapped engine's own trace
/// spine, so service-level stats aggregation picks them up for free.
///
/// # Example
///
/// ```
/// use fp_core::{FaultConfig, FaultInjector, OramEngine, Scheme};
/// use fp_dram::{DramConfig, DramSystem};
/// use fp_path_oram::OramConfig;
///
/// let dram = DramSystem::new(DramConfig::ddr3_1600(2));
/// let engine = Scheme::ForkDefault.build(OramConfig::small_test(), dram, 7);
/// let mut faulty = FaultInjector::new(engine, FaultConfig::transient(1, 0.05));
/// // Drive `faulty` exactly like the bare engine.
/// assert_eq!(faulty.clock_ps(), 0);
/// ```
pub struct FaultInjector {
    inner: Box<dyn OramEngine + Send>,
    cfg: FaultConfig,
    rng: Xoshiro256,
    trace: TraceHandle,
    /// Accesses processed (successful `process_one` calls that did work).
    accesses: u64,
    /// Simulated time spent in retry backoff, charged on top of the
    /// wrapped engine's clock.
    penalty_ps: u64,
}

impl FaultInjector {
    /// Wraps `inner`, drawing injection decisions from `cfg.seed`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`FaultConfig::validate`].
    pub fn new(inner: Box<dyn OramEngine + Send>, cfg: FaultConfig) -> Self {
        cfg.validate().expect("invalid fault config");
        let rng = Xoshiro256::new(cfg.seed ^ 0xFA17_ED5E_ED00);
        let trace = inner.trace().clone();
        Self {
            inner,
            cfg,
            rng,
            trace,
            accesses: 0,
            penalty_ps: 0,
        }
    }

    /// Rolls the per-access fault machinery. `Ok(())` means clean or
    /// recovered-by-retry; `Err` is a hard fault the caller propagates.
    fn roll_access_faults(&mut self) -> Result<(), ControllerError> {
        let n = self.accesses;
        if self.cfg.panic_at_access == Some(n) {
            self.trace.bump(Counter::FaultsInjected);
            panic!("injected worker panic at access {n}");
        }
        if self.cfg.overflow_at_access == Some(n) {
            self.trace.bump(Counter::FaultsInjected);
            let occupancy = self.inner.stash_high_water() + 1;
            return Err(ControllerError::StashOverflow {
                occupancy,
                capacity: self.inner.stash_high_water(),
            });
        }
        if self.cfg.fail_at_access == Some(n) {
            self.trace.bump(Counter::FaultsInjected);
            return Err(ControllerError::Integrity { node: n });
        }
        if self.cfg.fault_rate > 0.0 && self.rng.gen_bool(self.cfg.fault_rate) {
            // Transient fault detected on this access's path read: re-read
            // (simulated as backoff time) until clean or out of budget.
            self.trace.bump(Counter::FaultsInjected);
            for attempt in 0..self.cfg.max_retries {
                self.trace.bump(Counter::FaultRetries);
                self.penalty_ps += self.cfg.retry_backoff_ps << attempt;
                if !self.rng.gen_bool(self.cfg.fault_rate) {
                    return Ok(()); // re-read came back clean
                }
            }
            return Err(ControllerError::Integrity { node: n });
        }
        Ok(())
    }
}

impl OramEngine for FaultInjector {
    fn submit(&mut self, req: NewRequest) -> Result<u64, ControllerError> {
        self.inner.submit(req)
    }

    fn submit_batch(&mut self, batch: Vec<NewRequest>) -> Result<Vec<u64>, ControllerError> {
        self.inner.submit_batch(batch)
    }

    fn process_one(&mut self, source: &mut dyn ReactiveSource) -> Result<bool, ControllerError> {
        let did = self.inner.process_one(source)?;
        if did {
            self.roll_access_faults()?;
            self.accesses += 1;
        }
        Ok(did)
    }

    fn drain_completions(&mut self) -> Vec<Completion> {
        let mut done = self.inner.drain_completions();
        if self.cfg.latency_spike_rate > 0.0 {
            for c in &mut done {
                if self.rng.gen_bool(self.cfg.latency_spike_rate) {
                    c.done_ps += self.cfg.latency_spike_ps;
                    self.trace.bump(Counter::LatencySpikes);
                }
            }
        }
        done
    }

    fn has_pending_work(&self) -> bool {
        self.inner.has_pending_work()
    }

    fn clock_ps(&self) -> u64 {
        self.inner.clock_ps() + self.penalty_ps
    }

    fn stats(&self) -> OramStats {
        self.inner.stats()
    }

    fn trace(&self) -> &TraceHandle {
        self.inner.trace()
    }

    fn set_trace_capacity(&mut self, capacity: usize) {
        self.inner.set_trace_capacity(capacity);
    }

    fn dram(&self) -> &DramSystem {
        self.inner.dram()
    }

    fn stash_high_water(&self) -> usize {
        self.inner.stash_high_water()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Scheme;
    use fp_dram::DramConfig;
    use fp_path_oram::OramConfig;

    fn engine(scheme: Scheme, seed: u64) -> Box<dyn OramEngine + Send> {
        let dram = DramSystem::new(DramConfig::ddr3_1600(2));
        scheme.build(OramConfig::small_test(), dram, seed)
    }

    #[test]
    fn rate_zero_is_transparent() {
        let mut bare = engine(Scheme::ForkDefault, 7);
        let mut wrapped =
            FaultInjector::new(engine(Scheme::ForkDefault, 7), FaultConfig::default());
        for i in 0..64u64 {
            bare.submit(NewRequest::read(i % 13, i * 1000)).unwrap();
            wrapped.submit(NewRequest::read(i % 13, i * 1000)).unwrap();
        }
        let a = bare.run_to_idle().unwrap();
        let b = wrapped.run_to_idle().unwrap();
        assert_eq!(a, b);
        assert_eq!(bare.clock_ps(), wrapped.clock_ps());
        assert_eq!(
            wrapped.trace().counter(Counter::FaultsInjected),
            0,
            "nothing injected at rate 0"
        );
    }

    #[test]
    fn transient_faults_retry_and_charge_time() {
        let mut faulty = FaultInjector::new(
            engine(Scheme::Traditional, 7),
            FaultConfig {
                seed: 3,
                fault_rate: 0.3,
                max_retries: 8, // deep budget: survival near-certain
                ..FaultConfig::default()
            },
        );
        for i in 0..128u64 {
            faulty.submit(NewRequest::read(i % 17, 0)).unwrap();
        }
        let done = faulty.run_to_idle().unwrap();
        assert_eq!(done.len(), 128, "all requests survive via retries");
        let injected = faulty.trace().counter(Counter::FaultsInjected);
        let retries = faulty.trace().counter(Counter::FaultRetries);
        assert!(injected > 0, "rate 0.3 over 128+ accesses must fire");
        assert!(retries >= injected, "every fault costs at least one retry");
        assert!(faulty.penalty_ps > 0);
        assert_eq!(
            faulty.clock_ps(),
            faulty.inner.clock_ps() + faulty.penalty_ps
        );
    }

    #[test]
    fn hard_fault_surfaces_integrity_error() {
        let mut faulty = FaultInjector::new(
            engine(Scheme::ForkDefault, 7),
            FaultConfig {
                fail_at_access: Some(2),
                ..FaultConfig::default()
            },
        );
        for i in 0..8u64 {
            faulty.submit(NewRequest::read(i, 0)).unwrap();
        }
        let err = faulty.run_to_idle().unwrap_err();
        assert!(
            matches!(err, ControllerError::Integrity { node: 2 }),
            "{err}"
        );
        assert_eq!(faulty.trace().counter(Counter::FaultsInjected), 1);
    }

    #[test]
    fn forced_overflow_surfaces_stash_overflow() {
        let mut faulty = FaultInjector::new(
            engine(Scheme::Traditional, 7),
            FaultConfig {
                overflow_at_access: Some(0),
                ..FaultConfig::default()
            },
        );
        faulty.submit(NewRequest::read(1, 0)).unwrap();
        let err = faulty.run_to_idle().unwrap_err();
        assert!(
            matches!(err, ControllerError::StashOverflow { .. }),
            "{err}"
        );
    }

    #[test]
    fn injected_panic_fires() {
        let mut faulty = FaultInjector::new(
            engine(Scheme::ForkDefault, 7),
            FaultConfig {
                panic_at_access: Some(1),
                ..FaultConfig::default()
            },
        );
        for i in 0..4u64 {
            faulty.submit(NewRequest::read(i, 0)).unwrap();
        }
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| faulty.run_to_idle()));
        assert!(r.is_err(), "access 1 must panic");
    }

    #[test]
    fn latency_spikes_shift_completions() {
        let mk = |spike_rate: f64| {
            let mut e = FaultInjector::new(
                engine(Scheme::Traditional, 7),
                FaultConfig {
                    seed: 11,
                    latency_spike_rate: spike_rate,
                    latency_spike_ps: 5_000_000,
                    ..FaultConfig::default()
                },
            );
            for i in 0..32u64 {
                e.submit(NewRequest::read(i, 0)).unwrap();
            }
            let done = e.run_to_idle().unwrap();
            let spikes = e.trace().counter(Counter::LatencySpikes);
            (done, spikes)
        };
        let (clean, s0) = mk(0.0);
        let (spiked, s1) = mk(0.5);
        assert_eq!(s0, 0);
        assert!(s1 > 0);
        let shifted = clean
            .iter()
            .zip(&spiked)
            .filter(|(a, b)| b.done_ps == a.done_ps + 5_000_000)
            .count() as u64;
        assert_eq!(shifted, s1, "each spike shifts exactly one completion");
    }

    #[test]
    fn config_validation_rejects_bad_rates() {
        assert!(FaultConfig::transient(0, 1.5).validate().is_err());
        assert!(FaultConfig {
            latency_spike_rate: -0.1,
            ..FaultConfig::default()
        }
        .validate()
        .is_err());
        assert!(FaultConfig::transient(0, 0.01).validate().is_ok());
    }
}
