//! Sweep helpers behind `repro`, the figure-regeneration binary.

use std::thread;

use fp_workloads::cpu::{MultiCoreWorkload, PipelineKind};
use fp_workloads::mixes::Mix;

use crate::config::{Scheme, SystemConfig};
use crate::metrics::RunResult;
use crate::system::run_workload;

/// How many LLC misses each core issues per run. The figure binaries use
/// [`MissBudget::Full`]; tests and `--fast` mode shrink it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MissBudget {
    /// Full-length runs (paper-scale trends; a few seconds per run).
    Full,
    /// Abbreviated runs for CI / `--fast`.
    Fast,
}

/// Parses a `--trace <path>` argument pair: the path the caller should
/// write the trace-spine JSON dump to (`None` when absent). Used by the
/// smoke example and the figure binaries that support trace dumps.
pub fn trace_path_from_args(args: &[String]) -> Option<std::path::PathBuf> {
    let i = args.iter().position(|a| a == "--trace")?;
    args.get(i + 1).map(std::path::PathBuf::from)
}

impl MissBudget {
    /// Misses per core.
    pub fn misses_per_core(self) -> u64 {
        match self {
            MissBudget::Full => 2_000,
            MissBudget::Fast => 250,
        }
    }

    /// Parses `--fast` style argv.
    pub fn from_args(args: &[String]) -> Self {
        if args.iter().any(|a| a == "--fast") {
            MissBudget::Fast
        } else {
            MissBudget::Full
        }
    }
}

/// Builds the workload for a mix under the given budget.
pub fn mix_workload(mix: &Mix, budget: MissBudget, seed: u64) -> MultiCoreWorkload {
    MultiCoreWorkload::from_mix(mix, budget.misses_per_core(), seed)
}

/// One mix that failed during a sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MixFailure {
    /// Mix name (Table 2).
    pub mix: String,
    /// The panic message of the failed run.
    pub error: String,
}

/// The full outcome of a sweep: surviving results in mix order plus a
/// record of every mix that failed. A sweep report built from this cannot
/// silently present nine rows as if the sweep had been ten-for-ten.
#[derive(Debug, Clone, Default)]
pub struct SweepOutcome {
    /// Successful runs, in mix order.
    pub results: Vec<RunResult>,
    /// Mixes whose runs panicked, in mix order.
    pub failures: Vec<MixFailure>,
}

impl SweepOutcome {
    /// Looks up the surviving result for `workload`.
    pub fn result_for(&self, workload: &str) -> Option<&RunResult> {
        self.results.iter().find(|r| r.workload == workload)
    }
}

/// Runs one scheme over the given mixes (in parallel; every Table 2 mix is
/// `fp_workloads::mixes::all()`), returning the surviving results in mix
/// order with workload names filled in, and the failed mixes.
///
/// A mix whose run panics is echoed to stderr and recorded as a
/// [`MixFailure`]; the remaining mixes still land (a sweep must not lose
/// hours of results to one bad configuration). Report writers consume the
/// whole [`SweepOutcome`], so failures reach the artifact.
pub fn run_mixes(
    cfg: &SystemConfig,
    scheme: &Scheme,
    budget: MissBudget,
    mixes: &[Mix],
) -> SweepOutcome {
    thread::scope(|s| {
        let handles: Vec<_> = mixes
            .iter()
            .map(|mix| {
                let cfg = cfg.clone();
                let scheme = scheme.clone();
                let handle = s.spawn(move || {
                    let wl = mix_workload(mix, budget, cfg.seed ^ 0x5eed);
                    let mut r = run_workload(&cfg, scheme, wl);
                    r.workload = mix.name.to_string();
                    r
                });
                (mix.name, handle)
            })
            .collect();
        let mut outcome = SweepOutcome::default();
        for (name, h) in handles {
            match h.join() {
                Ok(r) => outcome.results.push(r),
                Err(panic) => {
                    let msg = panic
                        .downcast_ref::<String>()
                        .map(String::as_str)
                        .or_else(|| panic.downcast_ref::<&str>().copied())
                        .unwrap_or("unknown panic");
                    // Operator warning; the failure is also recorded in
                    // MixFailure for the JSON report.
                    #[expect(clippy::print_stderr)]
                    {
                        eprintln!(
                            "warning: mix {name} failed: {msg}; continuing with remaining mixes"
                        );
                    }
                    outcome.failures.push(MixFailure {
                        mix: name.to_string(),
                        error: msg.to_string(),
                    });
                }
            }
        }
        outcome
    })
}

/// Runs one scheme on one mix.
pub fn run_mix(cfg: &SystemConfig, scheme: &Scheme, mix: &Mix, budget: MissBudget) -> RunResult {
    let wl = mix_workload(mix, budget, cfg.seed ^ 0x5eed);
    let mut r = run_workload(cfg, scheme.clone(), wl);
    r.workload = mix.name.to_string();
    r
}

/// Runs a scheme over the mixes with an explicit pipeline kind and core
/// subset (Figs 16/17a).
pub fn run_mix_with_pipeline(
    cfg: &SystemConfig,
    scheme: &Scheme,
    mix: &Mix,
    pipeline: PipelineKind,
    cores: usize,
    budget: MissBudget,
) -> RunResult {
    let programs: Vec<_> = mix.programs.iter().cycle().take(cores).cloned().collect();
    let wl = MultiCoreWorkload::from_profiles(
        &programs,
        pipeline,
        budget.misses_per_core(),
        cfg.seed ^ 0x5eed,
    );
    let mut r = run_workload(cfg, scheme.clone(), wl);
    r.workload = format!("{}x{}", mix.name, cores);
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_parsing() {
        assert_eq!(MissBudget::from_args(&["--fast".into()]), MissBudget::Fast);
        assert_eq!(MissBudget::from_args(&[]), MissBudget::Full);
        assert!(MissBudget::Full.misses_per_core() > MissBudget::Fast.misses_per_core());
    }

    #[test]
    fn trace_arg_parsing() {
        let args: Vec<String> = vec!["--fast".into(), "--trace".into(), "t.json".into()];
        assert_eq!(
            trace_path_from_args(&args),
            Some(std::path::PathBuf::from("t.json"))
        );
        assert_eq!(trace_path_from_args(&args[..2]), None);
        assert_eq!(trace_path_from_args(&[]), None);
    }

    #[test]
    fn one_panicking_mix_does_not_sink_the_sweep() {
        // Regression: the sweep used to `h.join().expect(...)`, so a
        // single bad configuration (e.g. a working set exceeding the ORAM
        // capacity) re-panicked on the collector thread and threw away every
        // other mix's result. Pre-fix this test dies; post-fix the surviving
        // mix still lands and the failure is reported on stderr.
        let cfg = SystemConfig::fast_test();
        let mut good = fp_workloads::mixes::all()[4].clone();
        good.name = "GoodMix";
        for p in &mut good.programs {
            p.working_set_blocks = 1 << 12;
        }
        let mut bad = good.clone();
        bad.name = "BadMix";
        for p in &mut bad.programs {
            // Far beyond the fast_test ORAM capacity: run_workload panics.
            p.working_set_blocks = 1 << 40;
        }
        let outcome = run_mixes(&cfg, &Scheme::ForkDefault, MissBudget::Fast, &[good, bad]);
        assert_eq!(outcome.results.len(), 1, "the healthy mix must survive");
        assert_eq!(outcome.results[0].workload, "GoodMix");
        assert!(outcome.results[0].oram_latency_ns > 0.0);
        // The failure is *recorded*, not just printed: sweep reports carry
        // it into their JSON artifact.
        assert_eq!(outcome.failures.len(), 1);
        assert_eq!(outcome.failures[0].mix, "BadMix");
        assert!(!outcome.failures[0].error.is_empty());
        assert!(outcome.result_for("GoodMix").is_some());
        assert!(outcome.result_for("BadMix").is_none());
    }

    #[test]
    fn run_mix_fills_workload_name() {
        let cfg = SystemConfig::fast_test();
        // Shrink a light mix to fit the fast config.
        let mut mix = fp_workloads::mixes::all()[4].clone();
        for p in &mut mix.programs {
            p.working_set_blocks = 1 << 12;
        }
        let r = run_mix(&cfg, &Scheme::ForkDefault, &mix, MissBudget::Fast);
        assert_eq!(r.workload, "Mix5");
        assert!(r.oram_latency_ns > 0.0);
    }
}
