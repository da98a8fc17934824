//! Per-run result record: every metric the paper's figures report.

use fp_stats::json::{self, JsonObject};

use crate::energy::EnergyBreakdown;

/// The outcome of one (scheme, workload) simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Scheme label (see [`crate::Scheme::label`]).
    pub scheme: String,
    /// Workload name.
    pub workload: String,
    /// Average data-request ORAM latency, nanoseconds — the paper's primary
    /// metric: completion time of an LLC request since entering the
    /// controller (queueing included).
    pub oram_latency_ns: f64,
    /// Average buckets touched per phase (Fig 10; traditional = `L + 1`).
    pub avg_path_len: f64,
    /// Average DRAM busy time per ORAM access, nanoseconds (Fig 10's
    /// second series).
    pub dram_busy_ns_per_access: f64,
    /// LLC requests completed.
    pub llc_requests: u64,
    /// Total ORAM accesses (real + dummy) — Fig 11's numerator.
    pub oram_accesses: u64,
    /// Real ORAM accesses.
    pub real_accesses: u64,
    /// Dummy ORAM accesses executed.
    pub dummy_accesses: u64,
    /// Pending dummies replaced by late real requests (§3.3).
    pub dummies_replaced: u64,
    /// End-to-end execution time, picoseconds (Fig 14's numerator).
    pub exec_time_ps: u64,
    /// Energy breakdown (Fig 15).
    pub energy: EnergyBreakdown,
    /// DRAM row-buffer hit rate.
    pub row_hit_rate: f64,
    /// Blocks moved from DRAM.
    pub dram_blocks_read: u64,
    /// Blocks moved to DRAM.
    pub dram_blocks_written: u64,
    /// Stash high-water mark.
    pub stash_high_water: usize,
    /// Mean schedulable real requests per scheduling round (diagnostic).
    pub sched_ready_reals: f64,
}

impl RunResult {
    /// Total energy in millijoules.
    pub fn energy_mj(&self) -> f64 {
        self.energy.total_mj()
    }

    /// ORAM requests normalized to real requests (Fig 11 is this value
    /// relative to the baseline run). An empty run (no real accesses)
    /// reports 0.0 — "no data" — rather than a fake neutral ratio that
    /// would silently pull geomeans toward 1.
    pub fn request_inflation(&self) -> f64 {
        if self.real_accesses == 0 {
            0.0
        } else {
            self.oram_accesses as f64 / self.real_accesses as f64
        }
    }

    /// Renders the record as a JSON object (hermetic hand-rolled emission
    /// via [`fp_stats::json`]; the workspace carries no serde dependency).
    pub(crate) fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        o.field_str("scheme", &self.scheme)
            .field_str("workload", &self.workload)
            .field_f64("oram_latency_ns", self.oram_latency_ns)
            .field_f64("avg_path_len", self.avg_path_len)
            .field_f64("dram_busy_ns_per_access", self.dram_busy_ns_per_access)
            .field_u64("llc_requests", self.llc_requests)
            .field_u64("oram_accesses", self.oram_accesses)
            .field_u64("real_accesses", self.real_accesses)
            .field_u64("dummy_accesses", self.dummy_accesses)
            .field_u64("dummies_replaced", self.dummies_replaced)
            .field_u64("exec_time_ps", self.exec_time_ps)
            .field_f64("energy_pj", self.energy.total_pj() as f64)
            .field_f64("row_hit_rate", self.row_hit_rate)
            .field_u64("dram_blocks_read", self.dram_blocks_read)
            .field_u64("dram_blocks_written", self.dram_blocks_written)
            .field_u64("stash_high_water", self.stash_high_water as u64)
            .field_f64("sched_ready_reals", self.sched_ready_reals);
        o.finish()
    }
}

/// Renders a result list as a JSON array (one object per run).
pub(crate) fn results_to_json(results: &[RunResult]) -> String {
    json::array(results.iter().map(RunResult::to_json))
}

/// Geometric mean of a series (the paper reports geomeans for its
/// sensitivity studies). Non-positive entries — the "no data" markers
/// empty runs produce — are skipped instead of poisoning the mean with
/// `ln(0) = -inf`; an all-empty series reports 0.0.
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut log_sum = 0.0;
    let mut n = 0usize;
    for v in values {
        if v > 0.0 {
            log_sum += v.ln();
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        (log_sum / n as f64).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean([4.0, 1.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(std::iter::empty()), 0.0);
        let g = geomean([2.0, 8.0]);
        assert!((g - 4.0).abs() < 1e-12);
    }

    #[test]
    fn geomean_skips_empty_run_markers() {
        // 0.0 entries (empty runs) must not drag the mean to 0 or -inf.
        let g = geomean([2.0, 0.0, 8.0]);
        assert!((g - 4.0).abs() < 1e-12, "{g}");
        assert_eq!(geomean([0.0, 0.0]), 0.0);
        let g = geomean([-1.0, 9.0]);
        assert!(g.is_finite() && (g - 9.0).abs() < 1e-12);
    }

    #[test]
    fn json_emission_is_wellformed() {
        let r = RunResult {
            scheme: "fork \"best\"".into(),
            workload: "Mix1".into(),
            oram_latency_ns: 12.5,
            avg_path_len: 18.0,
            dram_busy_ns_per_access: 3.0,
            llc_requests: 10,
            oram_accesses: 40,
            real_accesses: 40,
            dummy_accesses: 0,
            dummies_replaced: 0,
            exec_time_ps: 99,
            energy: Default::default(),
            row_hit_rate: 0.5,
            dram_blocks_read: 1,
            dram_blocks_written: 2,
            stash_high_water: 3,
            sched_ready_reals: 1.5,
        };
        let j = r.to_json();
        assert!(j.starts_with("{\"scheme\":\"fork \\\"best\\\"\""), "{j}");
        assert!(j.contains("\"oram_latency_ns\":12.5"), "{j}");
        assert!(j.contains("\"stash_high_water\":3"), "{j}");
        let arr = results_to_json(&[r.clone(), r]);
        assert!(arr.starts_with('[') && arr.ends_with(']'));
        assert_eq!(arr.matches("\"workload\":\"Mix1\"").count(), 2);
    }

    #[test]
    fn request_inflation_handles_zero() {
        let r = RunResult {
            scheme: "s".into(),
            workload: "w".into(),
            oram_latency_ns: 1.0,
            avg_path_len: 25.0,
            dram_busy_ns_per_access: 0.0,
            llc_requests: 0,
            oram_accesses: 0,
            real_accesses: 0,
            dummy_accesses: 0,
            dummies_replaced: 0,
            exec_time_ps: 0,
            energy: Default::default(),
            row_hit_rate: 0.0,
            dram_blocks_read: 0,
            dram_blocks_written: 0,
            stash_high_water: 0,
            sched_ready_reals: 0.0,
        };
        // An empty run reports 0.0 (no data), not a neutral-looking 1.0
        // that would bias baseline-relative geomeans.
        assert_eq!(r.request_inflation(), 0.0);
    }
}
