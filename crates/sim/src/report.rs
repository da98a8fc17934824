//! Result reporting: CSV and JSON emitters for experiment sweeps.
//!
//! The figure binaries print human-readable rows; these helpers produce
//! machine-readable artifacts (`results/*.csv`) so plots and regression
//! comparisons don't re-run simulations.

use std::fmt::Write as _;

use fp_stats::json::{self, JsonObject};

use crate::experiment::SweepOutcome;
use crate::metrics::{results_to_json, RunResult};

/// Escapes one CSV field (quotes when needed).
fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Renders results as CSV with a fixed, documented column set.
pub fn to_csv(results: &[RunResult]) -> String {
    let mut out = String::from(
        "scheme,workload,oram_latency_ns,avg_path_len,dram_busy_ns_per_access,\
         llc_requests,oram_accesses,real_accesses,dummy_accesses,dummies_replaced,\
         exec_time_ps,energy_pj,row_hit_rate,dram_blocks_read,dram_blocks_written,\
         stash_high_water\n",
    );
    for r in results {
        let _ = writeln!(
            out,
            "{},{},{:.3},{:.4},{:.3},{},{},{},{},{},{},{},{:.4},{},{},{}",
            csv_field(&r.scheme),
            csv_field(&r.workload),
            r.oram_latency_ns,
            r.avg_path_len,
            r.dram_busy_ns_per_access,
            r.llc_requests,
            r.oram_accesses,
            r.real_accesses,
            r.dummy_accesses,
            r.dummies_replaced,
            r.exec_time_ps,
            r.energy.total_pj(),
            r.row_hit_rate,
            r.dram_blocks_read,
            r.dram_blocks_written,
            r.stash_high_water,
        );
    }
    out
}

/// Renders a labeled set of sweep outcomes as one validated JSON report.
///
/// Every [`SweepOutcome`]'s failures land in a per-sweep `failed_mixes`
/// array (plus an aggregate `failed_total`), so a report with missing rows
/// says *which* mixes are missing and why — previously that information
/// only scrolled by on stderr and was lost from the artifact.
pub fn sweep_to_json(name: &str, sweeps: &[(String, &SweepOutcome)]) -> String {
    let sweep_objs = sweeps.iter().map(|(label, outcome)| {
        JsonObject::new()
            .field_str("label", label)
            .field_raw("results", &results_to_json(&outcome.results))
            .field_raw(
                "failed_mixes",
                &json::array(outcome.failures.iter().map(|f| {
                    JsonObject::new()
                        .field_str("mix", &f.mix)
                        .field_str("error", &f.error)
                        .finish()
                })),
            )
            .finish()
    });
    let failed_total: u64 = sweeps.iter().map(|(_, o)| o.failures.len() as u64).sum();
    let report = JsonObject::new()
        .field_str("report", name)
        .field_u64("failed_total", failed_total)
        .field_raw("sweeps", &json::array(sweep_objs))
        .finish();
    json::validate(&report).expect("sweep report emitted invalid JSON");
    report
}

/// Writes `content` under `results/` (creating the directory), returning
/// the path written.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_results_file(name: &str, content: &str) -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::Path::new("results");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(name);
    std::fs::write(&path, content)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(scheme: &str, workload: &str, lat: f64) -> RunResult {
        RunResult {
            scheme: scheme.into(),
            workload: workload.into(),
            oram_latency_ns: lat,
            avg_path_len: 25.0,
            dram_busy_ns_per_access: 10.0,
            llc_requests: 100,
            oram_accesses: 400,
            real_accesses: 400,
            dummy_accesses: 0,
            dummies_replaced: 0,
            exec_time_ps: 123,
            energy: Default::default(),
            row_hit_rate: 0.5,
            dram_blocks_read: 1,
            dram_blocks_written: 2,
            stash_high_water: 3,
            sched_ready_reals: 0.0,
        }
    }

    #[test]
    fn csv_has_header_and_rows() {
        let csv = to_csv(&[result("fork", "Mix1", 10.0), result("trad", "Mix2", 20.0)]);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("scheme,workload,"));
        assert!(lines[1].starts_with("fork,Mix1,10.000"));
        assert_eq!(lines[1].split(',').count(), lines[0].split(',').count());
    }

    #[test]
    fn csv_escapes_commas_and_quotes() {
        assert_eq!(csv_field("plain"), "plain");
        assert_eq!(csv_field("a,b"), "\"a,b\"");
        assert_eq!(csv_field("say \"hi\""), "\"say \"\"hi\"\"\"");
    }

    #[test]
    fn sweep_json_records_failures() {
        use crate::experiment::MixFailure;
        let outcome = SweepOutcome {
            results: vec![result("fork", "Mix1", 10.0)],
            failures: vec![MixFailure {
                mix: "Mix2".into(),
                error: "stash overflow: \"cap\" hit".into(),
            }],
        };
        let clean = SweepOutcome {
            results: vec![result("trad", "Mix1", 20.0)],
            failures: vec![],
        };
        let s = sweep_to_json(
            "fig14",
            &[("fork".to_string(), &outcome), ("trad".to_string(), &clean)],
        );
        json::validate(&s).unwrap();
        assert!(s.contains("\"failed_total\":1"));
        assert!(s.contains("\"mix\":\"Mix2\""));
        assert!(s.contains("stash overflow"));
        assert!(
            s.contains("\"failed_mixes\":[]"),
            "clean sweeps record none"
        );
    }
}
