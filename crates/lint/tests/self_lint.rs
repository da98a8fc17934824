//! Meta-tests: the workspace must lint clean, and its suppressions must
//! stay visible in the report.

use std::path::{Path, PathBuf};

use fp_lint::{workspace, RULES};

/// The repository root (two levels above this crate's manifest).
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .canonicalize()
        .expect("repo root")
}

/// The linter must report zero unallowed findings on its own repository —
/// the same verdict `scripts/tier1.sh` gates on.
#[test]
fn workspace_lints_clean() {
    let report = workspace::lint_workspace(&repo_root()).expect("lint the workspace");
    let offenders: Vec<String> = report
        .unallowed()
        .map(|f| format!("{}:{}: {}: {}", f.path, f.line, f.rule, f.message))
        .collect();
    assert!(
        offenders.is_empty(),
        "unallowed findings:\n{}",
        offenders.join("\n")
    );
    assert!(
        report.files_scanned > 100,
        "walker must see the whole workspace"
    );

    let json = report.to_json(&RULES);
    fp_stats::json::validate(&json).expect("report JSON is valid");
    assert!(
        json.contains("\"findings\":0"),
        "the tier-1 grep must match"
    );
    assert!(json.contains("\"tool\":\"fp-lint\""));
}

/// The suppression budget stays visible: the run must record the
/// pragma-allowed sites (the output buffer and the two scratch warm-ups of
/// `DramSystem::access_batch`), not silently skip them.
#[test]
fn allow_budget_accounts_for_known_exemptions() {
    let report = workspace::lint_workspace(&repo_root()).expect("lint the workspace");
    let budget = report.allow_budget();
    assert!(budget.get("hot-path-alloc").copied().unwrap_or(0) >= 3);
}
