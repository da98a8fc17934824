//! Findings, suppression accounting, and the two output formats (human
//! text, machine JSON via `fp_stats::json`).

use std::collections::BTreeMap;

use fp_stats::json::{array, escape, JsonObject};

/// One rule violation at one site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule that fired (one of [`crate::rules::RULES`]).
    pub rule: &'static str,
    /// Repo-relative, forward-slash path.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// What is wrong and what the fix direction is.
    pub message: String,
    /// The pragma reason, when an `allow` pragma suppressed this finding.
    pub allowed: Option<String>,
}

impl Finding {
    /// A fresh, unsuppressed finding.
    pub fn new(rule: &'static str, path: &str, line: usize, message: String) -> Finding {
        Finding {
            rule,
            path: path.to_string(),
            line,
            message,
            allowed: None,
        }
    }

    /// Whether the finding counts against the gate (no pragma suppressed
    /// it).
    pub fn is_unallowed(&self) -> bool {
        self.allowed.is_none()
    }
}

/// A complete lint run: every finding (suppressed or not) plus scan
/// metadata, with deterministic ordering.
#[derive(Debug)]
pub struct Report {
    /// All findings, sorted by (path, line, rule, message).
    pub findings: Vec<Finding>,
    /// Rust files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Sorts findings into the canonical deterministic order.
    pub fn sort(&mut self) {
        self.findings.sort_by(|a, b| {
            (&a.path, a.line, a.rule, &a.message).cmp(&(&b.path, b.line, b.rule, &b.message))
        });
    }

    /// Findings that count against the gate.
    pub fn unallowed(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.is_unallowed())
    }

    /// Gate verdict: `true` when nothing unallowed was found.
    pub fn is_clean(&self) -> bool {
        self.unallowed().next().is_none()
    }

    /// Per-rule pragma-suppression counts — the visible "allow budget"
    /// documented in DESIGN.md §12.
    pub fn allow_budget(&self) -> BTreeMap<&'static str, u64> {
        let mut budget = BTreeMap::new();
        for f in self.findings.iter().filter(|f| !f.is_unallowed()) {
            *budget.entry(f.rule).or_insert(0) += 1;
        }
        budget
    }

    /// The human report: one line per unallowed finding, then a summary.
    pub fn to_text(&self, rules: &[&str]) -> String {
        let mut out = String::new();
        for f in self.unallowed() {
            out.push_str(&format!(
                "{}:{}: {}: {}\n",
                f.path, f.line, f.rule, f.message
            ));
        }
        let unallowed = self.unallowed().count();
        let allowed = self.findings.len() - unallowed;
        out.push_str(&format!(
            "fp-lint: {} file(s), {} rule(s): {unallowed} finding(s), \
             {allowed} allowed by pragma\n",
            self.files_scanned,
            rules.len(),
        ));
        out
    }

    /// The machine report (`results/LINT.json` schema; see
    /// EXPERIMENTS.md). `findings` is the *unallowed* count — the number
    /// the tier-1 gate requires to be zero.
    pub fn to_json(&self, rules: &[&str]) -> String {
        let mut o = JsonObject::new();
        o.field_str("tool", "fp-lint");
        o.field_raw(
            "rules",
            &array(rules.iter().map(|r| format!("\"{}\"", escape(r)))),
        );
        o.field_u64("files_scanned", self.files_scanned as u64);
        let unallowed = self.unallowed().count();
        o.field_u64("findings", unallowed as u64);
        o.field_u64("allowed", (self.findings.len() - unallowed) as u64);
        let mut budget = JsonObject::new();
        for (rule, n) in self.allow_budget() {
            budget.field_u64(rule, n);
        }
        o.field_raw("allow_budget", &budget.finish());
        o.field_raw(
            "unallowed",
            &array(self.unallowed().map(|f| {
                let mut e = JsonObject::new();
                e.field_str("rule", f.rule)
                    .field_str("path", &f.path)
                    .field_u64("line", f.line as u64)
                    .field_str("message", &f.message);
                e.finish()
            })),
        );
        o.field_raw(
            "suppressed",
            &array(self.findings.iter().filter_map(|f| {
                let reason = f.allowed.as_ref()?;
                let mut e = JsonObject::new();
                e.field_str("rule", f.rule)
                    .field_str("path", &f.path)
                    .field_u64("line", f.line as u64)
                    .field_str("reason", reason);
                Some(e.finish())
            })),
        );
        o.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        let mut allowed = Finding::new("hot-path-alloc", "b.rs", 2, "vec!".into());
        allowed.allowed = Some("one-time warm-up".into());
        Report {
            findings: vec![
                Finding::new("poisonable-lock", "a.rs", 7, ".lock().unwrap()".into()),
                allowed,
            ],
            files_scanned: 2,
        }
    }

    #[test]
    fn accounting_splits_allowed_from_unallowed() {
        let r = sample();
        assert_eq!(r.unallowed().count(), 1);
        assert!(!r.is_clean());
        assert_eq!(r.allow_budget().get("hot-path-alloc"), Some(&1));
    }

    #[test]
    fn json_is_valid_and_counts_unallowed_only() {
        let r = sample();
        let s = r.to_json(&["hot-path-alloc", "poisonable-lock"]);
        fp_stats::json::validate(&s).expect("valid JSON");
        assert!(s.contains("\"findings\":1"));
        assert!(s.contains("\"allowed\":1"));
        assert!(s.contains("\"reason\":\"one-time warm-up\""));
    }
}
