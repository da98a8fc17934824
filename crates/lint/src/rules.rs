//! The rule engine and the rules.
//!
//! Each rule guards an invariant that no type, declaration, rustc lint or
//! clippy lint can state (DESIGN.md §12 lists the ones that can, and where
//! they are held instead):
//!
//! | Rule | Invariant |
//! |---|---|
//! | `hot-path-alloc` | Functions marked `// fp-lint: hot-path` stay allocation- and lock-free (`.clone()`, `.to_vec()`, `format!`, `Vec::new`, `vec!`, `.lock()`) |
//! | `poisonable-lock` | Crates whose locks outlive a panicking thread (`fp-trace`, `fp-service`, `fp-net`) never panic on a poisoned mutex: `.lock().unwrap()`/`.expect(..)` must route through `fp_trace::sync::relock` (re-exported as `fp_service::sync::relock`) |
//! | `bad-pragma` | Suppressions parse, name a real rule, and carry a reason |
//! | `unused-allow` | Suppressions that stop suppressing anything are removed |

use crate::lexer::SourceFile;
use crate::pragma::{self, PlacedPragma, Pragma};
use crate::report::Finding;

/// Every rule name, in documentation order. Pragmas may only name these.
pub const RULES: [&str; 4] = [
    "hot-path-alloc",
    "poisonable-lock",
    "bad-pragma",
    "unused-allow",
];

/// Lints one file: runs every rule, applies `allow` pragmas, and reports
/// malformed or unused pragmas.
pub fn lint_file(file: &SourceFile) -> Vec<Finding> {
    let (pragmas, mut findings) = pragma::collect(file, &RULES);
    findings.extend(hot_path_alloc(file, &pragmas));
    findings.extend(poisonable_lock(file));
    apply_allows(file, &pragmas, &mut findings);
    findings
}

/// Matches `allow` pragmas against findings on their target lines; every
/// suppressed finding records its reason, every pragma that suppressed
/// nothing becomes an `unused-allow` finding.
fn apply_allows(file: &SourceFile, pragmas: &[PlacedPragma], findings: &mut Vec<Finding>) {
    for p in pragmas {
        let Pragma::Allow { rule, reason } = &p.pragma else {
            continue;
        };
        let mut used = false;
        for f in findings.iter_mut() {
            // `bad-pragma`/`unused-allow` are meta-findings about the
            // suppression mechanism itself; they cannot be suppressed.
            if f.rule == rule.as_str()
                && f.line == p.target_line
                && f.rule != "bad-pragma"
                && f.rule != "unused-allow"
            {
                f.allowed = Some(reason.clone());
                used = true;
            }
        }
        if !used {
            findings.push(Finding::new(
                "unused-allow",
                file.path(),
                p.line,
                format!("allow({rule}) suppresses nothing on line {}", p.target_line),
            ));
        }
    }
}

/// Crates whose shared locks outlive a panicking thread — worker threads
/// under panic supervision, and the trace spine those workers report
/// into: a poisoned mutex must degrade, not cascade.
const SUPERVISED_CRATES: [&str; 3] = [
    "crates/trace/src/",
    "crates/service/src/",
    "crates/net/src/",
];

/// `poisonable-lock`: in supervised-thread crates, `.lock().unwrap()` /
/// `.lock().expect(..)` turns one panicking worker into a panic cascade
/// through supervisor, dispatcher, and stats paths. Route through
/// `fp_trace::sync::relock` (re-exported as `fp_service::sync::relock`),
/// which recovers the guard.
fn poisonable_lock(file: &SourceFile) -> Vec<Finding> {
    if !SUPERVISED_CRATES.iter().any(|c| file.path().starts_with(c)) {
        return Vec::new();
    }
    let text = file.stripped();
    let mut findings = Vec::new();
    let mut from = 0;
    while let Some(at) = text[from..].find(".lock()") {
        let at = from + at;
        from = at + ".lock()".len();
        let rest = text[from..].trim_start();
        if rest.starts_with(".unwrap()") || rest.starts_with(".expect(") {
            let line = file.line_of(at);
            if !file.in_test(line) {
                findings.push(Finding::new(
                    "poisonable-lock",
                    file.path(),
                    line,
                    "poisonable `.lock().unwrap()/.expect(..)` in a supervised-thread crate — \
                     use `relock` (`fp_trace::sync`) so a panicked holder degrades instead of \
                     cascading"
                        .to_string(),
                ));
            }
        }
    }
    findings
}

/// Allocation patterns — and direct mutex acquisition — audited inside
/// `// fp-lint: hot-path` functions.
const ALLOC_PATTERNS: [&str; 6] = [
    ".clone()",
    ".to_vec()",
    "format!",
    "Vec::new",
    "vec!",
    ".lock()",
];

/// `hot-path-alloc`: the per-access loops that PR 3 made allocation-free
/// (PLB touch, MAC probe, FR-FCFS pick, shard pump), the writeback
/// engine's batch generation and the trace counter bump are annotated;
/// any allocation pattern — or a lock — reappearing inside them is
/// flagged so the win cannot silently regress.
fn hot_path_alloc(file: &SourceFile, pragmas: &[PlacedPragma]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for p in pragmas {
        if p.pragma != Pragma::HotPath {
            continue;
        }
        let Some((start, end)) = fn_body_span(file, p.target_line) else {
            findings.push(Finding::new(
                "bad-pragma",
                file.path(),
                p.line,
                "hot-path pragma is not followed by a function body".to_string(),
            ));
            continue;
        };
        let body = &file.stripped()[start..end];
        for pat in ALLOC_PATTERNS {
            let mut from = 0;
            let mut last_line = 0;
            while let Some(at) = body[from..].find(pat) {
                let at = from + at;
                from = at + pat.len();
                // Patterns starting with `.` carry their own boundary;
                // the rest must not extend an identifier to the left
                // (e.g. `my_format!`).
                if !pat.starts_with('.') && !boundary_before(body, at) {
                    continue;
                }
                let line = file.line_of(start + at);
                if line == last_line {
                    continue;
                }
                last_line = line;
                findings.push(Finding::new(
                    "hot-path-alloc",
                    file.path(),
                    line,
                    format!(
                        "`{pat}` inside a `fp-lint: hot-path` function — this loop is \
                             allocation- and lock-free by contract (see DESIGN.md §12)"
                    ),
                ));
            }
        }
    }
    findings
}

/// Byte span of the function body starting at or after `line`: from the
/// first `{` on/after the first line containing `fn `, to its matching
/// close brace.
fn fn_body_span(file: &SourceFile, line: usize) -> Option<(usize, usize)> {
    let text = file.stripped();
    let mut search = file.line_offset(line);
    // Find the `fn ` keyword first so attributes between the pragma and
    // the signature are skipped.
    loop {
        let at = search + text[search..].find("fn ")?;
        if boundary_before(text, at) {
            search = at;
            break;
        }
        search = at + 3;
    }
    let open = search + text[search..].find('{')?;
    let bytes = text.as_bytes();
    let mut depth = 0usize;
    for (i, &b) in bytes.iter().enumerate().skip(open) {
        match b {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Some((open, i + 1));
                }
            }
            _ => {}
        }
    }
    None
}

/// Whether the character before byte `at` ends an identifier boundary.
fn boundary_before(text: &str, at: usize) -> bool {
    text[..at]
        .chars()
        .next_back()
        .is_none_or(|c| !c.is_alphanumeric() && c != '_')
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(path: &str, src: &str) -> Vec<Finding> {
        lint_file(&SourceFile::parse(path, src))
    }

    fn unallowed<'a>(findings: &'a [Finding], rule: &str) -> Vec<&'a Finding> {
        findings
            .iter()
            .filter(|f| f.rule == rule && f.is_unallowed())
            .collect()
    }

    #[test]
    fn hot_path_skips_non_boundary_matches() {
        let src = "// fp-lint: hot-path\nfn f(&mut self) { self.evec!(); }\n";
        let f = lint("crates/core/src/x.rs", src);
        assert!(unallowed(&f, "hot-path-alloc").is_empty());
    }
}
