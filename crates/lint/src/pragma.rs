//! Inline lint directives.
//!
//! Suppressions live *in the source they suppress*, so every exemption is
//! visible in review:
//!
//! * `// fp-lint: allow(<rule>) reason=<why this site is legitimate>` —
//!   suppresses findings of `<rule>` on the same line (trailing comment)
//!   or on the next code line (own-line comment). The reason is
//!   mandatory: an allow without one is a `bad-pragma` finding, and an
//!   allow that suppresses nothing is an `unused-allow` finding, so
//!   stale exemptions cannot accumulate silently.
//! * `// fp-lint: hot-path` — marks the next function for the
//!   `hot-path-alloc` rule: its body is audited for allocation patterns
//!   (`.clone()`, `.to_vec()`, `format!`, `Vec::new`, `vec!`).

use crate::lexer::SourceFile;
use crate::report::Finding;

/// A parsed directive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Pragma {
    /// Suppress `rule` on the target line, for the stated reason.
    Allow {
        /// Rule name being suppressed.
        rule: String,
        /// Why the finding is legitimate at this site.
        reason: String,
    },
    /// Audit the next function for allocation patterns.
    HotPath,
}

/// A directive bound to the line it governs.
#[derive(Debug, Clone)]
pub struct PlacedPragma {
    /// 1-based line the comment itself is on.
    pub line: usize,
    /// 1-based line the directive applies to (the same line for trailing
    /// comments, the next code line for own-line comments).
    pub target_line: usize,
    /// The parsed directive.
    pub pragma: Pragma,
}

/// The marker every directive starts with.
const MARKER: &str = "fp-lint:";

/// Extracts all directives from a file. Malformed directives (unknown
/// rule, missing reason, unparseable form) are returned as `bad-pragma`
/// findings instead of being silently ignored — a typo in a suppression
/// must not become a hole in the gate.
pub fn collect(file: &SourceFile, known_rules: &[&str]) -> (Vec<PlacedPragma>, Vec<Finding>) {
    let mut pragmas = Vec::new();
    let mut bad = Vec::new();
    for line in 1..=file.line_count() {
        let Some(comment) = file.comment(line) else {
            continue;
        };
        let Some(at) = comment.find(MARKER) else {
            continue;
        };
        let body = comment[at + MARKER.len()..].trim();
        match parse_body(body, known_rules) {
            Ok(pragma) => {
                let target_line = if file.line_stripped(line).trim().is_empty() {
                    next_code_line(file, line)
                } else {
                    Some(line)
                };
                match target_line {
                    Some(target_line) => pragmas.push(PlacedPragma {
                        line,
                        target_line,
                        pragma,
                    }),
                    None => bad.push(Finding::new(
                        "bad-pragma",
                        file.path(),
                        line,
                        "fp-lint directive has no following code line to apply to".to_string(),
                    )),
                }
            }
            Err(msg) => bad.push(Finding::new("bad-pragma", file.path(), line, msg)),
        }
    }
    (pragmas, bad)
}

/// Parses the directive body after the `fp-lint:` marker.
fn parse_body(body: &str, known_rules: &[&str]) -> Result<Pragma, String> {
    if body == "hot-path" {
        return Ok(Pragma::HotPath);
    }
    let Some(rest) = body.strip_prefix("allow(") else {
        return Err(format!(
            "unrecognized fp-lint directive `{body}` (expected `allow(<rule>) reason=...` \
             or `hot-path`)"
        ));
    };
    let Some(close) = rest.find(')') else {
        return Err("fp-lint allow directive is missing the closing `)`".to_string());
    };
    let rule = rest[..close].trim();
    if !known_rules.contains(&rule) {
        return Err(format!("fp-lint allow names unknown rule `{rule}`"));
    }
    let tail = rest[close + 1..].trim();
    let Some(reason) = tail.strip_prefix("reason=") else {
        return Err(format!(
            "fp-lint allow({rule}) is missing `reason=` — every suppression must say why"
        ));
    };
    let reason = reason.trim();
    if reason.is_empty() {
        return Err(format!(
            "fp-lint allow({rule}) has an empty reason — every suppression must say why"
        ));
    }
    Ok(Pragma::Allow {
        rule: rule.to_string(),
        reason: reason.to_string(),
    })
}

/// First line after `line` whose stripped text is non-blank.
fn next_code_line(file: &SourceFile, line: usize) -> Option<usize> {
    ((line + 1)..=file.line_count()).find(|&l| !file.line_stripped(l).trim().is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    const RULES: [&str; 2] = ["poisonable-lock", "hot-path-alloc"];

    fn scan(src: &str) -> (Vec<PlacedPragma>, Vec<Finding>) {
        collect(&SourceFile::parse("x.rs", src), &RULES)
    }

    #[test]
    fn trailing_allow_targets_its_own_line() {
        let src = "let t = now(); // fp-lint: allow(poisonable-lock) reason=bench harness\n";
        let (p, bad) = scan(src);
        assert!(bad.is_empty());
        assert_eq!(p.len(), 1);
        assert_eq!(p[0].target_line, 1);
        assert_eq!(
            p[0].pragma,
            Pragma::Allow {
                rule: "poisonable-lock".into(),
                reason: "bench harness".into()
            }
        );
    }

    #[test]
    fn own_line_allow_targets_next_code_line() {
        let src = "// fp-lint: allow(hot-path-alloc) reason=operator warning\n\nprintln!();\n";
        let (p, bad) = scan(src);
        assert!(bad.is_empty());
        assert_eq!(p[0].line, 1);
        assert_eq!(p[0].target_line, 3);
    }

    #[test]
    fn hot_path_parses() {
        let (p, bad) = scan("// fp-lint: hot-path\nfn f() {}\n");
        assert!(bad.is_empty());
        assert_eq!(p[0].pragma, Pragma::HotPath);
        assert_eq!(p[0].target_line, 2);
    }

    #[test]
    fn unknown_rule_missing_reason_and_bad_form_are_findings() {
        for src in [
            "// fp-lint: allow(no-such-rule) reason=x\nfn f() {}\n",
            "// fp-lint: allow(poisonable-lock)\nfn f() {}\n",
            "// fp-lint: allow(poisonable-lock) reason=\nfn f() {}\n",
            "// fp-lint: frobnicate\nfn f() {}\n",
            "// fp-lint: allow(poisonable-lock) reason=dangling\n",
        ] {
            let (p, bad) = scan(src);
            assert!(p.is_empty(), "{src}");
            assert_eq!(bad.len(), 1, "{src}");
            assert_eq!(bad[0].rule, "bad-pragma");
        }
    }

    #[test]
    fn non_directive_comments_are_ignored() {
        let (p, bad) = scan("// plain comment about fp-lint rules in prose\nfn f() {}\n");
        // The word `fp-lint` without the `:` marker is not a directive.
        assert!(p.is_empty());
        assert!(bad.is_empty());
    }
}
