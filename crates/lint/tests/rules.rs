//! Fixture tests: every rule proven to fire on a positive fixture and
//! stay quiet on matched negative fixtures, plus the pragma forms, through
//! the public API.

use fp_lint::lexer::SourceFile;
use fp_lint::report::Finding;
use fp_lint::{lint_file, RULES};

/// Lints fixture `src` as if it lived at `path`.
fn lint(path: &str, src: &str) -> Vec<Finding> {
    lint_file(&SourceFile::parse(path, src))
}

/// The unallowed findings of one rule.
fn fired<'a>(findings: &'a [Finding], rule: &str) -> Vec<&'a Finding> {
    findings
        .iter()
        .filter(|f| f.rule == rule && f.is_unallowed())
        .collect()
}

// ------------------------------------------------------------ poisonable lock

#[test]
fn poisonable_lock_fires_in_supervised_crates() {
    let src = "fn f(m: &std::sync::Mutex<u32>) { let _ = m.lock().unwrap(); }\n";
    assert_eq!(
        fired(&lint("crates/service/src/x.rs", src), "poisonable-lock").len(),
        1
    );
    assert_eq!(
        fired(&lint("crates/net/src/x.rs", src), "poisonable-lock").len(),
        1
    );
    assert_eq!(
        fired(&lint("crates/trace/src/handle.rs", src), "poisonable-lock").len(),
        1,
        "the trace spine's lock outlives a panicking worker too"
    );
}

#[test]
fn poisonable_lock_fires_across_line_breaks() {
    let src = "fn f(m: &M) {\n    m.field\n        .lock()\n        .expect(\"lock\");\n}\n";
    let f = lint("crates/net/src/x.rs", src);
    let hits = fired(&f, "poisonable-lock");
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].line, 3, "attributed to the .lock() line");
}

#[test]
fn poisonable_lock_accepts_relock_and_other_crates() {
    let relock = "fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {\n\
                  \x20   m.lock().unwrap_or_else(PoisonError::into_inner)\n}\n";
    assert!(fired(&lint("crates/trace/src/sync.rs", relock), "poisonable-lock").is_empty());
    let plain = "fn f(m: &Mutex<u32>) { let _ = m.lock().unwrap(); }\n";
    assert!(
        fired(&lint("crates/sim/src/report.rs", plain), "poisonable-lock").is_empty(),
        "fp-sim holds no lock a supervised thread can poison"
    );
}

#[test]
fn poisonable_lock_skips_test_regions() {
    let src = "fn f() {}\n\n#[cfg(test)]\nmod tests {\n    fn g(m: &std::sync::Mutex<u32>) {\n\
               \x20       let _ = m.lock().unwrap();\n    }\n}\n";
    assert!(fired(&lint("crates/service/src/x.rs", src), "poisonable-lock").is_empty());
}

// ------------------------------------------------------------ hot-path alloc

#[test]
fn hot_path_fires_on_annotated_function_only() {
    let src = "\
// fp-lint: hot-path
fn hot(&mut self) {
    let x = self.v.clone();
    let y = format!(\"{x:?}\");
    let z = Vec::new();
    let w = vec![0u8; 4];
    let u = self.v.to_vec();
    let g = self.m.lock();
}

fn cold(&mut self) {
    let x = self.v.clone();
    let g = self.m.lock();
}
";
    let f = lint("crates/core/src/x.rs", src);
    let hits = fired(&f, "hot-path-alloc");
    assert_eq!(
        hits.len(),
        6,
        "one per allocation pattern plus the lock, in the hot fn only"
    );
    assert!(hits.iter().all(|h| (3..=8).contains(&h.line)));
}

#[test]
fn hot_path_inner_allow_suppresses_one_site() {
    let src = "\
// fp-lint: hot-path
fn hot(&mut self) -> Vec<u8> {
    // fp-lint: allow(hot-path-alloc) reason=output buffer returned to the caller
    let out = self.v.to_vec();
    out
}
";
    let f = lint("crates/core/src/x.rs", src);
    assert!(fired(&f, "hot-path-alloc").is_empty());
    assert!(fired(&f, "unused-allow").is_empty());
    let suppressed = f
        .iter()
        .find(|f| f.rule == "hot-path-alloc")
        .expect("finding still recorded");
    assert_eq!(
        suppressed.allowed.as_deref(),
        Some("output buffer returned to the caller")
    );
}

#[test]
fn hot_path_pragma_without_function_is_bad() {
    let f = lint(
        "crates/core/src/x.rs",
        "// fp-lint: hot-path\nconst X: u32 = 1;\n",
    );
    assert_eq!(fired(&f, "bad-pragma").len(), 1);
}

// ------------------------------------------------------------------- pragmas

#[test]
fn unused_allow_is_a_finding() {
    let src = "// fp-lint: allow(poisonable-lock) reason=nothing here needs it\nfn f() {}\n";
    let f = lint("crates/service/src/x.rs", src);
    let hits = fired(&f, "unused-allow");
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].line, 1, "reported at the pragma line");
}

#[test]
fn malformed_pragmas_are_findings() {
    for src in [
        "// fp-lint: allow(poisonable-lock)\nfn f() {}\n", // no reason
        "// fp-lint: allow(wall-clock-in-sim) reason=x\nfn f() {}\n", // retired rule: clippy holds it now
        "// fp-lint: frobnicate\nfn f() {}\n",                        // unknown directive
    ] {
        assert_eq!(
            fired(&lint("crates/core/src/x.rs", src), "bad-pragma").len(),
            1,
            "{src}"
        );
    }
}

#[test]
fn rules_list_is_stable() {
    assert_eq!(
        RULES,
        [
            "hot-path-alloc",
            "poisonable-lock",
            "bad-pragma",
            "unused-allow",
        ]
    );
}
