//! Fixture tests: every rule proven to fire on a positive fixture and
//! stay quiet on matched negative fixtures, plus pragma and baseline
//! round-trips through the public API.

use fp_lint::lexer::SourceFile;
use fp_lint::registry;
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

// ---------------------------------------------------------------- wall clock

#[test]
fn wall_clock_fires_in_simulated_code() {
    let src = "use std::time::Instant;\nfn f() { let t = Instant::now(); }\n";
    let f = lint("crates/sim/src/run.rs", src);
    let hits = fired(&f, "wall-clock-in-sim");
    assert_eq!(hits.len(), 2, "both the use and the call site");
    assert_eq!(hits[0].line, 1);
    assert_eq!(hits[1].line, 2);
}

#[test]
fn wall_clock_fires_on_system_time() {
    let f = lint(
        "crates/core/src/x.rs",
        "fn f() { let _ = std::time::SystemTime::now(); }\n",
    );
    assert_eq!(fired(&f, "wall-clock-in-sim").len(), 1);
}

#[test]
fn wall_clock_exempts_bench_and_net_crates() {
    let src = "use std::time::Instant;\n";
    assert!(fired(
        &lint("crates/bench/src/report.rs", src),
        "wall-clock-in-sim"
    )
    .is_empty());
    assert!(fired(&lint("crates/net/src/server.rs", src), "wall-clock-in-sim").is_empty());
}

#[test]
fn wall_clock_ignores_strings_and_comments() {
    let src = "// the Instant type is banned here\nfn f() { let s = \"Instant\"; }\n";
    assert!(fired(&lint("crates/sim/src/x.rs", src), "wall-clock-in-sim").is_empty());
}

#[test]
fn wall_clock_allow_pragma_suppresses_and_records_reason() {
    let src = "// fp-lint: allow(wall-clock-in-sim) reason=operator-facing runtime\n\
               use std::time::Instant;\n";
    let f = lint("crates/sim/src/x.rs", src);
    assert!(fired(&f, "wall-clock-in-sim").is_empty());
    assert!(fired(&f, "unused-allow").is_empty(), "the pragma was used");
    let suppressed = f
        .iter()
        .find(|f| f.rule == "wall-clock-in-sim")
        .expect("finding still recorded");
    assert_eq!(
        suppressed.allowed.as_deref(),
        Some("operator-facing runtime")
    );
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

// --------------------------------------------------------- stdout in library

#[test]
fn stdout_fires_in_library_sources() {
    let src = "fn f() { println!(\"hi\"); eprintln!(\"no\"); }\n";
    assert_eq!(
        fired(&lint("crates/core/src/x.rs", src), "stdout-in-library").len(),
        2
    );
    assert_eq!(
        fired(&lint("src/propcheck.rs", src), "stdout-in-library").len(),
        2
    );
}

#[test]
fn stdout_fires_on_dbg() {
    let f = lint("crates/dram/src/x.rs", "fn f(x: u32) -> u32 { dbg!(x) }\n");
    assert_eq!(fired(&f, "stdout-in-library").len(), 1);
}

#[test]
fn stdout_exempts_binaries_examples_tests_and_bench() {
    let src = "fn main() { println!(\"report\"); }\n";
    for path in [
        "crates/sim/examples/smoke.rs",
        "crates/bench/src/bin/perf_gate.rs",
        "crates/service/src/main.rs",
        "crates/net/tests/wire.rs",
        "crates/bench/src/report.rs",
        "tests/net_level.rs",
        "examples/demo.rs",
    ] {
        assert!(
            fired(&lint(path, src), "stdout-in-library").is_empty(),
            "{path}"
        );
    }
}

#[test]
fn stdout_skips_test_modules_and_substring_names() {
    let src = "fn my_println!_like() {}\nfn f(personality: u32) {}\n\
               #[cfg(test)]\nmod tests {\n    fn t() { println!(\"dbg\"); }\n}\n";
    assert!(fired(&lint("crates/core/src/x.rs", src), "stdout-in-library").is_empty());
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
    let src = "// fp-lint: allow(wall-clock-in-sim) reason=nothing here needs it\nfn f() {}\n";
    let f = lint("crates/sim/src/x.rs", src);
    let hits = fired(&f, "unused-allow");
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].line, 1, "reported at the pragma line");
}

#[test]
fn malformed_pragmas_are_findings() {
    for src in [
        "// fp-lint: allow(wall-clock-in-sim)\nfn f() {}\n", // no reason
        "// fp-lint: allow(not-a-rule) reason=x\nfn f() {}\n", // unknown rule
        "// fp-lint: frobnicate\nfn f() {}\n",               // unknown directive
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
            "wall-clock-in-sim",
            "poisonable-lock",
            "stdout-in-library",
            "hot-path-alloc",
            "trace-registry",
            "wire-exhaustiveness",
            "bad-pragma",
            "unused-allow",
        ]
    );
}

// ------------------------------------------------------------ trace registry

/// A minimal coherent counter registry fixture.
const GOOD_EVENT: &str = "\
pub enum Counter {
    Alpha,
    Beta,
}
impl Counter {
    pub const ALL: [Counter; 2] = [Counter::Alpha, Counter::Beta];
    pub fn name(self) -> &'static str {
        match self {
            Counter::Alpha => \"alpha\",
            Counter::Beta => \"beta\",
        }
    }
}
";

fn trace_check(event_src: &str, experiments: Option<&str>, prose: &[(&str, &str)]) -> Vec<Finding> {
    let file = SourceFile::parse("crates/trace/src/event.rs", event_src);
    registry::check_trace_registry(&file, experiments.map(|d| ("EXPERIMENTS.md", d)), prose)
}

#[test]
fn trace_registry_accepts_a_coherent_fixture() {
    let exp = "<!-- fp-lint: counter-registry begin -->\n`alpha`, `beta`\n\
               <!-- fp-lint: counter-registry end -->\nall 2 fp-trace counters\n";
    let f = trace_check(GOOD_EVENT, Some(exp), &[("EXPERIMENTS.md", exp)]);
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn trace_registry_catches_missing_all_entry() {
    let src = GOOD_EVENT.replace("[Counter::Alpha, Counter::Beta]", "[Counter::Alpha]");
    let f = trace_check(&src, None, &[]);
    assert!(!f.is_empty());
    assert!(
        f.iter().any(|x| x.message.contains("Counter::ALL")),
        "{f:?}"
    );
}

#[test]
fn trace_registry_catches_stale_declared_length() {
    let src = GOOD_EVENT.replace("[Counter; 2]", "[Counter; 3]");
    let f = trace_check(&src, None, &[]);
    assert!(f.iter().any(|x| x.message.contains("declared")), "{f:?}");
}

#[test]
fn trace_registry_catches_wildcard_name_table() {
    // A wildcard arm hides `Beta` from the name table.
    let src = GOOD_EVENT.replace("            Counter::Beta => \"beta\",\n", "");
    let f = trace_check(&src, None, &[]);
    assert!(f.iter().any(|x| x.message.contains("name()")), "{f:?}");
}

#[test]
fn trace_registry_catches_duplicate_json_names() {
    let src = GOOD_EVENT.replace("\"beta\"", "\"alpha\"");
    let f = trace_check(&src, None, &[]);
    assert!(
        f.iter().any(|x| x.message.contains("more than one")),
        "{f:?}"
    );
}

#[test]
fn trace_registry_checks_experiments_block_both_ways() {
    let missing = "<!-- fp-lint: counter-registry begin -->\n`alpha`\n\
                   <!-- fp-lint: counter-registry end -->\n";
    let f = trace_check(GOOD_EVENT, Some(missing), &[]);
    assert!(
        f.iter().any(|x| x.message.contains("`beta` is missing")),
        "{f:?}"
    );

    let extra = "<!-- fp-lint: counter-registry begin -->\n`alpha`, `beta`, `gamma`\n\
                 <!-- fp-lint: counter-registry end -->\n";
    let f = trace_check(GOOD_EVENT, Some(extra), &[]);
    assert!(f.iter().any(|x| x.message.contains("`gamma`")), "{f:?}");

    let f = trace_check(GOOD_EVENT, Some("no block at all\n"), &[]);
    assert!(f
        .iter()
        .any(|x| x.message.contains("missing the counter-registry block")));
}

#[test]
fn trace_registry_catches_stale_prose_counts() {
    let f = trace_check(
        GOOD_EVENT,
        None,
        &[("DESIGN.md", "sums the 5 fp-trace counters\n")],
    );
    assert_eq!(f.len(), 1);
    assert_eq!(f[0].path, "DESIGN.md");
    assert!(f[0].message.contains("\"5 fp-trace counters\""));
}

// -------------------------------------------------------- wire exhaustiveness

/// A minimal coherent wire protocol fixture.
const GOOD_WIRE: &str = "\
pub enum Frame {
    Hello { version: u16 },
    Data(Payload),
}
impl Frame {
    pub fn kind(&self) -> u8 {
        match self {
            Frame::Hello { .. } => 0,
            Frame::Data(_) => 1,
        }
    }
    pub fn kind_name(&self) -> &'static str {
        match self {
            Frame::Hello { .. } => \"hello\",
            Frame::Data(_) => \"data\",
        }
    }
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Frame::Hello { version } => out.push(1),
            Frame::Data(d) => out.push(2),
        }
    }
    pub fn decode(kind: u8, body: &[u8]) -> Result<Frame, ()> {
        match kind {
            0 => Ok(Frame::Hello { version: 1 }),
            1 => Ok(Frame::Data(Payload)),
            _ => Err(()),
        }
    }
}
";

fn wire_check(src: &str) -> Vec<Finding> {
    registry::check_wire(&SourceFile::parse("crates/net/src/wire.rs", src))
}

#[test]
fn wire_accepts_a_coherent_fixture() {
    let f = wire_check(GOOD_WIRE);
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn wire_catches_missing_decode_arm() {
    let src = GOOD_WIRE.replace("            1 => Ok(Frame::Data(Payload)),\n", "");
    let f = wire_check(&src);
    assert!(
        f.iter()
            .any(|x| x.message.contains("never produced by `decode()`")),
        "{f:?}"
    );
    assert!(
        f.iter()
            .any(|x| x.message.contains("has no `decode()` arm")),
        "{f:?}"
    );
}

#[test]
fn wire_catches_missing_encode_arm() {
    let src = GOOD_WIRE.replace(
        "            Frame::Data(d) => out.push(2),\n",
        "            _ => out.push(2),\n",
    );
    let f = wire_check(&src);
    assert!(
        f.iter()
            .any(|x| x.message.contains("has no `encode()` arm")),
        "{f:?}"
    );
}

#[test]
fn wire_catches_duplicate_kind_codes() {
    let src = GOOD_WIRE.replace("Frame::Data(_) => 1,", "Frame::Data(_) => 0,");
    let f = wire_check(&src);
    assert!(
        f.iter().any(|x| x.message.contains("more than one frame")),
        "{f:?}"
    );
}

#[test]
fn wire_catches_unreachable_decode_code() {
    let src = GOOD_WIRE.replace(
        "            1 => Ok(Frame::Data(Payload)),\n",
        "            1 => Ok(Frame::Data(Payload)),\n            9 => Ok(Frame::Data(Payload)),\n",
    );
    let f = wire_check(&src);
    assert!(
        f.iter()
            .any(|x| x.message.contains("which `kind()` never emits")),
        "{f:?}"
    );
}
