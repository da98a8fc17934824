//! Every `repro` target at `--fast`, against the recorded output: the
//! sections of `results/figures_fast.txt` (one `##### <name>` header, the
//! target's stdout, a blank line), and for `trace`, whose stdout is the
//! whole trace-spine JSON, a digest. A change that moves one printed digit
//! of any figure fails here. An intended change re-records the file with
//! the one command in EXPERIMENTS.md ("The `--fast` recording").
//!
//! Release only: the targets take seconds there and minutes in debug.

use std::process::Command;

/// The recorded `--fast` stdout of every target but `trace`.
const RECORDED: &str = include_str!("../../../results/figures_fast.txt");

/// `repro trace --fast`: (bytes, FNV-1a 64 of the bytes).
const TRACE_DIGEST: (usize, u64) = (373_520, 0x3038_2166_e8a3_88f0);

/// FNV-1a, 64 bit: a digest of bytes with no dependency.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

fn repro(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro");
    assert!(
        out.status.success(),
        "repro {args:?} exited with {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("repro prints UTF-8")
}

/// The recorded file as (target, stdout) pairs, in file order.
fn sections(text: &str) -> Vec<(&str, String)> {
    let mut sections: Vec<(&str, String)> = Vec::new();
    for line in text.split_inclusive('\n') {
        match line.strip_prefix("##### ") {
            Some(name) => sections.push((name.trim_end(), String::new())),
            None => sections
                .last_mut()
                .expect("the file starts with a section header")
                .1
                .push_str(line),
        }
    }
    // Each section ends with the blank line that separates it from the next.
    for (name, body) in &mut sections {
        assert_eq!(
            body.pop(),
            Some('\n'),
            "section {name} ends in a blank line"
        );
    }
    sections
}

/// The first line where `got` differs from `want`, numbered from 1.
fn first_difference(want: &str, got: &str) -> Option<String> {
    if want == got {
        return None;
    }
    let lines = want.lines().count().max(got.lines().count()) + 1;
    fn padded(text: &str, lines: usize) -> impl Iterator<Item = &str> {
        let end = std::iter::repeat("<end of output>");
        text.lines().chain(end).take(lines)
    }
    let pairs = padded(want, lines).zip(padded(got, lines));
    Some(match (1..).zip(pairs).find(|(_, (w, g))| w != g) {
        Some((n, (w, g))) => format!("line {n}\n  recorded: {w}\n  printed:  {g}"),
        None => "the same lines, but the final newline differs".to_string(),
    })
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release only: run with --release")]
fn every_fast_target_prints_the_recorded_output() {
    let listed = repro(&["--list"]);
    let listed: Vec<&str> = listed
        .lines()
        .map(|l| l.split_whitespace().next().expect("a target name"))
        .collect();
    let recorded = sections(RECORDED);
    let mut failures = Vec::new();
    for &name in &listed {
        let printed = repro(&[name, "--fast"]);
        if name == "trace" {
            let (len, digest) = (printed.len(), fnv1a(printed.as_bytes()));
            if (len, digest) != TRACE_DIGEST {
                let (want_len, want) = TRACE_DIGEST;
                failures.push(format!(
                    "trace: {len} bytes, digest {digest:#x}; recorded {want_len} bytes, {want:#x}"
                ));
            }
            continue;
        }
        match recorded.iter().find(|(n, _)| *n == name) {
            None => failures.push(format!("{name}: not in results/figures_fast.txt")),
            Some((_, want)) => {
                if let Some(diff) = first_difference(want, &printed) {
                    failures.push(format!("{name}: {diff}"));
                }
            }
        }
    }
    for (name, _) in &recorded {
        if !listed.contains(name) {
            failures.push(format!(
                "{name}: recorded, but `repro --list` does not name it"
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "`repro --fast` output differs from results/figures_fast.txt:\n{}",
        failures.join("\n")
    );
}
