//! # fp-bench
//!
//! The experiment harness: one `repro` binary regenerating every table and
//! figure of the paper's evaluation (§5), all in simulated time. Wall-clock
//! performance is tracked by the repo's one benchmark (`benchmark/`,
//! `BENCHMARK.json`), not here.
//!
//! | Binary | Does |
//! |---|---|
//! | `repro <name>` | Tables 1–2, Figs 10–19, `ablation`, `stash_study`, `security_audit` (statistical tests on the label sequence), `trace` (the fp-trace spine of a mixed run, as JSON); `repro --list` names them, `--fast` gives CI-length runs |
//!
//! See `DESIGN.md` §5 for the experiment index and `EXPERIMENTS.md` for
//! paper-vs-measured values.

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]
#![deny(clippy::allow_attributes)]
#![warn(missing_docs)]

use fp_sim::Scheme;

// Scheme constructors come from `fp_core::engine`, beside the shared
// registry, so every figure labels schemes the way the benchmark does.
pub use fp_core::engine::{fork_with_mac, fork_with_queue, fork_with_treetop};

/// The caching-design scheme set of Figs 13–15: merge-only, MAC at
/// 128 K/256 K/1 M, and 1 M treetop.
pub fn caching_schemes() -> Vec<(&'static str, Scheme)> {
    vec![
        ("Merge only", Scheme::ForkDefault),
        ("Merge+128K MAC", fork_with_mac(128 << 10)),
        ("Merge+256K MAC", fork_with_mac(256 << 10)),
        ("Merge+1M MAC", fork_with_mac(1 << 20)),
        ("Merge+1M Treetop", fork_with_treetop(1 << 20)),
    ]
}

/// Prints a header line for a figure report.
pub fn print_title(title: &str) {
    println!("\n== {title} ==");
}

/// Prints one labelled row of values with a fixed-width layout.
pub fn print_row(label: &str, values: &[f64]) {
    print!("{label:<22}");
    for v in values {
        print!(" {v:>9.3}");
    }
    println!();
}

/// Prints the column header of a row table.
pub fn print_cols(first: &str, cols: &[impl std::fmt::Display]) {
    print!("{first:<22}");
    for c in cols {
        print!(" {c:>9}");
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheme_builders_label_correctly() {
        assert_eq!(fork_with_queue(8).label(), "fork(q8)");
        assert_eq!(fork_with_mac(1 << 20).label(), "fork(q64)+mac1024K");
        assert_eq!(fork_with_treetop(1 << 20).label(), "fork(q64)+treetop1024K");
    }

    #[test]
    fn caching_schemes_cover_figure_13() {
        let set = caching_schemes();
        assert_eq!(set.len(), 5);
        assert_eq!(set[0].0, "Merge only");
        assert_eq!(set[4].0, "Merge+1M Treetop");
    }
}
