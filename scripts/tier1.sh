#!/usr/bin/env bash
# Tier-1 verification gate, eight steps: format, lint, hermetic release
# build, the test suite of every workspace member (--workspace: a bare
# `cargo test` from the root package would skip the crates' own tests),
# four of its suites, the DRAM model's own, the tree store's crate's own,
# fp-core's unit tests and the `repro --fast` recording again in the
# release build the benchmark measures, plus one run of each example (step
# five), the sealed data path's two crates again for the portable x86-64
# target, rustdoc, and the benchmark package's own check; then it checks
# the line counter against its fixture and prints the non-test line
# counts (`scripts/loc.sh`). Every assertion
# about library behaviour is a named test under steps four and five, or an
# `assert!` in an example that step five runs; a binary's output is
# compared only by the named test that holds the `repro` recording. The
# workspace has zero external dependencies, so everything runs --offline.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --all -- --check
# Clippy under -D warnings also holds five invariants (DESIGN.md §12): no
# wall-clock read in simulated code, no poisonable lock or condvar wait
# outside the sync helpers and no timer poll (`thread::sleep`) outside a
# wall-bounded wait (all three clippy.toml disallowed-methods), no
# process-stream output from library crates (crate-root denies), and no
# wire kind code assigned twice (unreachable_patterns in Frame::decode).
# --all-targets lints the tests, examples and `#[cfg(test)]` modules too,
# so an `#[expect]` there is checked like one in library code.
cargo clippy --offline --workspace --all-targets -- -D warnings
cargo build --release --offline

# --no-fail-fast in steps four and five: one red run names every failing
# test binary, not just the first.
cargo test -q --offline --workspace --no-fail-fast
# Step four runs in debug, where the `debug_assert!` oracles live; the
# benchmark runs --release, where they are compiled out. The golden
# statistics, the allocation contract, engine equivalence and the reference
# models (the merging-aware cache's, the Fork Path controller against plain
# RAM) hold there too.
cargo test -q --offline --release --no-fail-fast --test stats_golden --test hot_path_alloc --test engine_equivalence --test proptest_invariants
# The DRAM model's run arithmetic multiplies and adds simulated times:
# debug panics on overflow, --release wraps silently. Its reference
# propchecks, once more where a wrap would show as a wrong finish time.
cargo test -q --offline --release --no-fail-fast -p fp-dram
# The tree store's subtree arithmetic (`63 - leading_zeros`, the slot
# offset, the sealed image's trailer split) is subtractions and shifts: the
# same split between debug and --release. Its model propcheck over trees of
# 1..=17 levels, once more where a wrap would store a bucket in the wrong
# slot.
cargo test -q --offline --release --no-fail-fast -p fp-path-oram
# The label queue ages entries by subtracting round numbers (`round - born`,
# `select_initial`'s rank arithmetic): its propcheck against the reference
# queue, and the Fig 5 one, once more where a wrap would pass silently.
cargo test -q --offline --release --no-fail-fast -p fp-core --lib
# Every `repro` target at --fast against results/figures_fast.txt (the
# `trace` spine by digest): a printed figure that moves fails here. Ignored
# in the debug step, where the figures take minutes.
cargo test -q --offline --release --no-fail-fast -p fp-bench --test figures_fast
# The examples assert what they show (records read back intact, the key-value
# store's lookups, the fixed-rate stream's last read); each runs once.
for example in quickstart secure_kv_store fixed_rate_stream scheme_comparison; do
  cargo run -q --offline --release --example "$example" > /dev/null
done
cargo run -q --offline --release -p fp-sim --example smoke > /dev/null
# Everything above is built under .cargo/config.toml's `target-cpu=native`,
# where an AVX2 host selects fp-crypto's eight-lane keystream and would
# never again run the one-lane build a portable binary gets. RUSTFLAGS
# overrides `build.rustflags`: the cipher and the tree store that seals
# with it, once more as that binary would run them.
RUSTFLAGS="-C target-cpu=x86-64" cargo test -q --offline -p fp-crypto -p fp-path-oram

# Documentation gate over every workspace member (--workspace: a bare
# `cargo doc` from the root documents the root package alone): every public
# item is documented (the crates set #![warn(missing_docs)]) and no rustdoc
# warning (broken intra-doc link, invalid code fence) slips through. A
# bracketed citation in a doc comment reads as a link: write `\[13\]`.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline -q --workspace

# The repo's benchmark (benchmark/, BENCHMARK.json) is a package of its
# own that reaches the crates only through public items: fmt, clippy and
# its unit tests, so a crate change that breaks its build fails here. No
# timing threshold — wall-clock numbers are compared across commits by the
# benchmark itself, not gated in CI.
bash benchmark/run.sh --check

# Non-test lines per crate and their total, the size every simplicity
# change reports: printed only, no threshold. The counter is checked
# first against a fixture crate of known counts (a `#[cfg(test)] mod`
# declaration ahead of code, the test-only file it declares, code after a
# `#[cfg(test)] impl`, braces inside literals).
diff scripts/loc_fixture/expected.txt <(bash scripts/loc.sh scripts/loc_fixture)
bash scripts/loc.sh
echo "tier1 OK"
