#!/usr/bin/env bash
# The one command of the benchmark: builds the package (release, offline)
# and runs it from the repo root.
#
#   benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke]
#   benchmark/run.sh --check    # fmt, clippy -D warnings and unit tests of the package
#
# Without --workload every workload runs in a process of its own and the
# results land in benchmark/results/latest.json (latest_trace.json with
# --trace 1, for which --traced is another spelling). See benchmark/README.md.
set -euo pipefail
cd "$(dirname "$0")/.."
manifest=benchmark/Cargo.toml

if [ "${1:-}" = "--check" ]; then
    cargo fmt --manifest-path "$manifest" -- --check
    cargo clippy --offline --manifest-path "$manifest" --all-targets -- -D warnings
    cargo test --offline --release --quiet --manifest-path "$manifest"
    exit 0
fi

# Build chatter goes to stderr: stdout carries only the benchmark's report.
cargo build --release --offline --quiet --manifest-path "$manifest" >&2
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/fp-benchmark" "$@"
