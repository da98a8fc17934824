#!/usr/bin/env bash
# Tier-1 verification gate: format, lint, hermetic release build, and the
# test suite of every workspace member (--workspace: a bare `cargo test`
# from the root package would skip the crates' own tests). The workspace
# has zero external dependencies, so everything runs --offline.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --all -- --check
# Clippy under -D warnings also holds four invariants (DESIGN.md §12): no
# wall-clock read in simulated code and no poisonable lock or condvar wait
# outside the sync helpers (both clippy.toml disallowed-methods), no
# process-stream output from library crates (crate-root denies), and no
# wire kind code assigned twice (unreachable_patterns in Frame::decode).
cargo clippy --offline --workspace -- -D warnings
cargo build --release --offline

cargo test -q --offline --workspace

# Documentation gate: every public item is documented (workspace crates set
# #![warn(missing_docs)]) and no rustdoc warnings (broken intra-doc links,
# invalid code fences) slip through.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline -q

# The repo's benchmark (benchmark/, BENCHMARK.json) is a package of its
# own that reaches the crates only through public items: fmt, clippy and
# its unit tests, so a crate change that breaks its build fails here. No
# timing threshold — wall-clock numbers are compared across commits by the
# benchmark itself, not gated in CI.
bash benchmark/run.sh --check

# Serving-layer smoke check: 10k closed-loop requests through fp-service
# (shards {1,2}, small tree). The binary self-validates its JSON and
# asserts the 1->N simulated-throughput scaling invariant; a bare sanity
# grep here guards against an empty or truncated report file.
tmp_svc="$(mktemp)"
cargo run --release --offline -q -p fp-bench --bin service_bench -- --smoke --out "$tmp_svc" >/dev/null
grep -q '"bench":"service_bench"' "$tmp_svc"
rm -f "$tmp_svc"

# Scheme-agnostic serving: the same shard worker must also serve the
# traditional Path ORAM engine end to end (selected via the shared engine
# registry), proving the service layer is not fork-specific.
tmp_svc_trad="$(mktemp)"
cargo run --release --offline -q -p fp-bench --bin service_bench -- --smoke --scheme traditional --out "$tmp_svc_trad" >/dev/null
grep -q '"scheme":"traditional"' "$tmp_svc_trad"
rm -f "$tmp_svc_trad"

# Fault-injection smoke check: a degraded-mode run (transient integrity
# faults at 0.1% per access, deep retry budget) must complete, emit valid
# JSON, and actually have injected and retried faults — proving the
# FaultInjector wrapper and the health/fault stats plumbing end to end.
tmp_svc_fault="$(mktemp)"
cargo run --release --offline -q -p fp-bench --bin service_bench -- --smoke --fault-rate 0.01 --out "$tmp_svc_fault" >/dev/null
grep -q '"bench":"service_bench"' "$tmp_svc_fault"
grep -Eq '"faults_injected":[1-9]' "$tmp_svc_fault"
grep -Eq '"fault_retries":[1-9]' "$tmp_svc_fault"
rm -f "$tmp_svc_fault"

# Cross-request coalescing smoke check: replay the same seeded Zipfian
# hotspot schedule with and without the per-shard coalescing index. The
# coalesced run must actually coalesce (nonzero coalesced_reads) and
# execute strictly fewer ORAM accesses while serving exactly as many
# requests. Per-request data equivalence and the accounting ledger are
# property-tested in tests/service_level.rs; this gates the end-to-end
# win through the real binary. First grep match = the aggregate object
# (per_shard rows come later in the report).
tmp_zipf_plain="$(mktemp)"
tmp_zipf_coal="$(mktemp)"
cargo run --release --offline -q -p fp-bench --bin service_bench -- --smoke --zipf --shards 4 --out "$tmp_zipf_plain" >/dev/null
cargo run --release --offline -q -p fp-bench --bin service_bench -- --smoke --zipf --coalesce --shards 4 --out "$tmp_zipf_coal" >/dev/null
grep -q '"workload":"zipf-hot"' "$tmp_zipf_plain"
grep -Eq '"coalesced_reads":[1-9]' "$tmp_zipf_coal"
acc_plain="$(grep -o '"oram_accesses":[0-9]*' "$tmp_zipf_plain" | head -1 | cut -d: -f2)"
acc_coal="$(grep -o '"oram_accesses":[0-9]*' "$tmp_zipf_coal" | head -1 | cut -d: -f2)"
done_plain="$(grep -o '"completed":[0-9]*' "$tmp_zipf_plain" | head -1 | cut -d: -f2)"
done_coal="$(grep -o '"completed":[0-9]*' "$tmp_zipf_coal" | head -1 | cut -d: -f2)"
[ "$done_plain" -gt 0 ] && [ "$done_plain" -eq "$done_coal" ]
[ "$acc_coal" -lt "$acc_plain" ]
rm -f "$tmp_zipf_plain" "$tmp_zipf_coal"

# Network front end smoke check: replay 2x2k requests over a real
# loopback socket (2 shards, 4 pipelined connections) and verify per-tag
# {status, data} equality against the in-process trace replay (--smoke
# implies --verify; the binary panics on any divergence, non-ok status,
# or open ledger). The greps guard the report shape: verified rows and
# live wire counters with zero protocol errors.
tmp_net="$(mktemp)"
cargo run --release --offline -q -p fp-bench --bin net_bench -- --smoke --out "$tmp_net" >/dev/null
grep -q '"bench":"net_bench"' "$tmp_net"
grep -q '"verified_against_trace":true' "$tmp_net"
grep -Eq '"net_frames_in":[1-9]' "$tmp_net"
grep -q '"net_protocol_errors":0' "$tmp_net"
rm -f "$tmp_net"
echo "tier1 OK"
