#!/usr/bin/env bash
# Before/after of the repo's benchmark in alternating pairs within one
# session (choosing-metrics guide, section 8): the parent revision against
# the working tree.
#
#   scripts/bench_pairs.sh <parent-rev> [--workload W] [--pairs N] [--seconds S]
#
# <parent-rev> is exported with `git archive` into a temporary directory
# (under $TMPDIR, removed on exit; nothing is registered in .git) and built
# into a target directory of its own there. Each pair runs benchmark/run.sh
# once per side, and the side that goes first flips every pair. Defaults:
# 10 pairs, all six workloads, the benchmark's own run length. Every run's
# result file is kept under benchmark/results/pairs/ (ignored by git), and
# the summary prints, per workload and end-to-end metric of BENCHMARK.json,
# each side's median and quartiles over the runs, the pairs the change won
# (ties count for neither), and whether every `exact` value and
# `failed_share` matched. Needs bash, git, cargo and python3; no network.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
    sed -n '2,6p' "$0" >&2
    exit 2
}
[ $# -ge 1 ] || usage
rev=$1
shift
pairs=10
workload=
run_args=()
while [ $# -gt 0 ]; do
    [ $# -ge 2 ] || usage
    case $1 in
        --workload) workload=$2; run_args+=(--workload "$2") ;;
        --pairs) pairs=$2 ;;
        --seconds) run_args+=(--seconds "$2") ;;
        *) usage ;;
    esac
    shift 2
done

commit=$(git rev-parse --verify "$rev^{commit}")
tmp=$(mktemp -d "${TMPDIR:-/tmp}/bench_pairs.XXXXXX")
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/parent"
git archive "$commit" | tar -x -C "$tmp/parent"

change=$PWD
out=$change/benchmark/results/pairs
mkdir -p "$out"
# What one run of run.sh leaves behind: the gathered file, or with
# --workload that workload's own.
result=benchmark/results/${workload:-latest}${workload:+.trace0}.json

# run_side <parent|change> <pair>: one benchmark/run.sh in that tree.
run_side() {
    local tree=$change target=${CARGO_TARGET_DIR:-$change/benchmark/target}
    if [ "$1" = parent ]; then
        tree=$tmp/parent target=$tmp/target
    fi
    # A failed operation makes run.sh exit non-zero; the summary reports it.
    (cd "$tree" && CARGO_TARGET_DIR=$target bash benchmark/run.sh "${run_args[@]}") \
        >"$out/pair$2.$1.txt" || echo "pair $2: $1 run exited non-zero" >&2
    cp "$tree/$result" "$out/pair$2.$1.json"
}

echo "building both sides (parent $commit)" >&2
(cd "$tmp/parent" && CARGO_TARGET_DIR="$tmp/target" \
    cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml)
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml

for ((p = 1; p <= pairs; p++)); do
    n=$(printf '%02d' "$p")
    if ((p % 2)); then order="parent change"; else order="change parent"; fi
    echo "pair $n of $pairs: $order" >&2
    for side in $order; do
        run_side "$side" "$n"
    done
done

python3 - "$out" "$pairs" <<'PY'
import json, statistics, sys

out, pairs = sys.argv[1], int(sys.argv[2])
with open("BENCHMARK.json") as f:
    end_to_end = json.load(f)["end_to_end"]


def load(pair, side):
    with open(f"{out}/pair{pair:02d}.{side}.json") as f:
        doc = json.load(f)
    return {w["workload"]: w for w in doc.get("workloads", [doc])}


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    return statistics.quantiles(xs, n=4, method="inclusive")


runs = [(load(p, "parent"), load(p, "change")) for p in range(1, pairs + 1)]
print("| workload | metric | parent median (q1-q3) | change median (q1-q3) "
      "| change | wins | exact, failed_share |")
print("|---|---|---|---|---|---|---|")
incorrect = 0
for name in runs[0][0]:
    sides = [(a[name], b[name]) for a, b in runs if name in a and name in b]
    incorrect += sum(not w["correct"] for pair in sides for w in pair)
    pinned = all(
        a["exact"] == b["exact"]
        and a["failed"] * b["attempted"] == b["failed"] * a["attempted"]
        for a, b in sides)
    for spec in end_to_end:
        m = spec["name"]
        av = [a["metrics"][m]["value"] for a, _ in sides]
        bv = [b["metrics"][m]["value"] for _, b in sides]
        sign = 1 if spec["better"] == "lower" else -1
        wins = sum(sign * (x - y) > 0 for x, y in zip(av, bv))
        (aq1, amed, aq3), (bq1, bmed, bq3) = quartiles(av), quartiles(bv)
        print(f"| `{name}` | `{m}` | {amed:.4g} ({aq1:.4g}-{aq3:.4g}) | "
              f"{bmed:.4g} ({bq1:.4g}-{bq3:.4g}) | {(bmed - amed) / amed:+.1%} | "
              f"{wins} of {len(sides)} | {'match' if pinned else 'DIFFER'} |")
print(f"{pairs} pairs, {incorrect} runs not `correct`; every run's file is in {out}")
PY
