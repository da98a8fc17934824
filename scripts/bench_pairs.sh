#!/usr/bin/env bash
# Before/after of the repo's benchmark in alternating pairs within one
# session (choosing-metrics guide, section 8): the parent revision against
# the working tree.
#
#   scripts/bench_pairs.sh <parent-rev> [--workload W] [--pairs N] [--seconds S] [--seed X]
#                          [--trace 0|1] [--layer NAME]...
#   scripts/bench_pairs.sh <parent-rev> --repro <figure> [--pairs N]
#
# <parent-rev> is exported with `git archive` into a temporary directory
# (under $TMPDIR, removed on exit; nothing is registered in .git) and built
# into a target directory of its own there. Each pair runs benchmark/run.sh
# once per side, and the side that goes first flips every pair. Defaults:
# 10 pairs, all six workloads, the benchmark's own run length and seed
# (`--seed 0xB10C` is the held-out one). Every run's result file is kept
# under benchmark/results/pairs/ (ignored by git), and the summary prints,
# per workload and end-to-end metric of BENCHMARK.json, each side's median
# and quartiles over the runs, the pairs the change won (ties count for
# neither), the verdict of the guide's rule on those numbers, and whether
# every `exact` value and `failed_share` matched (an end-to-end metric
# the runs do not report has no row; a workload with none has one row
# for that last column). Besides BENCHMARK.json's metrics it judges
# `wall_us_per_req`, 10^6 over the host-normalised `detail.wall_req_per_s`
# every run reports, by the bound of `wall_us_per_access`: wall time per
# access divides by dummy accesses too, so a change that moves
# `sim_accesses_per_req` is judged per request, and per access is then a
# diagnostic. Below the table, each `exact` row that differs
# (and `failed_share`, if it does) is listed with its parent and change
# values, so a model change shows what it moved:
#
#   gain        the change won at least nine tenths of the pairs and the
#               medians differ by more than the parent's q1-q3 distance
#   worse       the change's median is worse than the parent's by more than
#               the metric's `bound` in BENCHMARK.json
#   unresolved  the parent's q1-q3 distance over its median exceeds that
#               bound, and not every change run beat every parent run
#   same        none of the above
#
# --trace 1 is passed to run.sh, whose traced pass reports the per-layer
# metrics of BENCHMARK.json and no end-to-end one. Each --layer NAME (any
# number of them) adds a row per workload for that per-layer metric: each
# side's median and quartiles and the change of the medians, with no
# verdict — a layer explains an end-to-end row, it is not judged alone.
#
# With --repro each side runs the release `repro <figure>` instead (full
# budget: the paper geometry, L = 24, which no benchmark row has), from a
# scratch directory so the figures' files land there. Its rows are the
# wall seconds and the max RSS in MB (python's getrusage(RUSAGE_CHILDREN)),
# judged with the bounds of `wall_us_per_access` and `peak_rss_mb`; the
# last column says whether both sides printed the same.
#
# The first line to stderr and the summary's last line print nproc, the
# CPUs the runs may use: a result that depends on threads is read beside it.
# `taskset -c 0 scripts/bench_pairs.sh ...` pins every run to one CPU (and
# prints nproc 1).
#
# Needs bash, git, cargo and python3; no network.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
    sed -n '2,8p' "$0" >&2
    exit 2
}
[ $# -ge 1 ] || usage
rev=$1
shift
pairs=10
workload=
figure=
trace=0
layers=()
run_args=()
while [ $# -gt 0 ]; do
    [ $# -ge 2 ] || usage
    case $1 in
        --workload) workload=$2; run_args+=(--workload "$2") ;;
        --pairs) pairs=$2 ;;
        --seconds | --seed) run_args+=("$1" "$2") ;;
        --trace) trace=$2; run_args+=(--trace "$2") ;;
        --layer) layers+=("$2") ;;
        --repro) figure=$2 ;;
        *) usage ;;
    esac
    shift 2
done
[ -z "$figure" ] || [ $((${#run_args[@]} + ${#layers[@]})) -eq 0 ] || usage

commit=$(git rev-parse --verify "$rev^{commit}")
tmp=$(mktemp -d "${TMPDIR:-/tmp}/bench_pairs.XXXXXX")
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/parent" "$tmp/cwd"
git archive "$commit" | tar -x -C "$tmp/parent"

change=$PWD
out=$change/benchmark/results/pairs
mkdir -p "$out"
# What one run of run.sh leaves behind: the gathered file, or with
# --workload that workload's own.
if [ -n "$workload" ]; then
    result=benchmark/results/$workload.trace$trace.json
elif [ "$trace" = 1 ]; then
    result=benchmark/results/latest_trace.json
else
    result=benchmark/results/latest.json
fi
# The package each side builds, and where the change side's build lands.
if [ -n "$figure" ]; then
    package=(-p fp-bench --bin repro) own_target=target
else
    package=(--manifest-path benchmark/Cargo.toml) own_target=benchmark/target
fi

# run_side <parent|change> <pair>: one run in that tree.
run_side() {
    local tree=$change target=${CARGO_TARGET_DIR:-$change/$own_target}
    if [ "$1" = parent ]; then
        tree=$tmp/parent target=$tmp/target
    fi
    if [ -n "$figure" ]; then
        (cd "$tmp/cwd" && python3 - "$target/release/repro" "$figure" "$out/pair$2.$1") <<'PY'
import hashlib, json, resource, subprocess, sys, time

binary, figure, stem = sys.argv[1:]
start = time.perf_counter()
with open(stem + ".txt", "wb") as stdout:
    code = subprocess.run([binary, figure], stdout=stdout).returncode
wall = time.perf_counter() - start
rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
with open(stem + ".txt", "rb") as stdout:
    printed = hashlib.sha256(stdout.read()).hexdigest()
# The benchmark's result shape, so one summary reads both.
with open(stem + ".json", "w") as f:
    json.dump({"workload": f"repro {figure}", "correct": code == 0,
               "exact": printed, "failed": 0, "attempted": 1,
               "metrics": {"wall_s": {"value": wall},
                           "max_rss_mb": {"value": rss_mb}}}, f)
PY
        return
    fi
    # A failed operation makes run.sh exit non-zero; the summary reports it.
    (cd "$tree" && CARGO_TARGET_DIR=$target bash benchmark/run.sh "${run_args[@]}") \
        >"$out/pair$2.$1.txt" || echo "pair $2: $1 run exited non-zero" >&2
    cp "$tree/$result" "$out/pair$2.$1.json"
}

echo "building both sides (parent $commit; nproc $(nproc))" >&2
(cd "$tmp/parent" && CARGO_TARGET_DIR="$tmp/target" \
    cargo build --release --offline --quiet "${package[@]}")
cargo build --release --offline --quiet "${package[@]}"

for ((p = 1; p <= pairs; p++)); do
    n=$(printf '%02d' "$p")
    if ((p % 2)); then order="parent change"; else order="change parent"; fi
    echo "pair $n of $pairs: $order" >&2
    for side in $order; do
        run_side "$side" "$n"
    done
done

python3 - "$out" "$pairs" "$figure" ${layers[@]+"${layers[@]}"} <<'PY'
import json, os, statistics, sys

out, pairs, figure, layers = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4:]
with open("BENCHMARK.json") as f:
    end_to_end = json.load(f)["end_to_end"]
spec = {s["name"]: s for s in end_to_end}
if figure:
    end_to_end = [dict(spec["wall_us_per_access"], name="wall_s"),
                  dict(spec["peak_rss_mb"], name="max_rss_mb")]
else:
    at = end_to_end.index(spec["wall_us_per_access"]) + 1
    end_to_end.insert(at, dict(spec["wall_us_per_access"], name="wall_us_per_req"))


def metric(w, m):
    """Run `w`'s value of end-to-end metric `m`, or None if it has none."""
    if m == "wall_us_per_req":
        rate = w.get("detail", {}).get("wall_req_per_s", {}).get("value")
        return 1e6 / rate if rate else None
    return w["metrics"][m]["value"] if m in w["metrics"] else None


def load(pair, side):
    with open(f"{out}/pair{pair:02d}.{side}.json") as f:
        doc = json.load(f)
    return {w["workload"]: w for w in doc.get("workloads", [doc])}


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    return statistics.quantiles(xs, n=4, method="inclusive")


def verdict(spec, av, bv, wins):
    """The header's rule for one row; `wins` = pairs the change won."""
    sign = 1 if spec["better"] == "lower" else -1
    (aq1, amed, aq3), (_, bmed, _) = quartiles(av), quartiles(bv)
    better_by = sign * (amed - bmed)
    if 10 * wins >= 9 * len(av) and better_by > aq3 - aq1:
        return "gain"
    if -better_by > spec["bound"] * abs(amed):
        return "worse"
    swept = all(sign * (a - b) > 0 for a in av for b in bv)
    if aq3 - aq1 > spec["bound"] * abs(amed) and not swept:
        return "unresolved"
    return "same"


runs = [(load(p, "parent"), load(p, "change")) for p in range(1, pairs + 1)]


def exact_rows(w):
    """A run's `exact` block as named values (a --repro run's is one hash)."""
    rows = w["exact"] if isinstance(w["exact"], dict) else {"stdout sha256": w["exact"]}
    rows = {k: v["value"] if isinstance(v, dict) else v for k, v in rows.items()}
    rows["failed_share"] = w["failed"] / w["attempted"] if w["attempted"] else 0
    return rows


def shown(values):
    """Every distinct value a side read, in first-seen order."""
    seen = list(dict.fromkeys(f"{v:.10g}" if isinstance(v, float) else str(v) for v in values))
    return " / ".join(seen)


differ = []
print("| workload | metric | parent median (q1-q3) | change median (q1-q3) "
      "| change | wins | verdict | exact, failed_share |")
print("|---|---|---|---|---|---|---|---|")
incorrect = 0
for name in runs[0][0]:
    sides = [(a[name], b[name]) for a, b in runs if name in a and name in b]
    incorrect += sum(not w["correct"] for pair in sides for w in pair)
    pinned = all(
        a["exact"] == b["exact"]
        and a["failed"] * b["attempted"] == b["failed"] * a["attempted"]
        for a, b in sides)
    if not pinned:
        rows = [(exact_rows(a), exact_rows(b)) for a, b in sides]
        for row in rows[0][0]:
            if any(a.get(row) != b.get(row) for a, b in rows):
                differ.append((name, row, shown(a.get(row) for a, _ in rows),
                               shown(b.get(row) for _, b in rows)))
    reported = [spec for spec in end_to_end
                if all(metric(w, spec["name"]) is not None for pair in sides for w in pair)]
    if not reported:
        print(f"| `{name}` | none reported | | | | | | {'match' if pinned else 'DIFFER'} |")
    for spec in reported:
        m = spec["name"]
        av = [metric(a, m) for a, _ in sides]
        bv = [metric(b, m) for _, b in sides]
        sign = 1 if spec["better"] == "lower" else -1
        wins = sum(sign * (x - y) > 0 for x, y in zip(av, bv))
        (aq1, amed, aq3), (bq1, bmed, bq3) = quartiles(av), quartiles(bv)
        print(f"| `{name}` | `{m}` | {amed:.4g} ({aq1:.4g}-{aq3:.4g}) | "
              f"{bmed:.4g} ({bq1:.4g}-{bq3:.4g}) | {(bmed - amed) / amed:+.1%} | "
              f"{wins} of {len(sides)} | {verdict(spec, av, bv, wins)} | "
              f"{'match' if pinned else 'DIFFER'} |")
if differ:
    print()
    print("| workload | `exact` row that differs | parent | change |")
    print("|---|---|---|---|")
    for name, row, parent, change in differ:
        print(f"| `{name}` | `{row}` | {parent} | {change} |")
if layers:
    print()
    print("| workload | per-layer metric | parent median (q1-q3) | change median (q1-q3) "
          "| change |")
    print("|---|---|---|---|---|")
for name in runs[0][0] if layers else []:
    sides = [(a[name], b[name]) for a, b in runs if name in a and name in b]
    for m in layers:
        av = [a["metrics"][m]["value"] for a, _ in sides if m in a["metrics"]]
        bv = [b["metrics"][m]["value"] for _, b in sides if m in b["metrics"]]
        if not av or not bv:
            print(f"| `{name}` | `{m}` | not reported (per-layer metrics need --trace 1) | | |")
            continue
        (aq1, amed, aq3), (bq1, bmed, bq3) = quartiles(av), quartiles(bv)
        change = f"{(bmed - amed) / abs(amed):+.1%}" if amed else "n/a"
        print(f"| `{name}` | `{m}` | {amed:.4g} ({aq1:.4g}-{aq3:.4g}) | "
              f"{bmed:.4g} ({bq1:.4g}-{bq3:.4g}) | {change} |")
print(f"{pairs} pairs, nproc {len(os.sched_getaffinity(0))}, {incorrect} runs not `correct`; "
      f"every run's file is in {out}")
PY
