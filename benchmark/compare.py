#!/usr/bin/env python3
"""Compare two result files of the benchmark (A = parent, B = change).

    benchmark/compare.sh A.json B.json

A and B are files written by `benchmark/run.sh` (results/latest.json,
results/latest_trace.json, or the committed baselines). The bounds come
from BENCHMARK.json at the repo root. One row per workload x metric:

  better      B's median is better than A's by more than the bound
  within      the medians differ by no more than the bound
  worse       B's median is worse than A's by more than the bound
  unresolved  the medians differ by no more than the bound, but on one
              side the repetitions themselves spread (interquartile range
              over median) wider than the bound, so "no change" cannot be
              told from a change of the bound's size
  same / DIFFERS  for values that must match bit for bit: every sim_*
              value and failed_share

A verdict here is about two runs, not a claim of a gain: a gain needs ten
alternating pairs (see the choosing-metrics guide). Per-layer metrics carry
no bound and are listed with their relative change only.

Exit status: 1 on any `worse`, `DIFFERS`, failed operation or incorrect
run; 2 on unusable input; else 0.
"""
import json
import os
import sys


def load(path):
    with open(path) as f:
        doc = json.load(f)
    return {w["workload"]: w for w in doc["workloads"]}, doc


def spread(m):
    """Interquartile range of a metric's repetitions over their median."""
    if "q1" not in m or not m["value"]:
        return 0.0
    return abs(m["q3"] - m["q1"]) / abs(m["value"])


def verdict(spec, am, bm):
    av, bv = am["value"], bm["value"]
    worse_by = (bv - av) / av if spec["better"] == "lower" else (av - bv) / av
    if worse_by > spec["bound"]:
        return "worse"
    if worse_by < -spec["bound"]:
        return "better"
    if max(spread(am), spread(bm)) > spec["bound"]:
        return "unresolved"
    return "within"


def main(argv):
    if len(argv) != 3:
        print(__doc__)
        return 2
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "..", "BENCHMARK.json")) as f:
        bounded = {m["name"]: m for m in json.load(f)["end_to_end"]}
    (a_runs, a_doc), (b_runs, b_doc) = load(argv[1]), load(argv[2])
    if a_doc.get("seed") != b_doc.get("seed"):
        print(f"note: seeds differ ({a_doc.get('seed')} vs {b_doc.get('seed')}): "
              "sim_* values are only comparable for one seed")

    bad = 0
    print(f"{'workload':<18} {'metric':<36} {'A':>14} {'B':>14} {'change':>8}  verdict")
    for name, a in a_runs.items():
        b = b_runs.get(name)
        if b is None:
            print(f"{name:<18} missing from B")
            bad += 1
            continue
        for side, run in (("A", a), ("B", b)):
            if not run["correct"] or run["failed"]:
                print(f"{name:<18} {side} is incorrect: failed {run['failed']} of "
                      f"{run['attempted']}; {run['problems'][:3]}")
                bad += 1

        def row(metric, av, bv, word):
            change = (bv - av) / av if av else 0.0
            print(f"{name:<18} {metric:<36} {av:>14.6g} {bv:>14.6g} {change:>+8.1%}  {word}")

        share = [r["failed"] / max(r["attempted"], 1) for r in (a, b)]
        row("failed_share", share[0], share[1], "same" if share[0] == share[1] else "DIFFERS")
        rows = [(m, am, b[part].get(m))
                for part in ("metrics", "detail", "exact") for m, am in a[part].items()]
        for metric, am, bm in rows:
            if bm is None:
                continue
            if metric.startswith("sim_"):
                word = "same" if am["value"] == bm["value"] else "DIFFERS"
            elif metric in bounded:
                word = verdict(bounded[metric], am, bm)
            else:
                word = ""
            bad += word in ("worse", "DIFFERS")
            row(metric, am["value"], bm["value"], word)
    print("FAIL" if bad else "OK", f"({bad} rows worse, differing or incorrect)")
    return 1 if bad else 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv))
    except (OSError, KeyError, ValueError) as e:
        print(f"compare: unusable input: {e!r}", file=sys.stderr)
        sys.exit(2)
