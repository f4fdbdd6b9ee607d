#!/usr/bin/env python3
"""Steadiness and determinism proof for the solver benchmark.

Run from the repository root:

    python3 solverbench/steady.py [--runs 10] [--seed0 1] [--workloads a,b]
                                  [--seconds S] [--determinism] [--out FILE]
                                  [--against FILE]

For every workload it runs the command in BENCHMARK.json `--runs` times,
each with another seed, and reports for each end-to-end metric the median
and the spread: the distance between the first and third quartile
(`statistics.quantiles(values, n=4)`) as a share of the median. A spread
at or above a third of the metric's bound is flagged UNSTEADY (setup_s is
exempt from the spread rule, as its bound only limits the median).

`--out` saves every value; `--against` compares the medians with those of
an earlier `--out` file and flags a metric whose median is worse than
the earlier one by more than its bound (as a share of the earlier median).

`--determinism` additionally runs the first seed twice with `--trace 0`
and twice with `--trace 1` per workload and requires the deterministic
figures to repeat bit for bit; any difference is reported as a DEFECT.
The exit code is 1 when any run failed, any figure is unsteady or worse
than the earlier set, or any determinism defect was found.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

# Figures that must repeat exactly for a fixed seed.
DETERMINISTIC = {
    0: ["bytes_per_dof", "relres"],
    1: [
        "skeletonize.boxes",
        "skeletonize.rank_sum",
        "skeletonize.sketch_fallbacks",
        "core.top_size",
        "core.record_bytes",
        "store.peak_bytes",
        "runtime.factor_words_max_rank",
        "runtime.factor_msgs_max_rank",
        "runtime.solve_words_max_rank",
        "runtime.solve_msgs_max_rank",
        "serve.bytes_max_rank",
    ],
}


def run_once(bench, workload, seed, seconds, trace):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    ok = proc.returncode == 0 and result is not None and result["correct"]
    if not ok:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
    return ok, result, wall


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seconds", type=int, default=0)
    ap.add_argument("--determinism", action="store_true")
    ap.add_argument("--out", default="")
    ap.add_argument("--against", default="")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    lower = {m["name"]: m["better"] == "lower" for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")

    bad = False
    record = {}
    for w in names if args.runs else []:
        per_metric = {}
        walls = []
        for i in range(args.runs):
            seed = args.seed0 + i
            ok, res, wall = run_once(bench, w, seed, seconds, 0)
            walls.append(wall)
            if not ok:
                print(f"{w} seed {seed}: FAILED")
                bad = True
                continue
            for k, v in res["metrics"].items():
                per_metric.setdefault(k, []).append(v["value"])
        record[w] = per_metric
        print(f"\n{w}: {args.runs} runs, wall per run median {statistics.median(walls):.1f} s, max {max(walls):.1f} s")
        print(f"  {'metric':<18} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for k, vals in per_metric.items():
            if len(vals) < 2:
                continue
            med, q1, q3, s = spread(vals)
            b = bounds.get(k)
            flag = ""
            if b is not None and k != "setup_s" and s >= b / 3:
                flag = "UNSTEADY"
                bad = True
            print(f"  {k:<18} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {s:>8.4f} {b if b is not None else '-':>6} {flag}")

    if args.against:
        with open(args.against) as f:
            earlier = json.load(f)
        print(f"\nmedians against {args.against}:")
        for w, per_metric in record.items():
            for k, vals in per_metric.items():
                if k not in earlier.get(w, {}) or k not in bounds:
                    continue
                before = statistics.median(earlier[w][k])
                after = statistics.median(vals)
                worse = (after - before) if lower[k] else (before - after)
                share = worse / before if before else 0.0
                flag = "WORSE" if share > bounds[k] else ""
                bad |= bool(flag)
                print(f"  {w:<22} {k:<16} {before:>12.6g} -> {after:>12.6g}  worse by {share:+.4f} (bound {bounds[k]}) {flag}")

    if args.determinism:
        for w in names:
            for trace, keys in DETERMINISTIC.items():
                seen = []
                for _ in range(2):
                    ok, res, _ = run_once(bench, w, args.seed0, seconds, trace)
                    if not ok:
                        print(f"{w} trace {trace}: FAILED")
                        bad = True
                        break
                    seen.append({k: res["metrics"][k]["value"] for k in keys})
                if len(seen) == 2:
                    diff = [k for k in keys if seen[0][k] != seen[1][k]]
                    for k in diff:
                        print(f"DEFECT {w} trace {trace}: {k} {seen[0][k]!r} != {seen[1][k]!r}")
                    bad |= bool(diff)
                    if not diff:
                        print(f"{w} trace {trace}: {len(keys)} deterministic figures repeat exactly")

    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
