#!/usr/bin/env python3
"""A/A check of the qkmps benchmark: the same build, run repeatedly.

    python3 perfbench/aa.py [--first-seed 1] [--out FILE]

Run from the root of a qkmps checkout. For run i of 10 (seed first_seed + i)
it runs every workload of BENCHMARK.json once, so workloads interleave and
the runs alternate between two halves, A (even i) and B (odd i). For every
end-to-end metric it prints the median, the quartiles, the spread (the
interquartile range over the median, as the bounds are judged) and the gap
between the two halves' medians, against the metric's bound. It then makes
2 traced runs per workload on different seeds and checks that the
exact-count per-layer metrics repeat bit for bit. Exits non-zero when a run
fails, a check fails, or a figure is outside its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

RUNS = 10
TRACED_RUNS = 2
EXACT_COUNTS = ("kernel.circuits", "kernel.overlaps", "alloc.simulate",
                "alloc.gram", "alloc.cross", "alloc.svm", "alloc.per_overlap",
                "svm.iterations", "svm.support_vectors", "serve.submitted",
                "serve.served", "serve.simulated", "parallel.frames_per_req")


def run_once(cfg, workload, seed, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(cfg["run_seconds"]),
           "--trace", "1" if trace else "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
    if out.returncode != 0:
        raise SystemExit(f"aa.py: {' '.join(cmd)} exited {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", default="")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        cfg = json.load(f)
    names = [w["name"] for w in cfg["workloads"]]
    bounds = {m["name"]: m for m in cfg["end_to_end"]}

    results = {w: [] for w in names}
    for i in range(RUNS):
        for w in names:
            r = run_once(cfg, w, args.first_seed + i, False)
            results[w].append(r)
            print(f"# {time.strftime('%H:%M:%S')} {w} seed={args.first_seed + i} "
                  f"half={'AB'[i % 2]} "
                  f"correct={r['correct']} failed={r['failed']}/{r['attempted']}",
                  file=sys.stderr, flush=True)
    traced = {w: [run_once(cfg, w, args.first_seed + j, True)
                  for j in range(TRACED_RUNS)] for w in names}

    ok = True
    for w in names:
        runs = results[w]
        print(f"\n== {w}: {len(runs)} runs, halves A/B alternate")
        shares = {r["failed"] / r["attempted"] for r in runs}
        correct = all(r["correct"] for r in runs)
        print(f"correct in every run: {correct}; failed shares: {sorted(shares)}")
        ok = ok and correct and len(shares) == 1
        print(f"{'metric':<14}{'median':>12}{'q1':>12}{'q3':>12}"
              f"{'spread':>9}{'A med':>12}{'B med':>12}{'gap':>8}{'bound':>7}")
        for name, spec in bounds.items():
            vals = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = quartiles(vals)
            a = statistics.median(vals[0::2])
            b = statistics.median(vals[1::2])
            spread = (q3 - q1) / med
            worse = (b - a) / a if spec["better"] == "lower" else (a - b) / a
            bound = spec["bound"]
            flag = ""
            if spread > bound:
                flag, ok = " SPREAD>BOUND", False
            elif abs(worse) > bound:
                flag, ok = " GAP>BOUND", False
            elif spread > bound / 3:
                flag = " spread>bound/3"
            print(f"{name:<14}{med:>12.5g}{q1:>12.5g}{q3:>12.5g}{spread:>9.3f}"
                  f"{a:>12.5g}{b:>12.5g}{worse:>+8.3f}{bound:>7.2f}{flag}")
        differ = [n for n in EXACT_COUNTS
                  if len({t["metrics"][n]["value"] for t in traced[w]}) != 1]
        ok = ok and not differ and all(t["correct"] for t in traced[w])
        print(f"exact counts over {TRACED_RUNS} traced runs: "
              + (f"DIFFER: {differ}" if differ else "identical"))

    if args.out:
        with open(args.out, "w") as f:
            json.dump({"untraced": results, "traced": traced}, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
