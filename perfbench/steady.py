"""Steadiness of the end-to-end metrics, and the bounds derived from it.

    python3 perfbench/steady.py                   # 2 sets x seeds 0-9 x every workload
    python3 perfbench/steady.py --sets 1 --seeds 0-4 --workloads steer
    python3 perfbench/steady.py --write           # also store the bounds in BENCHMARK.json

Every set runs each workload once per seed (untraced, ``run_seconds`` from
BENCHMARK.json), so two sets run every seed twice.  For each workload and
metric it prints each set's median and quartiles, the spread (interquartile
distance over median) and the shift of the second set's median from the
first.  A metric's bound is the smallest hundredth that is at least three
times the largest spread and twice the largest shift seen on any workload,
at least 0.05 and at most 0.25.  ``setup_s`` is then raised to the largest
bound derived for any metric: set-up is gated on the shift of its median
only, and a fresh interpreter's import time moves most with machine load.  A
workload whose spread on some metric other than ``setup_s`` exceeds a third
of 0.25 is reported as unsteady: even the largest bound leaves it less than
a threefold margin, and it should be made steadier or dropped.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
MAX_BOUND = 0.25
MIN_BOUND = 0.05


def _seeds(text):
    out = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    return out


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def describe(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def derive_bound(spreads, shifts):
    need = max([MIN_BOUND] + [3.0 * s for s in spreads] + [2.0 * abs(s) for s in shifts])
    return min(MAX_BOUND, math.ceil(need * 100.0 - 1e-9) / 100.0)


def main(argv=None):
    with open(BENCHMARK) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="0-9", help="e.g. 0-9 or 3,5,8")
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--write", action="store_true", help="store the bounds in BENCHMARK.json")
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    seeds = _seeds(args.seeds)
    metrics = [m["name"] for m in bench["end_to_end"]]

    runs = {w: [[] for _ in range(args.sets)] for w in workloads}
    for k in range(args.sets):
        for w in workloads:
            for seed in seeds:
                result = run_once(w, seed, args.seconds)
                runs[w][k].append(result)
                print(f"set {k} {w} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']} "
                      + " ".join(f"{m}={result['metrics'][m]['value']:.4f}" for m in metrics),
                      flush=True)

    report = {"seeds": seeds, "sets": args.sets, "seconds": args.seconds, "workloads": {}}
    spreads = {m: [] for m in metrics}
    shifts = {m: [] for m in metrics}
    unsteady = []
    for w in workloads:
        report["workloads"][w] = {}
        print(f"\n{w}")
        failed_share = {r["failed"] / r["attempted"] for rs in runs[w] for r in rs}
        correct = all(r["correct"] for rs in runs[w] for r in rs)
        print(f"  correct in every run: {correct}; failed shares seen: {sorted(failed_share)}")
        for m in metrics:
            sets = [describe([r["metrics"][m]["value"] for r in rs]) for rs in runs[w]]
            shift = [(s["median"] - sets[0]["median"]) / sets[0]["median"] for s in sets[1:]]
            report["workloads"][w][m] = {"sets": sets, "shift": shift}
            spreads[m] += [s["spread"] for s in sets]
            shifts[m] += shift
            if m != "setup_s" and max(s["spread"] for s in sets) > MAX_BOUND / 3.0:
                unsteady.append((w, m))
            print(f"  {m:12s} " + " | ".join(
                f"median {s['median']:.4f} q1 {s['q1']:.4f} q3 {s['q3']:.4f} spread {s['spread']:.3f}"
                for s in sets) + ("" if not shift else f" | shift {shift[0]:+.3f}"))

    bounds = {m: derive_bound(spreads[m], shifts[m]) for m in metrics}
    bounds["setup_s"] = max(bounds.values())
    report["bounds"] = bounds
    report["unsteady"] = unsteady
    print("\nbounds: " + ", ".join(f"{m}={b}" for m, b in bounds.items()))
    for w, m in unsteady:
        print(f"unsteady: {w} {m} spreads beyond {MAX_BOUND / 3:.3f}")
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_out", "steady.json"), "w") as f:
        json.dump(report, f, indent=2)
    if args.write:
        for m in bench["end_to_end"]:
            m["bound"] = bounds[m["name"]]
        with open(BENCHMARK, "w") as f:
            f.write(json.dumps(bench, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
