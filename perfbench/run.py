"""minenergy benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload steer --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout.  The workload's scenarios are
generated from the seed (workloads.py) and run through ``minenergy run`` in
rounds: every scenario of a round runs in its own fresh interpreter
(worker.py), one after another, and rounds repeat until ``--seconds`` have
passed.  The first round's outputs are checked against independent
references (checks.py); every later round must reproduce them byte for byte.

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics:

  setup_s      launch of a fresh interpreter to ``minenergy.cli`` imported,
               median over every launch of the run
  run_s        wall time of the workload's scenarios after set-up: the sum
               over scenarios of each one's median over rounds
  cpu_s        user + system CPU time of the scenario processes after
               set-up, summed the same way
  peak_rss_mb  largest peak resident set of a round's scenario processes

With ``--trace 1`` every scenario process wraps the package's functions
(spans.py) and the last line holds the per-layer metrics instead.  Each
scenario task is one operation; a task that errors or reports a failed
verdict counts as failed.  BLAS runs single-threaded.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import checks
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
OUT_ROOT = os.path.join(ROOT, ".bench_out")
WORKER_TIMEOUT_S = 120

END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"))


def _group(name, field):
    return lambda layers: layers[name][field]


def _ratio(name):
    return lambda layers: (layers[name]["hits"] / layers[name]["gets"]
                           if layers[name]["gets"] else 0.0)


def _self_sum(*names):
    return lambda layers: sum(layers[n]["self"] for n in names)


PER_LAYER = [
    ("gramians.compute.calls", "count", _group("gramians.compute", "calls")),
    ("gramians.compute.self_s", "s", _group("gramians.compute", "self")),
    ("gramians.lyapunov_solve.calls", "count", _group("gramians.lyapunov_solve", "calls")),
    ("gramians.lyapunov_solve.self_s", "s", _group("gramians.lyapunov_solve", "self")),
    ("gramians.quadrature.calls", "count", _group("gramians.quadrature", "calls")),
    ("gramians.quadrature.self_s", "s", _group("gramians.quadrature", "self")),
    ("gramians.cache.gets", "count", _group("gramians.cache", "gets")),
    ("gramians.cache.hit_ratio", "ratio", _ratio("gramians.cache")),
    ("energy.value.calls", "count", _group("energy.value", "calls")),
    ("energy.control.self_s", "s", _group("energy.control", "self")),
    ("energy.trajectory.self_s", "s", _group("energy.trajectory", "self")),
    ("energy.null_controllability.self_s", "s", _group("energy.null_controllability", "self")),
    ("linalg.expm.calls", "count", _group("linalg.expm", "calls")),
    ("linalg.expm.self_s", "s", _group("linalg.expm", "self")),
    ("linalg.psd.calls", "count", _group("linalg.psd", "calls")),
    ("linalg.psd.self_s", "s", _group("linalg.psd", "self")),
    ("linalg.range_inclusion.calls", "count", _group("linalg.range_inclusion", "calls")),
    ("linalg.range_inclusion.self_s", "s", _group("linalg.range_inclusion", "self")),
    ("riccati.residual.calls", "count", _group("riccati.residual", "calls")),
    ("riccati.residual.self_s", "s", _group("riccati.residual", "self")),
    ("riccati.probes.self_s", "s", _group("riccati.probes", "self")),
    ("riccati.candidate.evals", "count", _group("riccati.candidate", "gets")),
    ("riccati.candidate.hit_ratio", "ratio", _ratio("riccati.candidate")),
    ("riccati.commuting.self_s", "s", _group("riccati.commuting", "self")),
    ("riccati.lyapunov.self_s", "s", _group("riccati.lyapunov", "self")),
    ("systems.construct.calls", "count", _group("systems.construct", "calls")),
    ("systems.fingerprint.calls", "count", _group("systems.fingerprint", "calls")),
    ("systems.self_s", "s", _self_sum("systems.construct", "systems.fingerprint", "systems.other")),
    ("models.delay_fundamental.calls", "count", _group("models.delay_fundamental", "calls")),
    ("models.delay_fundamental.hit_ratio", "ratio", _ratio("models.delay_fundamental")),
    ("models.delay_gramian.self_s", "s", _group("models.delay_gramian", "self")),
    ("models.delay_semigroup.self_s", "s", _group("models.delay_semigroup", "self")),
    ("models.spectral.self_s", "s", _group("models.spectral", "self")),
    ("models.shift.self_s", "s", _group("models.shift", "self")),
    ("exppoly.eval.calls", "count", _group("exppoly.eval", "calls")),
    ("exppoly.eval.self_s", "s", _group("exppoly.eval", "self")),
    ("exppoly.algebra.calls", "count", _group("exppoly.algebra", "calls")),
    ("exppoly.algebra.self_s", "s", _group("exppoly.algebra", "self")),
    ("exppoly.integrate.self_s", "s", _group("exppoly.integrate", "self")),
] + [
    (f"cli.task.{task}.busy_s", "s", _group(f"cli.task.{task}", "busy"))
    for task in ("gramian", "min-energy", "verify-riccati", "verify-lyapunov", "commuting-family",
                 "recover-L", "project-check", "null-controllability", "sweep")
] + [
    ("cli.load.busy_s", "s", lambda layers: layers["cli.load.busy"]),
    ("cli.write.busy_s", "s", lambda layers: layers["cli.write.busy"]),
    ("cli.output_bytes", "bytes", lambda layers: layers["cli.output_bytes"]),
]


class BenchError(RuntimeError):
    """The benchmark cannot run here (no source tree, broken interpreter)."""


def worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def _now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def prepare(workload, seed, small, work_dir):
    """Write the workload's scenario files; return the generated items."""
    items = workloads.build(workload, seed, small)
    os.makedirs(work_dir, exist_ok=True)
    for item in items:
        item["path"] = os.path.join(work_dir, item["name"] + ".json")
        with open(item["path"], "w") as f:
            json.dump(item["scenario"], f)
    return items


def warm_up(env):
    """Import the package once (compiles bytecode); fail fast without a source tree."""
    if not os.path.isfile(os.path.join(SRC, "minenergy", "cli.py")):
        raise BenchError(f"no minenergy source tree under {SRC}")
    proc = subprocess.run([sys.executable, "-c", "import minenergy.cli"], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"importing minenergy.cli failed:\n{proc.stderr[-2000:]}")


def _count_failures(item, out_dir, exit_code):
    """(attempted, failed) tasks of one scenario, from its report."""
    attempted = len(item["scenario"]["tasks"])
    try:
        with open(os.path.join(out_dir, "report.json")) as f:
            report = json.load(f)
    except (OSError, ValueError):
        return attempted, attempted
    if exit_code not in (0, 1):
        return attempted, attempted
    return attempted, len(report["failures"])


def run_scenario(item, out_dir, env, traced):
    result_path = out_dir + ".result.json"
    cmd = [sys.executable, WORKER, item["path"], out_dir, result_path]
    if traced:
        cmd.append("--trace")
    launched = _now()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"scenario {item['name']} ran past {WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0 or not os.path.isfile(result_path):
        sys.stderr.write(f"scenario {item['name']} crashed:\n{proc.stderr[-2000:]}\n")
        return None
    with open(result_path) as f:
        res = json.load(f)
    if not os.path.abspath(res["package_file"]).startswith(SRC + os.sep):
        raise BenchError(f"imported {res['package_file']}, not the checkout's package")
    res["setup_s"] = res["imported_at"] - launched
    return res


def run_round(items, round_dir, env, traced):
    """Run every scenario once; return the round's measurements and counts."""
    rnd = {"setups": [], "run_s": {}, "cpu_s": {}, "peak_rss_mb": 0.0,
           "attempted": 0, "failed": 0, "layers": None}
    for item in items:
        out_dir = os.path.join(round_dir, item["name"])
        res = run_scenario(item, out_dir, env, traced)
        exit_code = None if res is None else res["exit_code"]
        attempted, failed = _count_failures(item, out_dir, exit_code)
        rnd["attempted"] += attempted
        rnd["failed"] += failed
        if res is None:
            continue
        rnd["setups"].append(res["setup_s"])
        rnd["run_s"][item["name"]] = res["run_s"]
        rnd["cpu_s"][item["name"]] = res["cpu_s"]
        rnd["peak_rss_mb"] = max(rnd["peak_rss_mb"], res["peak_rss_kb"] / 1024.0)
        if traced:
            rnd["layers"] = _add_layers(rnd["layers"], res["layers"])
            for target in res.get("missing_targets", []):
                sys.stderr.write(f"trace target not found: {target}\n")
    return rnd


def _add_layers(total, layers):
    if total is None:
        return json.loads(json.dumps(layers))
    for key, value in layers.items():
        if isinstance(value, dict):
            for field, x in value.items():
                total[key][field] += x
        else:
            total[key] += value
    return total


def _same_outputs(dir_a, dir_b):
    """Names of output files that differ between two rounds."""
    differ = []
    for dirpath, _, files in os.walk(dir_a):
        for name in files:
            if name.endswith(".result.json"):
                continue
            a = os.path.join(dirpath, name)
            b = os.path.join(dir_b, os.path.relpath(a, dir_a))
            try:
                with open(a, "rb") as fa, open(b, "rb") as fb:
                    if fa.read() != fb.read():
                        differ.append(os.path.relpath(a, dir_a))
            except OSError:
                differ.append(os.path.relpath(a, dir_a))
    return differ


def run_workload(workload, seed, seconds, traced, small=False, work_dir=None, keep=False):
    """Run rounds for ``seconds``; return (result dict, problems list)."""
    work_dir = work_dir or os.path.join(OUT_ROOT, f"{workload}-seed{seed}-pid{os.getpid()}")
    env = worker_env()
    warm_up(env)
    shutil.rmtree(work_dir, ignore_errors=True)
    try:
        items = prepare(workload, seed, small, work_dir)
        first_dir = os.path.join(work_dir, "round0")
        rounds = []
        problems = []
        start = _now()
        while True:
            round_dir = os.path.join(work_dir, f"round{len(rounds)}")
            rounds.append(run_round(items, round_dir, env, traced))
            if len(rounds) == 1:
                for item in items:
                    problems += checks.check_item(item, os.path.join(first_dir, item["name"]))
            else:
                problems += [f"round {len(rounds) - 1} output {name} differs from round 0"
                             for name in _same_outputs(first_dir, round_dir)]
                if not keep:
                    shutil.rmtree(round_dir, ignore_errors=True)
            if _now() - start >= seconds:
                break
    finally:
        if not keep:
            shutil.rmtree(work_dir, ignore_errors=True)
    return summarize(rounds, traced), problems


def _sum_of_medians(rounds, key):
    """Sum over scenarios of each scenario's median over rounds.

    A burst of load from outside slows whichever scenario it lands on; the
    per-scenario median drops it, where the median of round totals would
    keep it whenever it hit half of the rounds anywhere.
    """
    names = {name for r in rounds for name in r[key]}
    return sum(statistics.median([r[key][n] for r in rounds if n in r[key]]) for n in names)


def summarize(rounds, traced):
    med = statistics.median
    out = {
        "rounds": len(rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "completed": any(r["setups"] for r in rounds),
        "run_s": _sum_of_medians(rounds, "run_s"),
        "per_scenario": {n: [r["run_s"].get(n) for r in rounds] for n in rounds[0]["run_s"]},
    }
    if not out["completed"]:
        return out
    if traced:
        per_round = [{name: float(fn(r["layers"])) for name, _, fn in PER_LAYER}
                     for r in rounds if r["layers"] is not None]
        out["metrics"] = {name: {"value": med([pr[name] for pr in per_round]), "unit": unit}
                          for name, unit, _ in PER_LAYER}
    else:
        values = {
            "setup_s": med([s for r in rounds for s in r["setups"]]),
            "run_s": out["run_s"],
            "cpu_s": _sum_of_medians(rounds, "cpu_s"),
            "peak_rss_mb": med([r["peak_rss_mb"] for r in rounds]),
        }
        out["metrics"] = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--small", action="store_true",
                        help="smallest sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)
    try:
        summary, problems = run_workload(args.workload, args.seed, args.seconds,
                                         bool(args.trace), small=args.small)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for problem in problems:
        print(f"check failed: {problem}")
    print(f"{args.workload} seed {args.seed}: {summary['rounds']} rounds, "
          f"{'traced ' if args.trace else ''}run_s {summary['run_s']:.6f}; per scenario and round: "
          + json.dumps(summary["per_scenario"]))
    if not summary["completed"]:
        print("error: no scenario completed", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": not problems,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": summary["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
