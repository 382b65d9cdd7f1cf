"""One `minenergy run` in a fresh interpreter, timed from inside.

    python3 perfbench/worker.py SCENARIO OUT_DIR RESULT_JSON [--trace]

The first statement imports ``minenergy.cli`` so that the CLOCK_MONOTONIC
stamp taken right after it, minus the launcher's stamp taken just before it
started this process, is the set-up time a CLI user pays.  The scenario then
runs through ``minenergy.cli.main(["run", ...])``, the same path as the
``minenergy run`` command.  With ``--trace`` the public functions of every
module are wrapped first (see spans.py) and per-layer aggregates are written
beside the timings.
"""

import minenergy.cli  # first import: it is what set-up measures
import time

IMPORTED_AT = time.clock_gettime(time.CLOCK_MONOTONIC)

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def _cpu_seconds():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _tree_bytes(path):
    total = 0
    for dirpath, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(dirpath, f)) for f in files)
    return total


def main(argv):
    scenario, out_dir, result_path = argv[:3]
    traced = "--trace" in argv[3:]
    tracer = None
    if traced:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    cpu0 = _cpu_seconds()
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    exit_code = minenergy.cli.main(["run", scenario, "--out", out_dir])
    t1 = time.clock_gettime(time.CLOCK_MONOTONIC)
    cpu1 = _cpu_seconds()
    result = {
        "exit_code": exit_code,
        "imported_at": IMPORTED_AT,
        "run_s": t1 - t0,
        "cpu_s": cpu1 - cpu0,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "package_file": minenergy.cli.__file__,
    }
    if tracer is not None:
        result["layers"] = tracer.aggregate()
        result["layers"]["cli.output_bytes"] = _tree_bytes(out_dir)
        result["missing_targets"] = tracer.missing
    with open(result_path, "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
