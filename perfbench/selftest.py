"""Tests of the benchmark itself (not collected by a plain ``pytest`` run).

    python3 -m pytest -q perfbench/selftest.py

Each workload runs once at its smallest size; its real outputs must pass
every check, and a deliberately wrong copy of each output (a Gramian scaled
by 1 + 1e-6, a value or control off by more than its tolerance, a flipped
verdict, ...) must be rejected by the check written for it.  The command
itself is run end to end on every workload, traced and untraced, and in a
directory without the program, where it must fail.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _f:
    BENCHMARK = json.load(_f)


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """One small round of every workload: {workload: (items, round0 dir)}."""
    done = {}
    for workload in workloads.WORKLOADS:
        work_dir = str(tmp_path_factory.mktemp(workload))
        summary, problems = run.run_workload(workload, 0, 0, False, small=True,
                                             work_dir=work_dir, keep=True)
        assert summary["failed"] == 0
        assert problems == []
        items = workloads.build(workload, 0, small=True)
        done[workload] = (items, os.path.join(work_dir, "round0"))
    return done


def _mutated(outputs, tmp_path, workload, name, mutate):
    items, round_dir = outputs[workload]
    item = next(it for it in items if it["name"].startswith(name))
    target = tmp_path / item["name"]
    shutil.copytree(os.path.join(round_dir, item["name"]), target)
    report_path = target / "report.json"
    report = json.loads(report_path.read_text())
    mutate(report, target)
    report_path.write_text(json.dumps(report))
    return checks.check_item(item, str(target))


def _task(report, name):
    return next(e for e in report["tasks"] if e["task"] == name)


def _edit_csv(path, row, col, fn):
    lines = path.read_text().splitlines()
    cells = lines[row].split(",")
    cells[col] = repr(fn(float(cells[col])))
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _scale_q(entry, factor, index=0):
    entry["results"][index]["Q"] = (np.array(entry["results"][index]["Q"]) * factor).tolist()


def _series(report, index=0):
    return _task(report, "min-energy")["results"][index]["timeseries_csv"]


MUTATIONS = {
    "steer: Gramian scaled by 1+1e-6": (
        "steer", "stable", lambda r, d: _scale_q(_task(r, "gramian"), 1 + 1e-6), "Gramian at t="),
    "steer: value off by 1e-6 relative": (
        "steer", "stable",
        lambda r, d: _task(r, "min-energy")["results"][0].update(
            value=_task(r, "min-energy")["results"][0]["value"] * (1 + 1e-6)),
        "vs ½xᵀQ⁻¹x"),
    "steer: value increasing with the horizon": (
        "steer", "stable",
        lambda r, d: _task(r, "min-energy")["results"][-1].update(value=1e30),
        "increases"),
    "steer: control sample off by 1e-6 relative": (
        "steer", "stable",
        lambda r, d: _edit_csv(d / _series(r), 5, 1, lambda u: u * (1 + 1e-6)), "control at r="),
    "steer: trajectory misses the target": (
        "steer", "stable",
        lambda r, d: _edit_csv(d / _series(r), -1, -1, lambda y: y + 1e-6), "trajectory ends"),
    "steer: control energy far from the value": (
        "steer", "unstable",
        lambda r, d: [_edit_csv(d / _series(r), i, 1, lambda u: u * 1.05) for i in range(1, 33)],
        "trapezoid bound"),
    "steer: reported energy not that of the control": (
        "steer", "stable",
        lambda r, d: _task(r, "min-energy")["results"][0].update(energy_oracle=1.0),
        "reported energy"),
    "steer: null controllability flipped": (
        "steer", "unstable",
        lambda r, d: _task(r, "null-controllability")["results"][0].update(satisfied=False),
        "null controllability"),
    "verify: Riccati verdict flipped": (
        "verify", "dense",
        lambda r, d: _task(r, "verify-riccati")["results"][0].update(passed=False),
        "passed=False"),
    "verify: Lyapunov verdict flipped": (
        "verify", "dense",
        lambda r, d: _task(r, "verify-lyapunov")["results"][0].update(passed=False),
        "verify-lyapunov"),
    "verify: quadrature oracle value off": (
        "verify", "dense",
        lambda r, d: _edit_csv(d / "value_sweep.csv", 1, 3, lambda v: v * (1 + 1e-3)),
        "oracle value"),
    "verify: residual sweep column wrong": (
        "verify", "dense",
        lambda r, d: _edit_csv(d / "residual_sweep.csv", 1, 5, lambda v: v + 1.0),
        "residual column"),
    "verify: spectral Gramian scaled by 1+1e-6": (
        "verify", "landau",
        lambda r, d: _scale_q(_task(r, "gramian"), 1 + 1e-6), "is not diag"),
    "verify: spectral value off": (
        "verify", "power",
        lambda r, d: _task(r, "min-energy")["results"][0].update(
            value=_task(r, "min-energy")["results"][0]["value"] * (1 + 1e-6)),
        "per-mode"),
    "verify: family threshold moved": (
        "verify", "landau",
        lambda r, d: _task(r, "commuting-family").update(t1=_task(r, "commuting-family")["t1"] * 1.01),
        "t1"),
    "verify: family operator off": (
        "verify", "power",
        lambda r, d: _task(r, "commuting-family")["evaluations"][0].update(
            operator=(np.array(_task(r, "commuting-family")["evaluations"][0]["operator"])
                      * (1 + 1e-6)).tolist()),
        "operator at t="),
    "verify: projection verdict flipped": (
        "verify", "landau",
        lambda r, d: _task(r, "project-check").update(mixed_verdict=True), "project-check"),
    "verify: spectral null controllability flipped": (
        "verify", "power",
        lambda r, d: _task(r, "null-controllability")["results"][0].update(satisfied=False),
        "verdict"),
    "verify: recovered L off": (
        "verify", "damped",
        lambda r, d: _task(r, "recover-L").update(
            L=(np.array(_task(r, "recover-L")["L"]) * (1 + 1e-6)).tolist()),
        "recovered L"),
    "steer: a min-energy result dropped": (
        "steer", "stable", lambda r, d: _task(r, "min-energy")["results"].pop(),
        "expected [("),
    "steer: null-controllability results emptied": (
        "steer", "unstable", lambda r, d: _task(r, "null-controllability")["results"].clear(),
        "results at horizons []"),
    "verify: a Gramian horizon dropped": (
        "verify", "dense", lambda r, d: _task(r, "gramian")["results"].pop(1),
        "results at horizons"),
    "verify: Lyapunov residual family dropped": (
        "verify", "dense", lambda r, d: _task(r, "verify-lyapunov")["results"].pop(),
        "differential and algebraic"),
    "verify: value sweep missing": (
        "verify", "landau", lambda r, d: _task(r, "sweep").pop("value_sweep"), "sweeps"),
    "verify: recover-L task missing": (
        "verify", "damped",
        lambda r, d: r["tasks"].remove(_task(r, "recover-L")), "the scenario asks for"),
    "delay-shift: a delay Gramian horizon dropped": (
        "delay-shift", "delay", lambda r, d: _task(r, "gramian")["results"].pop(0),
        "results at horizons"),
    "delay-shift: a shift target dropped": (
        "delay-shift", "shift-steer", lambda r, d: _task(r, "min-energy")["results"].pop(0),
        "expected [("),
    "delay-shift: delay Q[0,0] scaled by 1+1e-6": (
        "delay-shift", "delay",
        lambda r, d: _task(r, "gramian")["results"][1]["Q"][0].__setitem__(
            0, _task(r, "gramian")["results"][1]["Q"][0][0] * (1 + 1e-6)),
        "Q[0,0]"),
    "delay-shift: delay Gramian shrinking with the horizon": (
        "delay-shift", "delay", lambda r, d: _scale_q(_task(r, "gramian"), 0.5, index=-1),
        "decreases"),
    "delay-shift: null controllability below the delay": (
        "delay-shift", "delay",
        lambda r, d: _task(r, "null-controllability")["results"][0].update(satisfied=True),
        "null controllability"),
    "delay-shift: delay control sample off by 1e-6 relative": (
        "delay-shift", "delay",
        lambda r, d: _edit_csv(d / _series(r), 7, 1, lambda u: u * (1 + 1e-6)),
        "control off the reference"),
    "delay-shift: delay value off by 1e-6 relative": (
        "delay-shift", "delay",
        lambda r, d: _task(r, "min-energy")["results"][0].update(
            value=_task(r, "min-energy")["results"][0]["value"] * (1 + 1e-6)),
        "vs ½xᵀQ⁻¹x"),
    "delay-shift: value off the integrated energy": (
        "delay-shift", "delay",
        lambda r, d: _task(r, "min-energy")["results"][-1].update(
            value=_task(r, "min-energy")["results"][-1]["value"] * 1.5),
        "trapezoid error"),
    "delay-shift: shift Gramian entry off": (
        "delay-shift", "shift-gramian",
        lambda r, d: _task(r, "gramian")["results"][2]["Q"][3].__setitem__(
            3, _task(r, "gramian")["results"][2]["Q"][3][3] * (1 + 1e-9)),
        "LLᵀ"),
    "delay-shift: ramp reachable at t=1/4": (
        "delay-shift", "shift-gramian",
        lambda r, d: _task(r, "gramian")["results"][0].update(
            Q=_task(r, "gramian")["results"][2]["Q"]),
        "ramp target defect"),
    "delay-shift: shift value off": (
        "delay-shift", "shift-steer",
        lambda r, d: _task(r, "min-energy")["results"][1].update(
            value=_task(r, "min-energy")["results"][1]["value"] * (1 + 1e-6)),
        "½h|L⁺f|²"),
}


@pytest.mark.parametrize("case", sorted(MUTATIONS))
def test_check_rejects_wrong_output(outputs, tmp_path, case):
    workload, name, mutate, fragment = MUTATIONS[case]
    problems = _mutated(outputs, tmp_path, workload, name, mutate)
    assert problems, f"{case}: the mutated output passed every check"
    assert any(fragment in p for p in problems), problems


def test_references_agree_with_closed_forms():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((5, 5)) / 3.0 - np.eye(5)
    B = rng.standard_normal((5, 2))
    for t in (0.3, 2.0):
        assert checks._rel_max(checks.van_loan_gramian(A, B, t), checks.split_gramian(A, B, t)) < 1e-12
    # second delay interval: g(s) = e^{a0 s} (1 + a1 e^{-a0 d} (s - d))
    a0, a1, d = -0.7, 0.9, 1.0
    ref = checks.DelayReference(a0, a1, d, 2.0)
    s = np.linspace(0.0, 2.0, 9)
    exact = np.exp(a0 * s) * (1.0 + np.where(s > d, a1 * math.exp(-a0 * d) * (s - d), 0.0))
    assert np.allclose([ref.g_F(x)[0] for x in s], exact, rtol=1e-13, atol=0)
    # F(d) = (e^{a0 d} - 1) / a0 on the first interval
    assert abs(ref.g_F(d)[1] - math.expm1(a0 * d) / a0) < 1e-15
    # each slot's unit control covers the part of its quarter window inside [0, 1]
    L = checks.shift_map(16, 1.0)
    a = 1.0 - (np.arange(16) + 0.5) / 16
    assert np.allclose(L.sum(axis=0) * math.sqrt(16), np.minimum(1.0, a + 0.25) - a)


def test_inputs_follow_the_seed():
    for workload in workloads.WORKLOADS:
        a = workloads.build(workload, 3, small=True)
        b = workloads.build(workload, 3, small=True)
        c = workloads.build(workload, 4, small=True)
        assert json.dumps(a) == json.dumps(b)
        assert json.dumps(a) != json.dumps(c)
        assert [i["scenario"]["tasks"] for i in a] == [i["scenario"]["tasks"] for i in c]


def _bench(args, cwd):
    proc = subprocess.run([sys.executable, "perfbench/run.py"] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    return proc


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smallest_pass_prints_every_metric(workload, trace):
    proc = _bench(["--workload", workload, "--seed", "0", "--seconds", "0",
                   "--trace", str(trace), "--small"], run.ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = _bench(["--workload", "steer", "--seed", "0", "--seconds", "1", "--trace", "0"],
                  str(tmp_path))
    assert proc.returncode != 0
    assert not proc.stdout.strip()
