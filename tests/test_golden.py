"""Golden reports: every model kind and every task it supports, byte for byte.

Each case under ``tests/golden/<case>/`` holds a scenario (``scenario.json``,
or ``scenarios/<case>.json`` when the case directory has none) and, under
``expected/``, the ``report.json`` and CSVs that ``minenergy run`` writes
for it.  A rerun must reproduce every file exactly.  The models stay small
(at most 9 states, and the shift's 16 cells) so that no BLAS threading can
reorder a sum.

When a change moves a golden number on purpose, regenerate with

    PYTHONPATH=src python tests/test_golden.py [case ...]

which prints, before it overwrites a file, the file's largest numeric move,
absolute, relative to the number and relative to the file's largest
magnitude, and say in CHANGES.md which files moved and why.
"""

import json
import math
import os
import re
import shutil
import sys
import tempfile

import pytest

import minenergy.cli as cli

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden")
SCENARIOS = os.path.join(os.path.dirname(HERE), "scenarios")
CASES = sorted(os.listdir(GOLDEN))


def _scenario_path(case):
    own = os.path.join(GOLDEN, case, "scenario.json")
    return own if os.path.exists(own) else os.path.join(SCENARIOS, case + ".json")


def _run(case, out_dir):
    return cli.main(["run", _scenario_path(case), "--out", out_dir])


def _read(path):
    with open(path, "rb") as f:
        return f.read()


def test_cases_cover_every_kind():
    assert CASES == ["benchmark", "delay", "dense3", "shift", "spectral"]


def _assert_reproduces(case, out):
    expected = os.path.join(GOLDEN, case, "expected")
    assert sorted(os.listdir(out)) == sorted(os.listdir(expected))
    for name in sorted(os.listdir(expected)):
        assert _read(os.path.join(out, name)) == _read(os.path.join(expected, name)), (
            f"{case}/{name} differs from the golden file"
        )


@pytest.mark.parametrize("case", CASES)
def test_golden_outputs_reproduce(case, tmp_path):
    out = str(tmp_path / "out")
    assert _run(case, out) == 0
    _assert_reproduces(case, out)


def test_each_golden_run_computes_a_gramian_once_per_model_and_horizon(tmp_path, monkeypatch):
    """``Model.gramian`` keeps what the compute functions return, so a run
    computes its model's Gramian once per horizon, whichever tasks read it,
    and by the model's own route alone."""
    from minenergy import systems
    from minenergy.models import delay, shift, spectral

    calls = []

    def count(module, name):
        fn = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda model, t: calls.append((name, float(t))) or fn(model, t))

    for module, name in [(systems, "compute_gramian"), (spectral, "spectral_gramian"),
                         (delay, "delay_gramian"), (shift, "shift_gramian"),
                         (shift, "shift_control_map")]:
        count(module, name)
    counts = {}
    for case in CASES:
        calls.clear()
        assert _run(case, str(tmp_path / case)) == 0
        grams = [c for c in calls if c[0] != "shift_control_map"]
        assert len(grams) == len(set(grams)), case
        counts[case] = {name: sum(c[0] == name for c in calls) for name, _ in calls}
    # five horizons; the shift's three Gramians and its oracle's three QR maps
    assert counts["spectral"] == {"spectral_gramian": 5}
    assert counts["shift"] == {"shift_gramian": 3, "shift_control_map": 6}


def test_report_needs_no_pure_python_json_encoder(tmp_path, monkeypatch):
    """``json.dumps`` with an indent leaves its C encoder for the pure-Python
    one, a generator step and a float formatting per number; the report's
    writer must not come to depend on it."""
    def refuse(*args, **kwargs):
        raise AssertionError("json's pure-Python encoder ran")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    out = str(tmp_path / "out")
    assert _run("shift", out) == 0
    _assert_reproduces("shift", out)


_NUMBER = re.compile(rb"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _largest_move(old, new):
    """How the numbers of ``new`` moved from those of ``old``, paired in order:
    the largest absolute move and the largest move relative to the number
    itself, each with its pair, and the largest absolute move relative to
    the file's largest magnitude.  Roundoff on a sample near zero is a large
    move relative to itself but a small one against the file's scale."""
    a, b = ([float(v) for v in _NUMBER.findall(text)] for text in (old, new))
    if len(a) != len(b):
        return f"the count of numbers changed from {len(a)} to {len(b)}"
    moved = [(abs(y - x), x, y) for x, y in zip(a, b) if x != y]
    if not moved:
        return "unchanged" if old == new else "no number moved"
    absolute = max(moved)
    relative = max((d / max(abs(x), abs(y)), x, y) for d, x, y in moved)
    scale = max(abs(v) for v in a + b if math.isfinite(v))
    return (f"largest move {absolute[0]:.3g} absolute ({absolute[1]!r} -> {absolute[2]!r}), "
            f"{relative[0]:.3g} relative ({relative[1]!r} -> {relative[2]!r}), "
            f"{absolute[0] / scale:.3g} of the file's largest magnitude {scale!r}")


def _regenerate(cases):
    for case in cases:
        expected = os.path.join(GOLDEN, case, "expected")
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "out")
            if _run(case, out) != 0:
                raise SystemExit(f"{case}: the scenario did not pass")
            before = os.listdir(expected) if os.path.isdir(expected) else []
            for name in sorted(set(os.listdir(out)) | set(before)):
                old, new = (os.path.join(d, name) for d in (expected, out))
                if not os.path.exists(new):
                    print(f"{case}/{name}: removed")
                elif not os.path.exists(old):
                    print(f"{case}/{name}: new file")
                else:
                    print(f"{case}/{name}: {_largest_move(_read(old), _read(new))}")
            shutil.rmtree(expected, ignore_errors=True)
            shutil.copytree(out, expected)
        print(f"regenerated {case}")


if __name__ == "__main__":
    _regenerate(sys.argv[1:] or CASES)
