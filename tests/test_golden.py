"""Golden reports: every model kind and every task it supports, byte for byte.

Each case under ``tests/golden/<case>/`` holds a scenario (``scenario.json``,
or ``scenarios/<case>.json`` when the case directory has none) and, under
``expected/``, the ``report.json`` and CSVs that ``minenergy run`` writes
for it.  A rerun must reproduce every file exactly.  The models stay small
(at most 9 states, and the shift's 16 cells) so that no BLAS threading can
reorder a sum.

When a change moves a golden number on purpose, regenerate with

    PYTHONPATH=src python tests/test_golden.py [case ...]

and say in CHANGES.md which files moved and why.
"""

import json
import os
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


def _regenerate(cases):
    for case in cases:
        expected = os.path.join(GOLDEN, case, "expected")
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "out")
            if _run(case, out) != 0:
                raise SystemExit(f"{case}: the scenario did not pass")
            shutil.rmtree(expected, ignore_errors=True)
            shutil.copytree(out, expected)
        print(f"regenerated {case}")


if __name__ == "__main__":
    _regenerate(sys.argv[1:] or CASES)
