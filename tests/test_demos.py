"""Every demo script runs to completion."""

import os
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(f for f in os.listdir(os.path.join(REPO, "demos")) if f.endswith(".py"))


def test_all_demos_found():
    assert len(DEMOS) == 8


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(REPO, "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    p = subprocess.run([sys.executable, os.path.join(REPO, "demos", demo)],
                       capture_output=True, text=True, env=env, cwd=REPO, timeout=300)
    assert p.returncode == 0, p.stderr[-2000:]
