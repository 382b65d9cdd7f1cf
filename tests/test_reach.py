"""Reach or remove: every function of the package is called by a golden run
or named below with the reason it stays.

A fresh interpreter installs a profiler before ``import minenergy``, runs
``minenergy run`` on each golden scenario (``tests/golden``) and reports the
code objects it saw called.  Each ``def`` under ``src/minenergy`` is matched
by file, name and first line (a decorated def's code starts at its first
decorator).  A def that no run calls must be listed in ``UNREACHED`` as
``"module:qualname": reason``; a listed def that a run calls, or that no
longer exists, fails too, so the list can only shrink with the code.
"""

import ast
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.realpath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
PACKAGE = os.path.join(SRC, "minenergy")

_ORACLE = "an oracle that tests check the engine against"
_CHECK = "a check of the paper's structure that tests and demos run"
_PRESET = "a model preset of parse_model that no golden scenario names"

UNREACHED = {
    # oracles beside the engine, computed apart from it
    "energy:simulate_control": _ORACLE + ": RK4 on y' = Ay + Bu",
    "energy:simulate_control.<locals>.f": "the right-hand side of simulate_control",
    "energy:ControlSignal.__call__": "the interpolated control that simulate_control integrates",
    "energy:brute_force_min_energy": _ORACLE + ": the least-norm piecewise-constant control",
    "energy:feedback_gain": _ORACLE + ": the control in feedback form, u = B^T Q_s^+ y",
    "gramians:gramian_lyapunov_ode": _ORACLE + ": RK4 on the differential Lyapunov equation",
    "gramians:_rk4_lyapunov": "one RK4 run of gramian_lyapunov_ode",
    "gramians:_rk4_lyapunov.<locals>.f": "the right-hand side of _rk4_lyapunov",
    "linalg:commuting_pinv_compose": _ORACLE + ": the commuting pseudoinverse product",
    "models.delay:FundamentalSolution.__call__": _ORACLE + ": g pointwise, for the cell formulas",
    "models.delay:FundamentalSolution.F": _ORACLE + ": F pointwise, for the cell formulas",
    "models.delay:FundamentalSolution.F2": _ORACLE + ": F2 pointwise, for the cell formulas",
    "models.delay:FundamentalSolution._at": "the pointwise lookup behind g, F and F2",
    "systems:random_stable_system": "seeded systems for tests, demos and perfbench",
    # checks of the paper's statements
    "gramians:kernel_chain_check": _CHECK + ": ker Q_t within ker Q_s within ker B^T",
    "gramians:range_equality_check": _CHECK + ": range(Q_t^1/2) against range(Q_inf^1/2)",
    "gramians:_subspace_defect": "the distance that kernel_chain_check measures",
    "linalg:SymmetricPSD.kernel_basis": "the kernels that kernel_chain_check compares",
    "linalg:negative_type_bound": _CHECK + ": the growth bound of the exponential",
    "riccati:uniqueness_reconstruction": _CHECK + ": one snapshot pins an invertible family",
    "models.delay:delay_domain_residual": _CHECK + ": the delay domain's boundary condition",
    "models.spectral:spectral_space_h_classification": _CHECK + ": H as a fractional domain",
    "models.spectral:_fmt_power": "the D(A^s) label of spectral_space_h_classification",
    # library paths that the golden inputs do not take
    "riccati:_richardson": "the derivative of an opaque family; every family a run builds is exact",
    "riccati:detect_t1.<locals>.unsafe": "bisects t1 for a K that does not commute with A",
    "linalg:SymmetricPSD.rank": "the rank under the cut, which tests and demos read",
    "linalg:_largest": "names the time in expm's refusal; no golden exponential overflows",
    "errors:ReachabilityError.__init__": "raised for an unreachable target; no golden asks one",
    "systems:Model.default_targets": "a matrix model has no default target",
    "models.shift:ShiftSystem.default_targets": "the shift golden writes its target out",
    "models.shift:shift_benchmark_target": "the shift golden writes its target out",
    "models.shift:ShiftSystem.null_controllability": "refuses the task, which no golden asks",
    "models.spectral:power_law": _PRESET,
    "models.spectral:thin_control_example": _PRESET,
    # the per-task subcommands; the golden runs use ``minenergy run``
    "cli:_scenario_from_args": "builds a scenario from a per-task subcommand's options",
    "cli:_parse_matrix_arg": "parses a matrix option of a per-task subcommand",
}


def _defs(path, module):
    """{"module:qualname": (file, first line, name)} for every def in a file."""
    with open(path, encoding="utf-8") as f:
        tree = ast.parse(f.read(), path)
    found = {}

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = prefix + child.name
                line = child.decorator_list[0].lineno if child.decorator_list else child.lineno
                found[f"{module}:{qual}"] = (path, line, child.name)
                walk(child, qual + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, prefix + child.name + ".")
            else:
                walk(child, prefix)

    walk(tree, "")
    return found


def _all_defs():
    found = {}
    for root, _, files in os.walk(PACKAGE):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                rel = os.path.relpath(path, PACKAGE)[:-3].replace(os.sep, ".")
                module = rel[:-len(".__init__")] if rel.endswith(".__init__") else rel
                found.update(_defs(path, module))
    return found


# Runs in a fresh interpreter: the profiler goes in before the package is
# imported, so that module-level calls count too.
_CHILD = r"""
import json, os, sys, tempfile
package, golden, scenarios = sys.argv[1:4]
seen = set()

def profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        if code.co_filename.startswith(package):
            seen.add((code.co_filename, code.co_firstlineno, code.co_name))

sys.setprofile(profile)
import minenergy.cli as cli
with tempfile.TemporaryDirectory() as tmp:
    for case in sorted(os.listdir(golden)):
        own = os.path.join(golden, case, "scenario.json")
        path = own if os.path.exists(own) else os.path.join(scenarios, case + ".json")
        code = cli.main(["run", path, "--out", os.path.join(tmp, case)])
        if code != 0:
            sys.exit(f"golden case {case} exited {code}")
sys.setprofile(None)
print(json.dumps(sorted(seen)))
"""


def _called():
    repo = os.path.dirname(HERE)
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run(
        [sys.executable, "-c", _CHILD, PACKAGE + os.sep,
         os.path.join(HERE, "golden"), os.path.join(repo, "scenarios")],
        capture_output=True, text=True, env=env, check=False,
    )
    assert out.returncode == 0, out.stderr
    return {tuple(k) for k in json.loads(out.stdout.splitlines()[-1])}


def test_every_def_is_reached_or_listed():
    defs = _all_defs()
    called = _called()
    reached = {key for key, (path, line, name) in defs.items()
               if (path, line, name) in called}
    unreached = set(defs) - reached
    assert sorted(unreached - set(UNREACHED)) == [], \
        "no golden run calls these defs; reach them, delete them or list them with a reason"
    assert sorted(set(UNREACHED) & reached) == [], \
        "a golden run calls these listed defs; take them off the list"
    assert sorted(set(UNREACHED) - set(defs)) == [], \
        "these listed defs no longer exist; take them off the list"
    assert all(isinstance(r, str) and r.strip() for r in UNREACHED.values())
