"""The CLI contract under generated scenarios.

Whatever the scenario, ``minenergy run`` returns 0 (all passed), 1 (a task
failed or raised a typed error, recorded in the report) or 2 (a usage
error, reported on stderr), and writes ``report.json`` exactly when it
returns 0 or 1.  An uncaught exception breaks that contract.

The draws are derandomized so the suite stays reproducible; raise
``max_examples`` and drop ``derandomize`` to hunt further.
"""

import json
import math
import os
import tempfile

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
import pytest

import minenergy.cli as cli

ENTRY = st.one_of(
    st.floats(-3.0, 3.0, allow_nan=False),
    st.sampled_from([0.0, 1e300, -1e300, 1e-300]),
)


def _matrix(rows, cols):
    return st.lists(st.lists(ENTRY, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


DIMS = st.integers(1, 3)
# rectangular matrices of every shape up to 3 x 3, and ragged row lists
MATRIX = st.one_of(
    DIMS.flatmap(lambda r: DIMS.flatmap(lambda c: _matrix(r, c))),
    st.lists(st.lists(ENTRY, min_size=1, max_size=3), min_size=1, max_size=3),
)
INLINE = st.one_of(
    st.builds(lambda A, B: {"A": A, "B": B}, MATRIX, MATRIX),
    DIMS.flatmap(lambda n: st.fixed_dictionaries(
        {"A": _matrix(n, n), "B": DIMS.flatmap(lambda m: _matrix(n, m))})),
)
PRESET = st.one_of(
    st.builds("spectral:landau-ginzburg({})".format, st.integers(1, 4)),
    st.builds("spectral:power-law({},{})".format,
              st.sampled_from([-1.0, 0.0, 0.5, 2.0]), st.integers(1, 4)),
    st.builds("spectral:thin-control({})".format, st.integers(1, 4)),
    st.builds("delay({},{},{},{})".format,
              st.sampled_from([-1.0, -0.3, 0.0, 0.5, math.nan]),
              st.sampled_from([-0.6, 0.0, 0.8, math.inf]),
              st.sampled_from([0.0, 1.0, math.nan]),
              st.sampled_from([-1.0, 0.5, 1.0, 1e-300, math.inf])),
    st.builds("shift({})".format, st.sampled_from([3, 4, 8])),
    st.sampled_from(["spectral:power-law", "spectral:nope", "delay(1,2)", "linear"]),
)
HORIZON = st.one_of(st.sampled_from([0.25, 0.5, 1.0, 2.0, "inf"]),
                    st.floats(1e-3, 2.0, allow_nan=False))
VECTOR = st.integers(1, 9).flatmap(lambda n: st.lists(ENTRY, min_size=n, max_size=n))
OPERATOR = st.one_of(st.integers(1, 4).flatmap(lambda n: _matrix(n, n)), MATRIX)

SCENARIO = st.fixed_dictionaries(
    {
        "model": st.one_of(INLINE, PRESET),
        "tasks": st.lists(st.sampled_from(cli._TASKS), max_size=4),
    },
    optional={
        "horizons": st.lists(HORIZON, min_size=1, max_size=3),
        "targets": st.lists(VECTOR, min_size=1, max_size=2),
        "mesh": st.integers(2, 8),
        "grid_points": st.integers(2, 9),
        "K": OPERATOR,
        "projector": OPERATOR,
        "t_star": st.sampled_from([0.1, 1.0]),
        "sweep_kinds": st.lists(st.sampled_from(["value", "residual"]), max_size=2),
        "expect_null_controllable": st.booleans(),
    },
)


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(SCENARIO)
# the non-finite delay presets, which the derandomized draws do not reach
@example({"model": "delay(nan,0.5,1,1)", "tasks": ["gramian"], "horizons": [1.0]})
@example({"model": "delay(inf,0.5,1,1)", "tasks": ["gramian"], "horizons": [1.0]})
def test_run_keeps_the_exit_code_contract(scenario):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scenario.json")
        with open(path, "w") as f:
            json.dump(scenario, f)
        out = os.path.join(tmp, "out")
        rc = cli.main(["run", path, "--out", out])
        assert rc in (0, 1, 2)
        assert os.path.exists(os.path.join(out, "report.json")) == (rc in (0, 1))


# inputs that once escaped as untyped tracebacks
FOUND = [
    ({"model": "spectral:landau-ginzburg(1)", "tasks": ["commuting-family"],
      "horizons": [0.25], "K": [[0.0, 0.0], [0.0, 0.0]]}, 2, "scenario field 'K'"),
    ({"model": {"A": [[0.0]], "B": [[1e300]]}, "tasks": ["gramian"],
      "horizons": [0.25]}, 2, "B B^T overflows"),
    ({"model": {"A": [[-1.0]], "B": [[0.0]]}, "tasks": ["verify-riccati"],
      "horizons": [0.25]}, 1, "PreconditionError: range(Q_t) is trivial"),
    ({"model": {"A": [[0.0, 0.0], [1.0, -1e300]], "B": [[0.0], [0.0]]},
      "tasks": ["null-controllability"], "horizons": [0.25]}, 1, "NonFiniteError: e^(tA)"),
    ({"model": "spectral:landau-ginzburg(1)", "tasks": ["project-check"],
      "horizons": [0.25], "K": [[0.0]], "projector": [[0.0]]},
     1, "PreconditionError: P maps the weighted space to zero"),
    ({"model": "delay(1,1e300,1,1e-300)", "tasks": ["gramian"], "horizons": [2.0]},
     1, "StiffnessError"),
    ({"model": "delay(-0.5,0.5,1,0.001)", "tasks": ["gramian"], "horizons": [20.0]},
     1, "StiffnessError"),
    # NaN inputs, which passed validation and then failed deep in the numerics
    ({"model": {"A": [[-1]], "B": [[1]]}, "tasks": ["gramian"], "horizons": [math.nan]},
     2, "scenario field 'horizons'"),
    ({"model": "delay(-0.5,0.5,1,1)", "tasks": ["gramian"], "horizons": [math.nan]},
     2, "scenario field 'horizons'"),
    ({"model": "spectral:landau-ginzburg(2)", "tasks": ["commuting-family"],
      "horizons": [1.0], "K": [[math.nan, 0.0], [0.0, 0.5]]}, 2, "scenario field 'K'"),
    ({"model": "spectral:landau-ginzburg(2)", "tasks": ["project-check"], "horizons": [1.0],
      "K": [[0.5, 0.0], [0.0, 0.5]], "projector": [[math.nan, 0.0], [0.0, 0.0]]},
     2, "scenario field 'projector'"),
    ({"model": "spectral:landau-ginzburg(2)", "tasks": ["recover-L"],
      "K": [[0.5, 0.0], [0.0, 0.5]], "t_star": math.nan}, 2, "scenario field 't_star'"),
    ({"model": {"A": [[-1.0]], "B": [[1.0]]}, "tasks": ["min-energy"], "horizons": [1.0],
      "targets": [[math.nan]]}, 2, "scenario field 'targets'"),
    # an integer no double holds, which escaped as an OverflowError
    ({"model": {"A": [[-1.0]], "B": [[1.0]]}, "tasks": ["min-energy"], "horizons": [1.0],
      "targets": [[10**400]]}, 2, "scenario field 'targets'"),
    # sizes past the work cap, which escaped as a MemoryError from np.arange
    ({"model": "spectral:landau-ginzburg(99999999999)", "tasks": ["gramian"],
      "horizons": [1.0]}, 2, "scenario field 'model'"),
    ({"model": "shift(99999999996)", "tasks": ["gramian"], "horizons": [0.25]},
     1, "StiffnessError"),
    # weights that overflow, which printed a RuntimeWarning before the error
    ({"model": "spectral:power-law(1e308,3)", "tasks": ["gramian"], "horizons": [1.0]},
     2, "scenario field 'model'"),
]


@pytest.mark.parametrize("scenario, code, message", FOUND)
def test_found_inputs_get_typed_errors(scenario, code, message, tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    out = str(tmp_path / "out")
    assert cli.main(["run", str(path), "--out", out]) == code
    if code == 2:
        assert message in capsys.readouterr().err
        assert not os.path.exists(os.path.join(out, "report.json"))
    else:
        with open(os.path.join(out, "report.json")) as f:
            assert json.load(f)["tasks"][0]["error"].startswith(message)


def test_nan_horizon_flag_is_refused_like_the_scenario_field(tmp_path, capsys):
    out = str(tmp_path / "out")
    assert cli.main(["gramian", "--model", '{"A": [[-1]], "B": [[1]]}', "--horizons", "nan",
                     "--out", out]) == 2
    assert "scenario field 'horizons'" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "report.json"))
