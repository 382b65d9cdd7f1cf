import ast
import dataclasses
import json
import math
import os
import stat
import subprocess
import sys

import numpy as np
import pytest

import minenergy.cli as cli
from minenergy import artifacts

SCALAR_MODEL = {"A": [[-1.0]], "B": [[1.0]]}


def write_scenario(tmp_path, scenario, name="scenario.json"):
    p = tmp_path / name
    p.write_text(json.dumps(scenario))
    return str(p)


def run_cli(args):
    return subprocess.run(
        [sys.executable, "-m", "minenergy"] + list(args),
        capture_output=True,
        text=True,
    )


def read_report(out_dir):
    with open(os.path.join(out_dir, "report.json")) as f:
        return json.load(f)


def test_empty_task_list_echoes_model(tmp_path):
    out = str(tmp_path / "out")
    path = write_scenario(tmp_path, {"model": SCALAR_MODEL, "tasks": [], "output": out})
    rc = cli.main(["run", path])
    assert rc == 0
    rep = read_report(out)
    assert rep["model"]["kind"] == "linear"
    assert rep["model"]["A"] == [[-1.0]]
    assert rep["tasks"] == []
    assert rep["all_passed"] is True


def test_scenario_schema_rejects_bad_types(tmp_path):
    path = write_scenario(tmp_path, {"model": 42, "tasks": []})
    p = run_cli(["run", path])
    assert p.returncode == 2
    assert "scenario field" in p.stderr


def test_target_dimension_mismatch_is_usage_error(tmp_path):
    path = write_scenario(
        tmp_path,
        {
            "model": "spectral:landau-ginzburg(4)",
            "tasks": ["min-energy"],
            "horizons": [1.0],
            "targets": [[1.0, 0.0]],
        },
    )
    p = run_cli(["run", path])
    assert p.returncode == 2
    assert "targets[0]" in p.stderr


def test_scenario_schema_rejects_unknown_task(tmp_path):
    path = write_scenario(tmp_path, {"model": SCALAR_MODEL, "tasks": ["frobnicate"]})
    p = run_cli(["run", path])
    assert p.returncode == 2
    assert "tasks" in p.stderr


# per scenario field: values it takes, and values it refuses
FIELD_CASES = {
    "model": (["shift(4)", SCALAR_MODEL], [42, "", {"A": [[-1.0]], "B": [[math.nan]]},
                                          {"A": [[-1.0]], "B": [[1.0]], "C": 1}]),
    "system": ([SCALAR_MODEL], [{"A": [[-1.0]], "B": [[]]}]),
    "tasks": ([[], ["gramian", "sweep"]], [["frobnicate"], "gramian"]),
    "horizon": ([1.0, "inf", math.inf], [0.0, math.nan, "Infinity"]),
    "horizons": ([[0.5, 3, "inf"]], [[], [math.nan], [-1.0]]),
    "target": ([[1.0, -2]], [[], [True], [math.inf]]),
    "targets": ([[[1.0], [0.5, 2.0]]], [[[]], [[math.nan]], [1.0]]),
    "grid_points": ([2, 5.0], [1, 2.5, True]),
    "seed": ([0, 7], [-1, 0.5, 10**400]),
    "mesh": ([2, 8, 8.0], [1, 3, 9, "8"]),
    "tolerance": ([1e-6], [0, math.inf]),
    "margin": ([1e-6, 0.5], [-1e-6, math.nan, 0, 1, 1.5]),
    "t_star": ([1.0], [math.nan, None]),
    "K": ([[[1.0, 0.0], [0.0, 0.5]]], [[[1.0, "x"]], [[-math.inf]]]),
    "projector": ([[[0.0]]], [[], [[math.nan]]]),
    "sweep_kinds": ([["value", "residual"]], [["both"]]),
    "expect_null_controllable": ([False], [1, "yes"]),
    "output": (["out"], ["", None]),
}


def test_scenario_fields_accept_and_refuse():
    assert FIELD_CASES.keys() == cli._FIELDS.keys()
    for field, (accepted, refused) in FIELD_CASES.items():
        for value in accepted:
            cli._validate_scenario({field: value})
        for value in refused:
            with pytest.raises(cli.ScenarioError, match=f"^scenario field '{field}': must be "):
                cli._validate_scenario({"model": "shift(4)", field: value})
    with pytest.raises(cli.ScenarioError, match="^scenario field '\\(root\\)'"):
        cli._validate_scenario([SCALAR_MODEL])
    with pytest.raises(cli.ScenarioError, match="^scenario field 'frob': must be one of"):
        cli._validate_scenario({"model": "shift(4)", "frob": 1})


def test_singular_key_aliases(tmp_path):
    out = str(tmp_path / "out")
    path = write_scenario(
        tmp_path,
        {
            "system": SCALAR_MODEL,  # alias of model
            "tasks": ["gramian"],
            "horizon": 1.0,          # singular alias
            "output": out,
        },
    )
    assert cli.main(["run", path]) == 0
    rep = read_report(out)
    res = rep["tasks"][0]["results"]
    assert len(res) == 1
    assert res[0]["horizon"] == 1.0
    assert res[0]["Q"][0][0] == pytest.approx(0.43233235838169365, rel=1e-12)


def test_benchmark_scenario_values_decrease_toward_one():
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    scenario = os.path.join(repo, "scenarios", "benchmark.json")
    p = run_cli(["run", scenario, "--out", "/tmp/cli_bench_out"])
    assert p.returncode == 0
    rep = read_report("/tmp/cli_bench_out")
    for task in rep["tasks"]:
        if task["task"] == "min-energy":
            vals = [r["value"] for r in task["results"]]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] == pytest.approx(1.0, abs=1e-4)


def test_run_is_deterministic(tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    base = {
        "model": SCALAR_MODEL,
        "tasks": ["gramian", "min-energy", "verify-riccati", "sweep"],
        "horizons": [0.5, 1.0],
        "targets": [[1.0]],
        "grid_points": 17,
        "sweep_kinds": ["value", "residual"],
    }
    p1 = write_scenario(tmp_path, dict(base, output=out1), "s1.json")
    p2 = write_scenario(tmp_path, dict(base, output=out2), "s2.json")
    assert cli.main(["run", p1]) == 0
    assert cli.main(["run", p2]) == 0
    for name in sorted(os.listdir(out1)):
        with open(os.path.join(out1, name), "rb") as f:
            b1 = f.read()
        with open(os.path.join(out2, name), "rb") as f:
            b2 = f.read()
        assert b1 == b2, f"{name} differs between identical runs"


STEER_SCENARIO = {"model": SCALAR_MODEL, "tasks": ["gramian", "min-energy"],
                  "horizons": [1.0], "targets": [[1.0]], "grid_points": 9}


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o027, 0o640)], ids=["022", "027"])
def test_artifact_modes_follow_the_umask(tmp_path, umask, mode):
    out = str(tmp_path / "out")
    path = write_scenario(tmp_path, dict(STEER_SCENARIO, output=out))
    old = os.umask(umask)
    try:
        assert cli.main(["run", path]) == 0
    finally:
        os.umask(old)
    names = sorted(os.listdir(out))
    assert names == ["report.json", "timeseries_h0_x0.csv"]
    for name in names:
        assert stat.S_IMODE(os.stat(os.path.join(out, name)).st_mode) == mode, name


def test_artifact_writes_leave_the_process_umask_alone(tmp_path, monkeypatch):
    # setting the umask to read it would open a window in which a file that
    # another thread creates gets mode 0666
    def refuse(mask):
        raise AssertionError("the writer changed the process umask")

    monkeypatch.setattr(os, "umask", refuse)
    out = str(tmp_path / "out")
    path = write_scenario(tmp_path, dict(STEER_SCENARIO, output=out))
    assert cli.main(["run", path]) == 0
    assert sorted(os.listdir(out)) == ["report.json", "timeseries_h0_x0.csv"]


def test_report_is_not_written_when_a_csv_write_fails(tmp_path, monkeypatch):
    """The CSVs go first: a report on disk means every file it names is there."""
    written = []
    real_write = artifacts._atomic_write

    def full_disk_for_csv(path, text):
        if path.endswith(".csv"):
            raise OSError(28, "No space left on device")
        written.append(os.path.basename(path))
        real_write(path, text)

    out = str(tmp_path / "out")
    path = write_scenario(tmp_path, dict(STEER_SCENARIO, output=out))
    monkeypatch.setattr(artifacts, "_atomic_write", full_disk_for_csv)
    assert cli.main(["run", path]) == 2
    assert written == [] and os.listdir(out) == []


def test_failure_keeps_running_and_sets_exit_code(tmp_path):
    # expected null controllability fails at half a delay, but the gramian
    # task after it must still run and land in the report
    out = str(tmp_path / "out")
    path = write_scenario(
        tmp_path,
        {
            "model": "delay(-0.3,0.6,1.0,1.0)",
            "mesh": 16,
            "tasks": ["null-controllability", "gramian"],
            "horizons": [0.5],
            "expect_null_controllable": True,
            "output": out,
        },
    )
    rc = cli.main(["run", path])
    assert rc == 1
    rep = read_report(out)
    assert rep["all_passed"] is False
    assert "null-controllability" in rep["failures"]
    names = [t["task"] for t in rep["tasks"]]
    assert names == ["null-controllability", "gramian"]
    gram_res = rep["tasks"][1]["results"]
    assert gram_res and "Q" in gram_res[0]


def test_gramian_subcommand_with_inf(tmp_path):
    out = str(tmp_path / "out")
    rc = cli.main(
        [
            "gramian",
            "--model", json.dumps(SCALAR_MODEL),
            "--horizons", "1.0,inf",
            "--out", out,
        ]
    )
    assert rc == 0
    rep = read_report(out)
    res = rep["tasks"][0]["results"]
    assert res[0]["Q"][0][0] == pytest.approx(0.43233235838169365, rel=1e-12)
    assert res[1]["horizon"] == "inf"
    assert res[1]["Q"][0][0] == pytest.approx(0.5, rel=1e-12)


def test_min_energy_subcommand_emits_timeseries(tmp_path):
    out = str(tmp_path / "out")
    rc = cli.main(
        [
            "min-energy",
            "--model", json.dumps(SCALAR_MODEL),
            "--horizons", "1.0",
            "--target", "1.0",
            "--grid-points", "33",
            "--out", out,
        ]
    )
    assert rc == 0
    csv_path = os.path.join(out, "timeseries_h0_x0.csv")
    assert os.path.exists(csv_path)
    lines = open(csv_path).read().strip().splitlines()
    assert lines[0].startswith("r,")
    assert len(lines) == 34  # header + grid points
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == -1.0


def test_verify_riccati_subcommand_scalar(tmp_path):
    out = str(tmp_path / "out")
    rc = cli.main(
        [
            "verify-riccati",
            "--model", json.dumps(SCALAR_MODEL),
            "--horizons", "0.5,1.0,2.0",
            "--out", out,
        ]
    )
    assert rc == 0
    rep = read_report(out)
    res = rep["tasks"][0]["results"][0]
    assert res["passed"] is True
    assert res["times"] == [0.5, 1.0, 2.0] and len(res["residuals"]) == 3


def test_commuting_family_and_recover_subcommands(tmp_path):
    out = str(tmp_path / "out")
    rc = cli.main(
        [
            "commuting-family",
            "--model", json.dumps(SCALAR_MODEL),
            "--K", "[[0.3]]",
            "--horizons", "1.0,2.0",
            "--out", out,
        ]
    )
    assert rc == 0
    rep = read_report(out)
    block = rep["tasks"][0]
    assert block["t1"] == 0.0
    assert block["passed"] is True
    assert len(block["evaluations"]) == 2
    assert block["evaluations"][0]["operator"][0][0] == pytest.approx(
        1.0 / (1.0 - 0.3 * 2.7182818284590452 ** -2), rel=1e-12
    )

    out2 = str(tmp_path / "out2")
    rc = cli.main(
        [
            "recover-L",
            "--model", json.dumps(SCALAR_MODEL),
            "--K", "[[0.3]]",
            "--t-star", "1.0",
            "--out", out2,
        ]
    )
    assert rc == 0
    rep2 = read_report(out2)
    block2 = rep2["tasks"][0]
    assert block2["passed"] is True
    assert block2["k_roundtrip_error"] < 1e-6
    # L = e^{T* A} K e^{T* A} = 0.3 e^{-2}
    assert block2["L"][0][0] == pytest.approx(0.3 * 2.7182818284590452 ** -2, rel=1e-12)


def test_null_controllability_subcommand_informational_negative(tmp_path):
    # no expectation given: a negative verdict is reported but not a failure
    out = str(tmp_path / "out")
    rc = cli.main(
        [
            "null-controllability",
            "--model", "spectral:thin-control",
            "--horizons", "1.0",
            "--out", out,
        ]
    )
    assert rc == 0
    rep = read_report(out)
    res = rep["tasks"][0]["results"][0]
    assert res["satisfied"] is False
    assert rep["failures"] == []


def test_sweep_sorted_and_17_digits(tmp_path):
    out = str(tmp_path / "out")
    path = write_scenario(
        tmp_path,
        {
            "model": SCALAR_MODEL,
            "tasks": ["sweep"],
            "horizons": [2.0, 0.5, 1.0],  # intentionally unsorted
            "targets": [[1.0]],
            "sweep_kinds": ["value"],
            "output": out,
        },
    )
    assert cli.main(["run", path]) == 0
    lines = open(os.path.join(out, "value_sweep.csv")).read().strip().splitlines()
    assert lines[0].split(",")[0] == "t"
    ts = [float(l.split(",")[0]) for l in lines[1:]]
    assert ts == sorted(ts)
    # 17 significant digits on a non-terminating value
    row1 = lines[1].split(",")
    assert len(row1[2]) >= 17
    # repeated, unsorted horizons and two targets, through both sweeps: the
    # rows are ordered by their index columns, each repeat beside its twin
    out = str(tmp_path / "repeats")
    path = write_scenario(
        tmp_path,
        {"model": COUPLED_MODEL, "tasks": ["sweep"], "horizons": [2.0, 0.5, 2.0],
         "targets": [[1.0, 0.0], [0.5, -1.0]], "output": out},
        name="repeats.json",
    )
    assert cli.main(["run", path]) == 0
    for name, keys in (("value_sweep.csv", 2), ("residual_sweep.csv", 3)):
        lines = open(os.path.join(out, name)).read().splitlines()[1:]
        index = [tuple(float(v) for v in line.split(",")[:keys]) for line in lines]
        assert index == sorted(index)
        twice = [line for line, i in zip(lines, index) if i[0] == 2.0]
        assert twice[::2] == twice[1::2] and len(twice) == 2 * (len(lines) - len(twice)) > 0
        # the indices print as integers
        column = {line.split(",")[1] for line in lines}
        assert column == {str(k) for k in range(len(column))}


def test_sweep_needs_a_finite_horizon(tmp_path):
    # like verify-riccati, the sweep is a task error without a finite horizon
    out = str(tmp_path / "out")
    path = write_scenario(
        tmp_path,
        {"model": SCALAR_MODEL, "tasks": ["sweep", "verify-riccati"], "horizons": ["inf"],
         "targets": [[1.0]], "output": out},
    )
    assert cli.main(["run", path]) == 1
    rep = read_report(out)
    assert rep["failures"] == ["sweep", "verify-riccati"]
    for entry in rep["tasks"]:
        assert entry["error"] == \
            f"ScenarioError: task '{entry['task']}' requires scenario field 'horizons'"
    assert sorted(os.listdir(out)) == ["report.json"]


def test_seed_override_changes_nothing_structural(tmp_path):
    # seed only feeds probe draws; report structure and pass verdicts hold
    out = str(tmp_path / "out")
    path = write_scenario(
        tmp_path,
        {
            "model": SCALAR_MODEL,
            "tasks": ["verify-riccati"],
            "horizons": [1.0],
            "output": out,
        },
    )
    assert cli.main(["run", path, "--seed", "7"]) == 0
    rep = read_report(out)
    assert rep["seed"] == 7
    assert rep["tasks"][0]["results"][0]["passed"] is True


def test_help_lists_every_subcommand():
    p = run_cli(["--help"])
    assert p.returncode == 0
    for name in ["run", *cli._SUBCOMMANDS]:
        assert name in p.stdout
    assert len(cli._SUBCOMMANDS) == 9


@pytest.mark.parametrize("args", [["run", "scenario.json", "--bogus"],
                                  ["gramian", "--horizons", "1", "--bogus"],
                                  ["sweep", "--kind", "bogus"]])
def test_bad_flag_is_a_usage_error(args, capsys):
    # the parser holds only the named subcommand, and still refuses its bad flags
    with pytest.raises(SystemExit) as exc:
        cli.main(args)
    assert exc.value.code == 2
    assert "bogus" in capsys.readouterr().err


def test_missing_scenario_file_is_usage_error():
    p = run_cli(["run", "/nonexistent/scenario.json"])
    assert p.returncode == 2
    assert p.stderr.strip()


COUPLED_MODEL = {"A": [[-1.0, 1.0], [-1.0, -1.0]], "B": [[1.0], [0.0]]}


def test_gramian_route_labels(tmp_path):
    out = str(tmp_path / "out")
    rc = cli.main(["gramian", "--model", json.dumps(COUPLED_MODEL),
                   "--horizons", "1.0,inf", "--out", out])
    assert rc == 0
    res = read_report(out)["tasks"][0]["results"]
    assert [(r["method"], r["formula"]) for r in res] == [
        ("block_exponential", "gramian-block-exponential"),
        ("smith_doubling", "gramian-infinite-lyapunov"),
    ]
    # a commuting system takes the closed form at every horizon, inf included
    out = str(tmp_path / "out_commuting")
    diag = {"A": [[-1.0, 0.0], [0.0, -2.0]], "B": [[1.0, 0.0], [0.0, 1.0]]}
    assert cli.main(["gramian", "--model", json.dumps(diag),
                     "--horizons", "1.0,inf", "--out", out]) == 0
    res = read_report(out)["tasks"][0]["results"]
    assert [(r["method"], r["formula"]) for r in res] == [
        ("closed_form", "gramian-commuting-closed-form"),
        ("closed_form", "gramian-commuting-closed-form"),
    ]


def test_residual_sweep_matches_riccati_residual_H(tmp_path):
    import minenergy as me

    out = str(tmp_path / "out")
    path = write_scenario(
        tmp_path,
        {
            "model": COUPLED_MODEL,
            "tasks": ["sweep"],
            "horizons": [0.5, 1.0, 2.0],
            "sweep_kinds": ["residual"],
            "seed": 3,
            "output": out,
        },
    )
    assert cli.main(["run", path]) == 0
    lines = open(os.path.join(out, "residual_sweep.csv")).read().strip().splitlines()
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    sys_ = me.LinearSystem(COUPLED_MODEL["A"], COUPLED_MODEL["B"])
    rep = me.riccati_residual(me.pv_candidate(sys_), [0.5, 1.0, 2.0], seed=3)
    swept = [max(abs(r[5]) for r in rows if r[0] == t) for t in rep.times]
    assert swept == list(rep.residuals)


def test_shift_min_energy_unreachable_target_has_no_value(tmp_path):
    # the saturating ramp is not reachable through a quarter window
    out = str(tmp_path / "out")
    path = write_scenario(
        tmp_path,
        {"model": "shift(256)", "tasks": ["min-energy"], "horizons": [0.25, 1.0],
         "output": out},
    )
    assert cli.main(["run", path]) == 0
    quarter, full = read_report(out)["tasks"][0]["results"]
    assert quarter["class"] == "unreachable" and quarter["defect"] > 0.1
    assert quarter["value"] is None
    assert full["class"] == "in_range_Q"
    assert full["value"] == pytest.approx(0.5, rel=1e-9)


def test_shift_value_sweep_matches_min_energy(tmp_path, monkeypatch):
    # the sweep reads the steering value the min-energy task reports and
    # checks it against the Gramian L L^T, apart from the SVD behind the value
    from minenergy.models import ShiftSystem, shift_benchmark_target

    def sweep(out, tasks):
        path = write_scenario(
            tmp_path,
            {"model": "shift(16)", "tasks": tasks, "horizons": [0.25, 1.0],
             "targets": [shift_benchmark_target(16).tolist()], "sweep_kinds": ["value"],
             "output": out},
        )
        assert cli.main(["run", path]) == 0
        lines = open(os.path.join(out, "value_sweep.csv")).read().strip().splitlines()
        return [[float(cell) for cell in line.split(",")] for line in lines[1:]]

    out = str(tmp_path / "out")
    rows = sweep(out, ["min-energy", "sweep"])
    values = [r["value"] for r in read_report(out)["tasks"][0]["results"]]
    assert values[0] is None and rows[0][2] != rows[0][2]  # unreachable: nan
    value, abs_diff = rows[1][2], rows[1][4]
    assert value == values[1]
    assert 0.0 < abs_diff <= 1e-12 * value

    steer = ShiftSystem.steer

    def perturbed(self, t, x):
        rep = steer(self, t, x)
        return rep if rep.value is None else dataclasses.replace(rep, value=rep.value * (1 + 1e-6))

    monkeypatch.setattr(ShiftSystem, "steer", perturbed)
    assert sweep(str(tmp_path / "perturbed"), ["sweep"])[1][4] > 0.5e-6 * value


def test_non_square_inline_model_is_usage_error(tmp_path):
    p = run_cli(["gramian", "--model", '{"A": [[1.0, 2.0]], "B": [[1.0]]}',
                 "--horizons", "1", "--out", str(tmp_path / "out")])
    assert p.returncode == 2
    assert "must be square" in p.stderr
    assert "Traceback" not in p.stderr


def test_unparsable_flag_value_is_usage_error(tmp_path):
    p = run_cli(["gramian", "--model", json.dumps(SCALAR_MODEL), "--horizons", "1,abc",
                 "--out", str(tmp_path / "out")])
    assert p.returncode == 2
    assert "abc" in p.stderr
    assert "Traceback" not in p.stderr


def test_coarse_delay_mesh_is_usage_error(tmp_path):
    p = run_cli(["gramian", "--model", "delay(-1,0.5,1,1)", "--mesh", "3",
                 "--horizons", "1", "--out", str(tmp_path / "out")])
    assert p.returncode == 2
    assert "scenario field 'mesh': must be an even integer" in p.stderr
    assert "Traceback" not in p.stderr


@pytest.mark.parametrize("margin", ["1.5", "0"])
def test_margin_outside_unit_interval_is_usage_error(tmp_path, margin):
    # the threshold search needs a margin in (0, 1); the reader says so before
    # any task runs, and a given 0 is refused, not replaced by the default
    p = run_cli(["commuting-family", "--model", "spectral:landau-ginzburg(2)",
                 "--K", "[[2,0],[0,0.5]]", "--horizons", "1", "--margin", margin,
                 "--out", str(tmp_path / "out")])
    assert p.returncode == 2
    assert "scenario field 'margin': must be a number in (0, 1)" in p.stderr
    assert "Traceback" not in p.stderr


def test_overflowing_gramian_reports_typed_error(tmp_path):
    out = str(tmp_path / "out")
    rc = cli.main(["gramian", "--model", '{"A": [[800.0]], "B": [[1.0]]}',
                   "--horizons", "1", "--out", out])
    assert rc == 1
    rep = read_report(out)
    assert rep["failures"] == ["gramian"]
    assert rep["tasks"][0]["error"].startswith("NonFiniteError:")


def test_recover_l_nonfinite_roundtrip_reports_typed_error(tmp_path):
    # e^{-t* A} overflows for the stiffest Landau-Ginzburg modes
    out = str(tmp_path / "out")
    K = [[0.5 + 2.5 * i / 31 if i == j else 0.0 for j in range(32)] for i in range(32)]
    rc = cli.main(["recover-L", "--model", "spectral:landau-ginzburg(32)",
                   "--K", json.dumps(K), "--t-star", "1", "--out", out])
    assert rc == 1
    rep = read_report(out)
    assert rep["tasks"][0]["error"].startswith("NonFiniteError:")


def test_delay_value_sweep_has_no_oracle_columns(tmp_path):
    # with no oracle built apart from the value, the sweep compares nothing
    out = str(tmp_path / "out")
    path = write_scenario(
        tmp_path,
        {"model": "delay(-0.5,0.8,1,1)", "mesh": 8, "tasks": ["sweep"], "horizons": [1.5],
         "targets": [[1.0] + [0.0] * 8], "sweep_kinds": ["value"], "output": out},
    )
    assert cli.main(["run", path]) == 0
    lines = open(os.path.join(out, "value_sweep.csv")).read().strip().splitlines()
    t, _, value, oracle, abs_diff = (float(cell) for cell in lines[1].split(","))
    assert value > 0.0 and oracle != oracle and abs_diff != abs_diff


def test_integral_float_grid_points_is_a_node_count(tmp_path):
    # an integral float counts as an integer: every model kind samples 5
    # nodes at grid_points 5.0, and the delay model has 8 cells at mesh 8.0
    for model, target in (("delay(-0.5,0.5,1,1)", [1.0] + [0.0] * 8), (SCALAR_MODEL, [1.0])):
        out = str(tmp_path / str(len(target)))
        path = write_scenario(
            tmp_path,
            {"model": model, "mesh": 8.0, "tasks": ["min-energy"], "horizons": [1.0],
             "targets": [target], "grid_points": 5.0, "output": out},
        )
        assert cli.main(["run", path]) == 0
        lines = open(os.path.join(out, "timeseries_h0_x0.csv")).read().strip().splitlines()
        assert len(lines) == 6


def test_delay_overflow_reports_typed_error(tmp_path):
    # g grows like e^{50 t}: the Gramian overflows near t = 7, g itself near
    # t = 14, and both are typed task errors
    for horizon in ("8", "20"):
        out = str(tmp_path / horizon)
        rc = cli.main(["gramian", "--model", "delay(50,1,1,1)", "--horizons", horizon,
                       "--out", out])
        assert rc == 1
        rep = read_report(out)
        assert rep["failures"] == ["gramian"]
        assert rep["tasks"][0]["error"].startswith("NonFiniteError:")


def test_only_linalg_reads_the_rank_threshold():
    # the rank cut and the membership test are written once, in linalg
    # (rank_mask, negligible); a module naming the threshold would hold a
    # second copy of the decision, or a binding that a patch of linalg misses
    package = os.path.dirname(cli.__file__)
    for dirpath, _, files in os.walk(package):
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(dirpath, name)
            if path == os.path.join(package, "linalg.py"):
                continue
            tree = ast.parse(open(path).read())
            names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
            names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
            names |= {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
                      for a in n.names}
            assert "REL_THRESHOLD" not in names, path


def test_cli_leaves_the_numerics_to_the_library():
    # the CLI only reads and writes: no linear algebra of its own, no model
    # type, and no formula that belongs to a model, which the model's own
    # calls answer
    tree = ast.parse(open(cli.__file__).read())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.module not in ("linalg", "minenergy.linalg"), ast.unparse(node)
        if isinstance(node, ast.Import):
            assert all(a.name != "minenergy.linalg" for a in node.names), ast.unparse(node)
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    names |= {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
    forbidden = {"expm", "pinv", "SymmetricPSD", "REL_THRESHOLD", "SpectralSystem",
                 "DelaySystem", "ShiftSystem", "null_controllability_test", "optimal_samples",
                 "classify_target", "value_function"}
    assert not names & forbidden
    import minenergy

    model_functions = {n for n in dir(minenergy) if n.startswith(("spectral_", "delay_", "shift_"))}
    assert model_functions and not names & model_functions
    # nor does it print a float: the file formats are the artifacts module's,
    # which needs only the standard library and numpy
    defined = {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
    assert not defined & {"_atomic_write", "_csv_block", "_csv_texts", "_json_text"}
    assert not [n for n in ast.walk(tree) if isinstance(n, ast.Constant) and "%.17g" in str(n.value)]
    for node in ast.walk(ast.parse(open(artifacts.__file__).read())):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            modules = [a.name for a in node.names] if isinstance(node, ast.Import) else [node.module]
            assert getattr(node, "level", 0) == 0, ast.unparse(node)
            assert all(m.split(".")[0] in sys.stdlib_module_names | {"numpy"} for m in modules), \
                ast.unparse(node)


def test_recover_l_verdict_is_the_library_s(tmp_path):
    # the fast modes of landau-ginzburg(16) cancel in S(t*) = I + e^(-2 lambda t*) K:
    # the forward predictions hold, the round trip back to K does not, and the
    # library and the CLI both fail the case
    import minenergy as me

    K = np.diag(np.linspace(0.5, 3.0, 16))
    ssys = me.landau_ginzburg(16)
    rep = me.recover_L(me.commuting_candidate(ssys, K), 1.0)
    assert max(rep.errors) <= 1e-6 and rep.k_roundtrip_error > 1e-6
    assert rep.passed is False
    out = str(tmp_path / "out")
    assert cli.main(["recover-L", "--model", "spectral:landau-ginzburg(16)", "--K",
                     json.dumps(K.tolist()), "--t-star", "1", "--out", out]) == 1
    result = read_report(out)["tasks"][0]
    assert result["passed"] is rep.passed
    assert result["k_roundtrip_error"] == rep.k_roundtrip_error


def test_non_finite_model_presets_are_usage_errors(tmp_path):
    # preset strings do not pass through the scenario field table: the model
    # refuses them, which exits 2 naming the model field
    for i, model in enumerate(["delay(nan,0.5,1,1)", "delay(inf,0.5,1,1)",
                               "delay(-0.7,nan,1,1)", "delay(-0.7,0.5,1,nan)",
                               "spectral:landau-ginzburg(0)"]):
        out = str(tmp_path / f"out{i}")
        p = run_cli(["gramian", "--model", model, "--horizons", "1", "--out", out])
        assert p.returncode == 2, (model, p.stderr)
        assert "scenario field 'model'" in p.stderr
        assert "Traceback" not in p.stderr
        assert not os.path.exists(os.path.join(out, "report.json"))
    assert "spectrum is empty" in p.stderr


def test_importing_the_cli_leaves_scipy_optimize_out(tmp_path):
    # no scipy module at all, no numpy.random and no schema library, neither
    # after the import nor after running the benchmark and dense3 golden
    # scenarios (whose Riccati checks draw seeded probes) and a
    # commuting-family run whose K does not commute with A (its threshold is
    # bisected); and the runs load no module the import did not: otherwise
    # import cost would only move from set-up into the run
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    bisected = tmp_path / "bisected.json"
    bisected.write_text(json.dumps({
        "model": {"A": [[-50.0, 0.0], [0.0, -0.01]], "B": [[1.0, 0.0], [0.0, 1.0]]},
        "tasks": ["commuting-family"], "horizons": [0.5, 1.0],
        "K": [[2.0, 1e-7], [1e-7, 0.99]],
    }))
    scenarios = [os.path.join(root, "scenarios", "benchmark.json"),
                 os.path.join(root, "tests", "golden", "dense3", "scenario.json"),
                 str(bisected)]
    code = (
        "import sys, minenergy.cli as cli\n"
        "def heavy_modules():\n"
        "    return sorted(m for m in sys.modules\n"
        "                  if m.split('.')[0] in ('scipy', 'jsonschema', 'referencing', 'attr',\n"
        "                                         'attrs') or m.startswith('numpy.random'))\n"
        "print(heavy_modules())\n"
        "imported = set(sys.modules)\n"
        "for i, path in enumerate(sys.argv[2:]):\n"
        "    assert cli.main(['run', path, '--out', sys.argv[1] + str(i)]) == 0\n"
        "print(heavy_modules())\n"
        "print(sorted(set(sys.modules) - imported))\n"
    )
    p = subprocess.run([sys.executable, "-c", code, str(tmp_path / "out")] + scenarios,
                       capture_output=True, text=True)
    assert p.returncode == 0, p.stderr
    assert p.stdout.split("\n")[:3] == ["[]", "[]", "[]"]


def test_models_without_q_inf_refuse_infinite_horizon(tmp_path):
    # one check for both models: an 'inf' horizon is a task error, not a
    # horizon dropped without a word
    cases = [
        (["gramian", "--model", "shift(8)", "--horizons", "0.25,inf"], "shift"),
        (["gramian", "--model", "shift(8)", "--horizons", "inf"], "shift"),
        (["min-energy", "--model", "delay(-0.7,0.6,1,1)", "--mesh", "8",
          "--horizons", "1,inf", "--target", ",".join(["0.5"] + ["0"] * 8)], "delay"),
    ]
    for i, (args, name) in enumerate(cases):
        out = str(tmp_path / f"out{i}")
        assert cli.main(args + ["--out", out]) == 1
        rep = read_report(out)
        assert rep["failures"] == [args[0]]
        assert rep["tasks"][0]["error"].startswith(
            f"ScenarioError: the {name} model has no infinite-horizon Gramian"
        )


def test_run_computes_each_dense_gramian_once(tmp_path, monkeypatch):
    # the Riccati and Lyapunov checks and both sweeps of a dense system read
    # Q_t at the run's horizons alone, since every derivative they take is
    # exact; each Q_t is one Van Loan solve, and Q_inf one doubling
    import numpy as np

    from minenergy import gramians
    from minenergy.systems import random_stable_system

    times = []
    block, doubling = gramians.gramian_block_exponential, gramians._gramian_infinite_doubling
    monkeypatch.setattr(gramians, "gramian_block_exponential",
                        lambda sys_, t: times.append(float(t)) or block(sys_, t))
    monkeypatch.setattr(gramians, "_gramian_infinite_doubling",
                        lambda sys_: times.append(math.inf) or doubling(sys_))
    rng = np.random.default_rng(4)
    model = random_stable_system(rng, 16).to_json_dict()
    horizons = [0.5, 1.0, 2.0, 4.0]
    scenario = {"model": model, "horizons": horizons,
                "targets": [rng.standard_normal(16).tolist() for _ in range(2)],
                "tasks": ["gramian", "verify-riccati", "verify-lyapunov", "sweep"]}
    assert cli.run_scenario(scenario, str(tmp_path)) == 0
    assert sorted(times) == horizons + [math.inf]
    for task in read_report(str(tmp_path))["tasks"][1:3]:
        assert {r.get("derivative") for r in task["results"]} <= {"exact", None}


@pytest.mark.parametrize("task", ["verify-lyapunov", "verify-riccati"])
def test_verify_below_the_difference_step_writes_a_report(tmp_path, task):
    # a horizon below the old Richardson step (1e-4) used to put a Gramian or
    # family member at a negative time: an untyped crash with no report
    out = str(tmp_path / "out")
    model = {"A": [[-1.0, 0.3], [0.0, -2.0]], "B": [[1.0, 0.0], [0.0, 1.0]]}
    assert cli.main([task, "--model", json.dumps(model), "--horizons", "5e-5",
                     "--out", out]) == 0
    results = read_report(out)["tasks"][0]["results"]
    assert all(r["passed"] for r in results)
    assert results[0]["derivative"] == "exact"


def test_verify_lyapunov_passes_a_stiff_mode(tmp_path):
    # rate 1e6 against a 1e-4 difference step failed the correct Gramian
    # (6.5e-7 against tol_scaled 2e-7); the exact Q_t' leaves roundoff
    out = str(tmp_path / "out")
    model = {"A": [[-1e6, 0.0], [0.0, -1.0]], "B": [[1.0], [1.0]]}
    assert cli.main(["verify-lyapunov", "--model", json.dumps(model), "--horizons", "1",
                     "--out", out]) == 0
    differential = read_report(out)["tasks"][0]["results"][0]
    assert differential["passed"] is True and differential["derivative"] == "exact"
    assert differential["residuals"][0] < 1e-3 * differential["tol_scaled"]


def test_value_sweep_makes_one_quadrature_sweep(tmp_path, monkeypatch):
    # Q_t of a shorter horizon is a prefix of the integral for a longer one:
    # the oracle covers every horizon of the run in one sweep
    from minenergy import systems

    calls = []
    sweep = systems.gramian_quadrature_sweep
    monkeypatch.setattr(systems, "gramian_quadrature_sweep",
                        lambda sys_, times: calls.append(list(times)) or sweep(sys_, times))
    scenario = {"model": COUPLED_MODEL, "horizons": [0.5, 1.0, 2.0, "inf"],
                "targets": [[1.0, 0.0]], "sweep_kinds": ["value"], "tasks": ["sweep"]}
    assert cli.run_scenario(scenario, str(tmp_path)) == 0
    assert calls == [[0.5, 1.0, 2.0]]
    lines = open(os.path.join(tmp_path, "value_sweep.csv")).read().strip().splitlines()
    for line in lines[1:]:
        value, oracle = map(float, line.split(",")[2:4])
        assert oracle == pytest.approx(value, rel=1e-9)


def test_run_tests_null_controllability_once_per_range_of_times(tmp_path, monkeypatch):
    # the ratio family P(t) = Q_inf Q_t^+ needs null controllability at t,
    # which holds at every later time once it holds: of the times the family
    # is evaluated at, only those below every earlier one are tested
    import numpy as np

    from minenergy import riccati
    from minenergy.systems import random_stable_system

    times = []
    test = riccati.null_controllability_test
    monkeypatch.setattr(riccati, "null_controllability_test",
                        lambda sys_, t: times.append(float(t)) or test(sys_, t))
    model = random_stable_system(np.random.default_rng(4), 4).to_json_dict()
    scenario = {"model": model, "horizons": [0.5, 1.0, 2.0], "tasks": ["verify-riccati"]}
    assert cli.run_scenario(scenario, str(tmp_path)) == 0
    assert times == sorted(set(times), reverse=True)
    assert len(times) < 15


def test_run_builds_one_delay_gramian_per_horizon(tmp_path, monkeypatch):
    from minenergy.models import delay

    built = []
    wrap = delay._wrap
    monkeypatch.setattr(delay, "_wrap",
                        lambda sys_, Q, t, method: built.append(t) or wrap(sys_, Q, t, method))
    scenario = {"model": "delay(-0.5,0.5,1,1)", "mesh": 8, "horizons": [1.5, 2.0],
                "targets": [[1.0] + [0.0] * 8],
                "tasks": ["gramian", "min-energy", "null-controllability"]}
    cli.run_scenario(scenario, str(tmp_path))
    assert [t["task"] for t in read_report(str(tmp_path))["tasks"]
            if "error" in t] == []
    assert sorted(built) == [1.5, 2.0]


def test_a_run_leaves_only_the_gramian_memo_on_the_system(tmp_path, monkeypatch):
    # the candidates keep their own geometry, probes and null-controllability
    # horizon; the system keeps its inputs, derived constants and Gramians
    models = []
    load = cli._load_model
    monkeypatch.setattr(cli, "_load_model", lambda *a: models.append(load(*a)) or models[-1])
    scenario = {"model": {"A": [[-1.0, 0.0], [0.0, -2.0]], "B": [[1.0, 0.0], [0.0, 1.0]]},
                "horizons": [0.5, 1.0, 2.0], "targets": [[1.0, 0.5]], "K": [[0.5, 0.0], [0.0, 0.3]],
                "tasks": ["verify-riccati", "sweep", "commuting-family"]}
    assert cli.run_scenario(scenario, str(tmp_path)) == 0
    (sys_,) = models
    assert sorted(vars(sys_)) == ["A", "B", "BBt", "_fingerprint", "_gramians", "m", "n", "omega"]
    assert sorted(sys_._gramians) == [0.5, 1.0, 2.0, math.inf]


def test_a_spectral_run_reads_only_the_per_mode_gramians(tmp_path, monkeypatch):
    # a spectral model is its matrix system: the matrix tasks read its one
    # memo of closed-form Gramians, and no dense Gramian is computed
    from minenergy import gramians, systems

    models = []
    load = cli._load_model
    monkeypatch.setattr(cli, "_load_model", lambda *a: models.append(load(*a)) or models[-1])

    def refuse(*args):
        raise AssertionError("a dense Gramian was computed")

    monkeypatch.setattr(gramians, "compute_gramian", refuse)
    monkeypatch.setattr(systems, "compute_gramian", refuse)
    scenario = {"model": "spectral:landau-ginzburg(4)", "horizons": [0.5, 1.0, 2.0],
                "targets": [[1.0, 0.5, 0.25, 0.125]], "K": np.diag([0.5] * 4).tolist(),
                "projector": np.diag([1.0, 1.0, 0.0, 0.0]).tolist(),
                "tasks": ["verify-riccati", "verify-lyapunov", "commuting-family",
                          "project-check", "null-controllability", "sweep"]}
    assert cli.run_scenario(scenario, str(tmp_path)) == 0
    (model,) = models
    assert sorted(vars(model)) == ["A", "B", "BBt", "_fingerprint", "_gramians", "bs", "lambdas",
                                   "m", "n", "omega"]
    assert sorted(model._gramians) == [0.5, 1.0, 2.0, math.inf]
    assert {g.method for g in model._gramians.values()} == {"closed_form"}


def test_run_builds_one_fundamental_solution_per_delay_interval_count(tmp_path, monkeypatch):
    # the Gramians, semigroups and controls of horizons 0.5 and 0.75 share one
    # lattice of one delay interval; 1.5 and 2.5 need two and three
    from minenergy.models import delay

    built = []
    build = delay.FundamentalSolution
    monkeypatch.setattr(delay, "FundamentalSolution",
                        lambda sys_, t_max: built.append(t_max) or build(sys_, t_max))
    scenario = {"model": "delay(-0.5,0.5,1,1)", "mesh": 8, "horizons": [0.5, 0.75, 1.5, 2.5],
                "targets": [[1.0] + [0.0] * 8],
                "tasks": ["gramian", "min-energy", "null-controllability"]}
    cli.run_scenario(scenario, str(tmp_path))
    tasks = read_report(str(tmp_path))["tasks"]
    assert [t["task"] for t in tasks if "error" in t] == []
    assert sorted(math.ceil(t) for t in built) == [1, 2, 3]
