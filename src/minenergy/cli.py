"""Command-line interface: a JSON scenario runner plus per-task subcommands.

Every invocation writes one CSV per emitted table and then ``report.json``
(numeric results, tolerances, verdicts, and a ``formula`` label identifying
the expression behind each result block) into the output directory, through
``artifacts.write_artifacts``, which owns both file formats.  No timestamps
are recorded, so an identical scenario + seed reproduces the artifacts byte
for byte.  Failing verification tasks do not abort the run; the exit status
aggregates all verdicts (nonzero iff anything failed or errored).

The model answers every task through the calls of ``systems.Model``: its
Gramian, steering verdict, least-norm control, null-controllability report
and value oracles.  The tasks built on A and B use its matrix system
(``linear``) with the library's matrix-system calls.  The CLI adds only the
formula labels, keyed by model kind and Gramian method, and the entries
each task puts in the report.
"""

import argparse
import json
import locale  # noqa: F401  argparse messages need it: load it with the CLI, not in a run
import math
import os
import sys

import numpy as np

from .artifacts import write_artifacts
from .errors import MinEnergyError, ScenarioError
from .gramians import compute_gramian
from .models import parse_model
from .riccati import (
    commuting_candidate,
    inverse_candidate,
    lyapunov_residual,
    projected_solution_check,
    pv_candidate,
    recover_L,
    riccati_pairings,
    riccati_residual,
    riccati_residual_commuting,
)
from .systems import LinearSystem

_TASKS = (
    "gramian",
    "min-energy",
    "verify-riccati",
    "verify-lyapunov",
    "commuting-family",
    "recover-L",
    "project-check",
    "null-controllability",
    "sweep",
)


# ---------------------------------------------------------------------------
# scenario loading
# ---------------------------------------------------------------------------


def _number(x):
    """A JSON number that is a finite double."""
    return type(x) in (int, float) and -sys.float_info.max <= x <= sys.float_info.max


def _list_of(item, min_size=0):
    return lambda v: type(v) is list and len(v) >= min_size and all(map(item, v))


def _integer(least):
    return lambda x: _number(x) and x % 1 == 0 and x >= least


def _positive(x):
    return _number(x) and x > 0


def _horizon(x):
    return _positive(x) or x in ("inf", math.inf)


def _text(x):
    return type(x) is str and x != ""


_VECTOR = _list_of(_number, 1)
_MATRIX = _list_of(_VECTOR, 1)


def _model(x):
    if type(x) is dict:
        return x.keys() == {"A", "B"} and _MATRIX(x["A"]) and _MATRIX(x["B"])
    return _text(x)


_MODEL = (_model, "a preset or file path, or an object holding just the matrices A and B")
_MATRIX_FIELD = (_MATRIX, "a non-empty list of non-empty lists of finite numbers")
_POSITIVE_FIELD = (_positive, "a finite positive number")

# every scenario field: what a value must satisfy, and that said in words
_FIELDS = {
    "model": _MODEL,
    "system": _MODEL,
    "tasks": (_list_of(lambda t: t in _TASKS), "a list of tasks from " + ", ".join(_TASKS)),
    "horizon": (_horizon, 'a positive number or "inf"'),
    "horizons": (_list_of(_horizon, 1), 'a non-empty list of positive numbers or "inf"'),
    "target": (_VECTOR, "a non-empty list of finite numbers"),
    "targets": _MATRIX_FIELD,
    "grid_points": (_integer(2), "an integer of at least 2"),
    "seed": (_integer(0), "a non-negative integer"),
    "mesh": (lambda x: _integer(2)(x) and x % 2 == 0, "an even integer of at least 2"),
    "tolerance": _POSITIVE_FIELD,
    "margin": (lambda x: _positive(x) and x < 1, "a number in (0, 1)"),
    "t_star": _POSITIVE_FIELD,
    "K": _MATRIX_FIELD,
    "projector": _MATRIX_FIELD,
    "sweep_kinds": (_list_of(lambda k: k in ("value", "residual")),
                    'a list of "value" and "residual"'),
    "expect_null_controllable": (lambda x: type(x) is bool, "true or false"),
    "output": (_text, "a non-empty string"),
}


def _validate_scenario(scenario):
    """Raise ScenarioError naming the first field ``_FIELDS`` refuses."""
    if not isinstance(scenario, dict):
        raise ScenarioError("scenario field '(root)': must be a JSON object")
    for key, value in scenario.items():
        if key not in _FIELDS:
            raise ScenarioError(f"scenario field '{key}': must be one of the known fields "
                                + ", ".join(_FIELDS))
        valid, phrase = _FIELDS[key]
        if not valid(value):
            raise ScenarioError(f"scenario field '{key}': must be {phrase}")


# ---------------------------------------------------------------------------
# formula labels, by model kind and Gramian method
# ---------------------------------------------------------------------------


_GRAMIAN_FORMULA = {
    ("linear", "block_exponential"): "gramian-block-exponential",
    ("linear", "smith_doubling"): "gramian-infinite-lyapunov",
    ("linear", "closed_form"): "gramian-commuting-closed-form",
    ("spectral", "closed_form"): "gramian-commuting-closed-form",
    ("delay", "quadrature"): "delay-mesh-gramian",
    ("shift", "closed_form"): "shift-overlap-gramian",
}

# a shift model steers by one SVD of its control map, every other model by
# the class and value on its Gramian
_STEER_FORMULA = {"shift": "shift-reachability-defect"}
_GRAMIAN_STEER_FORMULA = {"value": "value-half-norm-sq", "class": "reachable-range-classification"}

_NULL_CONTROLLABILITY_FORMULA = {"spectral": "null-controllability-spectral"}


def _load_model(value, mesh):
    """The scenario's model; a model that cannot be built is a usage error."""
    try:
        if isinstance(value, dict):
            return LinearSystem.from_json_dict(value)
        text = value.strip()
        if text.startswith("{"):
            return LinearSystem.from_json_dict(json.loads(text))
        if os.path.isfile(text):
            with open(text) as f:
                return LinearSystem.from_json_dict(json.load(f))
        return parse_model(text, mesh=mesh)
    except ScenarioError:
        raise
    except ValueError as exc:
        raise ScenarioError(f"scenario field 'model': {exc}") from exc


class _Run:
    """Mutable state threaded through the tasks of one scenario."""

    def __init__(self, scenario):
        raw_model = scenario.get("model", scenario.get("system"))
        if raw_model is None:
            raise ScenarioError("scenario field 'model': a model or system is required")
        self.model = _load_model(raw_model, int(scenario.get("mesh", 32)))
        self.tasks = scenario.get("tasks", [])
        horizons = scenario.get("horizons", [scenario["horizon"]] if "horizon" in scenario else [])
        self.horizons = [math.inf if h == "inf" else float(h) for h in horizons]
        targets = scenario.get("targets", [scenario["target"]] if "target" in scenario else [])
        self.targets = [np.asarray(x, dtype=float) for x in targets]
        for i, x in enumerate(self.targets):
            if x.ndim != 1 or x.size != self.model.dim:
                raise ScenarioError(
                    f"scenario field 'targets[{i}]': expected a vector of "
                    f"length {self.model.dim}, got shape {x.shape}"
                )
        self.grid_points = int(scenario.get("grid_points", 129))
        self.seed = scenario.get("seed", 0)
        self.tol = scenario.get("tolerance", 1e-6)
        self.margin = scenario.get("margin", 1e-6)
        self.t_star = scenario.get("t_star")
        self.K = self._square(scenario, "K")
        self.projector = self._square(scenario, "projector")
        self.sweep_kinds = scenario.get("sweep_kinds", ["value", "residual"])
        self.expect_nc = scenario.get("expect_null_controllable")
        self.csv_tables = {}  # file name -> (header, rows)

    def _square(self, scenario, field):
        if field not in scenario:
            return None
        rows = scenario[field]
        n = self.model.dim
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ScenarioError(f"scenario field '{field}': expected a {n} x {n} matrix")
        return np.asarray(rows, dtype=float)

    def finite_horizons(self):
        return [t for t in self.horizons if math.isfinite(t)]

    def need(self, what, value, task):
        if value is None or (isinstance(value, list) and not value):
            raise ScenarioError(f"task '{task}' requires scenario field '{what}'")
        return value

    def gramian_horizons(self, task):
        """The horizons of the gramian and min-energy tasks, which take inf
        only from a model with an infinite-horizon Gramian."""
        horizons = self.need("horizons", self.horizons, task)
        why = self.model.no_infinite_horizon
        if why and math.inf in horizons:
            raise ScenarioError(
                f"the {self.model.kind} model has no infinite-horizon Gramian ({why})")
        return horizons

    def matrix_system(self, task):
        """The model's matrix system, for the tasks that need A and B."""
        if self.model.linear is None:
            raise ScenarioError(f"{task} needs a matrix model (linear or spectral)")
        return self.model.linear


# ---------------------------------------------------------------------------
# task implementations (each returns: result dict, passed flag or None)
# ---------------------------------------------------------------------------


def _task_gramian(run):
    results = []
    for t in run.gramian_horizons("gramian"):
        gram = run.model.gramian(t)
        formula = _GRAMIAN_FORMULA[run.model.kind, gram.method]
        results.append(dict(gram.to_json_dict(), formula=formula))
    return {"results": results}, None


def _task_min_energy(run):
    model = run.model
    horizons = run.gramian_horizons("min-energy")
    targets = run.need("targets", run.targets or model.default_targets(), "min-energy")
    results = []
    for ti, t in enumerate(horizons):
        for xi, x in enumerate(targets):
            steering = model.steer(t, x)
            entry = {"horizon": t, "target_id": xi, "energy_oracle": None,
                     "formula": _STEER_FORMULA.get(model.kind) or dict(_GRAMIAN_STEER_FORMULA),
                     **steering.to_json_dict()}
            samples = (
                model.least_norm_control(t, x, run.grid_points)
                if steering.category == "in_range_Q" and math.isfinite(t)
                else None
            )
            if samples is not None:
                signal, states = samples
                entry["energy_oracle"] = signal.energy()
                entry["formula"]["control"] = "control-adjoint-flow"
                entry["formula"]["energy_oracle"] = "control-energy-quadrature"
                header = ["r"] + [f"u{j + 1}" for j in range(signal.values.shape[1])]
                columns = [signal.grid[:, None], signal.values]
                if states is not None:
                    entry["formula"]["trajectory"] = "trajectory-gramian-flow"
                    header += [f"y{j + 1}" for j in range(states.shape[1])]
                    columns.append(states)
                name = f"timeseries_h{ti}_x{xi}.csv"
                run.csv_tables[name] = header, np.hstack(columns)
                entry["timeseries_csv"] = name
            results.append(entry)
    return {"results": results}, None


def _residual_entry(formula, rep, **extra):
    """Report entry of a residual check over times."""
    return {"formula": formula, "times": list(rep.times), "residuals": list(rep.residuals),
            "tol_scaled": rep.tol_scaled, "passed": rep.passed, **extra}


def _task_verify_riccati(run):
    sys_lin = run.matrix_system("verify-riccati")
    times = run.need("horizons", run.finite_horizons(), "verify-riccati")
    rows = []
    pv = pv_candidate(sys_lin)
    families = [
        ("gramian-ratio", "riccati-residual-H",
         riccati_residual(pv, times, tol=run.tol, seed=run.seed)),
        ("gramian-inverse", "riccati-residual-X",
         riccati_residual(inverse_candidate(sys_lin), times, tol=run.tol, seed=run.seed)),
    ]
    if sys_lin.is_commuting_selfadjoint():
        rep_c = riccati_residual_commuting(pv, times, tol=run.tol, seed=run.seed)
        families.append(("gramian-ratio", "riccati-residual-commuting", rep_c))
    out = []
    all_passed = True
    for family, formula, rep in families:
        out.append(_residual_entry(formula, rep, family=family, equation=rep.kind,
                                   n_probes=rep.n_probes))
        all_passed = all_passed and rep.passed
        for t, r in zip(rep.times, rep.residuals):
            rows.append((rep.kind, t, r, rep.tol_scaled))
    rows.sort(key=lambda r: (r[0], r[1]))
    run.csv_tables["riccati_residuals.csv"] = ["equation", "t", "residual", "tol_scaled"], rows
    return {"results": out}, all_passed


def _task_verify_lyapunov(run):
    sys_lin = run.matrix_system("verify-lyapunov")
    times = run.need("horizons", run.finite_horizons(), "verify-lyapunov")
    rep = lyapunov_residual(sys_lin, lambda t: compute_gramian(sys_lin, t).matrix, times)
    out = [_residual_entry("lyapunov-differential", rep, mode=rep.mode)]
    rows = [("differential", t, r, rep.tol_scaled) for t, r in zip(rep.times, rep.residuals)]
    all_passed = rep.passed
    if sys_lin.stable:
        qinf = compute_gramian(sys_lin, math.inf).matrix
        rep_a = lyapunov_residual(sys_lin, qinf, tol=1e-10)
        out.append({"formula": "lyapunov-algebraic", "mode": rep_a.mode,
                    "residuals": list(rep_a.residuals), "tol_scaled": rep_a.tol_scaled,
                    "passed": rep_a.passed})
        rows.append(("algebraic", 0.0, rep_a.residuals[0], rep_a.tol_scaled))
        all_passed = all_passed and rep_a.passed
    run.csv_tables["lyapunov_residuals.csv"] = ["mode", "t", "residual", "tol_scaled"], rows
    return {"results": out}, all_passed


def _commuting_cand(run, task):
    sys_lin = run.matrix_system(task)
    K = run.need("K", run.K, task)
    return commuting_candidate(sys_lin, K, margin=run.margin)


def _task_commuting_family(run):
    cand = _commuting_cand(run, "commuting-family")
    times = [t for t in run.finite_horizons() if t > cand.t1]
    skipped = [t for t in run.finite_horizons() if t <= cand.t1]
    result = {
        "formula": "commuting-exponential-family",
        "t1": cand.t1,
        "skipped_at_or_below_t1": skipped,
        "evaluations": [],
    }
    passed = None
    if times:
        for t in times:
            S = cand.evaluate(t)
            result["evaluations"].append(
                {"t": t, "operator": S, "norm": float(np.linalg.norm(S, 2))}
            )
        rep = riccati_residual_commuting(cand, times, tol=run.tol, seed=run.seed)
        result["residual"] = _residual_entry("riccati-residual-commuting", rep)
        passed = rep.passed
    return result, passed


def _task_recover_l(run):
    cand = _commuting_cand(run, "recover-L")
    rep = recover_L(cand.sys, cand, run.need("t_star", run.t_star, "recover-L"))
    result = {"formula": "recover-mixing-operator", "t_star": rep.t_star, "L": rep.L,
              "forward_times": list(rep.times), "forward_errors": list(rep.errors),
              "k_roundtrip_error": rep.k_roundtrip_error, "passed": rep.passed}
    return result, rep.passed


def _task_project_check(run):
    cand = _commuting_cand(run, "project-check")
    P = run.need("projector", run.projector, "project-check")
    times = run.need("horizons", run.finite_horizons(), "project-check")
    times = [t for t in times if t > cand.t1]
    if not times:
        raise ScenarioError(
            "project-check needs at least one horizon above the detected threshold"
        )
    rep = projected_solution_check(cand.sys, cand, P, times, tol=run.tol, seed=run.seed)
    result = {
        "formula": "projection-compression",
        "times": list(rep.times),
        "range_defects": list(rep.range_defects),
        "range_condition_holds": rep.range_condition_holds,
        "is_solution": rep.is_solution,
        "mixed_verdict": rep.mixed_verdict,
        "witness_time": rep.witness_time,
        "residuals": list(rep.residual.residuals),
        "tol_scaled": rep.residual.tol_scaled,
    }
    return result, not rep.mixed_verdict


def _task_null_controllability(run):
    formula = _NULL_CONTROLLABILITY_FORMULA.get(run.model.kind, "null-controllability-range")
    results = [
        {"formula": formula, "horizon": t, **run.model.null_controllability(t).to_json_dict()}
        for t in run.need("horizons", run.finite_horizons(), "null-controllability")
    ]
    passed = None
    if run.expect_nc is not None:
        passed = all(r["satisfied"] == run.expect_nc for r in results)
    return {"results": results}, passed


def _value_sweep_rows(run):
    run.need("targets", run.targets, "sweep")
    rows = []
    times = run.finite_horizons()
    for t, oracle in zip(times, run.model.value_oracles(times)):
        for xi, x in enumerate(run.targets):
            v = run.model.steer(t, x).value
            v_o = math.nan if v is None or oracle is None else oracle(x)
            if v is None:
                v = math.nan
            rows.append((t, xi, v, v_o, abs(v - v_o)))
    return rows


def _residual_sweep_rows(run):
    sys_lin = run.matrix_system("the residual sweep")
    cand = pv_candidate(sys_lin)
    rows = []
    for t in run.finite_horizons():
        _, lhs, rhs = riccati_pairings(cand, t, seed=run.seed)
        for i in range(lhs.shape[0]):
            for j in range(lhs.shape[0]):
                rows.append((t, i, j, lhs[i, j], rhs[i, j], lhs[i, j] - rhs[i, j]))
    return rows


_SWEEPS = {
    "value": (_value_sweep_rows, ["t", "target_id", "value", "value_oracle", "abs_diff"]),
    "residual": (_residual_sweep_rows, ["t", "probe_i", "probe_j", "lhs", "rhs", "residual"]),
}


def _task_sweep(run):
    result = {"kinds": list(run.sweep_kinds)}
    for kind, (rows_of, header) in _SWEEPS.items():
        if kind in run.sweep_kinds:
            # sorted by the leading columns: time, then target or probe indices
            rows = sorted(rows_of(run), key=lambda r: tuple(r[: len(header) - 1]))
            name = f"{kind}_sweep.csv"
            run.csv_tables[name] = header, rows
            result[f"{kind}_sweep"] = {"formula": f"{kind}-sweep", "rows": len(rows), "csv": name}
    return result, None


_TASK_FN = {task: globals()["_task_" + task.replace("-", "_").lower()] for task in _TASKS}


def run_scenario(scenario, out_dir):
    """Execute a scenario dict that passed ``_validate_scenario``; write artifacts;
    return the exit status."""
    run = _Run(scenario)
    report = {"model": {"kind": run.model.kind, **run.model.to_json_dict()},
              "seed": run.seed, "tolerance": run.tol, "tasks": []}
    failures = []
    for task in run.tasks:
        entry = {"task": task}
        try:
            result, passed = _TASK_FN[task](run)
            entry.update(result)
            if passed is not None:
                entry["passed"] = passed
                if not passed:
                    failures.append(task)
        except MinEnergyError as exc:
            entry["error"] = f"{type(exc).__name__}: {exc}"
            failures.append(task)
        report["tasks"].append(entry)
    report["failures"] = failures
    report["all_passed"] = not failures
    write_artifacts(out_dir, run.csv_tables, report)
    return 0 if not failures else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _parse_matrix_arg(text):
    text = text.strip()
    if text.startswith("["):
        return json.loads(text)
    with open(text) as f:
        return json.load(f)


def _scenario_from_args(args, tasks):
    scenario = {"tasks": tasks, "seed": args.seed, "tolerance": args.tol,
                "mesh": args.mesh}
    if args.model is None:
        raise ScenarioError("a --model is required")
    model = args.model.strip()
    scenario["model"] = json.loads(model) if model.startswith("{") else model
    if getattr(args, "horizons", None):
        scenario["horizons"] = [
            "inf" if h.strip() == "inf" else float(h) for h in args.horizons.split(",") if h.strip()
        ]
    if getattr(args, "target", None):
        scenario["targets"] = [[float(v) for v in t.split(",")] for t in args.target]
    for attr, field in (("grid_points", "grid_points"), ("t_star", "t_star"),
                        ("margin", "margin"), ("kind", "sweep_kinds")):
        if getattr(args, attr, None) is not None:  # a given 0 reaches the reader
            scenario[field] = getattr(args, attr)
    for field in ("K", "projector"):
        if getattr(args, field, None):
            scenario[field] = _parse_matrix_arg(getattr(args, field))
    if getattr(args, "expect", "none") != "none":
        scenario["expect_null_controllable"] = args.expect == "yes"
    return scenario


_HORIZONS = ("--horizons", {"required": True, "help": "comma list of horizons; 'inf' allowed"})
_K = ("--K", {"required": True, "help": "JSON matrix (inline or file path)"})
_MARGIN = ("--margin", {"type": float, "default": None})

# subcommand: (help, its own options beyond --out/--seed/--tol/--mesh/--model)
_SUBCOMMANDS = {
    "gramian": ("compute reachability Gramians", [_HORIZONS]),
    "min-energy": ("minimum-energy steering to targets", [
        _HORIZONS,
        ("--target", {"action": "append", "required": True,
                      "help": "comma list of coordinates; repeatable"}),
        ("--grid-points", {"dest": "grid_points", "type": int, "default": None}),
    ]),
    "verify-riccati": ("weak-form residuals of the Gramian families", [_HORIZONS]),
    "verify-lyapunov": ("residuals of the Gramian's linear equation", [_HORIZONS]),
    "commuting-family": ("closed-form exponential solution family", [_HORIZONS, _K, _MARGIN]),
    "recover-L": ("recover the mixing operator from one snapshot", [
        _K, ("--t-star", {"dest": "t_star", "type": float, "required": True}), _MARGIN,
    ]),
    "project-check": ("projection-compression biconditional", [
        _HORIZONS, _K, ("--projector", {"required": True}), _MARGIN,
    ]),
    "null-controllability": ("does the flow land in the reachable range?", [
        _HORIZONS,
        ("--expect", {"choices": ["yes", "no", "none"], "default": "none",
                      "help": "verify the verdict against an expectation"}),
    ]),
    "sweep": ("value and residual sweep CSVs", [
        _HORIZONS,
        ("--target", {"action": "append", "default": None}),
        ("--kind", {"action": "append", "choices": ["value", "residual"], "default": None}),
    ]),
}


def _build_parser(command=None):
    """The argument parser; only ``command``'s subparser when it names one,
    since building all ten costs milliseconds a run has no use for, and
    every subparser otherwise (for ``--help``, no command or a wrong one)."""
    parser = argparse.ArgumentParser(
        prog="minenergy",
        description="Minimum-energy steering: Gramians, optimal controls, and "
        "verification of the quadratic differential identities they satisfy.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    known = command == "run" or command in _SUBCOMMANDS

    if not known or command == "run":
        p = sub.add_parser("run", help="execute a JSON scenario file")
        p.add_argument("scenario", help="path to the scenario JSON")
        p.add_argument("--out", default=None, help="override the scenario output directory")
        p.add_argument("--seed", type=int, default=None, help="override the scenario seed")

    for name, (help_text, options) in _SUBCOMMANDS.items():
        if known and name != command:
            continue
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--out", default="out", help="output directory (default: out)")
        p.add_argument("--seed", type=int, default=0, help="seed for random probes")
        p.add_argument("--tol", type=float, default=1e-6, help="base verification tolerance")
        p.add_argument("--mesh", type=int, default=32, help="mesh cells for the delay model")
        p.add_argument("--model", help="preset name, JSON file path, or inline JSON system")
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        if args.command == "run":
            with open(args.scenario) as f:
                scenario = json.load(f)
            if args.seed is not None and isinstance(scenario, dict):
                scenario["seed"] = args.seed
        else:
            try:
                scenario = _scenario_from_args(args, [args.command])
            except ValueError as exc:  # a flag value that does not parse
                raise ScenarioError(str(exc)) from exc
        _validate_scenario(scenario)
        return run_scenario(scenario, args.out or scenario.get("output", "out"))
    except (ScenarioError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
