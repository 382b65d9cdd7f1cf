"""Command-line interface: a JSON scenario runner plus per-task subcommands.

Every invocation writes ``report.json`` (numeric results, tolerances,
verdicts, and a ``formula`` label identifying the expression behind each
result block) and one CSV per emitted time series into the output
directory.  Identical scenario + seed reproduces the artifacts byte for
byte: floats are printed with 17 significant digits, dictionary keys are
sorted, no timestamps are recorded, and files are written atomically.
Failing verification tasks do not abort the run; the exit status
aggregates all verdicts (nonzero iff anything failed or errored).
"""

import argparse
import json
import math
import os
import sys
import tempfile

import jsonschema
import numpy as np

from .energy import (
    ControlSignal,
    classify_target,
    null_controllability_test,
    optimal_control,
    optimal_trajectory,
    value_function,
)
from .errors import MinEnergyError, NonFiniteError, ScenarioError
from .gramians import GramianCache, gramian_quadrature
from .linalg import DEFAULT_POLICY, expm
from .models import (
    DelaySystem,
    ShiftSystem,
    SpectralSystem,
    delay_gramian,
    delay_kernels,
    delay_null_controllability,
    parse_model,
    shift_benchmark_target,
    shift_control_map,
    shift_reachable_defect,
    spectral_gramian,
    spectral_null_controllability,
)
from .riccati import (
    commuting_candidate,
    inverse_candidate,
    lyapunov_residual,
    projected_solution_check,
    pv_candidate,
    recover_L,
    riccati_residual_H,
    riccati_residual_X,
    riccati_residual_commuting,
    weighted_pairings,
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

_NUMBER = {"type": "number"}
_POSITIVE = {"type": "number", "exclusiveMinimum": 0}
_MATRIX = {"type": "array", "items": {"type": "array", "items": _NUMBER, "minItems": 1}, "minItems": 1}
_HORIZON = {"anyOf": [_POSITIVE, {"const": "inf"}]}

_SCENARIO_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "model": {
            "anyOf": [
                {"type": "string", "minLength": 1},
                {
                    "type": "object",
                    "required": ["A", "B"],
                    "additionalProperties": False,
                    "properties": {"A": _MATRIX, "B": _MATRIX},
                },
            ]
        },
        "system": {"$ref": "#/properties/model"},
        "tasks": {"type": "array", "items": {"enum": list(_TASKS)}},
        "horizon": _HORIZON,
        "horizons": {"type": "array", "items": _HORIZON, "minItems": 1},
        "target": {"type": "array", "items": _NUMBER, "minItems": 1},
        "targets": {
            "type": "array",
            "items": {"type": "array", "items": _NUMBER, "minItems": 1},
            "minItems": 1,
        },
        "grid_points": {"type": "integer", "minimum": 2},
        "seed": {"type": "integer", "minimum": 0},
        "mesh": {"type": "integer", "minimum": 2},
        "tolerance": _POSITIVE,
        "margin": _POSITIVE,
        "t_star": _POSITIVE,
        "K": _MATRIX,
        "projector": _MATRIX,
        "sweep_kinds": {"type": "array", "items": {"enum": ["value", "residual"]}},
        "expect_null_controllable": {"type": "boolean"},
        "output": {"type": "string", "minLength": 1},
    },
}


# ---------------------------------------------------------------------------
# deterministic artifact writing
# ---------------------------------------------------------------------------


def _atomic_write(path, text):
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _cell(x):
    if isinstance(x, (float, np.floating)):
        return "%.17g" % float(x)
    return str(x)


def _csv_text(header, rows):
    lines = [",".join(header)]
    lines.extend(",".join(_cell(c) for c in row) for row in rows)
    return "\n".join(lines) + "\n"


def emit_sweep(rows, header):
    """Render homogeneous sweep rows to CSV text.

    Rows are sorted by their leading columns (time first, then target or
    probe indices), and floats carry 17 significant digits so a rerun
    regenerates the file byte for byte.
    """
    ordered = sorted(rows, key=lambda r: tuple(r[: len(header) - 1]))
    return _csv_text(header, ordered)


def _json_ready(obj):
    if isinstance(obj, dict):
        return {str(k): _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _json_ready(obj.tolist())
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, float) and math.isinf(obj):
        return "inf" if obj > 0 else "-inf"
    if isinstance(obj, float) and math.isnan(obj):
        return "nan"
    return obj


# ---------------------------------------------------------------------------
# scenario loading
# ---------------------------------------------------------------------------


def _validate_scenario(raw):
    validator = jsonschema.Draft202012Validator(_SCENARIO_SCHEMA)
    errors = sorted(validator.iter_errors(raw), key=lambda e: list(e.absolute_path))
    if errors:
        e = errors[0]
        path = ".".join(str(p) for p in e.absolute_path) or "(root)"
        raise ScenarioError(f"scenario field '{path}': {e.message}")


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


def _model_echo(model):
    if isinstance(model, LinearSystem):
        return {"kind": "linear", **model.to_json_dict()}
    if isinstance(model, SpectralSystem):
        return {
            "kind": "spectral",
            "lambdas": model.lambdas.tolist(),
            "bs": model.bs.tolist(),
        }
    if isinstance(model, DelaySystem):
        return {
            "kind": "delay",
            "a0": model.a0,
            "a1": model.a1,
            "b0": model.b0,
            "delay": model.delay,
            "mesh": model.mesh,
        }
    if isinstance(model, ShiftSystem):
        return {"kind": "shift", "m": model.m}
    raise TypeError(f"unknown model type {type(model)!r}")


class _Run:
    """Mutable state threaded through the tasks of one scenario."""

    def __init__(self, scenario):
        _validate_scenario(scenario)
        raw_model = scenario.get("model", scenario.get("system"))
        if raw_model is None:
            raise ScenarioError("scenario field 'model': a model or system is required")
        self.mesh = scenario.get("mesh", 32)
        self.model = _load_model(raw_model, self.mesh)
        self.tasks = scenario.get("tasks", [])
        horizons = scenario.get("horizons")
        if horizons is None:
            horizons = [scenario["horizon"]] if "horizon" in scenario else []
        self.horizons = [math.inf if h == "inf" else float(h) for h in horizons]
        targets = scenario.get("targets")
        if targets is None:
            targets = [scenario["target"]] if "target" in scenario else []
        self.targets = [np.asarray(x, dtype=float) for x in targets]
        dim = self._state_dim()
        for i, x in enumerate(self.targets):
            if x.ndim != 1 or (dim is not None and x.size != dim):
                raise ScenarioError(
                    f"scenario field 'targets[{i}]': expected a vector of "
                    f"length {dim}, got shape {x.shape}"
                )
        self.grid_points = scenario.get("grid_points", 129)
        self.seed = scenario.get("seed", 0)
        self.tol = scenario.get("tolerance", 1e-6)
        self.margin = scenario.get("margin", 1e-6)
        self.t_star = scenario.get("t_star")
        self.K = np.asarray(scenario["K"], dtype=float) if "K" in scenario else None
        self.projector = (
            np.asarray(scenario["projector"], dtype=float)
            if "projector" in scenario
            else None
        )
        self.sweep_kinds = scenario.get("sweep_kinds", ["value", "residual"])
        self.expect_nc = scenario.get("expect_null_controllable")
        self.cache = GramianCache(DEFAULT_POLICY)
        self.csv_files = {}

    def _state_dim(self):
        if isinstance(self.model, (LinearSystem, SpectralSystem)):
            return self.model.n
        if isinstance(self.model, DelaySystem):
            return self.model.mesh + 1
        if isinstance(self.model, ShiftSystem):
            return self.model.m
        return None

    @property
    def linear(self):
        """The plain matrix system behind the model, when there is one."""
        if isinstance(self.model, LinearSystem):
            return self.model
        if isinstance(self.model, SpectralSystem):
            return self.model.to_linear_system()
        return None

    def finite_horizons(self):
        return [t for t in self.horizons if math.isfinite(t)]

    def need(self, what, value, task):
        if value is None or (isinstance(value, list) and not value):
            raise ScenarioError(f"task '{task}' requires scenario field '{what}'")
        return value

    def gramian_for(self, t):
        if isinstance(self.model, SpectralSystem):
            return spectral_gramian(self.model, t)
        if isinstance(self.model, DelaySystem):
            return delay_gramian(self.model, t)
        return self.cache.get(self.model, t)


_GRAMIAN_FORMULA = {
    "block_exponential": "gramian-block-exponential",
    "bartels_stewart": "gramian-infinite-lyapunov",
    "closed_form": "gramian-commuting-closed-form",
}


def _gramian_formula(gram):
    return _GRAMIAN_FORMULA[gram.method]


# ---------------------------------------------------------------------------
# task implementations (each returns: result dict, passed flag or None)
# ---------------------------------------------------------------------------


def _task_gramian(run):
    if isinstance(run.model, ShiftSystem):
        results = []
        for t in run.need("horizons", run.finite_horizons(), "gramian"):
            L = shift_control_map(run.model, t)
            results.append(
                {
                    "formula": "shift-overlap-gramian",
                    "horizon": t,
                    "Q": (L @ L.T).tolist(),
                    "method": "closed_form",
                    "system_fingerprint": run.model.fingerprint(),
                }
            )
        return {"results": results}, None
    results = []
    for t in run.need("horizons", run.horizons, "gramian"):
        if isinstance(run.model, DelaySystem) and math.isinf(t):
            raise ScenarioError(
                "the delay model has no infinite-horizon Gramian (no decay assumption)"
            )
        gram = run.gramian_for(t)
        entry = gram.to_json_dict()
        entry["formula"] = (
            "delay-mesh-gramian"
            if isinstance(run.model, DelaySystem)
            else _gramian_formula(gram)
        )
        results.append(entry)
    return {"results": results}, None


def _delay_optimal_control_values(model, t, z, grid):
    """Sample the least-norm control reconstructed from mesh coordinates."""
    kern = delay_kernels(model, t + model.h)
    rs = np.linspace(-t, 0.0, grid)
    s = t + rs  # control times measured from 0
    vals = model.b0 * kern.g(t - s) * z[0]
    weight = model.b0 / math.sqrt(model.h)
    for j, cj in enumerate(kern.c):
        vals = vals + weight * kern.W(t + cj - s) * z[1 + j]
    return rs, vals


def _task_min_energy(run):
    results = []
    if isinstance(run.model, ShiftSystem):
        for ti, t in enumerate(run.need("horizons", run.finite_horizons(), "min-energy")):
            targets = run.targets or [shift_benchmark_target(run.model.m)]
            for xi, x in enumerate(targets):
                rep = shift_reachable_defect(run.model, t, target=x)
                f_hat = math.sqrt(run.model.h) * np.asarray(x, dtype=float)
                v = rep.coefficients
                reachable = rep.defect <= DEFAULT_POLICY.rel_threshold * max(
                    np.linalg.norm(f_hat), 1e-300
                )
                results.append(
                    {
                        "formula": "shift-reachability-defect",
                        "horizon": t,
                        "target_id": xi,
                        "value": 0.5 * run.model.h * float(v @ v) if reachable else None,
                        "energy_oracle": None,
                        "defect": rep.defect,
                        "class": "in_range_Q" if reachable else "unreachable",
                        "rank": rep.rank,
                    }
                )
        return {"results": results}, None

    sys_lin = run.linear
    for ti, t in enumerate(run.need("horizons", run.horizons, "min-energy")):
        for xi, x in enumerate(run.need("targets", run.targets, "min-energy")):
            gram = run.gramian_for(t)
            cls = classify_target(gram, x)
            entry = {
                "formula": {
                    "value": "value-half-norm-sq",
                    "class": "reachable-range-classification",
                },
                "horizon": "inf" if math.isinf(t) else t,
                "target_id": xi,
                "class": cls.category,
                "defect": cls.defect,
                "value": None,
                "energy_oracle": None,
            }
            if cls.reachable:
                entry["value"] = value_function(gram, x)
            if (
                cls.category == "in_range_Q"
                and math.isfinite(t)
                and isinstance(run.model, DelaySystem)
            ):
                z = gram.Q.pinv() @ np.asarray(x, dtype=float)
                rs, u = _delay_optimal_control_values(run.model, t, z, run.grid_points)
                entry["energy_oracle"] = ControlSignal(rs, u[:, None]).energy()
                entry["formula"]["control"] = "control-adjoint-flow"
                entry["formula"]["energy_oracle"] = "control-energy-quadrature"
                name = f"timeseries_h{ti}_x{xi}.csv"
                rows = [(r, u_val) for r, u_val in zip(rs, u)]
                run.csv_files[name] = _csv_text(["r", "u1"], rows)
                entry["timeseries_csv"] = name
            elif cls.category == "in_range_Q" and math.isfinite(t) and sys_lin is not None:
                signal = optimal_control(sys_lin, gram, x, grid=run.grid_points)
                traj = optimal_trajectory(
                    sys_lin, x, t, grid=run.grid_points, cache=run.cache
                )
                entry["energy_oracle"] = signal.energy()
                entry["formula"]["control"] = "control-adjoint-flow"
                entry["formula"]["trajectory"] = "trajectory-gramian-flow"
                entry["formula"]["energy_oracle"] = "control-energy-quadrature"
                header = (
                    ["r"]
                    + [f"u{j + 1}" for j in range(sys_lin.m)]
                    + [f"y{j + 1}" for j in range(sys_lin.n)]
                )
                rows = [
                    tuple([r]) + tuple(signal.values[i]) + tuple(traj.states[i])
                    for i, r in enumerate(signal.grid)
                ]
                name = f"timeseries_h{ti}_x{xi}.csv"
                run.csv_files[name] = _csv_text(header, rows)
                entry["timeseries_csv"] = name
            results.append(entry)
    return {"results": results}, None


def _task_verify_riccati(run):
    sys_lin = run.linear
    if sys_lin is None:
        raise ScenarioError("verify-riccati needs a matrix model (linear or spectral)")
    times = run.need("horizons", run.finite_horizons(), "verify-riccati")
    families = []
    rows = []
    pv = pv_candidate(sys_lin, cache=run.cache)
    rep = riccati_residual_H(pv, times, tol=run.tol, seed=run.seed)
    families.append(("gramian-ratio", "riccati-residual-H", rep))
    inv = inverse_candidate(sys_lin, cache=run.cache)
    rep_x = riccati_residual_X(inv, times, tol=run.tol, seed=run.seed)
    families.append(("gramian-inverse", "riccati-residual-X", rep_x))
    if sys_lin.is_commuting_selfadjoint():
        rep_c = riccati_residual_commuting(pv, times, tol=run.tol, seed=run.seed)
        families.append(("gramian-ratio", "riccati-residual-commuting", rep_c))
    out = []
    all_passed = True
    for family, formula, rep in families:
        out.append(
            {
                "family": family,
                "formula": formula,
                "equation": rep.kind,
                "times": list(rep.times),
                "residuals": list(rep.residuals),
                "tol_scaled": rep.tol_scaled,
                "n_probes": rep.n_probes,
                "passed": rep.passed,
            }
        )
        all_passed = all_passed and rep.passed
        for t, r in zip(rep.times, rep.residuals):
            rows.append((rep.kind, t, r, rep.tol_scaled))
    rows.sort(key=lambda r: (r[0], r[1]))
    run.csv_files["riccati_residuals.csv"] = _csv_text(
        ["equation", "t", "residual", "tol_scaled"], rows
    )
    return {"results": out}, all_passed


def _task_verify_lyapunov(run):
    sys_lin = run.linear
    if sys_lin is None:
        raise ScenarioError("verify-lyapunov needs a matrix model (linear or spectral)")
    times = run.need("horizons", run.finite_horizons(), "verify-lyapunov")
    out = []
    rows = []
    rep = lyapunov_residual(
        sys_lin, lambda t: run.cache.get(sys_lin, t).matrix, "differential", times=times
    )
    out.append(
        {
            "formula": "lyapunov-differential",
            "mode": rep.mode,
            "times": list(rep.times),
            "residuals": list(rep.residuals),
            "tol_scaled": rep.tol_scaled,
            "passed": rep.passed,
        }
    )
    for t, r in zip(rep.times, rep.residuals):
        rows.append(("differential", t, r, rep.tol_scaled))
    all_passed = rep.passed
    if sys_lin.stable:
        qinf = run.cache.get(sys_lin, math.inf).matrix
        rep_a = lyapunov_residual(sys_lin, qinf, "algebraic", tol=1e-10)
        out.append(
            {
                "formula": "lyapunov-algebraic",
                "mode": rep_a.mode,
                "residuals": list(rep_a.residuals),
                "tol_scaled": rep_a.tol_scaled,
                "passed": rep_a.passed,
            }
        )
        rows.append(("algebraic", 0.0, rep_a.residuals[0], rep_a.tol_scaled))
        all_passed = all_passed and rep_a.passed
    run.csv_files["lyapunov_residuals.csv"] = _csv_text(
        ["mode", "t", "residual", "tol_scaled"], rows
    )
    return {"results": out}, all_passed


def _commuting_cand(run, task):
    sys_lin = run.linear
    if sys_lin is None:
        raise ScenarioError(f"{task} needs a matrix model (linear or spectral)")
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
                {"t": t, "operator": S.tolist(), "norm": float(np.linalg.norm(S, 2))}
            )
        rep = riccati_residual_commuting(cand, times, tol=run.tol, seed=run.seed)
        result["residual"] = {
            "formula": "riccati-residual-commuting",
            "times": list(rep.times),
            "residuals": list(rep.residuals),
            "tol_scaled": rep.tol_scaled,
            "passed": rep.passed,
        }
        passed = rep.passed
    return result, passed


def _task_recover_l(run):
    cand = _commuting_cand(run, "recover-L")
    if run.t_star is None:
        raise ScenarioError("task 'recover-L' requires scenario field 't_star'")
    rep = recover_L(cand.sys, cand, run.t_star)
    with np.errstate(over="ignore", invalid="ignore"):
        E = expm(cand.sys.A, -rep.t_star)
        K_round = E @ rep.L @ E
    if not np.all(np.isfinite(K_round)):
        raise NonFiniteError(
            f"round trip e^(-t* A) L e^(-t* A) overflows double precision at t* = {rep.t_star:g}"
        )
    roundtrip = float(
        np.linalg.norm(K_round - run.K, 2) / max(np.linalg.norm(run.K, 2), 1e-300)
    )
    result = {
        "formula": "recover-mixing-operator",
        "t_star": rep.t_star,
        "L": rep.L.tolist(),
        "forward_times": list(rep.times),
        "forward_errors": list(rep.errors),
        "k_roundtrip_error": roundtrip,
        "passed": bool(rep.passed and roundtrip <= 1e-6),
    }
    return result, result["passed"]


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
    results = []
    passed = None
    verdicts = []
    for t in run.need("horizons", run.finite_horizons(), "null-controllability"):
        if isinstance(run.model, SpectralSystem):
            mode_rep = spectral_null_controllability(run.model, t)
            fin_rep = null_controllability_test(run.model.to_linear_system(), t)
            results.append(
                {
                    "formula": "null-controllability-spectral",
                    "horizon": t,
                    "satisfied": mode_rep.satisfied,
                    "constant": mode_rep.constant,
                    "all_controlled": mode_rep.all_controlled,
                    "tail_nonincreasing": mode_rep.tail_nonincreasing,
                    "finite_dim_satisfied": fin_rep.satisfied,
                    "finite_dim_constant": fin_rep.constant,
                    "verdicts_agree": mode_rep.satisfied == fin_rep.satisfied,
                }
            )
            verdicts.append(mode_rep.satisfied)
        elif isinstance(run.model, DelaySystem):
            rep = delay_null_controllability(run.model, t)
            results.append(
                {
                    "formula": "null-controllability-range",
                    "horizon": t,
                    "satisfied": rep.satisfied,
                    "constant": rep.constant,
                    "defect": rep.defect,
                }
            )
            verdicts.append(rep.satisfied)
        elif isinstance(run.model, LinearSystem):
            rep = null_controllability_test(run.model, t)
            results.append(
                {
                    "formula": "null-controllability-range",
                    "horizon": t,
                    "satisfied": rep.satisfied,
                    "constant": rep.constant,
                    "defect": rep.defect,
                }
            )
            verdicts.append(rep.satisfied)
        else:
            raise ScenarioError("null-controllability is undefined for the shift model")
    if run.expect_nc is not None:
        passed = all(v == run.expect_nc for v in verdicts)
    return {"results": results}, passed


def _value_sweep_rows(run):
    sys_lin = run.linear
    rows = []
    for t in run.finite_horizons():
        gram = run.gramian_for(t)
        gram_oracle = gramian_quadrature(sys_lin, t) if sys_lin is not None else None
        for xi, x in enumerate(run.targets):
            cls = classify_target(gram, x)
            if cls.reachable:
                v = value_function(gram, x)
                v_o = value_function(gram_oracle, x) if gram_oracle is not None else v
            else:
                v = math.nan
                v_o = math.nan
            rows.append((t, xi, v, v_o, abs(v - v_o)))
    return rows


def _residual_sweep_rows(run):
    sys_lin = run.linear
    if sys_lin is None:
        raise ScenarioError("the residual sweep needs a matrix model")
    cand = pv_candidate(sys_lin, cache=run.cache)
    rows = []
    for t in run.finite_horizons():
        _, lhs, rhs = weighted_pairings(cand, t, seed=run.seed)
        for i in range(lhs.shape[0]):
            for j in range(lhs.shape[0]):
                rows.append((t, i, j, lhs[i, j], rhs[i, j], lhs[i, j] - rhs[i, j]))
    return rows


def _task_sweep(run):
    result = {"kinds": list(run.sweep_kinds)}
    if "value" in run.sweep_kinds:
        run.need("targets", run.targets, "sweep")
        rows = _value_sweep_rows(run)
        run.csv_files["value_sweep.csv"] = emit_sweep(
            rows, ["t", "target_id", "value", "value_oracle", "abs_diff"]
        )
        result["value_sweep"] = {
            "formula": "value-sweep",
            "rows": len(rows),
            "csv": "value_sweep.csv",
        }
    if "residual" in run.sweep_kinds:
        rows = _residual_sweep_rows(run)
        run.csv_files["residual_sweep.csv"] = emit_sweep(
            rows, ["t", "probe_i", "probe_j", "lhs", "rhs", "residual"]
        )
        result["residual_sweep"] = {
            "formula": "residual-sweep",
            "rows": len(rows),
            "csv": "residual_sweep.csv",
        }
    return result, None


_TASK_FN = {
    "gramian": _task_gramian,
    "min-energy": _task_min_energy,
    "verify-riccati": _task_verify_riccati,
    "verify-lyapunov": _task_verify_lyapunov,
    "commuting-family": _task_commuting_family,
    "recover-L": _task_recover_l,
    "project-check": _task_project_check,
    "null-controllability": _task_null_controllability,
    "sweep": _task_sweep,
}


def run_scenario(scenario, out_dir):
    """Execute a validated scenario dict; write artifacts; return exit status."""
    run = _Run(scenario)
    report = {
        "model": _model_echo(run.model),
        "seed": run.seed,
        "tolerance": run.tol,
        "tasks": [],
    }
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
    os.makedirs(out_dir, exist_ok=True)
    _atomic_write(
        os.path.join(out_dir, "report.json"),
        json.dumps(_json_ready(report), sort_keys=True, indent=2) + "\n",
    )
    for name in sorted(run.csv_files):
        _atomic_write(os.path.join(out_dir, name), run.csv_files[name])
    return 0 if not failures else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _parse_horizons(text):
    return [h.strip() for h in text.split(",") if h.strip()]


def _horizon_values(items):
    out = []
    for h in items:
        out.append("inf" if h == "inf" else float(h))
    return out


def _parse_matrix_arg(text):
    text = text.strip()
    if text.startswith("["):
        return json.loads(text)
    with open(text) as f:
        return json.load(f)


def _add_common(p):
    p.add_argument("--out", default="out", help="output directory (default: out)")
    p.add_argument("--seed", type=int, default=0, help="seed for random probes")
    p.add_argument("--tol", type=float, default=1e-6, help="base verification tolerance")
    p.add_argument("--mesh", type=int, default=32, help="mesh cells for the delay model")
    p.add_argument("--model", help="preset name, JSON file path, or inline JSON system")


def _scenario_from_args(args, tasks):
    scenario = {"tasks": tasks, "seed": args.seed, "tolerance": args.tol,
                "mesh": args.mesh}
    if args.model is None:
        raise ScenarioError("a --model is required")
    model = args.model.strip()
    scenario["model"] = json.loads(model) if model.startswith("{") else model
    if getattr(args, "horizons", None):
        scenario["horizons"] = _horizon_values(_parse_horizons(args.horizons))
    if getattr(args, "target", None):
        scenario["targets"] = [
            [float(v) for v in t.split(",")] for t in args.target
        ]
    if getattr(args, "grid_points", None):
        scenario["grid_points"] = args.grid_points
    if getattr(args, "K", None):
        scenario["K"] = _parse_matrix_arg(args.K)
    if getattr(args, "projector", None):
        scenario["projector"] = _parse_matrix_arg(args.projector)
    if getattr(args, "t_star", None):
        scenario["t_star"] = args.t_star
    if getattr(args, "margin", None):
        scenario["margin"] = args.margin
    if getattr(args, "kind", None):
        scenario["sweep_kinds"] = args.kind
    if getattr(args, "expect", None) is not None and args.expect != "none":
        scenario["expect_null_controllable"] = args.expect == "yes"
    return scenario


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="minenergy",
        description="Minimum-energy steering: Gramians, optimal controls, and "
        "verification of the quadratic differential identities they satisfy.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="execute a JSON scenario file")
    p.add_argument("scenario", help="path to the scenario JSON")
    p.add_argument("--out", default=None, help="override the scenario output directory")
    p.add_argument("--seed", type=int, default=None, help="override the scenario seed")

    p = sub.add_parser("gramian", help="compute reachability Gramians")
    _add_common(p)
    p.add_argument("--horizons", required=True, help="comma list of horizons; 'inf' allowed")

    p = sub.add_parser("min-energy", help="minimum-energy steering to targets")
    _add_common(p)
    p.add_argument("--horizons", required=True)
    p.add_argument("--target", action="append", required=True,
                   help="comma list of coordinates; repeatable")
    p.add_argument("--grid-points", dest="grid_points", type=int, default=None)

    p = sub.add_parser("verify-riccati", help="weak-form residuals of the Gramian families")
    _add_common(p)
    p.add_argument("--horizons", required=True)

    p = sub.add_parser("verify-lyapunov", help="residuals of the Gramian's linear equation")
    _add_common(p)
    p.add_argument("--horizons", required=True)

    p = sub.add_parser("commuting-family", help="closed-form exponential solution family")
    _add_common(p)
    p.add_argument("--horizons", required=True)
    p.add_argument("--K", required=True, help="JSON matrix (inline or file path)")
    p.add_argument("--margin", type=float, default=None)

    p = sub.add_parser("recover-L", help="recover the mixing operator from one snapshot")
    _add_common(p)
    p.add_argument("--K", required=True)
    p.add_argument("--t-star", dest="t_star", type=float, required=True)
    p.add_argument("--margin", type=float, default=None)

    p = sub.add_parser("project-check", help="projection-compression biconditional")
    _add_common(p)
    p.add_argument("--horizons", required=True)
    p.add_argument("--K", required=True)
    p.add_argument("--projector", required=True)
    p.add_argument("--margin", type=float, default=None)

    p = sub.add_parser("null-controllability", help="does the flow land in the reachable range?")
    _add_common(p)
    p.add_argument("--horizons", required=True)
    p.add_argument("--expect", choices=["yes", "no", "none"], default="none",
                   help="verify the verdict against an expectation")

    p = sub.add_parser("sweep", help="value and residual sweep CSVs")
    _add_common(p)
    p.add_argument("--horizons", required=True)
    p.add_argument("--target", action="append", default=None)
    p.add_argument("--kind", action="append", choices=["value", "residual"],
                   default=None)
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            with open(args.scenario) as f:
                scenario = json.load(f)
            if not isinstance(scenario, dict):
                raise ScenarioError("scenario field '(root)': must be a JSON object")
            if args.seed is not None:
                scenario["seed"] = args.seed
            out_dir = args.out or scenario.get("output", "out")
            return run_scenario(scenario, out_dir)
        tasks = [args.command]
        scenario = _scenario_from_args(args, tasks)
        return run_scenario(scenario, args.out)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
