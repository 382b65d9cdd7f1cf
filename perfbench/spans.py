"""Span tracing of minenergy's layers, applied from outside the package.

Every traced function is replaced by a wrapper that records a span (group,
start, end, parent span) in memory.  The modules import each other's
functions by name (``from .linalg import expm``), so a module-level function
is rebound in every ``minenergy`` module namespace that holds it, including
dict values such as the CLI's task table; methods are replaced on their
class.  A target that no longer exists is listed in ``missing`` instead of
failing the run.

A group's ``calls`` counts its spans that have no ancestor span of the same
group (entries into it from outside), ``busy`` sums those outer spans'
durations, and ``self`` sums every span's duration minus the time covered by
its direct child spans.  For cached functions a call is a hit when it
returns an object the same function already returned in this process, which
is how a cache answers; ``hits``/``gets`` count those.
"""

import importlib
import sys
import time

import numpy as np

_CLI_TASKS = (
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

# group -> (module, attribute or Class.attribute) targets
GROUPS = {
    "gramians.compute": [
        ("gramians", "compute_gramian"),
        ("gramians", "gramian_algebraic"),
        ("gramians", "gramian_infinite"),
        ("gramians", "gramian_commuting_closed_form"),
        ("gramians", "gramian_lyapunov_ode"),
        ("gramians", "kernel_chain_check"),
        ("gramians", "range_equality_check"),
    ],
    "gramians.lyapunov_solve": [("gramians", "solve_algebraic_lyapunov")],
    "gramians.quadrature": [("gramians", "gramian_quadrature")],
    "gramians.cache": [("gramians", "GramianCache.get")],
    "energy.value": [("energy", "value_function")],
    "energy.classify": [("energy", "classify_target")],
    "energy.control": [("energy", "optimal_control")],
    "energy.trajectory": [("energy", "optimal_trajectory")],
    "energy.null_controllability": [("energy", "null_controllability_test")],
    "linalg.expm": [("linalg", "expm")],
    "linalg.psd": [
        ("linalg", "SymmetricPSD.__init__"),
        ("linalg", "SymmetricPSD.pinv"),
        ("linalg", "SymmetricPSD.sqrt"),
        ("linalg", "psd_sqrt"),
    ],
    "linalg.range_inclusion": [("linalg", "range_inclusion")],
    "riccati.residual": [
        ("riccati", "riccati_residual_H"),
        ("riccati", "riccati_residual_X"),
        ("riccati", "riccati_residual_commuting"),
    ],
    "riccati.probes": [("riccati", "residual_probes")],
    "riccati.candidate": [("riccati", "RiccatiCandidate.evaluate")],
    "riccati.family": [
        ("riccati", "build_pv"),
        ("riccati", "pv_candidate"),
        ("riccati", "inverse_candidate"),
    ],
    "riccati.commuting": [
        ("riccati", "commuting_candidate"),
        ("riccati", "commuting_family"),
        ("riccati", "detect_t1"),
        ("riccati", "recover_L"),
        ("riccati", "projected_solution_check"),
    ],
    "riccati.lyapunov": [("riccati", "lyapunov_residual")],
    "systems.construct": [("systems", "LinearSystem.__init__")],
    "systems.fingerprint": [("systems", "LinearSystem.fingerprint")],
    "systems.other": [
        ("systems", "LinearSystem.is_commuting_selfadjoint"),
        ("systems", "LinearSystem.from_json_dict"),
        ("systems", "random_stable_system"),
    ],
    "models.delay_fundamental": [("models", "delay_fundamental_solution")],
    "models.delay_gramian": [("models", "delay_gramian")],
    "models.delay_semigroup": [
        ("models", "delay_semigroup_matrix"),
        ("models", "delay_null_controllability"),
    ],
    "models.spectral": [
        ("models", "spectral_gramian"),
        ("models", "spectral_null_controllability"),
        ("models", "SpectralSystem.to_linear_system"),
        ("models", "SpectralSystem.fingerprint"),
        ("models", "landau_ginzburg"),
        ("models", "power_law"),
    ],
    "models.shift": [
        ("models", "shift_control_map"),
        ("models", "shift_reachable_defect"),
        ("models", "shift_benchmark_target"),
    ],
    "models.parse": [("models", "parse_model")],
    "exppoly.eval": [("exppoly", "ExpPoly.__call__"), ("exppoly", "PiecewiseExpPoly.__call__")],
    "exppoly.algebra": [
        ("exppoly", f"{cls}.{op}")
        for cls in ("ExpPoly", "PiecewiseExpPoly")
        for op in ("__add__", "__sub__", "__mul__", "scale", "shift", "antiderivative")
    ],
    "exppoly.integrate": [("exppoly", "PiecewiseExpPoly.integrate")],
    "cli.main": [("cli", "main")],
    "cli.run_scenario": [("cli", "run_scenario")],
}
for _task in _CLI_TASKS:
    GROUPS["cli.task." + _task] = [("cli", "_task_" + _task.replace("-", "_").lower())]

CACHED = {"gramians.cache", "riccati.candidate", "models.delay_fundamental"}


class Tracer:
    def __init__(self, groups=GROUPS):
        self.names = list(groups)
        self.groups = groups
        self.missing = []
        self._starts = []
        self._ends = []
        self._gids = []
        self._parents = []
        self._outer = []
        self._hits = []
        self._stack = []
        self._depth = [0] * len(self.names)

    # -- installation ------------------------------------------------------

    def install(self):
        package = importlib.import_module("minenergy")
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "minenergy" or name.startswith("minenergy.")]
        for gid, group in enumerate(self.names):
            for modname, attr in self.groups[group]:
                try:
                    module = importlib.import_module(f"{package.__name__}.{modname}")
                except ImportError:
                    self.missing.append(f"{modname}:{attr}")
                    continue
                if "." in attr:
                    self._patch_method(module, attr, gid, group in CACHED)
                else:
                    self._patch_function(modules, module, attr, gid, group in CACHED)

    def _patch_method(self, module, attr, gid, cached):
        cls_name, meth = attr.split(".")
        cls = getattr(module, cls_name, None)
        raw = None if cls is None else cls.__dict__.get(meth)
        if raw is None:
            self.missing.append(f"{module.__name__}:{attr}")
            return
        if isinstance(raw, classmethod):
            setattr(cls, meth, classmethod(self._wrap(raw.__func__, gid, cached)))
        else:
            setattr(cls, meth, self._wrap(raw, gid, cached))

    def _patch_function(self, modules, module, attr, gid, cached):
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module.__name__}:{attr}")
            return
        wrapper = self._wrap(original, gid, cached)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, wrapper)
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if item is original:
                            value[key] = wrapper

    def _wrap(self, fn, gid, cached):
        starts, ends, gids, parents = self._starts, self._ends, self._gids, self._parents
        outer, hits, stack, depth = self._outer, self._hits, self._stack, self._depth
        clock = time.perf_counter
        seen = set()
        keep = []          # pins returned objects so their ids stay unique

        def wrapper(*args, **kwargs):
            idx = len(starts)
            parents.append(stack[-1] if stack else -1)
            gids.append(gid)
            outer.append(depth[gid] == 0)
            hits.append(-1)
            ends.append(0.0)
            depth[gid] += 1
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                depth[gid] -= 1
            if cached:
                key = id(result)
                hits[idx] = int(key in seen)
                if key not in seen:
                    seen.add(key)
                    keep.append(result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", "wrapped")
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        wrapper.__wrapped__ = fn
        return wrapper

    # -- aggregation -------------------------------------------------------

    def aggregate(self):
        """Per-group calls, busy, self, gets and hits, plus CLI load and write time."""
        start = np.asarray(self._starts, dtype=float)
        dur = np.asarray(self._ends, dtype=float) - start
        gid = np.asarray(self._gids, dtype=np.int64)
        parent = np.asarray(self._parents, dtype=np.int64)
        outer = np.asarray(self._outer, dtype=bool)
        hits = np.asarray(self._hits, dtype=np.int64)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        out = {}
        for g, name in enumerate(self.names):
            mine = gid == g
            out[name] = {
                "calls": int(np.count_nonzero(mine & outer)),
                "busy": float(dur[mine & outer].sum()),
                "self": float(self_time[mine].sum()),
                "gets": int(np.count_nonzero(mine)),
                "hits": int(np.count_nonzero(mine & (hits == 1))),
            }
        out["cli.load.busy"], out["cli.write.busy"] = self._cli_phases(start, dur, gid)
        return out

    def _cli_phases(self, start, dur, gid):
        """Load: CLI entry to the first task; write: last task end to the report written."""
        idx = {name: g for g, name in enumerate(self.names)}
        main = np.flatnonzero(gid == idx["cli.main"])
        runs = np.flatnonzero(gid == idx["cli.run_scenario"])
        if main.size == 0 or runs.size == 0:
            return 0.0, 0.0
        task_ids = [idx["cli.task." + t] for t in _CLI_TASKS]
        tasks = np.flatnonzero(np.isin(gid, task_ids))
        run_end = start[runs[0]] + dur[runs[0]]
        if tasks.size == 0:
            return float(run_end - start[main[0]]), 0.0
        first = start[tasks].min()
        last = (start[tasks] + dur[tasks]).max()
        return float(first - start[main[0]]), float(run_end - last)
