"""Seeded inputs for the three benchmark workloads.

Each workload is a list of ``minenergy run`` scenarios.  The program only
ever sees the scenario files written from these dicts; the ``check`` entry
beside each scenario names the reference check the benchmark applies to its
outputs and carries the model parameters that check needs.

Sizes are fixed per workload, so the cost of a round barely depends on the
seed: the seed moves matrix entries, targets and operator weights, never
orders, horizons, meshes or grids.  ``small`` shrinks every size for the
benchmark's own tests.
"""

import numpy as np

from checks import van_loan_gramian

WORKLOADS = ("steer", "verify", "delay-shift")

# a target's energy is only well defined when Q_t is far from the rank
# cutoff (relative 1e-10) that the program applies; inputs stay below this
MAX_GRAMIAN_CONDITION = 1e7

# the program's own defaults for control/trajectory samples and delay mesh
# cells (``minenergy run`` without ``grid_points`` or ``mesh``)
GRID_POINTS = 129
MESH = 32


def _rng(seed, stream):
    return np.random.default_rng([int(seed), stream])


def _dense_system(rng, n, m, abscissa, t_min):
    """Dense non-commuting (A, B) with spectral abscissa exactly ``abscissa``.

    The coupling part is normalised to unit spectral norm so that the
    exponential's scaling-and-squaring depth, and with it the cost, does not
    move with the seed.  Draws whose Gramian at the shortest horizon is too
    ill conditioned for the program's rank cutoff are redrawn.
    """
    while True:
        G = rng.standard_normal((n, n))
        G /= np.linalg.norm(G, 2)
        A = G - (np.max(np.linalg.eigvals(G).real) - abscissa) * np.eye(n)
        B = rng.standard_normal((n, m)) / np.sqrt(n)
        if np.linalg.cond(van_loan_gramian(A, B, t_min)) <= MAX_GRAMIAN_CONDITION:
            return A, B


def _unit(rng, n):
    x = rng.standard_normal(n)
    return x / np.linalg.norm(x)


def _steer(seed, small):
    rng = _rng(seed, 1)
    horizons = [0.5, 1.0, 2.0, 4.0]
    items = []
    for n in ((4,) if small else (16, 20)):
        A, B = _dense_system(rng, n, n // 2, -0.5, horizons[0])
        items.append(
            {
                "name": f"stable-n{n}",
                "scenario": {
                    "model": {"A": A.tolist(), "B": B.tolist()},
                    "tasks": ["gramian", "min-energy", "null-controllability"],
                    "horizons": horizons,
                    "targets": [_unit(rng, n).tolist() for _ in range(2)],
                    "grid_points": 33 if small else GRID_POINTS,
                },
                "check": {"kind": "dense-steer"},
            }
        )
    n = 4 if small else 6
    A, B = _dense_system(rng, n, n // 2, 0.25, 0.5)
    items.append(
        {
            "name": f"unstable-n{n}",
            "scenario": {
                "model": {"A": A.tolist(), "B": B.tolist()},
                "tasks": ["gramian", "min-energy", "null-controllability"],
                "horizons": [0.5, 1.0, 2.0],
                "targets": [_unit(rng, n).tolist()],
                "grid_points": 33 if small else GRID_POINTS,
            },
            "check": {"kind": "dense-steer"},
        }
    )
    return items


def _spectral_item(rng, preset, lambdas, bs, horizons, small):
    N = lambdas.size
    # the first mode's weight puts the family's invertibility threshold t1
    # between the first and second horizon, so one horizon is skipped
    kappa = rng.uniform(0.2, 1.6, N)
    kappa[0] = rng.uniform(1.8, 2.4)
    keep = rng.permutation(N)[: N // 2]
    proj = np.zeros(N)
    proj[keep] = 1.0
    return {
        "name": preset.split(":")[1].split("(")[0],
        "scenario": {
            "model": preset,
            "tasks": [
                "gramian",
                "min-energy",
                "commuting-family",
                "project-check",
                "null-controllability",
                "sweep",
            ],
            "horizons": horizons,
            "targets": [_unit(rng, N).tolist()],
            "grid_points": 33 if small else GRID_POINTS,
            "K": np.diag(kappa).tolist(),
            "projector": np.diag(proj).tolist(),
            "sweep_kinds": ["value"],
        },
        "check": {"kind": "spectral", "lambdas": lambdas.tolist(), "bs": bs.tolist()},
    }


def _verify(seed, small):
    rng = _rng(seed, 2)
    n = 4 if small else 16
    A, B = _dense_system(rng, n, n // 2, -0.5, 0.5)
    items = [
        {
            "name": f"dense-n{n}",
            "scenario": {
                "model": {"A": A.tolist(), "B": B.tolist()},
                "tasks": ["gramian", "verify-riccati", "verify-lyapunov", "sweep"],
                "horizons": [0.5, 1.0, 2.0, 4.0],
                "targets": [_unit(rng, n).tolist() for _ in range(2)],
                "sweep_kinds": ["value", "residual"],
            },
            "check": {"kind": "dense-verify"},
        }
    ]
    N = 6 if small else 24
    modes = np.arange(1, N + 1, dtype=float)
    horizons = [0.25, 0.5, 1.0, 2.0]
    items.append(
        _spectral_item(
            rng, f"spectral:landau-ginzburg({N})", modes**2, np.ones(N), horizons, small
        )
    )
    items.append(
        _spectral_item(
            rng, f"spectral:power-law(0.5,{N})", modes**2, modes, horizons, small
        )
    )
    # recover-L on a mildly damped diagonal system: every rate is O(1), so
    # the backward exponential e^{-t* A} of the round trip stays moderate
    m = 6
    lam = np.sort(rng.uniform(0.2, 1.2, m))
    b = rng.uniform(0.5, 1.5, m)
    kappa = rng.uniform(0.3, 0.9, m)
    items.append(
        {
            "name": f"damped-n{m}",
            "scenario": {
                "model": {"A": np.diag(-lam).tolist(), "B": np.diag(np.sqrt(b)).tolist()},
                "tasks": ["recover-L", "commuting-family"],
                "horizons": [0.5, 1.0, 2.0],
                "K": np.diag(kappa).tolist(),
                "t_star": 1.0,
            },
            "check": {"kind": "recover", "lambdas": lam.tolist(), "bs": b.tolist()},
        }
    )
    return items


def _delay_shift(seed, small):
    rng = _rng(seed, 3)
    mesh = 8 if small else MESH
    d = 1.0
    # a0 stays away from 0: the program's exponential-polynomial
    # antiderivative loses digits like 1/|a0|^k there (see CHANGES.md)
    a0 = float(rng.uniform(-1.0, -0.4))
    a1 = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.4, 1.0))
    b0 = float(rng.uniform(0.5, 1.5))
    # a history profile on the most recent half delay: every horizon here
    # (>= d/2) reaches those cells, while older cells stay at zero
    wave = np.sin(np.pi * rng.uniform(0.5, 2.0) * np.linspace(0.0, 1.0, mesh))
    cells = np.sqrt(d / mesh) * (rng.uniform(0.3, 0.5) + rng.uniform(0.1, 0.2) * wave)
    cells[: mesh // 2] = 0.0
    head_only = [float(rng.uniform(0.3, 0.8))] + [0.0] * mesh
    profile = [float(rng.uniform(0.2, 0.6))] + cells.tolist()
    m = 16 if small else 64
    centers = (np.arange(m) + 0.5) / m
    bump = np.exp(-((centers - rng.uniform(0.3, 0.7)) ** 2) / 0.02) * rng.uniform(0.5, 1.5)
    return [
        {
            "name": "delay",
            "scenario": {
                "model": f"delay({a0!r},{a1!r},{b0!r},{d!r})",
                "mesh": mesh,
                "tasks": ["gramian", "min-energy", "null-controllability"],
                "horizons": [0.5, 0.75, 1.5, 2.5],
                "targets": [head_only, profile],
            },
            "check": {"kind": "delay", "a0": a0, "a1": a1, "b0": b0, "delay": d, "mesh": mesh},
        },
        {
            "name": "shift-gramian",
            "scenario": {"model": f"shift({m})", "tasks": ["gramian"], "horizons": [0.25, 0.5, 1.0]},
            "check": {"kind": "shift", "m": m},
        },
        {
            "name": "shift-steer",
            "scenario": {
                "model": f"shift({m})",
                "tasks": ["min-energy"],
                "horizons": [1.0],
                "targets": [np.minimum(centers, 0.25).tolist(), bump.tolist()],
            },
            "check": {"kind": "shift", "m": m},
        },
    ]


_BUILDERS = {"steer": _steer, "verify": _verify, "delay-shift": _delay_shift}


def build(workload, seed, small=False):
    """The workload's scenarios for ``seed``: a list of {name, scenario, check}."""
    return _BUILDERS[workload](seed, small)
