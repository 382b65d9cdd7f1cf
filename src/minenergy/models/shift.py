"""A nilpotent shift with a short control window: reachability defects are
computed from an exactly assembled cell/interval overlap matrix."""

import hashlib
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from ..errors import MeshResolutionError, PreconditionError, ScenarioError
from ..gramians import _wrap
from ..linalg import REL_THRESHOLD
from ..systems import Model

__all__ = [
    "ShiftSystem",
    "ShiftDefectReport",
    "shift_control_map",
    "shift_gramian",
    "shift_benchmark_target",
    "shift_reachable_defect",
    "shift_value_oracle",
]


@dataclass(frozen=True)
class ShiftSystem(Model):
    """Right shift on the unit interval, control acting on [0, 1/4].

    The semigroup transports mass to the right and annihilates it at 1, so
    there is no infinite-horizon Gramian; reachability is horizon-limited
    in an essential way.  ``m`` cells discretize the interval; m must be a
    multiple of 4 so the control window edge is lattice-aligned, which makes
    the overlap integrals below exact (the integrand is piecewise linear
    between lattice points).  Steering is judged by one SVD of the control
    map, which yields no sampled control.
    """

    kind = "shift"
    no_infinite_horizon = "its horizons are steps of the cell lattice"

    m: int

    def __post_init__(self):
        if not isinstance(self.m, int) or self.m < 4 or self.m % 4 != 0:
            raise MeshResolutionError("m must be a multiple of 4, at least 4")

    @property
    def h(self):
        return 1.0 / self.m

    @property
    def dim(self):
        return self.m

    def fingerprint(self):
        return hashlib.sha256(struct.pack("<q", self.m)).hexdigest()[:16]

    def to_json_dict(self):
        return {"m": self.m}

    def gramian(self, t):
        return shift_gramian(self, t)

    def null_controllability(self, t):
        raise ScenarioError("null-controllability is undefined for the shift model")

    def default_targets(self):
        return [shift_benchmark_target(self.m)]

    def steer(self, t, x):
        return shift_reachable_defect(self, t, target=x)

    def least_norm_control(self, t, x, grid):
        return None

    def value_oracles(self, times):
        return [shift_value_oracle(self, t) for t in times]


def _lattice_steps(sys_, t):
    steps = float(t) * sys_.m
    n = int(round(steps))
    if n < 1 or abs(steps - n) > 1e-9 * max(1.0, steps):
        raise PreconditionError(
            f"horizon {t:g} is not aligned with the lattice of step {sys_.h:g}"
        )
    return n


def _window_overlap(edges, a, width=0.25):
    """Lengths |cell_i ∩ [a, a + width]| for all cells at once."""
    lo = np.maximum(edges[:-1], a)
    hi = np.minimum(edges[1:], a + width)
    return np.maximum(0.0, hi - lo)


def shift_control_map(sys_, t):
    """Matrix of the control-to-state map in orthonormal cell coordinates.

    Piecewise-constant controls on the same lattice; entry (i, k) integrates
    the moving window indicator against cell i while the window slides by
    one lattice step, which the trapezoid rule evaluates exactly.
    """
    n = _lattice_steps(sys_, t)
    m, h = sys_.m, sys_.h
    edges = np.arange(m + 1, dtype=float) * h
    L = np.zeros((m, n))
    for k in range(n):
        a_hi = float(t) - k * h  # window offset at the start of the slot
        a_lo = a_hi - h
        L[:, k] = math.sqrt(h) * 0.5 * (
            _window_overlap(edges, a_lo) + _window_overlap(edges, a_hi)
        )
    return L


def shift_gramian(sys_, t):
    """The overlap Gramian L Lᵀ of the control map at horizon t."""
    L = shift_control_map(sys_, t)
    return _wrap(sys_, L @ L.T, t, "closed_form")


def shift_benchmark_target(m):
    """Cell-center samples of f(s) = min(s, 1/4): a ramp that saturates."""
    centers = (np.arange(m, dtype=float) + 0.5) / m
    return np.minimum(centers, 0.25)


@dataclass(frozen=True)
class ShiftDefectReport:
    """Reachability defect of one target, from one SVD of the control map.

    ``coefficients`` is the least-norm control (lattice coefficients v with
    L v the projection of the scaled target onto the kept range of L), cut
    at the same relative threshold (``REL_THRESHOLD``) as ``rank``.
    """

    defect: float
    horizon: float
    m: int
    rank: int
    reachable: bool            # defect within REL_THRESHOLD of the target's norm
    value: float | None        # the energy ½ h ‖v‖² when reachable
    coefficients: np.ndarray = field(repr=False, compare=False)

    @property
    def category(self):
        """The class of ``energy.classify_target``: in_range_Q or unreachable."""
        return "in_range_Q" if self.reachable else "unreachable"

    def to_json_dict(self):
        """The steering verdict, as ``energy.Steering`` gives it, and the rank."""
        return {"class": self.category, "defect": self.defect, "value": self.value,
                "rank": self.rank}


def shift_reachable_defect(sys_, t, target=None):
    """Distance from the target to the reachable set at horizon t.

    The defect is the L^2 norm of the component of the target outside
    the range of the control map.  At t = 1/4 the ramp target keeps an
    untouched plateau on (1/2, 1] and the defect stays above 0.17; at
    t = 1 the window has swept the whole interval and the defect collapses.
    """
    if target is None:
        target = shift_benchmark_target(sys_.m)
    if callable(target):
        centers = (np.arange(sys_.m, dtype=float) + 0.5) * sys_.h
        f = np.asarray(target(centers), dtype=float)
    else:
        f = np.asarray(target, dtype=float)
    if f.shape != (sys_.m,):
        raise ValueError("target must provide one value per cell")
    f_hat = math.sqrt(sys_.h) * f
    L = shift_control_map(sys_, t)
    U, s, Vt = np.linalg.svd(L, full_matrices=False)
    keep = s > REL_THRESHOLD * s[0] if s.size else np.zeros(0, dtype=bool)
    Ur = U[:, keep]
    proj = Ur.T @ f_hat
    defect = float(np.linalg.norm(f_hat - Ur @ proj))
    v = Vt[keep].T @ (proj / s[keep])
    reachable = defect <= REL_THRESHOLD * max(np.linalg.norm(f_hat), 1e-300)
    return ShiftDefectReport(
        defect=defect,
        horizon=float(t),
        m=sys_.m,
        rank=int(np.count_nonzero(keep)),
        reachable=bool(reachable),
        value=0.5 * sys_.h * float(v @ v) if reachable else None,
        coefficients=v,
    )


def shift_value_oracle(sys_, t):
    """The value x -> ½ h f̂ᵀ (L Lᵀ)⁺ f̂ with f̂ = √h x, through a QR
    factorization of the control map L rather than the singular vectors that
    ``shift_reachable_defect`` uses.  A tall or square L = QR gives the
    coefficients v = R⁻¹Qᵀf̂ and the value ½ h ‖v‖²; a wide L has Lᵀ = QR
    and the value ½ h ‖R⁻ᵀf̂‖².  Neither forms L Lᵀ, whose condition number
    is the square of L's."""
    L, h = shift_control_map(sys_, t), sys_.h
    tall = L.shape[0] >= L.shape[1]
    Q, R = np.linalg.qr(L if tall else L.T)

    def value(x):
        f_hat = math.sqrt(h) * np.asarray(x, dtype=float)
        w = np.linalg.solve(R, Q.T @ f_hat) if tall else np.linalg.solve(R.T, f_hat)
        return 0.5 * h * float(w @ w)

    return value
