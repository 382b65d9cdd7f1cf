"""A nilpotent shift with a short control window: the Gramian is made from
an exactly assembled cell/interval overlap matrix, the control map L, as a
factor, and steering reads it through ``energy.steer``."""

import math
from dataclasses import dataclass

import numpy as np

from ..energy import Steering, steer
from ..errors import MeshResolutionError, PreconditionError, ScenarioError, StiffnessError
from ..gramians import Gramian, _finite_horizon
from ..linalg import _LATTICE_WORK_CAP, SymmetricPSD
from ..systems import Model

__all__ = [
    "ShiftSystem",
    "shift_control_map",
    "shift_gramian",
    "shift_benchmark_target",
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
    between lattice points).

    The Gramian Q = L Lᵀ (``shift_gramian``) is that of the lattice
    coefficients c of a piecewise-constant control, while the energy is
    ½∫u² = ½ h |c|², and a target x of cell values has coordinates √h x.  So
    ``steer(t, x)`` is ``energy.steer`` on Q with target √h x and its value
    multiplied by h.  It yields no sampled control.
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

    def to_json_dict(self):
        return {"m": self.m}

    def _compute_gramian(self, t):
        return shift_gramian(self, t)

    def null_controllability(self, t):
        raise ScenarioError("null-controllability is undefined for the shift model")

    def default_targets(self):
        return [shift_benchmark_target(self.m)]

    def steer(self, t, x):
        s = steer(self.gramian(t), math.sqrt(self.h) * np.asarray(x, dtype=float))
        return s if s.value is None else Steering(s.category, s.defect, self.h * s.value)

    def least_norm_control(self, t, x, grid):
        return None

    def value_oracles(self, times):
        return [shift_value_oracle(self, t) for t in times]


def _lattice_steps(sys_, t):
    steps = _finite_horizon(t) * sys_.m
    n = int(round(steps))
    if n < 1 or abs(steps - n) > 1e-9 * max(1.0, steps):
        raise PreconditionError(
            f"horizon {t:g} is not aligned with the lattice of step {sys_.h:g}"
        )
    return n


def _window_overlap(edges, a):
    """Lengths |cell_i ∩ [a, a + 1/4]|, the control window at offset a, for
    all cells at once."""
    lo = np.maximum(edges[:-1], a)
    hi = np.minimum(edges[1:], a + 0.25)
    return np.maximum(0.0, hi - lo)


def shift_control_map(sys_, t):
    """Matrix of the control-to-state map in orthonormal cell coordinates.

    Piecewise-constant controls on the same lattice; entry (i, k) integrates
    the moving window indicator against cell i while the window slides by
    one lattice step, which the trapezoid rule evaluates exactly.  A map of
    more than ``_LATTICE_WORK_CAP`` entries is a ``StiffnessError``.
    """
    n = _lattice_steps(sys_, t)
    m, h = sys_.m, sys_.h
    if m * n > _LATTICE_WORK_CAP:
        raise StiffnessError(f"the control map of {m} cells by {n} steps exceeds "
                             f"the cap of {_LATTICE_WORK_CAP:.3g} entries")
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
    """The overlap Gramian L Lᵀ of the control map at horizon t, made from
    its factor L (``SymmetricPSD.from_factor``).

    It is the Gramian of the lattice coefficients c (u = c_k on slot k), not
    of the control: the energy ½∫u² is ½ h |c|², so a value on this Q is
    the model's value divided by h (``ShiftSystem.steer`` scales it back).
    """
    Q = SymmetricPSD.from_factor(shift_control_map(sys_, t))
    return Gramian(Q, float(t), "closed_form")


def shift_benchmark_target(m):
    """Cell-center samples of f(s) = min(s, 1/4): a ramp that saturates."""
    centers = (np.arange(m, dtype=float) + 0.5) / m
    return np.minimum(centers, 0.25)


def shift_value_oracle(sys_, t):
    """The value x -> ½ h f̂ᵀ (L Lᵀ)⁺ f̂ with f̂ = √h x, through a QR
    factorization of the control map L rather than the singular vectors that
    ``ShiftSystem.steer`` reads from the Gramian.  A tall or square L = QR gives the
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
