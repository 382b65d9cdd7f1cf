"""Finite-dimensional linear control systems x' = Ax + Bu, and the calls
every model answers."""

import functools
import hashlib
import weakref

import numpy as np

from .energy import null_controllability_test, optimal_samples, steer, value_function
from .gramians import compute_gramian, gramian_quadrature_sweep
from .linalg import as_matrix, commutes, expm

__all__ = ["Model", "LinearSystem", "random_stable_system"]


class Model:
    """The calls every model answers, with the defaults that need only its Gramian
    (and, for null controllability, its semigroup).

    A model names its ``kind``, the length ``dim`` of a target vector and
    its matrix system ``linear`` (None when there is none, and the tasks
    built on A and B refuse it); ``no_infinite_horizon`` says why it has no
    Q_inf, if it has none.  ``to_json_dict()`` describes it, ``gramian(t)``
    is its Gramian, ``semigroup(t)`` its uncontrolled flow over time t, and
    ``null_controllability(t)`` its null-controllability report, which has a
    ``to_json_dict()`` too (by default ``null_controllability_test`` on the
    two).  ``steer(t, x)`` gives the class, defect and value of steering to
    x; ``least_norm_control(t, x, grid)`` the least-norm control with the
    states it passes through (None when the model has no samples, or no
    states); ``default_targets()`` the targets of a steering task that names
    none; ``value_oracles(times)`` per horizon a map from a target to its
    value computed apart from ``steer`` (None when the model has no such
    oracle).
    """

    linear = None
    no_infinite_horizon = None

    def default_targets(self):
        return []

    def null_controllability(self, t):
        return null_controllability_test(self, t)

    def steer(self, t, x):
        return steer(self.gramian(t), x)

    def least_norm_control(self, t, x, grid):
        return optimal_samples(self.linear, self.gramian(t), x, grid=grid)

    def value_oracles(self, times):
        """The value on the quadrature Gramians of ``linear``, all from one sweep."""
        grams = gramian_quadrature_sweep(self.linear, times)
        return [functools.partial(value_function, gram) for gram in grams]


class LinearSystem(Model):
    """State matrix A (n x n) and input matrix B (n x m).

    The decay margin ``omega = max(0, -max Re lambda(A))`` is computed once;
    ``omega > 0`` means the flow is uniformly exponentially stable, which is
    what infinite-horizon computations require.  A, B and ``BBt`` = B Bᵀ,
    formed once, are read-only, so ``compute_gramian`` keeps each Gramian it
    computes in ``_gramians``, keyed by horizon, and ``riccati.build_pv``
    keeps in ``_null_controllable_from`` the least horizon at which the null
    controllability test passed (inf until one has).  The ``riccati`` module
    keeps the system's one ``HGeometry`` in ``_h_geometry`` (None until
    built) and its residual probes in ``_probes``: per geometry, held weakly
    so that a geometry's probes go with it, keyed by time, count and seed.
    """

    kind = "linear"

    def __init__(self, A, B):
        A = as_matrix(A, "A")
        B = as_matrix(B, "B")
        if A.shape[0] != A.shape[1]:
            raise ValueError(f"A must be square, got {A.shape}")
        if B.ndim != 2 or B.shape[0] != A.shape[0]:
            raise ValueError(
                f"B must have one row per state: A is {A.shape}, B is {B.shape}"
            )
        self.A = A.copy()
        self.B = B.copy()
        with np.errstate(over="ignore", invalid="ignore"):
            self.BBt = self.B @ self.B.T
        if not np.all(np.isfinite(self.BBt)):
            raise ValueError("B B^T overflows double precision")
        for M in (self.A, self.B, self.BBt):
            M.setflags(write=False)
        self.n = A.shape[0]
        self.m = B.shape[1]
        self.omega = float(max(0.0, -np.max(np.linalg.eigvals(self.A).real)))
        self._gramians = {}
        self._null_controllable_from = np.inf
        self._h_geometry = None
        self._probes = weakref.WeakKeyDictionary()

    @property
    def linear(self):
        return self

    @property
    def dim(self):
        return self.n

    def gramian(self, t):
        return compute_gramian(self, t)

    def semigroup(self, t):
        return expm(self.A, t)

    @property
    def stable(self):
        return self.omega > 0.0

    def is_commuting_selfadjoint(self, tol=1e-10):
        """True when A is symmetric and commutes with B B^T.

        This is the regime in which the Gramians have entrywise closed forms
        and the quadratic operator family admits the exponential solution
        formula.
        """
        scale = np.abs(self.A).max()
        sym = scale == 0.0 or np.abs(self.A - self.A.T).max() <= tol * scale
        return bool(sym and commutes(self.A, self.BBt, tol))

    def fingerprint(self):
        """Stable hex digest of (A, B), used to tag derived quantities."""
        h = hashlib.sha256()
        h.update(np.array(self.A.shape, dtype=np.int64).tobytes())
        h.update(np.ascontiguousarray(self.A).tobytes())
        h.update(np.array(self.B.shape, dtype=np.int64).tobytes())
        h.update(np.ascontiguousarray(self.B).tobytes())
        return h.hexdigest()[:16]

    def to_json_dict(self):
        return {"A": self.A.tolist(), "B": self.B.tolist()}

    @classmethod
    def from_json_dict(cls, data):
        if not isinstance(data, dict) or "A" not in data or "B" not in data:
            raise ValueError("system description must be an object with 'A' and 'B'")
        return cls(np.asarray(data["A"], dtype=float), np.asarray(data["B"], dtype=float))


def random_stable_system(rng, n, m=None, margin=0.5):
    """Draw a random exponentially stable, almost-surely controllable system.

    A dense Gaussian matrix is shifted left so its spectral abscissa sits at
    ``-margin``; B is dense Gaussian, which makes (A, B) controllable with
    probability one.
    """
    if m is None:
        m = max(1, n // 2)
    G = rng.standard_normal((n, n)) / np.sqrt(n)
    abscissa = np.max(np.linalg.eigvals(G).real)
    A = G - (abscissa + margin) * np.eye(n)
    B = rng.standard_normal((n, m)) / np.sqrt(n)
    return LinearSystem(A, B)
