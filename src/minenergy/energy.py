"""Minimum-energy steering: value function, optimal controls and trajectories,
reachability classification, and the two state geometries the Riccati
residuals pair in: the Gramian-weighted space H (``HGeometry``) and the plain
Euclidean space X (``EuclideanGeometry``).

Steering problem: drive the state from 0 at time -t to a target x at time 0
with the least control energy (1/2) ∫ ||u||^2.  The value is
(1/2) ||Q_t^{-1/2} x||^2 whenever x lies in the range of Q_t^{1/2}; the
optimizer flows the Gramian inverse of the target through the adjoint
dynamics.
"""

import operator
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError, ReachabilityError
from .gramians import _van_loan_step, compute_gramian
from .linalg import _gaussian_coefficients, expm, negligible, pinv, range_inclusion

__all__ = [
    "ControlSignal",
    "HGeometry",
    "EuclideanGeometry",
    "value_function",
    "Steering",
    "steer",
    "optimal_samples",
    "simulate_control",
    "feedback_gain",
    "brute_force_min_energy",
    "LeastNormControl",
    "null_controllability_test",
    "NullControllability",
]

_trapz = getattr(np, "trapezoid", None) or np.trapz


@dataclass(frozen=True)
class ControlSignal:
    """A control sampled on an ascending grid in [-t, 0], interpolated linearly."""

    grid: np.ndarray           # shape (k,)
    values: np.ndarray         # shape (k, m)

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.atleast_2d(np.asarray(self.values, dtype=float))
        if values.shape[0] != grid.shape[0]:
            raise ValueError(
                f"values must have one row per grid node: {values.shape} vs {grid.shape}"
            )
        if grid.ndim != 1 or grid.size < 2 or np.any(np.diff(grid) <= 0):
            raise ValueError("grid must be a strictly ascending 1-d array with >= 2 nodes")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)

    def __call__(self, r):
        """Piecewise-linear interpolation, one column per input channel."""
        r = np.asarray(r, dtype=float)
        cols = [np.interp(r, self.grid, self.values[:, j])
                for j in range(self.values.shape[1])]
        return np.stack(cols, axis=-1)

    def energy(self):
        """(1/2) ∫ ||u(r)||^2 dr by the trapezoid rule on the grid."""
        sq = np.sum(self.values ** 2, axis=1)
        return 0.5 * float(_trapz(sq, self.grid))


@dataclass(frozen=True)
class Steering:
    """Class, defect and value of steering from 0 to a target over one horizon.

    ``category`` is one of:
      'in_range_Q'  -- x in range(Q_t): finite energy and an attaining control
      'unreachable' -- positive distance to range(Q_t)
    ``defect`` is the Euclidean distance from x to range(Q_t), the span of
    the eigenvectors that ``SymmetricPSD`` keeps (``linalg.rank_mask``), and
    ``value`` is the minimum energy for a reachable target and None otherwise.

    Two classes suffice because in finite dimension range(Q_t^{1/2}) =
    range(Q_t): a target has a finite value exactly when a control attains
    it.  Whether a discretized value belongs to the infinite-dimensional
    problem, where the two ranges differ, is a question about the limit
    under refinement (ROADMAP, "Limit verdicts").  A Gramian made from its
    factor Z (``SymmetricPSD.from_factor``, as the shift model's is) cuts on
    the singular values of Z, so it tells apart directions down to
    eps^2 * lam_max that a Gramian made from its entries must drop; the
    other models' factors are ROADMAP "Factored Gramians".
    """

    category: str
    defect: float
    value: float | None

    def to_json_dict(self):
        return {"class": self.category, "defect": self.defect, "value": self.value}


def _project(gram, x):
    """x projected once on the eigenvectors of ``gram.Q``: the ``Steering`` of
    x, w = V^T x and the mask of the kept eigenpairs."""
    x = np.asarray(x, dtype=float)
    keep = gram.Q._keep()
    w = gram.Q.eigenvectors.T @ x
    defect = float(np.linalg.norm(w[~keep]))
    if not negligible(defect, np.linalg.norm(x)):
        return Steering("unreachable", defect, None), w, keep
    value = 0.5 * float(np.sum(w[keep] ** 2 / gram.Q.eigenvalues[keep]))
    return Steering("in_range_Q", defect, value), w, keep


def steer(gram, x):
    """The class, defect and value of steering to x on the Gramian ``gram``.

    One pass over the eigenpairs that ``gram.Q`` keeps (``SymmetricPSD``
    cuts them once, with ``linalg.rank_mask``): with w = V^T x, the defect is
    the norm of w over the dropped directions, x is in range(Q_t) when that
    is ``linalg.negligible`` against ||x||, and the value is
    (1/2) sum_k w_k^2 / lam_k over exactly the kept directions.
    """
    return _project(gram, x)[0]


def value_function(gram, x):
    """Minimum steering energy (1/2) ||Q_t^{-1/2} x||^2, the value of ``steer``.

    Raises ReachabilityError (carrying the defect) when ``steer`` finds x
    outside range(Q_t).
    """
    s = steer(gram, x)
    if s.value is None:
        raise ReachabilityError(
            f"target at distance {s.defect:.3e} from the reachable subspace",
            defect=s.defect,
        )
    return s.value


def _steering_coefficients(gram, x, grid, what):
    """z = V_k (w_k / lam_k) = Q_t^+ x from the projection of ``steer``, over
    exactly the directions its value sums over: ReachabilityError unless x is
    in range(Q_t), ValueError for grid < 2 or an infinite horizon."""
    if operator.index(grid) < 2:
        raise ValueError(f"need at least 2 grid nodes, got {grid}")
    s, w, keep = _project(gram, x)
    if s.category != "in_range_Q":
        raise ReachabilityError(
            f"a target outside range(Q_t) has no optimal {what}; "
            f"classification was {s.category!r} with defect {s.defect:.3e}",
            defect=s.defect,
        )
    if not np.isfinite(gram.horizon):
        raise ValueError(f"optimal {what} needs a finite horizon, got {gram.horizon}")
    return gram.Q.eigenvectors[:, keep] @ (w[keep] / gram.Q.eigenvalues[keep])


def _require_finite(samples, what, t):
    """An overflow in e^{hA} or Q_h reaches the samples as inf or nan."""
    if not np.all(np.isfinite(samples)):
        raise NonFiniteError(
            f"the optimal {what} at horizon {t:g} overflows double precision"
        )


def _sample_flows(E, Qh, z, k):
    """The adjoint samples w_i = (E^T)^{k-1-i} z and the states
    y_0 = 0, y_{i+1} = E y_i + Q_h w_{i+1}, for i < k, as rows.

    Both by doubling over the powers P = E^m, m = 1, 2, 4, ..., each formed
    only when it is applied: the rows z^T E^j for j < 2m are those for
    j < m and their products with P, and the prefix scan adds to each y_i
    the partial sum m steps back, carried by P.  That is about log2(k)
    matrix products for each series instead of k - 1 vector steps.
    """
    powers = []
    rows = np.empty((k, z.size))  # row j is z^T E^j
    rows[0] = z
    P, m = E, 1
    while m < k:
        if powers:
            P = P @ P
        powers.append(P)
        rows[m:2 * m] = rows[:min(m, k - m)] @ P
        m *= 2
    w = rows[::-1]
    y = w @ Qh.T  # row i is (Q_h w_i)^T
    y[0] = 0.0
    for i, P in enumerate(powers):
        if 1 << i >= k - 1:
            break
        y[1 << i:] += y[:-(1 << i)] @ P.T
    return w, y


def optimal_samples(sys, gram, x, grid=129):
    """The minimum-energy control and the state it steers, on [-t, 0].

    The control is u(r) = B^T w(r) with the adjoint w(r) = e^{-r A^T} Q_t^+ x,
    and the state y(r) = Q_{t+r} w(r), both sampled at ``grid`` (an int node
    count k >= 2) equally spaced nodes r_i = -t + i h, h = t / (k - 1).  The
    target must lie in range(Q_t).

    One exponential gives the step pair (e^{hA}, Q_h).  The adjoint steps
    back from w = Q_t^+ x at r = 0 by the exact recurrence
    w_i = e^{hA^T} w_{i+1}.  With Q_{s+h} = Q_h + e^{hA} Q_s e^{hA^T}, the
    states follow the exact vector recurrence y_{i+1} = e^{hA} y_i +
    Q_h w_{i+1} from y_0 = 0 at r = -t, so y(-t) = 0 exactly, and at r = 0
    the Gramian cancels the pseudoinverse on range(Q_t), giving x.  Both
    series are formed by doubling (``_sample_flows``).  Returns the pair
    (``ControlSignal``, states), the states a (grid, n) array with row i at
    r_i; NonFiniteError when either overflows.
    """
    z = _steering_coefficients(gram, x, grid, "control and trajectory")
    t = gram.horizon
    E, Qh = _van_loan_step(sys, t / (grid - 1))
    with np.errstate(over="ignore", invalid="ignore"):
        w, states = _sample_flows(E, Qh, z, grid)
        values = w @ sys.B
    _require_finite(values, "control", t)
    _require_finite(states, "trajectory", t)
    nodes = np.linspace(-t, 0.0, grid)
    return ControlSignal(nodes, values), states


def simulate_control(sys, signal, substeps=8):
    """Integrate y' = Ay + Bu(r) from y = 0 over the signal's grid with RK4.

    The control is the signal's piecewise-linear interpolant; each grid
    interval is subdivided ``substeps`` times.  Returns the states on the
    signal grid, a (k, n) array.
    """
    y = np.zeros(sys.n)
    states = np.empty((signal.grid.size, sys.n))
    states[0] = y

    def f(r, y):
        return sys.A @ y + sys.B @ signal(r)

    for i in range(signal.grid.size - 1):
        r0, r1 = signal.grid[i], signal.grid[i + 1]
        h = (r1 - r0) / substeps
        for k in range(substeps):
            r = r0 + k * h
            k1 = f(r, y)
            k2 = f(r + 0.5 * h, y + 0.5 * h * k1)
            k3 = f(r + 0.5 * h, y + 0.5 * h * k2)
            k4 = f(r + h, y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states[i + 1] = y
    return states


def feedback_gain(sys, s):
    """Feedback form of the optimizer: gain F(s) = B^T Q_s^+ at time-to-go s.

    Along an optimal pair, u(r) = F(t + r) y(r).  As s grows in the
    commuting selfadjoint stable case, A + B F(s) approaches -A^T: the
    optimally steered flow reverses the adjoint dynamics.
    """
    if s <= 0.0:
        raise ValueError(f"time-to-go must be positive, got {s}")
    return sys.B.T @ compute_gramian(sys, s).Q.pinv()


@dataclass(frozen=True)
class LeastNormControl:
    """Discrete minimum-energy control: piecewise constant on [-t, 0].

    ``energy`` uses the exact interval-weighted quadratic form
    (1/2) Σ h_k ||u_k||^2, and ``edges``/``values`` give the intervals and
    the constant value on each.
    """

    energy: float
    edges: np.ndarray          # shape (N+1,)
    values: np.ndarray         # shape (N, m)


def brute_force_min_energy(sys, x, t, n_steps):
    """Least-norm piecewise-constant steering oracle.

    Builds the exact control-to-state map for piecewise-constant inputs on a
    uniform grid (per-interval integrals of the exponential are computed via
    the augmented-matrix exponential, not by quadrature), then solves the
    interval-length-weighted least-norm problem.  Converges to the true
    value from above as the grid refines.  A target the discrete controls
    miss by more than 1e-8 relative is a ReachabilityError.
    """
    x = np.asarray(x, dtype=float)
    t = float(t)
    if t <= 0.0 or not np.isfinite(t):
        raise ValueError(f"horizon must be positive and finite, got {t}")
    n_steps = int(n_steps)
    if n_steps < 1:
        raise ValueError("need at least one step")
    n, m = sys.n, sys.m
    h = t / n_steps
    # one-step quantities: e^{hA} and Phi = ∫_0^h e^{sA} ds B, both exact
    aug = np.zeros((2 * n, 2 * n))
    aug[:n, :n] = sys.A
    aug[:n, n:] = np.eye(n)
    E_aug = expm(aug, h)
    E_h = E_aug[:n, :n]
    Phi = E_aug[:n, n:] @ sys.B
    # interval k ends at -t + (k+1)h; its contribution is e^{(t-(k+1)h)A} Phi
    blocks = [None] * n_steps
    Ek = np.eye(n)
    for k in range(n_steps - 1, -1, -1):
        blocks[k] = Ek @ Phi
        Ek = Ek @ E_h
    L = np.hstack(blocks)
    # interval-length weighting: substitute v = sqrt(h) u
    Lv = L / np.sqrt(h)
    v = pinv(Lv) @ x
    resid = float(np.linalg.norm(Lv @ v - x))
    if resid > 1e-8 * max(np.linalg.norm(x), 1e-300):
        raise ReachabilityError(
            f"target not reachable on the discrete control space: defect {resid:.3e}",
            defect=resid,
        )
    u = (v / np.sqrt(h)).reshape(n_steps, m)
    edges = np.linspace(-t, 0.0, n_steps + 1)
    return LeastNormControl(energy=0.5 * float(v @ v), edges=edges, values=u)


@dataclass(frozen=True)
class NullControllability:
    """Range-test verdict: can every free state at time T0 be steered to zero.

    ``constant`` is the smallest c with ||e^{T0 A^T} x||^2 <= c <Q_{T0} x, x>
    (finite exactly when the verdict holds).
    """

    satisfied: bool
    constant: float
    defect: float

    def to_json_dict(self):
        return {"satisfied": self.satisfied, "constant": self.constant, "defect": self.defect}


def null_controllability_test(model, T0):
    """Test range(S_{T0}) ⊆ range(Q_{T0}^{1/2}) and compute its constant, for
    any model with ``gramian(t)`` and ``semigroup(t)`` (the flow S_t, e^{tA}
    for a matrix system), with the factor of Q_{T0} (``SymmetricPSD.factor``)
    in place of the root."""
    T0 = float(T0)
    if T0 <= 0.0 or not np.isfinite(T0):
        raise ValueError(f"T0 must be positive and finite, got {T0}")
    Z = model.gramian(T0).Q.factor()
    incl = range_inclusion(model.semigroup(T0), Z)
    constant = incl.constant ** 2 if incl.included else np.inf
    return NullControllability(incl.included, float(constant), incl.defect)


class HGeometry:
    """The state space re-normed by the infinite-horizon Gramian.

    The norm is ||x||_H = ||Q_inf^{-1/2} x||; membership in H means lying in
    range(Q_inf^{1/2}).  Operators that are selfadjoint in this geometry
    satisfy M = Q_inf M^T Q_inf^{-1} on H.

    ``sqrt_matrix`` is the factor Z of Q_inf (n x k, ``SymmetricPSD.factor``)
    and ``pinv_sqrt`` = (Z / lam_k)^T its left inverse, so that
    ``pinv_sqrt @ M @ sqrt_matrix`` has the norms of Q_inf^{-1/2} M Q_inf^{1/2}.
    ``equation`` names the Riccati equation this geometry pairs.
    """

    equation = "weighted"

    def __init__(self, gram):
        if not np.isinf(gram.horizon):
            raise ValueError("HGeometry needs an infinite-horizon Gramian")
        self.gram = gram
        self.sqrt_matrix = gram.Q.factor()
        self.pinv_sqrt = (self.sqrt_matrix / gram.Q.eigenvalues[gram.Q._keep()]).T
        self.metric = gram.Q.pinv()       # = pinv_sqrt^T pinv_sqrt

    def normalize(self, x):
        """x over its H-norm; each column of a matrix over its own."""
        x = np.asarray(x, dtype=float)
        nx = np.linalg.norm(self.pinv_sqrt @ x, axis=0)
        if np.any(nx == 0.0):
            raise ValueError("cannot normalize a zero vector")
        return x / nx

    def operator_norm(self, M):
        """Norm of M as an operator on H: ||Q_inf^{-1/2} M Q_inf^{1/2}||_2."""
        return float(np.linalg.norm(self.pinv_sqrt @ M @ self.sqrt_matrix, 2))

    def symmetry_defect(self, M, seed=0, n_probes=8):
        """Max |<Mx,y>_H - <x,My>_H| over seeded probe pairs, scaled by probe norms.

        The pairs are seeded random combinations of a basis of the space,
        drawn x, y, x, y, ... and normalized in H."""
        U = self.gram.Q.range_basis()
        XY = self.normalize(U @ _gaussian_coefficients(seed, U.shape[1], 2 * n_probes))
        X, Y = XY[:, 0::2], XY[:, 1::2]
        W = self.metric
        gaps = np.einsum("ik,ik->k", M @ X, W @ Y) - np.einsum("ik,ik->k", X, W @ (M @ Y))
        return float(np.abs(gaps).max(initial=0.0))


class EuclideanGeometry:
    """The plain state space X of dimension n: the metric is the identity."""

    equation = "plain"

    def __init__(self, n):
        self.metric = np.eye(n)

    def normalize(self, x):
        """x over its norm; each column of a matrix over its own."""
        x = np.asarray(x, dtype=float)
        nx = np.linalg.norm(x, axis=0)
        if np.any(nx == 0.0):
            raise ValueError("cannot normalize a zero vector")
        return x / nx

    def operator_norm(self, M):
        return float(np.linalg.norm(M, 2))

