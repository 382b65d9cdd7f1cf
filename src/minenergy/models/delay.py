"""The scalar delay equation x'(t) = a0 x(t) + a1 x(t - delay) + b0 u(t).

The fundamental solution is built by the method of steps on the cells of
the history mesh, in time local to each cell, and its kernels are
integrated cell by cell to roundoff; the only approximation anywhere is the
projection of the history segment onto a uniform mesh.
"""

import hashlib
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from ..energy import ControlSignal, _steering_coefficients
from ..errors import MeshResolutionError, NonFiniteError, StiffnessError
from ..gramians import _wrap
from ..linalg import _LATTICE_WORK_CAP
from ..systems import Model

__all__ = [
    "DelaySystem",
    "FundamentalSolution",
    "delay_fundamental_solution",
    "delay_gramian",
    "delay_optimal_control",
    "delay_semigroup_matrix",
    "delay_domain_residual",
]


@dataclass(frozen=True)
class DelaySystem(Model):
    """x'(t) = a0 x(t) + a1 x(t - delay) + b0 u(t).

    The state is the pair (x(t), x(t + .) on [-delay, 0]).  The history
    segment is represented by cell averages on a uniform mesh of ``mesh``
    cells; that projection is the single approximation in the pipeline.
    ``gramian(t)`` keeps each mesh Gramian that ``delay_gramian`` computes,
    one per horizon, and ``delay_fundamental_solution`` each fundamental
    solution in ``_fundamentals``, keyed by its number of delay intervals.
    There is no matrix system, and no value oracle apart from the
    fundamental solution yet.

    The flow over [0, T0] lands inside the reachable range (the default
    ``null_controllability``, on ``semigroup`` and ``gramian``) once T0
    exceeds the delay, when every part of the state has been overwritten by
    controlled dynamics; it does not for T0 below the delay, where untouched
    history cells survive.  The reported constant is the squared norm bound
    of the steering map and grows as T0 decreases toward the delay.
    """

    kind = "delay"
    no_infinite_horizon = "no decay assumption"

    a0: float
    a1: float
    b0: float
    delay: float
    mesh: int
    _fundamentals: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not all(map(math.isfinite, (self.a0, self.a1, self.b0, self.delay))):
            raise ValueError("a0, a1, b0 and delay must be finite numbers")
        if self.a1 == 0.0:
            raise ValueError("a1 = 0 removes the delayed term; use a plain ODE model")
        if self.b0 == 0.0:
            raise ValueError("b0 = 0 leaves the system uncontrolled")
        if self.delay <= 0:
            raise ValueError("delay must be positive")
        if not isinstance(self.mesh, int) or self.mesh < 2 or self.mesh % 2 != 0:
            raise MeshResolutionError("mesh must be an even integer >= 2")

    @property
    def h(self):
        return self.delay / self.mesh

    @property
    def dim(self):
        """Mesh-level state dimension: scalar head plus one average per cell."""
        return self.mesh + 1

    def fingerprint(self):
        payload = struct.pack(
            "<dddd q", self.a0, self.a1, self.b0, self.delay, self.mesh
        )
        return hashlib.sha256(payload).hexdigest()[:16]

    def to_json_dict(self):
        return {"a0": self.a0, "a1": self.a1, "b0": self.b0, "delay": self.delay,
                "mesh": self.mesh}

    def _compute_gramian(self, t):
        return delay_gramian(self, t)

    def semigroup(self, t):
        return delay_semigroup_matrix(self, t)

    def least_norm_control(self, t, x, grid):
        return delay_optimal_control(self, self.gramian(t), x, grid=grid), None

    def value_oracles(self, times):
        return [None] * len(times)


def _require_mesh(sys_, horizon):
    if sys_.h > min(sys_.delay, horizon) / 2.0 + 1e-12:
        raise MeshResolutionError(
            f"mesh step {sys_.h:g} exceeds half the working horizon {horizon:g}"
        )


# Gauss-Legendre rule of a Gramian panel: over one unit of (|a0| + |a1|) time
# 12 nodes integrate the product of two kernels to roundoff.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)


def _moments(a0, sigma, kmax):
    """mu[p, k] = integral over [0, sigma_p] of e^{a0 u} u^k du, k = 0..kmax.

    While |a0 sigma| <= 1, the series sigma^{k+1} sum_n (a0 sigma)^n /
    (n! (n + k + 1)), exact at a0 = 0, reaches roundoff in 20 terms (1/20! <
    2^-53); beyond, where it would cancel, mu_k = (sigma^k e^{a0 sigma} -
    k mu_{k-1}) / a0."""
    sigma = np.asarray(sigma, dtype=float)
    x = a0 * sigma
    k = np.arange(kmax + 1)
    mu = np.empty((sigma.size, kmax + 1))
    small = np.abs(x) <= 1.0
    if small.any():
        term, series = np.ones((np.count_nonzero(small), 1)), 0.0
        for n in range(20):  # term = (a0 sigma)^n / n!
            series = series + term / (n + k + 1)
            term = term * x[small, None] / (n + 1)
        mu[small] = series * sigma[small, None] ** (k + 1)
    if not small.all():
        s, xb = sigma[~small], x[~small]
        e = np.exp(xb)
        mu[~small, 0] = col = np.expm1(xb) / a0
        for j in range(1, kmax + 1):
            mu[~small, j] = col = (s**j * e - j * col) / a0
    return mu


class FundamentalSolution:
    """The fundamental solution g of a delay system and its antiderivatives.

    g solves the uncontrolled equation with g(0) = 1 and zero history.  On
    cell j of the lattice of step h = delay/mesh, in local time
    sigma in [0, h], the pieces y_j(sigma) = g(jh + sigma) solve
    y_j' = a0 y_j + a1 y_{j-M}: a chain whose coupling is nilpotent, so the
    method of steps gives the finite sum

        g(jh + sigma) = e^{a0 sigma} sum_k a1^k s[j - kM] sigma^k / k!,

    with the samples s[i] = g(ih) (zero for i < 0) from the same sum at
    sigma = h.  Every term is small on a cell, so nothing cancels however
    long the horizon.  F (the integral of g from 0) and F2 (that of F) add
    ``_moments`` to their values at the cell starts.  Built on whole delay
    intervals covering ``t_max``: all three are zero below 0, evaluation
    beyond the built range raises, and overflow is a ``NonFiniteError``.  A
    lattice whose work exceeds ``_LATTICE_WORK_CAP`` is a ``StiffnessError``.
    """

    def __init__(self, sys_, t_max):
        a0, a1, M, h = sys_.a0, sys_.a1, sys_.mesh, sys_.h
        K = _delay_intervals(sys_, t_max)
        if M * K * K > _LATTICE_WORK_CAP:  # in floats, so an infinite count is caught too
            raise StiffnessError(
                f"the delay lattice of {M * K:.3g} cells over {K:.3g} delay intervals "
                f"exceeds the work cap {_LATTICE_WORK_CAP:.3g}")
        K = int(K)
        self.a0, self.h, self.M, self.cells, self.end = a0, h, M, K * M, K * sys_.delay
        self.c = np.cumprod(np.concatenate(([1.0], a1 / np.arange(1.0, K))))  # a1^k / k!
        step = self.c * h ** np.arange(K)
        self.s = np.concatenate(([1.0], np.zeros(self.cells)))
        cells = np.arange(self.cells)
        with np.errstate(over="ignore", invalid="ignore"):  # overflow raises below
            E = np.exp(a0 * h)
            for j in cells:
                lags = self.s[j::-M]  # s[j], s[j - M], ... down to the first delay interval
                self.s[j + 1] = E * (step[:lags.size] @ lags)
            mu = _moments(a0, [h], K)[0]
            self.F0 = np.concatenate(([0.0], np.cumsum(self._lagged(cells, mu[:-1]))))
            inner = self.F0[:-1] * h + self._lagged(cells, h * mu[:-1] - mu[1:])
            self.F20 = np.concatenate(([0.0], np.cumsum(inner)))
        if not np.all(np.isfinite([self.s[-1], self.F0[-1], self.F20[-1]])):
            raise NonFiniteError(
                f"the fundamental solution or its integrals overflow before t = {self.end:g}")

    def _lagged(self, j, terms):
        """sum over k of a1^k / k! * s[j - kM] * terms[..., k], s zero before 0."""
        out = np.zeros(np.broadcast_shapes(np.shape(j), terms.shape[:-1]))
        for k in range(self.c.size):
            i = j - k * self.M
            out += self.c[k] * np.where(i >= 0, self.s[np.maximum(i, 0)], 0.0) * terms[..., k]
        return out

    def _pieces(self, j, sigma, order):
        """g, then F and F2 up to ``order``, on cells j at local times sigma
        (broadcast together); one moment series serves both antiderivatives."""
        out = [np.exp(self.a0 * sigma) * self._lagged(j, sigma[:, None] ** np.arange(self.c.size))]
        if order:
            mu = _moments(self.a0, sigma, self.c.size - (order == 1))
            out.append(self.F0[j] + self._lagged(j, mu[:, :self.c.size]))
        if order == 2:
            inner = sigma[:, None] * mu[:, :-1] - mu[:, 1:]
            out.append(self.F20[j] + self.F0[j] * sigma + self._lagged(j, inner))
        return out

    def locate(self, t):
        """Cell and local time of each t in [0, end], as two arrays; the last
        cell holds the end of the built range, at local time h."""
        t = np.asarray(t, dtype=float)
        j = np.clip(np.floor(t / self.h), 0, self.cells - 1).astype(int)
        return j, np.maximum(t, 0.0) - j * self.h

    def _at(self, t, order):
        """g (order 0), F (1) or F2 (2) elementwise; a float at a scalar t."""
        flat = np.asarray(t, dtype=float).ravel()
        beyond = flat > self.end + 1e-12 * max(1.0, self.end)
        if beyond.any():
            raise ValueError(f"evaluation at {flat[np.argmax(beyond)]:g} beyond the "
                             f"built range [0, {self.end:g}]")
        j, sigma = self.locate(flat)  # points below 0 are zeroed below
        vals = np.where(flat < 0.0, 0.0, self._pieces(j, sigma, order)[order])
        return float(vals[0]) if np.ndim(t) == 0 else vals.reshape(np.shape(t))

    def __call__(self, t):
        return self._at(t, 0)

    def F(self, t):
        return self._at(t, 1)

    def F2(self, t):
        return self._at(t, 2)

    def on_cells(self, sigma, order=1):
        """g, then F and F2 up to ``order``, at local time sigma on every cell:
        (cells, len(sigma)) arrays."""
        return self._pieces(np.arange(self.cells)[:, None], np.asarray(sigma, dtype=float), order)


def _delay_intervals(sys_, t_max):
    """Whole delay intervals covering [0, t_max], at least one; a float, so an
    overlong horizon reads as a huge or infinite count instead of overflowing."""
    return max(1.0, float(np.ceil(float(t_max) / sys_.delay - 1e-12)))


def delay_fundamental_solution(sys_, t_max):
    """The fundamental solution covering [0, t_max] (see ``FundamentalSolution``),
    built once per lattice: the system keeps it in ``_fundamentals``, keyed by the
    number of delay intervals, so every horizon within the same whole delay
    interval shares one object."""
    K = _delay_intervals(sys_, t_max)
    fund = sys_._fundamentals.get(K)
    if fund is None:
        fund = sys_._fundamentals[K] = FundamentalSolution(sys_, t_max)
    return fund


def _panel_gram(sys_, fund, lo, hi, first, stop):
    """Gauss-Legendre sum, over local times [lo, hi] of lattice cells
    first..stop-1, of the outer products of the control-to-mesh kernels.

    At elapsed time tau = ih + sigma the head kernel is b0 g(tau) and the
    kernel of mesh cell j is (b0/sqrt(h)) (F(tau + c_j) - F(tau + c_j - h))
    with c_j = (j + 1) h - delay: both F values sit at the same local time,
    on cells i + j + 1 - M and i + j - M.
    """
    M, h, b0 = sys_.mesh, sys_.h, sys_.b0
    half = 0.5 * (hi - lo)
    sigma = lo + half * (1.0 + _GL_NODES)
    g, F = fund.on_cells(sigma)
    dF = np.diff(np.concatenate((np.zeros((M, sigma.size)), F)), axis=0)
    W = (b0 / math.sqrt(h)) * np.lib.stride_tricks.sliding_window_view(dF, M, axis=0)[first:stop]
    K = np.concatenate((b0 * g[first:stop, :, None], W), axis=2).reshape(-1, M + 1)
    return (K * np.tile(half * _GL_WEIGHTS, stop - first)[:, None]).T @ K


def delay_gramian(sys_, t):
    """Reachability Gramian over [0, t] on the mesh.

    Writing F for the antiderivative of g and W(u) = F(u) - F(u - h), the
    control-to-state kernels are b0 g(t - s) for the head component and
    (b0/sqrt(h)) W(t + c_j - s) for cell j.  Every kernel is smooth between
    lattice points, so Gauss-Legendre panels on each lattice cell (the last
    one ending at t) integrate their products to roundoff; a cell gets one
    panel per unit of (|a0| + |a1|) h.
    """
    t = float(t)
    if t <= 0:
        raise ValueError("horizon must be positive")
    _require_mesh(sys_, t)
    M, h = sys_.mesh, sys_.h
    panels = max(1, math.ceil((abs(sys_.a0) + abs(sys_.a1)) * h))
    if panels > 2**14:
        raise StiffnessError(f"the delay Gramian would need {panels:.3g} panels per mesh cell")
    fund = delay_fundamental_solution(sys_, t)
    full = int(t // h)
    spans = [(h, 0, full)]
    if t - full * h > 1e-12 * max(1.0, t):
        spans.append((t - full * h, full, full + 1))
    Q = np.zeros((M + 1, M + 1))
    with np.errstate(over="ignore", invalid="ignore"):  # _wrap rejects what overflows
        for width, first, stop in spans:
            edges = np.linspace(0.0, width, panels + 1)
            for lo, hi in zip(edges[:-1], edges[1:]):
                Q += _panel_gram(sys_, fund, lo, hi, first, stop)
    return _wrap(sys_, Q, t, "quadrature")


def delay_optimal_control(sys_, gram, x, grid=129):
    """The least-norm control u(r) = b0 (g(-r) z_0 + sum_j W(c_j - r) z_j /
    sqrt(h)) on [-t, 0], z = Q_t^+ x: the kernels of ``delay_gramian`` at
    time -r applied to z.  Same contract as the control of
    ``energy.optimal_samples``.

    At tau = -r = ih + sigma, W(tau + c_j) = F(tau + c_j) - F(tau + c_j - h)
    takes F on cells i + j + 1 - M and i + j - M at the local time sigma, so
    one lattice evaluation per sample time gives every kernel, as in
    ``_panel_gram``.  z comes from the projection that ``energy.steer``
    makes (``energy._steering_coefficients``), over exactly the directions
    its value sums over.
    """
    t = gram.horizon
    M = sys_.mesh
    fund = delay_fundamental_solution(sys_, t)
    z = _steering_coefficients(gram, x, grid, "control", fund.cells)
    rs = np.linspace(-t, 0.0, grid)
    i, sigma = fund.locate(-rs)
    g, F = fund.on_cells(sigma)
    dF = np.diff(np.concatenate((np.zeros((M, grid)), F)), axis=0)
    samples = np.arange(grid)
    W = dF[i[:, None] + np.arange(M), samples[:, None]]
    vals = sys_.b0 * (g[i, samples] * z[0] + (W @ z[1:]) / math.sqrt(sys_.h))
    return ControlSignal(rs, vals[:, None])


def delay_semigroup_matrix(sys_, T0):
    """Mesh compression of the uncontrolled flow over time T0.

    Column 0 propagates the head; column 1+j propagates the indicator of
    history cell j via the variation-of-constants formula
    x(t) = g(t) x0 + a1 * integral of g(t - s - delay) x1(s) ds.
    Cells that have not yet been overwritten (T0 + theta < 0) keep their
    initial data, which contributes an exact overlap term.  Every argument
    of g, F and F2 is T0 plus a multiple of h, so all of them come from one
    lattice evaluation at the local time of T0.
    """
    T0 = float(T0)
    if T0 < 0:
        raise ValueError("flow time must be nonnegative")
    M, h, d, a1 = sys_.mesh, sys_.h, sys_.delay, sys_.a1
    fund = delay_fundamental_solution(sys_, T0)
    i, sigma = fund.locate([T0])
    g, F, F2 = fund.on_cells(sigma, order=2)
    # F and F2 at T0 + mh are entry e + m, zero before the start
    e = 2 * M + int(i[0])
    F, F2 = (np.concatenate((np.zeros(2 * M), v[: e - 2 * M + 1, 0])) for v in (F, F2))
    rt_h = math.sqrt(h)
    cells = np.arange(M)

    S = np.zeros((M + 1, M + 1))
    S[0, 0] = g[i[0], 0]
    S[1:, 0] = (F[e + 1 - M : e + 1] - F[e - M : e]) / rt_h  # at T0 + c, T0 + c - h
    S[0, 1:] = (a1 / rt_h) * (F[e - cells] - F[e - 1 - cells])  # at T0 - jh, T0 - (j + 1)h
    # the Duhamel term of cell j in cell k depends on k - j only: at
    # a = T0 - d + (k - j) h its second difference over a + h, a and a - h
    b, a, a_h = F2[e + 2 - 2 * M : e + 1], F2[e + 1 - 2 * M : e], F2[e - 2 * M : e - 1]
    duhamel = (a1 / h) * (b - a - a + a_h)
    k, j = cells[:, None], cells[None, :]
    lo = np.maximum(-d + k * h, -d + j * h - T0)
    hi = np.minimum(np.minimum(-d + (k + 1) * h, -d + (j + 1) * h - T0), -T0)
    S[1:, 1:] = duhamel[k - j + (M - 1)] + np.maximum(0.0, hi - lo) / h
    return S


def delay_domain_residual(sys_, t):
    """Mesh-level check that reachable states satisfy x1(0-) = x0.

    Every column of the Gramian is a reachable state, whose history tail
    must meet the head continuously.  On the mesh the last cell only carries
    an average, so the mismatch |average of last cell - head| decays like
    O(h) under refinement instead of vanishing exactly.
    """
    Q = sys_.gramian(t).matrix
    scale = np.linalg.norm(Q, axis=0)
    live = scale > 1e-300
    gaps = np.abs(Q[0] - Q[-1] / math.sqrt(sys_.h))[live] / scale[live]
    return float(gaps.max(initial=0.0))
