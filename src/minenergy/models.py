"""Benchmark model families.

Three infinite-dimensional control systems reduced to finite computations
without discretization error in the dynamics:

* diagonal ("spectral") systems — everything is per-mode and closed form;
* a scalar delay equation — the fundamental solution is built by the method
  of steps inside an exponential-polynomial algebra, so Gramian entries and
  cell averages are exact integrals; the only approximation anywhere is the
  projection of the history segment onto a uniform mesh;
* a nilpotent shift with a short control window — reachability defects are
  computed from an exactly assembled cell/interval overlap matrix.
"""

import functools
import hashlib
import math
import re
import struct
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import Polynomial

from .errors import MeshResolutionError, PreconditionError, ScenarioError
from .exppoly import ExpPoly, PiecewiseExpPoly
from .gramians import Gramian
from .linalg import DEFAULT_POLICY, SymmetricPSD, range_inclusion
from .energy import NullControllability
from .systems import LinearSystem

__all__ = [
    "SpectralSystem",
    "SpectralNCReport",
    "SpectralClassification",
    "spectral_gramian",
    "spectral_null_controllability",
    "spectral_space_h_classification",
    "landau_ginzburg",
    "power_law",
    "thin_control_example",
    "DelaySystem",
    "DelayKernels",
    "delay_kernels",
    "delay_fundamental_solution",
    "delay_gramian",
    "delay_semigroup_matrix",
    "delay_null_controllability",
    "delay_domain_residual",
    "ShiftSystem",
    "ShiftDefectReport",
    "shift_control_map",
    "shift_benchmark_target",
    "shift_reachable_defect",
    "parse_model",
]


# ---------------------------------------------------------------------------
# diagonal systems
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpectralSystem:
    """Diagonal dynamics: mode n decays at rate lambda_n, control weight b_n.

    Models the stable self-adjoint case where A = -diag(lambda) and
    B B^* = diag(b) in the eigenbasis.  All Gramian quantities reduce to
    scalar formulas per mode, which makes this family the reference point
    for validating the generic matrix pipelines.
    """

    lambdas: np.ndarray
    bs: np.ndarray

    def __post_init__(self):
        lam = np.atleast_1d(np.asarray(self.lambdas, dtype=float))
        b = np.atleast_1d(np.asarray(self.bs, dtype=float))
        if lam.ndim != 1 or b.shape != lam.shape:
            raise ValueError("lambdas and bs must be 1-d arrays of equal length")
        if np.any(lam <= 0):
            raise ValueError("decay rates must be strictly positive")
        if np.any(np.diff(lam) <= 0):
            raise ValueError("decay rates must be strictly increasing")
        if np.any(b < 0):
            raise ValueError("control weights must be nonnegative")
        lam.flags.writeable = False
        b.flags.writeable = False
        object.__setattr__(self, "lambdas", lam)
        object.__setattr__(self, "bs", b)

    @property
    def n(self):
        return self.lambdas.size

    def to_linear_system(self):
        return LinearSystem(np.diag(-self.lambdas), np.diag(np.sqrt(self.bs)))

    def fingerprint(self):
        return self.to_linear_system().fingerprint()


def spectral_gramian(ssys, t, policy=DEFAULT_POLICY):
    """Reachability Gramian of a diagonal system, in closed form.

    Finite horizon: q_n = b_n (1 - e^{-2 lambda_n t}) / (2 lambda_n);
    infinite horizon drops the exponential.
    """
    lam, b = ssys.lambdas, ssys.bs
    if t == math.inf:
        q = b / (2.0 * lam)
    else:
        t = float(t)
        if t <= 0:
            raise ValueError("horizon must be positive")
        q = b * (-np.expm1(-2.0 * lam * t)) / (2.0 * lam)
    return Gramian(
        Q=SymmetricPSD(np.diag(q), policy=policy),
        horizon=t,
        method="closed_form",
        system_fingerprint=ssys.fingerprint(),
    )


@dataclass(frozen=True)
class SpectralNCReport:
    """Per-mode steering-cost ratios for the flow-into-range test.

    ``log_ratios[n]`` is log( 2 lambda_n e^{-2 lambda_n T0}
    / (b_n (1 - e^{-2 lambda_n T0})) ), the squared cost of steering the
    n-th eigendirection back to zero over [0, T0].  The flow lands inside
    the reachable range with a uniform constant exactly when these ratios
    stay bounded along the tail; on a truncation we certify that by every
    mode being controlled and the tail being non-increasing.
    """

    satisfied: bool
    constant: float
    log_ratios: np.ndarray
    all_controlled: bool
    tail_nonincreasing: bool


def spectral_null_controllability(ssys, T0):
    lam, b = ssys.lambdas, ssys.bs
    T0 = float(T0)
    if T0 <= 0:
        raise ValueError("horizon must be positive")
    with np.errstate(divide="ignore"):
        log_b = np.log(b)
    # log of 2 lam e^{-2 lam T0} / (b (1 - e^{-2 lam T0})), stable for large lam*T0
    log_ratios = (
        np.log(2.0 * lam) - 2.0 * lam * T0 - log_b - np.log1p(-np.exp(-2.0 * lam * T0))
    )
    all_controlled = bool(np.all(b > 0))
    k = min(max(2, lam.size // 4), lam.size)
    tail = log_ratios[-k:]
    if not np.all(np.isfinite(tail)):
        # an uncontrolled mode in the tail window: cost ratio is infinite
        tail_nonincreasing = False
    else:
        slack = 1e-9 * max(1.0, float(np.max(np.abs(tail))))
        diffs = np.diff(tail)
        tail_nonincreasing = bool(diffs.size == 0 or np.all(diffs <= slack))
    satisfied = all_controlled and tail_nonincreasing
    with np.errstate(over="ignore"):
        constant = float(np.exp(np.max(log_ratios)))
    return SpectralNCReport(
        satisfied=satisfied,
        constant=constant,
        log_ratios=log_ratios,
        all_controlled=all_controlled,
        tail_nonincreasing=tail_nonincreasing,
    )


@dataclass(frozen=True)
class SpectralClassification:
    """Identification of the reachable-energy space in smoothness terms.

    For b_n = lambda_n^alpha the infinite-horizon Gramian weights scale like
    lambda^{alpha-1}, so the range of Q is the fractional domain D(A^{1-alpha})
    and the range of Q^{1/2} is D(A^{(1-alpha)/2}).
    """

    pattern: str  # "finite-support" | "power-law" | "irregular"
    alpha: float | None
    s_range_full: float | None
    s_range_sqrt: float | None
    support_dim: int
    substantially_finite_dimensional: bool
    description_full: str
    description_sqrt: str


def _fmt_power(s):
    return f"D(A^{s:g})"


def spectral_space_h_classification(ssys):
    lam, b = ssys.lambdas, ssys.bs
    support = int(np.count_nonzero(b > 0))
    if support < lam.size:
        return SpectralClassification(
            pattern="finite-support",
            alpha=None,
            s_range_full=None,
            s_range_sqrt=None,
            support_dim=support,
            substantially_finite_dimensional=True,
            description_full=f"span of {support} controlled modes",
            description_sqrt=f"span of {support} controlled modes",
        )
    x = np.log(lam)
    y = np.log(b)
    if np.ptp(x) == 0:
        alpha, resid = 0.0, float(np.max(np.abs(y - y[0])))
    else:
        coef = np.polyfit(x, y, 1)
        alpha = float(coef[0])
        resid = float(np.max(np.abs(y - np.polyval(coef, x))))
    if resid > 1e-9 * max(1.0, float(np.max(np.abs(y)))):
        return SpectralClassification(
            pattern="irregular",
            alpha=None,
            s_range_full=None,
            s_range_sqrt=None,
            support_dim=support,
            substantially_finite_dimensional=False,
            description_full="no power-law scaling detected",
            description_sqrt="no power-law scaling detected",
        )
    s_full = 1.0 - alpha
    s_half = 0.5 * (1.0 - alpha)
    return SpectralClassification(
        pattern="power-law",
        alpha=alpha,
        s_range_full=s_full,
        s_range_sqrt=s_half,
        support_dim=support,
        substantially_finite_dimensional=False,
        description_full=_fmt_power(s_full),
        description_sqrt=_fmt_power(s_half),
    )


def landau_ginzburg(n_modes=32):
    """Quadratic spectrum lambda_n = n^2 with unit control weights.

    The classic second-derivative-with-clamped-ends picture; the reachable
    energy space comes out as D(A^{1/2}).
    """
    n = np.arange(1, n_modes + 1, dtype=float)
    return SpectralSystem(lambdas=n**2, bs=np.ones_like(n))


def power_law(alpha, n_modes=32):
    """Quadratic spectrum with control weights b_n = lambda_n^alpha."""
    n = np.arange(1, n_modes + 1, dtype=float)
    lam = n**2
    return SpectralSystem(lambdas=lam, bs=lam ** float(alpha))


def thin_control_example(n_modes=16):
    """Control weights decaying doubly exponentially: steering cost ratios
    grow without bound, so the flow does not stay in the reachable range
    with a uniform constant.  The far tail underflows to exact zero in
    double precision, which the finite truncation reports as uncontrolled
    modes — both routes reach the same verdict."""
    n = np.arange(1, n_modes + 1, dtype=float)
    with np.errstate(under="ignore"):
        b = np.exp(-np.exp(n))
    return SpectralSystem(lambdas=n, bs=b)


# ---------------------------------------------------------------------------
# scalar delay equation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DelaySystem:
    """x'(t) = a0 x(t) + a1 x(t - delay) + b0 u(t).

    The state is the pair (x(t), x(t + .) on [-delay, 0]).  The history
    segment is represented by cell averages on a uniform mesh of ``mesh``
    cells; that projection is the single approximation in the pipeline.
    """

    a0: float
    a1: float
    b0: float
    delay: float
    mesh: int

    def __post_init__(self):
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


def _require_mesh(sys_, horizon):
    if sys_.h > min(sys_.delay, horizon) / 2.0 + 1e-12:
        raise MeshResolutionError(
            f"mesh step {sys_.h:g} exceeds half the working horizon {horizon:g}"
        )


# Kernel sets of the systems used most recently; a scenario needs one per
# distinct segment count (a handful), so a small bound keeps every repeat
# horizon a hit while memory stays flat across many systems.
KERNEL_CACHE_SIZE = 8


def _method_of_steps(sys_, n_seg):
    """The fundamental solution on n_seg delay intervals (see
    ``delay_fundamental_solution``)."""
    d, a0, a1 = sys_.delay, sys_.a0, sys_.a1
    c_step = a1 * math.exp(-a0 * d)
    P = Polynomial([1.0])
    polys = [P]
    for k in range(1, n_seg):
        shifted = P(Polynomial([-d, 1.0]))
        Q = shifted.integ()
        P = Polynomial([polys[-1](k * d)]) + (Q - Polynomial([Q(k * d)])) * c_step
        polys.append(P)
    breaks = np.arange(n_seg + 1, dtype=float) * d
    pieces = [ExpPoly(a0, {1: p}) for p in polys]
    return PiecewiseExpPoly(breaks, pieces, rate=a0)


class DelayKernels:
    """Horizon-independent exponential polynomials of one delay system.

    Built on ``n_seg`` delay intervals.  ``g`` is the fundamental solution,
    ``F`` its antiderivative and ``W(u) = F(u) - F(u - h)`` the cell kernel;
    the Gramian needs the antiderivatives of g², of g·W(· + c_j) for each
    cell offset c_j (``heads``) and of W·W(· + m h) for each lag m
    (``lags``); the semigroup needs ``F2``, the antiderivative of F.  Every
    kernel beyond g is built on first use, so a segment count used only by
    the semigroup never builds the Gramian kernels.
    """

    def __init__(self, sys_, n_seg):
        self.system = sys_
        self.g = _method_of_steps(sys_, n_seg)
        # cell offsets c_j = (j+1) h - delay used throughout the mesh formulas
        self.c = np.arange(1, sys_.mesh + 1, dtype=float) * sys_.h - sys_.delay

    @functools.cached_property
    def F(self):
        return self.g.antiderivative()

    @functools.cached_property
    def F2(self):
        return self.F.antiderivative()

    @functools.cached_property
    def W(self):
        return self.F - self.F.shift(-self.system.h)

    @functools.cached_property
    def g_sq(self):
        return (self.g * self.g).antiderivative()

    @functools.cached_property
    def heads(self):
        return [(self.g * self.W.shift(cj)).antiderivative() for cj in self.c]

    @functools.cached_property
    def lags(self):
        h = self.system.h
        return [(self.W * self.W.shift(m * h)).antiderivative()
                for m in range(self.system.mesh)]


@functools.lru_cache(maxsize=KERNEL_CACHE_SIZE)
def _cached_kernels(sys_, n_seg):
    return DelayKernels(sys_, n_seg)


def delay_kernels(sys_, t_max):
    """The system's kernels on enough delay intervals to cover [0, t_max].

    Kept in a least-recently-used cache of ``KERNEL_CACHE_SIZE`` entries,
    keyed by the system (its fields, which also make its fingerprint) and
    the segment count, so every horizon in the same delay interval shares
    one set.
    """
    n_seg = max(1, int(math.ceil(float(t_max) / sys_.delay - 1e-12)))
    return _cached_kernels(sys_, n_seg)


def delay_fundamental_solution(sys_, t_max):
    """Fundamental solution g on [0, K*delay] covering t_max, exactly.

    g solves the uncontrolled equation with g(0) = 1 and zero history.
    On the k-th delay interval g(t) = e^{a0 t} P_k(t) with a polynomial
    P_k obtained by integrating the shifted previous segment:
    P_k' (t) = a1 e^{-a0 d} P_{k-1}(t - d),  P_k(k d) = P_{k-1}(k d).
    """
    return delay_kernels(sys_, t_max).g


def delay_gramian(sys_, t, policy=DEFAULT_POLICY):
    """Reachability Gramian over [0, t] on the mesh, with exact entries.

    Writing F for the antiderivative of g and W(u) = F(u) - F(u - h), the
    control-to-state kernels are b0 g(t - s) for the head component and
    (b0/sqrt(h)) W(t + c_j - s) for cell j.  All pairwise L^2 products are
    integrals of exponential polynomials and are evaluated in closed form:
    entries at lag m are differences of one antiderivative, so the whole
    matrix takes ``mesh`` array evaluations plus the head row.
    """
    t = float(t)
    if t <= 0:
        raise ValueError("horizon must be positive")
    _require_mesh(sys_, t)
    M, h, b0 = sys_.mesh, sys_.h, sys_.b0
    kern = delay_kernels(sys_, t + h)
    c = kern.c

    Q = np.zeros((M + 1, M + 1))
    Q[0, 0] = b0**2 * (kern.g_sq(t) - kern.g_sq(0.0))
    head = np.array([H(t) - H(0.0) for H in kern.heads])
    Q[0, 1:] = (b0**2 / math.sqrt(h)) * head
    Q[1:, 0] = Q[0, 1:]
    for m, Pi in enumerate(kern.lags):
        cj = c[: M - m]
        vals = Pi(np.concatenate([t + cj, cj]))
        rows = np.arange(1, M - m + 1)
        Q[rows, rows + m] = (b0**2 / h) * (vals[: M - m] - vals[M - m:])
        Q[rows + m, rows] = Q[rows, rows + m]
    Q = 0.5 * (Q + Q.T)
    return Gramian(
        Q=SymmetricPSD(Q, policy=policy),
        horizon=t,
        method="closed_form",
        system_fingerprint=sys_.fingerprint(),
    )


def delay_semigroup_matrix(sys_, T0):
    """Mesh compression of the uncontrolled flow over time T0.

    Column 0 propagates the head; column 1+j propagates the indicator of
    history cell j via the variation-of-constants formula
    x(t) = g(t) x0 + a1 * integral of g(t - s - delay) x1(s) ds.
    Cells that have not yet been overwritten (T0 + theta < 0) keep their
    initial data, which contributes an exact overlap term.
    """
    T0 = float(T0)
    if T0 < 0:
        raise ValueError("flow time must be nonnegative")
    M, h, d, a1 = sys_.mesh, sys_.h, sys_.delay, sys_.a1
    kern = delay_kernels(sys_, T0 + h + d)
    F, F2, c = kern.F, kern.F2, kern.c
    rt_h = math.sqrt(h)
    cells = np.arange(M)

    S = np.zeros((M + 1, M + 1))
    S[0, 0] = kern.g(T0)
    S[1:, 0] = (F(T0 + c) - F(T0 + c - h)) / rt_h
    S[0, 1:] = (a1 / rt_h) * (F(T0 - cells * h) - F(T0 - (cells + 1) * h))
    # the Duhamel term of cell j in cell k depends on k - j only
    lag = np.arange(-(M - 1), M)
    a = T0 - d + lag * h
    b = a + h
    duhamel = (a1 / h) * (F2(b) - F2(a) - F2(b - h) + F2(a - h))
    k, j = cells[:, None], cells[None, :]
    lo = np.maximum(-d + k * h, -d + j * h - T0)
    hi = np.minimum(np.minimum(-d + (k + 1) * h, -d + (j + 1) * h - T0), -T0)
    S[1:, 1:] = duhamel[k - j + (M - 1)] + np.maximum(0.0, hi - lo) / h
    return S


def delay_null_controllability(sys_, T0, policy=DEFAULT_POLICY):
    """Does the flow over [0, T0] land inside the reachable range?

    Satisfied once T0 exceeds the delay (every part of the state has been
    overwritten by controlled dynamics); fails for T0 below the delay, where
    untouched history cells survive.  The reported constant is the squared
    norm bound of the steering map and grows as T0 decreases toward the
    delay.
    """
    T0 = float(T0)
    if T0 <= 0:
        raise ValueError("horizon must be positive")
    _require_mesh(sys_, T0)
    S = delay_semigroup_matrix(sys_, T0)
    gram = delay_gramian(sys_, T0, policy=policy)
    inc = range_inclusion(S, gram.Q.sqrt().matrix, policy=policy)
    return NullControllability(
        satisfied=inc.included, constant=inc.constant**2, defect=inc.defect
    )


def delay_domain_residual(sys_, t, policy=DEFAULT_POLICY):
    """Mesh-level check that reachable states satisfy x1(0-) = x0.

    Every column of the Gramian is a reachable state, whose history tail
    must meet the head continuously.  On the mesh the last cell only carries
    an average, so the mismatch |average of last cell - head| decays like
    O(h) under refinement instead of vanishing exactly.
    """
    gram = delay_gramian(sys_, t, policy=policy)
    Q = gram.matrix
    rt_h = math.sqrt(sys_.h)
    worst = 0.0
    for col in Q.T:
        scale = float(np.linalg.norm(col))
        if scale <= 1e-300:
            continue
        worst = max(worst, abs(col[0] - col[-1] / rt_h) / scale)
    return worst


# ---------------------------------------------------------------------------
# nilpotent shift with a short control window
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShiftSystem:
    """Right shift on the unit interval, control acting on [0, 1/4].

    The semigroup transports mass to the right and annihilates it at 1, so
    there is no infinite-horizon Gramian; reachability is horizon-limited
    in an essential way.  ``m`` cells discretize the interval; m must be a
    multiple of 4 so the control window edge is lattice-aligned, which makes
    the overlap integrals below exact (the integrand is piecewise linear
    between lattice points).
    """

    m: int

    def __post_init__(self):
        if not isinstance(self.m, int) or self.m < 4 or self.m % 4 != 0:
            raise MeshResolutionError("m must be a multiple of 4, at least 4")

    @property
    def h(self):
        return 1.0 / self.m

    def fingerprint(self):
        return hashlib.sha256(struct.pack("<q", self.m)).hexdigest()[:16]


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


def shift_benchmark_target(m):
    """Cell-center samples of f(s) = min(s, 1/4): a ramp that saturates."""
    centers = (np.arange(m, dtype=float) + 0.5) / m
    return np.minimum(centers, 0.25)


@dataclass(frozen=True)
class ShiftDefectReport:
    """Reachability defect of one target, from one SVD of the control map.

    ``coefficients`` is the least-norm control (lattice coefficients v with
    L v the projection of the scaled target onto the kept range of L), cut
    at the same ``RankPolicy`` threshold as ``rank``.
    """

    defect: float
    horizon: float
    m: int
    rank: int
    coefficients: np.ndarray = field(repr=False, compare=False)


def shift_reachable_defect(sys_, t, target=None, policy=DEFAULT_POLICY):
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
    keep = s > policy.cutoff(s[0]) if s.size else np.zeros(0, dtype=bool)
    Ur = U[:, keep]
    proj = Ur.T @ f_hat
    resid = f_hat - Ur @ proj
    return ShiftDefectReport(
        defect=float(np.linalg.norm(resid)),
        horizon=float(t),
        m=sys_.m,
        rank=int(np.count_nonzero(keep)),
        coefficients=Vt[keep].T @ (proj / s[keep]),
    )


# ---------------------------------------------------------------------------
# preset parsing
# ---------------------------------------------------------------------------

_SPECTRAL_RE = re.compile(r"^spectral:([a-z\-]+)(?:\(([^)]*)\))?$")
_DELAY_RE = re.compile(r"^delay\(([^)]*)\)$")
_SHIFT_RE = re.compile(r"^shift\((\d+)\)$")


def parse_model(text, mesh=32):
    """Parse a preset string into a model object.

    Recognized forms:
      spectral:landau-ginzburg          quadratic spectrum, unit weights
      spectral:power-law(alpha)         weights b_n = lambda_n^alpha
      spectral:thin-control             doubly-exponentially thin weights
      delay(a0, a1, b0, d)              scalar delay equation, mesh cells
      shift(m)                          nilpotent shift on m cells
    """
    text = text.strip()
    m = _SPECTRAL_RE.match(text)
    if m:
        name, arg = m.group(1), m.group(2)
        if name == "landau-ginzburg":
            return landau_ginzburg(int(arg) if arg else 32)
        if name == "power-law":
            if arg is None:
                raise ScenarioError(
                    "power-law preset needs an exponent, e.g. power-law(0.5)"
                )
            parts = [p.strip() for p in arg.split(",")]
            alpha = float(parts[0])
            n_modes = int(parts[1]) if len(parts) > 1 else 32
            return power_law(alpha, n_modes)
        if name == "thin-control":
            return thin_control_example(int(arg) if arg else 16)
        raise ScenarioError(f"unknown spectral preset {name!r}")
    m = _DELAY_RE.match(text)
    if m:
        parts = [float(p) for p in m.group(1).split(",")]
        if len(parts) != 4:
            raise ScenarioError("delay preset needs four numbers: a0, a1, b0, d")
        return DelaySystem(a0=parts[0], a1=parts[1], b0=parts[2], delay=parts[3], mesh=mesh)
    m = _SHIFT_RE.match(text)
    if m:
        return ShiftSystem(m=int(m.group(1)))
    raise ScenarioError(f"unrecognized model preset {text!r}")
