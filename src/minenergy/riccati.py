"""Quadratic operator families and their verification.

The central family is the Gramian ratio P(t) = Q_inf Q_t^+, viewed as an
operator on the Gramian-weighted space H.  In that geometry it solves a
quadratic differential equation whose linear part carries a reversed sign
relative to the classical control Riccati equation, with the inverse family
R(t) = Q_t^+ solving the same equation in the plain space X.  The two
equations differ only in the metric W of the pairing (Q_inf^+ on H, the
identity on X), so each candidate carries its geometry (``HGeometry`` or
``EuclideanGeometry``) and one residual, ``riccati_residual``, checks either.
Verification pairs both sides against probe vectors (the weak form), since
the equations only hold tested against smooth directions.  The time
derivative is the family's own exact one wherever it has one: every family
built here from Gramians (through Q_t' = e^{tA} BB^T e^{tA^T}) or from the
exponential formula supplies it.  Only an opaque family, a bare function of
t, is differentiated by Richardson-extrapolated central differences.

In the commuting selfadjoint case the same equation admits the explicit
solutions (I - e^{tA} K e^{tA})^{-1}, defined past the first time the
bracket becomes invertible; this module detects that threshold, recovers K
(in shifted form) from a single snapshot, and checks when compressions by a
projection remain solutions.
"""

from dataclasses import dataclass, replace

import math

import numpy as np

from .errors import MarginError, NonFiniteError, PreconditionError, UnstableSystemError
from .gramians import compute_gramian, gramian_rate
from .linalg import _gaussian_coefficients, commutes, expm
from .energy import EuclideanGeometry, HGeometry, null_controllability_test

__all__ = [
    "RiccatiCandidate",
    "ResidualReport",
    "build_pv",
    "pv_candidate",
    "inverse_candidate",
    "commuting_candidate",
    "residual_probes",
    "riccati_pairings",
    "riccati_residual",
    "riccati_residual_commuting",
    "uniqueness_reconstruction",
    "UniquenessReport",
    "detect_t1",
    "commuting_family",
    "CommutingSolution",
    "recover_L",
    "RecoverLReport",
    "projected_solution_check",
    "ProjectionReport",
    "lyapunov_residual",
    "LyapunovReport",
]

FD_STEP_FACTOR = 1e-4


class RiccatiCandidate:
    """A time-indexed operator family to be tested against the quadratic equations.

    ``fn`` maps a positive time to an (n, n) matrix acting on state
    coordinates; ``geometry`` (``HGeometry`` or ``EuclideanGeometry``) fixes
    the inner product the family is measured in, and with it the equation
    ``riccati_residual`` checks.  ``derivative``, when given, maps a positive
    time to the family's exact time derivative there; without one the family
    is opaque, and ``derivative(t)`` is a Richardson difference of ``fn``.
    ``derivative_kind`` says which: ``"exact"`` or ``"richardson"``.
    Evaluations of both are memoized (the checks of one run share times).
    """

    def __init__(self, sys, geometry, fn, derivative=None):
        self.sys = sys
        self.geometry = geometry
        self._fn = fn
        self._derivative = derivative
        self.derivative_kind = "richardson" if derivative is None else "exact"
        self._memo = {}
        self._rates = {}

    def evaluate(self, t):
        t = float(t)
        hit = self._memo.get(t)
        if hit is None:
            hit = np.asarray(self._fn(t), dtype=float)
            self._memo[t] = hit
        return hit

    def derivative(self, t):
        """The family's time derivative at t: exact when the candidate has
        one, else ``_richardson`` on ``evaluate``."""
        t = float(t)
        hit = self._rates.get(t)
        if hit is None:
            if self._derivative is None:
                hit = _richardson(self.evaluate, t)
            else:
                hit = np.asarray(self._derivative(t), dtype=float)
            self._rates[t] = hit
        return hit

    def h_norm_of(self, t):
        """Operator norm of the family member in the candidate's geometry."""
        return self.geometry.operator_norm(self.evaluate(t))


def _default_geometry(sys):
    """The system's one ``HGeometry``, on its memoised Q_inf, built on first use."""
    if sys._h_geometry is None:
        sys._h_geometry = HGeometry(compute_gramian(sys, np.inf))
    return sys._h_geometry


def _inverse_rate(sys, t):
    """d/dt Q_t^+ = -Q_t^+ Q_t' Q_t^+: range(Q_t), the reachable subspace,
    is the same at every t > 0, and Q_t' maps into it."""
    R = compute_gramian(sys, t).Q.pinv()
    return -R @ gramian_rate(sys, t) @ R


def build_pv(sys, t):
    """The Gramian-ratio operator Q_inf Q_t^+ at a single time.

    Defined for stable systems; outside the commuting selfadjoint case the
    horizon must already make the system null controllable (the range test
    is run and failure raises PreconditionError), which is what keeps the
    ratio bounded in the weighted geometry.
    """
    if not sys.stable:
        raise UnstableSystemError("the Gramian-ratio family needs a stable system")
    t = float(t)
    if t <= 0.0:
        raise ValueError(f"time must be positive, got {t}")
    # null controllability at s holds at every t >= s (Q_t >= e^{(t-s)A} Q_s
    # e^{(t-s)A^T}), so the test runs only below the least horizon it passed at
    if not sys.is_commuting_selfadjoint() and t < sys._null_controllable_from:
        nc = null_controllability_test(sys, t)
        if not nc.satisfied:
            raise PreconditionError(
                f"system is not null controllable at horizon {t:g} "
                f"(range defect {nc.defect:.3e}); the ratio family is unbounded there"
            )
        sys._null_controllable_from = t
    Q_inf = compute_gramian(sys, np.inf).matrix
    return Q_inf @ compute_gramian(sys, t).Q.pinv()


def pv_candidate(sys):
    """Candidate wrapping the Gramian-ratio family (``build_pv``), measured in
    the system's one geometry of Q_inf.  Its Gramians are the system's
    memoised ones, and its exact derivative is
    P' = -Q_inf Q_t^+ Q_t' Q_t^+ with Q_t' = e^{tA} BB^T e^{tA^T}."""
    return RiccatiCandidate(sys, _default_geometry(sys), lambda t: build_pv(sys, t),
                            lambda t: compute_gramian(sys, np.inf).matrix @ _inverse_rate(sys, t))


def inverse_candidate(sys):
    """Candidate wrapping the inverse-Gramian family R(t) = Q_t^+ in the plain
    geometry, on the system's memoised Gramians, with the exact derivative
    R' = -Q_t^+ Q_t' Q_t^+.  Needs no stability: only finite-horizon Gramians
    enter."""
    return RiccatiCandidate(sys, EuclideanGeometry(sys.n),
                            lambda t: compute_gramian(sys, t).Q.pinv(),
                            lambda t: _inverse_rate(sys, t))


def _probes(geometry, U, n_random, seed, P=None):
    """The columns of U plus ``n_random`` seeded random combinations of them,
    mapped by P when given (dropping those it sends to zero), normalized in
    the geometry; one probe per row."""
    Y = np.hstack([U, U @ _gaussian_coefficients(seed, U.shape[1], n_random)])
    if P is not None:
        Y = P @ Y
        Y = Y[:, np.linalg.norm(Y, axis=0) > 1e-12]
    return geometry.normalize(Y).T


def residual_probes(cand, t, n_random=10, seed=0):
    """Probe vectors for weak-form residuals at time t.

    An orthonormal basis of range(Q_t) plus ``n_random`` seeded random
    vectors inside it, normalized in the candidate's geometry.  They are
    made once per geometry, time, count and seed, and kept on the system.
    """
    memo = cand.sys._probes.setdefault(cand.geometry, {})
    key = (float(t), n_random, seed)
    X = memo.get(key)
    if X is None:
        U = compute_gramian(cand.sys, t).Q.range_basis()
        if U.shape[1] == 0:
            raise PreconditionError(
                f"range(Q_t) is trivial at t = {t:g}: there is nothing to probe")
        X = memo[key] = _probes(cand.geometry, U, n_random, seed)
        X.setflags(write=False)
    return X


@dataclass(frozen=True)
class ResidualReport:
    """Max weak-form residual per time, with the scale-aware pass threshold
    and the kind of time derivative the left side took: the family's own
    ``"exact"`` one, or ``"richardson"`` differences of an opaque family."""

    kind: str
    times: tuple
    residuals: tuple           # max |lhs - rhs| over probe pairs, per time
    tol: float                 # requested base tolerance
    tol_scaled: float          # tol * max(1,||P||)^2 * max(1,||A||), worst over times
    derivative: str            # the family's "exact" derivative, or "richardson" differences
    n_probes: int
    passed: bool
    consistency: float = np.nan  # commuting-vs-general right-hand-side agreement


def _richardson(f, t):
    """Richardson-extrapolated central difference of f at t > 0, with step
    h = ``FD_STEP_FACTOR * t`` relative to t, so that every time f is
    evaluated at stays within a factor 1 -+ ``FD_STEP_FACTOR`` of t and a
    family that varies on the scale of t near 0 is resolved."""
    h = FD_STEP_FACTOR * t
    d1 = (f(t + h) - f(t - h)) / (2.0 * h)
    d2 = (f(t + 0.5 * h) - f(t - 0.5 * h)) / h
    return (4.0 * d2 - d1) / 3.0


def _scale(cand, t):
    return max(1.0, cand.h_norm_of(t)) ** 2 * max(1.0, np.linalg.norm(cand.sys.A, 2))


def _as_times(t):
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(ts <= 0.0):
        raise ValueError("times must be positive")
    return ts


def riccati_pairings(cand, t, probes=None, seed=0):
    """Both sides of the candidate's equation, paired against probes at time t.

    Returns ``(X, lhs, rhs)``: the probes (rows) and the matrices
    ``lhs[i, j] = <P'(t) x_i, x_j>_W``, with P' the candidate's ``derivative``
    (exact, or Richardson differences for an opaque family), and
    ``rhs[i, j] = - <A x_i, W P x_j> - <W P x_i, A x_j> - <B^T W P x_i, B^T W P x_j>``,
    with W the metric of the candidate's geometry.
    """
    X = residual_probes(cand, t, seed=seed) if probes is None else np.asarray(probes)
    W = cand.geometry.metric
    WP_X = W @ (cand.evaluate(t) @ X.T)          # columns: W P x_i
    lhs = (X @ (W @ (cand.derivative(t) @ X.T))).T
    AX = cand.sys.A @ X.T
    BtWP = cand.sys.B.T @ WP_X
    rhs = -(AX.T @ WP_X) - (WP_X.T @ AX) - (BtWP.T @ BtWP)
    return X, lhs, rhs


def _residual_report(equation, cand, t, sides, tol):
    """Max |lhs - rhs| per time over the probe pairings ``sides(tau)``
    returns as ``(probes, lhs, rhs)``, against the scale-aware threshold."""
    times = _as_times(t)
    residuals = []
    worst_scale = 0.0
    n_probes = 0
    for tau in times:
        X, lhs, rhs = sides(tau)
        n_probes = X.shape[0]
        residuals.append(float(np.abs(lhs - rhs).max()))
        worst_scale = max(worst_scale, _scale(cand, tau))
    tol_scaled = tol * worst_scale
    return ResidualReport(
        kind=equation,
        times=tuple(float(x) for x in times),
        residuals=tuple(residuals),
        tol=tol,
        tol_scaled=float(tol_scaled),
        derivative=cand.derivative_kind,
        n_probes=n_probes,
        passed=bool(max(residuals) <= tol_scaled),
    )


def riccati_residual(cand, t, probes=None, tol=1e-6, seed=0):
    """Weak-form residual of the reversed-sign equation in the candidate's geometry:

        d/dt <P x, y>_W  =  - <A x, W P y>  -  <W P x, A y>  -  <B^T W P x, B^T W P y>

    with W the metric: the pseudoinverse of the limit Gramian for
    ``HGeometry`` (the weighted equation, which the Gramian ratio solves),
    the identity for ``EuclideanGeometry`` (the plain equation, which the
    inverse Gramian solves).  The report's ``kind`` is the geometry's
    ``equation``.  Probes default to a basis of range(Q_t) plus seeded random
    vectors, normalized in the geometry.  The left side is the candidate's
    ``derivative``, and the report's ``derivative`` names its kind.  The
    pass threshold is
    ``tol * max(1, ||P||)^2 * max(1, ||A||)``, the norm of P taken in the
    geometry.
    """
    return _residual_report(
        cand.geometry.equation, cand, t,
        lambda tau: riccati_pairings(cand, tau, probes, seed), tol,
    )


def riccati_residual_commuting(cand, t, probes=None, tol=1e-6, seed=0):
    """Weak-form residual of the commuting-case equation (all pairings weighted):

        d/dt <P x, y>_H = - <A x, P y>_H - <P x, A y>_H + 2 <A P x, P y>_H

    Also reports how far this right-hand side is from the general weighted
    one on the same probes (``consistency``): in the commuting case
    2 A y = - B B^T W y on the space, so the two must agree.  A candidate
    in the plain geometry raises PreconditionError.
    """
    if not cand.sys.is_commuting_selfadjoint():
        raise PreconditionError("commuting-case residual requires symmetric A commuting with B B^T")
    if not isinstance(cand.geometry, HGeometry):
        raise PreconditionError("the commuting-case equation is posed in the weighted geometry")
    A = cand.sys.A
    W = cand.geometry.metric
    gaps = []

    def sides(tau):
        # the general weighted right-hand side on the same probes comes along
        X, lhs, rhs_general = riccati_pairings(cand, tau, probes, seed)
        PX = cand.evaluate(tau) @ X.T
        AX = A @ X.T
        APX = A @ PX
        rhs = -(AX.T @ (W @ PX)) - (PX.T @ (W @ AX)) + 2.0 * (APX.T @ (W @ PX))
        gaps.append(float(np.abs(rhs - rhs_general).max()))
        return X, lhs, rhs

    report = _residual_report("commuting", cand, t, sides, tol)
    return replace(report, consistency=max(gaps))


@dataclass(frozen=True)
class UniquenessReport:
    """Snapshot-matching reconstruction: does S(t)^{-1} Q_inf reproduce Q_t?"""

    t0: float
    match_at_t0: float         # relative gap between S(t0) and the ratio family there
    times: tuple
    reconstruction_errors: tuple
    smallest_singular_values: tuple
    passed: bool
    hypotheses_checked: tuple


def uniqueness_reconstruction(cand, t0, t_grid, rtol=1e-6):
    """Partial-uniqueness check for invertible solution families.

    Preconditions verified numerically: the family matches the Gramian
    ratio at t0 (1e-8 relative) and stays invertible on the weighted space
    along the grid.  Conclusion checked: S(t)^{-1} Q_inf equals Q_t to
    ``rtol`` at every grid time — i.e. a single correct snapshot pins the
    family to the Gramian ratio.
    """
    sys = cand.sys
    gram_inf = compute_gramian(sys, np.inf)
    Q_inf = gram_inf.matrix
    U = gram_inf.Q.range_basis()

    Pv0 = build_pv(sys, t0)
    S0 = cand.evaluate(t0)
    scale0 = max(np.linalg.norm(Pv0, 2), 1e-300)
    match = float(np.linalg.norm(
        U.T @ (S0 - Pv0) @ U, 2) / scale0)

    times = []
    errors = []
    sigmas = []
    ok = match <= 1e-8
    for t in np.atleast_1d(np.asarray(t_grid, dtype=float)):
        S = cand.evaluate(t)
        M = U.T @ S @ U
        sigma = np.linalg.svd(M, compute_uv=False)
        smin = float(sigma[-1])
        sigmas.append(smin)
        if smin <= 1e-12 * sigma[0]:
            times.append(float(t))
            errors.append(np.inf)
            ok = False
            continue
        S_inv = U @ np.linalg.inv(M) @ U.T
        Q_rec = S_inv @ Q_inf
        Q_t = compute_gramian(sys, t).matrix
        Pr = U @ U.T
        err = np.linalg.norm(Pr @ (Q_rec - Q_t) @ Pr, 2) / max(np.linalg.norm(Q_t, 2), 1e-300)
        times.append(float(t))
        errors.append(float(err))
        if err > rtol:
            ok = False
    return UniquenessReport(
        t0=float(t0),
        match_at_t0=match,
        times=tuple(times),
        reconstruction_errors=tuple(errors),
        smallest_singular_values=tuple(sigmas),
        passed=bool(ok),
        hypotheses_checked=(
            "family matches the Gramian ratio at t0 (relative 1e-8)",
            "family invertible on the weighted space along the grid",
            "reconstructed Gramians match the direct ones (relative tolerance)",
        ),
    )


def _commuting_t1(lam, Kt, margin):
    """Exact threshold when K commutes with A: the bracket diagonalizes.

    ``lam`` are the eigenvalues of A and ``Kt`` is K in its eigenvectors,
    which is block diagonal across distinct eigenspaces.  Each simultaneous
    eigenpair (lambda, kappa) contributes the branch 1 - kappa e^{2 lambda t};
    its margin crossing is at t = log(kappa / (1 - margin)) / (-2 lambda)
    whenever kappa reaches 1 - margin at all (branches with kappa below
    that, or negative, never come close to singular).
    """
    # diagonalize Kt within each (numerically grouped) eigenspace of A
    n = lam.size
    group_tol = 1e-10 * max(1.0, float(np.abs(lam).max()))
    t1 = 0.0
    i = 0
    while i < n:
        j = i
        while j + 1 < n and lam[j + 1] - lam[i] <= group_tol:
            j += 1
        block = Kt[i : j + 1, i : j + 1]
        kappas = np.linalg.eigvalsh(0.5 * (block + block.T))
        lam_g = float(np.mean(lam[i : j + 1]))
        for kappa in kappas:
            if kappa >= 1.0 - margin and lam_g < 0.0:
                t1 = max(t1, math.log(kappa / (1.0 - margin)) / (-2.0 * lam_g))
        i = j + 1
    return float(t1)


def detect_t1(sys, K, margin=1e-6):
    """First time past which I - e^{tA} K e^{tA} stays invertible with margin.

    With A = V diag(lambda) V^T, K~ = V^T K V and D_t = diag(e^{t lambda}),
    the bracket is orthogonally similar to I - D_t K~ D_t, so for symmetric
    K its smallest singular value is min |1 - mu| over the eigenvalues mu
    of D_t K~ D_t.  D_t K~ D_t - cI is congruent to K~ - c D_t^{-2}, which
    only decreases in t when c > 0, so by Sylvester's law of inertia and
    Weyl's monotonicity theorem (Horn & Johnson, Matrix Analysis, 2nd ed.,
    Thms 4.5.8 and 4.3.1) the number of mu >= 1 - margin never rises: t1 is
    the one time at which the largest mu falls below 1 - margin.

    When K commutes with A that time is exact from the simultaneous
    eigenpairs; otherwise it is bisected to the last bit on [0, t_hi], where
    ||e^{tA} K e^{tA}|| <= (1 - margin) / 2.  Returns 0.0 when the bracket is
    safe from the start.  K must be n x n and symmetric to 1e-12 relative,
    and the margin must lie in (0, 1); otherwise PreconditionError.
    """
    if not sys.is_commuting_selfadjoint():
        raise PreconditionError("the exponential family needs symmetric A commuting with B B^T")
    if not sys.stable:
        raise UnstableSystemError("the exponential family threshold needs a stable system")
    if not 0.0 < margin < 1.0:
        raise PreconditionError(f"the margin must lie in (0, 1), got {margin:g}")
    K = np.asarray(K, dtype=float)
    if K.shape != (sys.n, sys.n):
        raise PreconditionError(f"K must be {sys.n} x {sys.n}, got shape {K.shape}")
    normK = np.linalg.norm(K, 2) if np.all(np.isfinite(K)) else np.inf
    if not np.isfinite(normK):
        raise NonFiniteError("K has no finite norm in double precision")
    asymmetry = np.linalg.norm(K - K.T, 2)
    if not asymmetry <= 1e-12 * normK:
        raise PreconditionError(
            f"K must be symmetric: ||K - K^T|| = {asymmetry:.3e} against ||K|| = {normK:.3e}"
        )
    if normK == 0.0:
        return 0.0
    lam, V = np.linalg.eigh(sys.A)
    Kt = V.T @ K @ V
    if commutes(sys.A, K, tol=1e-12):
        return _commuting_t1(lam, Kt, margin)

    def unsafe(t):
        d = np.exp(t * lam)
        return np.linalg.eigvalsh(d[:, None] * Kt * d)[-1] >= 1.0 - margin

    if not unsafe(0.0):
        return 0.0
    lo, hi = 0.0, math.log(2.0 * normK / (1.0 - margin)) / (2.0 * sys.omega)
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        if unsafe(mid):
            lo = mid
        else:
            hi = mid
    return float(hi)


@dataclass(frozen=True)
class CommutingSolution:
    """One member of the exponential solution family, with its safety margins."""

    operator: np.ndarray
    t: float
    t1: float                  # detected invertibility threshold for this K
    margin: float              # smallest singular value of the bracket at t


def commuting_family(sys, K, t, margin=1e-6, t1=None):
    """Evaluate (I - e^{tA} K e^{tA})^{-1} for the commuting selfadjoint case.

    ``K`` must be plainly symmetric, to 1e-12 relative (``detect_t1``
    raises PreconditionError otherwise).  Times at or below the detected
    threshold raise MarginError.
    """
    K = np.asarray(K, dtype=float)
    if t1 is None:
        t1 = detect_t1(sys, K, margin)
    t = float(t)
    if t <= t1:
        raise MarginError(
            f"time {t:g} is at or below the invertibility threshold {t1:g} of this family"
        )
    E = expm(sys.A, t)
    G = np.eye(sys.n) - E @ K @ E
    smin = float(np.linalg.svd(G, compute_uv=False)[-1])
    if smin <= margin:
        raise MarginError(
            f"bracket nearly singular at t={t:g}: smallest singular value {smin:.3e}"
        )
    return CommutingSolution(operator=np.linalg.inv(G), t=t, t1=float(t1), margin=smin)


def commuting_candidate(sys, K, margin=1e-6):
    """Candidate wrapping the exponential family for a fixed K, measured in
    the system's one geometry of Q_inf, and carries K and t1.  Its exact
    derivative is S' = S (A E K E + E K E A) S with E = e^{tA}."""
    geometry = _default_geometry(sys)
    K = np.asarray(K, dtype=float)
    t1 = detect_t1(sys, K, margin)

    def fn(t):
        return commuting_family(sys, K, t, margin, t1=t1).operator

    def derivative(t):
        S = cand.evaluate(t)
        E = expm(sys.A, t)
        EKE = E @ K @ E
        return S @ (sys.A @ EKE + EKE @ sys.A) @ S

    cand = RiccatiCandidate(sys, geometry, fn, derivative)
    cand.K, cand.t1 = K, t1
    return cand


@dataclass(frozen=True)
class RecoverLReport:
    """Snapshot inversion of the exponential family: L = I - S(T*)^{-1}.

    ``k_roundtrip_error`` is the relative 2-norm distance of
    e^{-T* A} L e^{-T* A} from the family's K; ``passed`` holds when every
    forward prediction and that round trip are within ``rtol``.
    """

    L: np.ndarray
    t_star: float
    times: tuple
    errors: tuple              # relative forward-prediction errors
    passed: bool
    k_roundtrip_error: float


def recover_L(cand, t_star, t_grid=None, rtol=1e-6):
    """Recover the family's mixing operator from one snapshot and verify forward.

    Given S from the exponential family of ``commuting_candidate`` on the
    system ``cand.sys``, L = I - S(T*)^{-1} regenerates the family as
    (I - e^{(t-T*)A} L e^{(t-T*)A})^{-1}; agreement on a forward grid
    certifies the snapshot characterizes the family, and the round trip
    back to K that it recovers the operator.  A round trip that overflows
    raises NonFiniteError.
    """
    sys = cand.sys
    S_star = cand.evaluate(t_star)
    sigma = np.linalg.svd(S_star, compute_uv=False)
    if sigma[-1] <= 1e-12 * sigma[0]:
        raise MarginError(f"family is not invertible at T* = {t_star:g}")
    L = np.eye(sys.n) - np.linalg.inv(S_star)
    if t_grid is None:
        span = 2.0 / max(sys.omega, 1e-3)
        t_grid = t_star + np.linspace(0.0, span, 9)[1:]
    times = []
    errors = []
    ok = True
    for t in np.atleast_1d(np.asarray(t_grid, dtype=float)):
        E = expm(sys.A, t - t_star)
        G = np.eye(sys.n) - E @ L @ E
        sm = np.linalg.svd(G, compute_uv=False)[-1]
        if sm <= 1e-12:
            times.append(float(t)); errors.append(np.inf); ok = False
            continue
        predicted = np.linalg.inv(G)
        actual = cand.evaluate(t)
        err = np.linalg.norm(predicted - actual, 2) / max(np.linalg.norm(actual, 2), 1e-300)
        times.append(float(t))
        errors.append(float(err))
        if err > rtol:
            ok = False
    t_star = float(t_star)
    with np.errstate(over="ignore", invalid="ignore"):
        E = expm(sys.A, -t_star)
        K_round = E @ L @ E
    if not np.all(np.isfinite(K_round)):
        raise NonFiniteError(
            f"round trip e^(-t* A) L e^(-t* A) overflows double precision at t* = {t_star:g}")
    roundtrip = float(np.linalg.norm(K_round - cand.K, 2) / max(np.linalg.norm(cand.K, 2), 1e-300))
    return RecoverLReport(L=L, t_star=t_star, times=tuple(times), errors=tuple(errors),
                          passed=bool(ok and roundtrip <= rtol), k_roundtrip_error=roundtrip)


@dataclass(frozen=True)
class ProjectionReport:
    """Compression test: P S(t) P solves iff S(t) maps ran(P) into ran(P)."""

    times: tuple
    range_defects: tuple       # weighted-norm defect of (I-P) S(t) P per time
    range_condition_holds: bool
    residual: ResidualReport
    is_solution: bool
    mixed_verdict: bool        # True would witness a biconditional violation
    witness_time: float        # the first time of the largest range defect


def projected_solution_check(cand, P, times, tol=1e-6, seed=0):
    """Check the compression biconditional for a projection P.

    The candidate must be in the weighted geometry, and P an orthogonal
    projection there commuting with the A of ``cand.sys``.  The range
    condition is measured as the weighted operator-norm defect of
    (I - P) S(t) P, and holds when that defect over max(1, the family's
    weighted norm) is at most 1e-8; the compressed family P S(t) P is then
    run through the commuting-case residual on probes from ran(P), with the
    derivative P S'(t) P when the candidate has an exact S'.
    """
    sys = cand.sys
    P = np.asarray(P, dtype=float)
    geometry = cand.geometry
    if not isinstance(geometry, HGeometry):
        raise PreconditionError("the compression test is posed in the weighted geometry")
    idem = np.linalg.norm(P @ P - P, 2)
    if idem > 1e-10 * max(np.linalg.norm(P, 2), 1.0):
        raise PreconditionError(f"P is not idempotent: ||P^2 - P|| = {idem:.3e}")
    if geometry.symmetry_defect(P) > 1e-8:
        raise PreconditionError("P is not an orthogonal projection in the weighted geometry")
    if not commutes(sys.A, P, tol=1e-10):
        raise PreconditionError("P must commute with A")

    times = _as_times(times)
    defects = []
    for t in times:
        M = (np.eye(sys.n) - P) @ cand.evaluate(t) @ P
        defects.append(geometry.operator_norm(M) / max(1.0, cand.h_norm_of(t)))
    range_ok = max(defects) <= 1e-8

    compressed = RiccatiCandidate(
        sys, geometry, lambda t: P @ cand.evaluate(t) @ P,
        (lambda t: P @ cand.derivative(t) @ P) if cand.derivative_kind == "exact" else None,
    )
    # probes restricted to ran(P) (and to the weighted space)
    probes = _probes(geometry, geometry.gram.Q.range_basis(), 10, seed, P=P)
    if probes.shape[0] == 0:
        raise PreconditionError("P maps the weighted space to zero: there is nothing to probe")
    residual = riccati_residual_commuting(compressed, times, probes=probes, tol=tol)
    is_solution = residual.passed
    return ProjectionReport(
        times=tuple(float(t) for t in times),
        range_defects=tuple(defects),
        range_condition_holds=bool(range_ok),
        residual=residual,
        is_solution=bool(is_solution),
        mixed_verdict=bool(range_ok != is_solution),
        witness_time=float(times[int(np.argmax(defects))]),
    )


@dataclass(frozen=True)
class LyapunovReport:
    mode: str
    times: tuple
    residuals: tuple
    tol_scaled: float
    passed: bool
    derivative: str = None     # mode 'differential': "exact" or "richardson"


def lyapunov_residual(sys, Q, times=None, tol=1e-7, derivative=None):
    """Residual of the Gramian's own linear equation; the kind of Q picks the check.

    A callable Q is a family (mode 'differential'), checked at ``times``
    against d/dt Q(t) = A Q + Q A^T + B B^T.  The left side is
    ``derivative(t)`` when given (for the system's own Gramians,
    ``gramian_rate``: Q_t' = e^{tA} BB^T e^{tA^T}), else a Richardson
    difference of Q (``_richardson``); the report's ``derivative`` says
    which.  A matrix Q (mode 'algebraic') is checked against
    A Q + Q A^T + B B^T = 0.  Thresholds scale with ||B B^T||.
    """
    C = sys.BBt
    tol_scaled = float(tol * max(np.linalg.norm(C, 2), 1e-300))
    if not callable(Q):
        resid = float(np.linalg.norm(sys.A @ Q + Q @ sys.A.T + C, 2))
        return LyapunovReport("algebraic", (np.inf,), (resid,), tol_scaled,
                              bool(resid <= tol_scaled))
    if times is None:
        raise ValueError("a Gramian family needs times")
    times = _as_times(times)
    residuals = []
    for t in times:
        Qt = Q(t)
        dQ = _richardson(Q, t) if derivative is None else derivative(t)
        residuals.append(float(np.linalg.norm(dQ - (sys.A @ Qt + Qt @ sys.A.T + C), 2)))
    return LyapunovReport("differential", tuple(float(t) for t in times),
                          tuple(residuals), tol_scaled, bool(max(residuals) <= tol_scaled),
                          "richardson" if derivative is None else "exact")
