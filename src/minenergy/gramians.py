"""Controllability Gramians over finite and infinite horizons.

``compute_gramian`` is the one production route:

* finite horizons, any A (stable or not): Van Loan's block exponential of
  [[-A, BB^T], [0, A^T]] at a step t / 2^k with ||A||_1 t / 2^k <= 1,
  followed by k exact doublings (``gramian_block_exponential``; C. Van Loan,
  "Computing integrals involving the matrix exponential", IEEE TAC 23(3),
  1978);
* the infinite horizon of a stable system: the same step at h = 1 / ||A||_1,
  doubled until e^{sA} falls below roundoff, Q_2s = Q_s + e^{sA} Q_s e^{sA^T}
  (the squared Smith iteration; R. A. Smith, "Matrix equation XA + BX = C",
  SIAM J. Appl. Math. 16(1), 1968), with the algebraic Lyapunov residual
  checked at the end;
* symmetric, invertible A commuting with B B^T: the entrywise closed form
  (``gramian_commuting_closed_form``).

It only computes: ``Model.gramian`` keeps what it returns, one Gramian per
horizon, and every caller that reuses a Gramian asks the system for it.

Two oracles stay beside it, independent of the engine and of each other;
they are only ever called by name and compute afresh on every call (a third,
Bartels-Stewart on the algebraic Lyapunov equation, lives with the tests in
``tests/oracles.py``):

* ``gramian_quadrature_sweep`` -- composite Gauss-Legendre on the defining
  integral, a panel's node exponentials in one stacked ``expm`` call, on
  panels graded toward r = 0 (the first no wider than 1 / ||A||_1) and
  bisected locally until, for every horizon asked for, the estimated errors
  of the panels inside it add up to at most ``rtol`` times its largest entry
  (R. Piessens et al., QUADPACK, 1983); one sweep to the longest horizon
  serves the shorter ones, whose Gramians are prefixes of its integral
* ``gramian_lyapunov_ode`` -- RK4 on the differential Lyapunov equation
"""

import bisect
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError, PreconditionError, StiffnessError, UnstableSystemError
from .linalg import SymmetricPSD, _symmetric_part, expm, range_inclusion, rank_mask

__all__ = [
    "Gramian",
    "gramian_quadrature_sweep",
    "gramian_lyapunov_ode",
    "gramian_commuting_closed_form",
    "gramian_block_exponential",
    "gramian_rate",
    "compute_gramian",
    "kernel_chain_check",
    "KernelChainReport",
    "range_equality_check",
    "RangeEqualityReport",
]


@dataclass(frozen=True)
class Gramian:
    """A computed Gramian: the PSD matrix plus how and for which horizon it was made."""

    Q: SymmetricPSD
    horizon: float
    method: str

    @property
    def matrix(self):
        return self.Q.matrix

    def to_json_dict(self):
        horizon = "inf" if np.isinf(self.horizon) else float(self.horizon)
        return {
            "Q": self.Q.matrix,
            "horizon": horizon,
            "method": self.method,
        }


def _finite_horizon(t):
    t = float(t)
    if not np.isfinite(t) or t <= 0.0:
        raise ValueError(f"horizon must be finite and positive, got {t}")
    return t


def _wrap(Q, t, method):
    if not np.all(np.isfinite(Q)):
        raise NonFiniteError(
            f"{method} Gramian at horizon {t:g} overflows double precision"
        )
    return Gramian(SymmetricPSD(_symmetric_part(Q)), float(t), method)


def _halvings(A, h):
    """The least k >= 0 with ||A||_1 h / 2^k <= 1: how many halvings bring a
    step of length h within one unit of A's reach."""
    reach = np.abs(A).sum(axis=0).max() * h
    return math.ceil(math.log2(reach)) if reach > 1.0 else 0


def _gauss_panel(sys, a, b, nodes, weights):
    """The integral of e^{rA} BB^T e^{rA^T} over [a, b] by one Gauss-Legendre
    panel (``nodes`` and ``weights`` on [-1, 1]).

    The nodes' exponentials come from one stacked ``expm`` call, and the
    panel's Gramian is the one product H H^T of H = [sqrt(w_i) e^{r_i A} B]
    (the weights are positive)."""
    half, mid = 0.5 * (b - a), 0.5 * (a + b)
    G = expm(sys.A, mid + half * nodes) @ sys.B * np.sqrt(half * weights)[:, None, None]
    H = G.transpose(1, 0, 2).reshape(sys.n, -1)
    return H @ H.T


def gramian_quadrature_sweep(sys, times, n_nodes=8, rtol=1e-10, max_panels=2 ** 14):
    """Finite-horizon Gramians at every horizon of ``times`` by one graded,
    locally refined composite Gauss-Legendre sweep over [0, max(times)].

    Q_t is a prefix of the integral for any longer horizon, so one set of
    panels serves them all.  The starting panels have edges 0, T 2^-k, ...,
    T/2, T, with T the largest horizon and k the halvings that bring
    ||A||_1 T within 1, so the panel next to r = 0, where a stiff stable
    mode's integrand decays, is no wider than 1 / ||A||_1; every horizon is
    an edge as well.  Each live panel's ``n_nodes``-point estimate is
    compared with the sum of its two halves; a panel [a, b] whose
    disagreement exceeds its length share of every horizon t >= b,
    ``rtol * max|Q_t| * (b - a) / t``, is bisected, and the others are
    folded into a running sum per stretch between consecutive horizons.
    The results, sums of the halves, are returned once for every horizon t
    the disagreements of the panels inside [0, t] add up to at most
    ``rtol * max|Q_t|``: ``rtol`` bounds each Q_t's estimated entrywise
    error relative to its largest entry.  Raises StiffnessError once more
    than ``max_panels`` panels exist.

    Parameters
    ----------
    sys : LinearSystem
    times : iterable of float
        Horizons, finite and positive, in any order and with repeats.
    n_nodes : int
        Gauss-Legendre nodes per panel (>= 2).

    Returns
    -------
    list of Gramian, one per entry of ``times``, in its order.
    """
    times = [_finite_horizon(t) for t in times]
    if n_nodes < 2:
        raise ValueError(f"n_nodes must be at least 2, got {n_nodes}")
    if not times:
        return []
    rule = np.polynomial.legendre.leggauss(n_nodes)
    hs = sorted(set(times))
    T = hs[-1]
    edges = sorted({0.0, *hs, *(T / 2.0 ** j for j in range(_halvings(sys.A, T) + 1))})
    # a live panel carries the index of the stretch (hs[s - 1], hs[s]] it lies in
    live = [(a, b, bisect.bisect_left(hs, b), _gauss_panel(sys, a, b, *rule))
            for a, b in zip(edges[:-1], edges[1:])]
    n_panels = len(live)
    done = [np.zeros((sys.n, sys.n)) for _ in hs]
    done_err = [0.0] * len(hs)
    while live:
        if n_panels > max_panels:
            raise StiffnessError(
                f"quadrature did not converge to rtol={rtol:g} within {max_panels} panels "
                f"(horizon {T:g}, ||A|| ~ {np.abs(sys.A).max():.3g})"
            )
        split = []
        fresh, fresh_err = [0.0] * len(hs), [0.0] * len(hs)
        for a, b, s, coarse in live:
            m = 0.5 * (a + b)
            left, right = _gauss_panel(sys, a, m, *rule), _gauss_panel(sys, m, b, *rule)
            err = np.abs(left + right - coarse).max()
            split.append((a, m, b, s, left, right, err))
            fresh[s] = fresh[s] + (left + right)
            fresh_err[s] += err
        Qs = list(itertools.accumulate(d + f for d, f in zip(done, fresh)))
        errs = itertools.accumulate(d + f for d, f in zip(done_err, fresh_err))
        tols = [rtol * max(np.abs(Q).max(), np.finfo(float).tiny) for Q in Qs]
        if all(err <= tol for err, tol in zip(errs, tols)):
            return _sweep_result(sys, times, hs, Qs)
        live = []
        for a, m, b, s, left, right, err in split:
            if err <= min(tol * (b - a) / t for tol, t in zip(tols[s:], hs[s:])):
                done[s] += left + right
                done_err[s] += err
            else:
                live += [(a, m, s, left), (m, b, s, right)]
                n_panels += 1
    return _sweep_result(sys, times, hs, list(itertools.accumulate(done)))


def _sweep_result(sys, times, hs, Qs):
    grams = {t: _wrap(Q, t, "quadrature") for t, Q in zip(hs, Qs)}
    return [grams[t] for t in times]


def _rk4_lyapunov(sys, t, n_steps):
    A, C = sys.A, sys.BBt
    h = t / n_steps

    def f(Q):
        return A @ Q + Q @ A.T + C

    Q = np.zeros((sys.n, sys.n))
    # a step size above the stability limit of stiff modes makes the iterate
    # blow up; silence the transient overflow and report the divergence to
    # the caller (which reacts by halving the step), instead of warning
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(n_steps):
            k1 = f(Q)
            k2 = f(Q + 0.5 * h * k1)
            k3 = f(Q + 0.5 * h * k2)
            k4 = f(Q + h * k3)
            Q = Q + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            Q = _symmetric_part(Q)
            if not np.all(np.isfinite(Q)):
                return np.full((sys.n, sys.n), np.inf)
    return Q


def gramian_lyapunov_ode(sys, t):
    """Finite-horizon Gramian by integrating Q' = AQ + QA^T + BB^T, Q(0) = 0.

    Classical RK4 with the iterate symmetrized after every step; the whole
    run, from 64 steps, is repeated with the step halved (at most 14 times)
    until two runs agree to 1e-8 relative to the largest entry.
    """
    rtol = 1e-8
    t = _finite_horizon(t)
    n = 64
    Q_prev = _rk4_lyapunov(sys, t, n)
    for _ in range(14):
        n *= 2
        Q = _rk4_lyapunov(sys, t, n)
        if not np.all(np.isfinite(Q)) or not np.all(np.isfinite(Q_prev)):
            Q_prev = Q
            continue
        scale = max(np.abs(Q).max(), np.finfo(float).tiny)
        if np.abs(Q - Q_prev).max() <= rtol * scale:
            return _wrap(Q, t, "lyapunov_ode")
        Q_prev = Q
    re = np.linalg.eigvals(sys.A).real
    raise StiffnessError(
        f"step refinement exhausted at {n} steps without reaching rtol={rtol:g}; "
        f"eigenvalue real parts span [{re.min():.3g}, {re.max():.3g}]"
    )


def _require_stable(sys):
    if not sys.stable:
        raise UnstableSystemError(
            f"infinite-horizon Gramian needs a strictly stable system; decay margin is {sys.omega}"
        )


def _check_lyapunov_residual(sys, Q, method):
    """Raise StiffnessError unless ||A Q + Q A^T + BB^T|| <= 1e-10 * ||BB^T||
    (entrywise maxima)."""
    C = sys.BBt
    scale = max(np.abs(C).max(), np.finfo(float).tiny)
    resid = np.abs(sys.A @ Q + Q @ sys.A.T + C).max()
    if resid > 1e-10 * scale:
        raise StiffnessError(
            f"{method} residual {resid:.3e} exceeds 1e-10 * ||BB^T||; "
            "eigenvalue pair sums are nearly singular"
        )


# doublings of h = 1 / ||A||_1 reach s = 2^64 h: far past the 36 ||A||_1 / omega
# that takes e^{sA} below roundoff for any margin omega above eps * ||A||_1
_MAX_SMITH_DOUBLINGS = 64


def _gramian_infinite_doubling(sys):
    """Infinite-horizon Gramian of a stable system by the squared Smith
    iteration on Van Loan's step.

    ``_van_loan_step`` at h = 1 / ||A||_1 gives e^{hA} and Q_h; each
    doubling Q_2s = Q_s + e^{sA} Q_s e^{sA^T}, e^{2sA} = (e^{sA})^2 adds a
    PSD term, and the iteration stops once ||e^{sA}||_1 <= eps, when the
    tail Q_inf - Q_s = e^{sA} Q_inf e^{sA^T} is below roundoff.  Raises
    UnstableSystemError when the decay margin is zero, StiffnessError when
    ``_MAX_SMITH_DOUBLINGS`` doublings leave e^{sA} above roundoff or the
    result misses the algebraic residual bound
    ``||A Q + Q A^T + BB^T|| <= 1e-10 * ||BB^T||``, and NonFiniteError when a
    transient overflows.
    """
    _require_stable(sys)
    E, Q = _van_loan_step(sys, 1.0 / np.abs(sys.A).sum(axis=0).max())
    eps = np.finfo(float).eps
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(_MAX_SMITH_DOUBLINGS):
            if not np.abs(E).sum(axis=0).max() > eps:
                break
            Q = Q + E @ Q @ E.T
            E = E @ E
    size = np.abs(E).sum(axis=0).max()
    if not np.isfinite(size) or not np.all(np.isfinite(Q)):
        raise NonFiniteError("doubling toward the infinite-horizon Gramian overflows double precision")
    if size > eps:
        raise StiffnessError(
            f"||e^(sA)||_1 = {size:.3e} is still above roundoff after {_MAX_SMITH_DOUBLINGS} "
            f"doublings toward the infinite-horizon Gramian; decay margin {sys.omega:.3g}"
        )
    _check_lyapunov_residual(sys, Q, "doubling")
    return _wrap(Q, np.inf, "smith_doubling")


def _has_closed_form(sys):
    if not sys.is_commuting_selfadjoint():
        return False
    eigs = np.linalg.eigvalsh(sys.A)
    return bool(np.abs(eigs).min() > 1e-12 * max(np.abs(eigs).max(), 1.0))


def gramian_commuting_closed_form(sys, t):
    """Entrywise closed form for symmetric A commuting with B B^T.

    Finite horizon:  Q_t = (1/2) A^{-1} (e^{2tA} - I) B B^T, evaluated in
                     the eigenbasis A = V diag(lam) V^T as
                     V diag(expm1(2 t lam) / (2 lam)) V^T B B^T, which keeps
                     every digit as t |lam| -> 0
    Infinite:        Q_inf = -(1/2) A^{-1} B B^T   (stable A only)

    A must be invertible.  Raises PreconditionError off the commuting case.
    """
    if not _has_closed_form(sys):
        raise PreconditionError(
            "closed form requires symmetric, invertible A commuting with B B^T"
        )
    if np.isinf(t):
        if not sys.stable:
            raise UnstableSystemError("infinite-horizon closed form needs a stable system")
        Q = -0.5 * np.linalg.solve(sys.A, sys.BBt)
        return _wrap(Q, np.inf, "closed_form")
    t = _finite_horizon(t)
    lam, V = np.linalg.eigh(sys.A)
    with np.errstate(over="ignore", invalid="ignore"):
        Q = (V * (np.expm1(2.0 * t * lam) / (2.0 * lam))) @ V.T @ sys.BBt
    return _wrap(Q, t, "closed_form")


def _van_loan_step(sys, h):
    """e^{hA} and Q_h by Van Loan's block exponential at a short step, then
    exact doublings.

    One exponential of [[-A, BB^T], [0, A^T]] at h / 2^k with
    ||A||_1 h / 2^k <= 1 gives e^{hA / 2^k} and Q_{h / 2^k}; each doubling
    Q_2s = Q_s + e^{sA} Q_s e^{sA^T} adds a PSD term, so neither a stiff
    stable A (whose -A block would overflow at the full step) nor an
    unstable one loses accuracy.  Q_h is linear in BB^T, so the block
    carries BB^T / 2^j, with j the halvings that bring its reach within 1
    too, and Q_h is scaled back at the end; powers of two scale exactly, and
    a large B cannot make the exponential overscale its A blocks.  Overflow
    in a doubling is left to the caller's finiteness check.
    """
    n = sys.n
    k = _halvings(sys.A, h)
    step = h / 2.0 ** k
    C = sys.BBt
    gain = 2.0 ** _halvings(C, step)
    M = np.zeros((2 * n, 2 * n))
    M[:n, :n] = -sys.A
    M[:n, n:] = C / gain
    M[n:, n:] = sys.A.T
    F = expm(M, step)
    E = F[n:, n:].T
    Q = E @ F[:n, n:]
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(k):
            Q = Q + E @ Q @ E.T
            E = E @ E
        return E, gain * Q


def gramian_block_exponential(sys, t):
    """Finite-horizon Gramian by the scaled Van Loan step (``_van_loan_step``)
    taken at the whole horizon."""
    t = _finite_horizon(t)
    return _wrap(_van_loan_step(sys, t)[1], t, "block_exponential")


def gramian_rate(sys, t):
    """The Gramian's time derivative Q_t' = e^{tA} BB^T e^{tA^T}, the integrand
    of Q_t at r = t (Van Loan 1978), at a finite time t."""
    E = expm(sys.A, t)
    return E @ sys.BBt @ E.T


def compute_gramian(sys, t):
    """The reachability Gramian Q_t for t in (0, inf], computed afresh
    (``sys.gramian(t)`` keeps it).

    The commuting closed form when A is symmetric, invertible and commutes
    with BB^T; otherwise the scaled block exponential, taken at the horizon
    for finite t (stable or not) and doubled until e^{sA} falls below
    roundoff for t = inf.
    """
    if _has_closed_form(sys):
        return gramian_commuting_closed_form(sys, t)
    if np.isinf(t):
        return _gramian_infinite_doubling(sys)
    return gramian_block_exponential(sys, t)


@dataclass(frozen=True)
class KernelChainReport:
    """Nullspace nesting across horizons: ker Q_t ⊆ ker Q_s ⊆ ker B^T for s <= t."""

    times: tuple
    kernel_dims: tuple
    dim_ker_Bt: int
    inclusions: tuple          # (label, defect, ok) triples, largest horizon first
    commuting: bool
    equalities_ok: bool        # only meaningful when commuting
    violations: tuple          # (label, defect, offending_vector) triples


def _subspace_defect(vectors, basis):
    """Largest distance from a unit vector in ``vectors`` to span(basis)."""
    if vectors.shape[1] == 0:
        return 0.0
    resid = vectors - basis @ (basis.T @ vectors)
    return float(np.linalg.norm(resid, axis=0).max())


def kernel_chain_check(sys, times):
    """Check the kernel chain over ascending horizons, including ker B^T at the end.

    Larger horizons can only shrink the kernel, and every Gramian kernel
    sits inside ker B^T.  An inclusion holds when no unit vector of the
    smaller kernel lies farther than 1e-6 from the larger one.  In the
    commuting selfadjoint case all inclusions are equalities, which is
    checked as well.
    """
    times = sorted(float(t) for t in times)
    if not times or times[0] <= 0.0:
        raise ValueError("times must be positive")
    grams = [sys.gramian(t) for t in times]
    kernels = [g.Q.kernel_basis() for g in grams]
    # ker B^T = orthogonal complement of range(B)
    U, s, _ = np.linalg.svd(sys.B, full_matrices=True)
    rank_b = int(np.count_nonzero(rank_mask(s)))
    ker_bt = U[:, rank_b:]

    inclusions = []
    violations = []
    order = np.argsort(times)[::-1]   # largest horizon first
    chain = [(f"ker Q_{times[i]:g}", kernels[i]) for i in order]
    chain.append(("ker B^T", ker_bt))
    for (lab_small, small), (lab_big, big) in zip(chain[:-1], chain[1:]):
        defect = _subspace_defect(small, big)
        ok = defect <= 1e-6
        label = f"{lab_small} ⊆ {lab_big}"
        inclusions.append((label, defect, ok))
        if not ok:
            worst = small[:, int(np.argmax(np.linalg.norm(
                small - big @ (big.T @ small), axis=0)))]
            violations.append((label, defect, worst))

    commuting = sys.is_commuting_selfadjoint()
    equalities_ok = True
    if commuting:
        dims = [k.shape[1] for k in kernels] + [ker_bt.shape[1]]
        equalities_ok = len(set(dims)) == 1 and all(ok for (_, _, ok) in inclusions)

    return KernelChainReport(
        times=tuple(times),
        kernel_dims=tuple(k.shape[1] for k in kernels),
        dim_ker_Bt=ker_bt.shape[1],
        inclusions=tuple(inclusions),
        commuting=commuting,
        equalities_ok=equalities_ok,
        violations=tuple(violations),
    )


@dataclass(frozen=True)
class RangeEqualityReport:
    """Two-sided range comparison of Q_t^{1/2} against Q_inf^{1/2}."""

    t: float
    included_forward: bool     # range(Q_t^{1/2}) ⊆ range(Q_inf^{1/2})
    included_backward: bool
    constant_forward: float
    constant_backward: float
    commuting: bool


def range_equality_check(sys, t):
    """Compare range(Q_t^{1/2}) with range(Q_inf^{1/2}) in both directions.

    For stable systems the ranges agree from the null-controllability time
    onward; in the commuting selfadjoint case they agree for every t > 0.
    Each root enters as its Gramian's factor (``SymmetricPSD.factor``).
    """
    Z_t = sys.gramian(t).Q.factor()
    Z_inf = sys.gramian(np.inf).Q.factor()
    fw = range_inclusion(Z_t, Z_inf)
    bw = range_inclusion(Z_inf, Z_t)
    return RangeEqualityReport(
        t=float(t),
        included_forward=fw.included,
        included_backward=bw.included,
        constant_forward=fw.constant,
        constant_backward=bw.constant,
        commuting=sys.is_commuting_selfadjoint(),
    )
