"""Dense linear-algebra kernels: exponentials, rank-aware pseudoinverses,
PSD factors, commutation and range-inclusion tests.

All range/kernel decisions in the package use one relative threshold so
that "numerically zero" means the same thing everywhere, and two functions
are the only readers of it: ``rank_mask`` treats a singular value (or
eigenvalue) as zero when it is at most ``REL_THRESHOLD`` times the largest
one, and ``negligible`` treats a defect as roundoff when it is at most
``REL_THRESHOLD`` times the size of what it was measured against.  A
``SymmetricPSD`` makes the rank cut once on its eigenpairs, and its factor
stands in for the square root.
"""

import functools
import math
import random
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError, NotPSDError, NotSymmetricError, PreconditionError

__all__ = [
    "REL_THRESHOLD",
    "rank_mask",
    "negligible",
    "SymmetricPSD",
    "RangeInclusion",
    "as_matrix",
    "expm",
    "pinv",
    "commutes",
    "range_inclusion",
    "commuting_pinv_compose",
    "negative_type_bound",
]

SYMMETRY_RTOL = 1e-12
REL_THRESHOLD = 1e-10


def rank_mask(values):
    """The mask of the values above ``REL_THRESHOLD`` times the largest: the
    directions a rank, range or pseudoinverse keeps.  All False for an empty
    or all-zero spectrum."""
    values = np.asarray(values)
    top = values.max() if values.size else 0.0
    if top <= 0.0:
        return np.zeros(values.shape, dtype=bool)
    return values > REL_THRESHOLD * top


def negligible(defect, scale):
    """Whether ``defect`` is roundoff against ``scale``: at most
    ``REL_THRESHOLD`` times it, with a scale below 1e-300 read as 1e-300."""
    return defect <= REL_THRESHOLD * max(scale, 1e-300)


def as_matrix(M, name="matrix"):
    """Coerce to a 2-d float array and reject non-finite entries."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise ValueError(f"{name} contains non-finite entries")
    return M


def _sym_error(M):
    scale = np.abs(M).max()
    if scale == 0.0:
        return 0.0
    return np.abs(M - M.T).max() / scale


class SymmetricPSD:
    """A symmetric positive-semidefinite matrix held as its eigenpairs, with
    the rank cut made once.

    Three ways in, each ending in the core that ``from_eigenpairs`` is:
    ascending eigenpairs, the mask of the kept ones and V diag(lam) V^T.

    - ``SymmetricPSD(entries)`` validates symmetry (relative deviation at
      most 1e-12), runs ``eigh`` and clips slightly negative eigenvalues to
      zero: an eigenvalue in ``[-REL_THRESHOLD * lam_max, 0)`` is attributed
      to roundoff, anything more negative raises ``NotPSDError``.  It keeps
      the eigenpairs where ``rank_mask(lam)`` holds.
    - ``SymmetricPSD.from_factor(Z)`` is Z Z^T, from one full SVD of Z:
      lam = sigma^2, and it keeps the eigenpairs where ``rank_mask(sigma)``
      holds, so its cut resolves lam to eps^2 * lam_max.
    - ``SymmetricPSD.from_eigenpairs(lam, V)`` takes ascending eigenvalues
      and orthonormal eigenvectors as given and keeps ``rank_mask(lam)``.

    Every method reads the kept eigenpairs (``_keep()``), so rank, range,
    pseudoinverse, factor and ``energy.steer`` all follow the one cut.
    """

    def __init__(self, entries):
        M = as_matrix(entries, "SymmetricPSD entries")
        n, m = M.shape
        if n != m:
            raise ValueError(f"matrix must be square, got shape {M.shape}")
        err = _sym_error(M)
        if err > SYMMETRY_RTOL:
            raise NotSymmetricError(
                f"matrix is not symmetric: relative asymmetry {err:.3e} exceeds {SYMMETRY_RTOL:.1e}"
            )
        M = 0.5 * (M + M.T)
        lam, V = np.linalg.eigh(M)
        lam_max = max(lam[-1], 0.0)
        floor = -REL_THRESHOLD * lam_max if lam_max > 0 else 0.0
        if np.any(lam < floor):
            worst = lam.min()
            raise NotPSDError(
                f"matrix has eigenvalue {worst:.6e} below the roundoff floor "
                f"{floor:.6e}; not positive semidefinite"
            )
        lam = np.where(lam < 0.0, 0.0, lam)
        self._set(lam, V, rank_mask(lam))

    @classmethod
    def from_eigenpairs(cls, lam, V, keep=None):
        """The matrix V diag(lam) V^T from ascending eigenvalues ``lam`` and
        orthonormal eigenvector columns ``V``, with no decomposition; the
        arrays are held, not copied, and made read-only.  The kept
        eigenpairs are ``keep``, by default ``rank_mask(lam)`` (a factor
        passes the cut on its singular values)."""
        self = cls.__new__(cls)
        lam = np.asarray(lam, dtype=float)
        self._set(lam, np.asarray(V, dtype=float), rank_mask(lam) if keep is None else keep)
        return self

    @classmethod
    def from_factor(cls, Z):
        """Z Z^T from one full SVD of the (n, k) factor Z: lam = sigma^2 (zero
        past min(n, k)), in ascending order, keeping the eigenpairs where
        ``rank_mask(sigma)`` holds.  The full left basis leaves
        ``kernel_basis`` the complement of the range."""
        Z = as_matrix(Z, "factor")
        U, s, _ = np.linalg.svd(Z)
        sigma = np.zeros(Z.shape[0])
        sigma[:s.size] = s
        return cls.from_eigenpairs(sigma[::-1] ** 2, U[:, ::-1], rank_mask(sigma[::-1]))

    def _set(self, lam, V, keep):
        self._lam = lam
        self._V = V
        self._mask = keep
        self._M = (V * lam) @ V.T
        self._M = 0.5 * (self._M + self._M.T)
        for arr in (self._lam, self._V, self._M, self._mask):
            arr.setflags(write=False)

    @property
    def matrix(self):
        return self._M

    @property
    def eigenvalues(self):
        """Eigenvalues in ascending order (negatives already clipped)."""
        return self._lam

    @property
    def eigenvectors(self):
        """Orthonormal eigenvectors, columns matching ``eigenvalues``."""
        return self._V

    def _keep(self):
        """The mask of the kept eigenpairs, cut once at construction."""
        return self._mask

    @property
    def rank(self):
        """Rank under the relative threshold."""
        return int(np.count_nonzero(self._keep()))

    def range_basis(self):
        """Orthonormal basis of the range (columns), under the relative threshold."""
        return self._V[:, self._keep()]

    def kernel_basis(self):
        return self._V[:, ~self._keep()]

    def pinv(self):
        """Moore-Penrose pseudoinverse under the relative threshold."""
        keep = self._keep()
        inv = np.zeros_like(self._lam)
        inv[keep] = 1.0 / self._lam[keep]
        P = (self._V * inv) @ self._V.T
        return 0.5 * (P + P.T)

    def factor(self):
        """The factor Z = V_k diag(sqrt(lam_k)) over the kept eigenpairs.

        Z Z^T is the matrix with its sub-threshold eigenvalues zeroed, so
        range(Z) = range(M^{1/2}) and ||Z^T x|| = ||M^{1/2} x||: Z stands in
        for the square root wherever one is an operand, with no second
        decomposition.
        """
        keep = self._keep()
        return self._V[:, keep] * np.sqrt(self._lam[keep])


def _pade_table(m):
    """Coefficients of the [m/m] Pade approximant to e^x (N. J. Higham, SIAM
    J. Matrix Anal. Appl. 26(4), 2005), as the rows that combine the stacked
    powers I, X^2, X^4, ... (see ``_pade``).

    With b_j = (2m - j)! / (j! (m - j)!) the numerator's odd part is
    U = X sum_j b_{2j+1} X^{2j} and its even part V = sum_j b_{2j} X^{2j}.
    Degree 13 stacks only I, X^2, X^4, X^6 and writes each part as
    X^6 (outer row) + (inner row).
    """
    b = [math.factorial(2 * m - j) / (math.factorial(j) * math.factorial(m - j))
         for j in range(m + 1)]
    odd, even = b[1::2], b[0::2]
    if m < 13:
        return np.array([odd, even])
    return np.array([[0.0] + odd[4:], odd[:4], [0.0] + even[4:], even[:4]])


# (theta_m, table): the [m/m] approximant meets double precision for
# ||X||_1 <= theta_m (Higham 2005, Table 2.3; degrees 3 to 9 then 13 with
# scaling, as in A. H. Al-Mohy and N. J. Higham, SIAM J. Matrix Anal. Appl.
# 31(3), 2009)
_PADE = tuple((theta, _pade_table(m)) for m, theta in (
    (3, 1.495585217958292e-2),
    (5, 2.539398330063230e-1),
    (7, 9.504178996162932e-1),
    (9, 2.097847961257068e0),
    (13, 5.371920351148152e0),
))
# the exponential's relative condition number is at least ||tA||; past
# 1 / eps its squarings return no correct digit, so such a scaling is refused
_MAX_NORM = 1.0 / np.finfo(float).eps


def _pade(X, table):
    """The Pade approximant r_m(X) of ``table`` on a stack X of matrices:
    stack the even powers of X, combine them with the table's rows in one
    product, and solve (V - U) R = V + U."""
    b, n = X.shape[:2]
    k = table.shape[1]
    P = np.empty((k, b, n, n))
    P[0] = 0.0
    P[0].reshape(b, n * n)[:, ::n + 1] = 1.0
    np.matmul(X, X, out=P[1])
    for j in range(2, k):
        np.matmul(P[j - 1], P[1], out=P[j])
    R = (table @ P.reshape(k, b * n * n)).reshape(-1, b, n, n)
    if len(R) == 2:
        U, V = X @ R[0], R[1]
    else:
        U, V = X @ (P[-1] @ R[0] + R[1]), P[-1] @ R[2] + R[3]
    return np.linalg.solve(V - U, V + U)


def expm(A, t=1.0):
    """Matrix exponential ``e^{tA}``, or the stack of them over a 1-d array of
    times.

    A scalar ``t`` gives one (n, n) matrix; a 1-d array of k times gives the
    (k, n, n) stack, one exponential per time, through the same code (a
    scalar is a stack of one).  Diagonal matrices take an exact entrywise
    path.  General matrices go through scaling and squaring with a Pade
    approximant (Higham 2005): the lowest degree among 3, 5, 7 and 9 whose
    theta bounds ||tA||_1, else degree 13 on tA / 2^s with s the fewest
    halvings that bring ||tA||_1 within theta_13, followed by s squarings.
    A stack takes its degree and s from its largest ||tA||_1, so that one
    product serves every member.  Negative times are allowed: a square
    matrix always generates a group, so the backward flow is well-defined
    here (unlike for genuinely unbounded generators).  An exponential that
    overflows, or one whose ||tA||_1 exceeds 1 / eps so that no digit of it
    survives the squarings, raises ``NonFiniteError``.
    """
    A = as_matrix(A, "A")
    n, m = A.shape
    if n != m:
        raise ValueError(f"matrix exponential needs a square matrix, got {A.shape}")
    ts = np.asarray(t, dtype=float)
    if ts.ndim > 1:
        raise ValueError(f"t must be a number or a 1-d array of times, got shape {ts.shape}")
    E = _expm_stack(A, np.atleast_1d(ts))
    return E if ts.ndim else E[0]


def _expm_stack(A, ts):
    """The exponentials e^{tA} for the times of the 1-d array ``ts``."""
    if not np.isfinite(ts).all():
        raise ValueError(f"t must be finite, got {_largest(ts)}")
    n = A.shape[0]
    d = np.diagonal(A)
    if np.count_nonzero(A) == np.count_nonzero(d):
        e = np.exp(ts[:, None] * d)
        if np.isfinite(e).all():
            E = np.zeros((ts.size, n, n))
            E.reshape(ts.size, n * n)[:, ::n + 1] = e
            return E
        raise NonFiniteError(f"e^(tA) leaves double precision at t = {_largest(ts):g}")
    X = ts[:, None, None] * A
    norm = np.abs(X).sum(axis=1).max()
    if not norm <= _MAX_NORM:
        raise NonFiniteError(
            f"e^(tA) leaves double precision at t = {_largest(ts):g}: "
            f"||tA||_1 = {norm:.3g} exceeds 1/eps"
        )
    for theta, table in _PADE[:-1]:
        if norm <= theta:
            return _pade(X, table)
    theta, table = _PADE[-1]
    s = max(0, math.ceil(math.log2(norm / theta)))
    E = _pade(X * 2.0 ** -s, table)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(s):
            E = E @ E
    if np.isfinite(E).all():
        return E
    raise NonFiniteError(f"e^(tA) leaves double precision at t = {_largest(ts):g}")


def _largest(ts):
    """The time of largest magnitude, which an error message names."""
    return ts[np.abs(ts).argmax()]


def pinv(M):
    """Moore-Penrose pseudoinverse with the relative rank cutoff.

    Singular values at or below ``REL_THRESHOLD * sigma_max`` are treated as
    zero.  The all-zero matrix maps to the all-zero matrix of transposed
    shape.
    """
    M = as_matrix(M, "M")
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    keep = rank_mask(s)
    if not keep.any():
        return np.zeros((M.shape[1], M.shape[0]))
    inv = np.zeros_like(s)
    inv[keep] = 1.0 / s[keep]
    return (Vt.T * inv) @ U.T


def commutes(A, K, tol=1e-10):
    """Whether ``AK = KA`` up to ``tol`` relative to the product of norms.

    For matrices this is equivalent to the exponential commutation
    ``e^{tA} K = K e^{tA}`` for all t (one implies the other by the power
    series); tests exercise that equivalence on sampled times.
    """
    A = as_matrix(A, "A")
    K = as_matrix(K, "K")
    if A.shape[0] != A.shape[1] or A.shape != K.shape:
        raise ValueError(f"commutation needs equal square shapes, got {A.shape} and {K.shape}")
    scale = np.abs(A).max() * np.abs(K).max()
    if scale == 0.0:
        return True
    resid = np.abs(A @ K - K @ A).max()
    return bool(resid <= tol * scale)


@dataclass(frozen=True)
class RangeInclusion:
    """Outcome of a range-inclusion test ``range(A1) ⊆ range(A2)``.

    ``constant`` is the smallest k with ``||A1^T x|| <= k ||A2^T x||`` for
    all x (finite iff the inclusion holds); ``defect`` is the spectral norm
    of the part of A1 sticking out of range(A2).
    """

    included: bool
    constant: float
    defect: float


def range_inclusion(A1, A2):
    """Test ``range(A1) ⊆ range(A2)`` and compute the smallest norm-domination constant.

    The inclusion holds exactly when there is a finite k with
    ``||A1^T x|| <= k ||A2^T x||`` for every x; the returned ``constant`` is
    the smallest such k, computed as ``||A1^T U (A2^T U)^+||`` with U an
    orthonormal basis of range(A2) (its ``rank_mask``).  Decision rule: the
    projection defect ``||(I - P_range(A2)) A1||`` must be ``negligible``
    against the larger of ||A1|| and ||A2||.
    """
    A1 = as_matrix(A1, "A1")
    A2 = as_matrix(A2, "A2")
    if A1.shape[0] != A2.shape[0]:
        raise ValueError(
            f"operators must share their codomain: got {A1.shape[0]} and {A2.shape[0]} rows"
        )
    U2, s2, _ = np.linalg.svd(A2, full_matrices=False)
    norm1 = np.linalg.norm(A1, 2)
    keep = rank_mask(s2)
    if not keep.any():
        # range(A2) = {0}: included iff A1 = 0
        included = norm1 == 0.0
        return RangeInclusion(included, 0.0 if included else np.inf, float(norm1))
    U = U2[:, keep]
    resid = A1 - U @ (U.T @ A1)
    defect = float(np.linalg.norm(resid, 2))
    if not negligible(defect, max(norm1, s2[0])):
        return RangeInclusion(False, np.inf, defect)
    M1 = A1.T @ U
    M2 = A2.T @ U
    k = float(np.linalg.norm(M1 @ pinv(M2), 2))
    return RangeInclusion(True, k, defect)


def commuting_pinv_compose(A1, A2):
    """Return ``A2^+ A1`` for commuting A1, A2 with ``range(A1) ⊆ range(A2)``.

    Under those preconditions the pseudoinverse slides past A1, so the
    result agrees with ``A1 A2^+`` on range(A2) — the compositions commute
    where it matters.  A2 must be symmetric PSD.
    """
    A1 = as_matrix(A1, "A1")
    if not isinstance(A2, SymmetricPSD):
        A2 = SymmetricPSD(A2)
    if not commutes(A1, A2.matrix):
        raise PreconditionError("A1 and A2 do not commute")
    incl = range_inclusion(A1, A2.matrix)
    if not incl.included:
        raise PreconditionError(
            f"range(A1) is not contained in range(A2): defect {incl.defect:.3e}"
        )
    return A2.pinv() @ A1


def negative_type_bound(A, omega=None, t_max=1.0, n_samples=201):
    """Estimate (M, omega) with ``||e^{tA}|| <= M e^{-omega t}`` on samples.

    ``omega`` defaults to the spectral margin ``-max Re lambda(A)``; M is the
    sampled supremum of ``||e^{tA}|| e^{omega t}`` over ``[0, t_max]``.
    """
    A = as_matrix(A, "A")
    if omega is None:
        omega = float(-np.max(np.linalg.eigvals(A).real))
    ts = np.linspace(0.0, t_max, n_samples)
    M = max(np.linalg.norm(expm(A, t), 2) * np.exp(omega * t) for t in ts)
    return float(M), float(omega)


@functools.lru_cache(maxsize=64)
def _gaussian_coefficients(seed, rank, count):
    """A (rank, count) array of independent standard normal draws from
    ``random.Random(seed)``, column by column: the coefficients of ``count``
    seeded random combinations of ``rank`` basis vectors.  The stdlib
    generator keeps ``numpy.random`` (some milliseconds to import) out of a
    run.  Drawn once per arguments and shared, so read-only."""
    rng = random.Random(seed)
    G = np.array([rng.gauss(0.0, 1.0) for _ in range(rank * count)]).reshape(count, rank).T
    G.setflags(write=False)
    return G
