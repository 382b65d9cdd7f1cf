"""Diagonal ("spectral") systems: A = -diag(lambda) and B B^* = diag(b) in
the eigenbasis, so every Gramian quantity is per-mode and closed form."""

import math
from dataclasses import dataclass

import numpy as np

from ..energy import NullControllability, null_controllability_test
from ..gramians import Gramian
from ..linalg import SymmetricPSD
from ..systems import LinearSystem, Model
from .delay import _LATTICE_WORK_CAP

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
]


@dataclass(frozen=True)
class SpectralSystem(Model):
    """Diagonal dynamics: mode n decays at rate lambda_n, control weight b_n.

    Models the stable self-adjoint case where A = -diag(lambda) and
    B B^* = diag(b) in the eigenbasis.  All Gramian quantities reduce to
    scalar formulas per mode, which makes this family the reference point
    for validating the generic matrix pipelines.  The matrix system is built
    once, as ``linear``.
    """

    kind = "spectral"

    lambdas: np.ndarray
    bs: np.ndarray

    def __post_init__(self):
        lam = np.atleast_1d(np.asarray(self.lambdas, dtype=float))
        b = np.atleast_1d(np.asarray(self.bs, dtype=float))
        if lam.ndim != 1 or b.shape != lam.shape:
            raise ValueError("lambdas and bs must be 1-d arrays of equal length")
        if lam.size == 0:
            raise ValueError("the spectrum is empty: a spectral model needs at least one mode")
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
        object.__setattr__(self, "linear", self.to_linear_system())
        object.__setattr__(self, "_fingerprint", self.linear.fingerprint())

    @property
    def n(self):
        return self.lambdas.size

    dim = n

    def to_linear_system(self):
        return LinearSystem(np.diag(-self.lambdas), np.diag(np.sqrt(self.bs)))

    def fingerprint(self):
        return self._fingerprint

    def to_json_dict(self):
        return {"lambdas": self.lambdas.tolist(), "bs": self.bs.tolist()}

    def gramian(self, t):
        return spectral_gramian(self, t)

    def null_controllability(self, t):
        return spectral_null_controllability(self, t)


def spectral_gramian(ssys, t):
    """Reachability Gramian of a diagonal system, in closed form.

    Finite horizon: q_n = b_n (1 - e^{-2 lambda_n t}) / (2 lambda_n);
    infinite horizon drops the exponential.  The q_n are the eigenvalues and
    the unit vectors the eigenvectors, handed over in the ascending order
    ``eigh`` would give, with no decomposition.
    """
    lam, b = ssys.lambdas, ssys.bs
    if t == math.inf:
        q = b / (2.0 * lam)
    else:
        t = float(t)
        if t <= 0:
            raise ValueError("horizon must be positive")
        q = b * (-np.expm1(-2.0 * lam * t)) / (2.0 * lam)
    order = np.argsort(q, kind="stable")
    return Gramian(
        Q=SymmetricPSD.from_eigenpairs(q[order], np.eye(q.size)[:, order]),
        horizon=t,
        method="closed_form",
        system_fingerprint=ssys.fingerprint(),
    )


@dataclass(frozen=True)
class SpectralNCReport:
    """Per-mode steering-cost ratios for the flow-into-range test.

    The ratio of mode n is 2 lambda_n e^{-2 lambda_n T0}
    / (b_n (1 - e^{-2 lambda_n T0})), the squared cost of steering the
    n-th eigendirection back to zero over [0, T0], and ``constant`` is the
    largest.  The flow lands inside the reachable range with a uniform
    constant exactly when these ratios stay bounded along the tail; on a
    truncation we certify that by every mode being controlled and the tail
    being non-increasing.  ``finite_dim`` is the range test of the matrix
    system on the same modes.
    """

    satisfied: bool
    constant: float
    all_controlled: bool
    tail_nonincreasing: bool
    finite_dim: NullControllability

    @property
    def verdicts_agree(self):
        return self.satisfied == self.finite_dim.satisfied

    def to_json_dict(self):
        return {
            "satisfied": self.satisfied,
            "constant": self.constant,
            "all_controlled": self.all_controlled,
            "tail_nonincreasing": self.tail_nonincreasing,
            "finite_dim_satisfied": self.finite_dim.satisfied,
            "finite_dim_constant": self.finite_dim.constant,
            "verdicts_agree": self.verdicts_agree,
        }


def spectral_null_controllability(ssys, T0):
    """The per-mode ratio test at T0, beside the range test of ``ssys.linear``."""
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
        all_controlled=all_controlled,
        tail_nonincreasing=tail_nonincreasing,
        finite_dim=null_controllability_test(ssys.linear, T0),
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


def _modes(n_modes):
    """The mode numbers 1, ..., n_modes; ValueError, before anything is
    allocated, when the n_modes x n_modes ``linear`` would have more than
    ``_LATTICE_WORK_CAP`` entries."""
    if n_modes * n_modes > _LATTICE_WORK_CAP:
        raise ValueError(f"{n_modes} modes exceed the cap of {_LATTICE_WORK_CAP:.3g} "
                         "entries in the matrix system")
    return np.arange(1, n_modes + 1, dtype=float)


def landau_ginzburg(n_modes=32):
    """Quadratic spectrum lambda_n = n^2 with unit control weights.

    The classic second-derivative-with-clamped-ends picture; the reachable
    energy space comes out as D(A^{1/2}).
    """
    n = _modes(n_modes)
    return SpectralSystem(lambdas=n**2, bs=np.ones_like(n))


def power_law(alpha, n_modes=32):
    """Quadratic spectrum with control weights b_n = lambda_n^alpha; a
    weight that overflows is left to the matrix system's finite check."""
    lam = _modes(n_modes) ** 2
    with np.errstate(over="ignore"):
        bs = lam ** float(alpha)
    return SpectralSystem(lambdas=lam, bs=bs)


def thin_control_example(n_modes=16):
    """Control weights decaying doubly exponentially: steering cost ratios
    grow without bound, so the flow does not stay in the reachable range
    with a uniform constant.  The far tail underflows to exact zero in
    double precision, which the finite truncation reports as uncontrolled
    modes — both routes reach the same verdict."""
    n = _modes(n_modes)
    with np.errstate(under="ignore"):
        b = np.exp(-np.exp(n))
    return SpectralSystem(lambdas=n, bs=b)
