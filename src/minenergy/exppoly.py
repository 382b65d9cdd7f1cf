"""Exact piecewise exponential-polynomial functions.

Delay dynamics propagated by the method of steps live in the algebra
spanned by t^k e^{j a t} (integer j >= 0, one base rate a): stepping across
a delay interval integrates a shifted copy of the previous segment, which
stays inside the algebra.  Keeping the representation symbolic makes every
downstream integral (cell averages, Gramian entries) exact up to roundoff
— there is no quadrature error anywhere in the delay pipeline.
"""

import numpy as np
from numpy.polynomial import Polynomial

__all__ = ["ExpPoly", "PiecewiseExpPoly"]


def _poly(c):
    return c if isinstance(c, Polynomial) else Polynomial(c)


class ExpPoly:
    """Finite sum  sum_j p_j(t) * exp(j * rate * t)  with polynomial p_j.

    ``terms`` maps the integer exponent multiplier j to its polynomial.
    With rate == 0 everything collapses to the single key 0.
    """

    __slots__ = ("rate", "terms")

    def __init__(self, rate, terms=None):
        self.rate = float(rate)
        clean = {}
        for j, p in (terms or {}).items():
            p = _poly(p)
            if p.coef.size == 1 and p.coef[0] == 0.0:
                continue
            j = 0 if self.rate == 0.0 else int(j)
            if j in clean:
                clean[j] = clean[j] + p
            else:
                clean[j] = p
        self.terms = clean

    @classmethod
    def zero(cls, rate):
        return cls(rate, {})

    @classmethod
    def const(cls, rate, c):
        return cls(rate, {0: Polynomial([float(c)])})

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t, dtype=float)
        for j, p in self.terms.items():
            if j == 0:
                out = out + p(t)
            else:
                out = out + p(t) * np.exp(j * self.rate * t)
        return out

    def __add__(self, other):
        if self.rate != other.rate:
            raise ValueError("cannot combine differing base rates")
        terms = dict(self.terms)
        for j, p in other.terms.items():
            terms[j] = terms[j] + p if j in terms else p
        return ExpPoly(self.rate, terms)

    def __sub__(self, other):
        return self + other.scale(-1.0)

    def __mul__(self, other):
        if self.rate != other.rate:
            raise ValueError("cannot combine differing base rates")
        terms = {}
        for j1, p1 in self.terms.items():
            for j2, p2 in other.terms.items():
                j = j1 + j2
                q = p1 * p2
                terms[j] = terms[j] + q if j in terms else q
        return ExpPoly(self.rate, terms)

    def scale(self, c):
        return ExpPoly(self.rate, {j: p * float(c) for j, p in self.terms.items()})

    def shift(self, c):
        """The function t -> f(t + c), exactly."""
        x = Polynomial([float(c), 1.0])
        terms = {}
        for j, p in self.terms.items():
            q = p(x)
            if j != 0:
                q = q * float(np.exp(j * self.rate * c))
            terms[j] = terms[j] + q if j in terms else q
        return ExpPoly(self.rate, terms)

    def antiderivative(self):
        """An antiderivative inside the algebra (integration constant zero).

        For j != 0 the antiderivative of p e^{jat} is r e^{jat} with
        r = sum_i (-1)^i p^(i) / (ja)^{i+1}, a finite sum.
        """
        terms = {}
        for j, p in self.terms.items():
            if j == 0:
                terms[0] = terms.get(0, Polynomial([0.0])) + p.integ()
                continue
            a = j * self.rate
            r = Polynomial([0.0])
            q = p
            sign = 1.0
            power = 1.0 / a
            while True:
                r = r + q * (sign * power)
                if q.coef.size <= 1:
                    break
                q = q.deriv()
                sign = -sign
                power = power / a
            terms[j] = terms.get(j, Polynomial([0.0])) + r
        return ExpPoly(self.rate, terms)


def _merge_breaks(arrays, lo, hi, tol):
    pts = np.concatenate([np.asarray(a, dtype=float) for a in arrays] + [[lo, hi]])
    pts = pts[(pts >= lo - tol) & (pts <= hi + tol)]
    pts = np.unique(np.clip(pts, lo, hi))
    keep = [pts[0]]
    for p in pts[1:]:
        if p - keep[-1] > tol:
            keep.append(p)
    keep[-1] = hi
    if len(keep) == 1:
        keep = [lo, hi]
    keep[0] = lo
    return np.array(keep)


class PiecewiseExpPoly:
    """Piecewise ExpPoly on [breaks[0], breaks[-1]], zero below the start.

    Evaluation beyond the built range raises (the representation is only
    known where it was constructed); evaluation below the start returns 0,
    matching the causal convention of fundamental solutions.
    """

    def __init__(self, breaks, pieces, rate):
        breaks = np.asarray(breaks, dtype=float)
        if breaks.ndim != 1 or breaks.size < 2 or np.any(np.diff(breaks) <= 0):
            raise ValueError("breaks must be strictly ascending with >= 2 entries")
        if len(pieces) != breaks.size - 1:
            raise ValueError("need exactly one piece per interval")
        self.breaks = breaks
        self.pieces = list(pieces)
        self.rate = float(rate)

    @property
    def start(self):
        return float(self.breaks[0])

    @property
    def end(self):
        return float(self.breaks[-1])

    def _tol(self):
        return 1e-12 * max(1.0, abs(self.start), abs(self.end))

    def _piece_indices(self, flat):
        """Index of the piece owning each point of a 1-d array, -1 below the start.

        Points within the break tolerance of an end belong to the end piece;
        a point beyond the end raises.
        """
        tol = self._tol()
        beyond = flat > self.end + tol
        if beyond.any():
            raise ValueError(
                f"evaluation at {flat[np.argmax(beyond)]:g} beyond the built range "
                f"[{self.start:g}, {self.end:g}]"
            )
        idx = np.searchsorted(self.breaks, np.clip(flat, self.start, self.end),
                              side="right") - 1
        np.clip(idx, 0, len(self.pieces) - 1, out=idx)
        idx[flat < self.start - tol] = -1
        return idx

    def __call__(self, t):
        """Evaluate at a scalar (returns a float) or elementwise on an array.

        One ``searchsorted`` locates every point; each piece then runs once
        on the points it owns.  Points below the start give 0.
        """
        arr = np.asarray(t, dtype=float)
        flat = arr.ravel()
        idx = self._piece_indices(flat)
        out = np.zeros_like(flat)
        order = np.argsort(idx, kind="stable")
        cuts = np.flatnonzero(np.diff(idx[order])) + 1
        for sel in np.split(order, cuts):
            k = idx[sel[0]] if sel.size else -1
            if k >= 0:
                out[sel] = self.pieces[k](flat[sel])
        return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)

    def _pieces_at(self, points):
        """The piece valid at each point, the zero function below the start."""
        zero = ExpPoly.zero(self.rate)
        return [zero if k < 0 else self.pieces[k] for k in self._piece_indices(points)]

    def _combine(self, other, op):
        if self.rate != other.rate:
            raise ValueError("cannot combine differing base rates")
        lo = min(self.start, other.start)
        hi = min(self.end, other.end)
        if hi <= lo:
            raise ValueError("combined domain is empty")
        tol = max(self._tol(), other._tol())
        breaks = _merge_breaks([self.breaks, other.breaks], lo, hi, tol)
        mids = 0.5 * (breaks[:-1] + breaks[1:])
        pieces = [op(p, q) for p, q in zip(self._pieces_at(mids), other._pieces_at(mids))]
        return PiecewiseExpPoly(breaks, pieces, self.rate)

    def __add__(self, other):
        return self._combine(other, lambda p, q: p + q)

    def __sub__(self, other):
        return self._combine(other, lambda p, q: p - q)

    def __mul__(self, other):
        return self._combine(other, lambda p, q: p * q)

    def scale(self, c):
        return PiecewiseExpPoly(self.breaks, [p.scale(c) for p in self.pieces], self.rate)

    def shift(self, c):
        """The function t -> f(t + c)."""
        return PiecewiseExpPoly(self.breaks - float(c),
                                [p.shift(c) for p in self.pieces], self.rate)

    def antiderivative(self):
        """Continuous antiderivative F with F(start) = 0 (and F = 0 below)."""
        pieces = []
        running = 0.0
        for (a, b), p in zip(zip(self.breaks[:-1], self.breaks[1:]), self.pieces):
            G = p.antiderivative()
            Ga, Gb = G(np.array([a, b]))
            pieces.append(G + ExpPoly.const(self.rate, running - Ga))
            running = running + (Gb - Ga)
        return PiecewiseExpPoly(self.breaks, pieces, self.rate)

    def integrate(self, a, b):
        """∫_a^b f, with the zero-below convention applied to both limits."""
        F = self.antiderivative()

        def val(x):
            if x < self.start:
                return 0.0
            return F(x)

        return val(b) - val(a)
