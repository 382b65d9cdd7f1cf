"""Exact exponential-polynomial algebra used by the delay model."""

import numpy as np
import pytest
from numpy.polynomial import Polynomial
from numpy.testing import assert_allclose, assert_array_equal
from scipy.integrate import quad

from minenergy.exppoly import ExpPoly, PiecewiseExpPoly


def poly(*coeffs):
    return Polynomial(list(coeffs))


def test_const_and_call():
    f = ExpPoly.const(-0.5, 3.0)
    assert f(0.0) == pytest.approx(3.0)
    assert f(2.0) == pytest.approx(3.0)


def test_single_term_evaluation():
    # (1 + 2t) e^{-t}
    f = ExpPoly(-1.0, {1: poly(1.0, 2.0)})
    ts = np.linspace(-1.0, 3.0, 7)
    assert_allclose(f(ts), (1 + 2 * ts) * np.exp(-ts), rtol=1e-14)


def test_addition_merges_exponents():
    f = ExpPoly(-1.0, {0: poly(1.0), 1: poly(2.0)})
    g = ExpPoly(-1.0, {1: poly(3.0), 2: poly(0.0, 1.0)})
    h = f + g
    ts = np.linspace(0.0, 2.0, 9)
    assert_allclose(h(ts), f(ts) + g(ts), rtol=1e-13)


def test_multiplication_adds_exponents():
    f = ExpPoly(-0.7, {1: poly(1.0, 1.0)})
    g = ExpPoly(-0.7, {2: poly(2.0)})
    h = f * g
    ts = np.linspace(0.0, 1.5, 9)
    assert_allclose(h(ts), f(ts) * g(ts), rtol=1e-13)


def test_zero_rate_collapses():
    f = ExpPoly(0.0, {3: poly(1.0, 1.0)})  # e^{3*0*t} = 1
    assert f(5.0) == pytest.approx(6.0)


@pytest.mark.parametrize(
    "terms",
    [
        {0: poly(1.0, -2.0, 0.5)},
        {1: poly(1.0)},
        {2: poly(0.0, 1.0, 1.0)},
        {0: poly(2.0), 1: poly(1.0, 1.0), 3: poly(-0.3, 0.0, 0.25)},
    ],
)
def test_antiderivative_against_quad(terms):
    f = ExpPoly(-0.6, terms)
    F = f.antiderivative()
    for a, b in [(0.0, 1.0), (-0.5, 2.0), (1.3, 1.7)]:
        ref, err = quad(lambda s: f(s), a, b, limit=200)
        assert F(b) - F(a) == pytest.approx(ref, abs=max(1e-12, 10 * err))


def test_shift_is_composition():
    f = ExpPoly(-0.4, {0: poly(1.0, 2.0), 2: poly(0.0, 0.0, 1.0)})
    g = f.shift(0.9)
    ts = np.linspace(-1.0, 1.0, 11)
    assert_allclose(g(ts), f(ts + 0.9), rtol=1e-12, atol=1e-14)


# --- piecewise layer ---


def pw_example():
    # two pieces on [0, 1] and [1, 2.5] with a jump at the seam
    p0 = ExpPoly(-0.5, {0: poly(1.0)})
    p1 = ExpPoly(-0.5, {1: poly(2.0, -1.0)})
    return PiecewiseExpPoly([0.0, 1.0, 2.5], [p0, p1], -0.5)


def test_piecewise_zero_below_start():
    f = pw_example()
    assert f(-0.3) == 0.0
    assert f(0.0) == pytest.approx(1.0)


def test_piecewise_beyond_end_raises():
    f = pw_example()
    with pytest.raises(ValueError):
        f(2.5 + 1e-6)


def test_piecewise_end_clamps_to_last_piece():
    f = pw_example()
    val = (2.0 - 2.5) * np.exp(-0.5 * 2.5)
    assert f(2.5) == pytest.approx(val, rel=1e-13)


def test_piecewise_product_matches_quad():
    f = pw_example()
    g = f.shift(0.3)
    h = f * g
    ref, err = quad(lambda s: f(s) * g(s), 0.0, h.end, points=[1.0, 0.7, 2.2], limit=300)
    assert h.integrate(0.0, h.end) == pytest.approx(ref, abs=max(1e-11, 10 * err))


def test_piecewise_antiderivative_is_continuous():
    f = pw_example()
    F = f.antiderivative()
    # continuity across the interior break even though f jumps there
    eps = 1e-9
    assert F(1.0 - eps) == pytest.approx(F(1.0 + eps), abs=1e-8)
    assert F(f.start) == pytest.approx(0.0, abs=1e-15)


def test_piecewise_integrate_clamps_below_start():
    f = pw_example()
    # region below start contributes zero
    assert f.integrate(-5.0, 1.0) == pytest.approx(f.integrate(0.0, 1.0), rel=1e-13)


def test_piecewise_scale():
    f = pw_example()
    g = f.scale(-2.0)
    ts = np.linspace(0.0, 2.5, 7)
    assert_allclose(g(ts), -2.0 * f(ts), rtol=1e-14)


def test_piecewise_array_matches_pointwise():
    f = pw_example()
    tol = f._tol()
    pts = np.array([-1.0, -tol / 2, 0.0, 0.3, 1.0 - 1e-15, 1.0, 1.0 + 1e-15, 1.7,
                    2.5 - 1e-13, 2.5, 2.5 + tol / 2, 0.3, -0.2])
    vals = f(pts)
    assert_array_equal(vals, [f(float(x)) for x in pts])
    assert vals[0] == 0.0 and vals[-1] == 0.0  # zero below the start
    assert vals[5] == f.pieces[1](1.0)  # a break belongs to the piece on its right
    grid = pts[:12].reshape(3, 4)
    assert_array_equal(f(grid), vals[:12].reshape(3, 4))
    assert isinstance(f(0.3), float)
    assert f(np.array([])).shape == (0,)


def test_piecewise_array_beyond_end_raises():
    f = pw_example()
    with pytest.raises(ValueError, match="beyond the built range"):
        f(np.array([0.5, 2.5 + 1e-6, 1.0]))
