import json
import math
import os

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy.integrate import quad
from scipy.special import gamma, gammainc, hyp1f1

import minenergy as me
import minenergy.cli as cli
from minenergy.energy import _steering_coefficients
from minenergy.models import (
    delay_domain_residual,
    delay_fundamental_solution,
    delay_gramian,
    delay_optimal_control,
    delay_semigroup_matrix,
    landau_ginzburg,
    parse_model,
    power_law,
    shift_benchmark_target,
    shift_control_map,
    shift_gramian,
    shift_value_oracle,
    spectral_gramian,
    spectral_null_controllability,
    spectral_space_h_classification,
    thin_control_example,
)

# ---------------------------------------------------------------- spectral


def test_spectral_gramian_closed_form():
    ssys = me.SpectralSystem([1.0, 4.0, 9.0], [1.0, 1.0, 1.0])
    g = spectral_gramian(ssys, 1.0)
    expected = np.diag([(1 - np.exp(-2 * l)) / (2 * l) for l in (1.0, 4.0, 9.0)])
    assert_allclose(g.Q.matrix, expected, rtol=1e-14)


def test_spectral_fingerprint_is_computed_once(monkeypatch, tmp_path):
    # a system hashes its A and B once, when it is built; every Gramian and
    # every task of a run reads that one digest
    import hashlib

    hashes = []
    sha256 = hashlib.sha256
    monkeypatch.setattr(hashlib, "sha256", lambda *a: hashes.append(1) or sha256(*a))
    ssys = landau_ginzburg(n_modes=6)
    assert len(hashes) == 1
    fps = [spectral_gramian(ssys, t).system_fingerprint for t in (0.25, 0.5, 1.0, 2.0, math.inf)]
    assert fps == [ssys.fingerprint()] * 5
    assert len(hashes) == 1
    scenario = {"model": "spectral:landau-ginzburg(6)", "tasks": list(cli._TASKS),
                "horizons": [0.5, 1.0], "targets": [[1.0] * 6], "K": np.diag([0.5] * 6).tolist(),
                "projector": np.diag([1.0] * 3 + [0.0] * 3).tolist(), "t_star": 1.0}
    hashes.clear()
    cli.run_scenario(scenario, str(tmp_path))
    with open(tmp_path / "report.json") as f:
        assert not [t for t in json.load(f)["tasks"] if "error" in t]
    assert len(hashes) == 1
    monkeypatch.undo()
    assert fps[0] == me.LinearSystem(ssys.A, ssys.B).fingerprint()


def test_spectral_matches_linear_route():
    ssys = landau_ginzburg(n_modes=6)
    g_modes = spectral_gramian(ssys, 0.7).Q.matrix
    g_lin = me.compute_gramian(me.LinearSystem(ssys.A, ssys.B), 0.7).Q.matrix
    assert_allclose(g_modes, g_lin, rtol=1e-12)


def test_spectral_requires_increasing_modes():
    with pytest.raises(ValueError):
        me.SpectralSystem([2.0, 1.0], [1.0, 1.0])


def test_landau_ginzburg_modes():
    ssys = landau_ginzburg(n_modes=5)
    assert_allclose(ssys.lambdas, [1.0, 4.0, 9.0, 16.0, 25.0])
    assert_allclose(ssys.bs, np.ones(5))


@pytest.mark.parametrize("preset,expect", [
    (landau_ginzburg, True),
    (lambda: power_law(0.5), True),
    (lambda: power_law(2.0), True),
    (thin_control_example, False),
])
def test_spectral_nc_verdicts(preset, expect):
    rep = spectral_null_controllability(preset(), 1.0)
    assert rep.satisfied is expect
    if expect:
        assert np.isfinite(rep.constant)


def test_spectral_nc_agrees_with_matrix_route():
    # truncation small enough that the dense-route Gramian is well conditioned
    ssys = me.SpectralSystem([float(n * n) for n in range(1, 7)], [1.0] * 6)
    rep = spectral_null_controllability(ssys, 1.0)
    dense = me.null_controllability_test(me.LinearSystem(ssys.A, ssys.B), 1.0)
    assert rep.satisfied == dense.satisfied
    assert rep.constant == pytest.approx(dense.constant, rel=1e-6)


def test_spectral_nc_constant_scalar_mode():
    ssys = me.SpectralSystem([1.0], [1.0])
    rep = spectral_null_controllability(ssys, 1.0)
    assert rep.constant == pytest.approx(0.31303528549933135, rel=1e-12)


# the first mode's 2 e^{-2 T0} / (1 - e^{-2 T0}), the largest ratio of
# landau_ginzburg(3), by mpmath at 50 digits
@pytest.mark.parametrize("T0, constant", [
    (1e-6, 999999.0000003334), (1e-10, 9999999999.0),
    (1e-12, 999999999999.0), (1e-14, 99999999999999.0),
])
def test_spectral_nc_constant_keeps_its_digits_at_short_horizons(T0, constant):
    # 1 - e^{-2 lam T0} cancels when formed as log1p(-e^{-2 lam T0})
    rep = spectral_null_controllability(landau_ginzburg(3), T0)
    assert rep.constant == pytest.approx(constant, rel=1e-12)
    assert rep.satisfied and rep.verdicts_agree


def test_classification_landau_ginzburg():
    cl = spectral_space_h_classification(landau_ginzburg())
    assert cl.pattern == "power-law"
    assert cl.alpha == pytest.approx(0.0, abs=1e-9)
    assert cl.s_range_full == pytest.approx(1.0, abs=1e-9)
    assert cl.s_range_sqrt == pytest.approx(0.5, abs=1e-9)
    assert cl.description_sqrt == "D(A^0.5)"
    assert not cl.substantially_finite_dimensional


def test_classification_power_law():
    cl = spectral_space_h_classification(power_law(0.5))
    assert cl.alpha == pytest.approx(0.5, abs=1e-9)
    assert cl.s_range_sqrt == pytest.approx(0.25, abs=1e-9)


def test_classification_thin_is_finite_dimensional():
    cl = spectral_space_h_classification(thin_control_example())
    assert cl.pattern == "finite-support"
    assert cl.substantially_finite_dimensional
    assert cl.support_dim < thin_control_example().lambdas.size
    assert "span of" in cl.description_full


# ---------------------------------------------------------------- delay


def dde_rk4(dsys, x0, hist_cells, T, sub=128):
    """Independent RK4 integrator for the scalar delay equation.

    History is sampled as the exact step function; stage evaluations at step
    endpoints take the limit from inside the open step, so lattice-aligned
    jumps of the delayed term never leak across a step boundary.
    """
    h = dsys.h
    step = h / sub
    N = int(round(T / step))
    xs = np.empty(N + 1)
    xs[0] = x0

    def xdel(tau):
        if tau < 0:
            cell = min(int((tau + dsys.delay) / h), dsys.mesh - 1)
            return hist_cells[cell]
        idx = tau / step
        i0 = min(int(math.floor(idx)), N)
        if i0 >= N:
            return xs[N]
        frac = idx - i0
        return xs[i0] * (1 - frac) + xs[i0 + 1] * frac

    eps = 1e-12
    for k in range(N):
        t = k * step
        x = xs[k]

        def f(xv, dt):
            bias = eps if dt == 0.0 else (-eps if dt == step else 0.0)
            return dsys.a0 * xv + dsys.a1 * xdel(t + dt - dsys.delay + bias)

        k1 = f(x, 0.0)
        k2 = f(x + 0.5 * step * k1, 0.5 * step)
        k3 = f(x + 0.5 * step * k2, 0.5 * step)
        k4 = f(x + step * k3, step)
        xs[k + 1] = x + (step / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
    return xs, step


@pytest.fixture
def dsys():
    return me.DelaySystem(a0=-0.3, a1=0.6, b0=1.0, delay=1.0, mesh=8)


def test_fundamental_solution_hand_derived_segments():
    # a0 = 0, a1 = 1, d = 1: g is 1, then 1 + (t-1), then 2 + (t-2) + (t-2)^2/2
    sys_ = me.DelaySystem(a0=0.0, a1=1.0, b0=1.0, delay=1.0, mesh=2)
    g = delay_fundamental_solution(sys_, 3.0)
    assert g(0.5) == pytest.approx(1.0)
    assert g(1.5) == pytest.approx(1.5)
    assert g(2.5) == pytest.approx(2.625)
    assert g(0.0) == pytest.approx(1.0)


def test_fundamental_solution_satisfies_dde(dsys):
    g = delay_fundamental_solution(dsys, 3.0)
    for t in (0.4, 1.3, 2.7):
        h = 1e-6
        dg = (g(t + h) - g(t - h)) / (2 * h)
        delayed = g(t - dsys.delay) if t >= dsys.delay else 0.0
        assert dg == pytest.approx(dsys.a0 * g(t) + dsys.a1 * delayed, abs=1e-7)


def test_fundamental_solution_zero_below_start(dsys):
    g = delay_fundamental_solution(dsys, 3.0)
    for f in (g, g.F, g.F2):
        assert f(-0.3) == 0.0
    assert g(0.0) == 1.0 and g.F(0.0) == 0.0


def test_fundamental_solution_beyond_built_range_raises(dsys):
    g = delay_fundamental_solution(dsys, 2.5)  # built on whole delay intervals
    assert g.end == 3.0
    for f in (g, g.F, g.F2):
        with pytest.raises(ValueError, match="beyond the built range"):
            f(3.0 + 1e-6)


def test_fundamental_solution_array_beyond_built_range_raises(dsys):
    g = delay_fundamental_solution(dsys, 2.5)
    for f in (g, g.F, g.F2):
        with pytest.raises(ValueError, match="beyond the built range"):
            f(np.array([0.5, g.end + 1e-6, 1.0]))


def test_fundamental_solution_end_belongs_to_last_cell(dsys):
    g = delay_fundamental_solution(dsys, 2.5)
    for f in (g, g.F, g.F2):
        assert f(g.end) == pytest.approx(f(g.end - 1e-13), rel=1e-10)


def test_fundamental_solution_array_matches_pointwise(dsys):
    g = delay_fundamental_solution(dsys, 3.0)
    h = dsys.h
    pts = np.array([-1.0, -1e-14, 0.0, 0.3, h - 1e-15, h, h + 1e-15, 1.7,
                    3.0 - 1e-13, 3.0, 0.3, -0.2])
    for f in (g, g.F, g.F2):
        vals = f(pts)
        assert_array_equal(vals, [f(float(x)) for x in pts])
        assert vals[0] == 0.0 and vals[-1] == 0.0  # zero below the start
        assert_array_equal(f(pts.reshape(3, 4)), vals.reshape(3, 4))
        assert isinstance(f(0.3), float)
        assert f(np.array([])).shape == (0,)


def test_fundamental_solution_antiderivatives_continuous_across_cells(dsys):
    g = delay_fundamental_solution(dsys, 3.0)
    for lattice in (dsys.h, 1.0, 2.0 + 3 * dsys.h):
        for f in (g, g.F, g.F2):
            assert f(lattice - 1e-12) == pytest.approx(f(lattice + 1e-12), abs=1e-10)


def _mp_moment(a, u, k):
    """The integral over [0, u] of e^{a s} s^k in 50-digit arithmetic."""
    return u ** (k + 1) / (k + 1) * mpmath.hyp1f1(k + 1, k + 2, a * u)


def _closed_form(a0, a1, d, ts):
    """g(t) = sum over k <= t/d of a1^k (t - kd)^k e^{a0 (t - kd)} / k!, and
    its integral F from 0, term by term in 50-digit arithmetic."""
    with mpmath.workdps(50):
        a0, a1, d = mpmath.mpf(a0), mpmath.mpf(a1), mpmath.mpf(d)
        out = []
        for t in ts:
            t = mpmath.mpf(float(t))
            g = F = mpmath.mpf(0)
            k = 0
            while k * d <= t:
                u = t - k * d
                c = a1**k / mpmath.factorial(k)
                g += c * u**k * mpmath.exp(a0 * u)
                F += c * _mp_moment(a0, u, k)
                k += 1
            out.append((float(g), float(F)))
    return np.array(out).T


@pytest.mark.parametrize("a0,a1,d,mesh,t_max", [
    (-2.0, 1.5, 0.5, 32, 15.0),
    (0.0, -0.555, 1.0, 32, 60.0),
    (-1e-3, -0.555, 1.0, 32, 60.0),
    (1e-3, -0.555, 1.0, 32, 60.0),
    (-100.0, 1.5, 1.0, 8, 5.0),
    (1.0, -3.0, 1.0, 32, 30.0),
])
def test_fundamental_solution_matches_closed_form(a0, a1, d, mesh, t_max):
    sys_ = me.DelaySystem(a0=a0, a1=a1, b0=1.0, delay=d, mesh=mesh)
    fund = delay_fundamental_solution(sys_, t_max)
    ts = np.linspace(0.0, t_max, 97)  # on and off the lattice
    g_ref, F_ref = _closed_form(a0, a1, d, ts)
    assert np.abs(fund(ts) - g_ref).max() <= 1e-12 * np.abs(g_ref).max()
    assert np.abs(fund.F(ts) - F_ref).max() <= 1e-12 * np.abs(F_ref).max()


def _moment(a, u, k):
    if a < 0 and -a * u > 1:
        return gamma(k + 1) / (-a) ** (k + 1) * gammainc(k + 1, -a * u)
    return u ** (k + 1) / (k + 1) * hyp1f1(k + 1, k + 2, a * u)


def _closed_form_kernel(sys_, i, tau):
    """Row i of the control-to-mesh kernel at elapsed time tau, from the
    closed forms of g and F."""
    a0, a1, d, h = sys_.a0, sys_.a1, sys_.delay, sys_.h

    def g_F(u):
        g = F = 0.0
        k = 0
        while u >= 0 and k * d <= u:
            c = a1**k / math.factorial(k)
            g += c * (u - k * d) ** k * math.exp(a0 * (u - k * d))
            F += c * _moment(a0, u - k * d, k)
            k += 1
        return g, F

    if i == 0:
        return sys_.b0 * g_F(tau)[0]
    c = i * h - d
    return sys_.b0 * (g_F(tau + c)[1] - g_F(tau + c - h)[1]) / math.sqrt(h)


@pytest.mark.parametrize("a0,a1,t", [
    (-1e-3, -0.555, 2.3), (0.0, -0.555, 2.3), (1e-3, -0.555, 2.3), (-100.0, 1.5, 1.3),
])
def test_delay_gramian_matches_quad_of_closed_form(a0, a1, t):
    # t is off the lattice, so the last panel is a partial cell
    sys_ = me.DelaySystem(a0=a0, a1=a1, b0=1.0, delay=1.0, mesh=8)
    G = delay_gramian(sys_, t).Q.matrix
    pts = list(np.arange(sys_.h, t, sys_.h))
    for i, j in [(0, 0), (0, 3), (2, 5), (8, 8), (0, 8)]:
        ref, _ = quad(lambda tau: _closed_form_kernel(sys_, i, tau)
                      * _closed_form_kernel(sys_, j, tau), 0.0, t, points=pts, limit=400)
        assert G[i, j] == pytest.approx(ref, abs=1e-12)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    a0=st.one_of(st.just(0.0), st.floats(-3.0, 3.0)),
    a1=st.floats(-3.0, 3.0).filter(lambda a: abs(a) > 1e-3),
    delay=st.floats(0.5, 2.0),
    mesh=st.sampled_from([2, 4, 8]),
    u=st.floats(0.0, 1.0),
    v=st.floats(0.0, 1.0),
)
def test_delay_gramian_grows_with_the_horizon(a0, a1, delay, mesh, u, v):
    sys_ = me.DelaySystem(a0=a0, a1=a1, b0=1.0, delay=delay, mesh=mesh)
    lo, hi = 2 * sys_.h, 10 * delay  # from the coarsest horizon to ten delays
    t1, t2 = sorted((lo + u * (hi - lo), lo + v * (hi - lo)))
    if t2 - t1 < 1e-6:
        t2 = t1 + sys_.h
    Q2 = delay_gramian(sys_, t2).Q.matrix
    gap = Q2 - delay_gramian(sys_, t1).Q.matrix
    assert np.linalg.eigvalsh(0.5 * (gap + gap.T)).min() >= -1e-12 * np.linalg.norm(Q2, 2)


def test_delay_gramian_symmetric_psd(dsys):
    for t in (0.75, 1.5, 2.25):
        g = delay_gramian(dsys, t)
        M = g.Q.matrix
        assert_allclose(M, M.T, atol=1e-14)
        assert np.linalg.eigvalsh(M).min() >= -1e-12


def test_delay_gramian_entries_vs_quad(dsys):
    t = 1.5
    g = delay_fundamental_solution(dsys, t)
    G = delay_gramian(dsys, t).Q.matrix
    h, d, b0 = dsys.h, dsys.delay, dsys.b0

    def W(u):
        return g.F(u) - g.F(u - h)

    def k(i, s):
        if i == 0:
            return b0 * g(t - s) if t - s >= 0 else 0.0
        j = i - 1
        c = (j + 1) * h - d
        return (b0 / math.sqrt(h)) * W(t + c - s)

    pts = list(np.arange(0.0, t, h))
    for (i, j) in [(0, 0), (0, 4), (4, 6), (1, 1)]:
        ref, err = quad(lambda s: k(i, s) * k(j, s), 0.0, t, points=pts, limit=400)
        assert G[i, j] == pytest.approx(ref, abs=max(1e-9, 20 * err))


def test_delay_gramian_mesh_refinement_consistent():
    # head-state variance entry is mesh independent; refined meshes must agree
    vals = []
    for mesh in (8, 16, 32):
        sys_ = me.DelaySystem(a0=-0.3, a1=0.6, b0=1.0, delay=1.0, mesh=mesh)
        vals.append(delay_gramian(sys_, 1.5).Q.matrix[0, 0])
    assert vals[0] == pytest.approx(vals[2], rel=1e-12)
    assert vals[1] == pytest.approx(vals[2], rel=1e-12)


def test_delay_semigroup_identity_at_zero(dsys):
    assert_allclose(delay_semigroup_matrix(dsys, 0.0), np.eye(dsys.dim), atol=1e-12)


@pytest.mark.parametrize("T0", [0.5, 1.25, 2.0])
def test_delay_semigroup_vs_dde_integration(dsys, T0):
    S = delay_semigroup_matrix(dsys, T0)
    M = dsys.mesh
    for j in range(M + 1):
        x0 = 1.0 if j == 0 else 0.0
        hist = np.zeros(M)
        if j > 0:
            hist[j - 1] = 1.0 / math.sqrt(dsys.h)
        xs, step = dde_rk4(dsys, x0, hist, T0)
        col = np.empty(M + 1)
        col[0] = xs[-1]
        for cell in range(M):
            lo = T0 - dsys.delay + cell * dsys.h
            if lo + dsys.h <= 1e-12:
                src = min(int((lo + 1e-9 + dsys.delay) / dsys.h), M - 1)
                col[cell + 1] = hist[src] * math.sqrt(dsys.h)
            else:
                i0 = int(round(lo / step))
                i1 = int(round((lo + dsys.h) / step))
                col[cell + 1] = (
                    np.trapezoid(xs[i0 : i1 + 1], dx=step) / dsys.h * math.sqrt(dsys.h)
                )
        assert np.abs(S[:, j] - col).max() < 1e-6


def _semigroup_scalar_loop(sys_, T0):
    """The mesh semigroup entry by entry, one scalar evaluation at a time."""
    M, h, d, a1 = sys_.mesh, sys_.h, sys_.delay, sys_.a1
    g = delay_fundamental_solution(sys_, T0)
    F, F2 = g.F, g.F2
    c = np.arange(1, M + 1, dtype=float) * h - d
    rt_h = math.sqrt(h)
    S = np.zeros((M + 1, M + 1))
    S[0, 0] = g(T0)
    for k in range(M):
        S[1 + k, 0] = (F(T0 + c[k]) - F(T0 + c[k] - h)) / rt_h
    for j in range(M):
        S[0, 1 + j] = (a1 / rt_h) * (F(T0 - j * h) - F(T0 - (j + 1) * h))
        for k in range(M):
            a = T0 - d + (k - j) * h
            b = a + h
            duhamel = (a1 / h) * (F2(b) - F2(a) - F2(b - h) + F2(a - h))
            lo = max(-d + k * h, -d + j * h - T0)
            hi = min(-d + (k + 1) * h, -d + (j + 1) * h - T0, -T0)
            S[1 + k, 1 + j] = duhamel + max(0.0, hi - lo) / h
    return S


@pytest.mark.parametrize("T0", [0.0, 0.3, 1.0, 1.7, 2.5])
def test_delay_semigroup_matches_scalar_loop(dsys, T0):
    assert_allclose(delay_semigroup_matrix(dsys, T0), _semigroup_scalar_loop(dsys, T0),
                    rtol=0, atol=1e-14)


def test_delay_domain_residual_vanishes(dsys):
    # columns of the Gramian lie in the compatibility set: the head value
    # matches the right endpoint of the history profile
    res = delay_domain_residual(dsys, 1.5)
    assert res < 0.05  # O(h) cell-averaging gap at mesh 8


def test_delay_domain_residual_shrinks_with_mesh():
    vals = []
    for mesh in (8, 16, 32, 64):
        sys_ = me.DelaySystem(a0=-0.3, a1=0.6, b0=1.0, delay=1.0, mesh=mesh)
        vals.append(delay_domain_residual(sys_, 1.5))
    assert vals[-1] < vals[0] / 4  # at least first-order decay
    assert all(b <= a * 1.05 for a, b in zip(vals, vals[1:]))


def test_delay_control_energy_converges_to_value():
    # head 1 over a zero history: the least-norm control's trapezoid energy
    # tends to the value on the same mesh Gramian as the grid refines
    sys_ = me.DelaySystem(a0=-0.5, a1=0.8, b0=1.0, delay=1.0, mesh=8)
    gram = delay_gramian(sys_, 1.5)
    x = np.r_[1.0, np.zeros(8)]
    value = me.value_function(gram, x)
    gaps = []
    for grid in (129, 1025):
        signal = delay_optimal_control(sys_, gram, x, grid=grid)
        assert signal.values.shape == (grid, 1)
        assert_array_equal(signal.grid, np.linspace(-1.5, 0.0, grid))
        gaps.append(abs(signal.energy() - value) / value)
    assert gaps[1] <= 1e-4
    assert gaps[1] <= gaps[0] / 30


def _control_pointwise(sys_, gram, x, grid):
    """The least-norm delay control with every kernel value its own
    evaluation of g or F at its own point: M + 1 per sample time, applied
    to the same z = Q_t^+ x as the control."""
    z = _steering_coefficients(gram, x, grid, "control", sys_.mesh + 1)
    g = delay_fundamental_solution(sys_, gram.horizon)
    rs = np.linspace(-gram.horizon, 0.0, grid)
    u = -rs[:, None] + np.arange(1, sys_.mesh + 1, dtype=float) * sys_.h - sys_.delay
    cells = (g.F(u) - g.F(u - sys_.h)) @ z[1:]
    return sys_.b0 * (g(-rs) * z[0] + cells / math.sqrt(sys_.h))


@pytest.mark.parametrize("mesh,grid", [(8, 17), (8, 129), (32, 17), (32, 129)])
@pytest.mark.parametrize("a0", [-0.7, 0.0, 0.3])
def test_delay_control_matches_pointwise(mesh, grid, a0):
    # whole-delay horizons put the first sample at the end of the built
    # range, which the lattice reads on the last cell at local time h
    sys_ = me.DelaySystem(a0=a0, a1=0.6, b0=1.2, delay=1.0, mesh=mesh)
    for t in (0.5, 1.0, 1.5, 2.0, 2.5):
        gram = delay_gramian(sys_, t)
        live = (np.arange(mesh) + 1) * sys_.h > sys_.delay - t + 1e-12
        x = np.r_[0.5, np.where(live, np.linspace(0.05, 0.2, mesh), 0.0)]
        signal = delay_optimal_control(sys_, gram, x, grid=grid)
        assert_allclose(signal.values[:, 0], _control_pointwise(sys_, gram, x, grid),
                        rtol=1e-13, atol=0)


def test_delay_null_controllability_past_one_delay():
    sys_ = me.DelaySystem(a0=-0.3, a1=0.6, b0=1.0, delay=1.0, mesh=16)
    rep = sys_.null_controllability(2.0)
    assert rep.satisfied
    assert rep.defect < 1e-9
    assert np.isfinite(rep.constant)


def test_delay_null_controllability_fails_below_delay():
    sys_ = me.DelaySystem(a0=-0.3, a1=0.6, b0=1.0, delay=1.0, mesh=16)
    rep = sys_.null_controllability(0.5)
    assert not rep.satisfied
    assert rep.defect > 0.5  # untouched history cells: order-one defect


def test_delay_mesh_resolution_guard():
    sys_ = me.DelaySystem(a0=-0.3, a1=0.6, b0=1.0, delay=1.0, mesh=2)
    with pytest.raises(me.MeshResolutionError):
        delay_gramian(sys_, 0.05)  # horizon far below the cell width


def test_delay_validation():
    with pytest.raises(me.MeshResolutionError):
        me.DelaySystem(a0=0.0, a1=1.0, b0=1.0, delay=1.0, mesh=3)  # odd
    with pytest.raises(ValueError):
        me.DelaySystem(a0=0.0, a1=0.0, b0=1.0, delay=1.0, mesh=8)  # a1 = 0
    with pytest.raises(ValueError):
        me.DelaySystem(a0=0.0, a1=1.0, b0=1.0, delay=-1.0, mesh=8)
    for bad in (math.nan, math.inf):
        for name in ("a0", "a1", "b0", "delay"):
            args = dict(a0=-0.7, a1=0.5, b0=1.0, delay=1.0, mesh=8)
            args[name] = bad
            with pytest.raises(ValueError, match="finite"):
                me.DelaySystem(**args)


# ---------------------------------------------------------------- shift


def test_shift_control_map_shape_and_scale():
    sh = me.ShiftSystem(16)
    L = shift_control_map(sh, 0.5)
    assert L.shape == (16, 8)


def test_shift_defect_quarter_exceeds_tail_bound():
    # at t = 1/4 the profile on (1/2, 1] is untouched; the L2 mass of the
    # target there, 1/(4 sqrt(2)), lower-bounds the defect
    for m in (64, 256, 512):
        sh = me.ShiftSystem(m)
        rep = sh.steer(0.25, shift_benchmark_target(m))
        assert rep.defect >= 0.17
        assert rep.defect == pytest.approx(0.1786, abs=2e-3)


def test_shift_defect_unit_time_vanishes():
    for m in (64, 512):
        sh = me.ShiftSystem(m)
        rep = sh.steer(1.0, shift_benchmark_target(m))
        assert rep.defect < 1e-3
        assert sh.gramian(1.0).Q.rank == m


@pytest.mark.parametrize("t", [0.25, 1.0])
def test_shift_steer_is_the_least_norm_control(t):
    # the defect is the residual of the least-norm lattice coefficients
    # v = L^+ f_hat, and the value is their energy (1/2) h |v|^2
    sh = me.ShiftSystem(32)
    target = shift_benchmark_target(32)
    rep = sh.steer(t, target)
    L = shift_control_map(sh, t)
    f_hat = math.sqrt(sh.h) * target
    v = np.linalg.pinv(L, rcond=1e-10) @ f_hat
    assert np.linalg.norm(f_hat - L @ v) == pytest.approx(rep.defect, abs=1e-12)
    if t == 1.0:
        assert rep.category == "in_range_Q"
        assert rep.value == pytest.approx(0.5 * sh.h * float(v @ v), rel=1e-10)
    else:
        assert rep.category == "unreachable" and rep.value is None


@pytest.mark.parametrize("t", [0.25, 0.5, 1.0])
def test_shift_gramian_is_the_overlap_gramian(t):
    sh = me.ShiftSystem(16)
    L = shift_control_map(sh, t)
    gram = shift_gramian(sh, t)
    assert (gram.horizon, gram.method, gram.system_fingerprint) == (t, "closed_form",
                                                                    sh.fingerprint())
    # SymmetricPSD.from_factor rebuilds the matrix from the SVD of L: within
    # roundoff of the largest eigenvalue
    assert np.abs(gram.matrix - L @ L.T).max() <= 1e-15 * gram.Q.eigenvalues[-1]


@pytest.mark.parametrize("t", [0.25, 1.0])
def test_shift_report_value_matches_gramian_oracle(t):
    # the oracle factors L by QR, apart from the SVD route of the report
    sh = me.ShiftSystem(16)
    target = shift_benchmark_target(16)
    rep = sh.steer(t, target)
    assert (rep.category == "in_range_Q") == (t == 1.0)
    if t == 1.0:
        assert rep.value == pytest.approx(shift_value_oracle(sh, t)(target), rel=1e-12)
    else:
        assert rep.value is None


@pytest.mark.parametrize("t", [1.0, 1.5])
def test_shift_value_oracle_meets_the_svd_value_at_m128(t):
    # square (t = 1) and wide (t = 1.5) control maps with cond(L) = 2.3e4:
    # through (L L^T)^+ the squared condition number cost 4e-9 at t = 1
    sh = me.ShiftSystem(128)
    target = shift_benchmark_target(128)
    rep = sh.steer(t, target)
    assert rep.category == "in_range_Q"
    assert rep.value == pytest.approx(shift_value_oracle(sh, t)(target), rel=1e-12)


def test_shift_lattice_alignment_guard():
    sh = me.ShiftSystem(64)
    with pytest.raises(me.PreconditionError):
        shift_control_map(sh, 0.1234567)


def test_shift_mesh_multiple_of_four():
    with pytest.raises(me.MeshResolutionError):
        me.ShiftSystem(10)


# ---------------------------------------------------------------- the model calls


GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def _golden_nc_keys(case):
    """The keys of a golden null-controllability entry, less the CLI's labels."""
    with open(os.path.join(GOLDEN, case, "expected", "report.json")) as f:
        tasks = json.load(f)["tasks"]
    entry = next(t for t in tasks if t["task"] == "null-controllability")["results"][0]
    return set(entry) - {"formula", "horizon"}


MODELS = {
    "linear": lambda: me.LinearSystem([[-1.0, 0.5], [0.0, -2.0]], [[0.0], [1.0]]),
    "spectral": lambda: landau_ginzburg(n_modes=4),
    "delay": lambda: me.DelaySystem(a0=-0.7, a1=0.6, b0=1.0, delay=1.0, mesh=4),
    "shift": lambda: me.ShiftSystem(8),
}


@pytest.mark.parametrize("kind", sorted(MODELS))
def test_every_model_answers_the_cli_calls(kind):
    model = MODELS[kind]()
    t = 1.0
    assert model.kind == kind
    assert isinstance(model, me.LinearSystem) == (kind in ("linear", "spectral"))
    assert (model.no_infinite_horizon is None) == (kind in ("linear", "spectral"))
    assert isinstance(model.to_json_dict(), dict)
    gram = model.gramian(t)
    assert isinstance(gram, me.Gramian)
    assert gram.horizon == t and gram.system_fingerprint == model.fingerprint()
    assert gram.matrix.shape == (model.dim, model.dim)
    targets = model.default_targets() or [np.linspace(1.0, 2.0, model.dim)]
    for x in targets:
        steering = model.steer(t, x)
        if kind != "shift":  # the shift model steers by the SVD of its control map
            cls = me.steer(gram, x)
            assert (steering.category, steering.defect) == (cls.category, cls.defect)
            assert steering.value == me.value_function(gram, x)
        signal = model.least_norm_control(t, x, 9)
        assert (signal is None) == (kind == "shift")
        if signal is not None:
            assert signal[0].values.shape[0] == 9
            assert (signal[1] is None) == (kind == "delay")
        oracle, = model.value_oracles([t])
        if oracle is not None:
            assert oracle(x) == pytest.approx(steering.value, rel=1e-9)
    if kind == "shift":
        with pytest.raises(me.ScenarioError):
            model.null_controllability(t)
    else:
        golden = {"linear": "dense3", "spectral": "spectral", "delay": "delay"}[kind]
        assert set(model.null_controllability(t).to_json_dict()) == _golden_nc_keys(golden)


# ---------------------------------------------------------------- parsing


@pytest.mark.parametrize("text,cls", [
    ("spectral:landau-ginzburg(8)", me.SpectralSystem),
    ("spectral:power-law(1.5)", me.SpectralSystem),
    ("spectral:power-law(1.5,12)", me.SpectralSystem),
    ("spectral:thin-control", me.SpectralSystem),
    ("delay(-0.3,0.6,1.0,1.0)", me.DelaySystem),
    ("shift(64)", me.ShiftSystem),
])
def test_parse_model_kinds(text, cls):
    assert isinstance(parse_model(text), cls)


def test_parse_model_rejects_garbage():
    with pytest.raises(me.ScenarioError):
        parse_model("banana(3)")


def test_parse_model_mesh_passthrough():
    m = parse_model("delay(-0.3,0.6,1.0,1.0)", mesh=16)
    assert m.mesh == 16
