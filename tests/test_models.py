import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

import minenergy as me
from minenergy.models import (
    delay_domain_residual,
    delay_fundamental_solution,
    delay_gramian,
    delay_kernels,
    delay_null_controllability,
    delay_semigroup_matrix,
    landau_ginzburg,
    parse_model,
    power_law,
    shift_benchmark_target,
    shift_control_map,
    shift_reachable_defect,
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


def test_spectral_matches_linear_route():
    ssys = landau_ginzburg(n_modes=6)
    g_modes = spectral_gramian(ssys, 0.7).Q.matrix
    g_lin = me.compute_gramian(ssys.to_linear_system(), 0.7).Q.matrix
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
    lin = ssys.to_linear_system()
    dense = me.null_controllability_test(lin, 1.0)
    assert rep.satisfied == dense.satisfied
    assert rep.constant == pytest.approx(dense.constant, rel=1e-6)


def test_spectral_nc_constant_scalar_mode():
    ssys = me.SpectralSystem([1.0], [1.0])
    rep = spectral_null_controllability(ssys, 1.0)
    assert rep.constant == pytest.approx(0.31303528549933135, rel=1e-12)


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


def test_delay_gramian_symmetric_psd(dsys):
    for t in (0.75, 1.5, 2.25):
        g = delay_gramian(dsys, t)
        M = g.Q.matrix
        assert_allclose(M, M.T, atol=1e-14)
        assert np.linalg.eigvalsh(M).min() >= -1e-12


def test_delay_gramian_entries_vs_quad(dsys):
    t = 1.5
    g = delay_fundamental_solution(dsys, t + dsys.h + dsys.delay)
    G = delay_gramian(dsys, t).Q.matrix
    h, d, b0 = dsys.h, dsys.delay, dsys.b0
    F = g.antiderivative()

    def W(u):
        hi = F(u) if u >= 0 else 0.0
        lo = F(u - h) if u - h >= 0 else 0.0
        return hi - lo

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
    g = delay_fundamental_solution(sys_, T0 + h + d)
    F = g.antiderivative()
    F2 = F.antiderivative()
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


def test_delay_kernel_cache_is_bounded():
    from minenergy import models

    models._cached_kernels.cache_clear()
    systems = [me.DelaySystem(a0=-0.5, a1=0.1 * (i + 1), b0=1.0, delay=1.0, mesh=8)
               for i in range(models.KERNEL_CACHE_SIZE + 5)]
    kernels = [delay_kernels(s, 1.5) for s in systems]
    assert models._cached_kernels.cache_info().currsize == models.KERNEL_CACHE_SIZE
    assert delay_kernels(systems[-1], 1.5) is kernels[-1]  # recent: kept
    assert delay_kernels(systems[0], 1.5) is not kernels[0]  # oldest: evicted
    assert models._cached_kernels.cache_info().currsize == models.KERNEL_CACHE_SIZE


def test_delay_kernels_shared_within_a_delay_interval(dsys):
    # horizons in one delay interval share a kernel set and its g
    assert delay_kernels(dsys, 1.2) is delay_kernels(dsys, 1.9)
    assert delay_fundamental_solution(dsys, 1.2) is delay_kernels(dsys, 2.0).g
    assert delay_kernels(dsys, 2.1) is not delay_kernels(dsys, 1.9)


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


def test_delay_null_controllability_past_one_delay():
    sys_ = me.DelaySystem(a0=-0.3, a1=0.6, b0=1.0, delay=1.0, mesh=16)
    rep = delay_null_controllability(sys_, 2.0)
    assert rep.satisfied
    assert rep.defect < 1e-9
    assert np.isfinite(rep.constant)


def test_delay_null_controllability_fails_below_delay():
    sys_ = me.DelaySystem(a0=-0.3, a1=0.6, b0=1.0, delay=1.0, mesh=16)
    rep = delay_null_controllability(sys_, 0.5)
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
        rep = shift_reachable_defect(sh, 0.25, shift_benchmark_target(m))
        assert rep.defect >= 0.17
        assert rep.defect == pytest.approx(0.1786, abs=2e-3)


def test_shift_defect_unit_time_vanishes():
    for m in (64, 512):
        sh = me.ShiftSystem(m)
        rep = shift_reachable_defect(sh, 1.0, shift_benchmark_target(m))
        assert rep.defect < 1e-3
        assert rep.rank == m


@pytest.mark.parametrize("t", [0.25, 1.0])
def test_shift_defect_report_carries_least_norm_control(t):
    sh = me.ShiftSystem(32)
    target = shift_benchmark_target(32)
    rep = shift_reachable_defect(sh, t, target=target)
    L = shift_control_map(sh, t)
    f_hat = math.sqrt(sh.h) * target
    v = rep.coefficients
    assert v.shape == (L.shape[1],)
    assert_allclose(v, np.linalg.pinv(L, rcond=1e-10) @ f_hat, rtol=1e-10, atol=1e-12)
    assert np.linalg.norm(f_hat - L @ v) == pytest.approx(rep.defect, abs=1e-12)


def test_shift_callable_target():
    sh = me.ShiftSystem(64)
    rep = shift_reachable_defect(sh, 1.0, lambda x: np.minimum(x, 0.25))
    assert rep.defect < 1e-3


def test_shift_lattice_alignment_guard():
    sh = me.ShiftSystem(64)
    with pytest.raises(me.PreconditionError):
        shift_control_map(sh, 0.1234567)


def test_shift_mesh_multiple_of_four():
    with pytest.raises(me.MeshResolutionError):
        me.ShiftSystem(10)


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
