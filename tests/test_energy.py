import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import minenergy as me
from conftest import SCALAR_V11, SCALAR_U0, SCALAR_UM1
from oracles import gramian_infinite


def test_value_scalar_frozen(scalar_sys):
    g = me.compute_gramian(scalar_sys, 1.0)
    v = me.value_function(g, [1.0])
    assert v == pytest.approx(SCALAR_V11, abs=1e-10)
    assert v == pytest.approx(1.1565176427496657, abs=1e-10)


def test_value_is_half_pinv_quadratic(rng):
    for _ in range(10):
        sys = me.random_stable_system(rng, 4)
        t = float(rng.uniform(0.3, 2.0))
        g = me.compute_gramian(sys, t)
        x = g.Q.matrix @ rng.standard_normal(4)  # guaranteed reachable
        v = me.value_function(g, x)
        ref = 0.5 * float(x @ g.Q.pinv() @ x)
        assert v == pytest.approx(ref, rel=1e-9)


def test_value_unreachable_raises():
    sys = me.LinearSystem(np.diag([-1.0, -2.0]), np.array([[1.0], [0.0]]))
    g = me.compute_gramian(sys, 1.0)
    with pytest.raises(me.ReachabilityError):
        me.value_function(g, [0.0, 1.0])


def test_classify_target_two_classes():
    sys = me.LinearSystem(np.diag([-1.0, -2.0]), np.array([[1.0], [0.0]]))
    g = me.compute_gramian(sys, 1.0)
    assert me.steer(g, [1.0, 0.0]).category == "in_range_Q"
    assert me.steer(g, [0.0, 1.0]).category == "unreachable"
    # a target is judged by its direction, not its size: a small multiple of
    # a reachable target stays in range(Q_t)
    assert me.steer(g, [1e-8, 0.0]).category == "in_range_Q"


def test_band_target_is_unreachable_not_undervalued():
    # the second eigenvalue is below REL_THRESHOLD of the first, so the
    # target's 1e-3 along it lies outside range(Q); its exact value
    # (1/2) x^T Q^{-1} x is about 5e5, and no value summed over the first
    # direction alone may stand in for it
    g = me.Gramian(me.SymmetricPSD(np.diag([1.0, 1e-12])), 1.0, "closed_form")
    x = [1.0, 1e-3]
    s = me.steer(g, x)
    assert s.category == "unreachable"
    assert s.defect == pytest.approx(1e-3, rel=1e-12)
    assert s.value is None
    assert me.steer(g, x).category == "unreachable"
    with pytest.raises(me.ReachabilityError):
        me.value_function(g, x)


def _one_actuator_value(N, x):
    """(1/2) x^T Q^{-1} x at 80 digits for A = -diag(n^2), B = ones, t = 1,
    where Q_ij = (1 - e^{-(i^2 + j^2)}) / (i^2 + j^2)."""
    with mpmath.workdps(80):
        Q = mpmath.matrix(N, N)
        for i in range(N):
            for j in range(N):
                s = (i + 1) ** 2 + (j + 1) ** 2
                Q[i, j] = (1 - mpmath.exp(-s)) / s
        xm = mpmath.matrix([mpmath.mpf(float(v)) for v in x])
        y = mpmath.lu_solve(Q, xm)
        return float(sum(xm[k] * y[k] for k in range(N)) / 2)


@pytest.mark.parametrize("N", [2, 4, 6, 8, 10, 12])
def test_one_actuator_value_is_exact_or_refused(N):
    # one actuator on every mode: Q's eigenvalues fall below REL_THRESHOLD of
    # the largest by N = 12, and a target with a part there has no value
    # rather than one summed over fewer directions than it needs
    sys = me.LinearSystem(-np.diag(np.arange(1.0, N + 1.0) ** 2), np.ones((N, 1)))
    g = me.compute_gramian(sys, 1.0)
    for x in (np.eye(N)[0], np.ones(N), np.eye(N)[-1]):
        s = me.steer(g, x)
        if s.value is None:
            assert s.category == "unreachable"
            assert N > 8
        else:
            assert s.category == "in_range_Q"
            assert s.value == pytest.approx(_one_actuator_value(N, x), rel=1e-7)


def test_steering_and_geometry_reuse_the_gramian_decomposition(rng, monkeypatch):
    sys = me.random_stable_system(rng, 5)
    g = sys.gramian(1.0)
    g_inf = sys.gramian(np.inf)
    x = g.matrix @ rng.standard_normal(5)
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(*args, **kwargs):
        calls.append(args)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    me.steer(g, x)
    me.value_function(g, x)
    me.HGeometry(g_inf)
    me.pv_candidate(sys)
    assert calls == []


def test_classify_target_ignores_roundoff_eigenvalues():
    # before half a delay the oldest history cells are untouched, so a target
    # on them lies at its full norm from the reachable set, although one
    # Gramian eigenvalue there is roundoff (about 1e-18 of the largest)
    g = me.delay_gramian(me.DelaySystem(-0.5, 0.8, 1.0, 1.0, 8), 0.5)
    x = np.array([0.0] + [0.1] * 4 + [0.0] * 4)
    cls = me.steer(g, x)
    assert cls.category == "unreachable"
    assert cls.defect == pytest.approx(0.2, rel=1e-12)


def test_optimal_control_endpoints_scalar(scalar_sys):
    g = me.compute_gramian(scalar_sys, 1.0)
    sig, _ = me.optimal_samples(scalar_sys, g, [1.0], grid=129)
    assert sig.grid[0] == pytest.approx(-1.0)
    assert sig.grid[-1] == pytest.approx(0.0)
    assert sig.values[-1, 0] == pytest.approx(SCALAR_U0, rel=1e-10)
    assert sig.values[0, 0] == pytest.approx(SCALAR_UM1, rel=1e-10)


def test_control_energy_equals_value(rng):
    # the defining identity: the least-norm control spends exactly V(t, x)
    for _ in range(5):
        sys = me.random_stable_system(rng, 3)
        t = float(rng.uniform(0.5, 2.0))
        g = me.compute_gramian(sys, t)
        x = g.Q.matrix @ rng.standard_normal(3)
        v = me.value_function(g, x)
        sig, _ = me.optimal_samples(sys, g, x, grid=4097)
        assert sig.energy() == pytest.approx(v, rel=1e-6)


def test_trajectory_endpoints(scalar_sys):
    g = me.compute_gramian(scalar_sys, 1.0)
    sig, states = me.optimal_samples(scalar_sys, g, [1.0], grid=65)
    assert sig.grid[0] == pytest.approx(-1.0)
    assert states.shape == (65, 1)
    assert states[0, 0] == pytest.approx(0.0, abs=1e-12)
    assert states[-1, 0] == pytest.approx(1.0, rel=1e-12)


def _stiff_non_normal():
    # eigenvectors V = I + strictly upper Gaussian, cond(V) = 24.  Against a
    # 40-digit eigen closed form, both the per-node formulas and the
    # propagator drift to ~1e-11 of a small column's max once cond(V) nears
    # 100, so this V keeps the reference itself inside the bound.
    rng = np.random.default_rng(0)
    V = np.eye(8) + np.triu(rng.standard_normal((8, 8)), 1)
    A = V @ np.diag(-np.geomspace(1.0, 3000.0, 8)) @ np.linalg.inv(V)
    return me.LinearSystem(A, rng.standard_normal((8, 3)))


PROPAGATOR_SYSTEMS = {
    "stable-16": lambda: me.random_stable_system(np.random.default_rng(1), 16),
    "unstable-16": lambda: me.random_stable_system(np.random.default_rng(2), 16, margin=-0.25),
    "stiff-non-normal-8": _stiff_non_normal,
}


@pytest.mark.parametrize("name", sorted(PROPAGATOR_SYSTEMS))
def test_propagated_samples_match_per_node_formulas(name):
    # u(r) = B^T e^{-r A^T} Q_t^+ x and y(r) = Q_{t+r} e^{-r A^T} Q_t^+ x, each
    # node from its own exponential and Gramian
    sys = PROPAGATOR_SYSTEMS[name]()
    t, k = 2.0, 129
    g = me.compute_gramian(sys, t)
    x = g.matrix @ np.random.default_rng(4).standard_normal(sys.n)
    z = g.Q.pinv() @ x
    rs = np.linspace(-t, 0.0, k)
    w = np.array([me.expm(sys.A.T, -r) @ z for r in rs])
    y_ref = np.zeros((k, sys.n))
    for i in range(1, k):
        y_ref[i] = me.compute_gramian(sys, t + rs[i]).matrix @ w[i]
    sig, states = me.optimal_samples(sys, g, x, grid=k)
    for got, ref in ((sig.values, w @ sys.B), (states, y_ref)):
        scale = np.abs(ref).max(axis=0)
        assert np.all(np.abs(got - ref).max(axis=0) <= 1e-11 * scale)
    assert np.all(states[0] == 0.0)
    assert_allclose(sig.grid, rs, rtol=0, atol=0)


@pytest.mark.parametrize("grid", [2, 3, 4, 5, 17, 100, 129])
def test_samples_by_doubling_match_the_step_recurrences(rng, grid):
    # w_i = e^{hA^T} w_{i+1} from w = Q_t^+ x, and y_{i+1} = e^{hA} y_i + Q_h w_{i+1}
    # from y = 0, one vector step at a time
    sys = me.random_stable_system(rng, 5, margin=-0.2)
    t = 1.3
    g = me.compute_gramian(sys, t)
    x = g.matrix @ rng.standard_normal(5)
    E, Qh = me.gramians._van_loan_step(sys, t / (grid - 1))
    w = np.empty((grid, 5))
    w[-1] = me.energy._steering_coefficients(g, x, grid, "control", 5)
    for i in range(grid - 1, 0, -1):
        w[i - 1] = E.T @ w[i]
    y = np.zeros((grid, 5))
    for i in range(grid - 1):
        y[i + 1] = E @ y[i] + Qh @ w[i + 1]
    signal, states = me.optimal_samples(sys, g, x, grid=grid)
    for got, ref in ((signal.values, w @ sys.B), (states, y)):
        assert np.all(np.abs(got - ref) <= 1e-13 * np.abs(ref).max())
    assert np.all(states[0] == 0.0)
    assert_allclose(states[-1], x, rtol=0, atol=1e-9 * np.abs(x).max())


def test_overflowing_samples_are_typed_errors():
    # a step pair e^{hA}, Q_h that leaves double precision reaches the samples
    # as inf: the Gramian comes from a tame system, the step from a hot one
    g = me.compute_gramian(me.LinearSystem([[-1.0]], [[1.0]]), 1.0)
    hot = me.LinearSystem([[800.0]], [[1.0]])
    with pytest.raises(me.NonFiniteError, match="overflows double precision"):
        me.optimal_samples(hot, g, [1.0], grid=3)


def test_steering_makes_one_exponential_and_no_gramian(monkeypatch, rng):
    sys = me.random_stable_system(rng, 4)
    g = me.compute_gramian(sys, 1.5)
    x = g.matrix @ rng.standard_normal(4)
    calls = {"expm": 0, "compute_gramian": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    expm = counted("expm", me.linalg.expm)
    compute_gramian = counted("compute_gramian", me.gramians.compute_gramian)
    for module in (me.linalg, me.gramians, me.energy):
        monkeypatch.setattr(module, "expm", expm)
    for module in (me.gramians, me.systems):
        monkeypatch.setattr(module, "compute_gramian", compute_gramian)
    me.optimal_samples(sys, g, x, grid=129)
    assert calls == {"expm": 1, "compute_gramian": 0}


@pytest.mark.parametrize("grid", [1, 2.0, np.linspace(-1.0, 0.0, 5)])
def test_grid_is_a_node_count_of_at_least_two(scalar_sys, grid):
    g = me.compute_gramian(scalar_sys, 1.0)
    with pytest.raises((TypeError, ValueError)):
        me.optimal_samples(scalar_sys, g, [1.0], grid=grid)
    delay = me.DelaySystem(a0=-0.5, a1=0.8, b0=1.0, delay=1.0, mesh=8)
    with pytest.raises(ValueError if isinstance(grid, int) else TypeError):
        me.delay_optimal_control(delay, me.delay_gramian(delay, 1.5), np.r_[1.0, np.zeros(8)],
                                 grid=grid)


def test_trajectory_matches_simulation(scalar_sys):
    g = me.compute_gramian(scalar_sys, 1.0)
    sig, states = me.optimal_samples(scalar_sys, g, [1.0], grid=513)
    sim = me.simulate_control(scalar_sys, sig, substeps=8)
    assert sim[-1, 0] == pytest.approx(1.0, abs=1e-6)
    assert np.max(np.abs(sim - states)) < 1e-6


def test_simulation_convergence_order(scalar_sys):
    # endpoint error should shrink at least quadratically in the grid step
    errs = []
    for grid in (33, 65, 129):
        g = me.compute_gramian(scalar_sys, 1.0)
        sig, _ = me.optimal_samples(scalar_sys, g, [1.0], grid=grid)
        sim = me.simulate_control(scalar_sys, sig, substeps=2)
        errs.append(abs(sim[-1, 0] - 1.0))
    rate = np.log2(errs[0] / errs[2]) / 2.0
    assert rate > 1.9


def test_brute_force_bounds_from_above(scalar_sys):
    g = me.compute_gramian(scalar_sys, 1.0)
    v = me.value_function(g, [1.0])
    prev = np.inf
    for n in (250, 500, 1000, 2000):
        bf = me.brute_force_min_energy(scalar_sys, [1.0], 1.0, n_steps=n)
        # discrete feasible set, so the optimum is approached from above
        assert bf.energy >= v - 1e-9
        assert bf.energy <= prev + 1e-12
        prev = bf.energy
    assert prev - v < 1e-3


def test_brute_force_rejects_unreachable():
    sys = me.LinearSystem(np.diag([-1.0, -2.0]), np.array([[1.0], [0.0]]))
    with pytest.raises(me.ReachabilityError):
        me.brute_force_min_energy(sys, [0.0, 1.0], 1.0, n_steps=100)


def test_feedback_consistency_along_trajectory(rng):
    # u(r) = F(t + r) y(r) with F the Gramian-inverse feedback gain
    sys = me.random_stable_system(rng, 3)
    t = 1.2
    g = me.compute_gramian(sys, t)
    x = g.Q.matrix @ rng.standard_normal(3)
    sig, states = me.optimal_samples(sys, g, x, grid=33)
    for i, r in enumerate(sig.grid[1:-1], start=1):
        F = me.feedback_gain(sys, t + r)
        assert_allclose(sig.values[i], F @ states[i], atol=1e-8 * max(1, np.abs(sig.values).max()))


def test_closed_loop_limit_gain(scalar_sys):
    # as s -> inf the feedback gain tends to B^T Q_inf^{-1} = 2, which puts the
    # closed-loop matrix at A + B (B^T Q_inf^{-1}) = -A^T for A = -1: value 1.
    F = me.feedback_gain(scalar_sys, 40.0)
    assert F[0, 0] == pytest.approx(2.0, rel=1e-9)
    closed = scalar_sys.A + scalar_sys.B @ F
    assert closed[0, 0] == pytest.approx(1.0, rel=1e-9)


def test_h_norm_weighted(scalar_sys):
    g_inf = gramian_infinite(scalar_sys)
    geom = me.HGeometry(g_inf)
    # metric is Q_inf^+ = 2, so |x|_H = sqrt(2) |x| and x normalizes to x / sqrt(2)
    assert geom.normalize(np.array([1.0]))[0] == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-12)


def test_h_geometry_rejects_outside_vectors():
    # H = range(Q_inf^{1/2}), which steer decides on Q_inf; a vector outside
    # it has H-norm 0 and cannot be normalized
    sys = me.LinearSystem(np.diag([-1.0, -2.0]), np.array([[1.0], [0.0]]))
    g_inf = gramian_infinite(sys)
    geom = me.HGeometry(g_inf)
    assert me.steer(g_inf, [1.0, 0.0]).category == "in_range_Q"
    assert me.steer(g_inf, [0.0, 1.0]).category == "unreachable"
    with pytest.raises(ValueError, match="zero vector"):
        geom.normalize(np.array([0.0, 1.0]))


def _h_system_and_operator():
    rng = np.random.default_rng(1)
    sys = me.random_stable_system(rng, 6, 3)
    return sys, rng.standard_normal((6, 6))


def test_symmetry_defect_is_the_supremum_over_the_space():
    # sup over unit x, y of |<Mx, y>_H - <x, My>_H| is ||N - N^T|| with
    # N = Q_inf^{-1/2} M Q_inf^{1/2}, here from scipy's square root; eight
    # seeded probe pairs read 6.46 on this case
    sys, M = _h_system_and_operator()
    geom = me.HGeometry(sys.gramian(np.inf))
    root = scipy.linalg.sqrtm(sys.gramian(np.inf).matrix).real
    N = np.linalg.solve(root, M @ root)
    want = np.linalg.norm(N - N.T, 2)
    assert want == pytest.approx(71.5, abs=0.05)
    assert geom.symmetry_defect(M) == pytest.approx(want, rel=1e-12)


def test_an_h_orthogonal_projection_has_no_symmetry_defect():
    sys, M = _h_system_and_operator()
    geom = me.HGeometry(sys.gramian(np.inf))
    U = np.linalg.qr(M[:, :2])[0]
    P = geom.sqrt_matrix @ (U @ U.T) @ geom.pinv_sqrt
    assert_allclose(P @ P, P, atol=1e-12)
    assert geom.symmetry_defect(P) <= 1e-12


def test_euclidean_geometry_keeps_the_plain_norms_bit_for_bit():
    _, M = _h_system_and_operator()
    geom = me.EuclideanGeometry(6)
    assert geom.operator_norm(M) == np.linalg.norm(M, 2)
    assert_array_equal(geom.normalize(M), M / np.linalg.norm(M, axis=0))
    assert geom.symmetry_defect(M) == np.linalg.norm(M - M.T, 2)


def test_value_decreasing_in_horizon(scalar_sys):
    values = []
    for t in (0.5, 1.0, 2.0, 4.0):
        g = me.compute_gramian(scalar_sys, t)
        values.append(me.value_function(g, [1.0]))
    assert all(a > b for a, b in zip(values, values[1:]))
    # infinite-horizon floor: 0.5 * 2 = 1
    assert values[-1] > 1.0


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 6), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_reachability_and_value_persist_over_longer_horizons(n, m, seed):
    # Q_t does not decrease with t, so a target in range(Q_0.5) stays in
    # range and its value does not increase; and null controllability at T
    # carries over to 2T, which pv_candidate's test only below the least
    # horizon it has evaluated at relies on
    rng = np.random.default_rng(seed)
    sys = me.random_stable_system(rng, n, min(m, n))
    Q = me.compute_gramian(sys, 0.5).Q
    assume(Q.eigenvalues[0] > 0.0 and Q.eigenvalues[-1] <= 1e7 * Q.eigenvalues[0])
    x = Q.matrix @ rng.standard_normal(n)
    values = []
    for t in (0.5, 1.0, 2.0, 4.0):
        s = me.steer(me.compute_gramian(sys, t), x)
        assert s.category == "in_range_Q"
        values.append(s.value)
    assert all(b <= a * (1 + 1e-9) for a, b in zip(values, values[1:]))
    # below 0.5 the short-horizon Gramian may fall under the rank cut
    verdicts = [sys.null_controllability(0.5 * 2.0**k).satisfied for k in range(-7, 4)]
    assert all(b for a, b in zip(verdicts, verdicts[1:]) if a)
