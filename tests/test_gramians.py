import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import minenergy as me
from conftest import SCALAR_Q1, SCALAR_QINF, stiff_non_normal_system
from oracles import gramian_infinite

ROUTES = {
    "quadrature": lambda sys, t: me.gramian_quadrature_sweep(sys, [t])[0],
    "lyapunov_ode": me.gramian_lyapunov_ode,
    "closed_form": me.gramian_commuting_closed_form,
    "block_exponential": me.gramian_block_exponential,
}


def _rel(Q, ref):
    return np.linalg.norm(Q - ref, 2) / np.linalg.norm(ref, 2)


def test_scalar_frozen_value(scalar_sys):
    g = me.compute_gramian(scalar_sys, 1.0)
    assert g.Q.matrix[0, 0] == pytest.approx(SCALAR_Q1, rel=1e-13)
    assert g.Q.matrix[0, 0] == pytest.approx(0.43233235838169365, rel=1e-13)


def test_diagonal_closed_form(diag_sys):
    # per-mode (1 - e^{-2 lambda t}) / (2 lambda) at t = 2
    g = me.compute_gramian(diag_sys, 2.0)
    expected = np.diag([(1 - np.exp(-4.0)) / 2.0, (1 - np.exp(-8.0)) / 4.0])
    assert_allclose(g.Q.matrix, expected, rtol=1e-12)
    # short horizons: e^{2tA} - I would cancel, expm1 does not
    for t in (1e-6, 1e-8):
        g = me.compute_gramian(diag_sys, t)
        expected = np.diag([-np.expm1(-2.0 * t) / 2.0, -np.expm1(-4.0 * t) / 4.0])
        assert _rel(g.Q.matrix, expected) <= 1e-14


@pytest.mark.parametrize("method", list(ROUTES))
def test_methods_agree_scalar(scalar_sys, method):
    g = ROUTES[method](scalar_sys, 1.0)
    assert g.Q.matrix[0, 0] == pytest.approx(SCALAR_Q1, rel=1e-8)
    assert g.method == method


def test_methods_cross_validate_random(rng):
    for _ in range(10):
        n = int(rng.integers(1, 6))
        sys = me.random_stable_system(rng, n)
        t = float(rng.uniform(0.3, 3.0))
        q_quad = me.gramian_quadrature_sweep(sys, [t])[0].Q.matrix
        q_ode = me.gramian_lyapunov_ode(sys, t).Q.matrix
        q_eng = me.compute_gramian(sys, t).Q.matrix
        scale = max(np.linalg.norm(q_quad, 2), 1e-30)
        assert np.linalg.norm(q_ode - q_quad, 2) / scale < 1e-8
        assert np.linalg.norm(q_eng - q_quad, 2) / scale < 1e-8


def test_commuting_closed_form_requires_commutation(coupled_sys):
    with pytest.raises(me.PreconditionError):
        me.gramian_commuting_closed_form(coupled_sys, 1.0)


def test_infinite_gramian_scalar(scalar_sys):
    g = gramian_infinite(scalar_sys)
    assert g.Q.matrix[0, 0] == pytest.approx(SCALAR_QINF, rel=1e-13)
    assert g.horizon == np.inf


def test_infinite_gramian_requires_stability():
    unstable = me.LinearSystem([[0.5]], [[1.0]])
    with pytest.raises(me.UnstableSystemError):
        gramian_infinite(unstable)


def test_infinite_gramian_residual(rng):
    for _ in range(5):
        sys = me.random_stable_system(rng, 4)
        g = gramian_infinite(sys)
        assert g.method == "bartels_stewart"
        Q, C = g.Q.matrix, sys.BBt
        resid = sys.A @ Q + Q @ sys.A.T + C
        assert np.linalg.norm(resid, 2) < 1e-10 * np.linalg.norm(C, 2)


INFINITE_SYSTEMS = {
    f"n{n}-margin{margin:g}": (lambda n=n, margin=margin: me.random_stable_system(
        np.random.default_rng(n), n, margin=margin))
    for n in (16, 64) for margin in (1e-2, 1e-4)
}
INFINITE_SYSTEMS["stiff-non-normal-8"] = stiff_non_normal_system


@pytest.mark.parametrize("name", sorted(INFINITE_SYSTEMS))
def test_infinite_gramian_engine_matches_bartels_stewart(name):
    sys = INFINITE_SYSTEMS[name]()
    g = me.compute_gramian(sys, np.inf)
    assert g.method == "smith_doubling"
    assert g.horizon == np.inf
    assert _rel(g.Q.matrix, gramian_infinite(sys).Q.matrix) <= 1e-11


def test_infinite_gramian_doubling_cap():
    # decay rates of 1e-20 and 2e-20 beside a unit coupling: ||e^{sA}||_1
    # still grows like s after every doubling the cap allows, so the engine
    # gives up instead of returning a partial sum
    sys = me.LinearSystem([[-1e-20, 0.0], [1.0, -2e-20]], [[1.0], [0.0]])
    assert sys.stable
    with pytest.raises(me.StiffnessError, match="doublings"):
        me.compute_gramian(sys, np.inf)


@pytest.mark.parametrize("omega", [1e-3, 1e-5])
def test_block_exponential_rotation_without_cancellation(omega):
    # Q_inf - e^{tA} Q_inf e^{tA^T} cancels for a weakly damped rotation at
    # a short horizon; the block exponential never forms that difference
    sys = me.LinearSystem([[-1e-3, omega], [-omega, -1e-3]], [[1.0], [0.0]])
    g = me.compute_gramian(sys, 1e-4)
    assert g.method == "block_exponential"
    assert _rel(g.Q.matrix, me.gramian_quadrature_sweep(sys, [1e-4])[0].Q.matrix) <= 1e-12


def test_block_exponential_stiff_stable_matches_infinite():
    # a single exponential of the block matrix overflows here (its -A block
    # grows like e^{2000}); the doublings keep every intermediate bounded
    rng = np.random.default_rng(5)
    sys = me.LinearSystem(-1000.0 * np.eye(8) + 50.0 * rng.standard_normal((8, 8)),
                          rng.standard_normal((8, 2)))
    q_t = me.compute_gramian(sys, 2.0).Q.matrix
    assert np.all(np.isfinite(q_t))
    assert _rel(q_t, gramian_infinite(sys).Q.matrix) <= 1e-12


@pytest.mark.parametrize("gain", [1e4, 1e8])
def test_block_exponential_scales_with_input_gain(gain):
    # Q_t is linear in BB^T; a large B must not overscale the exponential of
    # the A blocks, which would cost digits in e^{tA} and so in Q_t
    base = me.random_stable_system(np.random.default_rng(1), 6)
    loud = me.LinearSystem(base.A, gain * base.B)
    for t in (0.5, 2.0):
        expected = gain ** 2 * me.compute_gramian(base, t).Q.matrix
        assert _rel(me.compute_gramian(loud, t).Q.matrix, expected) <= 1e-14


def test_overflowing_gramian_is_typed_error():
    sys = me.LinearSystem([[800.0, 1.0], [0.0, 800.0]], [[1.0], [1.0]])
    with pytest.raises(me.NonFiniteError):
        me.compute_gramian(sys, 1.0)


def test_splitting_identity(rng):
    # Q_t = Q_inf - e^{tA} Q_inf e^{tA^T} for stable systems
    for _ in range(5):
        sys = me.random_stable_system(rng, 3)
        t = float(rng.uniform(0.2, 2.0))
        q_t = me.gramian_quadrature_sweep(sys, [t])[0].Q.matrix
        q_inf = gramian_infinite(sys).Q.matrix
        E = me.expm(sys.A, t)
        assert_allclose(q_t, q_inf - E @ q_inf @ E.T, atol=1e-9 * np.linalg.norm(q_inf, 2))


def test_tail_bound(rng):
    # ||Q_inf - Q_T|| <= M^2 e^{-2 omega T} ||B B^T|| / (2 omega)
    sys = me.random_stable_system(rng, 3)
    M, omega = me.negative_type_bound(sys.A, t_max=4.0)
    q_inf = gramian_infinite(sys).Q.matrix
    for T in (1.0, 2.0, 4.0):
        q_T = me.compute_gramian(sys, T).Q.matrix
        gap = np.linalg.norm(q_inf - q_T, 2)
        bound = M**2 * np.exp(-2 * omega * T) * np.linalg.norm(sys.BBt, 2) / (2 * omega)
        assert gap <= bound * (1 + 1e-6)


def test_monotone_in_horizon(rng):
    sys = me.random_stable_system(rng, 4)
    times = [0.25, 0.5, 1.0, 2.0]
    mats = [me.compute_gramian(sys, t).Q.matrix for t in times]
    for small, big in zip(mats, mats[1:]):
        lam_min = np.linalg.eigvalsh(big - small).min()
        assert lam_min >= -1e-12


def test_quadrature_panel_order(coupled_sys):
    # composite Gauss with k nodes is order 2k: doubling panels should cut the
    # 2-node error by about 2^4
    from minenergy.gramians import _gauss_panel

    rule = np.polynomial.legendre.leggauss(2)

    def uniform(panels):
        edges = np.linspace(0.0, 1.5, panels + 1)
        return sum(_gauss_panel(coupled_sys, a, b, *rule) for a, b in zip(edges[:-1], edges[1:]))

    ref = me.gramian_quadrature_sweep(coupled_sys, [1.5], n_nodes=24)[0].Q.matrix
    errs = [np.linalg.norm(uniform(panels) - ref, 2) for panels in (2, 4, 8)]
    rates = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(rates) > 3.5


@pytest.mark.parametrize("lam", [-1e4, -1e6])
def test_quadrature_resolves_stiff_boundary_layer(lam):
    # the fast mode's integrand decays within 1/|lam| of r = 0: a rule with no
    # node there agrees with its own refinement on a value 1e-4 off
    sys = me.LinearSystem(np.diag([lam, -1.0]), np.eye(2))
    ref = me.gramian_commuting_closed_form(sys, 2.0).Q.matrix
    assert _rel(me.gramian_quadrature_sweep(sys, [2.0])[0].Q.matrix, ref) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-2.0, 6.0), min_size=1, max_size=4), st.floats(0.1, 5.0))
def test_quadrature_matches_closed_form_on_diagonal_spectra(log_rates, t):
    sys = me.LinearSystem(np.diag(-(10.0 ** np.array(log_rates))), np.eye(len(log_rates)))
    ref = me.gramian_commuting_closed_form(sys, t).Q.matrix
    q = me.gramian_quadrature_sweep(sys, [t])[0].Q.matrix
    assert np.abs(q - ref).max() <= 1e-11 * np.abs(ref).max()


def test_quadrature_cost_on_stiff_spectrum(monkeypatch):
    # landau-ginzburg(24) has rates up to 576: uniform panels fine enough for
    # its boundary layer at r = 0 take thousands of exponentials at t = 2,
    # panels graded toward r = 0 a few hundred
    from minenergy import gramians

    calls = []
    expm = gramians.expm
    monkeypatch.setattr(gramians, "expm", lambda A, t: calls.append(t) or expm(A, t))
    sys = me.parse_model("spectral:landau-ginzburg(24)").to_linear_system()
    me.gramian_quadrature_sweep(sys, [2.0])
    assert len(calls) <= 1000


def test_quadrature_gives_up_past_max_panels(coupled_sys):
    with pytest.raises(me.StiffnessError):
        me.gramian_quadrature_sweep(coupled_sys, [1.5], n_nodes=2, rtol=1e-15, max_panels=8)


SWEEP_SYSTEMS = {
    "dense": lambda: me.random_stable_system(np.random.default_rng(1), 6),
    "unstable": lambda: me.random_stable_system(np.random.default_rng(2), 6, margin=-0.5),
    "stiff": lambda: me.parse_model("spectral:landau-ginzburg(24)").to_linear_system(),
}


@pytest.mark.parametrize("name", list(SWEEP_SYSTEMS))
def test_quadrature_sweep_matches_each_horizon_alone(name):
    # Q_t is a prefix of the integral for every longer horizon: one sweep
    # holds each horizon to the bound its own quadrature meets
    sys = SWEEP_SYSTEMS[name]()
    times = [0.25, 0.5, 1.0, 2.0]
    for t, g in zip(times, me.gramian_quadrature_sweep(sys, times)):
        ref = me.gramian_quadrature_sweep(sys, [t])[0].Q.matrix
        assert (g.horizon, g.method) == (t, "quadrature")
        assert np.abs(g.Q.matrix - ref).max() <= 1e-10 * np.abs(ref).max()


def test_quadrature_sweep_keeps_input_order(coupled_sys):
    times = [4.0, 0.3, 1.7, 0.3]
    grams = me.gramian_quadrature_sweep(coupled_sys, times)
    assert [g.horizon for g in grams] == times
    for t, g in zip(times, grams):
        ref = me.compute_gramian(coupled_sys, t).Q.matrix
        assert np.abs(g.Q.matrix - ref).max() <= 1e-10 * np.abs(ref).max()
    assert me.gramian_quadrature_sweep(coupled_sys, []) == []


def test_quadrature_sweep_costs_its_longest_horizon(monkeypatch):
    # the shorter horizons are edges of the longest one's graded panels
    from minenergy import gramians

    calls = []
    expm = gramians.expm
    monkeypatch.setattr(gramians, "expm", lambda A, t: calls.append(t) or expm(A, t))
    sys = me.parse_model("spectral:landau-ginzburg(24)").to_linear_system()
    me.gramian_quadrature_sweep(sys, [2.0])
    alone = len(calls)
    calls.clear()
    me.gramian_quadrature_sweep(sys, [0.25, 0.5, 1.0, 2.0])
    assert len(calls) <= alone


def test_quadrature_sweep_gives_up_past_max_panels(coupled_sys):
    with pytest.raises(me.StiffnessError):
        me.gramian_quadrature_sweep(coupled_sys, [0.5, 1.5], n_nodes=2, rtol=1e-15,
                                    max_panels=8)


def test_kernel_chain_rank_deficient():
    # B touches only the first coordinate and A is diagonal: the second
    # coordinate is never reachable, at any horizon
    sys = me.LinearSystem(np.diag([-1.0, -2.0]), np.array([[1.0], [0.0]]))
    rep = me.kernel_chain_check(sys, [0.5, 1.0, 2.0])
    assert rep.equalities_ok
    assert rep.kernel_dims == (1, 1, 1)
    assert rep.dim_ker_Bt == 1
    assert not rep.violations


def test_kernel_chain_strictness_under_coupling(coupled_sys):
    # rotation mixes the B-direction into the full space: ker Q_t is trivial
    # even though ker B^T is one-dimensional
    rep = me.kernel_chain_check(coupled_sys, [0.5, 1.0])
    assert rep.kernel_dims == (0, 0)
    assert rep.dim_ker_Bt == 1
    assert not rep.violations  # inclusions hold; equality is not claimed


def test_range_equality_check_commuting(scalar_sys):
    rep = me.range_equality_check(scalar_sys, 0.5)
    assert rep.included_forward and rep.included_backward
    assert rep.commuting


def test_gramian_cache_hits(scalar_sys):
    g1 = me.compute_gramian(scalar_sys, 1.0)
    g2 = me.compute_gramian(scalar_sys, 1.0)
    assert g1 is g2
    assert scalar_sys._gramians == {1.0: g1}
    # the memo lives on the instance: an equal system computes its own
    assert me.compute_gramian(me.LinearSystem([[-1.0]], [[1.0]]), 1.0) is not g1


def test_cache_solves_infinite_gramian_once(coupled_sys, monkeypatch):
    from minenergy import gramians

    calls = []
    solve = gramians._gramian_infinite_doubling
    monkeypatch.setattr(gramians, "_gramian_infinite_doubling",
                        lambda *a: calls.append(1) or solve(*a))
    for t in (0.5, 1.0, 2.0, np.inf, 4.0):
        me.compute_gramian(coupled_sys, t)
        me.compute_gramian(coupled_sys, np.inf)
    cand = me.pv_candidate(coupled_sys)
    me.inverse_candidate(coupled_sys)
    me.riccati_residual(cand, [1.0, 2.0])
    assert len(calls) == 1


def test_null_controllability_scalar(scalar_sys):
    rep = me.null_controllability_test(scalar_sys, 1.0)
    assert rep.satisfied
    # squared steering cost of e^{-T0}: 2 e^{-2} / (1 - e^{-2})
    assert rep.constant == pytest.approx(0.31303528549933135, rel=1e-8)


def test_gramian_rejects_nonpositive_horizon(scalar_sys):
    with pytest.raises((ValueError, me.PreconditionError)):
        me.compute_gramian(scalar_sys, 0.0)
