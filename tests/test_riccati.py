import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import minenergy as me

LN2_HALF = 0.5 * np.log(2.0)


def scalar_pairing_sides(t):
    """Both sides of the weighted-pairing derivative for the 1-d benchmark.

    With unit H-norm probes the derivative of <P(t)x, y>_H equals
    -2 e^{-2t} / (1 - e^{-2t})^2 on either side of the equation.
    """
    e = np.exp(-2.0 * t)
    return -2.0 * e / (1.0 - e) ** 2


def test_pv_candidate_scalar_value(scalar_sys):
    cand = me.pv_candidate(scalar_sys)
    P1 = cand.evaluate(1.0)
    # Q_inf / Q_1 = 0.5 / ((1 - e^{-2})/2)
    assert P1[0, 0] == pytest.approx(1.0 / (1.0 - np.exp(-2.0)), rel=1e-12)


def test_residual_H_scalar_identity(scalar_sys):
    cand = me.pv_candidate(scalar_sys)
    rep = me.riccati_residual(cand, [0.5, 1.0, 2.0])
    assert rep.passed
    assert max(rep.residuals) < rep.tol_scaled


def test_scalar_pairing_both_sides_closed_form(scalar_sys):
    # compute both sides of the weighted-pairing equation by hand for a unit
    # H-norm probe and pin them to the closed form
    cand = me.pv_candidate(scalar_sys)
    x = 1.0 / np.sqrt(2.0)  # |x|_H = sqrt(2)|x| = 1
    W = 2.0                 # metric = Q_inf^+
    for t in (0.5, 1.0, 2.0):
        h = 1e-5
        pair = lambda s: float(cand.evaluate(s)[0, 0]) * x * W * x
        lhs = (pair(t + h) - pair(t - h)) / (2 * h)
        P = float(cand.evaluate(t)[0, 0])
        A = -1.0
        rhs = -2.0 * A * P * (x * W * x) + 2.0 * A * P * P * (x * W * x)
        want = scalar_pairing_sides(t)
        assert lhs == pytest.approx(want, rel=1e-5)
        assert rhs == pytest.approx(want, rel=1e-12)


def test_commuting_consistency_field(scalar_sys):
    # in the commuting case the general and specialized right-hand sides must
    # agree on the probes; the report carries their worst disagreement
    cand = me.pv_candidate(scalar_sys)
    rep = me.riccati_residual_commuting(cand, [0.5, 1.0])
    assert np.isfinite(rep.consistency)
    assert rep.consistency < 1e-8


def test_residual_X_scalar(scalar_sys):
    cand = me.inverse_candidate(scalar_sys)
    rep = me.riccati_residual(cand, [0.5, 1.0, 2.0])
    assert rep.passed


def test_residual_commuting_scalar(scalar_sys):
    cand = me.pv_candidate(scalar_sys)
    rep = me.riccati_residual_commuting(cand, [0.5, 1.0, 2.0])
    assert rep.passed


def test_residuals_on_random_commuting(rng):
    # diagonal systems: all three residual forms must pass simultaneously
    for _ in range(3):
        lam = np.sort(rng.uniform(0.3, 2.5, size=3))
        b = rng.uniform(0.4, 2.0, size=3)
        sys = me.LinearSystem(np.diag(-lam), np.diag(np.sqrt(b)))
        cand = me.pv_candidate(sys)
        times = [0.4, 1.0, 2.5]
        assert me.riccati_residual(cand, times).passed
        assert me.riccati_residual_commuting(cand, times).passed
        assert me.riccati_residual(me.inverse_candidate(sys), times).passed


def test_residual_H_noncommuting(coupled_sys):
    cand = me.pv_candidate(coupled_sys)
    rep = me.riccati_residual(cand, [0.5, 1.0, 2.0])
    assert rep.passed


def test_perturbed_candidate_fails(scalar_sys):
    base = me.pv_candidate(scalar_sys)

    def shifted(t):
        return base.evaluate(t) + np.eye(1)

    bad = me.RiccatiCandidate(scalar_sys, base.geometry, shifted)
    rep = me.riccati_residual(bad, [0.5, 1.0])
    assert not rep.passed
    # failure must be decisive, not marginal
    assert max(rep.residuals) > 100 * rep.tol_scaled


def test_zero_candidate_solves_X_trivially(scalar_sys):
    zero = me.RiccatiCandidate(scalar_sys, me.EuclideanGeometry(1), lambda t: np.zeros((1, 1)))
    rep = me.riccati_residual(zero, [0.5, 1.0])
    assert rep.passed  # R = 0 kills every term of the inverse-form equation


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 4).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(1, n), st.floats(-0.5, 0.5), st.integers(0, 2**32 - 1))))
def test_inverse_family_solves_the_plain_equation_without_stability(draw):
    # R(t) = Q_t^+ needs only finite-horizon Gramians, so the plain equation
    # is checked on unstable systems too, with no limit Gramian in sight
    n, m, abscissa, seed = draw
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    A += (abscissa - np.linalg.eigvals(A).real.max()) * np.eye(n)
    B = rng.standard_normal((n, m))
    kalman = np.hstack([np.linalg.matrix_power(A, k) @ B for k in range(n)])
    assume(np.linalg.matrix_rank(kalman) == n)
    rep = me.riccati_residual(me.inverse_candidate(me.LinearSystem(A, B)), [0.5, 1.0, 2.0])
    assert rep.kind == "plain"
    assert rep.passed, f"residual {max(rep.residuals):.3e} against {rep.tol_scaled:.3e}"


def test_uniqueness_on_a_plain_candidate_is_a_verdict(scalar_sys):
    # the inverse family carries no limit Gramian in its geometry; the check
    # reads it from the system and rejects the family at t0 (R = 2 P there)
    rep = me.uniqueness_reconstruction(me.inverse_candidate(scalar_sys), 1.0, [0.5, 1.0, 2.0])
    assert not rep.passed
    assert rep.match_at_t0 == pytest.approx(1.0, rel=1e-12)


def test_commuting_checks_refuse_a_plain_candidate(diag_sys):
    # the commuting form and the compression test are posed on H
    cand = me.inverse_candidate(diag_sys)
    with pytest.raises(me.PreconditionError):
        me.riccati_residual_commuting(cand, [1.0])
    with pytest.raises(me.PreconditionError):
        me.projected_solution_check(cand, np.diag([1.0, 0.0]), [1.0])


def test_lyapunov_residual_reads_the_check_from_q(scalar_sys):
    family = lambda s: me.compute_gramian(scalar_sys, s).matrix
    assert me.lyapunov_residual(scalar_sys, family, [1.0]).mode == "differential"
    assert me.lyapunov_residual(scalar_sys, np.array([[0.5]])).mode == "algebraic"
    with pytest.raises(ValueError):
        me.lyapunov_residual(scalar_sys, family)


def test_pv_norm_nonincreasing(rng):
    sys = me.random_stable_system(rng, 3)
    cand = me.pv_candidate(sys)
    ts = np.linspace(0.3, 3.0, 12)
    norms = [cand.h_norm_of(t) for t in ts]
    for a, b in zip(norms, norms[1:]):
        assert b <= a * (1 + 1e-9)
    assert norms[-1] >= 1.0 - 1e-9  # limit is the identity on H


def test_pv_blows_up_at_short_horizon(scalar_sys):
    cand = me.pv_candidate(scalar_sys)
    small = cand.evaluate(1e-3)
    assert small[0, 0] > 100.0  # ~ 1/(2t) growth


def test_uniqueness_reconstruction_scalar(scalar_sys):
    cand = me.pv_candidate(scalar_sys)
    rep = me.uniqueness_reconstruction(cand, 1.0, np.linspace(0.5, 3.0, 6))
    assert rep.passed
    assert rep.match_at_t0 < 1e-8  # relative mismatch of the t0 snapshot
    assert max(rep.reconstruction_errors) < 1e-6
    assert len(rep.hypotheses_checked) >= 2
    assert min(rep.smallest_singular_values) > 0.0


def test_uniqueness_rejects_scaled_family(scalar_sys):
    base = me.pv_candidate(scalar_sys)
    doubled = me.RiccatiCandidate(
        scalar_sys, base.geometry, lambda t: 2.0 * base.evaluate(t)
    )
    rep = me.uniqueness_reconstruction(doubled, 1.0, np.linspace(0.5, 2.0, 4))
    assert not rep.passed
    assert rep.match_at_t0 > 0.1  # wrong snapshot is flagged at t0 already


# --- exponential family / threshold ---


def test_detect_t1_scalar_closed_form(scalar_sys):
    t1 = me.detect_t1(scalar_sys, [[2.0]], margin=1e-6)
    # exact crossing of sigma_min = margin: log(2/(1-margin))/2
    want = np.log(2.0 / (1.0 - 1e-6)) / 2.0
    assert t1 == pytest.approx(want, abs=1e-12)
    assert t1 == pytest.approx(LN2_HALF, abs=1e-6)


def test_detect_t1_zero_for_small_K(scalar_sys):
    assert me.detect_t1(scalar_sys, [[0.3]], margin=1e-6) == 0.0


def test_detect_t1_diagonal_takes_worst_mode(diag_sys):
    K = np.diag([1.5, 0.5])
    t1 = me.detect_t1(diag_sys, K, margin=1e-6)
    # mode 1: log(1.5)/2 (lambda = 1); mode 2 is safe from t = 0
    assert t1 == pytest.approx(np.log(1.5 / (1.0 - 1e-6)) / 2.0, abs=1e-12)


def test_detect_t1_noncommuting_dip():
    # rotate K so it no longer commutes with A; the dip of the smallest
    # singular value is narrow and must still be found
    A = np.diag([-1.0, -2.0])
    th = 0.4
    R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    K = R @ np.diag([2.0, 0.5]) @ R.T
    sys = me.LinearSystem(A, np.eye(2))
    t1 = me.detect_t1(sys, K, margin=1e-6)
    assert t1 > 0.0
    # just past t1 the family must be safely invertible
    S = np.eye(2) - me.expm(A, t1 + 1e-3) @ K @ me.expm(A, t1 + 1e-3)
    assert np.linalg.svd(S, compute_uv=False)[-1] > 1e-6


def masked_dip_system():
    """A = diag(-50, -0.01), B = I: the fast branch of the bracket turns
    safe near t = 0.007, while the slow branch only rises."""
    return me.LinearSystem(np.diag([-50.0, -0.01]), np.eye(2))


MASKED_DIP_K = np.array([[2.0, 1e-7], [1e-7, 0.99]])


def test_detect_t1_finds_the_dip_of_a_fast_branch():
    # K does not commute with A, so the threshold is bisected; the fast
    # branch 2 e^{-100 t} crosses 1 - margin at log(2 / (1 - margin)) / 100
    t1 = me.detect_t1(masked_dip_system(), MASKED_DIP_K, margin=1e-6)
    assert t1 == pytest.approx(np.log(2.0 / (1.0 - 1e-6)) / 100.0, rel=1e-9)


def test_commuting_family_refuses_a_time_inside_the_fast_dip():
    with pytest.raises(me.MarginError):
        me.commuting_family(masked_dip_system(), MASKED_DIP_K, 0.00693)


def test_detect_t1_refuses_a_non_symmetric_K():
    # I - e^{-2t} [[0, 3], [0, 0]] is invertible with sigma_min >= 0.30 at
    # every t >= 0; the threshold of its symmetric part (t = 0.2027) is not
    # this bracket's
    sys = me.LinearSystem(-np.eye(2), np.eye(2))
    K = [[0.0, 3.0], [0.0, 0.0]]
    with pytest.raises(me.PreconditionError, match="symmetric"):
        me.detect_t1(sys, K)
    with pytest.raises(me.PreconditionError, match="symmetric"):
        me.commuting_family(sys, K, 0.1)


@pytest.mark.parametrize("K, margin", [(np.eye(3), 1e-6), (np.eye(2), 0.0),
                                       (np.eye(2), 1.0), (np.eye(2), -1e-6)])
def test_detect_t1_refuses_a_wrong_shape_or_margin(diag_sys, K, margin):
    with pytest.raises(me.PreconditionError):
        me.detect_t1(diag_sys, K, margin=margin)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 4).flatmap(lambda n: st.tuples(
    st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n),
    # eigenvalues kept off 1 - margin, where a 1e-10 shift moves t1 by more
    # than 1e-8 relative
    st.lists(st.one_of(st.floats(-1.0, 0.9), st.floats(1.2, 4.0)), min_size=n, max_size=n),
)))
def test_detect_t1_bisection_matches_the_closed_form(rates_and_kappas):
    # a symmetric perturbation of relative size 1e-10 breaks the commutation
    # with A, so the bisection runs; it must land on the closed-form
    # threshold of the unperturbed diagonal K
    rates, kappas = rates_and_kappas
    n = len(rates)
    A = -np.diag(rates)
    sys = me.LinearSystem(A, np.eye(n))
    K0 = np.diag(kappas)
    K = K0 + 1e-10 * np.abs(kappas).max() * (np.ones((n, n)) - np.eye(n)) / (n - 1)
    assume(not me.commutes(A, K, tol=1e-12))
    want = me.detect_t1(sys, K0)
    assert me.detect_t1(sys, K) == pytest.approx(want, rel=1e-8, abs=0.0)


def test_commuting_family_values(scalar_sys):
    sol = me.commuting_family(scalar_sys, [[2.0]], 1.0)
    want = 1.0 / (1.0 - 2.0 * np.exp(-2.0))
    assert sol.operator[0, 0] == pytest.approx(want, rel=1e-12)
    assert sol.t1 == pytest.approx(np.log(2.0 / (1.0 - 1e-6)) / 2.0, abs=1e-12)


def test_commuting_family_identity_for_zero_K(scalar_sys):
    sol = me.commuting_family(scalar_sys, [[0.0]], 0.5)
    assert_allclose(sol.operator, np.eye(1), atol=1e-14)


def test_commuting_family_below_threshold_raises(scalar_sys):
    with pytest.raises(me.MarginError):
        me.commuting_family(scalar_sys, [[2.0]], 0.2)


def test_commuting_candidate_solves_commuting_equation(diag_sys):
    K = np.diag([0.4, 0.7])
    cand = me.commuting_candidate(diag_sys, K)
    rep = me.riccati_residual_commuting(cand, [0.5, 1.0, 2.0])
    assert rep.passed


def test_recover_L_roundtrip(scalar_sys):
    K = np.array([[0.3]])
    cand = me.commuting_candidate(scalar_sys, K)
    t_star = 1.0
    rep = me.recover_L(cand, t_star)
    assert rep.passed
    assert rep.k_roundtrip_error <= 1e-6
    # L = e^{T* A} K e^{T* A}; undo the conjugation to recover K
    E_inv = me.expm(scalar_sys.A, -t_star)
    K_back = E_inv @ rep.L @ E_inv
    assert_allclose(K_back, K, rtol=1e-9)


def test_recover_L_random_diagonal(rng):
    for _ in range(5):
        lam = np.sort(rng.uniform(0.4, 2.0, size=3))
        sys = me.LinearSystem(np.diag(-lam), np.eye(3))
        K = np.diag(rng.uniform(0.0, 2.0, size=3))
        cand = me.commuting_candidate(sys, K)
        t_star = cand.t1 + 0.5
        rep = me.recover_L(cand, t_star)
        assert rep.passed
        assert rep.k_roundtrip_error <= 1e-6
        E_inv = me.expm(sys.A, -t_star)
        assert_allclose(E_inv @ rep.L @ E_inv, K, atol=1e-8)


# --- projections ---


def test_projection_invariance_pass(diag_sys):
    K = np.diag([0.5, 0.8])
    cand = me.commuting_candidate(diag_sys, K)
    P = np.diag([1.0, 0.0])  # spectral projector: commutes with everything here
    rep = me.projected_solution_check(cand, P, [0.5, 1.0, 2.0])
    assert rep.range_condition_holds
    assert rep.is_solution
    assert not rep.mixed_verdict


def test_projection_biconditional_fails_coupled():
    # coupled K mixes the coordinates, so S(t) does not preserve ran(P) and
    # the compressed family must NOT solve the equation (and the check must
    # not report a contradictory verdict)
    sys = me.LinearSystem(np.diag([-1.0, -2.0]), np.diag([1.0, np.sqrt(2.0)]))
    K = np.array([[0.3, 0.2], [0.2, 0.3]])
    cand = me.commuting_candidate(sys, K)
    P = np.diag([1.0, 0.0])
    rep = me.projected_solution_check(cand, P, [0.8, 1.2, 2.0])
    assert not rep.range_condition_holds
    assert not rep.is_solution
    assert not rep.mixed_verdict
    assert rep.witness_time is not None


def test_projection_rejects_non_idempotent(diag_sys):
    cand = me.commuting_candidate(diag_sys, np.diag([0.5, 0.5]))
    with pytest.raises(me.PreconditionError):
        me.projected_solution_check(cand, np.array([[0.5, 0.0], [0.0, 1.0]]), [1.0])


def test_residual_report_tolerance_scaling(scalar_sys):
    cand = me.pv_candidate(scalar_sys)
    rep = me.riccati_residual(cand, [1.0], tol=1e-6)
    # scaled tolerance tracks the magnitude of the equation's terms
    assert rep.tol_scaled >= 1e-6
    assert rep.n_probes >= 1
    assert rep.derivative == "exact"


# --- exact derivatives ---


def _opaque(cand):
    """The same family without its derivative: differentiated by Richardson steps."""
    return me.RiccatiCandidate(cand.sys, cand.geometry, cand.evaluate)


def _assert_matches_richardson(cand, times):
    # the Richardson step h = 1e-4 max(1, t) leaves an O(h^4) truncation and
    # an O(eps |P| / h) roundoff error, below 1e-7 of |P'| on these draws
    assert cand.derivative_kind == "exact"
    fd = _opaque(cand)
    assert fd.derivative_kind == "richardson"
    for t in times:
        exact = cand.derivative(t)
        assert np.abs(exact - fd.derivative(t)).max() <= 1e-6 * np.abs(exact).max(), t


def test_exact_derivatives_match_richardson(rng, monkeypatch):
    from minenergy import riccati

    for _ in range(3):
        sys_ = me.random_stable_system(rng, 4)
        _assert_matches_richardson(me.pv_candidate(sys_), [0.3, 1.0, 3.0])
        _assert_matches_richardson(me.inverse_candidate(sys_), [0.3, 1.0, 3.0])
    compressed = []
    check = riccati.riccati_residual_commuting
    monkeypatch.setattr(riccati, "riccati_residual_commuting",
                        lambda cand, *a, **kw: compressed.append(cand) or check(cand, *a, **kw))
    for _ in range(3):
        lam = np.sort(rng.uniform(0.4, 2.5, size=4))
        sys_ = me.LinearSystem(np.diag(-lam), np.eye(4))
        cand = me.commuting_candidate(sys_, np.diag(rng.uniform(0.0, 2.0, size=4)))
        times = [cand.t1 + 0.3, cand.t1 + 1.0]
        _assert_matches_richardson(cand, times)
        rep = me.projected_solution_check(cand, np.diag([1.0, 0.0, 1.0, 0.0]), times)
        assert rep.is_solution and rep.residual.derivative == "exact"
        _assert_matches_richardson(compressed[-1], times)


def test_a_wrong_exact_derivative_fails(rng):
    sys_ = me.random_stable_system(rng, 4)
    pv = me.pv_candidate(sys_)
    times = [0.5, 1.0, 2.0]
    assert me.riccati_residual(pv, times).passed
    off = me.RiccatiCandidate(sys_, pv.geometry, pv.evaluate,
                              lambda t: (1.0 + 1e-3) * pv.derivative(t))
    rep = me.riccati_residual(off, times)
    assert rep.derivative == "exact"
    assert not rep.passed


def test_richardson_step_stays_above_half_the_time(scalar_sys):
    # an absolute step FD_STEP_FACTOR * max(1, t) once evaluated an opaque
    # family at a negative time below t = 1e-4; the step FD_STEP_FACTOR * t
    # keeps every evaluation within a factor 1 -+ 1e-4 of t
    base = me.pv_candidate(scalar_sys)
    seen = []
    opaque = me.RiccatiCandidate(scalar_sys, base.geometry,
                                 lambda t: seen.append(t) or base.evaluate(t))
    t = 5e-5
    rep = me.riccati_residual(opaque, [t])
    assert rep.derivative == "richardson"
    assert np.isfinite(rep.residuals).all()
    assert min(seen) >= 0.5 * t
    family = lambda s: me.compute_gramian(scalar_sys, s).matrix
    rep = me.lyapunov_residual(scalar_sys, family, [t])
    assert rep.derivative == "richardson" and rep.passed



@pytest.mark.parametrize("t", [1e-3, 5e-5])
def test_richardson_resolves_an_opaque_family_at_short_horizons(scalar_sys, t):
    # the scalar Gramian ratio on A = -1, B = 1 grows like 1/t near 0; wrapped
    # without its derivative, an absolute step of 1e-4 failed it (residual
    # 12.7 against tol_scaled 0.251 at t = 1e-3, 4.4e6 against 100 at 5e-5)
    pv = me.pv_candidate(scalar_sys)
    opaque = me.RiccatiCandidate(scalar_sys, pv.geometry, pv.evaluate)
    rep = me.riccati_residual(opaque, [t])
    assert rep.derivative == "richardson"
    assert rep.passed
