import mpmath
import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose, assert_array_equal

import minenergy as me
import minenergy.linalg
from conftest import stiff_non_normal_system
from minenergy.linalg import as_matrix


def test_expm_scalar_closed_form():
    assert_allclose(me.expm([[-1.0]], 2.0), [[np.exp(-2.0)]], rtol=1e-14)


def test_expm_rotation_closed_form():
    J = np.array([[0.0, 1.0], [-1.0, 0.0]])
    t = 0.7
    expected = np.array([[np.cos(t), np.sin(t)], [-np.sin(t), np.cos(t)]])
    assert_allclose(me.expm(J, t), expected, atol=1e-14)


def test_expm_nilpotent():
    N = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert_allclose(me.expm(N, 3.0), [[1.0, 3.0], [0.0, 1.0]], atol=1e-14)


def _expm_40_digits(X):
    with mpmath.workdps(40):
        return np.array(mpmath.expm(mpmath.matrix(X.tolist())).tolist(), dtype=float)


def _rel_1(E, ref):
    return np.linalg.norm(E - ref, 1) / np.linalg.norm(ref, 1)


# each Pade degree's theta (3, 5, 7, 9 and 13), from 10% below to 10% above,
# then norms that take 2 and 4 squarings
PADE_THETAS = (1.495585217958292e-2, 2.539398330063230e-1, 9.504178996162932e-1,
               2.097847961257068, 5.371920351148152)
EXPM_NORMS = [f * theta for theta in PADE_THETAS for f in (0.9, 1.1)] + [20.0, 50.0]


@pytest.mark.parametrize("n", [2, 6, 16, 48, 64])
def test_expm_matches_scipy_across_pade_degrees(n):
    # scipy is the oracle; where the two differ by more than 1e-13, the
    # 40-digit exponential decides: ours must be within 1e-13 of it and
    # closer than scipy (whose 2 x 2 closed form misses it by up to 8e-13 here)
    rng = np.random.default_rng(n)
    t = 0.5
    for norm in EXPM_NORMS:
        A = rng.standard_normal((n, n))
        A *= norm / (t * np.abs(A).sum(axis=0).max())
        E = me.expm(A, t)
        ref = scipy.linalg.expm(t * A)
        if _rel_1(E, ref) > 1e-13:
            exact = _expm_40_digits(t * A)
            assert _rel_1(E, exact) <= min(1e-13, _rel_1(ref, exact)), (n, norm)


def test_expm_stiff_non_normal_within_its_conditioning():
    # the relative condition number of e^{tA} is at least ||tA||; the error
    # against a 40-digit exponential stays within it from ||tA||_1 = 1 to 2e4
    A = stiff_non_normal_system().A
    eps = np.finfo(float).eps
    for t in (1e-4, 1e-3, 1e-2, 0.1, 1.0, 2.0):
        X = t * A
        bound = eps * max(4.0, np.abs(X).sum(axis=0).max())
        assert _rel_1(me.expm(A, t), _expm_40_digits(X)) <= bound, t


def test_expm_negative_time(rng):
    for n in (3, 8):
        A = rng.standard_normal((n, n))
        for t in (0.3, 2.0, 9.0):
            back, fwd = me.expm(A, -t), me.expm(A, t)
            assert _rel_1(back, _expm_40_digits(-t * A)) <= 1e-14
            resid = np.linalg.norm(back @ fwd - np.eye(n), 1)
            assert resid <= 1e-14 * np.linalg.norm(back, 1) * np.linalg.norm(fwd, 1)


def test_expm_stack_matches_the_scalar_calls():
    # a stack shares the degree and squarings of its largest ||tA||_1; each
    # slice stays within the scalar test's 1e-13 of the scalar call
    rng = np.random.default_rng(11)
    for n in (2, 6, 16):
        A = rng.standard_normal((n, n))
        A /= np.abs(A).sum(axis=0).max()
        ts = np.array(EXPM_NORMS + [-2.0, 0.0])
        E = me.expm(A, ts)
        assert E.shape == (ts.size, n, n)
        for t, E_t in zip(ts, E):
            assert _rel_1(E_t, me.expm(A, t)) <= 1e-13, (n, t)
        D = np.diag(rng.standard_normal(n))
        assert np.array_equal(me.expm(D, ts), [me.expm(D, t) for t in ts])


def test_expm_stack_of_one_is_the_scalar_call():
    rng = np.random.default_rng(12)
    for n in (1, 3, 16):
        for norm in EXPM_NORMS:
            A = rng.standard_normal((n, n))
            A *= norm / np.abs(A).sum(axis=0).max()
            for t in (0.5, -1.5):
                assert np.array_equal(me.expm(A, np.array([t]))[0], me.expm(A, t))
    with pytest.raises(ValueError):
        me.expm(A, np.ones((2, 2)))


def test_expm_refuses_scaling_beyond_double_precision():
    # ||tA||_1 = 2.5e299 would take 993 squarings; the true (0, 0) entry is
    # 1, where a plain scaling and squaring returns 0.  No finite matrix may
    # come back
    with pytest.raises(me.NonFiniteError, match=r"e\^\(tA\) leaves double precision"):
        me.expm([[0.0, 0.0], [1.0, -1e300]], 0.25)


def test_pinv_penrose_identities(rng):
    for _ in range(20):
        n, m = rng.integers(1, 7, size=2)
        M = rng.standard_normal((n, m))
        if rng.random() < 0.5:  # make it rank deficient half the time
            r = int(rng.integers(0, min(n, m)))
            U, s, Vt = np.linalg.svd(M, full_matrices=False)
            s[r:] = 0.0
            M = (U * s) @ Vt
        P = me.pinv(M)
        assert_allclose(M @ P @ M, M, atol=1e-10)
        assert_allclose(P @ M @ P, P, atol=1e-10)
        assert_allclose((M @ P).T, M @ P, atol=1e-10)
        assert_allclose((P @ M).T, P @ M, atol=1e-10)


def test_pinv_rank_policy_cuts_noise_singular_values():
    M = np.diag([1.0, 1e-14])
    P = me.pinv(M)
    # the 1e-14 direction is treated as kernel, not inverted to 1e14
    assert P[1, 1] == 0.0
    assert P[0, 0] == pytest.approx(1.0)


def test_psd_factor_rotated_rank_one():
    th = 0.3
    R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    M = R @ np.diag([1.0, 1e-14]) @ R.T
    Z = me.SymmetricPSD(M).factor()
    # the factor keeps the kernel: one column, and Z Z^T reproduces only the
    # surviving direction
    assert Z.shape == (2, 1)
    assert_allclose(Z @ Z.T, R @ np.diag([1.0, 0.0]) @ R.T, atol=1e-10)


def _orthonormal(rng, n):
    return np.linalg.qr(rng.standard_normal((n, n)))[0]


def test_symmetric_psd_three_ways_agree():
    # one well-conditioned Q = Z Z^T from its entries, its factor and its
    # eigenpairs: the same spectrum, rank and steering
    rng = np.random.default_rng(7)
    U = _orthonormal(rng, 5)
    Z = U @ np.diag([2.0, 1.5, 1.2, 1.0, 0.8]) @ _orthonormal(rng, 5)
    Q = Z @ Z.T
    lam, V = np.linalg.eigh(Q)
    ways = [me.SymmetricPSD(Q), me.SymmetricPSD.from_factor(Z),
            me.SymmetricPSD.from_eigenpairs(lam, V)]
    x = rng.standard_normal(5)
    steers = [me.steer(me.Gramian(P, 1.0, "closed_form", "three"), x) for P in ways]
    for P, s in zip(ways, steers):
        assert_allclose(P.eigenvalues, lam, rtol=1e-12)
        assert_allclose(P.matrix, Q, rtol=0, atol=1e-12 * lam[-1])
        assert P.rank == 5
        assert s.category == steers[0].category == "in_range_Q"
        assert s.value == pytest.approx(steers[0].value, rel=1e-12)


@pytest.mark.parametrize("shape", [(6, 4), (4, 7)])
def test_symmetric_psd_from_rank_deficient_factor(shape):
    # a tall and a wide factor of rank 3, with one more singular value
    # between the cut on sigma (kept) and the cut on sigma^2 (dropped by
    # eigh of Z Z^T) and one below both
    n, k = shape
    rng = np.random.default_rng(11)
    sigma = np.zeros(min(n, k))
    sigma[:4] = [1.0, 0.5, 1e-7, 1e-13]
    Z = _orthonormal(rng, n)[:, :sigma.size] @ np.diag(sigma) @ _orthonormal(rng, k)[:sigma.size]
    P = me.SymmetricPSD.from_factor(Z)
    sv = np.linalg.svd(Z, compute_uv=False)
    assert P.rank == np.count_nonzero(sv >= minenergy.linalg.REL_THRESHOLD * sv[0]) == 3
    K, R = P.kernel_basis(), P.range_basis()
    assert K.shape == (n, n - 3)
    assert_allclose(K.T @ K, np.eye(n - 3), atol=1e-14)
    assert_allclose(K.T @ R, 0.0, atol=1e-14)
    # the range is that of Z's kept singular vectors
    assert np.linalg.norm(K.T @ Z, 2) <= 1e-12


def test_symmetric_psd_rejects_asymmetry():
    with pytest.raises(me.NotSymmetricError):
        me.SymmetricPSD([[1.0, 0.5], [0.0, 1.0]])


def test_symmetric_psd_rejects_indefinite():
    with pytest.raises(me.NotPSDError):
        me.SymmetricPSD([[1.0, 0.0], [0.0, -0.5]])


def test_symmetric_psd_clips_roundoff_negatives():
    Q = me.SymmetricPSD([[1.0, 0.0], [0.0, -1e-14]])
    assert Q.eigenvalues.min() == 0.0
    assert Q.rank == 1


def test_symmetric_psd_pinv_matches_numpy_on_full_rank(rng):
    X = rng.standard_normal((4, 4))
    M = X @ X.T + 0.5 * np.eye(4)
    Q = me.SymmetricPSD(M)
    assert_allclose(Q.pinv(), np.linalg.inv(M), rtol=1e-9)


def test_commutes_detects_commutation():
    A = np.diag([-1.0, -2.0])
    assert me.commutes(A, np.diag([3.0, 4.0]))
    assert not me.commutes(A, np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_commutes_iff_exponentials_commute(rng):
    for _ in range(10):
        A = rng.standard_normal((3, 3))
        K = rng.standard_normal((3, 3))
        lhs = me.expm(A) @ me.expm(K)
        rhs = me.expm(K) @ me.expm(A)
        if me.commutes(A, K, tol=1e-12):
            assert_allclose(lhs, rhs, atol=1e-10)
        else:
            assert not np.allclose(lhs, rhs, atol=1e-12)


def test_range_inclusion_identity_case():
    A1 = np.diag([1.0, 0.0])
    A2 = np.eye(2)
    rep = me.range_inclusion(A1, A2)
    assert rep.included
    assert rep.defect <= 1e-12
    # constant bounds the factorization norm: A1 = A2 C with ||C|| = 1
    assert rep.constant == pytest.approx(1.0, abs=1e-9)


def test_range_inclusion_fails_across_kernels():
    A1 = np.eye(2)
    A2 = np.diag([1.0, 0.0])
    rep = me.range_inclusion(A1, A2)
    assert not rep.included
    assert rep.defect > 0.1


def test_range_inclusion_constant_scales():
    # A1 = e1 (norm 1), A2 = 10*e1: factor C has norm 1/10
    rep = me.range_inclusion(np.diag([1.0, 0.0]), np.diag([10.0, 0.0]))
    assert rep.included
    assert rep.constant == pytest.approx(0.1, rel=1e-9)


def test_commuting_pinv_compose_matches_direct():
    # A2^+ A1 for commuting factors with range(A1) inside range(A2)
    D1 = np.diag([2.0, 1.0, 0.0])
    D2 = np.diag([4.0, 0.5, 0.0])
    out = me.commuting_pinv_compose(D1, D2)
    assert_allclose(out, np.diag([0.5, 2.0, 0.0]), atol=1e-12)


def test_commuting_pinv_compose_rejects_range_escape():
    with pytest.raises(me.PreconditionError):
        me.commuting_pinv_compose(np.eye(2), np.diag([1.0, 0.0]))


def test_a_zero_spectrum_keeps_nothing():
    assert me.rank_mask(np.zeros(0)).shape == (0,)
    assert not me.rank_mask(np.zeros(3)).any()
    assert_array_equal(me.pinv(np.zeros((2, 3))), np.zeros((3, 2)))
    assert me.SymmetricPSD(np.zeros((2, 2))).rank == 0
    assert me.range_inclusion(np.zeros((2, 1)), np.zeros((2, 2))).included
    assert not me.range_inclusion(np.eye(2)[:, :1], np.zeros((2, 2))).included


def test_every_verdict_follows_the_one_cut(monkeypatch):
    # one rank cut and one membership test, read from ``linalg`` at call
    # time: a module that kept its own binding of the threshold would judge
    # by 1e-10 below, not by the patched 1e-3
    cut = 1e-3
    monkeypatch.setattr(minenergy.linalg, "REL_THRESHOLD", cut)
    D = np.diag([1.0, 1e-5])  # the second direction is kept at 1e-10, cut at 1e-3
    x = np.array([1.0, 1e-5])  # its part there is roundoff at 1e-3, not at 1e-10
    assert me.SymmetricPSD(D).rank == 1
    assert_allclose(me.pinv(D), np.diag([1.0, 0.0]))
    assert np.linalg.matrix_rank(me.pinv(D)) == 1
    s = me.steer(me.Gramian(me.SymmetricPSD(D), 1.0, "closed_form", "cut"), x)
    assert s.category == "in_range_Q"
    assert s.defect == pytest.approx(1e-5) and s.value == pytest.approx(0.5)
    geom = me.HGeometry(me.Gramian(me.SymmetricPSD(D), np.inf, "closed_form", "cut"))
    assert geom.contains(x)
    assert me.h_norm(geom, x) == pytest.approx(1.0)
    assert me.range_inclusion(x[:, None], D).included
    # B's second singular value, and the Gramian direction it drives, fall
    # below the patched cut
    rep = me.kernel_chain_check(me.LinearSystem(-np.diag([1.0, 2.0]), np.diag([1.0, 1e-4])),
                                [0.5, 1.0])
    assert rep.kernel_dims == (1, 1) and rep.dim_ker_Bt == 1
    # the shift's control map at t = 1 on 32 cells has one singular value
    # between the two cuts; the target leans 1e-5 into its direction
    sh = me.ShiftSystem(32)
    U, sv, _ = np.linalg.svd(me.shift_control_map(sh, 1.0))
    assert sv[-1] <= cut * sv[0] < sv[-2]
    f_hat = U[:, 0] + 1e-5 * U[:, -1]
    rep = sh.steer(1.0, f_hat / np.sqrt(sh.h))
    assert sh.gramian(1.0).Q.rank == 31 and rep.category == "in_range_Q"
    assert rep.defect == pytest.approx(1e-5, rel=1e-6)


def test_negative_type_bound_scalar():
    M, omega = me.negative_type_bound([[-1.0]])
    assert omega == pytest.approx(1.0)
    assert M == pytest.approx(1.0)


def test_negative_type_bound_controls_norm(rng):
    A = me.random_stable_system(rng, 4).A
    M, omega = me.negative_type_bound(A, t_max=2.0)
    for t in np.linspace(0.0, 2.0, 17):
        assert np.linalg.norm(me.expm(A, t), 2) <= M * np.exp(-omega * t) * (1 + 1e-9)


def test_as_matrix_rejects_ragged():
    with pytest.raises((ValueError, TypeError)):
        as_matrix([[1.0, 2.0], [3.0]], "M")


def test_random_stable_system_is_stable(rng):
    for n in (1, 3, 6):
        sys = me.random_stable_system(rng, n)
        assert sys.stable
        assert np.max(np.linalg.eigvals(sys.A).real) < 0
