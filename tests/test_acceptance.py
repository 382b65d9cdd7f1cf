"""Acceptance gate: eleven criteria, one test (and one pass/fail line) each.

Run with ``pytest -v tests/test_acceptance.py``; each criterion prints an
extra ``[criterion NN] PASS`` line under ``-s`` once its assertions hold.
"""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

import minenergy as me
from minenergy.models import (
    delay_fundamental_solution,
    delay_gramian,
    landau_ginzburg,
    power_law,
    shift_benchmark_target,
    spectral_gramian,
    spectral_null_controllability,
    spectral_space_h_classification,
    thin_control_example,
)
from oracles import gramian_infinite

SEED = 987654321
SPECTRAL_PRESETS = [
    ("landau-ginzburg", landau_ginzburg),
    ("power-law-0.5", lambda: power_law(0.5)),
    ("power-law-2.0", lambda: power_law(2.0)),
    ("thin-control", thin_control_example),
]


def _pass(k, msg):
    print(f"[criterion {k:02d}] PASS — {msg}")


def seeded_systems(count, max_n=8, diagonal_every=2):
    """Deterministic mix of dense and diagonal stable systems."""
    rng = np.random.default_rng(SEED)
    out = []
    for i in range(count):
        n = int(rng.integers(1, max_n + 1))
        if i % diagonal_every == 0:
            lam = np.sort(rng.uniform(0.3, 3.0, size=n))
            b = rng.uniform(0.3, 2.0, size=n)
            out.append(me.LinearSystem(np.diag(-lam), np.diag(np.sqrt(b))))
        else:
            out.append(me.random_stable_system(rng, n))
    return out, rng


def test_c01_gramian_cross_validation():
    systems, rng = seeded_systems(50)
    # the engine must also hold where it cannot lean on stability
    unstable_rng = np.random.default_rng(SEED + 1)
    unstable = [me.random_stable_system(unstable_rng, int(unstable_rng.integers(2, 7)),
                                        margin=-0.5) for _ in range(5)]
    cases = [(s, rng) for s in systems] + [(s, unstable_rng) for s in unstable]
    closed_form_hits = 0
    for sys_, rng_t in cases:
        t = float(rng_t.uniform(0.3, 2.5))
        q_quad = me.gramian_quadrature_sweep(sys_, [t])[0].Q.matrix
        q_ode = me.gramian_lyapunov_ode(sys_, t).Q.matrix
        q_eng = me.compute_gramian(sys_, t).Q.matrix
        scale = max(np.linalg.norm(q_quad, 2), 1e-300)
        assert np.linalg.norm(q_ode - q_quad, 2) / scale < 1e-8
        assert np.linalg.norm(q_eng - q_quad, 2) / scale < 1e-8
        assert np.linalg.norm(q_eng - q_ode, 2) / scale < 1e-8
        if sys_.is_commuting_selfadjoint():
            q_cf = me.gramian_commuting_closed_form(sys_, t).Q.matrix
            assert np.linalg.norm(q_cf - q_quad, 2) / scale < 1e-8
            closed_form_hits += 1
    assert closed_form_hits >= 20  # the diagonal half actually exercises it
    assert all(not s.stable for s in unstable)
    for name, preset in SPECTRAL_PRESETS:
        ssys = preset()
        q_spec = spectral_gramian(ssys, 1.0).Q.matrix
        q_quad = me.gramian_quadrature_sweep(ssys, [1.0])[0].Q.matrix
        q_ode = me.gramian_lyapunov_ode(ssys, 1.0).Q.matrix
        scale = max(np.linalg.norm(q_spec, 2), 1e-300)
        assert np.linalg.norm(q_quad - q_spec, 2) / scale < 1e-8, name
        assert np.linalg.norm(q_ode - q_spec, 2) / scale < 1e-8, name
    _pass(1, "engine / quadrature / ODE / closed-form agree to 1e-8 on 55 systems + presets")


def test_c02_minimum_energy_brute_force_oracle():
    systems, rng = seeded_systems(50)
    worst = 0.0
    for sys_ in systems:
        t = float(rng.uniform(0.5, 2.0))
        g = me.compute_gramian(sys_, t)
        for _ in range(3):
            x = g.Q.matrix @ rng.standard_normal(sys_.n)
            v = me.value_function(g, x)
            prev = np.inf
            for steps in (250, 500, 1000, 2000):
                bf = me.brute_force_min_energy(sys_, x, t, n_steps=steps)
                assert bf.energy <= prev * (1 + 1e-9), "not monotone under doubling"
                prev = bf.energy
            assert prev >= v * (1 - 1e-9), "discrete optimum dipped below the value"
            rel = abs(prev - v) / max(abs(v), 1e-300)
            worst = max(worst, rel)
            assert rel < 1e-3
    _pass(2, f"brute force at 2000 steps within 1e-3 of the value (worst {worst:.1e})")


def test_c03_scalar_benchmark_exact_values():
    sys_ = me.LinearSystem([[-1.0]], [[1.0]])
    g = me.compute_gramian(sys_, 1.0)
    v = me.value_function(g, [1.0])
    assert abs(v - 1.0 / (1.0 - math.exp(-2.0))) < 1e-10
    C = 2.0
    for t in (1.0, 2.0, 3.0, 4.0, 6.0, 8.0):
        vt = me.value_function(me.compute_gramian(sys_, t), [1.0])
        assert vt - 1.0 <= C * math.exp(-2.0 * t)
        assert vt > 1.0
    _pass(3, "V(1,1) = 1/(1-e^-2) to 1e-10; V(t,1)-1 <= 2 e^{-2t}")


def test_c04_riccati_verification_and_discrimination():
    systems, rng = seeded_systems(50)
    for sys_ in systems:
        T0 = 0.25 / sys_.omega
        times = np.linspace(T0, 4.0 / sys_.omega, 6)
        cand = me.pv_candidate(sys_)
        rep_h = me.riccati_residual(cand, times, tol=1e-6)
        assert rep_h.passed, f"H residual failed: {max(rep_h.residuals):.3e}"
        rep_x = me.riccati_residual(me.inverse_candidate(sys_), times, tol=1e-6)
        assert rep_x.passed, f"X residual failed: {max(rep_x.residuals):.3e}"
    # discriminative power: the shifted family must fail decisively
    rng2 = np.random.default_rng(SEED + 1)
    for sys_ in [me.LinearSystem([[-1.0]], [[1.0]]),
                 me.random_stable_system(rng2, 4)]:
        base = me.pv_candidate(sys_)
        shifted = me.RiccatiCandidate(
            sys_, base.geometry, lambda t, b=base: b.evaluate(t) + np.eye(sys_.n)
        )
        rep = me.riccati_residual(shifted, [0.5 / sys_.omega, 1.0 / sys_.omega])
        scale = rep.tol_scaled / rep.tol
        assert not rep.passed
        assert max(rep.residuals) >= 1e-2 * scale
    _pass(4, "H and X residuals pass at 1e-6 scaled on [T0, 4/omega]; P_V + I fails >= 1e-2 scaled")


def test_c05_lyapunov_verification_and_uniqueness():
    systems, rng = seeded_systems(20)
    for sys_ in systems:
        family = lambda s, sys=sys_: me.compute_gramian(sys, s).Q.matrix
        times = np.linspace(0.4, 2.0, 4)
        rep_d = me.lyapunov_residual(sys_, family, times, tol=1e-7)
        assert rep_d.passed, f"differential residual {max(rep_d.residuals):.3e}"
        q_inf = gramian_infinite(sys_).Q.matrix
        rep_a = me.lyapunov_residual(sys_, q_inf, tol=1e-10)
        assert rep_a.passed, f"algebraic residual {rep_a.residuals[0]:.3e}"
    # uniqueness / discrimination on the scalar benchmark
    sys_ = me.LinearSystem([[-1.0]], [[1.0]])
    bad_family = lambda s: 1.1 * me.compute_gramian(sys_, s).Q.matrix
    rep_bad = me.lyapunov_residual(sys_, bad_family, [0.5, 1.0], tol=1e-7)
    assert not rep_bad.passed
    q_bad = gramian_infinite(sys_).Q.matrix + 0.05 * np.eye(1)
    rep_bad_a = me.lyapunov_residual(sys_, q_bad, tol=1e-10)
    assert not rep_bad_a.passed
    _pass(5, "Q_t differential <= 1e-7 scaled, Q_inf algebraic <= 1e-10 scaled, perturbations rejected")


def test_c06_commuting_case_suite():
    rng = np.random.default_rng(SEED + 2)
    mixed_verdicts = 0
    for i in range(20):
        n = int(rng.integers(2, 7))
        lam = np.sort(rng.uniform(0.4, 2.5, size=n))
        sys_ = me.LinearSystem(np.diag(-lam), np.eye(n))
        K = np.diag(rng.uniform(0.0, 2.0, size=n))
        cand = me.commuting_candidate(sys_, K)
        times = [cand.t1 + 0.3, cand.t1 + 1.0]
        rep = me.riccati_residual_commuting(cand, times)
        assert rep.passed, f"draw {i}: residual {max(rep.residuals):.3e}"
        # (b) one-snapshot recovery round-trips the mixing operator
        t_star = cand.t1 + 0.5
        rec = me.recover_L(cand, t_star)
        assert rec.passed
        E_inv = me.expm(sys_.A, -t_star)
        assert np.abs(E_inv @ rec.L @ E_inv - K).max() < 1e-6
        # (c) spectral projector onto a random mode subset
        mask = rng.integers(0, 2, size=n)
        if mask.sum() in (0, n):
            mask[0] = 1 - mask[0]
        P = np.diag(mask.astype(float))
        prep = me.projected_solution_check(cand, P, times)
        mixed_verdicts += int(prep.mixed_verdict)
        assert prep.range_condition_holds and prep.is_solution
    # engineered failure: coupled K breaks the invariance and the equation
    sys_f = me.LinearSystem(np.diag([-1.0, -2.0]), np.diag([1.0, math.sqrt(2.0)]))
    K_f = np.array([[0.3, 0.2], [0.2, 0.3]])
    cand_f = me.commuting_candidate(sys_f, K_f)
    rep_f = me.projected_solution_check(cand_f, np.diag([1.0, 0.0]), [0.8, 1.2, 2.0])
    mixed_verdicts += int(rep_f.mixed_verdict)
    assert not rep_f.range_condition_holds
    assert not rep_f.is_solution
    assert mixed_verdicts == 0
    _pass(6, "20 commuting draws pass; recover_L round-trips to 1e-6; 21 projection pairs, zero mixed verdicts")


def test_c07_spectral_model():
    for name, preset in SPECTRAL_PRESETS:
        ssys = preset()
        g = spectral_gramian(ssys, 1.0).Q.matrix
        lam, b = ssys.lambdas, ssys.bs
        expected = np.diag(b * -np.expm1(-2.0 * lam) / (2.0 * lam))
        assert np.abs(g - expected).max() <= 1e-12 * max(expected.max(), 1e-300), name
        rep = spectral_null_controllability(ssys, 1.0)
        dense = me.null_controllability_test(me.LinearSystem(ssys.A, ssys.B), 1.0)
        assert rep.satisfied == dense.satisfied, name
    cl = spectral_space_h_classification(landau_ginzburg())
    assert cl.description_sqrt == "D(A^0.5)"
    assert cl.s_range_sqrt == pytest.approx(0.5, abs=1e-9)
    _pass(7, "closed-form Gramian to 1e-12; NC verdicts match the dense route; D(A^0.5) reported")


def test_c08_delay_model():
    sys_hand = me.DelaySystem(a0=0.0, a1=1.0, b0=1.0, delay=1.0, mesh=2)
    g = delay_fundamental_solution(sys_hand, 3.0)
    assert g(0.5) == pytest.approx(1.0, abs=1e-14)
    assert g(1.5) == pytest.approx(1.5, abs=1e-14)
    assert g(2.5) == pytest.approx(2.625, abs=1e-14)
    sys_ = me.DelaySystem(a0=-0.3, a1=0.6, b0=1.0, delay=1.0, mesh=16)
    for t in (1.0, 2.0):
        Q = delay_gramian(sys_, t).Q.matrix
        assert np.abs(Q - Q.T).max() <= 1e-9
        assert np.linalg.eigvalsh(Q).min() >= -1e-9
    rep_pass = sys_.null_controllability(2.0)
    assert rep_pass.satisfied
    rep_fail = sys_.null_controllability(0.5)
    assert not rep_fail.satisfied
    _pass(8, "hand-derived g segments exact; Gramian symmetric PSD to 1e-9; NC passes at 2d, fails at d/2")


def test_c09_shift_counterexample():
    defects = []
    for m in (64, 128, 256, 512):
        sh = me.ShiftSystem(m)
        rep = sh.steer(0.25, shift_benchmark_target(m))
        assert rep.defect >= 0.17, f"m={m}: defect {rep.defect:.4f}"
        defects.append(rep.defect)
    rep_full = me.ShiftSystem(512).steer(1.0, shift_benchmark_target(512))
    assert rep_full.defect < 1e-3
    _pass(9, f"defect at t=1/4 stays >= 0.17 under refinement ({defects[-1]:.4f} at m=512); t=1 defect {rep_full.defect:.1e}")


def test_c10_structural_identities():
    rng = np.random.default_rng(SEED + 3)
    # splitting across intermediate horizons, including a non-stable draw
    for i in range(10):
        n = int(rng.integers(1, 6))
        if i < 8:
            sys_ = me.random_stable_system(rng, n)
        else:
            A = rng.standard_normal((n, n)) * 0.4  # sign-indefinite generator
            sys_ = me.LinearSystem(A, rng.standard_normal((n, max(1, n - 1))))
        t, tau = 0.6, 1.7
        q_t = me.gramian_quadrature_sweep(sys_, [t])[0].Q.matrix
        q_tau = me.gramian_quadrature_sweep(sys_, [tau])[0].Q.matrix
        q_gap = me.gramian_quadrature_sweep(sys_, [tau - t])[0].Q.matrix
        E = me.expm(sys_.A, t)
        lhs = q_tau
        rhs = q_t + E @ q_gap @ E.T
        assert np.linalg.norm(lhs - rhs, 2) <= 1e-9 * max(np.linalg.norm(lhs, 2), 1e-300)
    # value monotone decreasing in the horizon
    for sys_ in [me.LinearSystem([[-1.0]], [[1.0]]), me.random_stable_system(rng, 3)]:
        g_ref = me.compute_gramian(sys_, 2.0)
        x = g_ref.Q.matrix @ rng.standard_normal(sys_.n)
        vals = [me.value_function(me.compute_gramian(sys_, t), x)
                for t in (0.5, 1.0, 2.0, 4.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
    # family norm non-increasing
    sys_ = me.random_stable_system(rng, 4)
    cand = me.pv_candidate(sys_)
    norms = [cand.h_norm_of(t) for t in np.linspace(0.3, 3.0, 10)]
    assert all(b <= a * (1 + 1e-9) for a, b in zip(norms, norms[1:]))
    # Penrose identities and the range-inclusion biconditional, 100 cases each
    for _ in range(100):
        n, m = rng.integers(1, 7, size=2)
        M = rng.standard_normal((n, m))
        P = me.pinv(M)
        assert np.allclose(M @ P @ M, M, atol=1e-10)
        assert np.allclose(P @ M @ P, P, atol=1e-10)
        assert np.allclose((M @ P).T, M @ P, atol=1e-10)
        assert np.allclose((P @ M).T, P @ M, atol=1e-10)
    for i in range(100):
        n = int(rng.integers(2, 7))
        r = int(rng.integers(1, n))
        X = rng.standard_normal((n, r))
        A2 = X @ X.T  # PSD with rank r < n
        psd = me.SymmetricPSD(A2)
        if i % 2 == 0:
            A1 = A2 @ rng.standard_normal((n, n))  # inside the range
            assert me.range_inclusion(A1, A2).included
        else:
            escape = psd.kernel_basis()[:, :1]  # leaves the range
            A1 = np.hstack([A2[:, :1], escape])
            assert not me.range_inclusion(A1, A2).included
    _pass(10, "splitting to 1e-9; V decreasing; family norm non-increasing; Penrose + inclusion biconditional x100")


def test_c11_run_determinism(tmp_path):
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    scenario = os.path.join(repo, "scenarios", "benchmark.json")
    outs = []
    for tag in ("first", "second"):
        out = str(tmp_path / tag)
        p = subprocess.run(
            [sys.executable, "-m", "minenergy", "run", scenario, "--out", out],
            capture_output=True, text=True,
        )
        assert p.returncode == 0, p.stderr
        outs.append(out)
    names = sorted(os.listdir(outs[0]))
    assert names == sorted(os.listdir(outs[1]))
    assert "report.json" in names
    for name in names:
        with open(os.path.join(outs[0], name), "rb") as f:
            b1 = f.read()
        with open(os.path.join(outs[1], name), "rb") as f:
            b2 = f.read()
        assert b1 == b2, f"{name} differs between runs"
    _pass(11, f"two runs of the benchmark scenario byte-identical across {len(names)} files")
