"""Output checks against references computed apart from the program.

Nothing here imports minenergy.  Every check reads one scenario's
``report.json`` and CSVs and compares them with an independent computation
or with a property the method must have:

* finite Gramians of dense systems: Van Loan's block exponential (IEEE TAC
  23(3), 1978); for stable systems Bartels-Stewart (scipy) plus the exact
  horizon splitting, cross-checked against Van Loan;
* diagonal systems: the per-mode closed forms;
* the delay equation: a mesh Gramian and controls built from the benchmark's
  own method-of-steps integrator;
* the moving-window shift: a window-overlap map built by the midpoint rule.

Tolerances follow the references' own accuracy and the methods' stated
errors.  Quantities derived from a Gramian (values, controls) are held to a
first-order perturbation bound driven by the Gramian error the program
actually reported, plus roundoff amplified by the condition number; the
trapezoid energy to the O(h^2) bound of the rule.  Entries of a task that
reported an error are failed operations, counted elsewhere, and not checked.
"""

import json
import math
import os

import numpy as np
import scipy.linalg

EPS = np.finfo(float).eps

# relative (to the largest entry) agreement required of a finite Gramian:
# Van Loan loses up to ~1e-9 at t = 4 on dense stable systems, and the
# program's quadrature route stops at a 1e-10 refinement difference
GRAMIAN_RTOL = 1e-8
# the two dense references must agree this well, or the reference is unusable
REFERENCE_RTOL = 1e-9
# adaptive quadrature stops when two refinements agree to 1e-10; allow 10x
QUADRATURE_RTOL = 1e-9
# closed forms evaluated by the program and the benchmark alike
CLOSED_FORM_RTOL = 1e-10
# the program's margin for the commuting family's invertibility threshold
FAMILY_MARGIN = 1e-6
# the program's rank policy: relative cutoff on singular values
RANK_RTOL = 1e-10


class ReferenceError(RuntimeError):
    """The benchmark's own references disagree: the check cannot be made."""


# ---------------------------------------------------------------------------
# reading outputs
# ---------------------------------------------------------------------------


def _load_report(out_dir):
    with open(os.path.join(out_dir, "report.json")) as f:
        return json.load(f)


def _read_csv(out_dir, name):
    with open(os.path.join(out_dir, name)) as f:
        lines = f.read().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def _numeric_csv(out_dir, name):
    header, rows = _read_csv(out_dir, name)
    return header, np.array([[float(c) for c in row] for row in rows], dtype=float)


def _entries(report, task):
    """Result blocks of one task, skipping a task that errored (a failed operation)."""
    out = []
    for entry in report["tasks"]:
        if entry["task"] == task and "error" not in entry:
            out.append(entry)
    return out


def _horizon(value):
    return math.inf if value == "inf" else float(value)


def _rel_max(a, b):
    scale = max(np.abs(b).max(), np.finfo(float).tiny)
    return float(np.abs(np.asarray(a, dtype=float) - b).max() / scale)


class _Problems(list):
    def require(self, ok, message):
        if not ok:
            self.append(message)
        return ok


# ---------------------------------------------------------------------------
# independent references
# ---------------------------------------------------------------------------


def van_loan_gramian(A, B, t):
    """Q_t = ∫_0^t e^{sA} B B^T e^{sA^T} ds from one exponential of a 2n block."""
    n = A.shape[0]
    M = np.block([[-A, B @ B.T], [np.zeros((n, n)), A.T]])
    F = scipy.linalg.expm(M * t)
    Q = F[n:, n:].T @ F[:n, n:]
    return 0.5 * (Q + Q.T)


def split_gramian(A, B, t):
    """Q_t = Q_inf - e^{tA} Q_inf e^{tA^T} with Q_inf by Bartels-Stewart (stable A)."""
    Qinf = scipy.linalg.solve_continuous_lyapunov(A, -B @ B.T)
    E = scipy.linalg.expm(A * t)
    Q = Qinf - E @ Qinf @ E.T
    return 0.5 * (Q + Q.T)


def dense_reference(A, B, t):
    """Van Loan for any A; for stable A the splitting, checked against Van Loan.

    Van Loan's -A block grows like e^{t||A||} on stable systems, which costs
    it accuracy at long horizons; the splitting has no such growth there.
    """
    Q = van_loan_gramian(A, B, t)
    if np.max(np.linalg.eigvals(A).real) < 0.0:
        Q_split = split_gramian(A, B, t)
        gap = _rel_max(Q, Q_split)
        if gap > REFERENCE_RTOL:
            raise ReferenceError(f"Van Loan and Bartels-Stewart disagree by {gap:.2e} at t={t}")
        Q = Q_split
    return Q


class DelayReference:
    """Method-of-steps integrator for g' = a0 g + a1 g(s - d), g(0) = 1, zero history.

    On the k-th delay interval the shifted segments y_j(τ) = g(τ + j d),
    j <= k, solve the bidiagonal linear system y_0' = a0 y_0,
    y_j' = a0 y_j + a1 y_{j-1}, started from y_j(0) = y_{j-1}(d).  One
    exponential of that system, augmented by its start vector, gives g and
    its running integral F(u) = ∫_0^u g at any point, exact to roundoff.
    """

    def __init__(self, a0, a1, d, t_max):
        n = max(1, int(math.ceil(t_max / d - 1e-12)))
        self.d = d
        self.M = a0 * np.eye(n) + a1 * np.eye(n, k=-1)
        self.y0 = np.zeros(n)
        self.y0[0] = 1.0
        self.F0 = np.zeros(n)          # F(k d)
        for k in range(1, n):
            g_end, f_seg = self._segment(k - 1, d)
            self.y0[k] = g_end
            self.F0[k] = self.F0[k - 1] + f_seg
        self._cache = {}

    def _segment(self, k, local):
        """(g(k d + local), ∫_{k d}^{k d + local} g)."""
        m = k + 1
        aug = np.zeros((m + 1, m + 1))
        aug[:m, :m] = self.M[:m, :m]
        aug[:m, m] = self.y0[:m]
        E = scipy.linalg.expm(aug * local)
        return float(E[k, :m] @ self.y0[:m]), float(E[k, m])

    def g_F(self, u):
        """(g(u), F(u)), both zero for u < 0."""
        key = round(float(u), 12)
        hit = self._cache.get(key)
        if hit is None:
            if key < 0.0:
                hit = (0.0, 0.0)
            else:
                k = min(int(key // self.d), self.M.shape[0] - 1)
                g, f = self._segment(k, key - k * self.d)
                hit = (g, self.F0[k] + f)
            self._cache[key] = hit
        return hit

    def kernels(self, b0, mesh, taus):
        """Control-to-mesh kernels at elapsed times τ: head b0 g(τ), cell j
        (b0/√h) (F(τ + c_j) - F(τ + c_j - h)) with c_j = (j + 1) h - d."""
        h = self.d / mesh
        c = (np.arange(mesh) + 1.0) * h - self.d
        K = np.empty((mesh + 1, len(taus)))
        for i, tau in enumerate(taus):
            K[0, i] = b0 * self.g_F(tau)[0]
            for j in range(mesh):
                K[1 + j, i] = (b0 / math.sqrt(h)) * (
                    self.g_F(tau + c[j])[1] - self.g_F(tau + c[j] - h)[1])
        return K

    def mesh_gramian(self, b0, mesh, t, order=12):
        """∫_0^t K(τ) K(τ)^T dτ by Gauss-Legendre on every mesh step.

        Every kernel is smooth between multiples of h = d/mesh (the kinks of
        g and F sit at multiples of d, the cell offsets on the lattice), so
        each piece is integrated exactly to roundoff.
        """
        h = self.d / mesh
        x, w = np.polynomial.legendre.leggauss(order)
        edges = np.arange(0.0, t + 0.5 * h, h)
        Q = np.zeros((mesh + 1, mesh + 1))
        for lo, hi in zip(edges[:-1], edges[1:]):
            taus = 0.5 * (hi - lo) * x + 0.5 * (hi + lo)
            K = self.kernels(b0, mesh, taus)
            Q += (K * (0.5 * (hi - lo) * w)) @ K.T
        return 0.5 * (Q + Q.T)


def shift_map(m, t):
    """Control-to-state map of the window shift, cell and slot coordinates.

    Entry (i, k) is sqrt(h)/h times ∫ over slot k of |cell_i ∩ window(τ)|
    dτ; the overlap is linear in the window offset inside one lattice slot,
    so the midpoint rule gives the integral exactly.
    """
    h = 1.0 / m
    steps = int(round(t * m))
    lo_edges = np.arange(m) * h
    L = np.zeros((m, steps))
    for k in range(steps):
        a = t - (k + 0.5) * h
        overlap = np.clip(np.minimum(lo_edges + h, a + 0.25) - np.maximum(lo_edges, a), 0.0, None)
        L[:, k] = math.sqrt(h) * overlap
    return L


# ---------------------------------------------------------------------------
# shared pieces
# ---------------------------------------------------------------------------


def _trapezoid(y, x):
    return float(np.sum(0.5 * (y[1:] + y[:-1]) * np.diff(x)))


def _control_energy_checks(p, tag, series, value_ref, tol_value, f2_max, t):
    """½∫|u|² from the written control vs. the value, within the trapezoid bound."""
    r, u = series
    energy = 0.5 * _trapezoid(np.sum(u**2, axis=1), r)
    h = float(np.max(np.diff(r)))
    bound = t * h * h / 12.0 * f2_max * 1.25
    p.require(
        abs(energy - value_ref) <= bound + tol_value + 1e-12 * abs(value_ref),
        f"{tag}: ½∫|u|² = {energy:.12g} differs from the value {value_ref:.12g} "
        f"beyond the trapezoid bound {bound:.3g}",
    )
    return energy


def _gramian_errors(report, refs, p, tag):
    """Check reported finite Gramians; return the observed max-entry error per horizon."""
    observed = {}
    for entry in _entries(report, "gramian"):
        for res in entry["results"]:
            t = _horizon(res["horizon"])
            if t not in refs:
                continue
            err = _rel_max(res["Q"], refs[t])
            observed[t] = err
            p.require(err <= GRAMIAN_RTOL,
                      f"{tag}: Gramian at t={t} off the reference by {err:.2e} (relative)")
    return observed


def _delta_q(observed, t, Q):
    """Spectral-norm bound on the program's Gramian error from the observed entries."""
    d = observed.get(t, GRAMIAN_RTOL)
    return Q.shape[0] * max(d, EPS) * float(np.abs(Q).max())


# ---------------------------------------------------------------------------
# steer: dense min-energy steering
# ---------------------------------------------------------------------------


def _dense_control(A, B, z, rs):
    """u(r) = B^T e^{-r A^T} z and the second derivative of ½|u|² at each r."""
    u = np.empty((rs.size, B.shape[1]))
    f2 = np.empty(rs.size)
    for i, r in enumerate(rs):
        w = scipy.linalg.expm(-r * A.T) @ z
        u0 = B.T @ w
        u1 = -B.T @ (A.T @ w)
        u2 = B.T @ (A.T @ (A.T @ w))
        u[i] = u0
        f2[i] = u1 @ u1 + u0 @ u2
    return u, f2


def check_dense_steer(item, out_dir):
    sc = item["scenario"]
    A = np.array(sc["model"]["A"], dtype=float)
    B = np.array(sc["model"]["B"], dtype=float)
    n, m = B.shape
    p = _Problems()
    report = _load_report(out_dir)
    horizons = [float(t) for t in sc["horizons"]]
    refs = {t: dense_reference(A, B, t) for t in horizons}
    observed = _gramian_errors(report, refs, p, item["name"])

    values = {}
    for entry in _entries(report, "min-energy"):
        for res in entry["results"]:
            t = _horizon(res["horizon"])
            xi = res["target_id"]
            tag = f"{item['name']} min-energy t={t} target {xi}"
            x = np.array(sc["targets"][xi], dtype=float)
            Q = refs[t]
            kappa = float(np.linalg.cond(Q))
            z = np.linalg.solve(Q, x)
            v_ref = 0.5 * float(x @ z)
            dQ = _delta_q(observed, t, Q)
            tol_v = float(z @ z) * dQ + 10.0 * kappa * EPS * v_ref
            if not p.require(res["class"] == "in_range_Q" and res["value"] is not None,
                             f"{tag}: class {res['class']!r}, but Q_ref has full rank"):
                continue
            v = float(res["value"])
            values[(xi, t)] = (v, tol_v)
            p.require(abs(v - v_ref) <= tol_v,
                      f"{tag}: value {v!r} vs ½xᵀQ⁻¹x = {v_ref!r} (tol {tol_v:.2e})")
            if p.require("timeseries_csv" in res, f"{tag}: no control/trajectory written"):
                _check_dense_series(p, tag, out_dir, res, A, B, Q, x, z, t, dQ, kappa, v_ref, tol_v,
                                    sc.get("grid_points", 129))
    _check_value_monotone(p, item["name"], values)

    for entry in _entries(report, "null-controllability"):
        for res in entry["results"]:
            p.require(res["satisfied"] is True,
                      f"{item['name']}: null controllability at t={res['horizon']} reported "
                      f"{res['satisfied']!r}, but Q_ref has full rank")
    return p


def _check_dense_series(p, tag, out_dir, res, A, B, Q, x, z, t, dQ, kappa, v_ref, tol_v, k):
    _, data = _numeric_csv(out_dir, res["timeseries_csv"])
    n, m = B.shape
    rs = data[:, 0]
    u = data[:, 1 : 1 + m]
    y = data[:, 1 + m : 1 + m + n]
    if not p.require(rs.size == k and abs(rs[0] + t) <= 1e-12 * t and rs[-1] == 0.0,
                     f"{tag}: control grid is not {k} nodes on [-t, 0]"):
        return
    u_ref, f2 = _dense_control(A, B, z, rs)
    # Δz = Q⁻¹ ΔQ z plus the roundoff of the program's own solve
    dz = (np.linalg.norm(z) / np.linalg.svd(Q, compute_uv=False)[-1]) * dQ \
        + 10.0 * kappa * EPS * np.linalg.norm(z)
    for i, r in enumerate(rs):
        gain = np.linalg.norm(B.T @ scipy.linalg.expm(-r * A.T), 2)
        tol_u = 2.0 * gain * dz + 1e-13 * np.abs(u_ref).max()
        if not p.require(np.abs(u[i] - u_ref[i]).max() <= tol_u,
                         f"{tag}: control at r={r:.6g} is {u[i]} but Bᵀe^(-rAᵀ)Q⁻¹x = {u_ref[i]}"):
            break
    tol_y = 100.0 * kappa * EPS * np.linalg.norm(x) + dQ * np.linalg.norm(z)
    p.require(np.abs(y[0]).max() <= 1e-14 * np.linalg.norm(x),
              f"{tag}: trajectory does not start at 0")
    p.require(np.abs(y[-1] - x).max() <= tol_y,
              f"{tag}: trajectory ends {np.abs(y[-1] - x).max():.2e} away from the target")
    # sample |f''| on a 4x finer grid for the trapezoid bound
    fine = np.linspace(-t, 0.0, 4 * (k - 1) + 1)
    _, f2_fine = _dense_control(A, B, z, fine)
    energy = _control_energy_checks(p, tag, (rs, u), v_ref, tol_v,
                                    float(np.abs(f2_fine).max()), t)
    p.require(abs(res["energy_oracle"] - energy) <= 1e-12 * abs(energy),
              f"{tag}: reported energy {res['energy_oracle']!r} is not ½∫|u|² of the "
              f"written control ({energy!r})")


def _check_value_monotone(p, name, values):
    """V(t, x) must not increase with t (values keyed by (target, t))."""
    by_target = {}
    for (xi, t), vt in values.items():
        by_target.setdefault(xi, []).append((t, vt))
    for xi, seq in by_target.items():
        seq.sort()
        for (t1, (v1, e1)), (t2, (v2, e2)) in zip(seq[:-1], seq[1:]):
            p.require(v2 <= v1 + e1 + e2,
                      f"{name}: V(t, x{xi}) increases from t={t1} ({v1!r}) to t={t2} ({v2!r})")


# ---------------------------------------------------------------------------
# verify: dense residual checks
# ---------------------------------------------------------------------------


def riccati_reference_residual(A, B, t, n_probes=8, seed=0):
    """Residual of the reversed-sign equation for P = Q_inf Q_t^{-1}, exact derivative.

    Uses Q_t' = e^{tA} B B^T e^{tA^T}, so P' = -P Q_t' Q_t^{-1}; returns the
    largest weak-form residual over H-normalised probe pairs and the
    program's scale max(1, ||P||_H)^2 max(1, ||A||).
    """
    Qt = van_loan_gramian(A, B, t)
    Qinf = scipy.linalg.solve_continuous_lyapunov(A, -B @ B.T)
    Qinf = 0.5 * (Qinf + Qinf.T)
    E = scipy.linalg.expm(A * t)
    dQ = E @ B @ B.T @ E.T
    Qt_inv = np.linalg.inv(Qt)
    P = Qinf @ Qt_inv
    dP = -P @ dQ @ Qt_inv
    W = np.linalg.inv(Qinf)
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((A.shape[0], n_probes))
    X /= np.sqrt(np.einsum("ij,ij->j", X, W @ X))
    lhs = X.T @ W @ dP @ X
    WPX = W @ P @ X
    AX = A @ X
    BtWPX = B.T @ WPX
    rhs = -(AX.T @ WPX) - (WPX.T @ AX) - (BtWPX.T @ BtWPX)
    root = scipy.linalg.sqrtm(Qinf).real
    p_h = np.linalg.norm(np.linalg.solve(root, P @ root), 2)
    scale = max(1.0, p_h) ** 2 * max(1.0, np.linalg.norm(A, 2))
    return float(np.abs(lhs - rhs).max()), float(scale), float(np.linalg.cond(Qt))


def check_dense_verify(item, out_dir):
    sc = item["scenario"]
    A = np.array(sc["model"]["A"], dtype=float)
    B = np.array(sc["model"]["B"], dtype=float)
    name = item["name"]
    p = _Problems()
    report = _load_report(out_dir)
    horizons = [float(t) for t in sc["horizons"]]
    refs = {t: dense_reference(A, B, t) for t in horizons}
    observed = _gramian_errors(report, refs, p, name)

    # the paper's theorem: P = Q_inf Q_t^{-1} solves the reversed-sign
    # equation, so the residual from reference Gramians is at roundoff level
    for t in horizons:
        resid, scale, kappa = riccati_reference_residual(A, B, t)
        p.require(resid <= 1e3 * kappa * EPS * scale,
                  f"{name}: reference Riccati residual {resid:.2e} at t={t} is not at roundoff "
                  f"(scale {scale:.3g}, cond {kappa:.3g})")

    weighted_tol = None
    for entry in _entries(report, "verify-riccati"):
        for fam in entry["results"]:
            tag = f"{name} verify-riccati {fam['formula']}"
            p.require(fam["passed"] is True, f"{tag}: reported passed={fam['passed']!r}")
            p.require([float(x) for x in fam["times"]] == horizons, f"{tag}: wrong times")
            p.require(max(fam["residuals"]) <= fam["tol_scaled"],
                      f"{tag}: residual {max(fam['residuals']):.3e} above {fam['tol_scaled']:.3e}")
            if fam["equation"] == "weighted":
                weighted_tol = fam["tol_scaled"]
    for entry in _entries(report, "verify-lyapunov"):
        for res in entry["results"]:
            p.require(res["passed"] is True,
                      f"{name} verify-lyapunov {res['formula']}: passed={res['passed']!r}")
            p.require(max(res["residuals"]) <= res["tol_scaled"],
                      f"{name} verify-lyapunov {res['formula']}: residual above tolerance")

    for entry in _entries(report, "sweep"):
        if "value_sweep" in entry:
            _check_dense_value_sweep(p, name, out_dir, sc, refs, observed)
        if "residual_sweep" in entry and weighted_tol is not None:
            _, rows = _numeric_csv(out_dir, "residual_sweep.csv")
            p.require(np.allclose(rows[:, 5], rows[:, 3] - rows[:, 4], rtol=0, atol=1e-15 +
                                  1e-12 * np.abs(rows[:, 3:5]).max()),
                      f"{name}: residual_sweep.csv residual column is not lhs - rhs")
            for t in horizons:
                at_t = np.abs(rows[rows[:, 0] == t, 5])
                p.require(at_t.size > 0 and at_t.max() <= weighted_tol,
                          f"{name}: residual sweep at t={t} exceeds the verified tolerance")
    return p


def _check_dense_value_sweep(p, name, out_dir, sc, refs, observed):
    _, rows = _numeric_csv(out_dir, "value_sweep.csv")
    expected = len(refs) * len(sc["targets"])
    p.require(rows.shape[0] == expected, f"{name}: value sweep has {rows.shape[0]} rows")
    for t, xi, v, v_o, diff in rows:
        Q = refs[float(t)]
        x = np.array(sc["targets"][int(xi)], dtype=float)
        z = np.linalg.solve(Q, x)
        v_ref = 0.5 * float(x @ z)
        kappa = float(np.linalg.cond(Q))
        tol = float(z @ z) * _delta_q(observed, float(t), Q) + 10 * kappa * EPS * v_ref
        tol_o = float(z @ z) * Q.shape[0] * QUADRATURE_RTOL * np.abs(Q).max() \
            + 10 * kappa * EPS * v_ref
        tag = f"{name} value sweep t={t} target {int(xi)}"
        p.require(abs(v - v_ref) <= tol, f"{tag}: value {v!r} vs reference {v_ref!r}")
        p.require(abs(v_o - v_ref) <= tol_o, f"{tag}: oracle value {v_o!r} vs reference {v_ref!r}")
        p.require(abs(diff - abs(v - v_o)) <= 1e-12 * abs(v), f"{tag}: abs_diff column wrong")


# ---------------------------------------------------------------------------
# verify: diagonal (spectral) models
# ---------------------------------------------------------------------------


def _family_t1(lam, kappa):
    """Closed-form threshold of (I - e^{tA} K e^{tA})^{-1} for A = -diag(lam), K = diag(kappa)."""
    t1 = 0.0
    for l, k in zip(lam, kappa):
        if k >= 1.0 - FAMILY_MARGIN:
            t1 = max(t1, math.log(k / (1.0 - FAMILY_MARGIN)) / (2.0 * l))
    return t1


def _check_commuting_family(p, name, report, lam, kappa, horizons):
    t1 = _family_t1(lam, kappa)
    for entry in _entries(report, "commuting-family"):
        tag = f"{name} commuting-family"
        p.require(abs(entry["t1"] - t1) <= 1e-12 * max(t1, 1.0),
                  f"{tag}: t1 {entry['t1']!r} vs closed form {t1!r}")
        p.require([float(t) for t in entry["skipped_at_or_below_t1"]] ==
                  [t for t in horizons if t <= t1], f"{tag}: wrong skipped horizons")
        evaluated = [ev["t"] for ev in entry["evaluations"]]
        p.require(evaluated == [t for t in horizons if t > t1], f"{tag}: wrong evaluated horizons")
        for ev in entry["evaluations"]:
            ref = np.diag(1.0 / (1.0 - kappa * np.exp(-2.0 * lam * ev["t"])))
            p.require(_rel_max(ev["operator"], ref) <= CLOSED_FORM_RTOL,
                      f"{tag}: operator at t={ev['t']} is not diag(1/(1-κe^(-2λt)))")
            p.require(abs(ev["norm"] - np.abs(np.diag(ref)).max()) <= CLOSED_FORM_RTOL * ev["norm"],
                      f"{tag}: operator norm at t={ev['t']} wrong")
        if entry["evaluations"]:
            p.require(entry["residual"]["passed"] is True, f"{tag}: residual check failed")


def check_spectral(item, out_dir):
    sc = item["scenario"]
    lam = np.array(item["check"]["lambdas"], dtype=float)
    b = np.array(item["check"]["bs"], dtype=float)
    name = item["name"]
    p = _Problems()
    report = _load_report(out_dir)
    horizons = [float(t) for t in sc["horizons"]]

    def q_of(t):
        return b * -np.expm1(-2.0 * lam * t) / (2.0 * lam)

    for entry in _entries(report, "gramian"):
        for res in entry["results"]:
            t = _horizon(res["horizon"])
            p.require(_rel_max(res["Q"], np.diag(q_of(t))) <= CLOSED_FORM_RTOL
                      and np.allclose(np.diag(np.diag(res["Q"])), res["Q"], rtol=0, atol=0),
                      f"{name}: Gramian at t={t} is not diag(b(1-e^(-2λt))/2λ)")

    values = {}
    for entry in _entries(report, "min-energy"):
        for res in entry["results"]:
            t = _horizon(res["horizon"])
            xi = res["target_id"]
            tag = f"{name} min-energy t={t} target {xi}"
            x = np.array(sc["targets"][xi], dtype=float)
            q = q_of(t)
            z = x / q
            v_ref = 0.5 * float(x @ z)
            if not p.require(res["class"] == "in_range_Q", f"{tag}: class {res['class']!r}"):
                continue
            tol_v = CLOSED_FORM_RTOL * v_ref
            values[(xi, t)] = (res["value"], tol_v)
            p.require(abs(res["value"] - v_ref) <= tol_v,
                      f"{tag}: value {res['value']!r} vs per-mode ½Σx²/q = {v_ref!r}")
            if not p.require("timeseries_csv" in res, f"{tag}: no control written"):
                continue
            _, data = _numeric_csv(out_dir, res["timeseries_csv"])
            N = lam.size
            rs, u, y = data[:, 0], data[:, 1 : 1 + N], data[:, 1 + N :]
            grow = np.exp(np.outer(rs, lam))
            u_ref = np.sqrt(b) * z * grow
            p.require(np.abs(u - u_ref).max() <= CLOSED_FORM_RTOL * np.abs(u_ref).max(),
                      f"{tag}: control is not √b e^(λr) x/q per mode")
            p.require(np.abs(y[0]).max() == 0.0 and
                      np.abs(y[-1] - x).max() <= CLOSED_FORM_RTOL * np.abs(x).max(),
                      f"{tag}: trajectory does not run from 0 to the target")
            # f = ½|u|², f'' = Σ 2λ² u² per mode
            f2 = float(np.max(np.sum(2.0 * lam**2 * u_ref**2, axis=1)))
            energy = _control_energy_checks(p, tag, (rs, u), v_ref, tol_v, f2, t)
            p.require(abs(res["energy_oracle"] - energy) <= 1e-12 * energy,
                      f"{tag}: reported energy is not ½∫|u|² of the written control")
    _check_value_monotone(p, name, values)

    kappa = np.diag(np.array(sc["K"], dtype=float)).copy()
    _check_commuting_family(p, name, report, lam, kappa, horizons)

    for entry in _entries(report, "project-check"):
        t1 = _family_t1(lam, kappa)
        p.require([float(t) for t in entry["times"]] == [t for t in horizons if t > t1],
                  f"{name}: project-check times {entry['times']} are not the horizons above t1")
        p.require(entry["range_condition_holds"] is True and entry["is_solution"] is True
                  and entry["mixed_verdict"] is False and entry.get("passed") is True,
                  f"{name}: project-check with a diagonal projector did not hold")
        p.require(max(entry["range_defects"]) <= 1e-12,
                  f"{name}: diagonal projector shows a range defect")

    for entry in _entries(report, "null-controllability"):
        for res in entry["results"]:
            T = float(res["horizon"])
            log_ratio = (np.log(2 * lam) - 2 * lam * T - np.log(b)
                         - np.log1p(-np.exp(-2 * lam * T)))
            tag = f"{name} null-controllability t={T}"
            p.require(res["satisfied"] is True and res["verdicts_agree"] is True,
                      f"{tag}: verdict {res['satisfied']!r}, but every mode is controlled "
                      "and the cost ratios decrease along the tail")
            p.require(abs(res["constant"] - math.exp(log_ratio.max()))
                      <= CLOSED_FORM_RTOL * math.exp(log_ratio.max()),
                      f"{tag}: constant {res['constant']!r} is not the largest cost ratio")

    for entry in _entries(report, "sweep"):
        _, rows = _numeric_csv(out_dir, "value_sweep.csv")
        p.require(rows.shape[0] == len(horizons) * len(sc["targets"]),
                  f"{name}: value sweep has {rows.shape[0]} rows")
        for t, xi, v, v_o, diff in rows:
            x = np.array(sc["targets"][int(xi)], dtype=float)
            q = q_of(t)
            v_ref = 0.5 * float(x @ (x / q))
            kappa = q.max() / q.min()
            tag = f"{name} value sweep t={t}"
            p.require(abs(v - v_ref) <= CLOSED_FORM_RTOL * v_ref, f"{tag}: value {v!r} vs {v_ref!r}")
            p.require(abs(v_o - v_ref) <= 10 * kappa * QUADRATURE_RTOL * v_ref,
                      f"{tag}: quadrature oracle value {v_o!r} vs {v_ref!r}")
    return p


def check_recover(item, out_dir):
    sc = item["scenario"]
    lam = np.array(item["check"]["lambdas"], dtype=float)
    kappa = np.diag(np.array(sc["K"], dtype=float)).copy()
    name = item["name"]
    p = _Problems()
    report = _load_report(out_dir)
    for entry in _entries(report, "recover-L"):
        t_star = float(sc["t_star"])
        ref = np.diag(kappa * np.exp(-2.0 * lam * t_star))
        p.require(_rel_max(entry["L"], ref) <= CLOSED_FORM_RTOL,
                  f"{name}: recovered L is not e^(t*A) K e^(t*A)")
        p.require(entry["passed"] is True and entry["k_roundtrip_error"] <= 1e-6
                  and max(entry["forward_errors"]) <= 1e-6,
                  f"{name}: recover-L round trip or forward prediction failed")
    _check_commuting_family(p, name, report, lam, kappa, [float(t) for t in sc["horizons"]])
    return p


# ---------------------------------------------------------------------------
# delay-shift
# ---------------------------------------------------------------------------


def check_delay(item, out_dir):
    sc = item["scenario"]
    c = item["check"]
    b0, d, mesh = c["b0"], c["delay"], c["mesh"]
    h = d / mesh
    name = item["name"]
    p = _Problems()
    report = _load_report(out_dir)
    horizons = [float(t) for t in sc["horizons"]]
    ref = DelayReference(c["a0"], c["a1"], d, max(horizons))
    refs = {t: ref.mesh_gramian(b0, mesh, t) for t in horizons}
    observed = _gramian_errors(report, refs, p, name)

    grams = {}
    for entry in _entries(report, "gramian"):
        for res in entry["results"]:
            t = float(res["horizon"])
            Q = np.array(res["Q"], dtype=float)
            grams[t] = Q
            p.require(np.array_equal(Q, Q.T), f"{name}: Gramian at t={t} is not symmetric")
            p.require(np.linalg.eigvalsh(Q)[0] >= -_delta_q({}, t, Q),
                      f"{name}: Gramian at t={t} is not PSD")
            head = refs[t][0, 0]
            p.require(abs(Q[0, 0] - head) <= CLOSED_FORM_RTOL * head,
                      f"{name}: Q[0,0] at t={t} is {Q[0, 0]!r}, b0²∫g² = {head!r}")
    # Q_t2 - Q_t1 is itself a Gramian: PSD up to the entry accuracy required
    # of every Gramian (GRAMIAN_RTOL), as an eigenvalue bound
    ts = sorted(grams)
    for t1, t2 in zip(ts[:-1], ts[1:]):
        growth = np.linalg.eigvalsh(grams[t2] - grams[t1])
        slack = _delta_q({}, t1, grams[t1]) + _delta_q({}, t2, grams[t2])
        p.require(growth[0] >= -slack,
                  f"{name}: Gramian decreases from t={t1} to t={t2} "
                  f"(eigenvalue {growth[0]:.3e} of the increment)")

    for entry in _entries(report, "null-controllability"):
        for res in entry["results"]:
            t = float(res["horizon"])
            p.require(res["satisfied"] is (t > d),
                      f"{name}: null controllability at t={t} (delay {d}) reported "
                      f"{res['satisfied']!r}")

    values = {}
    for entry in _entries(report, "min-energy"):
        for res in entry["results"]:
            t = float(res["horizon"])
            xi = res["target_id"]
            tag = f"{name} min-energy t={t} target {xi}"
            x = np.array(sc["targets"][xi], dtype=float)
            # history cells older than -t are out of reach; targets leave them at 0
            live = np.r_[0, 1 + np.flatnonzero((np.arange(mesh) + 1) * h > d - t + 1e-12)]
            Q = refs[t][np.ix_(live, live)]
            z = np.zeros_like(x)
            z[live] = np.linalg.solve(Q, x[live])
            v_ref = 0.5 * float(x @ z)
            kappa = float(np.linalg.cond(Q))
            dQ = _delta_q(observed, t, refs[t])
            tol_v = float(z @ z) * dQ + 10.0 * kappa * EPS * v_ref
            if not p.require(res["class"] == "in_range_Q" and res["value"] is not None,
                             f"{tag}: class {res['class']!r}, but the target lies in range(Q_t)"):
                continue
            v = float(res["value"])
            values[(xi, t)] = (v, tol_v)
            p.require(abs(v - v_ref) <= tol_v,
                      f"{tag}: value {v!r} vs ½xᵀQ⁻¹x = {v_ref!r} (tol {tol_v:.2e})")
            if p.require("timeseries_csv" in res, f"{tag}: no control written"):
                dz = (np.linalg.norm(z) / np.linalg.svd(Q, compute_uv=False)[-1]) * dQ \
                    + 10.0 * kappa * EPS * np.linalg.norm(z)
                _check_delay_series(p, tag, out_dir, res, ref, b0, mesh, z, dz, v, v_ref, tol_v)
    _check_value_monotone(p, name, values)
    return p


def _check_delay_series(p, tag, out_dir, res, ref, b0, mesh, z, dz, v, v_ref, tol_v):
    """The written control is K(-r)^T z, and ½∫u² differs from the value by the
    trapezoid error of that exact control on the same grid."""
    _, data = _numeric_csv(out_dir, res["timeseries_csv"])
    r, u = data[:, 0], data[:, 1]
    K = ref.kernels(b0, mesh, -r)
    u_ref = K.T @ z
    tol_u = 2.0 * np.linalg.norm(K, axis=0) * dz + 1e-13 * np.abs(u_ref).max()
    p.require(np.all(np.abs(u - u_ref) <= tol_u),
              f"{tag}: control off the reference by {np.abs(u - u_ref).max():.3e}")
    energy = 0.5 * _trapezoid(u**2, r)
    # ½∫u_ref² is exactly ½zᵀQz = V; the rule's error on this grid is known
    trap_error = 0.5 * _trapezoid(u_ref**2, r) - v_ref
    weights = np.r_[np.diff(r), 0.0] / 2.0 + np.r_[0.0, np.diff(r)] / 2.0
    tol_e = 2.0 * float(weights @ (np.abs(u_ref) * tol_u)) + 2.0 * tol_v + 1e-12 * v_ref
    p.require(abs((energy - v) - trap_error) <= tol_e,
              f"{tag}: ½∫u² of the written control is {energy!r}, the value {v!r}; the gap "
              f"{energy - v:.3e} is not the trapezoid error {trap_error:.3e} of the exact control")
    p.require(abs(res["energy_oracle"] - energy) <= 1e-12 * energy,
              f"{tag}: reported energy is not ½∫u² of the written control")


def check_shift(item, out_dir):
    sc = item["scenario"]
    m = item["check"]["m"]
    h = 1.0 / m
    name = item["name"]
    p = _Problems()
    report = _load_report(out_dir)
    ramp = np.minimum((np.arange(m) + 0.5) / m, 0.25)
    for entry in _entries(report, "gramian"):
        for res in entry["results"]:
            t = float(res["horizon"])
            L = shift_map(m, t)
            Q = np.array(res["Q"], dtype=float)
            p.require(_rel_max(Q, L @ L.T) <= 1e-12,
                      f"{name}: Gramian at t={t} is not LLᵀ of the window-overlap map")
            if t == 0.25:
                lam, V = np.linalg.eigh(Q)
                U = V[:, lam > RANK_RTOL**2 * lam[-1]]
                f = math.sqrt(h) * ramp
                defect = float(np.linalg.norm(f - U @ (U.T @ f)))
                p.require(defect >= 0.17,
                          f"{name}: ramp target defect at t=1/4 is {defect:.3g}, expected >= 0.17")
    for entry in _entries(report, "min-energy"):
        for res in entry["results"]:
            t = float(res["horizon"])
            x = np.array(sc["targets"][res["target_id"]], dtype=float)
            f = math.sqrt(h) * x
            L = shift_map(m, t)
            v_opt = np.linalg.lstsq(L, f, rcond=None)[0]
            v_ref = 0.5 * h * float(v_opt @ v_opt)
            kappa = np.linalg.cond(L)
            tag = f"{name} min-energy t={t} target {res['target_id']}"
            p.require(res["class"] == "in_range_Q" and res["defect"] <= RANK_RTOL * np.linalg.norm(f),
                      f"{tag}: target should be reachable at t=1, report says {res['class']!r} "
                      f"with defect {res['defect']!r}")
            p.require(abs(res["value"] - v_ref) <= 100 * kappa * EPS * v_ref,
                      f"{tag}: value {res['value']!r} vs ½h|L⁺f|² = {v_ref!r}")
    return p


# ---------------------------------------------------------------------------
# completeness: every task, horizon and target the scenario asks for
# ---------------------------------------------------------------------------


def _formulas(entry):
    return sorted(res["formula"] for res in entry["results"])


def check_coverage(item, out_dir):
    """The report answers every task once, with a result per horizon (× target).

    A task that reported an error is a failed operation, counted elsewhere;
    every other task must hold the whole result set its scenario asks for, so
    that a dropped horizon or target cannot pass the value checks unseen.
    """
    sc = item["scenario"]
    name = item["name"]
    p = _Problems()
    report = _load_report(out_dir)
    tasks = [entry["task"] for entry in report["tasks"]]
    p.require(tasks == list(sc["tasks"]),
              f"{name}: report answers tasks {tasks}, the scenario asks for {sc['tasks']}")
    horizons = sorted(_horizon(t) for t in sc.get("horizons", []))
    pairs = sorted((t, xi) for t in horizons for xi in range(len(sc.get("targets", []))))
    for entry in report["tasks"]:
        if "error" in entry:
            continue
        task = entry["task"]
        tag = f"{name} {task}"
        if task in ("gramian", "null-controllability"):
            got = sorted(_horizon(res["horizon"]) for res in entry["results"])
            p.require(got == horizons, f"{tag}: results at horizons {got}, expected {horizons}")
        elif task == "min-energy":
            got = sorted((_horizon(res["horizon"]), res["target_id"]) for res in entry["results"])
            p.require(got == pairs, f"{tag}: results for (horizon, target) {got}, expected {pairs}")
        elif task == "verify-riccati":
            p.require({"riccati-residual-H", "riccati-residual-X"} <= set(_formulas(entry)),
                      f"{tag}: results {_formulas(entry)} lack the H or X residual family")
        elif task == "verify-lyapunov":
            p.require(_formulas(entry) == ["lyapunov-algebraic", "lyapunov-differential"],
                      f"{tag}: results {_formulas(entry)}, expected the differential and "
                      "algebraic residuals of a stable system")
        elif task == "recover-L":
            p.require("L" in entry and entry.get("t_star") == sc["t_star"],
                      f"{tag}: no recovered L at t* = {sc['t_star']}")
        elif task == "sweep":
            kinds = list(sc.get("sweep_kinds", ["value", "residual"]))
            p.require(entry["kinds"] == kinds
                      and all(f"{kind}_sweep" in entry for kind in kinds),
                      f"{tag}: sweeps {sorted(k for k in entry if k.endswith('_sweep'))}, "
                      f"expected {kinds}")
    return p


CHECKS = {
    "dense-steer": check_dense_steer,
    "dense-verify": check_dense_verify,
    "spectral": check_spectral,
    "recover": check_recover,
    "delay": check_delay,
    "shift": check_shift,
}


def check_item(item, out_dir):
    """Problems found in one scenario's outputs (an empty list means correct)."""
    try:
        return list(check_coverage(item, out_dir)) + list(CHECKS[item["check"]["kind"]](item, out_dir))
    except ReferenceError as exc:
        return [f"{item['name']}: no usable reference ({exc})"]
    except (OSError, KeyError, ValueError, IndexError, TypeError) as exc:
        return [f"{item['name']}: outputs unreadable or incomplete ({type(exc).__name__}: {exc})"]
