"""Solution families built from one mixing operator, and their projections.

S(t) = (I - e^{tA} K e^{tA})^{-1} solves the commuting-case equation once t is
past the invertibility threshold.  The threshold is computed exactly in the
commuting case; a single snapshot of the family recovers K; and compressing by
a projection P works exactly when the family preserves ran(P) — both verdicts
of that biconditional are demonstrated below.
"""

import numpy as np

import minenergy as me

sys_ = me.LinearSystem(np.diag([-1.0, -2.0]), np.eye(2))

# threshold: K with an eigenvalue above 1 forbids small times
K = np.diag([1.5, 0.5])
t1 = me.detect_t1(sys_, K)
print(f"detected threshold t1 = {t1:.12f}")
print(f"closed form log(1.5)/2 = {np.log(1.5) / 2:.12f} (plus the margin shift)")

sol = me.commuting_family(sys_, K, t1 + 0.5)
print(f"\nS(t1 + 0.5) =\n{sol.operator}")

try:
    me.commuting_family(sys_, K, 0.5 * t1)
except me.MarginError as exc:
    print(f"\nbelow the threshold: {exc}")

# the family passes the commuting residual check past t1
cand = me.commuting_candidate(sys_, K)
rep = me.riccati_residual_commuting(cand, [t1 + 0.3, t1 + 1.0])
print(f"\nresiduals past t1: max {max(rep.residuals):.2e} -> passed = {rep.passed}")

# one snapshot recovers the mixing operator
t_star = t1 + 0.5
rec = me.recover_L(cand, t_star)
E_inv = me.expm(sys_.A, -t_star)
K_back = E_inv @ rec.L @ E_inv
print(f"\nrecovered K from one snapshot (worst entry error "
      f"{np.abs(K_back - K).max():.2e}), forward check passed = {rec.passed}")

# projection biconditional, positive case: spectral projector
P = np.diag([1.0, 0.0])
good = me.projected_solution_check(cand, P, [t1 + 0.3, t1 + 0.8])
print(f"\ndiagonal K, spectral P: range invariant = {good.range_condition_holds}, "
      f"compressed family solves = {good.is_solution}")

# negative case: a coupled K breaks the invariance and the equation together
sys_b = me.LinearSystem(np.diag([-1.0, -2.0]), np.diag([1.0, np.sqrt(2.0)]))
K_bad = np.array([[0.3, 0.2], [0.2, 0.3]])
cand_bad = me.commuting_candidate(sys_b, K_bad)
bad = me.projected_solution_check(cand_bad, P, [0.8, 1.2, 2.0])
print(f"coupled K,  spectral P: range invariant = {bad.range_condition_holds}, "
      f"compressed family solves = {bad.is_solution}, "
      f"mixed verdict = {bad.mixed_verdict}")
print(f"witness time {bad.witness_time}")
