"""The Gramian-ratio family as a solution of quadratic operator equations.

P(t) = Q_inf Q_t^{-1} solves a Riccati-type equation in the weighted geometry
(where the infinite-horizon Gramian is the metric), R(t) = Q_t^{-1} solves the
unweighted variant, and small perturbations of either family fail the same
residual checks decisively — the checks discriminate, they don't just bless.
"""

import numpy as np

import minenergy as me

sys_ = me.LinearSystem([[-1.0]], [[1.0]])
cand = me.pv_candidate(sys_)

print("scalar benchmark, P(t) = Q_inf / Q_t:")
for t in (0.5, 1.0, 2.0):
    print(f"  P({t:g}) = {cand.evaluate(t)[0, 0]:.12f}"
          f"   (closed form {1 / (1 - np.exp(-2 * t)):.12f})")

times = [0.5, 1.0, 2.0, 3.0]
rep_h = me.riccati_residual(cand, times)
print(f"\nweighted-form residuals: max {max(rep_h.residuals):.2e} "
      f"(tolerance {rep_h.tol_scaled:.2e}) -> passed = {rep_h.passed}")

rep_x = me.riccati_residual(me.inverse_candidate(sys_), times)
print(f"inverse-form residuals:  max {max(rep_x.residuals):.2e} "
      f"-> passed = {rep_x.passed}")

rep_c = me.riccati_residual_commuting(cand, times)
print(f"commuting-form residuals: max {max(rep_c.residuals):.2e} "
      f"-> passed = {rep_c.passed} (rhs consistency {rep_c.consistency:.2e})")

# a shifted family is rejected, loudly
shifted = me.RiccatiCandidate(
    sys_, cand.geometry, lambda t: cand.evaluate(t) + np.eye(1)
)
rep_bad = me.riccati_residual(shifted, times)
print(f"\nshifted family P + I: max residual {max(rep_bad.residuals):.2e} "
      f"-> passed = {rep_bad.passed}")

# the family norm decays from its short-horizon blow-up toward 1
print("\n||P(t)|| in the weighted norm:")
for t in (0.01, 0.1, 0.5, 1.0, 2.0, 4.0):
    print(f"  t = {t:5g}: {cand.h_norm_of(t):12.6f}")

# one correct snapshot pins the family: reconstruct Gramians from P alone
rep_u = me.uniqueness_reconstruction(cand, 1.0, np.linspace(0.5, 3.0, 6))
print(f"\nsnapshot reconstruction: passed = {rep_u.passed}, "
      f"worst error {max(rep_u.reconstruction_errors):.2e}")
print(f"hypotheses verified: {len(rep_u.hypotheses_checked)}")
