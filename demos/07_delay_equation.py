"""A scalar delay equation as a control system on (head value, history).

x'(t) = a0 x(t) + a1 x(t - d) + b0 u(t).  The state is the current value plus
the profile on [-d, 0), discretized into mesh cells.  The fundamental solution
is computed by the method of steps on the mesh cells, in time local to each
cell, and the Gramian integrates its kernels cell by cell to roundoff, so the
mesh projection is the only approximation in the Gramian.
"""

import numpy as np

import minenergy as me
from minenergy.models import (
    delay_domain_residual,
    delay_fundamental_solution,
    delay_gramian,
    delay_optimal_control,
    delay_semigroup_matrix,
)

# hand-checkable fundamental solution: a0 = 0, a1 = 1, d = 1
toy = me.DelaySystem(a0=0.0, a1=1.0, b0=1.0, delay=1.0, mesh=2)
g = delay_fundamental_solution(toy, 3.0)
print("method of steps for x' = x(t-1):")
for t in (0.5, 1.5, 2.5):
    print(f"  g({t}) = {g(t):.6f}")
print("  (piecewise: 1, then 1 + (t-1), then 2 + (t-2) + (t-2)^2/2)")

sys_ = me.DelaySystem(a0=-0.3, a1=0.6, b0=1.0, delay=1.0, mesh=16)
gram = delay_gramian(sys_, 1.5)
eigs = np.linalg.eigvalsh(gram.Q.matrix)
print(f"\nGramian at t = 1.5 on a {sys_.dim}-dim mesh state: "
      f"eigenvalues in [{eigs.min():.3e}, {eigs.max():.3e}]")
print(f"symmetry defect {np.abs(gram.Q.matrix - gram.Q.matrix.T).max():.1e}")

res = delay_domain_residual(sys_, 1.5)
print(f"compatibility residual of the Gramian columns (head vs profile end): "
      f"{res:.3e} — shrinks with the mesh")

x = np.r_[1.0, np.zeros(sys_.mesh)]  # head 1 over a zero history
print(f"\nsteering to head 1 over a zero history: value V = {me.value_function(gram, x):.6f}")
for grid in (129, 1025):
    u = delay_optimal_control(sys_, gram, x, grid=grid)
    print(f"  integrated energy of the least-norm control on {grid} nodes: {u.energy():.6f}")

S = delay_semigroup_matrix(sys_, 1.25)
print(f"\nsemigroup matrix at T0 = 1.25: shape {S.shape}, "
      f"head entry S[0,0] = {S[0, 0]:.6f} = g(1.25) = "
      f"{delay_fundamental_solution(sys_, 1.5)(1.25):.6f}")

print("\nnull controllability (steer the whole state to zero):")
for T0 in (2.0, 0.5):
    rep = sys_.null_controllability(T0)
    print(f"  T0 = {T0:3g} (= {T0 / sys_.delay:g} delays): satisfied = {rep.satisfied}, "
          f"range defect = {rep.defect:.2e}")
print("below one delay the untouched history cells make steering impossible")
