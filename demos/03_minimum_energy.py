"""Minimum steering energy: exact value vs a discrete search.

The quadratic form in the Gramian pseudoinverse gives the exact minimum;
discretizing the control into n piecewise-constant pieces and solving the
least-norm linear system bounds it from above and converges as n grows.
Targets outside the reachable set are classified before any arithmetic that
would silently produce garbage.
"""

import numpy as np

import minenergy as me

rng = np.random.default_rng(11)
sys_ = me.random_stable_system(rng, 3)
t = 1.0
gram = me.compute_gramian(sys_, t)
x = gram.Q.matrix @ rng.standard_normal(3)  # a certified-reachable target

v = me.value_function(gram, x)
print(f"exact minimum energy: {v:.12f}")
print("discrete least-norm search (piecewise-constant controls):")
for steps in (125, 250, 500, 1000, 2000):
    bf = me.brute_force_min_energy(sys_, x, t, n_steps=steps)
    print(f"  {steps:5d} steps: {bf.energy:.12f}  (gap {bf.energy - v:.3e})")

# reachability classification on a rank-deficient example
thin = me.LinearSystem(np.diag([-1.0, -2.0]), np.array([[1.0], [0.0]]))
g_thin = me.compute_gramian(thin, t)
for target in ([1.0, 0.0], [0.0, 1.0]):
    cls = me.steer(g_thin, target)
    print(f"\ntarget {target}: {cls.category} (defect {cls.defect:.2e})")

# the optimal control in feedback form: u(r) = F(t + r) y(r)
sig, states = me.optimal_samples(sys_, gram, x, grid=9)
print("\nfeedback representation check along the optimal pair:")
for i in (2, 4, 6):
    r = sig.grid[i]
    F = me.feedback_gain(sys_, t + r)
    gap = np.abs(sig.values[i] - F @ states[i]).max()
    print(f"  r = {r:+.3f}: |u - F y| = {gap:.2e}")
