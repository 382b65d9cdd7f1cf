"""The one-dimensional benchmark, end to end.

For dx = -x dt + u dt every quantity has a closed form, which makes this the
right place to see the whole pipeline at once: reachability Gramian, minimum
steering energy, the optimal control profile, and the driven trajectory that
lands on the target.
"""

import numpy as np

import minenergy as me

sys_ = me.LinearSystem([[-1.0]], [[1.0]])
t, x = 1.0, np.array([1.0])

gram = me.compute_gramian(sys_, t)
print(f"Q_{t:g}          = {gram.Q.matrix[0, 0]:.15f}")
print(f"closed form    = {(1 - np.exp(-2 * t)) / 2:.15f}")

value = me.value_function(gram, x)
print(f"\nminimum energy V({t:g}, {x[0]:g}) = {value:.15f}")
print(f"closed form  1/(1 - e^-2)  = {1 / (1 - np.exp(-2.0)):.15f}")

control, states = me.optimal_samples(sys_, gram, x, grid=513)
print(f"\noptimal control on [-{t:g}, 0]:")
print(f"  u(-1) = {control.values[0, 0]:.12f}   (closed form {2 * np.exp(-1) / (1 - np.exp(-2)):.12f})")
print(f"  u(0)  = {control.values[-1, 0]:.12f}   (closed form {2 / (1 - np.exp(-2)):.12f})")
print(f"  energy of the profile = {control.energy():.12f}  (equals the value above)")

print(f"\noptimal trajectory: starts at {states[0, 0]:.2e}, ends at {states[-1, 0]:.12f}")

sim = me.simulate_control(sys_, control, substeps=8)
print(f"independent simulation of the same control ends at {sim[-1, 0]:.12f}")

# the value decreases as the deadline relaxes, down to the infinite-horizon floor
print("\nhorizon sweep:")
for horizon in (0.5, 1.0, 2.0, 4.0, 8.0):
    v = me.value_function(me.compute_gramian(sys_, horizon), x)
    print(f"  t = {horizon:4g}   V = {v:.10f}")
q_inf = me.compute_gramian(sys_, np.inf)
print(f"  t = inf    V = {me.value_function(q_inf, x):.10f}")
