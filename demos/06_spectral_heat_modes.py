"""Diagonal mode models: everything per-mode, everything closed form.

Each mode n decays at rate lambda_n and receives control with weight
sqrt(b_n).  The Gramian is diagonal, the null-controllability criterion is a
ratio test along the spectrum, and the reachable space can be read off as a
smoothness class of the generator.
"""

import numpy as np

import minenergy as me
from minenergy.models import (
    landau_ginzburg,
    power_law,
    spectral_gramian,
    spectral_null_controllability,
    spectral_space_h_classification,
    thin_control_example,
)

spec = landau_ginzburg(n_modes=8)
g = spectral_gramian(spec, 1.0)
print("quadratic spectrum, unit weights — Gramian diagonal at t = 1:")
print(np.diag(g.Q.matrix))

print("\nmatches the dense route on the same truncation:",
      np.allclose(g.Q.matrix, me.compute_gramian(me.LinearSystem(spec.A, spec.B), 1.0).Q.matrix))

print("\nnull controllability (flow lands in the reachable range):")
for name, preset in (("landau-ginzburg", landau_ginzburg()),
                     ("power-law(0.5)", power_law(0.5)),
                     ("power-law(2.0)", power_law(2.0)),
                     ("thin-control", thin_control_example())):
    rep = spectral_null_controllability(preset, 1.0)
    const = f"{rep.constant:.4g}" if np.isfinite(rep.constant) else "inf"
    print(f"  {name:<16} satisfied = {str(rep.satisfied):<5} constant = {const}")

print("\nreachable-space classification:")
for name, preset in (("landau-ginzburg", landau_ginzburg()),
                     ("power-law(0.5)", power_law(0.5)),
                     ("thin-control", thin_control_example())):
    cl = spectral_space_h_classification(preset)
    print(f"  {name:<16} pattern = {cl.pattern:<15} "
          f"range(Q^1/2) ~ {cl.description_sqrt}")

# the thin example in detail: control weights fall doubly-exponentially, so
# only a handful of modes are effectively reachable
thin = thin_control_example()
cl = spectral_space_h_classification(thin)
print(f"\nthin-control example: {cl.support_dim} of {thin.lambdas.size} modes "
      f"carry control weight; substantially finite-dimensional = "
      f"{cl.substantially_finite_dimensional}")
