"""A moving-window model where reachability genuinely depends on time.

Controls act through a sliding window of width 1/4 on the unit interval; by
time t the window has swept [0, t + 1/4].  The ramp-and-plateau target
min(s, 1/4) is approachable only where the window has been: at t = 1/4 a
fixed fraction of its mass is out of reach no matter how fine the lattice,
while at t = 1 the defect collapses to roundoff.
"""

import numpy as np

import minenergy as me
from minenergy.models import shift_benchmark_target, shift_control_map, shift_value_oracle

print("defect of the ramp target vs lattice resolution:")
print("   m     t = 1/4      t = 1")
for m in (64, 128, 256, 512):
    sh = me.ShiftSystem(m)
    d_quarter = sh.steer(0.25, shift_benchmark_target(m)).defect
    d_one = sh.steer(1.0, shift_benchmark_target(m)).defect
    print(f"  {m:4d}   {d_quarter:.6f}   {d_one:.2e}")

print(f"\nuntouched-tail lower bound at t = 1/4: 1/(4 sqrt 2) = {1 / (4 * np.sqrt(2)):.6f}")
print("the defect exceeds it because even the swept part cannot be matched exactly")

sh = me.ShiftSystem(256)
L = shift_control_map(sh, 0.25)
rank = sh.gramian(0.25).Q.rank
print(f"\ncontrol map at t = 1/4: shape {L.shape}, rank {rank} "
      f"of {sh.m} cells — the reachable set is a proper subspace")

small, ramp = me.ShiftSystem(16), shift_benchmark_target(16)
rep = small.steer(1.0, ramp)
oracle = shift_value_oracle(small, 1.0)(ramp)
print(f"\nramp on 16 cells at t = 1: class {rep.category}, value = {rep.value:.15f} "
      f"(Gramian oracle {oracle:.15f})")

rep = sh.steer(1.0, np.ones(sh.m))
print(f"\nconstant target at t = 1: defect {rep.defect:.2e} (exactly reachable)")
