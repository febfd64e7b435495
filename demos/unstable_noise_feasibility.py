"""
Unstable noise is fine; an unstable input realization is not.

The admissibility tests do not ask the noise state matrix to be stable.
What they ask for is detectability of the noise pair, stabilizability of
a derived pair built from the covariance data, the augmented analogs,
and exponential stability of the input state matrix F. A noise state
with spectral radius 1.5 or 1.9 passes all of it: the shared driving
noise makes the output informative enough that the prediction error
stays bounded even though the state itself explodes.
"""
import numpy as np

from riccati_capacity import (
    NoiseModel, Channel, InputModel, iid_input,
    feasibility_report, starred_system, to_quadruple,
    asymptotic_rate, sweep_kappa, OptimizerConfig,
)

channel = Channel(H=[[1.0]], kappa=1.0)
unit = iid_input(K_Z=[[1.0]])

for a in (0.9, 1.2, 1.5, 1.9):
    noise = NoiseModel(A=a, B=1.0, C=1.0, N=1.0, K_W=1.0)
    res = asymptotic_rate(noise, unit, channel)
    rep = res.feasibility
    star = starred_system(to_quadruple(noise))
    print("a = %.1f  |A*| = %.2f  member = %s  rate = %.6f nats  Sigma* = %.1e"
          % (a, abs(star.A_star[0, 0]), rep.member_of_P_infinity,
             res.rate_nats, res.Sigma_star[0, 0]))

print()
print("For the noise pair alone A* = a - 1 stays inside the unit circle.")
print("The augmented pair is the sharp case: adding the unit input doubles")
print("the innovations variance, the correction term halves, and at a = 1.9")
print("the augmented starred matrix is 1.4. Stabilizability still holds,")
print("through the square root of the residual covariance factor:")
noise19 = NoiseModel(A=1.9, B=1.0, C=1.0, N=1.0, K_W=1.0)
from riccati_capacity import build_augmented
aug_star = starred_system(build_augmented(noise19, unit, channel))
print("  augmented A* =", np.round(aug_star.A_star, 6).tolist())
rep19 = feasibility_report(noise19, unit, channel)
print("  augmented_stabilizable witness ->",
      rep19.witnesses.get("augmented_stabilizable"))
print()

# What actually breaks membership: a marginally stable input state.
bad_input = InputModel(F=[[1.0]], G=[[1.0]], Gamma=[[1.0]], D=[[0.0]], K_Z=[[1.0]])
rep_bad = feasibility_report(noise19, bad_input, channel)
print("input with F = 1: input_F_stable =", rep_bad.input_F_stable,
      " member =", rep_bad.member_of_P_infinity)
print()

# Capacity still behaves like a capacity. Sweep the power budget for a
# stable and an unstable noise; each curve is nondecreasing and the
# optimizer lands on the budget at every point.
cfg = OptimizerConfig(starts=6, seed=0, maxiter=30)
kappas = [0.25, 0.5, 1.0, 2.0, 4.0]
for a in (0.5, 1.5):
    noise = NoiseModel(A=a, B=1.0, C=1.0, N=1.0, K_W=1.0)
    points = sweep_kappa(noise, Channel(H=[[1.0]], kappa=0.0), kappas,
                         dims=(1, 1), config=cfg)
    print("a = %.1f:" % a)
    for pt in points:
        print("  kappa = %4.2f  rate = %.6f nats  power = %.6f  feasible = %s"
              % (pt.kappa, pt.rate_nats, pt.power, pt.feasible))
