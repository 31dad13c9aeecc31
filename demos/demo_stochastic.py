#!/usr/bin/env python3
"""Monte-Carlo stochastic calculus.

Left and right Riemann sums against Brownian increments disagree by the
quadratic variation; adapted step integrals obey the isometry; heat
martingales reproduce their boundary data at strong order 1/2; and the
matrix transform of a heat martingale, conditioned on the endpoint,
reconstructs the planar singular integral.
"""

import numpy as np

from bellmanlab import stochastic as st
from bellmanlab import suite

print("== left vs right Riemann sums on [0, 1] ==")
paths = 100_000
demo = st.riemann_gap_demo(0.0, 1.0, 1000, paths, seed=0)
# the half-widths are the suite's gates: Z standard errors
half = {key: suite.Z * demo[key + "_sd"] / np.sqrt(paths)
        for key in ("ES1", "ES2", "ES1_sq", "EFG")}
print(f"E sum w(t_i-1) dw = {demo['ES1']:+.4f} +- {half['ES1']:.4f}")
print(f"E sum w(t_i)   dw = {demo['ES2']:+.4f} +- {half['ES2']:.4f}  (gap = b - a = 1)")

print("\n== isometry and product rule, read off the same paths ==")
print(f"E (int w dw)^2 = {demo['ES1_sq']:.4f} +- {half['ES1_sq']:.4f}  (exact value 1/2)")
print(f"E int sin w dw int cos w dw = {demo['EFG']:+.4f} +- {half['EFG']:.4f}  "
      f"(E int sin w cos w dt = {demo['EFG_ref']:+.4f})")

print("\n== heat martingales reach their boundary data ==")
surf = st.GaussianMix.single(sigma2=0.8)
for dt, rms in st.terminal_gap_sweep(surf, 4.0, [16, 32, 64, 128, 256], 4000, seed=2):
    print(f"  dt = {dt:7.4f}: RMS terminal gap {rms:.5f}")
print("(log-log slope ~ 1/2: strong order one half)")

print("\n== the matrix transform is conformal and subordinate, pathwise ==")
res = st.transform_residuals(st.GaussianMix.random(np.random.default_rng(3), 3),
                             st.BrownianDriver(2, 4.0, 64, seed=4), 512)
print(f"row orthogonality {res['max_orthogonality']:.1e}, norm mismatch "
      f"{res['max_norm_mismatch']:.1e}, subordination excess "
      f"{res['max_subordination_excess']:+.1e}")

print("\n== conditioning on the endpoint rebuilds the singular integral ==")
[cond] = suite.conditioning_checks(T=40.0, paths=208, bins=16, steps=200, seed=5)
print(f"bins agreeing with the exact transform at their centers "
      f"({suite.Z:g} sigma + 5%): {-cond.value:.1%}")

print("\n== moment-ratio ceilings ==")
plain, conformal = suite.constant_checks(4.0, trials=5000, seed=6)
print(f"plain ratio {plain.value:.3f} <= p* - 1 = {plain.target}")
print(f"conformal ratio {conformal.value:.3f} <= sqrt(p(p-1)/2) = "
      f"{conformal.target:.3f}")
