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

print("== left vs right Riemann sums on [0, 1] ==")
demo = st.riemann_gap_demo(0.0, 1.0, 1000, 100_000, seed=0)
print(f"E sum w(t_i-1) dw = {demo['ES1']:+.4f} +- {demo['ES1_ci']:.4f}")
print(f"E sum w(t_i)   dw = {demo['ES2']:+.4f} +- {demo['ES2_ci']:.4f}  (gap = b - a = 1)")

print("\n== isometry and product rule, read off the same paths ==")
print(f"E (int w dw)^2 = {demo['ES1_sq']:.4f} +- {demo['ES1_sq_ci']:.4f}  (exact value 1/2)")
print(f"E int sin w dw int cos w dw = {demo['EFG']:+.4f} +- {demo['EFG_ci']:.4f}  "
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
cond = st.ab_by_conditioning(st.GaussianMix.single(sigma2=1.0), T=40.0,
                             paths=208, bins=16, steps=200, seed=5)
frac = cond.agreement_fraction()
print(f"bins agreeing with the exact transform at their centers "
      f"(3 sigma + 5%): {frac:.1%}")

print("\n== moment-ratio ceilings ==")
rep = st.subordination_constants_mc(4.0, trials=5000, seed=6)
print(f"plain ratio {rep['ratio_plain']:.3f} <= p* - 1 = {rep['plain_ceiling']}")
print(f"conformal ratio {rep['ratio_conformal']:.3f} <= sqrt(p(p-1)/2) = "
      f"{rep['conformal_ceiling']:.3f}")
