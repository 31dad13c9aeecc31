#!/usr/bin/env python3
"""Monte-Carlo stochastic calculus.

Left and right Riemann sums against Brownian increments disagree by the
quadratic variation; adapted step integrals hit the exact means of their
discrete sums (the isometry and a product rule); heat martingales
reproduce their boundary data at strong order 1/2; and the matrix
transform of a heat martingale, conditioned on the endpoint, matches the
exact mean of its discrete scheme, whose limit is the planar singular
integral.
"""

import numpy as np

from bellmanlab import stochastic as st
from bellmanlab import suite

print("== left vs right Riemann sums on [0, 1] ==")
paths, steps = 100_000, 1000
demo = st.riemann_gap_demo(0.0, 1.0, steps, paths, seed=0)
# the half-widths are the suite's gates: Z standard errors
half = {key: suite.Z * demo[key + "_sd"] / np.sqrt(paths)
        for key in ("ES1", "ES2", "ES1_sq", "EFS1")}
print(f"E sum w(t_i-1) dw = {demo['ES1']:+.4f} +- {half['ES1']:.4f}")
print(f"E sum w(t_i)   dw = {demo['ES2']:+.4f} +- {half['ES2']:.4f}  (gap = b - a = 1)")

print("\n== isometry and product rule, read off the same paths ==")
# the exact means of the discrete left-point sums, which the suite gates
isometry, product = suite._left_point_means(0.0, 1.0, steps)
print(f"E (sum w dw)^2 = {demo['ES1_sq']:.4f} +- {half['ES1_sq']:.4f}  "
      f"(exact (N-1)/(2N) = {isometry:.4f})")
print(f"E sum sin w dw sum w dw = {demo['EFS1']:+.4f} +- {half['EFS1']:.4f}  "
      f"(exact sum t e^(-t/2) dt = {product:.4f})")

print("\n== heat martingales reach their boundary data ==")
surf = st.GaussianMix.single(sigma2=0.8)
ladder = [4, 8, 16, 32, 64]
for n, (mean, sd, _) in zip(ladder, st.terminal_gap_sweep(surf, 4.0, ladder, 4000, seed=2)):
    exact = st.strong_error_oracle(0.8, 4.0, n)
    print(f"  N = {n:3d}: mean squared terminal gap {mean:.5f} +- {3 * sd / np.sqrt(4000):.5f}"
          f"  (exact {exact:.5f}, N x exact = {n * exact:.4f})")
print("(N x exact tends to 0.2066: strong order one half)")

print("\n== the matrix transform is conformal and subordinate, pathwise ==")
res = st.transform_residuals(st.GaussianMix.random(np.random.default_rng(3), 3),
                             st.BrownianDriver(2, 4.0, 64, seed=4), 512)
print(f"row orthogonality {res['max_orthogonality']:.1e}, norm mismatch "
      f"{res['max_norm_mismatch']:.1e}, subordination excess "
      f"{res['max_subordination_excess']:+.1e}")

print("\n== conditioning on the endpoint rebuilds the singular integral ==")
[cond] = suite.conditioning_checks(paths=208, bins=16, steps=50, seed=5)
print(f"mean z^2 against the exact mean of the discrete bridges: {cond.value:.3f} "
      f"(pure noise reads 1; gate {cond.target:.4f})")
print(f"detail: {cond.detail} (the oracle's distance to the transform itself)")

print("\n== moment-ratio ceilings ==")
plain, conformal = suite.constant_checks(4.0, trials=5000, seed=6)
print(f"plain ratio {plain.value:.3f} <= p* - 1 = {plain.target}")
print(f"conformal ratio {conformal.value:.3f} <= sqrt(p(p-1)/2) = "
      f"{conformal.target:.3f}")
