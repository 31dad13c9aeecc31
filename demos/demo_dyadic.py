#!/usr/bin/env python3
"""A walk through the dyadic toolbox.

We take a weight with a genuine singularity, look at its characteristics,
split the Haar system against it, and watch the martingale transform stay
inside the sharp L^p envelope.
"""

import numpy as np

from bellmanlab import ascent
from bellmanlab import dyadic as dy

rng = np.random.default_rng(0)
depth = 12

print("== Haar analysis is an isometry ==")
f = dy.DyadicFunction(rng.standard_normal(2 ** depth))
coeffs = dy.haar_coefficients(f)
energy = sum(float(np.sum(c ** 2)) for c in coeffs) + float(f.mean) ** 2
print(f"sum of squared coefficients + mean^2 - ||f||_2^2 = "
      f"{energy - f.norm(2) ** 2:+.2e}")

print("\n== sign flips cannot grow the L^4 norm past p*-1 = 3 ==")
worst = max(
    dy.martingale_transform(f, dy.random_signs(depth, rng)).norm(4.0)
    for _ in range(50)) / f.norm(4.0)
print(f"worst transform ratio over 50 random sign patterns: {worst:.4f}")
lp = ascent.power_ascent(f.values, 4.0, 300, **dy.transform_ascent_ops(depth))
print(f"power ascent over (f, signs) from the same f: {lp.ratio:.4f}")

print("\n== a weight vanishing at 1/2: w(x) = |x - 1/2|^(1/2) ==")
w = dy.power_weight(0.5, depth)
print(f"product characteristic sup <w><1/w>: {dy.a2_dyadic(w):.4f}")
print(f"exponential characteristic sup <w>e^-<log w>: {dy.a_infinity_constant(w):.4f}")
print("square sums of relative jumps stay bounded as the tree deepens:")
for d in (8, 10, 12, 14):
    print(f"  depth {d:2d}: {dy.buckley_sum(dy.power_weight(0.5, d)):.6f}")

print("\n== the weighted Haar system ==")
w2 = dy.two_value_weight(1.0, 4.0, 6)
alphas, betas, basis = dy.weighted_haar_system(w2)
print(f"{basis.shape[0]} weighted Haar functions h_I^w from one pyramid; at the root")
print(f"h_I = alpha h_I^w + beta chi_I/sqrt|I| with alpha = {alphas[0][0]:.4f}, "
      f"beta = {betas[0][0]:.4f} (= 3/5 for the 1:4 jump)")

print("\n== jump sequences are Carleson, with intensity ~ characteristic^alpha ==")
alpha = 0.25
for u in (4.0, 64.0, 1024.0):
    wq = dy.two_value_weight(u, 1.0, depth)
    q = dy.a2_dyadic(wq)
    intensity = dy.carleson_intensity(dy.caral_sequence(wq, alpha))
    print(f"  jump 1:{int(u):5d}  characteristic {q:9.2f}  intensity {intensity:8.3f}"
          f"  intensity/char^0.25 = {intensity / q ** alpha:.3f}")

print("\n== the power ascent finds the weighted transform's extremizer ==")
w3 = dy.two_value_weight(2.0, 1.0, 8)
q = dy.a2_dyadic(w3)
f3 = rng.standard_normal(2 ** 8)
res = ascent.power_ascent(f3, 2.0, 300, **dy.transform_ascent_ops(8, w3))
print(f"ascent over (f, signs): {res.ratio:.9f}; exact sqrt([w]_A2) = "
      f"{np.sqrt(q):.9f}; envelope 2[w]_A2 = {2 * q:.4f}")
