#!/usr/bin/env python3
"""The concave-majorant machinery, end to end.

The extremal function (|y| - (p*-1)|x|)(|x| + |y|)^(p-1), normalized by
gamma_p, is checked for zigzag concavity and majorization; its Hessian
quadratic form matches the closed-form display; linear majorants of the
power difference |y|^p - c^p|x|^p appear exactly at c = p*-1; and the
angular average tau(p) feeds the interpolation chain.
"""

import numpy as np

from bellmanlab import bellman as bm

p = 3.0
print(f"== the majorant at p = {p} ==")
print(f"value at (0, 1): {bm.eval_phi(0, 1, p):.6f} = gamma_p = {bm.gamma_p(p):.6f}")
print(f"value on the critical ray (1, p*-1): {bm.eval_phi(1, bm.p_star(p) - 1, p):.1e}")

margin = bm.zigzag_check(lambda x, y: bm.eval_phi(x, y, p), 100_000, seed=0)
print(f"zigzag margin over 1e5 samples: {margin:+.2e} (>= 0 up to roundoff)")
print(f"majorization margin: {bm.majorant_check('phi', p, 100_000, seed=0):+.2e}")
bad = bm.zigzag_check(lambda x, y: x ** 2 + y ** 2, 10_000, seed=0)
print(f"control: x^2 + y^2 fails with margin {bad:+.2e}")

print("\n== the Hessian quadratic form matches its closed form ==")
rng = np.random.default_rng(1)
x, y, dx, dy = (rng.normal(size=2) for _ in range(4))
for h in (1e-2, 1e-3, 1e-4):
    a, n = bm.hessian_form_identity(x, y, dx, dy, 2.5, h=h)
    print(f"  step {h:.0e}: |analytic - finite difference| = {abs(a - n):.2e}")

print("\n== sharpness: linear majorants appear exactly at c = p*-1 ==")
for c_mult, label in ((0.9, "0.9(p*-1)"), (1.0, "p*-1"), (10.0, "10(p*-1)")):
    res = bm.linear_majorant_feasibility(c_mult * (bm.p_star(p) - 1), p)
    extra = f" at rho={res.rho:.3f}, a={res.a:.4f}" if res.feasible else ""
    print(f"  c = {label}: {'feasible' + extra if res.feasible else 'infeasible'}")
print(f"bisected transition: {bm.feasibility_transition(p):.6f} (p*-1 = {bm.p_star(p)-1})")

print("\n== the angular average and the interpolation chain ==")
print(f"tau(2) = {bm.tau(2):.6f} = sqrt(1/2); tau(4)^4 = {bm.tau(4)**4:.6f} = 3/8")
print("q, interpolated constant per unit of (q-1):")
for q in (2.1, 3.0, 5.0, 10.0, 50.0):
    print(f"  q = {q:5.1f}: {bm.interpolation_constant(q) / (q - 1):.4f}")
print("(the sup sits near q = 5.2 at about 1.732)")

print("\n== the strip candidate with exponential obstacle ==")
rep = bm.jn_bellman_check(0.25, grid=(200, 200))
print(f"delta = 0.25: largest eigenvalue {rep.fd_max_eig:.1e}, "
      f"relative determinant {rep.fd_max_det_rel:.1e}, "
      f"obstacle slack {rep.obstacle_min_gap:+.1e}")
