#!/usr/bin/env python3
"""Radial model maps: distortion, integrability, and derived weights.

The map z |z|^(1/K - 1) compresses areas with exponent exactly 1/K; the
companion |z|^(1 - 1/K)/z has derivatives in L^q only below q = 1 + k;
and powers of the first map's Jacobian produce planar weights whose disc
characteristic grows with the exponent.
"""

import numpy as np

from bellmanlab import planar as pl
from bellmanlab import qcmaps as qc

print("== dilatation of the model maps ==")
for K in (1.5, 2.0, 3.0):
    m = qc.RadialMap(K, "regular")
    print(f"  K = {K}: sampled |f_zbar/f_z| deviates from (K-1)/(K+1) by "
          f"{qc.beltrami_ratio(m):.1e}")

print("\n== area distortion: |f(B_r)| ~ |B_r|^(1/K), exactly ==")
for K in (1.5, 2.0, 3.0):
    slope, spread = qc.distortion_exponent(qc.RadialMap(K, "regular"))
    print(f"  K = {K}: fitted exponent {slope:.12f} (1/K = {1/K:.12f}), "
          f"constancy spread {spread:.1e}")

print("\n== integrability threshold of the singular companion ==")
m = qc.RadialMap(2.0, "singular")          # k = 1/3, threshold 4/3
for q in (1.2, 4.0 / 3.0, 1.4):
    rep = qc.sobolev_threshold(m, q)
    verdict = "converges" if rep["bounded"] else f"diverges at rate {rep['increment_slope']:.3f}/octave"
    print(f"  q = {q:.4f}: annulus integrals {verdict}")
for K in (1.5, 2.0, 3.0):
    m = qc.RadialMap(K, "singular")
    q = qc.sobolev_boundary(m)
    print(f"  K = {K}: bisected boundary {q:.6f} vs 1 + k = {1 + m.k:.6f}")

print("\n== Jacobian-power weights ==")
m = qc.RadialMap(2.0, "regular")           # admissible p in [2, 4)
print("   p     disc characteristic of J^(1 - p/2)")
for p in np.linspace(2.0, 3.9, 5):
    w = qc.jacobian_weight(m, p, n=256)
    c = pl.ap_class(w, sampling=pl.DiscSampling(stride=8))
    print(f"  {p:.3f}   {c:.4f}")
print("(monotone growth toward the admissibility edge p = 1 + 1/k)")
