"""bellmanlab: a desk-scale numerical laboratory for sharp martingale and
singular-integral inequalities.

Modules:

- ascent: one power-ascent engine for lower bounds on operator norms.
- dyadic: Haar analysis, martingale transforms, weight characteristics,
  weighted Haar bases, Carleson sequences on [0, 1].
- bellman: explicit concave-majorant candidates, their Hessian identities,
  the linear-majorant sharpness mechanism, angular averages and the
  interpolation chain, the strip candidate with an exponential obstacle.
- planar: FFT multipliers on the torus (the dbar-to-d transform, squared
  Riesz transforms, heat extensions), weight characteristics over discs
  and heat extensions, norm-ratio ascent.
- laminate: atom + power-law-ray measures, Jensen checks against
  bi-concave batteries, the two-line ratio and its flat-tail limit.
- stochastic: one streaming Brownian engine, discrete stochastic
  integrals, one planar martingale simulator (a heat martingale and its
  matrix transform), conditional-expectation representation of the
  planar transform, moment-ratio ceilings.
- qcmaps: radial model maps, distortion exponents, integrability
  thresholds, Jacobian-power weights.
"""

__version__ = "0.1.0"

from . import ascent, bellman, dyadic, laminate, planar, qcmaps, reporting, stochastic, suite
