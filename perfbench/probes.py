"""Kernel probes: single public-API calls timed in isolation.

Each probe repeats its call until it has run at least MIN_TOTAL_S and at
least MIN_REPS times, and reports the median call time.  Inputs are fixed,
so a probe measures the kernel and not the seed.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from bellmanlab import dyadic, planar

MIN_TOTAL_S = 0.3
MIN_REPS = 3
ASCENT_ITERS = 60
NORMAL_BLOCK = (20_000, 200)  # one engine-sized block of increments


def _median_call_s(fn) -> float:
    times = []
    begun = time.perf_counter()
    while len(times) < MIN_REPS or time.perf_counter() - begun < MIN_TOTAL_S:
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run() -> dict:
    rng = np.random.default_rng(0)
    out = {}

    def draw():
        gen = np.random.Generator(np.random.Philox(key=[0, 0]))
        gen.normal(0.0, 0.05, size=NORMAL_BLOCK)
    out["stochastic.normals_per_s"] = np.prod(NORMAL_BLOCK) / _median_call_s(draw)

    mult = planar.ab_multiplier()
    for n in (128, 256, 512):
        f = planar.GridField(1.0, rng.standard_normal((n, n))
                             + 1j * rng.standard_normal((n, n)))
        out[f"planar.apply_multiplier.n{n}_s"] = _median_call_s(
            lambda: planar.apply_multiplier(mult, f))

    g = dyadic.DyadicFunction(rng.standard_normal(2 ** 12))
    out["dyadic.haar_pass.d12_s"] = _median_call_s(
        lambda: dyadic.haar_synthesis(dyadic.haar_coefficients(g), g.mean))

    # the planar-ap weight |x|^0.6 at the full tier's n = 256
    n = 256
    X, Y = planar.grid_coordinates(n, 2.0)
    r = np.maximum(np.hypot(X, Y), 2.0 / n / 4.0)
    w = planar.PlanarWeight(planar.GridField(2.0, (r ** 0.6).astype(complex)), p=2.0)
    sampling = planar.DiscSampling(stride=n // 32)
    out["planar.ap_class.n256_s"] = _median_call_s(
        lambda: planar.ap_class(w, sampling=sampling))

    # per budgeted iteration of the full tier's ascent (p = 4, n = 256)
    op = planar.riesz_diff_multiplier()
    out["planar.ascent_iter.n256_s"] = _median_call_s(
        lambda: planar.norm_ratio_ascent(op, p=4.0, n=256, iters=ASCENT_ITERS,
                                         seed=0)) / ASCENT_ITERS
    return {k: float(v) for k, v in out.items()}
