"""The in-place power ascent against the allocating loop it replaced.

`allocating_ascent` is that loop, kept verbatim with its allocating
callables, as the oracle: the engine performs the same operations in the
same order into a fixed workspace, so ratio, curve and witness must agree
to the bit.
"""

import threading
import tracemalloc

import numpy as np
import pytest

from bellmanlab import ascent
from bellmanlab import dyadic as dy
from bellmanlab import planar as pl


def allocating_ascent(f, p, iters, apply, adjoint, pnorm, mean, signs=None,
                      op=None, mixed=None):
    """The loop with a fresh array per operation; apply(op, v) and
    adjoint(op, u) return their images.  Appends each accepted tmix < 1 to
    `mixed`, when given."""
    if p < 2:
        raise ValueError("ascent is set up for p >= 2")
    f = f - mean(f)
    f = f / pnorm(f, p)
    ladder = [p]
    if p > 2.25:
        ladder = list(np.linspace(2.25, p, max(2, int(2 * (p - 2)) + 2)))
    g = apply(op, f)
    curve = []
    for sp in ladder:
        q = sp / (sp - 1.0)
        r = pnorm(g, sp) / pnorm(f, sp)
        for _ in range(max(10, iters // len(ladder))):
            u = np.abs(g) ** (sp - 2.0) * g
            if signs is not None:
                eps, gs = signs(u, f)
                rs = pnorm(gs, sp) / pnorm(f, sp)
                if rs > r:
                    op, g, r = eps, gs, rs
                    u = np.abs(g) ** (sp - 2.0) * g
            v = adjoint(op, u)
            cand = np.abs(v) ** (q - 2.0) * v
            for tmix in (1.0, 0.5, 0.2, 0.05, 0.01):
                trial = cand if tmix == 1.0 else (1 - tmix) * f + tmix * cand
                trial -= mean(trial)
                tn = pnorm(trial, sp)
                if tn == 0:
                    continue
                trial /= tn
                gt = apply(op, trial)
                rt = pnorm(gt, sp) / pnorm(trial, sp)
                if rt > r:
                    f, g, r = trial, gt, rt
                    if mixed is not None and tmix != 1.0:
                        mixed.append(tmix)
                    break
            else:
                break
            if sp == ladder[-1]:
                curve.append(r)
    final = pnorm(g, p) / pnorm(f, p)
    curve.append(final)
    return ascent.AscentResult(final, f, np.array(curve), op)


def planar_oracle(n, p, iters, seed, mixed=None):
    """`planar.norm_ratio_ascent` of R_1^2 - R_2^2 through the oracle."""
    m = pl.riesz_diff_multiplier()(*pl._freq_axes(n, 1.0))
    madj = np.conj(m)
    rng = np.random.default_rng(seed)
    f = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return allocating_ascent(
        f, p, iters, apply=lambda _, v: np.fft.ifft2(m * np.fft.fft2(v)),
        adjoint=lambda _, u: np.fft.ifft2(madj * np.fft.fft2(u)),
        pnorm=lambda v, p: float(np.mean(np.abs(v) ** p) ** (1.0 / p)),
        mean=np.mean, mixed=mixed)


def dyadic_oracle_ops(depth, weight=None):
    """`dyadic.transform_ascent_ops` with the allocating apply and adjoint,
    and the L^p(w) norm and w-mean as the callables the loop took."""
    wv = 1.0 if weight is None else weight.values
    ops = dy.transform_ascent_ops(depth, weight)
    del ops["weight"]
    return {**ops,
            "apply": lambda eps, v: dy._transform(v, eps),
            "adjoint": lambda eps, u: dy._transform(wv * u, eps) / wv,
            "pnorm": lambda v, p: float(np.mean(np.abs(v) ** p * wv) ** (1.0 / p)),
            "mean": lambda v: np.mean(wv * v) / np.mean(wv)}


def bits(res):
    """Ratio, curve bytes and witness bytes of an ascent result."""
    witness = getattr(res.witness, "values", res.witness)
    return res.ratio, res.curve.tobytes(), witness.tobytes()


def planar_ascent(n, p, iters, seed):
    return pl.norm_ratio_ascent(pl.riesz_diff_multiplier(), p=p, n=n,
                                iters=iters, seed=seed)


@pytest.mark.parametrize("n", [32, 64])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
def test_planar_ascent_equals_the_allocating_loop(n, seed, p):
    assert bits(planar_ascent(n, p, 60, seed)) == bits(planar_oracle(n, p, 60, seed))


def test_the_oracle_cases_reach_the_mixing_path():
    # without an accepted mix the aliasing of the tmix = 1 trial goes untested
    mixed = []
    planar_oracle(32, 4.0, 60, 1, mixed)
    assert mixed


def test_dyadic_ascent_with_the_sign_step_equals_the_allocating_loop():
    f = np.random.default_rng(3).standard_normal(2 ** 8)
    got = ascent.power_ascent(f, 4.0, 200, **dy.transform_ascent_ops(8))
    want = allocating_ascent(f, 4.0, 200, **dyadic_oracle_ops(8))
    assert bits(got) == bits(want)
    assert all(np.array_equal(a, b) for a, b in zip(got.op, want.op))
    assert any(np.any(s < 0) for s in got.op)  # the sign step was taken


def test_weighted_dyadic_ascent_equals_the_allocating_loop():
    w = dy.two_value_weight(2.0, 1.0, 8)
    f = np.random.default_rng(4).standard_normal(2 ** 8)
    got = ascent.power_ascent(f, 2.0, 200, **dy.transform_ascent_ops(8, w))
    want = allocating_ascent(f, 2.0, 200, **dyadic_oracle_ops(8, w))
    assert bits(got) == bits(want)


def test_concurrent_ascents_equal_their_serial_runs():
    # the workspace belongs to the call, so two threads share no array
    cases = [(4.0, 1), (3.0, 2)]
    serial = [planar_ascent(32, p, 60, seed) for p, seed in cases]
    results = [None] * len(cases)

    def run(i):
        p, seed = cases[i]
        results[i] = planar_ascent(32, p, 60, seed)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(cases))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive()
    assert [bits(r) for r in results] == [bits(r) for r in serial]


def traced_peak(fn):
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_ascent_peak_memory_does_not_grow_with_iterations():
    n = 128
    short = traced_peak(lambda: planar_ascent(n, 4.0, 20, 0))
    long = traced_peak(lambda: planar_ascent(n, 4.0, 60, 0))
    # the curve's floats are all that may grow: far less than one grid
    assert long - short < 8 * n * n
