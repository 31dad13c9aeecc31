"""One power-ascent engine for lower bounds on operator norms: the
planar multipliers and the dyadic transforms run through the same loop.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np


class AscentResult(NamedTuple):
    ratio: float
    witness: object  # the accepted iterate
    curve: np.ndarray  # ratio of the accepted iterate after each iteration
    op: object = None  # the operator that attains `ratio` on `witness`


def power_ascent(f, p: float, iters: int, apply: Callable, adjoint: Callable,
                 weight=None, signs: Callable | None = None,
                 op=None) -> AscentResult:
    """Ascend ||apply(op, f)||_p / ||f||_p in L^p(w) from the start `f` by
    nonlinear power iterations, where w is `weight` (samples shaped like
    f) or 1 when it is None.  The norm is (mean |v|^p w)^(1/p) and the
    pairing is <u, v>_w = mean(u conj(v) w).  With u = |g|^(p-2) g for
    g = op f, the candidate is the dual element |v|^(q-2) v of
    v = adjoint(op, u), the adjoint in that pairing.  A step is kept only
    if the ratio increases, so the last value is an achieved ratio, a
    certified lower bound for the norm.  The w-mean mean(w v) / mean(w)
    is subtracted from each candidate, since op kills constants.
    signs(u, f), if given, returns the operator of the family that
    maximizes <u, op f>, and its image of f; it is tried before each f
    step.  apply(op, v, out) and adjoint(op, u, out) write their image
    into `out`, an array shaped and typed like f.

    For p > 2.25 the budget is split over a continuation ladder in p from
    2.25, which escapes the weakest fixed points; the curve records the
    last rung.  A rung ends when neither the candidate nor its mixes with
    the iterate improve the ratio.  The image of the accepted iterate is
    kept beside it, so every field is transformed once.  Each call works
    in its own fixed set of arrays, and a step is accepted by swapping
    the trial and its image with the iterate and its image.
    """
    if p < 2:
        raise ValueError("ascent is set up for p >= 2")
    a = np.empty(f.shape)

    def mean(v):
        return np.mean(v) if weight is None else np.mean(weight * v) / np.mean(weight)

    def pnorm(v, p):
        """The L^p(w) norm of v, the power taken in the real array a."""
        m = np.abs(v, out=a)
        m **= p
        if weight is not None:
            m *= weight
        return float(np.mean(m) ** (1.0 / p))

    def dual(v, e, out):
        """|v|^e v into out, the power taken in the real array a."""
        m = np.abs(v, out=a)
        m **= e
        return np.multiply(m, v, out=out)

    f = f - mean(f)
    f = f / pnorm(f, p)
    ladder = [p]
    if p > 2.25:
        ladder = list(np.linspace(2.25, p, max(2, int(2 * (p - 2)) + 2)))
    g, img, u, cand, mix = (np.empty_like(f) for _ in range(5))

    apply(op, f, g)
    curve = []
    for sp in ladder:
        q = sp / (sp - 1.0)
        r = pnorm(g, sp) / pnorm(f, sp)
        for _ in range(max(10, iters // len(ladder))):
            dual(g, sp - 2.0, u)
            if signs is not None:
                eps, gs = signs(u, f)
                rs = pnorm(gs, sp) / pnorm(f, sp)
                if rs > r:
                    op, g, r = eps, gs, rs
                    dual(g, sp - 2.0, u)
            adjoint(op, u, cand)
            dual(cand, q - 2.0, cand)
            for tmix in (1.0, 0.5, 0.2, 0.05, 0.01):
                # the tmix = 1 trial is cand itself, so its centring and
                # scaling carry into the later mixes
                trial = cand
                if tmix != 1.0:
                    trial = np.multiply(1 - tmix, f, out=mix)
                    np.multiply(tmix, cand, out=u)  # the adjoint has read u
                    trial += u
                trial -= mean(trial)
                tn = pnorm(trial, sp)
                if tn == 0:
                    continue
                trial /= tn
                apply(op, trial, img)
                rt = pnorm(img, sp) / pnorm(trial, sp)
                if rt > r:
                    if trial is cand:
                        cand = f
                    else:
                        mix = f
                    f, g, img, r = trial, img, g, rt
                    break
            else:
                break
            if sp == ladder[-1]:
                curve.append(r)
    final = pnorm(g, p) / pnorm(f, p)
    curve.append(final)
    return AscentResult(final, f, np.array(curve), op)
