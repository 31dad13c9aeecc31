"""Dyadic lattice machinery on [0, 1].

Functions and weights are exact step functions: 2**depth real samples,
each constant on a finest-level interval.  All interval averages are then
exact (up to floating point).  `_pyramid` builds them once as the dyadic
martingale E[f | F_lev], lev = 0 .. depth; the Haar coefficients are its
scaled differences, and every operation below works level by level on it.
The weighted Haar system is read off the same pyramid; its basis has one
row per interval, level by level and left to right: (level, index) is row
2**level - 1 + index, the flat order in which `random_signs` draws.

Interval convention: the interval at (level, index) is
[index * 2**-level, (index + 1) * 2**-level); its left half is the child
(level+1, 2*index) and its right half is (level+1, 2*index+1).  The Haar
function h_I is L2(dx)-normalized, negative on the left half and positive
on the right half, so that (f, h_I) = sqrt(|I|)/2 * (<f>_right - <f>_left).
"""

from __future__ import annotations

import numpy as np


class DyadicFunction:
    """Step function on [0,1] with 2**depth equal-width pieces."""

    def __init__(self, values):
        values = np.asarray(values)
        n = values.size
        depth = n.bit_length() - 1
        if 2 ** depth != n:  # also n = 0, where 2 ** -1 = 0.5
            raise ValueError("sample count must be a power of two")
        if values.dtype.kind == "c":
            raise ValueError("dyadic samples must be real")
        self.values = values.astype(float)
        self.depth = depth

    def all_averages(self) -> list[np.ndarray]:
        """Averages at every level, index 0 (root) .. depth (samples)."""
        return _pyramid(self.values)

    @property
    def mean(self):
        return self.values.mean()

    def norm(self, p: float = 2.0, weight: "DyadicWeight | None" = None) -> float:
        """L^p([0,1]) norm; integrals are plain sample means since the grid
        is uniform.  With a weight, the L^p(w dx) norm."""
        a = np.abs(self.values) ** p
        if weight is not None:
            a = a * weight.values
        return float(np.mean(a) ** (1.0 / p))


class DyadicWeight(DyadicFunction):
    """Strictly positive step function; <w>_I <1/w>_I >= 1 for every I."""

    def __init__(self, values):
        super().__init__(values)
        if not np.all(self.values > 0):
            raise ValueError("weight samples must be strictly positive")

    def inverse(self) -> "DyadicWeight":
        return DyadicWeight(1.0 / self.values)


def power_weight(a: float, depth: int) -> DyadicWeight:
    """w(x) = |x - 1/2|^a, midpoint-sampled (never hits the zero at 1/2)."""
    x = (np.arange(2 ** depth) + 0.5) * 2.0 ** (-depth)
    return DyadicWeight(np.abs(x - 0.5) ** a)


def two_value_weight(u: float, v: float, depth: int) -> DyadicWeight:
    """w = u on [0, 1/2), v on [1/2, 1), constant below that scale."""
    n = 2 ** depth
    w = np.full(n, float(v))
    w[: n // 2] = u
    return DyadicWeight(w)


# ---------------------------------------------------------------------------
# The dyadic pyramid and Haar analysis / synthesis


def _pyramid(values: np.ndarray, pair=lambda a, b: 0.5 * (a + b)) -> list[np.ndarray]:
    """Levels 0 (root) .. depth (the samples), each `pair` of the two
    children one level down: the averages E[f | F_lev] by default, the
    infima with np.minimum."""
    levels = [values]
    while levels[-1].size > 1:
        levels.append(pair(levels[-1][0::2], levels[-1][1::2]))
    levels.reverse()
    return levels


def _deltas(levels: list[np.ndarray]) -> list[np.ndarray]:
    """Delta_I = <f>_right - <f>_left, one array per level 0 .. depth-1."""
    return [c[1::2] - c[0::2] for c in levels[1:]]


def _haar_analysis(values: np.ndarray) -> list[np.ndarray]:
    """Haar coefficients (f, h_I) = sqrt(|I|)/2 Delta_I of the samples, one
    array per level 0 .. depth-1."""
    return [2.0 ** (-lev / 2.0) / 2.0 * d
            for lev, d in enumerate(_deltas(_pyramid(values)))]


def _haar_synthesis(coeffs: list[np.ndarray], mean) -> np.ndarray:
    """Inverse of _haar_analysis, with `mean` added."""
    cur = np.array([mean], dtype=float)
    for lev, c in enumerate(coeffs):
        step = np.asarray(c) * 2.0 ** (lev / 2.0)  # coefficient times h value
        nxt = np.empty(2 * step.size)
        np.subtract(cur, step, out=nxt[0::2])
        np.add(cur, step, out=nxt[1::2])
        cur = nxt
    return cur


def _transform(values: np.ndarray, signs) -> np.ndarray:
    """T_sigma of the samples; signs[lev] multiplies the level-lev
    coefficients."""
    return _haar_synthesis(
        [s * c for s, c in zip(signs, _haar_analysis(values))], 0.0)


def haar_coefficients(f: DyadicFunction) -> list[np.ndarray]:
    """Haar coefficients (f, h_I), one array per level 0 .. depth-1.

    Together with the mean these satisfy Parseval:
    sum_I (f,h_I)^2 + <f>^2 = ||f||_2^2.
    """
    if f.depth < 1:
        raise ValueError("need depth >= 1")
    return _haar_analysis(f.values)


def haar_synthesis(coeffs: list[np.ndarray], mean=0.0) -> DyadicFunction:
    """Inverse of haar_coefficients (mean supplied separately)."""
    return DyadicFunction(_haar_synthesis(coeffs, mean))


_SIGN_VALUES = np.array([-1.0, 1.0])


def random_signs(depth: int, rng) -> list[np.ndarray]:
    """Independent +-1 signs, one array per level 0 .. depth-1.

    All 2**depth - 1 signs come from one draw, split per level; the stream
    and the generator state after it equal one rng.choice([-1.0, 1.0])
    call per level.
    """
    flat = _SIGN_VALUES[rng.integers(0, 2, 2 ** depth - 1)]
    return [flat[2 ** lev - 1: 2 ** (lev + 1) - 1] for lev in range(depth)]


def martingale_transform(f: DyadicFunction, signs) -> DyadicFunction:
    """T_sigma f = sum_I sigma(I) (f, h_I) h_I.

    `signs` holds one array per level 0 .. depth-1, of sizes 1, 2, 4, ...
    The mean of f is dropped (the result is mean zero).
    """
    sgn = [np.asarray(s, dtype=float) for s in signs]
    if len(sgn) != f.depth or any(a.size != 2 ** lev for lev, a in enumerate(sgn)):
        raise ValueError("sign arrays must match the coefficient tree shape")
    return DyadicFunction(_transform(f.values, sgn))


# ---------------------------------------------------------------------------
# Weight characteristics


def a2_dyadic(w: DyadicWeight) -> float:
    """sup_I <w>_I <1/w>_I over the finite tree (all levels 0..depth)."""
    pairs = zip(w.all_averages(), w.inverse().all_averages())
    return max(1.0, *(float(np.max(aw * ai)) for aw, ai in pairs))


def a_infinity_constant(w: DyadicWeight) -> float:
    """sup_J <w>_J exp(-<log w>_J); >= 1 by Jensen."""
    pairs = zip(w.all_averages(), _pyramid(np.log(w.values)))
    return max(1.0, *(float(np.max(aw * np.exp(-al))) for aw, al in pairs))


def buckley_sum(w: DyadicWeight) -> float:
    """sum over dyadic l in [0, 1] of (Delta_l w / <w>_l)^2 |l|,
    Delta_l w = <w>_{l_right} - <w>_{l_left}."""
    aw = w.all_averages()
    total = 0.0
    for lev, (avg, delta) in enumerate(zip(aw, _deltas(aw))):
        total += float(np.sum((delta / avg) ** 2)) * 2.0 ** (-lev)
    return total


# ---------------------------------------------------------------------------
# Weighted Haar system


def weighted_haar_system(w: DyadicWeight):
    """Decompose h_I = alpha_I h_I^w + beta_I chi_I / sqrt(|I|) for every I.

    h_I^w is two-valued on the halves of I, has zero w-mean and unit
    L2(w) norm.  Solving the 2x2 system gives
    beta = Delta_I w / (2 <w>_I) and alpha = sqrt(<w>_I (1 - beta^2)),
    hence |alpha| <= sqrt(<w>_I) and |beta| <= |Delta_I w| / <w>_I.

    Returns (alpha, beta, basis): alpha and beta one array per level
    0 .. depth-1, basis the samples of every h_I^w in the row order above.
    """
    if w.depth < 1:
        raise ValueError("need depth >= 1")
    aw = w.all_averages()
    n = 2 ** w.depth
    alpha, beta, basis = [], [], np.zeros((n - 1, n))
    for lev, (w_avg, delta) in enumerate(zip(aw, _deltas(aw))):
        b = delta / (2.0 * w_avg)
        a = np.sqrt(w_avg * (1.0 - b ** 2))
        sq = 2.0 ** (lev / 2.0)  # 1/sqrt(|I|)
        k = 2 ** lev
        # rows of this level as (interval, block, half, sample): h_I^w lives
        # on the diagonal block only
        rows = basis[k - 1: 2 * k - 1].reshape(k, k, 2, -1)
        rows[np.arange(k), np.arange(k)] = np.stack(
            [(-sq - b * sq) / a, (sq - b * sq) / a], axis=1)[..., None]
        alpha.append(a)
        beta.append(b)
    return alpha, beta, basis


# ---------------------------------------------------------------------------
# Carleson sequences


class CarlesonSequence:
    """Nonnegative values indexed by dyadic intervals, stored per level."""

    def __init__(self, levels: list[np.ndarray]):
        self.levels = [np.asarray(a, dtype=float) for a in levels]
        if not self.levels:
            raise ValueError("a Carleson sequence needs at least the root level")
        for lev, a in enumerate(self.levels):
            if a.size != 2 ** lev:
                raise ValueError("level arrays must have sizes 1, 2, 4, ...")
            if np.any(a < 0):
                raise ValueError("Carleson sequence values must be >= 0")

    @property
    def depth(self) -> int:
        return len(self.levels) - 1


def caral_sequence(w: DyadicWeight, alpha: float) -> CarlesonSequence:
    """mu_I = (<w>_I <1/w>_I)^alpha (Delta_I w^2/<w>_I^2
    + Delta_I sigma^2/<sigma>_I^2) |I|, with sigma = 1/w.

    Defined for every interval with children; the finest sampled level gets
    zeros (the step function is constant there).
    """
    if not 0 < alpha < 0.5:
        raise ValueError("alpha must lie in (0, 1/2)")
    aw, asg = w.all_averages(), w.inverse().all_averages()
    levels = [(pw * ps) ** alpha * ((dw / pw) ** 2 + (ds / ps) ** 2) * 2.0 ** (-lev)
              for lev, (pw, ps, dw, ds)
              in enumerate(zip(aw, asg, _deltas(aw), _deltas(asg)))]
    levels.append(np.zeros(2 ** w.depth))
    return CarlesonSequence(levels)


def carleson_intensity(seq: CarlesonSequence) -> float:
    """sup_J (sum over I inside J of seq(I)) / |J|."""
    depth = seq.depth
    subtree = seq.levels[depth].copy()
    best = float(np.max(subtree)) * 2.0 ** depth
    for lev in range(depth - 1, -1, -1):
        subtree = seq.levels[lev] + subtree[0::2] + subtree[1::2]
        best = max(best, float(np.max(subtree)) * 2.0 ** lev)
    return best


def carleson_embedding_check(
    seq: CarlesonSequence, f: DyadicFunction, w: DyadicWeight
) -> tuple[float, float]:
    """The left sides of the two Carleson embedding inequalities (G = F),
    sum_L (inf_L F) alpha_L and sum_L (inf_L F)/<w>_L alpha_L.  Their right
    sides are multiples of B int F and B int F/w, B = carleson_intensity(seq).
    """
    if np.any(f.values < 0):
        raise ValueError("F must be nonnegative")
    if w.depth != f.depth:
        raise ValueError("weight and function depths must match")
    lhs1 = 0.0
    lhs2 = 0.0
    # zip stops at the shallower of seq and F
    for a, inf_f, avg_w in zip(seq.levels, _pyramid(f.values, np.minimum),
                               w.all_averages()):
        lhs1 += float(np.sum(inf_f * a))
        lhs2 += float(np.sum(inf_f / avg_w * a))
    return lhs1, lhs2


# ---------------------------------------------------------------------------
# The transform family as power-ascent callables


def transform_ascent_ops(depth: int, weight: DyadicWeight | None = None) -> dict:
    """The martingale transforms T_eps on L^p(w) as the arguments of
    `ascent.power_ascent`, from all-plus signs.  An operator is its sign
    arrays, one per level.  The adjoint in the pairing of L^2(w) is
    u -> T(w u) / w, and the sign step eps_I = sign((w u, h_I)(f, h_I))
    maximizes <u, T f>_w.
    """
    if depth < 1:
        raise ValueError("need depth >= 1")
    wv = 1.0 if weight is None else weight.values

    def signs(u, f):
        cf = _haar_analysis(f)
        eps = [np.where(a * b >= 0, 1.0, -1.0) for a, b in zip(_haar_analysis(wv * u), cf)]
        return eps, _haar_synthesis([s * c for s, c in zip(eps, cf)], 0.0)

    return dict(
        apply=lambda eps, v, out: np.copyto(out, _transform(v, eps)),
        adjoint=lambda eps, u, out: np.divide(_transform(wv * u, eps), wv, out=out),
        weight=None if weight is None else weight.values,
        signs=signs, op=[np.ones(2 ** lev) for lev in range(depth)])
