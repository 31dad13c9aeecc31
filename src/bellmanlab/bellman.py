"""Explicit concave-majorant candidates and their verification.

The two-variable candidates are built from the scalar profile

    U(X, Y) = (Y - (p*-1) X) (X + Y)^(p-1),   p* = max(p, p/(p-1)),

extended to the plane by absolute values.  The normalized variants carry
the constant gamma_p = p (1 - 1/p*)^(p-1); every routine states which
scaling it uses, since dropping or keeping gamma_p silently is the classic
way these constants drift.

Margins of the sampling checks (zigzag, majorant) are reported relative to
the magnitude of the function values entering each stencil: the raw
differences cancel to zero on flat directions, so an absolute margin would
only measure float cancellation noise (~1e-4 for p = 8 on a [-10, 10] box).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def p_star(p: float) -> float:
    if p <= 1:
        raise ValueError("p must exceed 1")
    return max(p, p / (p - 1.0))


def gamma_p(p: float) -> float:
    """p (1 - 1/p*)^(p-1), the normalization of the majorant."""
    return p * (1.0 - 1.0 / p_star(p)) ** (p - 1.0)


def eval_phi(x, y, p: float, variant: str = "phi"):
    """Evaluate a majorant candidate at (x, y), vectorized.

    variant 'phi':  gamma_p (|y| - (p*-1)|x|)(|x| + |y|)^(p-1) everywhere.
    variant 'phi0': |y|^p - (p*-1)^p |x|^p where that is <= 0 (i.e.
                    |y| <= (p*-1)|x|), the 'phi' expression elsewhere.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    ps = p_star(p)
    ax, ay = np.abs(x), np.abs(y)
    phi = gamma_p(p) * (ay - (ps - 1.0) * ax) * (ax + ay) ** (p - 1.0)
    if variant == "phi":
        return phi
    if variant == "phi0":
        h = _obstacle(x, y, p, ps - 1.0)
        return np.where(h <= 0, h, phi)
    raise ValueError(f"unknown variant {variant!r}")


def _obstacle(x, y, p, c):
    """V_c(x, y) = |y|^p - c^p |x|^p, the function a candidate majorizes."""
    return abs(y) ** p - c ** p * abs(x) ** p


# ---------------------------------------------------------------------------
# Zigzag concavity and majorization by sampling


# samples evaluated at once by the sampling checks; they draw all their
# inputs first, then reduce each slice with an exact min or max, so the
# result does not depend on the slice size.  The slices are there for
# speed: a slice's temporaries stay in cache, so the full tier's
# 10^5-sample checks run about 1.6x faster than on whole-sample arrays
# (bellman-zigzag 0.131 s against 0.207 s on a 2-CPU VM).  No benchmark
# workload's peak RSS depends on them
_CHUNK = 8192


def _chunks(samples: int):
    """Slices of at most _CHUNK samples that cover range(samples)."""
    if samples < 1:
        raise ValueError(f"samples={samples}; need at least 1")
    return [slice(i, i + _CHUNK) for i in range(0, samples, _CHUNK)]


def zigzag_check(fn, samples: int, seed: int = 0) -> float:
    """Worst (relative) f(x,y) - (f(x+a, y+-a) + f(x-a, y-+a))/2 over random
    points of the box [-10, 10]^2, with steps a uniform in (0, 1].

    For a zigzag concave f both variants are >= 0; the returned margin is
    the minimum over samples and both variants, each normalized by its
    stencil magnitude.
    """
    rng = np.random.default_rng(seed)
    x = rng.uniform(-10.0, 10.0, samples)
    y = rng.uniform(-10.0, 10.0, samples)
    a = rng.uniform(0.0, 1.0, samples) + 1e-12
    worst = np.inf
    for s in _chunks(samples):
        xs, ys, steps = x[s], y[s], a[s]
        c = fn(xs, ys)
        for sgn in (1, -1):
            p1 = fn(xs + steps, ys + sgn * steps)
            p2 = fn(xs - steps, ys - sgn * steps)
            scale = np.maximum(1.0, np.maximum(np.abs(c), np.maximum(np.abs(p1), np.abs(p2))))
            worst = np.minimum(worst, np.min((c - 0.5 * (p1 + p2)) / scale))
    return float(worst)


def majorant_check(variant: str, p: float, samples: int, seed: int = 0) -> float:
    """Worst (relative) gap of candidate >= |y|^p - (p*-1)^p |x|^p over
    random points of the box [-10, 10]^2.

    The candidate carries gamma_p, which is exactly the normalization under
    which the majorization holds; the gap vanishes on |y| = (p*-1)|x|.
    """
    rng = np.random.default_rng(seed)
    x = rng.uniform(-10.0, 10.0, samples)
    y = rng.uniform(-10.0, 10.0, samples)
    worst = np.inf
    for s in _chunks(samples):
        h = _obstacle(x[s], y[s], p, p_star(p) - 1.0)
        val = eval_phi(x[s], y[s], p, variant)
        scale = np.maximum(1.0, np.maximum(np.abs(val), np.abs(h)))
        worst = np.minimum(worst, np.min((val - h) / scale))
    return float(worst)


# ---------------------------------------------------------------------------
# Hessian quadratic-form identities


def _hessian_form(x, y, dx, dy, p: float, h: float):
    """(analytic, numeric) Hessian form of U(|x|, |y|) along (dx, dy) for
    the profile U(X, Y) = (Y - (p-1)X)(X+Y)^(p-1), at any p > 1."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    dx = np.asarray(dx, dtype=float)
    dy = np.asarray(dy, dtype=float)
    X = float(np.linalg.norm(x))
    Y = float(np.linalg.norm(y))
    if X < 1e-10 or Y < 1e-10:
        raise ValueError("point too close to the singular locus |x||y| = 0")
    hp = float(dx @ x) / X
    kp = float(dy @ y) / Y
    dx2 = float(dx @ dx)
    dy2 = float(dy @ dy)
    analytic = (
        -p * (p - 2.0) * (X + Y) ** (p - 1.0) / Y * (dy2 - kp ** 2)
        - p * (p - 1.0) * (X + Y) ** (p - 2.0) * (dx2 - dy2)
        - p * (p - 1.0) * (p - 2.0) * X * (X + Y) ** (p - 3.0) * (hp + kp) ** 2
    )
    scale = max(X, Y, 1.0)
    hh = h * scale

    def phi(t):
        X_t, Y_t = np.linalg.norm(x + t * dx), np.linalg.norm(y + t * dy)
        return (Y_t - (p - 1.0) * X_t) * (X_t + Y_t) ** (p - 1.0)

    numeric = (phi(hh) - 2.0 * phi(0.0) + phi(-hh)) / hh ** 2
    return float(analytic), float(numeric)


def hessian_form_identity(x, y, dx, dy, p: float, h: float = 1e-4):
    """Analytic vs finite-difference Hessian form of phi(x,y)=U(|x|,|y|).

    x, y, dx, dy are 2-vectors.  Returns (analytic, numeric); the contract
    is |analytic - numeric| = O(h^2).  For p >= 2, with
    U(X,Y) = (Y - (p-1)X)(X+Y)^(p-1) (gamma_p dropped), the analytic
    expression is

      -p(p-2)(X+Y)^(p-1)/Y * |dy_perp|^2 - p(p-1)(X+Y)^(p-2)(|dx|^2-|dy|^2)
      -p(p-1)(p-2) X (X+Y)^(p-3) (h' + k')^2

    with X=|x|, Y=|y|, h'=(dx, x/X), k'=(dy, y/Y).  For 1 < p < 2 the
    profile scaled by (p-1) is ((p-1)Y - X)(X+Y)^(p-1) = -U(Y, X), so its
    form is minus the display above with the roles of (x, dx) and (y, dy)
    swapped; negation is exact, so both values are computed that way.
    """
    if p >= 2:
        return _hessian_form(x, y, dx, dy, p, h)
    analytic, numeric = _hessian_form(y, x, dy, dx, p, h)
    return -analytic, -numeric


# ---------------------------------------------------------------------------
# The slope-section analysis on [-1, 1]


def _H(s, p, c):
    """H_c(s) = ((1+s)/2)^p - c^p ((1-s)/2)^p, the obstacle on x + y = 1."""
    return _obstacle((1.0 - s) / 2.0, (1.0 + s) / 2.0, p, c)


def _Hp(s, p):
    cp = (p_star(p) - 1.0) ** p
    return p / 2.0 * (((1.0 + s) / 2.0) ** (p - 1.0) + cp * ((1.0 - s) / 2.0) ** (p - 1.0))


def _Hpp(s, p):
    cp = (p_star(p) - 1.0) ** p
    return p * (p - 1.0) / 4.0 * (
        ((1.0 + s) / 2.0) ** (p - 2.0) - cp * ((1.0 - s) / 2.0) ** (p - 2.0)
    )


def h_section_inequality(p: float) -> float:
    """max over [-1, s_p] of s^2 H'' + (p-1)(-2 s H' + p H), expected <= 0.

    H = H_c at c = p*-1, s_p = (p*-2)/p* is its zero, and the grid holds
    10,001 points; requires p >= 2.
    """
    if p < 2:
        raise ValueError("section inequality is asserted for p >= 2")
    sp = (p_star(p) - 2.0) / p_star(p)
    s = np.linspace(-1.0 + 1e-9, sp, 10001)
    expr = (s ** 2 * _Hpp(s, p)
            + (p - 1.0) * (-2.0 * s * _Hp(s, p) + p * _H(s, p, p_star(p) - 1.0)))
    return float(np.max(expr))


# ---------------------------------------------------------------------------
# Linear-majorant feasibility (the sharpness mechanism)


@dataclass
class FeasibilityResult:
    feasible: bool
    rho: float | None = None
    a: float | None = None


def linear_majorant_feasibility(c: float, p: float) -> FeasibilityResult:
    """Search g(s) = a((1+s)/2 - rho (1-s)/2) with a > 0 for

      g >= H_c on [-1, 1]   and   2 s g'(s) - p g(s) >= 0 at s = +-1,

    where H_c(s) = ((1+s)/2)^p - c^p ((1-s)/2)^p.  Feasibility is decided
    on a rho grid (augmented with the corner values p*-1 and c, where the
    constraint set degenerates to a point); for each rho the admissible
    range of a is an exact interval computed from the s grid.  The grids
    hold 512 rho values on [0, 4 p*] and 4096 s values; sign tests use a
    tolerance of 1e-9.  Expected: feasible iff c >= p*-1.
    """
    if c < 0 or p <= 1:
        raise ValueError("need c >= 0 and p > 1")
    tol = 1e-9
    ps = p_star(p)
    rhos = np.linspace(0.0, 4.0 * ps, 512)
    corners = [ps - 1.0, c]
    rhos = np.unique(np.concatenate([rhos, [r for r in corners if 0 <= r <= 4 * ps]]))
    s = np.linspace(-1.0, 1.0, 4096)
    Hc = _H(s, p, c)
    a_cap = 4.0 * gamma_p(p)

    for rho in rhos:
        # endpoint slope conditions for linear g: a(1+rho-p) >= 0 and
        # a(rho(p-1)-1) >= 0; a > 0, so both reduce to constraints on rho
        if (1.0 + rho - p) < -tol or (rho * (p - 1.0) - 1.0) < -tol:
            continue
        # H_c(s_rho) <= 0 at the zero s_rho = (rho-1)/(rho+1) of g1: a
        # scalar test that rejects every rho > c before any array work;
        # H_c is nondecreasing, so it also holds H_c <= 0 where g1 < 0.
        # The transitions are the same without it, but feasibility_transition
        # at p = 3 took 0.41-0.53 s against 0.01-0.02 s (two-core Xeon)
        if _H((rho - 1.0) / (rho + 1.0), p, c) > tol:
            continue
        g1 = (1.0 + s) / 2.0 - rho * (1.0 - s) / 2.0
        pos = g1 > tol
        neg = g1 < -tol
        a_min = 0.0
        if np.any(pos & (Hc > 0)):
            a_min = float(np.max(Hc[pos] / g1[pos]))
        a_max = np.inf
        if np.any(neg):
            ratios = Hc[neg] / g1[neg]
            up = ratios[Hc[neg] < 0]
            if up.size:
                a_max = float(np.min(up))
        a_min = max(a_min, tol)
        a_hi = min(a_max, a_cap)
        if a_min <= a_hi * (1 + 1e-12):
            a = min(max(gamma_p(p), a_min), a_hi)
            return FeasibilityResult(True, float(rho), float(a))
    return FeasibilityResult(False)


def feasibility_transition(p: float) -> float:
    """Bisect, to width 1e-4 over [0, 4 (p*-1)], the smallest c for which
    the linear majorant family is feasible; should land within grid
    tolerance of p*-1."""
    c_lo, c_hi = 0.0, 4.0 * (p_star(p) - 1.0)
    if linear_majorant_feasibility(c_lo, p).feasible:
        return c_lo
    if not linear_majorant_feasibility(c_hi, p).feasible:
        raise RuntimeError("no feasible c in the bracket")
    while c_hi - c_lo > 1e-4:
        mid = 0.5 * (c_lo + c_hi)
        if linear_majorant_feasibility(mid, p).feasible:
            c_hi = mid
        else:
            c_lo = mid
    return 0.5 * (c_lo + c_hi)


# ---------------------------------------------------------------------------
# tau(p) and the interpolation sweep


def tau_closed_form(p: float) -> float:
    """(Gamma((p+1)/2) / (sqrt(pi) Gamma(p/2+1)))^(1/p)."""
    if p <= 0:
        raise ValueError("p must be positive")
    return float(np.exp((math.lgamma((p + 1.0) / 2.0) - math.lgamma(p / 2.0 + 1.0)
                         - 0.5 * np.log(np.pi)) / p))


# tanh-sinh rule for int_0^{pi/2} f(t) dt, with t = (pi/2)/(1 + e^(-pi sinh u))
# on u in [-4, 4] at step h = 1/32.  The nodes are kept as the gap pi/2 - t,
# so cos t = sin(gap) keeps full relative precision next to the zero at
# pi/2; the weights h dt/du = h (pi^2/4) cosh u / (1 + cosh(pi sinh u)) are
# below 1e-36 at the ends.
_TS_U = np.arange(-128, 129) / 32.0
_TS_GAP = (np.pi / 2.0) / (1.0 + np.exp(np.pi * np.sinh(_TS_U)))
_TS_WEIGHT = np.pi ** 2 / 128.0 * np.cosh(_TS_U) / (1.0 + np.cosh(np.pi * np.sinh(_TS_U)))


def _cos_power_integral(p: float) -> float:
    """int_0^{pi/2} cos(t)^p dt by the tanh-sinh rule above."""
    return float(np.sum(_TS_WEIGHT * np.sin(_TS_GAP) ** p))


def tau(p: float) -> float:
    """((1/2pi) int_0^{2pi} |cos|^p)^(1/p) by tanh-sinh quadrature.

    The check bellman.tau-quadrature compares it with the closed Gamma
    form, so a quadrature failure shows there as a failed check.
    """
    if p <= 0:
        raise ValueError("p must be positive")
    return (2.0 / np.pi * _cos_power_integral(p)) ** (1.0 / p)


_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_min(f, a: float, b: float, xatol: float) -> float:
    """Smallest value of f met by golden-section search on [a, b], run until
    the bracket is narrower than xatol; f should be unimodal there."""
    c, d = b - _INV_GOLDEN * (b - a), a + _INV_GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while b - a > xatol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_GOLDEN * (b - a)
            fd = f(d)
    return min(fc, fd)


def interpolation_constant(q: float) -> float:
    """min over p in [q, 1e3] of [sqrt(2)(p-1)/tau(p)]^theta, where
    theta = (1/2 - 1/q)/(1/2 - 1/p) interpolates between exponent 2
    (norm 1) and exponent p.  The minimum is found by golden-section search
    to a bracket of 1e-10, plus the endpoint p = q.

    Requires q >= 2 (use duality q <-> q/(q-1) upstream for q < 2).
    """
    if q < 2:
        raise ValueError("q must be >= 2; pass the dual exponent instead")
    if q == 2:
        return 1.0

    def log_value(p):
        theta = (0.5 - 1.0 / q) / (0.5 - 1.0 / p)
        return theta * np.log(np.sqrt(2.0) * (p - 1.0) / tau_closed_form(p))

    return float(np.exp(min(_golden_min(log_value, q, 1e3, 1e-10), log_value(q))))


# ---------------------------------------------------------------------------
# The power candidate's Hessian bound


@dataclass
class BqReport:
    worst_margin: float
    range_ratio: float     # the largest x^a y^a / Q^a


def bq_hessian_check(Q: float, alpha: float, samples: int, seed: int = 0) -> BqReport:
    """The worst margin of -d^2(x^a y^a) >= a(1-2a) x^a y^a ((dx/x)^2 + (dy/y)^2)
    on random points of {x, y > 0, 1 < xy <= Q} and random directions, by
    the analytic Hessian, and the largest x^a y^a / Q^a there."""
    if Q <= 1:
        raise ValueError("Q must exceed 1")
    if not 0 < alpha < 0.5:
        raise ValueError("alpha must lie in (0, 1/2)")
    rng = np.random.default_rng(seed)
    prod = rng.uniform(1.0 + 1e-9, Q, samples)
    skew = rng.uniform(-3.0, 3.0, samples)
    theta = rng.uniform(0.0, 2.0 * np.pi, samples)
    margin, top = np.inf, -np.inf
    for s in _chunks(samples):
        x = np.sqrt(prod[s]) * np.exp(skew[s])
        y = np.sqrt(prod[s]) * np.exp(-skew[s])
        u, v = np.cos(theta[s]) / x, np.sin(theta[s]) / y
        b = x ** alpha * y ** alpha
        neg_form = b * (alpha * (1.0 - alpha) * (u ** 2 + v ** 2) - 2.0 * alpha ** 2 * u * v)
        required = alpha * (1.0 - 2.0 * alpha) * b * (u ** 2 + v ** 2)
        margin = np.minimum(margin, np.min(neg_form - required))
        top = np.maximum(top, np.max(b))
    return BqReport(worst_margin=float(margin), range_ratio=float(top) / Q ** alpha)


# ---------------------------------------------------------------------------
# The exponential-obstacle candidate on the strip


@dataclass
class JNReport:
    fd_max_eig: float
    fd_max_det_rel: float
    obstacle_min_gap: float
    analytic_max_eig: float
    analytic_max_det_rel: float
    variants: list


def _strip_candidate(eps: float, q: float):
    """phi_{eps,q}(x1,x2) = q (1 - r)/(1 - sqrt(eps)) e^{x1 + r - sqrt(eps)}
    with r = sqrt(eps - x2); its drift-modified matrix

        M = [[v_11 - 2 v_2, v_12], [v_12, v_22]]

    is singular with nonpositive trace, by the closed-form derivatives
    v_11 = v, v_2 = v_12 = C e^r / 2, v_22 = -C e^r/(4r),
    v_11 - 2 v_2 = -C r e^r, where C = q e^{x1 - sqrt(eps)}/(1 - sqrt(eps)).
    """

    def value(x1, x2):
        r = np.sqrt(eps - x2)
        return q * (1.0 - r) / (1.0 - np.sqrt(eps)) * np.exp(x1 + r - np.sqrt(eps))

    def matrix(x1, x2):
        r = np.sqrt(eps - x2)
        C = q * np.exp(x1 - np.sqrt(eps)) / (1.0 - np.sqrt(eps))
        er = np.exp(r)
        m11 = -C * r * er
        m12 = C * er / 2.0
        m22 = -C * er / (4.0 * r)
        return m11, m12, m22

    return value, matrix


def _matrix_stats(m11, m12, m22):
    """Largest eigenvalue and largest |relative determinant| of
    [[m11,m12],[m12,m22]] over a grid; 'relative' means det / (squared
    Frobenius scale)."""
    tr = m11 + m22
    det = m11 * m22 - m12 ** 2
    disc = np.sqrt(np.maximum((m11 - m22) ** 2 + 4.0 * m12 ** 2, 0.0))
    scale = m11 ** 2 + 2.0 * m12 ** 2 + m22 ** 2
    return (float(np.max(0.5 * (tr + disc))),
            float(np.max(np.abs(det / np.maximum(scale, 1e-300)))))


def _fd_matrix(value, x1, x2, h):
    v2 = (value(x1, x2 + h) - value(x1, x2 - h)) / (2.0 * h)
    v11 = (value(x1 + h, x2) - 2.0 * value(x1, x2) + value(x1 - h, x2)) / h ** 2
    v22 = (value(x1, x2 + h) - 2.0 * value(x1, x2) + value(x1, x2 - h)) / h ** 2
    v12 = (value(x1 + h, x2 + h) - value(x1 + h, x2 - h)
           - value(x1 - h, x2 + h) + value(x1 - h, x2 - h)) / (4.0 * h ** 2)
    return v11 - 2.0 * v2, v12, v22


def jn_bellman_check(delta: float, grid: tuple[int, int]) -> JNReport:
    """Check the strip candidate v_delta on {|x1| <= 1, 0 <= x2 < delta}:

    (a) drift-modified matrix negative semidefinite, (b) its determinant
    zero, (c) v_delta >= e^{x1}, and (a)+(b) for the phi_{eps,q} family
    members (eps, q) = (0.6, 1) and (0.9, 2), in that order, in `variants`
    (v_delta itself is the member (delta, 1)).

    (a), (b) are certified with the closed-form derivatives on the nearly
    full strip; the finite-difference cross-check runs only where
    delta - x2 >= 0.05 (clipped, since the x2-derivatives blow up
    like (delta - x2)^{-1/2} at the branch point and centered differences
    at step 1e-4 lose the stated tolerances there).
    """
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    fd_clearance = 0.05
    n1, n2 = grid
    x1 = np.linspace(-1.0, 1.0, n1)
    x2_full = np.linspace(0.0, delta - 1e-9 * max(delta, 1.0), n2)
    X1, X2 = np.meshgrid(x1, x2_full, indexing="ij")

    value, matrix = _strip_candidate(delta, 1.0)
    analytic_max_eig, analytic_max_det = _matrix_stats(*matrix(X1, X2))
    obstacle = float(np.min(value(X1, X2) - np.exp(X1)))

    x2_fd = x2_full[x2_full <= delta - fd_clearance]
    fd_eig, fd_det = -np.inf, 0.0
    if x2_fd.size:
        X1f, X2f = np.meshgrid(x1, x2_fd, indexing="ij")
        fd_eig, fd_det = _matrix_stats(*_fd_matrix(value, X1f, X2f, 1e-4))

    out_variants = []
    for eps, q in ((0.6, 1.0), (0.9, 2.0)):
        if eps < delta:
            raise ValueError(f"delta must not exceed the variant eps = {eps}")
        _, mat = _strip_candidate(eps, q)
        max_eig, max_det_rel = _matrix_stats(*mat(X1, X2))
        out_variants.append({"max_eig": max_eig, "max_det_rel": max_det_rel})

    return JNReport(
        fd_max_eig=fd_eig,
        fd_max_det_rel=fd_det,
        obstacle_min_gap=obstacle,
        analytic_max_eig=analytic_max_eig,
        analytic_max_det_rel=analytic_max_det,
        variants=out_variants,
    )
