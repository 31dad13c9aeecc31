"""Monte-Carlo stochastic calculus on the Brownian filtration.

Heat extensions here solve d/dt u = (1/2) Laplacian u, so u(t, .) is the
law-of-W_t smoothing and u(T - t, W_t) is a martingale.  The planar module
uses the kernel with variance t/2 per axis instead; the two conventions
match under t_planar = 2 t_here.  No conversion is needed: the
conditioning study's oracle and its limit, the transform of u(0, .), are
closed forms of the surface, so this module imports nothing from `planar`.

Every simulation runs on one engine, `BrownianDriver.increments`.  It
streams increments time-major: one (paths, dimension) array per time step,
so a consumer holds per-path state and never a (paths, steps) array.
Stream `batch` of a driver is Philox keyed by (seed, batch), so its draws
depend only on (seed, batch, paths), never on which streams were drawn
before it.

The engine feeds the 1-d study and one planar martingale simulator,
`simulate`: X(t) = u(T - t, W_t) as a sum of gradient increments and its
transforms Y by a stack of 2x2 matrices, all read off the same path set.
The pathwise transform residuals and the moment-ratio constants run on
`simulate`.  The step-ladder sweep keeps its own loop, which carries
per-level state, and the conditioning study turns the engine's
increments into Brownian bridges pinned at each bin center, so it
conditions on the endpoint W_T directly.

Every study has an exact value for its discrete scheme at any step
count, so the grids stay coarse: the fast tier runs the 1-d study on 25
steps, and the suite's step-ladder sweep runs N = 4, 16, 64 against
`strong_error_oracle`, the Ito-isometry value of its mean squared gap.

Each study of a seed draws its own streams, once, and names them itself:
0 the 1-d study (the Riemann sums, the isometry and the product of the
sin w and w integrals in one pass), 3 its W_a for a > 0, 6 the
step-ladder sweep, 7 the transform residuals, 8 the conditioning bridges
and 10 + j surface j of the moment-ratio constants.

The studies return measurements (means with per-path deviations, standard
errors, oracles, ratios); the check builders in `suite` gate them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class BrownianDriver:
    """Generator of d-dimensional Brownian increments on [0, T]."""

    dimension: int
    horizon: float
    steps: int
    seed: int = 0

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    def increments(self, paths: int, batch: int = 0):
        """Stream `batch` of increments, time-major: `steps` arrays of shape
        (paths, dimension), std sqrt(dt), in time order, drawn from
        Philox(key=[seed, batch])."""
        rng = np.random.Generator(np.random.Philox(key=[self.seed, batch]))
        scale = np.sqrt(self.dt)
        for _ in range(self.steps):
            yield rng.normal(0.0, scale, size=(paths, self.dimension))

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.steps + 1)


def riemann_gap_demo(a: float, b: float, steps: int, paths: int, seed: int = 0):
    """Means of S1 = sum w(t_{i-1}) dw_i and S2 = sum w(t_i) dw_i over [a, b],
    the second moment of S1, and the product of S1 with the left-point
    integral F = sum sin w(t_{i-1}) dw_i, each with its per-path standard
    deviation (`*_sd`).

    S1 is the adapted (left-point) sum with mean 0 and second moment
    sum t_{i-1} dt; S2 differs by the accumulated squared increments,
    mean b - a.  The increments are independent of the past, so
    E[F S1] = sum E[w sin w](t_{i-1}) dt = sum t_{i-1} e^{-t_{i-1}/2} dt;
    `suite` gates both against these exact means.  The increments are
    stream 0 of the seed; W_a, for a > 0, is one step of variance a on
    stream 3.
    """
    if a < 0 or b <= a:
        raise ValueError(f"a={a:g}, b={b:g}; need 0 <= a < b")
    if paths < 2:
        raise ValueError(f"paths={paths}; a standard error needs at least 2")
    if steps < 1:
        raise ValueError(f"steps={steps}; need at least 1")
    w = np.zeros(paths)
    if a > 0:
        w = next(BrownianDriver(1, a, 1, seed).increments(paths, batch=3))[:, 0]
    s1 = np.zeros(paths)
    s2 = np.zeros(paths)
    f_int = np.zeros(paths)
    for inc in BrownianDriver(1, b - a, steps, seed).increments(paths):
        dw = inc[:, 0]
        f_int += np.sin(w) * dw
        s1 += w * dw
        w = w + dw
        s2 += w * dw
    fs = f_int * s1
    sd = lambda x: float(np.std(x))
    return {
        "ES1": float(np.mean(s1)), "ES1_sd": sd(s1),
        "ES2": float(np.mean(s2)), "ES2_sd": sd(s2),
        "ES1_sq": float(np.mean(s1 ** 2)), "ES1_sq_sd": sd(s1 ** 2),
        "EFS1": float(np.mean(fs)), "EFS1_sd": sd(fs),
    }


# ---------------------------------------------------------------------------
# Heat surfaces with closed forms


@dataclass
class GaussianMix:
    """Complex mixture of isotropic Gaussian bumps on the plane.

    Closed-form heat extension under d/dt - (1/2) Lap: a bump with width
    sigma^2 becomes amplitude * sigma^2/(sigma^2+t) * exp(-|x-c|^2 / (2(sigma^2+t))).
    """

    amplitudes: np.ndarray     # complex, shape (m,)
    centers: np.ndarray        # shape (m, 2)
    sigma2: np.ndarray         # shape (m,)

    @classmethod
    def single(cls, amplitude=1.0, sigma2=1.0):
        """One bump centered at the origin."""
        return cls(np.array([amplitude], dtype=complex),
                   np.zeros((1, 2)),
                   np.array([sigma2], dtype=float))

    @classmethod
    def random(cls, rng, bumps: int = 3):
        """Bumps with centers uniform on [-1.5, 1.5]^2."""
        amp = rng.normal(size=bumps) + 1j * rng.normal(size=bumps)
        cen = rng.uniform(-1.5, 1.5, size=(bumps, 2))
        s2 = rng.uniform(0.3, 1.5, size=bumps)
        return cls(amp, cen, s2)

    def value(self, t: float, x: np.ndarray) -> np.ndarray:
        """u^f(t, x); x has shape (..., 2)."""
        out = 0.0
        for a, c, s2 in zip(self.amplitudes, self.centers, self.sigma2):
            s = s2 + t
            r2 = (x[..., 0] - c[0]) ** 2 + (x[..., 1] - c[1]) ** 2
            out = out + a * (s2 / s) * np.exp(-r2 / (2.0 * s))
        return out

    def gradient(self, t: float, x: np.ndarray) -> np.ndarray:
        """(d1 u, d2 u) on the last axis: each bump contributes
        -u_j (x - c_j) / s_j with s_j = sigma_j^2 + t."""
        g = None
        for a, c, s2 in zip(self.amplitudes, self.centers, self.sigma2):
            s = s2 + t
            d = x - c
            e = np.exp((d[..., 0] ** 2 + d[..., 1] ** 2) * (-0.5 / s))
            term = (e[..., None] * d) * (-a * s2 / s ** 2)
            g = term if g is None else g + term
        return g

    def dbar(self, t: float, x: np.ndarray) -> np.ndarray:
        """(d1 u + i d2 u) / 2: each bump contributes -u_j z_j / (2 s_j)
        with z_j = (x1 - c_j1) + i (x2 - c_j2) and s_j = sigma_j^2 + t.
        Its parts are formed in place, in real arithmetic: the conditioning
        study reads the same bits through `gradient`, but took 3.5-4.0 s
        there against 2.4-2.6 s at full size (two-core Xeon)."""
        out = None
        for a, c, s2 in zip(self.amplitudes, self.centers, self.sigma2):
            s = s2 + t
            dx = x[..., 0] - c[0]
            dy = x[..., 1] - c[1]
            e = np.exp((dx * dx + dy * dy) * (-0.5 / s))
            term = np.empty(e.shape, dtype=complex)
            np.multiply(e, dx, out=term.real)
            np.multiply(e, dy, out=term.imag)
            term *= -0.5 * a * s2 / s ** 2
            out = term if out is None else out + term
        return out

    def conj_ab(self, x: np.ndarray) -> np.ndarray:
        """The conjugate-chirality transform, symbol (k1 + i k2)^2/|k|^2,
        of u(0, .) at x of shape (..., 2), exact on the plane.

        The transform is 4 dbar^2 of the Newton potential, so a bump
        a exp(-rho), rho = |z|^2 / (2 sigma^2) with z = (x1 - c1) + i (x2 - c2),
        maps to a (z/|z|)^2 (e^-rho - (1 - e^-rho)/rho), whose limit at
        z = 0 is 0."""
        out = 0.0
        for a, c, s2 in zip(self.amplitudes, self.centers, self.sigma2):
            z = (x[..., 0] - c[0]) + 1j * (x[..., 1] - c[1])
            r2 = z.real ** 2 + z.imag ** 2
            rho = r2 / (2.0 * s2)
            # at z = 0 the factor z^2 is 0: any nonzero denominator gives the limit
            safe = r2 > 0
            radial = np.exp(-rho) + np.expm1(-rho) / np.where(safe, rho, 1.0)
            out = out + a * z ** 2 / np.where(safe, r2, 1.0) * radial
        return out


def simulate(surface, driver: BrownianDriver, paths: int,
             batch: int = 0, *, matrices: np.ndarray, on_step=None):
    """Run X(t) = u(T,0) + sum_i grad u(T - t_i, W_i) . dW_i on the
    driver's horizon T, whose terminal value approaches f(W_T) at strong
    order 1/2 in the step size, and its transforms by a stack of 2x2
    complex `matrices`, shape (k, 2, 2): Y_j(t) = sum dW . (matrices[j] grad u).
    With A_STAR the increments of Y are (dW_1 + i dW_2) * 2 dbar u.  X and
    the gradients are computed once per step for all k transforms.
    Returns the terminal X, shape (paths,), and Y, shape (k, paths).
    `on_step(grad, mg)` is called at each step with the gradient,
    (paths, 2), and its images, (k, paths, 2)."""
    if driver.dimension != 2:
        raise ValueError("planar martingales need a 2-d driver")
    T, times = driver.horizon, driver.times()
    X = np.full(paths, surface.value(T, np.zeros((1, 2)))[0], dtype=complex)
    Y = np.zeros((len(matrices), paths), dtype=complex)
    W = np.zeros((paths, 2))
    m00, m01, m10, m11 = (matrices[:, r, c, None] for r, c in np.ndindex(2, 2))
    for i, dW in enumerate(driver.increments(paths, batch)):
        grad = surface.gradient(T - times[i], W)     # (paths, 2) complex
        X += grad[:, 0] * dW[:, 0] + grad[:, 1] * dW[:, 1]
        mg = np.empty((len(matrices),) + grad.shape, dtype=complex)
        mg[..., 0] = m00 * grad[:, 0] + m01 * grad[:, 1]
        mg[..., 1] = m10 * grad[:, 0] + m11 * grad[:, 1]
        Y += mg[..., 0] * dW[:, 0] + mg[..., 1] * dW[:, 1]
        if on_step is not None:
            on_step(grad, mg)
        W += dW
    return X, Y


# the matrix A = [[1, i], [i, -1]] of the conformal transform
A_STAR = np.array([[1.0, 1.0j], [1.0j, -1.0]])


def terminal_gap_sweep(surface, T: float, steps_list, paths: int, seed: int = 0):
    """Rows (mean, sd, mu3) of |X_N - f(W_T)|^2 over the paths, for each
    step count N of a ladder in increasing N, all ladder levels driven by
    aggregated copies of the same finest increments of stream 6 (so the
    sweep isolates the time-discretization error).  For the centred bump
    `strong_error_oracle` gives the exact mean.  The levels advance
    together in one pass over the finest increments; each keeps only its
    own (X, W) and the sum of the fine increments in its current coarse
    step."""
    steps_list = sorted(int(s) for s in steps_list)
    finest = steps_list[-1]
    for s in steps_list:
        if finest % s:
            raise ValueError("step counts must divide the finest one")
    W = np.zeros((len(steps_list), paths, 2))
    X = np.full((len(steps_list), paths), surface.value(T, np.zeros((1, 2)))[0],
                dtype=complex)
    pending = np.zeros((len(steps_list), paths, 2))
    fine = BrownianDriver(2, T, finest, seed=seed).increments(paths, batch=6)
    for j, inc in enumerate(fine):
        pending += inc
        for lvl, s in enumerate(steps_list):
            k = finest // s
            if (j + 1) % k:
                continue
            dW = pending[lvl]
            grad = surface.gradient(T - (j // k) * (T / s), W[lvl])
            X[lvl] += grad[:, 0] * dW[:, 0] + grad[:, 1] * dW[:, 1]
            W[lvl] += dW
            dW[:] = 0.0
    # the finest level's W is the sum of every increment: W_T
    sq = np.abs(X - surface.value(0.0, W[-1])) ** 2
    mean = sq.mean(axis=1, keepdims=True)
    return np.hstack([mean, sq.std(axis=1, keepdims=True),
                      np.mean((sq - mean) ** 3, axis=1, keepdims=True)])


def _bump_gradient_gram(sigma2: float, T: float, t, s):
    """G(t, s) = E[grad u(T - t, W_t) . grad u(T - s, W_s)] for the centred
    unit bump, t <= s.  The two axes are independent Gaussian pairs of
    covariance [[t, t], [t, s]], which gives
    G = 2 sigma2^2 t / (S1^2 S2^2 d^2) with S1 = sigma2 + T - t,
    S2 = sigma2 + T - s and d = 1 + t/S1 + s/S2 + t(s - t)/(S1 S2)."""
    s1, s2 = sigma2 + T - t, sigma2 + T - s
    d = 1.0 + t / s1 + s / s2 + t * (s - t) / (s1 * s2)
    return 2.0 * sigma2 ** 2 * t / (s1 ** 2 * s2 ** 2 * d ** 2)


def strong_error_oracle(sigma2: float, T: float, steps: int) -> float:
    """E|X_N - f(W_T)|^2 for `terminal_gap_sweep` on the centred unit bump
    u(tau, x) = (sigma2 / S) exp(-|x|^2 / (2S)), S = sigma2 + tau, with N
    equal steps t_i = iT/N.

    f(W_T) = u(T, 0) + int_0^T grad u(T - s, W_s) . dW_s and X_N freezes
    the integrand at t_i on each step, so by the Ito isometry the gap's
    second moment is sum_i int_{t_i}^{t_{i+1}} [G(t_i, t_i) - 2 G(t_i, s)
    + G(s, s)] ds with G from `_bump_gradient_gram`.  Each step's integral
    is an 8-point Gauss-Legendre rule; at sigma2 = 0.8, T = 4 it agrees
    with 16 points to 2e-10 relative at N = 4 and to 1e-13 from N = 8."""
    h = T / steps
    nodes, weights = np.polynomial.legendre.leggauss(8)
    t = (np.arange(steps) * h)[:, None]
    s = t + 0.5 * h * (nodes + 1.0)
    gram = lambda a, b: _bump_gradient_gram(sigma2, T, a, b)
    gap = gram(t, t) - 2.0 * gram(t, s) + gram(s, s)
    return float(np.sum(gap @ weights) * 0.5 * h)


def transform_residuals(surface: GaussianMix, driver: BrownianDriver, paths: int):
    """Pathwise conformality and subordination residuals of the K rows
    over the driver's horizon, on stream 7:

        max |K1 . K2|, max | |K1| - |K2| |,
        max(|K1|^2 + |K2|^2 - 4(|H1|^2 + |H2|^2))  (should be <= 0).
    """
    worst = np.full(3, -np.inf)

    def residuals(grad, mg):
        mg = mg[0]
        k1r, k1i, k2r, k2i = mg[:, 0].real, mg[:, 0].imag, mg[:, 1].real, mg[:, 1].imag
        h = grad.real ** 2 + grad.imag ** 2
        ksum = (k1r ** 2 + k2r ** 2) + (k1i ** 2 + k2i ** 2)
        worst[:] = np.maximum(worst, [
            np.max(np.abs(k1r * k2r + k1i * k2i)),
            np.max(np.abs(np.sqrt(k1r ** 2 + k1i ** 2) - np.sqrt(k2r ** 2 + k2i ** 2))),
            np.max(ksum - 4.0 * (h[:, 0] + h[:, 1])),
        ])

    simulate(surface, driver, paths, batch=7, matrices=A_STAR[None], on_step=residuals)
    return {
        "max_orthogonality": float(worst[0]),
        "max_norm_mismatch": float(worst[1]),
        "max_subordination_excess": float(worst[2]),
    }


# ---------------------------------------------------------------------------
# Conditional-expectation representation of the transform


@dataclass
class ConditioningResult:
    estimate: np.ndarray       # (bins, bins) complex conditional means
    stderr: np.ndarray         # (bins, bins) per-bin standard errors
    oracle: np.ndarray         # (bins, bins) exact mean of the discrete bridges
    limit: np.ndarray          # (bins, bins) complex transform at the centers


def _bridge_schedule(T: float, steps: int):
    """T - t_i on the grid t_i = T (1 - (1 - i/N)^2), and per step the pull
    dt_i / (T - t_i) toward the pin and the scale that turns an engine
    increment, variance T/N, into one of variance
    dt_i (T - t_{i+1}) / (T - t_i)."""
    left = T * (1.0 - np.arange(steps + 1) / steps) ** 2
    dts = left[:-1] - left[1:]
    noise = np.sqrt(dts / (T / steps) * left[1:] / left[:-1])
    pull = dts / left[:-1]
    return left, pull, noise


def bridge_oracle(surface: GaussianMix, T: float, steps: int,
                  ends: np.ndarray) -> np.ndarray:
    """E[Y(T)] for the discrete bridges of `ab_by_conditioning` pinned at
    `ends`, shape (..., 2), in closed form.

    The scheme is linear in Gaussian increments, so W_i ~ N(m_i, v_i I)
    with m_{i+1} = m_i (1 - pull_i) + x pull_i and
    v_{i+1} = v_i (1 - pull_i)^2 + noise_i^2 T/N from m_0 = v_0 = 0.  The
    noise of step i is independent of W_i, so only the drift adds to the
    mean: E[Y(T)] = sum_i pull_i E[2 dbar u(T - t_i, W_i) (x - W_i)_c],
    with z_c = z_1 + i z_2.  A bump a exp(-|z - c|^2 / (2 sigma^2)) gives,
    with S = sigma^2 + T - t_i, k = S/(S + v_i) and mu = (m_i - c) k,
    -(a sigma^2 / S^2) k exp(-|m_i - c|^2 / (2 (S + v_i))) mu_c (x - c - mu)_c.
    As T and N/T grow it tends to `GaussianMix.conj_ab`, at first order.
    """
    left, pull, noise = _bridge_schedule(T, steps)
    x = ends[..., 0] + 1j * ends[..., 1]
    m = np.zeros_like(x)        # the mean of W_i as a complex point
    v = 0.0                     # the per-axis variance of W_i
    out = np.zeros_like(x)
    for i in range(steps):
        for a, c, s2 in zip(surface.amplitudes, surface.centers, surface.sigma2):
            s = s2 + left[i]
            k = s / (s + v)
            cc = c[0] + 1j * c[1]
            mu = (m - cc) * k
            decay = np.exp(np.abs(m - cc) ** 2 * (-0.5 / (s + v)))
            out += (-a * s2 / s ** 2 * k * pull[i]) * decay * mu * (x - cc - mu)
        m = m * (1.0 - pull[i]) + x * pull[i]
        v = v * (1.0 - pull[i]) ** 2 + noise[i] ** 2 * (T / steps)
    return out


def ab_by_conditioning(surface: GaussianMix, T: float, paths: int, bins: int,
                       steps: int, seed: int = 0) -> ConditioningResult:
    """Estimate the transform by conditioning on the endpoint: for each
    center x of a bins x bins grid over [-3, 3)^2, average Y(T) over
    `paths` discrete Brownian bridges from 0 to W_T = x.

    The steps sit at t_i = T (1 - (1 - i/N)^2), shorter toward T, where
    the bridge drift (x - W)/(T - t) blows up.  A step from W at t_i adds
    (x - W) dt_i / (T - t_i) to the engine increment, rescaled to variance
    dt_i and scaled by sqrt((T - t_{i+1}) / (T - t_i)), which is 0 on the
    last step, so each bin mean estimates E[Y(T) | W_T = x] for the
    discretized integral with no self-normalization.  The bridges are
    stream 8 of the seed, bin-major.  `oracle` is that discrete mean
    exactly (`bridge_oracle`).  The matrix-A martingale represents the
    conjugate-chirality multiplier (k1 + i k2)^2/|k|^2, so `limit` is
    `GaussianMix.conj_ab`, that transform in closed form, at the centers:
    the oracle's value for T and N/T without bound.
    """
    if paths < 2:
        raise ValueError(f"paths={paths} per bin; a standard error needs at least 2")
    if bins < 1:
        raise ValueError(f"bins={bins}; need at least 1")
    box = 6.0
    centers = -box / 2.0 + (np.arange(bins) + 0.5) * (box / bins)
    mesh = np.stack(np.meshgrid(centers, centers, indexing="ij"), axis=-1)
    ends = np.repeat(mesh.reshape(-1, 2), paths, axis=0)
    left, pull, noise = _bridge_schedule(T, steps)
    Y = np.zeros(len(ends), dtype=complex)
    W = np.zeros_like(ends)
    draws = BrownianDriver(2, T, steps, seed=seed).increments(len(ends), batch=8)
    for i, inc in enumerate(draws):
        dW = inc * noise[i] + (ends - W) * pull[i]
        db = surface.dbar(left[i], W)
        db *= dW.view(complex)[:, 0]     # the rows (dW1, dW2) as dW1 + i dW2
        db *= 2.0
        Y += db
        W += dW
    Y = Y.reshape(bins, bins, paths)
    return ConditioningResult(
        estimate=Y.mean(axis=2),
        stderr=Y.std(axis=2) / np.sqrt(paths),
        oracle=bridge_oracle(surface, T, steps, mesh),
        limit=surface.conj_ab(mesh),
    )


# ---------------------------------------------------------------------------
# Subordination constants


def subordination_constants_mc(p: float, trials: int, seed: int = 0,
                               T: float = 8.0):
    """Observed transform-to-martingale moment ratios, for p > 2.

    For 6 random test surfaces f, each run by `simulate` on a 50-step
    grid: ratio of (E|Y(T)|^p)^(1/p) to (E|2 X(T)|^p)^(1/p).  Y = A-star
    transform is conformal and differentially subordinate to 2X, so the
    plain ceiling is p* - 1, here p - 1, and the conformal ceiling is
    sqrt(p(p-1)/2); below p = 2 there is no conformal ceiling.
    ratio_plain is the ratio of a random real-matrix transform B star X
    to the subordinating martingale |B| X, maximized over the surfaces;
    p* - 1 holds for any transform, so B rides on the same simulated X as
    A-star: surface j is one pass on stream 10 + j.

    Both ceilings hold at any step count.  The Euler sum X_N is the Ito
    integral of the simple predictable process g = grad u(T - t_i, W_i)
    on [t_i, t_{i+1}), and Y_N that of M g, so on every step
    |A g|^2 = 2 |g_1 + i g_2|^2 <= 4 |g|^2, |B g| <= |B|_op |g|, and
    Y_A = (g_1 + i g_2)(dW_1 + i dW_2) is conformal.  The study never
    reads X_N as f(W_T), so the grid only sets how rich the integrand
    is.  Returns a dict with the max observed ratios and the step count.
    """
    if p <= 2:
        raise ValueError(f"p={p:g}: the conformal ceiling needs p > 2")
    if trials < 1:
        raise ValueError(f"trials={trials}; need at least 1")
    rng = np.random.default_rng(seed)
    driver = BrownianDriver(2, T, 50, seed=seed)
    ratio_conf = 0.0
    ratio_plain = 0.0
    norm = lambda z: float(np.mean(np.abs(z) ** p)) ** (1.0 / p)
    for j in range(6):
        surf = GaussianMix.random(rng, bumps=3)
        # a random real transform matrix, subordination constant = |B|_op
        B = rng.normal(size=(2, 2))
        bnorm = float(np.linalg.svd(B, compute_uv=False)[0])
        X, (Y, Yr) = simulate(surf, driver, trials, batch=10 + j,
                              matrices=np.stack([A_STAR, B]))
        den = norm(2.0 * X)
        if den > 0:
            ratio_conf = max(ratio_conf, norm(Y) / den)
        denr = norm(bnorm * X)
        if denr > 0:
            ratio_plain = max(ratio_plain, norm(Yr) / denr)
    return {"ratio_plain": ratio_plain, "ratio_conformal": ratio_conf,
            "steps": driver.steps}
