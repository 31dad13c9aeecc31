"""Laminates on the plane: point atoms plus power-law ray parts.

A laminate here is a positive measure mu = sum_i m_i delta_{(X_i, Y_i)}
+ sum_j (ray part), where a ray part integrates a test function along
t -> (a t, b t), t in [1, inf), against weight * t^{-q} dt.  The defining
property is Jensen's inequality against separately concave (bi-concave)
test functions, after recentering at the baricenter.

The standard family: with p >= 2, eta > 0, p_eta = p + eta and

    s0 = 1 - 2/p_eta,  K = 1/s0 = p_eta/(p_eta - 2),
    p_eta = 2K/(K-1),  p_eta - 1 = (K+1)/(K-1),

nu_hi is supported on Y = K X (points (t/K, t)) and nu_lo on Y = X/K
(points (t, t/K)), both with weight K/(K-1) and tail exponent p_eta + 1.
Their sum has mass 1 and baricenter (1, 1).  The composite measure

    mu = (nu_hi + nu_lo)/4 + delta_{(-1,1)}/4 + delta_{(0,1)}/2

is kept with exactly these atoms; note that its second moment makes the
baricenter (0, 1), not (0, 0) -- the composite chain would need the heavy
atom at (0, -1) instead.  baricenter() reports what the printed atoms
give; nothing is silently corrected.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Ray:
    """t -> (ax t, ay t), t in [1, inf), density weight * t^(-q) dt."""

    ax: float
    ay: float
    weight: float
    q: float

    def __post_init__(self):
        if self.weight < 0:
            raise ValueError("ray weight must be >= 0")


@dataclass
class Laminate:
    atoms: list = field(default_factory=list)   # (X, Y, mass) triples
    rays: list = field(default_factory=list)


@dataclass
class TestFunction2D:
    """Evaluator phi(X, Y); degree marks |phi(tX, tY)| = t^degree |phi(X,Y)|
    (exact homogeneity) and unlocks closed-form ray integrals."""

    fn: callable
    tag: str = "custom"
    degree: float | None = None

    def __call__(self, X, Y):
        return self.fn(X, Y)


def power_test(fn, degree: float, tag: str = "power") -> TestFunction2D:
    return TestFunction2D(fn=fn, tag=tag, degree=degree)


def phi_plus(p: float) -> TestFunction2D:
    return power_test(lambda X, Y: np.abs(X + Y) ** p, p, "phi+")


def phi_minus(p: float) -> TestFunction2D:
    return power_test(lambda X, Y: np.abs(X - Y) ** p, p, "phi-")


def s0_K_p_relations(p: float, eta: float):
    """(s0, K, p_eta, residual of p_eta - 1 = (K+1)/(K-1))."""
    p_eta = p + eta
    if p_eta <= 2:
        raise ValueError("need p + eta > 2")
    s0 = 1.0 - 2.0 / p_eta
    K = 1.0 / s0
    residual = abs((p_eta - 1.0) - (K + 1.0) / (K - 1.0))
    return s0, K, p_eta, residual


def nu_pair(p: float, eta: float) -> tuple[Laminate, Laminate]:
    """The two ray laminates on Y = KX and Y = X/K (weights K/(K-1),
    tail exponent p + eta + 1)."""
    _, K, p_eta, _ = s0_K_p_relations(p, eta)
    w = K / (K - 1.0)
    hi = Laminate(rays=[Ray(1.0 / K, 1.0, w, p_eta + 1.0)])
    lo = Laminate(rays=[Ray(1.0, 1.0 / K, w, p_eta + 1.0)])
    return hi, lo


def mu_laminate(p: float, eta: float) -> Laminate:
    hi, lo = nu_pair(p, eta)
    return Laminate(
        atoms=[(-1.0, 1.0, 0.25), (0.0, 1.0, 0.5)],
        rays=[Ray(r.ax, r.ay, 0.25 * r.weight, r.q) for r in hi.rays + lo.rays],
    )


def sigma_laminate(p: float, eta: float) -> Laminate:
    """mu pushed forward by (X, Y) -> (X, -Y)."""
    mu = mu_laminate(p, eta)
    return Laminate(
        atoms=[(x, -y, m) for (x, y, m) in mu.atoms],
        rays=[Ray(r.ax, -r.ay, r.weight, r.q) for r in mu.rays],
    )


# ---------------------------------------------------------------------------
# Integration


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)


def _gauss_legendre(f, S: float, panels: int) -> float:
    """int_0^S f by the order-24 Gauss-Legendre rule on `panels` equal
    panels, in one array evaluation; f takes an array."""
    h = S / panels
    return float(h / 2.0 * np.sum(_GL_WEIGHTS * f(
        h * (np.arange(panels)[:, None] + (_GL_NODES + 1) / 2.0))))


def _ray_quadrature(ray: Ray, phi, shift) -> float:
    """integral_1^inf phi(ax t + sx, ay t + sy) t^(-q) dt.

    Substituting t = e^s, one array pass of order-24 Gauss-Legendre panels
    covers [0, S]; the remainder beyond e^S is estimated from the local
    power-law degree of the integrand (fitted from samples), and S grows
    until |tail estimate| drops below 1e-12 of |total|, whatever its sign.
    """
    sx, sy = shift

    def integrand(s):
        t = np.exp(s)
        return phi(ray.ax * t + sx, ray.ay * t + sy) * t ** (1.0 - ray.q)

    S, panels = 8.0, 24
    for _ in range(12):
        total = _gauss_legendre(integrand, S, panels)
        t_end = np.exp(S)
        f_end = float(phi(ray.ax * t_end + sx, ray.ay * t_end + sy))
        f_mid = float(phi(ray.ax * t_end / 2 + sx, ray.ay * t_end / 2 + sy))
        if abs(f_end) > 0 and abs(f_mid) > 0:
            deg = np.log(abs(f_end) / abs(f_mid)) / np.log(2.0)
        else:
            deg = 0.0
        decay = ray.q - 1.0 - deg
        if decay <= 0.05:
            raise ArithmeticError("ray integral does not converge fast enough")
        tail = f_end * t_end ** (1.0 - ray.q) / decay
        if abs(tail) <= 1e-12 * max(abs(total), 1e-300):
            return ray.weight * (total + tail)
        S *= 1.6
        panels = int(panels * 1.6)
    raise RuntimeError("ray quadrature failed to localize the tail")


def _ray_closed_form(ray: Ray, phi: TestFunction2D) -> float:
    """weight * phi(ax, ay) / (q - 1 - degree) for exactly homogeneous phi."""
    decay = ray.q - 1.0 - phi.degree
    if decay <= 0:
        raise ValueError("divergent ray integral: degree >= q - 1")
    return ray.weight * float(phi(ray.ax, ray.ay)) / decay


def integrate(lam: Laminate, phi: TestFunction2D, shift=(0.0, 0.0),
              method: str = "auto") -> float:
    """integral of phi(X + shift_x, Y + shift_y) d lam(X, Y).

    Atoms are summed exactly.  Ray parts use the closed-form power rule
    when phi declares exact homogeneity and no shift is applied (method
    'auto'), otherwise adaptive log-substituted quadrature; method 'quad'
    forces quadrature, e.g. to cross-check the closed form.
    """
    if method not in ("auto", "quad"):
        raise ValueError(f"method must be 'auto' or 'quad', not {method!r}")
    total = sum(m * float(phi.fn(x + shift[0], y + shift[1])) for x, y, m in lam.atoms)
    closed_ok = phi.degree is not None and shift == (0.0, 0.0) and method == "auto"
    for ray in lam.rays:
        if closed_ok:
            total += _ray_closed_form(ray, phi)
        else:
            total += _ray_quadrature(ray, phi.fn, shift)
    return total


def mass(lam: Laminate) -> float:
    return integrate(lam, power_test(lambda X, Y: np.ones_like(np.asarray(X, dtype=float)), 0.0))


def baricenter(lam: Laminate):
    """(Xbar, Ybar, mass); first moments must converge."""
    m = mass(lam)
    mx = integrate(lam, power_test(lambda X, Y: np.asarray(X, dtype=float), 1.0))
    my = integrate(lam, power_test(lambda X, Y: np.asarray(Y, dtype=float), 1.0))
    return mx / m, my / m, m


# ---------------------------------------------------------------------------
# The ratio and its printed closed form


@dataclass
class RatioResult:
    direct: float
    printed: float
    target: float      # (K+1)/(K-1)


def printed_ratio(p: float, eta: float, K: float) -> float:
    """The closed-form ratio as displayed:

        [K((K+1)^p + (K+1)^p/K^p)/(4 eta) + (K-1)/2]
      / [K((K-1)^p + (K-1)^p/K^p)/(4 eta) + (K-1)/2 + 2^p (K-1)/4].

    Relative to direct integration of the measure definitions this carries
    an overall factor (K-1) (which cancels in the ratio) and parametrizes
    the rays as (t, Kt), (t, t/K) instead of (t/K, t), (t, t/K); both
    versions share the eta -> 0 limit ((K+1)/(K-1))^p.
    """
    num = 0.25 * K * ((K + 1.0) ** p + (K + 1.0) ** p / K ** p) / eta + 0.5 * (K - 1.0)
    den = (0.25 * K * ((K - 1.0) ** p + (K - 1.0) ** p / K ** p) / eta
           + 0.5 * (K - 1.0) + 0.25 * 2.0 ** p * (K - 1.0))
    return num / den


def ratio(p: float, eta: float) -> RatioResult:
    """int phi+ dmu / int phi- dmu by direct integration of the measure,
    next to the printed closed form at the linked K = p_eta/(p_eta - 2).
    Direct integration is authoritative."""
    _, K, _, _ = s0_K_p_relations(p, eta)
    mu = mu_laminate(p, eta)
    num = integrate(mu, phi_plus(p))
    den = integrate(mu, phi_minus(p))
    return RatioResult(
        direct=num / den,
        printed=printed_ratio(p, eta, K),
        target=(K + 1.0) / (K - 1.0),
    )


def sigma_ratio(p: float, eta: float) -> float:
    """int phi- dsigma / int phi+ dsigma; equals ratio(...).direct because
    the reflection swaps the two test functions exactly."""
    sig = sigma_laminate(p, eta)
    return integrate(sig, phi_minus(p)) / integrate(sig, phi_plus(p))


# ---------------------------------------------------------------------------
# Jensen inequality against a bi-concave battery


def check_biconcave(fn, seed: int = 0) -> tuple[bool, tuple | None]:
    """Sampled separate-concavity certificate: second differences along
    each axis must be <= 0 up to roundoff.  Probabilistic, as documented:
    it inspects 10,000 random points of [-4, 4]^2 with steps in
    [1e-3, 0.5]."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-4.0, 4.0, 10000)
    y = rng.uniform(-4.0, 4.0, 10000)
    h = rng.uniform(1e-3, 0.5, 10000)
    for dx, dy in ((1.0, 0.0), (0.0, 1.0)):
        second = (fn(x + h * dx, y + h * dy) - 2.0 * fn(x, y)
                  + fn(x - h * dx, y - h * dy))
        scale = np.maximum(1.0, np.abs(fn(x, y)))
        bad = second / scale > 1e-10
        if np.any(bad):
            i = int(np.argmax(bad))
            return False, (float(x[i]), float(y[i]), float(h[i]))
    return True, None


def default_battery(seed: int = 0) -> list[TestFunction2D]:
    """Affine functions, concave quadratics in one variable, the minimum
    of 5 random affine functions (jointly concave, hence bi-concave), and
    +-XY.  The jointly concave members obey Jensen for every probability
    measure; +-XY is bi-concave but not concave, exact on laminates
    (E XY = Xbar Ybar), and tells a laminate from other centered measures."""
    rng = np.random.default_rng(seed)
    battery = [
        TestFunction2D(lambda X, Y: 2.0 * X - 3.0 * Y + 1.0, "affine"),
        TestFunction2D(lambda X, Y: -np.asarray(X, dtype=float) ** 2, "neg-x-square"),
        TestFunction2D(lambda X, Y: -np.asarray(Y, dtype=float) ** 2, "neg-y-square"),
        TestFunction2D(lambda X, Y: -np.abs(X + 0.3 * Y), "neg-abs"),
    ]
    coefs = rng.normal(size=(5, 3))

    def min_affine(X, Y, c=coefs):
        X = np.asarray(X, dtype=float)
        vals = [a * X + b * Y + d for a, b, d in c]
        return np.minimum.reduce(vals)

    battery.append(TestFunction2D(min_affine, "min-affine"))
    battery.append(TestFunction2D(lambda X, Y: np.multiply(X, Y, dtype=float), "xy"))
    battery.append(TestFunction2D(lambda X, Y: -np.multiply(X, Y, dtype=float), "neg-xy"))
    return battery


def laminate_inequality_check(lam: Laminate, a=(0.0, 0.0),
                              battery: list | None = None, seed: int = 0) -> float:
    """min over the battery of f(a) - int f(a + z) dlam~(z), where lam~ is
    lam over its mass, recentered at its baricenter (displacements average
    to zero).  For a valid laminate and bi-concave battery this is >= -tol;
    battery members failing the sampled concavity certificate are rejected."""
    if battery is None:
        battery = default_battery(seed)
    bx, by, m = baricenter(lam)
    worst = np.inf
    for f in battery:
        ok, witness = check_biconcave(f.fn, seed=seed)
        if not ok:
            raise ValueError(f"battery member {f.tag} fails bi-concavity at {witness}")
        lhs = float(f(a[0], a[1]))
        rhs = integrate(lam, f, shift=(a[0] - bx, a[1] - by)) / m
        worst = min(worst, lhs - rhs)
    return worst
