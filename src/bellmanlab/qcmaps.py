"""Radial model maps with prescribed distortion.

Two explicit maps on the unit disc (identity / inversion outside):

    regular:   f0(z) = z |z|^(1/K - 1),
    singular:  f(z)  = |z|^(1 - 1/K) / z,

both solving a Beltrami equation with |mu| = k = (K-1)/(K+1).  All
derivatives and Jacobians are closed forms of |z|, so area distortion,
Sobolev integrability near the singularity, and the Jacobian-power weight
can be computed to quadrature accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .planar import GridField, PlanarWeight, grid_coordinates


@dataclass(frozen=True)
class RadialMap:
    K: float
    variant: str = "regular"   # or "singular"

    def __post_init__(self):
        if self.K < 1:
            raise ValueError("K must be >= 1")
        if self.variant not in ("regular", "singular"):
            raise ValueError("variant must be 'regular' or 'singular'")

    @property
    def k(self) -> float:
        return (self.K - 1.0) / (self.K + 1.0)

    def apply(self, z):
        z = np.asarray(z, dtype=complex)
        r = np.abs(z)
        if self.variant == "regular":
            inside = z * np.where(r > 0, r, 1.0) ** (1.0 / self.K - 1.0)
            return np.where(r <= 1.0, inside, z)
        with np.errstate(divide="ignore", invalid="ignore"):
            inside = r ** (1.0 - 1.0 / self.K) / z
            outside = 1.0 / z
        return np.where(r <= 1.0, inside, outside)

    def wirtinger(self, z):
        """(f_z, f_zbar) inside the disc, closed-form."""
        z = np.asarray(z, dtype=complex)
        r = np.abs(z)
        if self.variant == "regular":
            a = 1.0 / self.K                      # f = z (z zbar)^((a-1)/2)
            fz = (a + 1.0) / 2.0 * r ** (a - 1.0)
            fzb = (a - 1.0) / 2.0 * r ** (a - 3.0) * z ** 2
        else:
            b = 1.0 - 1.0 / self.K                # f = zbar (z zbar)^((b-2)/2)
            fz = (b - 2.0) / 2.0 * r ** (b - 4.0) * np.conj(z) ** 2
            fzb = b / 2.0 * r ** (b - 2.0)
        return fz, fzb


def beltrami_ratio(m: RadialMap, seed: int = 0) -> float:
    """max over 1000 sampled disc points of | |f_zbar / f_z| - k |."""
    rng = np.random.default_rng(seed)
    r = np.sqrt(rng.uniform(1e-6, 1.0, 1000))
    th = rng.uniform(0.0, 2.0 * np.pi, 1000)
    z = r * np.exp(1j * th)
    fz, fzb = m.wirtinger(z)
    return float(np.max(np.abs(np.abs(fzb / fz) - m.k)))


def distortion_exponent(m: RadialMap):
    """Fit |f0(B_r)| ~ |B_r|^e on discs of radii 2^-1 .. 2^-10; |f0(B_r)|
    = pi r^(2/K) exactly, so the fitted slope is 1/K up to regression
    roundoff.  Returns (slope, max deviation of |f(B_r)| / |B_r|^(1/K)
    from its mean)."""
    if m.variant != "regular":
        raise ValueError("distortion exponent is for the regular variant")
    radii = 2.0 ** -np.arange(1, 11)
    # the map is radial and increasing, so the image of B_r is the disc of
    # radius |f(r)| and areas are exact
    image_area = np.pi * np.abs(m.apply(radii + 0j)) ** 2
    area = np.pi * radii ** 2
    slope = np.polyfit(np.log(area), np.log(image_area), 1)[0]
    const = image_area / area ** (1.0 / m.K)
    spread = float(np.max(np.abs(const - const.mean())))
    return float(slope), spread


def _annulus_integral(m: RadialMap, q: float, eps: float) -> float:
    """int_{eps<|z|<1} (|f_z| + |f_zbar|)^q dm2, closed-form antiderivative.

    For the singular variant |f_z| + |f_zbar| = |z|^(-1-1/K), so the
    integrand is 2 pi r^(1 + q(b-2)) with b = 1 - 1/K."""
    if m.variant != "singular":
        raise ValueError("threshold study is for the singular variant")
    e = 1.0 + q * (-1.0 - 1.0 / m.K)     # radial exponent of r^e dr
    c = e + 1.0
    if abs(c) < 1e-14:
        return 2.0 * np.pi * (-np.log(eps))
    return 2.0 * np.pi * (1.0 - eps ** c) / c


def sobolev_threshold(m: RadialMap, q: float):
    """Integrals over eps < |z| < 1 on the dyadic ladder eps = 2^-1 ..
    2^-60 plus the fitted blow-up exponent.

    Returns a dict: the ladder 'values', the regression slope
    'increment_slope' of the per-octave increments (log2 scale), and
    'bounded' = slope < 0.  The increment sequence is exactly geometric
    with ratio 2^(q(1+1/K) - 2), so the fitted slope changes sign
    precisely at q = 1 + k.
    """
    eps = 2.0 ** -np.arange(1, 61)
    vals = np.array([_annulus_integral(m, q, e) for e in eps])
    inc = np.diff(vals)
    j = np.arange(inc.size)
    good = inc > 0
    if good.sum() >= 2:
        slope = float(np.polyfit(j[good], np.log2(inc[good]), 1)[0])
    else:
        slope = -np.inf
    return {"values": vals, "increment_slope": slope, "bounded": slope < 0.0}


def sobolev_boundary(m: RadialMap) -> float:
    """Bisect, over q in [1, 2] to width 1e-4, the q where the annulus
    integrals stop being Cauchy in eps; lands within tolerance of 1 + k."""
    q_lo, q_hi = 1.0, 2.0
    if sobolev_threshold(m, q_lo)["bounded"] is False:
        raise ArithmeticError("q_lo already divergent")
    if sobolev_threshold(m, q_hi)["bounded"]:
        raise ArithmeticError("q_hi still convergent")
    while q_hi - q_lo > 1e-4:
        mid = 0.5 * (q_lo + q_hi)
        if sobolev_threshold(m, mid)["bounded"]:
            q_lo = mid
        else:
            q_hi = mid
    return 0.5 * (q_lo + q_hi)


def jacobian_weight(m: RadialMap, p: float, n: int) -> PlanarWeight:
    """w = J_{f0}^(1 - p/2) sampled on the periodic grid of side 2.5.

    J_{f0} = (1/K) |z|^(2/K - 2) inside the disc and 1 outside, so w is a
    bounded positive power of |z| for 2 <= p < 1 + 1/k = 2K/(K-1);
    beyond that range the weight leaves the admissible class and a
    ValueError is raised.
    """
    if m.variant != "regular":
        raise ValueError("the Jacobian weight uses the regular variant")
    limit = 1.0 + 1.0 / m.k if m.k > 0 else np.inf
    if not 2.0 <= p < limit:
        raise ValueError(f"need 2 <= p < 1 + 1/k = {limit}")
    box = 2.5
    X, Y = grid_coordinates(n, box)
    r = np.hypot(X, Y)
    r = np.maximum(r, box / n / 4.0)   # the grid hits the origin; clamp at a quarter cell
    jac = np.where(r <= 1.0, (1.0 / m.K) * r ** (2.0 / m.K - 2.0), 1.0)
    w = jac ** (1.0 - p / 2.0)
    return PlanarWeight(GridField(box, w.astype(complex)), p=2.0)
