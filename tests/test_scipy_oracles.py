"""The numpy kernels that stand in for scipy routines, against those routines.

scipy is only a test oracle here (the `test` extra); without it these skip.
"""

import numpy as np
import pytest

from bellmanlab import bellman as bm
from bellmanlab import laminate as lm
from bellmanlab import planar as pl
from bellmanlab import suite

integrate = pytest.importorskip("scipy.integrate")
optimize = pytest.importorskip("scipy.optimize")


def test_tanh_sinh_matches_quad():
    for p in np.geomspace(0.05, 1000.0, 60):
        ref, _ = integrate.quad(lambda t: np.cos(t) ** p, 0.0, np.pi / 2.0,
                                epsabs=1e-14, epsrel=1e-13)
        assert bm._cos_power_integral(p) == pytest.approx(ref, rel=1e-13, abs=0.0)


def test_golden_section_matches_bounded_brent():
    for q in (2.1, 3.0, 5.0, 10.0, 50.0):  # the bellman-tau-interp experiment's grid
        def log_value(p):
            theta = (0.5 - 1.0 / q) / (0.5 - 1.0 / p)
            return theta * np.log(np.sqrt(2.0) * (p - 1.0) / bm.tau_closed_form(p))

        res = optimize.minimize_scalar(log_value, bounds=(q, 1e3), method="bounded",
                                       options={"xatol": 1e-10})
        ref = float(np.exp(min(res.fun, log_value(q))))
        assert bm.interpolation_constant(q) == pytest.approx(ref, rel=1e-14, abs=0.0)


def test_simpson_is_bit_equal():
    rng = np.random.default_rng(3)
    for n in (3, 5, 65, 129):
        log_nodes = np.linspace(np.log(1e-4), np.log(3.0), n)
        uneven = np.sort(rng.uniform(0.0, 1.0, n))
        y = rng.standard_normal(n)
        for x in (log_nodes, uneven):
            assert pl._simpson(y, x) == integrate.simpson(y, x=x)


def test_gauss_legendre_matches_fixed_quad():
    # the panels of the ray quadrature's first two tail lengths, and one panel
    for f in (np.exp, np.cos, lambda s: np.exp(s) ** -1.5):
        for S, panels in ((1.0 / 3.0, 1), (8.0, 24), (12.8, 38)):
            edges = np.linspace(0.0, S, panels + 1)
            ref = sum(integrate.fixed_quad(f, a, b, n=24)[0]
                      for a, b in zip(edges[:-1], edges[1:]))
            assert lm._gauss_legendre(f, S, panels) == pytest.approx(ref, rel=1e-14, abs=0.0)


def kinks(member, ray, shift):
    """The t > 1 where member(ax t + sx, ay t + sy) has a kink: the zero of
    X + 0.3 Y for neg-abs, the crossings of two affine pieces for min-affine."""
    (sx, sy), ts = shift, []
    if member.tag == "neg-abs":
        ts.append(-(sx + 0.3 * sy) / (ray.ax + 0.3 * ray.ay))
    if member.tag == "min-affine":
        lines = [(a * ray.ax + b * ray.ay, a * sx + b * sy + d)
                 for a, b, d in member.fn.__defaults__[0]]
        ts += [(c2 - c1) / (m1 - m2) for i, (m1, c1) in enumerate(lines)
               for m2, c2 in lines[i + 1:] if m1 != m2]
    return sorted(t for t in ts if t > 1.0)


def test_ray_integrals_match_quad_on_the_suite_measure():
    # the Jensen check's integrals: nu at p = 3, eta = 1e-3, shifted to
    # a - baricenter = (-0.5, -1.25); a signed tail stop left -XY 3.0e-6,
    # -Y^2 7.2e-7, -X^2 2.3e-7 and the affine member 1.5e-11 off
    lam, _ = suite._measure("nu", 3.0, 1e-3)
    shift = (-0.5, -1.25)
    errors = {}
    for member in lm.default_battery(1):
        got = ref = 0.0
        for ray in lam.rays:
            def g(t, r=ray):
                return float(member.fn(r.ax * t + shift[0], r.ay * t + shift[1])) * t ** -r.q
            edges = [1.0, *kinks(member, ray, shift), np.inf]
            ref += ray.weight * sum(
                integrate.quad(g, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]
                for a, b in zip(edges[:-1], edges[1:]))
            got += lm._ray_quadrature(ray, member.fn, shift)
        errors[member.tag] = abs(got - ref) / abs(ref)
    assert len(errors) == 7
    # neg-abs's kink falls inside a panel: 8.6e-6 here, against a Jensen
    # margin of 0.09 for that member
    assert errors.pop("neg-abs") < 1e-5
    assert max(errors.values()) < 1e-12, errors
