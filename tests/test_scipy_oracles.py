"""The numpy kernels that stand in for scipy routines, against those routines.

scipy is only a test oracle here (the `test` extra); without it these skip.
"""

import numpy as np
import pytest

from bellmanlab import bellman as bm
from bellmanlab import laminate as lm
from bellmanlab import planar as pl

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
    for f in (np.exp, np.cos, lambda s: np.exp(s) ** -1.5):
        for a, b in ((0.0, 1.0 / 3.0), (2.0, 8.0), (-1.0, 1.0)):
            ref, _ = integrate.fixed_quad(f, a, b, n=24)
            assert lm._gauss_legendre(f, a, b) == pytest.approx(ref, rel=1e-14, abs=0.0)
