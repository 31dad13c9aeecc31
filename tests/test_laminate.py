import numpy as np
import pytest

from bellmanlab import laminate as lam
from bellmanlab import suite


def nu_sum(p, eta):
    hi, lo = lam.nu_pair(p, eta)
    return lam.Laminate(atoms=hi.atoms + lo.atoms, rays=hi.rays + lo.rays)


# ---------------------------------------------------------------------------
# parameter relations


def test_relations_p4_eta0():
    s0, K, p_eta, resid = lam.s0_K_p_relations(4.0, 0.0)
    assert (s0, K, p_eta) == (0.5, 2.0, 4.0)
    assert p_eta - 1.0 == pytest.approx((K + 1) / (K - 1))
    assert resid < 1e-14


def test_relations_p2_eta2():
    _, K, _, _ = lam.s0_K_p_relations(2.0, 2.0)
    assert K == pytest.approx(2.0)


def test_relations_residual_sweep():
    for p in (2.0, 2.7, 4.0, 9.0):
        for eta in (1e-4, 1e-2, 0.5):
            assert lam.s0_K_p_relations(p, eta)[3] < 1e-13


def test_relations_validation():
    with pytest.raises(ValueError):
        lam.s0_K_p_relations(1.5, 0.1)


# ---------------------------------------------------------------------------
# integration


def test_constant_integral_is_half():
    # closed-form oracle: (K/(K-1)) / (p + eta) with p + eta = 2K/(K-1)
    p, eta = 3.0, 0.25
    hi, _ = lam.nu_pair(p, eta)
    one = lam.power_test(lambda X, Y: np.ones_like(np.asarray(X, float)), 0.0)
    assert lam.integrate(hi, one) == pytest.approx(0.5, abs=1e-14)


def test_phi_plus_closed_form():
    p, eta = 3.0, 1e-3
    _, K, _, _ = lam.s0_K_p_relations(p, eta)
    both = nu_sum(p, eta)
    got = lam.integrate(both, lam.phi_plus(p))
    expect = 2.0 * (K / (K - 1.0)) * ((K + 1.0) / K) ** p / eta
    # the decay exponent q - 1 - p cancels to eta in floating point
    assert got == pytest.approx(expect, rel=1e-9)


def test_atoms_only_signed_sum():
    l = lam.Laminate(atoms=[(1.0, 2.0, 0.5), (-3.0, 1.0, 2.0)])
    f = lam.TestFunction2D(lambda X, Y: X - Y)
    assert lam.integrate(l, f) == pytest.approx(0.5 * (1 - 2) + 2.0 * (-3 - 1))


def test_closed_form_vs_quadrature():
    # moderate tail: the quadrature route is viable and must agree
    mu = lam.mu_laminate(3.0, 0.5)
    for phi in (lam.phi_plus(3.0), lam.phi_minus(3.0)):
        closed = lam.integrate(mu, phi)
        quad = lam.integrate(mu, phi, method="quad")
        assert abs(closed - quad) / closed < 1e-10


def test_unknown_method_raises():
    mu = lam.mu_laminate(3.0, 0.5)
    for method in ("closed", "Quad", ""):
        with pytest.raises(ValueError, match="'auto' or 'quad'"):
            lam.integrate(mu, lam.phi_plus(3.0), method=method)


def test_divergent_ray_errors():
    p, eta = 3.0, 0.5
    hi, _ = lam.nu_pair(p, eta)
    too_big = lam.power_test(lambda X, Y: np.abs(Y) ** (p + eta), p + eta)
    with pytest.raises(ValueError):
        lam.integrate(hi, too_big)
    # without a stated degree the divergence is found numerically
    with pytest.raises(ArithmeticError, match="does not converge"):
        lam.integrate(hi, lam.TestFunction2D(lambda X, Y: np.abs(Y) ** (p + eta)),
                      method="quad")


# ---------------------------------------------------------------------------
# baricenters


def test_baricenter_single_atom():
    l = lam.Laminate(atoms=[(1.0, 1.0, 1.0)])
    assert lam.baricenter(l) == pytest.approx((1.0, 1.0, 1.0))


def test_nu_pair_is_centered_unit_mass():
    for eta in (1e-2, 1e-4):
        bx, by, m = lam.baricenter(nu_sum(3.0, eta))
        assert (bx, by, m) == pytest.approx((1.0, 1.0, 1.0), abs=1e-12)


def test_mu_baricenter_reported():
    # the printed atoms put the mean at (0, 1); computed, not corrected
    bx, by, m = lam.baricenter(lam.mu_laminate(3.0, 1e-3))
    assert m == pytest.approx(1.0, abs=1e-12)
    assert bx == pytest.approx(0.0, abs=1e-12)
    assert by == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# the ratio


def test_ratio_limit_and_monotone_sweep():
    p = 3.0
    roots = []
    for eta in (1e-1, 1e-2, 1e-3, 1e-4):
        r = lam.ratio(p, eta)
        roots.append(r.direct ** (1.0 / p))
    assert roots == sorted(roots)
    assert abs(roots[-1] - (p - 1.0)) < 5e-3


def test_ratio_printed_form_same_limit():
    p = 3.0
    r = lam.ratio(p, 1e-4)
    assert abs(r.printed ** (1 / p) - (p - 1.0)) < 5e-3
    # the two bookkeepings differ at finite eta
    assert r.printed != r.direct


def test_sigma_reflection_swaps_tests_exactly():
    for eta in (1e-1, 1e-2):
        assert lam.sigma_ratio(3.0, eta) == pytest.approx(
            lam.ratio(3.0, eta).direct, rel=1e-14)


def test_ratio_finite_at_p2_large_eta():
    r = lam.ratio(2.0, 1.5)
    assert np.isfinite(r.direct) and r.direct >= 1.0


# ---------------------------------------------------------------------------
# Jensen inequality


def test_affine_exact_on_any_centered_laminate():
    both = nu_sum(3.0, 1e-2)
    aff = lam.TestFunction2D(lambda X, Y: 1.3 * X - 0.4 * Y + 2.0, "affine")
    for a in ((0.0, 0.0), (1.0, -2.0)):
        worst = lam.laminate_inequality_check(both, a=a, battery=[aff])
        assert abs(worst) < 1e-10


def test_concave_in_x_nonnegative():
    both = nu_sum(3.0, 1e-2)
    f = lam.TestFunction2D(lambda X, Y: -np.asarray(X, float) ** 2, "neg-x-square")
    assert lam.laminate_inequality_check(both, battery=[f]) >= -1e-10


def test_min_affine_battery():
    both = nu_sum(3.0, 1e-2)
    assert lam.laminate_inequality_check(both, a=(0.5, -0.25), seed=11) >= -1e-10


def test_bilinear_members_tell_a_laminate_from_other_measures():
    # 1/2 delta(1, 1) + 1/2 delta(-1, -1) is centered but no laminate: every
    # jointly concave member holds Jensen on it, and XY misses by E XY = 1
    two = lam.Laminate(atoms=[(1.0, 1.0, 0.5), (-1.0, -1.0, 0.5)])
    concave = [f for f in lam.default_battery() if f.tag not in ("xy", "neg-xy")]
    assert lam.laminate_inequality_check(two, battery=concave) >= 0.0
    assert lam.laminate_inequality_check(two) == pytest.approx(-1.0, abs=1e-12)
    # on the suite's nu, E XY = Xbar Ybar up to rounding
    assert abs(lam.laminate_inequality_check(nu_sum(3.0, 1e-3), a=(0.5, -0.25))) < 1e-12


def test_battery_certification_rejects_convex():
    both = nu_sum(3.0, 1e-2)
    bad = lam.TestFunction2D(lambda X, Y: np.asarray(X, float) ** 2, "convex")
    with pytest.raises(ValueError, match="bi-concavity"):
        lam.laminate_inequality_check(both, battery=[bad])


def test_check_biconcave_flags_phi_plus():
    ok, witness = lam.check_biconcave(lam.phi_plus(3.0).fn, seed=1)
    assert not ok and witness is not None


# ---------------------------------------------------------------------------
# known-bad inputs for the suite's laminate checks


def test_mass_check_fails_on_heavier_rays(monkeypatch):
    # ray weights x1.01 give nu mass 1.01 at an unchanged baricenter; the
    # Jensen side integrates the normalized measure and still holds
    pair = lam.nu_pair
    monkeypatch.setattr(lam, "nu_pair", lambda p, eta: tuple(
        lam.Laminate(atoms=half.atoms,
                     rays=[lam.Ray(r.ax, r.ay, 1.01 * r.weight, r.q) for r in half.rays])
        for half in pair(p, eta)))
    params = suite.tier_params("fast")["laminate"]
    checks = {e.check_id: e for e in suite.run_experiment("laminate", params, seed=1)}
    mass = checks["laminate.mass-baricenter"]
    assert mass.value == pytest.approx(0.01, rel=1e-6) and not mass.passed
    assert checks["laminate.jensen"].passed


def test_reflection_check_fails_when_the_rays_are_not_reflected(monkeypatch):
    def atoms_only(p, eta):
        mu = lam.mu_laminate(p, eta)
        return lam.Laminate(atoms=[(x, -y, m) for (x, y, m) in mu.atoms], rays=mu.rays)

    monkeypatch.setattr(lam, "sigma_laminate", atoms_only)
    [check] = [c for c in suite._quadrature_checks(3.0)
               if c.check_id == "laminate.reflection"]
    assert check.value > 1.0 and not check.passed


def test_closed_vs_quad_fails_on_a_scaled_closed_form(monkeypatch):
    # each closed-form ray integral x1.01; the atoms keep their exact sum
    closed = lam._ray_closed_form
    monkeypatch.setattr(lam, "_ray_closed_form", lambda ray, phi: 1.01 * closed(ray, phi))
    check = suite._quadrature_checks(3.0)[0]
    assert check.check_id == "laminate.closed-vs-quad"
    assert 1e-3 < check.value < 0.01 and not check.passed


def sweep_checks_with_roots(monkeypatch, root):
    """The suite's ratio sweep at p = 3 over its etas, with laminate.ratio
    patched so that the p-th root of its ratio is root(p, eta)."""
    monkeypatch.setattr(lam, "ratio", lambda p, eta: lam.RatioResult(
        direct=root(p, eta) ** p, printed=np.nan, target=np.nan))
    return {c.check_id: c for c in suite.ratio_sweep_checks(3.0, suite.ETAS)}


def test_ratio_monotone_fails_when_the_roots_fall_as_eta_shrinks(monkeypatch):
    # the measured roots rise toward p - 1 = 2 (1.63 at eta = 0.1); these
    # fall toward it, and the limit at eta = 1e-4 still holds
    checks = sweep_checks_with_roots(monkeypatch, lambda p, eta: p - 1.0 + eta)
    assert checks["laminate.ratio-limit"].passed
    monotone = checks["laminate.ratio-monotone"]
    assert monotone.value == pytest.approx(0.09) and not monotone.passed


def test_ratio_limit_fails_when_the_roots_miss_p_minus_one(monkeypatch):
    # roots that rise toward 1.01 (p - 1): 0.0199 off the limit at eta = 1e-4
    checks = sweep_checks_with_roots(monkeypatch, lambda p, eta: 1.01 * (p - 1.0) - eta)
    assert checks["laminate.ratio-monotone"].passed
    limit = checks["laminate.ratio-limit"]
    assert limit.value == pytest.approx(0.0199) and not limit.passed


def test_jensen_check_fails_on_a_measure_that_is_no_laminate(monkeypatch):
    # atoms (2, 2) and (0, 0) of mass 1/2: unit mass at the baricenter
    # (1, 1), so the mass check holds, but E XY - Xbar Ybar = 1
    monkeypatch.setattr(lam, "nu_pair", lambda p, eta: (
        lam.Laminate(atoms=[(2.0, 2.0, 0.5)]), lam.Laminate(atoms=[(0.0, 0.0, 0.5)])))
    params = suite.tier_params("fast")["laminate"]
    checks = {e.check_id: e for e in suite.run_experiment("laminate", params, seed=1)}
    assert checks["laminate.mass-baricenter"].passed
    jensen = checks["laminate.jensen"]
    assert jensen.value == pytest.approx(1.0, abs=1e-12) and not jensen.passed


def test_jensen_check_fails_on_a_small_negative_covariance(monkeypatch):
    # a share 2 mu of nu's ray mass moved onto the atoms (1 + e, 1 - e) and
    # (1 - e, 1 + e): mass and baricenter stay exact, but E XY - Xbar Ybar
    # = -2 mu e^2 = -1e-8, which -XY sees once its tail is integrated to
    # 1e-12 relative whatever its sign (a signed stop read -4.05e-11)
    mu, e = 0.005, 1e-3
    pair = lam.nu_pair
    monkeypatch.setattr(lam, "nu_pair", lambda p, eta: tuple(
        lam.Laminate(atoms=[atom],
                     rays=[lam.Ray(r.ax, r.ay, (1 - 2 * mu) * r.weight, r.q)
                           for r in half.rays])
        for half, atom in zip(pair(p, eta), ((1 + e, 1 - e, mu), (1 - e, 1 + e, mu)))))
    checks = {c.check_id: c for c in suite.measure_checks("nu", 3.0, 1e-3, 1)}
    mass = checks["laminate.mass-baricenter"]
    assert mass.value < 1e-15 and mass.passed
    jensen = checks["laminate.jensen"]
    assert jensen.value == pytest.approx(2 * mu * e ** 2, rel=1e-3) and not jensen.passed
