import numpy as np
import pytest

from bellmanlab import bellman as bm
from bellmanlab import suite


# ---------------------------------------------------------------------------
# candidate evaluation


def test_phi_at_zero_x():
    for p in (2.0, 3.0, 4.5):
        assert bm.eval_phi(0.0, 1.0, p) == pytest.approx(bm.gamma_p(p))


def test_phi_zero_on_critical_ray():
    for p in (2.0, 3.0, 4.0):
        assert bm.eval_phi(1.0, bm.p_star(p) - 1.0, p) == pytest.approx(0.0, abs=1e-12)


def test_phi0_equals_power_difference_below_ray():
    p, ps = 3.0, 2.0 + 1.0
    x, y = 1.5, 2.0   # y <= (p*-1)x = 3
    expect = y ** p - (ps - 1.0) ** p * x ** p
    assert bm.eval_phi(x, y, p, "phi0") == pytest.approx(expect)


def test_p_validation():
    with pytest.raises(ValueError):
        bm.eval_phi(1.0, 1.0, 1.0)


def test_variants_collapse_at_p2():
    # at p = 2 everything is y^2 - x^2 (gamma_2 = 1)
    rng = np.random.default_rng(0)
    x, y = rng.uniform(-3, 3, 100), rng.uniform(-3, 3, 100)
    assert np.allclose(bm.eval_phi(x, y, 2.0), y ** 2 - x ** 2, atol=1e-12)
    assert np.allclose(bm.eval_phi(x, y, 2.0, "phi0"), y ** 2 - x ** 2, atol=1e-12)


# ---------------------------------------------------------------------------
# zigzag concavity


def test_zigzag_affine_margin_zero():
    margin = bm.zigzag_check(lambda x, y: 2.0 * x - 0.7 * y + 1.0, 5000, seed=0)
    assert abs(margin) < 1e-13


def test_zigzag_majorants():
    for p in (2.0, 3.0, 5.0):
        for variant in ("phi", "phi0"):
            margin = bm.zigzag_check(
                lambda x, y, p=p, v=variant: bm.eval_phi(x, y, p, v),
                20000, seed=1, box=5.0)
            assert margin >= -1e-9


def test_zigzag_detects_convexity():
    assert bm.zigzag_check(lambda x, y: x ** 2 + y ** 2, 5000, seed=2) < -1e-6


# ---------------------------------------------------------------------------
# majorization


def test_majorant_p2_identity():
    assert abs(bm.majorant_check("phi", 2.0, 20000, seed=0)) < 1e-12


def test_majorant_touches_on_ray():
    p = 3.0
    x = np.linspace(0.1, 5.0, 50)
    y = (bm.p_star(p) - 1.0) * x
    gap = bm.eval_phi(x, y, p) - (y ** p - (bm.p_star(p) - 1.0) ** p * x ** p)
    assert np.max(np.abs(gap)) < 1e-10


def test_majorant_sampled():
    for p in (2.5, 3.0, 8.0):
        assert bm.majorant_check("phi", p, 30000, seed=3, box=10.0) >= -1e-9
        assert bm.majorant_check("phi0", p, 30000, seed=3, box=10.0) >= -1e-9


# ---------------------------------------------------------------------------
# Hessian quadratic forms


def test_hessian_zero_direction():
    a, n = bm.hessian_form_identity([1.0, 0.5], [0.3, 1.2], [0, 0], [0, 0], 3.0)
    assert a == 0.0 and abs(n) < 1e-10


def test_hessian_unison_nonpositive():
    # directions with |dx| = |dy| make the form <= 0
    rng = np.random.default_rng(4)
    for p in (2.5, 3.0, 5.0):
        for _ in range(50):
            x, y = rng.normal(size=2), rng.normal(size=2)
            dx = rng.normal(size=2)
            dy = rng.normal(size=2)
            dy *= np.linalg.norm(dx) / np.linalg.norm(dy)
            a, _ = bm.hessian_form_identity(x, y, dx, dy, p)
            assert a <= 1e-10


def test_hessian_identity_and_order():
    rng = np.random.default_rng(5)
    for p in (2.5, 3.0, 1.5, 1.2):
        x, y = rng.normal(size=2), rng.normal(size=2)
        dx, dy = rng.normal(size=2), rng.normal(size=2)
        errs = []
        for h in (1e-2, 1e-3):
            a, n = bm.hessian_form_identity(x, y, dx, dy, p, h=h)
            errs.append(abs(a - n))
        # centered differences: error drops by ~100x per 10x step refinement
        assert errs[1] < errs[0] / 30.0
        assert errs[1] < 1e-5 * max(1.0, abs(a))


def test_hessian_singular_locus_raises():
    with pytest.raises(ValueError):
        bm.hessian_form_identity([0.0, 0.0], [1.0, 0.0], [1, 0], [0, 1], 3.0)


# ---------------------------------------------------------------------------
# linear majorant feasibility


def test_feasible_at_critical_c():
    for p in (2.5, 3.0):
        res = bm.linear_majorant_feasibility(bm.p_star(p) - 1.0, p)
        assert res.feasible
        assert res.rho == pytest.approx(bm.p_star(p) - 1.0, abs=1e-9)
        assert res.a == pytest.approx(bm.gamma_p(p), rel=1e-6)


def test_infeasible_below_critical():
    for p in (2.5, 3.0, 4.0):
        c = 0.9 * (bm.p_star(p) - 1.0)
        assert not bm.linear_majorant_feasibility(c, p).feasible


def test_feasible_far_above():
    assert bm.linear_majorant_feasibility(10.0 * 2.0, 3.0).feasible


def loop_feasibility(c, p):
    """The search loop with every array test ahead of the scalar H_c(s_rho)
    test; linear_majorant_feasibility must decide every (c, p) alike."""
    tol = 1e-9
    ps = bm.p_star(p)
    rhos = np.linspace(0.0, 4.0 * ps, 512)
    corners = [ps - 1.0, c]
    rhos = np.unique(np.concatenate([rhos, [r for r in corners if 0 <= r <= 4 * ps]]))
    s = np.linspace(-1.0, 1.0, 4096)
    Hc = ((1.0 + s) / 2.0) ** p - c ** p * ((1.0 - s) / 2.0) ** p
    a_cap = 4.0 * bm.gamma_p(p)
    for rho in rhos:
        if (1.0 + rho - p) < -tol or (rho * (p - 1.0) - 1.0) < -tol:
            continue
        g1 = (1.0 + s) / 2.0 - rho * (1.0 - s) / 2.0
        srho = (rho - 1.0) / (rho + 1.0)
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
            if np.any(Hc[neg] > tol):
                continue
        if -1.0 <= srho <= 1.0:
            h_at = ((1.0 + srho) / 2.0) ** p - c ** p * ((1.0 - srho) / 2.0) ** p
            if h_at > tol:
                continue
        a_min = max(a_min, tol)
        a_hi = min(a_max, a_cap)
        if a_min <= a_hi * (1 + 1e-12):
            a = min(max(bm.gamma_p(p), a_min), a_hi)
            return bm.FeasibilityResult(True, float(rho), float(a))
    return bm.FeasibilityResult(False)


@pytest.mark.parametrize("p", [1.5, 2.5, 3.0, 4.0, 6.0])
def test_feasibility_matches_reference_loop(p):
    crit = bm.p_star(p) - 1.0
    cs = [crit - 1e-7, crit, crit + 1e-7, *np.linspace(0.0, 4.0 * crit, 13)]
    for c in cs:
        got, want = bm.linear_majorant_feasibility(c, p), loop_feasibility(c, p)
        assert (got.feasible, got.rho, got.a) == (want.feasible, want.rho, want.a)


def test_transition_location():
    for p in (2.5, 3.0, 4.0):
        c = bm.feasibility_transition(p)
        assert abs(c - (bm.p_star(p) - 1.0)) < 1e-3


# ---------------------------------------------------------------------------
# section inequality, tau, interpolation


def test_section_identity_p2():
    # H(s) = s at p = 2 and the expression vanishes identically
    assert abs(bm.h_section_inequality(2.0)) < 1e-12


def test_section_nonpositive():
    for p in (2.5, 4.0, 8.0):
        assert bm.h_section_inequality(p) <= 1e-10


def test_section_requires_p_ge_2():
    with pytest.raises(ValueError):
        bm.h_section_inequality(1.5)


def test_tau_values():
    assert bm.tau(2.0) == pytest.approx(np.sqrt(0.5), abs=1e-12)
    # quadrature oracle vs the even-moment closed form
    assert bm.tau(4.0) == pytest.approx((3.0 / 8.0) ** 0.25, abs=1e-12)


def test_tau_matches_closed_form_range():
    # the tanh-sinh nodes resolve both the (pi/2 - t)^p zero at small p and
    # the width-1/sqrt(p) peak at t = 0 for large p
    for p in np.geomspace(0.05, 1000.0, 40):
        assert abs(bm.tau(p) - bm.tau_closed_form(p)) < 2e-14


def test_tau_check_fails_on_a_perturbed_quadrature(monkeypatch):
    # an error above the gate is reported as a failed check, not raised
    quad = bm._cos_power_integral
    monkeypatch.setattr(bm, "_cos_power_integral", lambda p: quad(p) * (1 + 1e-6))
    [entry] = suite.tau_checks([2.0, 4.0])
    assert entry.check_id == "bellman.tau-quadrature"
    assert entry.value > 1e-8 and not entry.passed


def test_golden_min_finds_an_interior_and_an_end_minimum():
    assert bm._golden_min(lambda x: (x - 0.3) ** 2, 0.0, 1.0, 1e-10) < 1e-19
    assert bm._golden_min(lambda x: x, 2.0, 5.0, 1e-10) == pytest.approx(2.0, abs=1e-10)


def test_tau_asymptotic_prefactor():
    # sqrt(2)(p-1)/tau(p) approaches 1.41...(p-1)
    p = 400.0
    assert np.sqrt(2.0) / bm.tau(p) == pytest.approx(np.sqrt(2.0), rel=2e-2)


def test_interpolation_endpoints():
    assert bm.interpolation_constant(2.0) == 1.0
    assert bm.interpolation_constant(10.0) <= 1.7 * 9.0
    with pytest.raises(ValueError):
        bm.interpolation_constant(1.5)


# ---------------------------------------------------------------------------
# power candidate and strip candidate


def test_bq_margin_nonnegative():
    rep = bm.bq_hessian_check(8.0, 0.25, 50000, seed=6)
    assert rep.worst_margin >= -1e-12
    assert rep.range_ok


def test_bq_diagonal_direction_strict():
    # along dx/x = -dy/y the slack is 4 a^2 x^a y^a (dx/x)^2 > 0
    alpha, x, y = 0.25, 2.0, 3.0
    b = x ** alpha * y ** alpha
    u = 0.3
    neg_form = b * (alpha * (1 - alpha) * 2 * u ** 2 + 2 * alpha ** 2 * u ** 2)
    required = alpha * (1 - 2 * alpha) * b * 2 * u ** 2
    assert neg_form - required == pytest.approx(4 * alpha ** 2 * b * u ** 2)


def test_bq_alpha_validation():
    with pytest.raises(ValueError):
        bm.bq_hessian_check(4.0, 0.7, 10)


def test_jn_strip_candidate():
    rep = bm.jn_bellman_check(0.25, grid=(120, 120))
    assert rep.fd_max_eig <= 1e-6
    assert rep.fd_max_det_rel <= 1e-5
    assert rep.analytic_max_eig <= 1e-10
    assert rep.obstacle_min_gap >= -1e-9
    for v in rep.variants:
        assert v["max_eig"] <= 1e-6 and v["max_det_rel"] <= 1e-5


def test_jn_boundary_condition():
    # at x2 = 0 the candidate equals the exponential obstacle
    delta = 0.3
    x1 = np.linspace(-1.0, 1.0, 11)
    r = np.sqrt(delta)
    v = (1 - r) / (1 - np.sqrt(delta)) * np.exp(x1 + r - np.sqrt(delta))
    assert np.allclose(v, np.exp(x1), atol=1e-13)


def test_jn_delta_validation():
    with pytest.raises(ValueError):
        bm.jn_bellman_check(1.5)
