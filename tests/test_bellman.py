import numpy as np
import pytest

from bellmanlab import bellman as bm
from bellmanlab import suite
from memtrace import traced


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
                20000, seed=1)
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
        assert bm.majorant_check("phi", p, 30000, seed=3) >= -1e-9
        assert bm.majorant_check("phi0", p, 30000, seed=3) >= -1e-9


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


def form_below_2(x, y, dx, dy, p):
    """The 1 < p < 2 display, written out: for ((p-1)Y - X)(X+Y)^(p-1),

      -p(2-p)(X+Y)^(p-1)/X * |dx_perp|^2 + p(p-1)(X+Y)^(p-2)(|dy|^2-|dx|^2)
      -p(p-1)(2-p) Y (X+Y)^(p-3) (h' + k')^2."""
    X, Y = np.linalg.norm(x), np.linalg.norm(y)
    hp, kp = float(dx @ x) / X, float(dy @ y) / Y
    dx2, dy2 = float(dx @ dx), float(dy @ dy)
    return (-p * (2.0 - p) * (X + Y) ** (p - 1.0) / X * (dx2 - hp ** 2)
            + p * (p - 1.0) * (X + Y) ** (p - 2.0) * (dy2 - dx2)
            - p * (p - 1.0) * (2.0 - p) * Y * (X + Y) ** (p - 3.0) * (hp + kp) ** 2)


@pytest.mark.parametrize("p", [1.1, 1.5, 1.9])
def test_hessian_below_2_matches_the_explicit_display(p):
    # the form is derived from the p >= 2 one by the x <-> y swap
    rng = np.random.default_rng(7)
    for _ in range(1000):
        x, y, dx, dy = (rng.normal(size=2) for _ in range(4))
        want = form_below_2(x, y, dx, dy, p)
        got, _ = bm.hessian_form_identity(x, y, dx, dy, p)
        assert abs(got - want) <= 1e-14 * abs(want)


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
    # x^a y^a stays in (0, Q^a] on 1 < xy <= Q, and comes near Q^a
    assert 0.99 < rep.range_ratio <= 1.0


def test_power_hessian_check_fails_off_its_range(monkeypatch):
    # a candidate above Q^a somewhere fails, whatever its Hessian margin
    monkeypatch.setattr(bm, "bq_hessian_check", lambda Q, alpha, samples, seed=0:
                        bm.BqReport(worst_margin=1.0, range_ratio=1.01))
    [check] = [c for c in suite._hessian_checks((3.0,), 200, 1)
               if c.check_id == "bellman.power-hessian"]
    assert (check.value, check.passed) == (1.0, False)


def test_bq_diagonal_direction_strict():
    # along dx/x = -dy/y the slack is 4 a^2 x^a y^a (dx/x)^2 > 0
    alpha, x, y = 0.25, 2.0, 3.0
    b = x ** alpha * y ** alpha
    u = 0.3
    neg_form = b * (alpha * (1 - alpha) * 2 * u ** 2 + 2 * alpha ** 2 * u ** 2)
    required = alpha * (1 - 2 * alpha) * b * 2 * u ** 2
    assert neg_form - required == pytest.approx(4 * alpha ** 2 * b * u ** 2)


# ---------------------------------------------------------------------------
# the sampling checks evaluate fixed slices of their drawn inputs


# name -> (the check at a sample count, the number of drawn input arrays)
SAMPLING_CHECKS = {
    "zigzag": (lambda samples: bm.zigzag_check(
        lambda x, y: bm.eval_phi(x, y, 8.0, "phi0"), samples, seed=1), 3),
    "majorant": (lambda samples: bm.majorant_check("phi", 8.0, samples, seed=1), 2),
    "power-hessian": (lambda samples: bm.bq_hessian_check(8.0, 0.25, samples, seed=1), 3),
}


@pytest.mark.parametrize("samples", [100_000, 400_000])
@pytest.mark.parametrize("name", SAMPLING_CHECKS)
def test_sampling_check_memory_beyond_its_inputs_is_fixed(name, samples):
    # the whole-sample temporaries held about 15 arrays of 8 * samples bytes
    check, inputs = SAMPLING_CHECKS[name]
    peak, _ = traced(lambda: check(samples))
    assert peak - inputs * 8 * samples < 2 * 2 ** 20


@pytest.mark.parametrize("name", SAMPLING_CHECKS)
def test_sampling_check_does_not_depend_on_the_slice_size(monkeypatch, name):
    check, _ = SAMPLING_CHECKS[name]
    sliced = check(20_000)
    monkeypatch.setattr(bm, "_CHUNK", 1_000_000)
    assert check(20_000) == sliced
    monkeypatch.setattr(bm, "_CHUNK", 1000)
    assert check(20_000) == sliced


@pytest.mark.parametrize("name", SAMPLING_CHECKS)
def test_sampling_check_refuses_an_empty_sample(name):
    check, _ = SAMPLING_CHECKS[name]
    with pytest.raises(ValueError, match="samples=0"):
        check(0)


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
        bm.jn_bellman_check(1.5, grid=(120, 120))


# ---------------------------------------------------------------------------
# known-bad inputs for the suite's bellman checks


def zigzag_entries(check_id):
    samples = suite.tier_params("fast")["bellman-zigzag"]["samples"]
    return [c for c in suite._hessian_checks((2.0, 2.5, 3.0, 5.0, 8.0), samples, 1)
            if c.check_id == check_id]


def test_zigzag_suite_check_fails_on_one_nan_margin(monkeypatch):
    # the builtin min dropped a NaN margin, and the check passed on the others
    margins = iter([0.0, np.nan, 0.0, 0.0])
    monkeypatch.setattr(bm, "zigzag_check", lambda *args, **kw: next(margins))
    [entry] = suite.zigzag_checks((2.0, 5.0), ("phi", "phi0"), 2000, 1)
    assert not entry.passed


def test_majorant_check_fails_on_a_smaller_gamma(monkeypatch):
    gamma = bm.gamma_p
    monkeypatch.setattr(bm, "gamma_p", lambda p: 0.99 * gamma(p))
    entries = zigzag_entries("bellman.majorant")
    assert len(entries) == 5
    for check in entries:
        assert 0.007 < check.value <= 0.01 + 1e-12 and not check.passed, check.detail


def test_hessian_identity_fails_on_a_dropped_sign_below_2(monkeypatch):
    form = bm.hessian_form_identity

    def dropped(x, y, dx, dy, p, h=1e-4):
        analytic, numeric = form(x, y, dx, dy, p, h)
        return (-analytic if p < 2 else analytic), numeric

    monkeypatch.setattr(bm, "hessian_form_identity", dropped)
    [check] = zigzag_entries("bellman.hessian-identity")
    assert check.value == pytest.approx(2.0) and not check.passed


def test_hessian_order_fails_on_a_forward_difference(monkeypatch):
    form = bm._hessian_form

    def forward(x, y, dx, dy, p, h):
        x, y, dx, dy = (np.asarray(v, dtype=float) for v in (x, y, dx, dy))
        analytic, _ = form(x, y, dx, dy, p, h)
        hh = h * max(np.linalg.norm(x), np.linalg.norm(y), 1.0)

        def phi(t):
            X, Y = np.linalg.norm(x + t * dx), np.linalg.norm(y + t * dy)
            return (Y - (p - 1.0) * X) * (X + Y) ** (p - 1.0)

        return analytic, (phi(2.0 * hh) - 2.0 * phi(hh) + phi(0.0)) / hh ** 2

    monkeypatch.setattr(bm, "_hessian_form", forward)
    [check] = zigzag_entries("bellman.hessian-order")
    assert -check.value == pytest.approx(1.0, abs=0.05) and not check.passed


def test_section_inequality_fails_below_the_critical_c(monkeypatch):
    H = bm._H
    monkeypatch.setattr(bm, "_H", lambda s, p, c: H(s, p, 0.99 * c))
    check = zigzag_entries("bellman.section-inequality")[0]
    assert check.detail == "p=2.0"
    assert check.value == pytest.approx(0.040, abs=1e-3) and not check.passed


def test_feasibility_transition_fails_on_a_shifted_obstacle(monkeypatch):
    H = bm._H
    monkeypatch.setattr(bm, "_H", lambda s, p, c: H(s, p, 1.01 * c))
    [check] = suite._feasibility_checks([3.0])
    # the transition moves to 2/1.01
    assert check.value == pytest.approx(2.0 - 2.0 / 1.01, abs=1e-4) and not check.passed


def strip_entries(monkeypatch, value_map, matrix_map):
    candidate = bm._strip_candidate

    def patched(eps, q):
        value, matrix = candidate(eps, q)
        return (lambda x1, x2: value_map(value(x1, x2)),
                lambda x1, x2: matrix_map(*matrix(x1, x2)))

    monkeypatch.setattr(bm, "_strip_candidate", patched)
    grid = suite.tier_params("fast")["bellman-jn"]["grid"]
    return {c.check_id: c for c in suite.strip_checks(0.25, grid)}


def test_strip_determinant_fails_on_a_scaled_m22(monkeypatch):
    checks = strip_entries(monkeypatch, lambda v: v,
                           lambda m11, m12, m22: (m11, m12, 1.05 * m22))
    check = checks["bellman.strip-determinant"]
    assert check.value == pytest.approx(0.0122, abs=1e-4) and not check.passed
    assert checks["bellman.strip-eigenvalue"].passed


def test_strip_eigenvalue_fails_on_the_negated_matrix(monkeypatch):
    checks = strip_entries(monkeypatch, lambda v: v,
                           lambda m11, m12, m22: (-m11, -m12, -m22))
    check = checks["bellman.strip-eigenvalue"]
    assert check.value > 1e4 and not check.passed
    assert checks["bellman.strip-determinant"].passed


def test_strip_obstacle_fails_on_a_smaller_candidate(monkeypatch):
    checks = strip_entries(monkeypatch, lambda v: 0.98 * v,
                           lambda m11, m12, m22: (m11, m12, m22))
    check = checks["bellman.strip-obstacle"]
    # 2% of e^{x1} at x1 = 1
    assert check.value == pytest.approx(0.02 * np.e, rel=1e-6) and not check.passed
