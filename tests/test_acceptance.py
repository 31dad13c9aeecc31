"""Acceptance battery.

One test per criterion, each printing a single PASS/FAIL line with the
measured quantity next to its stated tolerance.  Criteria 2b and 6 encode
targets that the implemented constructions demonstrably cannot reach at
desk scale (see the analysis in the project notes); they are asserted
as stated rather than loosened, so an honest red here is expected.
"""

import ast
import json
from pathlib import Path

import numpy as np
import pytest

from bellmanlab import bellman as bm
from bellmanlab import dyadic as dy
from bellmanlab import laminate as lam
from bellmanlab import planar as pl
from bellmanlab import qcmaps as qc
from bellmanlab import stochastic as st
from bellmanlab import suite
from bellmanlab.reporting import CHECK_REGISTRY
from bellmanlab.suite import run_suite


def _line(num, ok, msg):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {msg}")
    return ok


# ---------------------------------------------------------------------------


def test_criterion_01_laminate_limit():
    p = 3.0
    roots = []
    for eta in (1e-1, 1e-2, 1e-3, 1e-4):
        roots.append(lam.ratio(p, eta).direct ** (1.0 / p))
    dev = abs(roots[-1] - (p - 1.0))
    monotone = all(b > a for a, b in zip(roots, roots[1:]))
    ok = dev <= 5e-3 and monotone
    assert _line(1, ok,
                 f"ratio^(1/3) at eta=1e-4 deviates {dev:.2e} (<= 5e-3), "
                 f"sweep monotone: {monotone}")


def test_criterion_02a_tau_closed_form():
    worst = max(abs(bm.tau(p) - bm.tau_closed_form(p))
                for p in np.linspace(1.0, 50.0, 60))
    ok = worst <= 1e-10
    assert _line("2a", ok, f"tau quadrature vs Gamma form: {worst:.2e} (<= 1e-10)")


def test_criterion_02b_interpolation_chain():
    qs = [2.1, 3.0, 4.0, 5.0, 7.0, 10.0, 20.0, 50.0]
    ratios = [bm.interpolation_constant(q) / (q - 1.0) for q in qs]
    worst = max(ratios)
    ok = worst <= 1.7
    assert _line("2b", ok,
                 f"sup of interpolated constant per unit = {worst:.4f} at "
                 f"q={qs[int(np.argmax(ratios))]} (required <= 1.7; the exact "
                 f"two-point chain has sup ~1.732 near q=5.2)")


def test_criterion_03_zigzag_hessian_suite():
    samples = 100_000
    worst_zz = np.inf
    worst_maj = np.inf
    worst_sec = -np.inf
    for p in (2.0, 2.5, 3.0, 5.0, 8.0):
        for variant in ("phi", "phi0"):
            worst_zz = min(worst_zz, bm.zigzag_check(
                lambda x, y, p=p, v=variant: bm.eval_phi(x, y, p, v), samples, seed=0))
        worst_maj = min(worst_maj, bm.majorant_check("phi", p, samples, seed=0))
        worst_sec = max(worst_sec, bm.h_section_inequality(p))
    rng = np.random.default_rng(1)
    orders = []
    for p in (2.5, 3.0, 1.5):
        x, y = rng.normal(size=2), rng.normal(size=2)
        dx, dyv = rng.normal(size=2), rng.normal(size=2)
        errs = [abs(np.subtract(*bm.hessian_form_identity(x, y, dx, dyv, p, h=h)))
                for h in (1e-2, 1e-3)]
        orders.append(np.log10(errs[0] / max(errs[1], 1e-16)))
    ok = (worst_zz >= -1e-9 and worst_maj >= -1e-9 and worst_sec <= 1e-10
          and min(orders) >= 1.6)
    assert _line(3, ok,
                 f"zigzag margin {worst_zz:.2e}, majorant margin {worst_maj:.2e}, "
                 f"section max {worst_sec:.2e}, FD order {min(orders):.2f}")


def test_criterion_04_majorant_sharpness():
    devs = {p: abs(bm.feasibility_transition(p) - (bm.p_star(p) - 1.0))
            for p in (2.5, 3.0, 4.0)}
    ok = all(d <= 1e-3 for d in devs.values())
    assert _line(4, ok, "transition offsets " +
                 ", ".join(f"p={p}: {d:.1e}" for p, d in devs.items()) +
                 " (<= 1e-3)")


def test_criterion_05_spectral_identities():
    rng = np.random.default_rng(2)
    v = rng.standard_normal((512, 512)) + 1j * rng.standard_normal((512, 512))
    f = pl.GridField(1.0, v - v.mean())
    iso = abs(pl.ab_transform(f).norm(2) - f.norm(2)) / f.norm(2)

    u = pl.gaussian_bump(512, 8.0, sigma=0.5)
    du = pl.d_z(u)
    chir = np.max(np.abs(pl.ab_transform(pl.d_zbar(u)).values - du.values)) / du.norm(2)

    gaps = []
    for n, nt, tmax in ((64, 17, 6.0), (128, 33, 12.0), (256, 65, 24.0)):
        phi = pl.gaussian_bump(n, 8.0, sigma=0.35)
        psi = pl.gaussian_bump(n, 8.0, sigma=0.45, center=(0.3, -0.15))
        gaps.append(pl.identity_1_13_check(phi, psi, tmax=tmax, nt=nt).gap_rel)
    ok = (iso <= 1e-12 and chir <= 1e-6 and gaps[-1] <= 1e-3
          and gaps[0] > gaps[1] > gaps[2])
    assert _line(5, ok,
                 f"isometry {iso:.2e} (1e-12), dbar-to-d {chir:.2e} (1e-6), "
                 f"representation gaps {[f'{g:.1e}' for g in gaps]} (final <= 1e-3, decreasing)")


def test_criterion_06_norm_ascent():
    res = pl.norm_ratio_ascent(pl.riesz_diff_multiplier(), p=4.0, n=256,
                               iters=500, seed=0)
    monotone = bool(np.all(np.diff(res.curve) >= 0))
    # the reported ratio is achieved by the witness, hence a certified
    # lower bound for the discretized operator norm
    check = pl.apply_multiplier(pl.riesz_diff_multiplier(), res.witness)
    achieved = check.norm(4.0) / res.witness.norm(4.0)
    ok = monotone and abs(achieved - res.ratio) < 1e-10 and res.ratio >= 0.85 * 3.0
    assert _line(6, ok,
                 f"achieved ratio {res.ratio:.4f} (required >= 2.55 = 0.85(p-1); "
                 f"desk-scale grids cap near 1.8), monotone: {monotone}")


def test_criterion_07_dyadic_suite():
    rng = np.random.default_rng(3)
    f = dy.DyadicFunction(rng.standard_normal(2 ** 12))
    coeffs = dy.haar_coefficients(f)
    parseval = abs(sum(float(np.sum(c ** 2)) for c in coeffs)
                   + float(f.mean) ** 2 - f.norm(2.0) ** 2)

    w = dy.DyadicWeight(np.exp(0.7 * rng.standard_normal(2 ** 7)))
    aw = w.all_averages()
    alpha, beta, basis = dy.weighted_haar_system(w)
    bound_slack = 0.0
    for a, b, avg, child in zip(alpha, beta, aw, aw[1:]):
        delta = child[1::2] - child[0::2]
        bound_slack = max(bound_slack, float(np.max(np.abs(a) - np.sqrt(avg))),
                          float(np.max(np.abs(b) - np.abs(delta) / avg)))
    gram_err = float(np.max(np.abs(
        (basis * w.values) @ basis.T / basis.shape[1] - np.eye(len(basis)))))

    sums = [dy.buckley_sum(dy.power_weight(0.5, d)) for d in range(8, 15)]
    inc = np.diff(sums)
    buckley_ok = bool(np.all(inc > 0) and np.max(inc[1:] / inc[:-1]) < 0.9)

    alpha = 0.25
    qs, intens = [], []
    for u in 4.0 ** np.arange(2, 9):
        wf = dy.two_value_weight(u, 1.0, 12)
        qs.append(dy.a2_dyadic(wf))
        intens.append(dy.carleson_intensity(dy.caral_sequence(wf, alpha)))
    slope = float(np.polyfit(np.log(qs[-4:]), np.log(intens[-4:]), 1)[0])
    envelope = max(i / q ** alpha for i, q in zip(intens, qs))

    ok = (parseval <= 1e-12 and bound_slack <= 1e-12 and gram_err <= 1e-10
          and buckley_ok and slope <= alpha + 0.05)
    assert _line(7, ok,
                 f"parseval {parseval:.1e}, haar bounds slack {bound_slack:.1e}, "
                 f"gram {gram_err:.1e}, buckley bounded {buckley_ok}, intensity "
                 f"slope {slope:.3f} vs alpha={alpha} (envelope C={envelope:.2f})")


def test_criterion_08_stochastic_suite():
    sums = {c.check_id: c.passed
            for c in suite.riemann_checks(0.0, 1.0, 1000, 100_000, seed=4)}
    gap_ok = sums["stoch.riemann-gap"] and sums["stoch.variance"]
    # S1 is the left-point integral of w dw: the isometry reads the same paths
    iso_ok = sums["stoch.isometry"]

    surf_r = st.GaussianMix.random(np.random.default_rng(6), 3)
    res = st.transform_residuals(surf_r, st.BrownianDriver(2, 4.0, 64, seed=7), 512)
    rows_ok = (res["max_orthogonality"] <= 1e-10
               and res["max_norm_mismatch"] <= 1e-10
               and res["max_subordination_excess"] <= 1e-10)

    # mean z^2 against the exact mean of the discrete bridges, under 1 + 5/24
    [cond] = suite.conditioning_checks(paths=231, bins=24, steps=320, seed=8)
    cond_ok = cond.passed

    plain, conformal = suite.constant_checks(4.0, trials=10_000, seed=9)
    const_ok = plain.passed and conformal.passed

    ok = gap_ok and iso_ok and rows_ok and cond_ok and const_ok
    assert _line(8, ok,
                 f"sum gap in CI {gap_ok}, isometry in CI {iso_ok}, rows exact "
                 f"{rows_ok}, conditioning mean z^2 {cond.value:.3f} (<= {cond.target:.3f}), "
                 f"moment ratios {conformal.value:.3f} <= sqrt(6) {const_ok}")


def test_criterion_09_strip_candidate():
    results = {}
    for delta in (0.1, 0.25):
        rep = bm.jn_bellman_check(delta, grid=(200, 200))
        results[delta] = (max(rep.fd_max_det_rel, rep.analytic_max_det_rel),
                          max(rep.fd_max_eig, rep.analytic_max_eig),
                          rep.obstacle_min_gap)
    ok = all(det <= 1e-5 and eig <= 1e-6 and obs >= -1e-9
             for det, eig, obs in results.values())
    assert _line(9, ok, "; ".join(
        f"delta={d}: det {v[0]:.1e} (1e-5), eig {v[1]:.1e} (1e-6), obstacle {v[2]:.1e}"
        for d, v in results.items()))


def test_criterion_10_model_maps():
    slopes, bounds = {}, {}
    for K in (1.5, 2.0, 3.0):
        slope, spread = qc.distortion_exponent(qc.RadialMap(K, "regular"))
        slopes[K] = abs(slope - 1.0 / K) + spread
        m = qc.RadialMap(K, "singular")
        bounds[K] = abs(qc.sobolev_boundary(m) - (1.0 + m.k))
    m2 = qc.RadialMap(2.0, "regular")
    chars = [pl.ap_class(qc.jacobian_weight(m2, p, n=256),
                         sampling=pl.DiscSampling(stride=8))
             for p in np.linspace(2.0, 3.9, 5)]
    monotone = all(b > a for a, b in zip(chars, chars[1:]))
    ok = (max(slopes.values()) <= 1e-10 and max(bounds.values()) <= 1e-3
          and monotone)
    assert _line(10, ok,
                 f"distortion slope residuals {max(slopes.values()):.1e} (1e-10), "
                 f"threshold offsets {max(bounds.values()):.1e} (1e-3), "
                 f"weight characteristic monotone: {monotone}")


@pytest.fixture(scope="module")
def fast_seed1_report():
    """One `suite fast --seed 1` run, shared by criterion 11 and the
    golden-report comparison."""
    return run_suite("fast", seed=1)


def test_criterion_11_reproducibility(fast_seed1_report):
    # instantiated at the fast tier for wall-clock reasons: the runner
    # threads one seed through every experiment identically in both tiers,
    # and no entry depends on clocks, global state, the worker count or
    # the order in which experiments run
    known_red = {"bellman.interp-sweep", "planar.ascent-ratio"}
    rep_a = fast_seed1_report
    rep_b = run_suite("fast", seed=1, workers=2)
    identical = rep_a.canonical_json() == rep_b.canonical_json()
    rep_c = run_suite("fast", seed=2)
    pattern_match = rep_a.pass_pattern == rep_c.pass_pattern
    unexpected = {cid for cid, passed in rep_a.pass_pattern
                  if not passed and cid not in known_red}
    ok = identical and pattern_match and not unexpected
    assert _line(11, ok,
                 f"same-seed reports bit-identical: {identical}; seeds 1,2 "
                 f"pass/fail patterns equal: {pattern_match}; unexpected "
                 f"failures: {sorted(unexpected) or 'none'}")


def test_suite_submits_heaviest_first_and_merges_by_name(monkeypatch):
    calls = []

    def fake_experiment(name, params, seed=0):
        calls.append(name)
        return [name]
    monkeypatch.setattr(suite, "run_experiment", fake_experiment)
    skip = ("dyadic", "laminate", "qc")
    report = suite.run_suite("fast", seed=1, workers=1, skip=skip)
    kept = sorted(n for n in suite.EXPERIMENTS if n not in skip)
    heaviest = ["stoch-core", "stoch-constants", "stoch-conditioning", "planar-ascent"]
    assert calls == heaviest + [n for n in kept if n not in heaviest]
    assert report.entries == kept


def golden_json(name):
    """The canonical bytes of a committed golden report: the file is the
    canonical payload, indented for review, and re-serializing it gives
    the canonical bytes (floats round-trip)."""
    golden = json.loads((Path(__file__).parent / name).read_text())
    return json.dumps(golden, sort_keys=True, allow_nan=True)


def test_golden_fast_seed1_report(fast_seed1_report):
    assert fast_seed1_report.canonical_json() == golden_json("golden_suite_fast_seed1.json")


def test_golden_fast_seed6_report():
    report = run_suite("fast", seed=6, workers=2)
    assert report.canonical_json() == golden_json("golden_suite_fast_seed6.json")


def test_golden_full_seed1_deterministic_report():
    # the full tier's n = 512 spectral checks, 10^5-sample Bellman checks,
    # depth 12 and n = 256 grids; planar-ascent is left to criterion 6
    skip = ("planar-ascent", "stoch-conditioning", "stoch-constants", "stoch-core")
    report = run_suite("full", seed=1, workers=2, skip=skip)
    assert report.canonical_json() == golden_json(
        "golden_suite_full_seed1_deterministic.json")


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def golden_ids(name):
    return sorted(e["check_id"] for e in json.loads(golden_json(name))["entries"])


def test_perfbench_copies_match_the_source():
    # the benchmark never imports bellmanlab: it spells out the experiment
    # names and the check ids it expects, and refuses a run that drifts
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    assigned = {t.id: node.value for node in tree.body if isinstance(node, ast.Assign)
                for t in node.targets if isinstance(t, ast.Name)}
    assert list(ast.literal_eval(assigned["EXPERIMENTS"])) == sorted(suite.EXPERIMENTS)
    expected = json.loads((PERFBENCH / "expected_checks.json").read_text())
    for name in ("golden_suite_fast_seed1.json", "golden_suite_fast_seed6.json"):
        assert golden_ids(name) == expected["fast"], name
    # the full golden leaves planar-ascent to criterion 6; the workload runs it
    assert sorted(golden_ids("golden_suite_full_seed1_deterministic.json")
                  + ["planar.ascent-monotone", "planar.ascent-ratio"]) == (
        expected["full-deterministic"])


# every registry id -> the tests in which a known-bad input makes it fail
KNOWN_BAD = {
    "dyadic.parseval": ["test_dyadic.py::test_parseval_check_fails_without_the_finest_level"],
    "dyadic.transform-contraction": [
        "test_dyadic.py::test_contraction_check_fails_on_scaled_signs"],
    "dyadic.transform-lp-bound": ["test_dyadic.py::test_lp_bound_fails_on_level_drift"],
    "dyadic.weighted-haar-bounds": [
        "test_dyadic.py::test_haar_bounds_check_fails_on_a_scaled_alpha",
        "test_dyadic.py::test_haar_bounds_check_fails_on_a_scaled_beta"],
    "dyadic.weighted-haar-gram": [
        "test_dyadic.py::test_gram_check_fails_without_the_beta_correction"],
    "dyadic.carleson-intensity-slope": [
        "test_dyadic.py::test_carleson_slope_check_fails_on_a_larger_exponent"],
    "dyadic.embedding-1": ["test_dyadic.py::test_embedding_1_check_fails_on_suprema_for_infima"],
    "dyadic.buckley-bounded": ["test_dyadic.py::test_buckley_check_fails_on_a_riesz_product"],
    "dyadic.a-infinity-vs-a2": [
        "test_dyadic.py::test_a_infinity_check_fails_above_the_a2_characteristic"],
    "dyadic.weighted-mt-envelope": [
        "test_dyadic.py::test_mt_envelope_fails_high_on_scaled_top_coefficient",
        "test_dyadic.py::test_mt_envelope_fails_low_with_the_plain_mean"],
    "bellman.zigzag": ["test_bellman.py::test_zigzag_suite_check_fails_on_one_nan_margin"],
    "bellman.majorant": ["test_bellman.py::test_majorant_check_fails_on_a_smaller_gamma"],
    "bellman.hessian-identity": [
        "test_bellman.py::test_hessian_identity_fails_on_a_dropped_sign_below_2"],
    "bellman.hessian-order": ["test_bellman.py::test_hessian_order_fails_on_a_forward_difference"],
    "bellman.section-inequality": [
        "test_bellman.py::test_section_inequality_fails_below_the_critical_c"],
    "bellman.feasibility-transition": [
        "test_bellman.py::test_feasibility_transition_fails_on_a_shifted_obstacle"],
    "bellman.tau-quadrature": ["test_bellman.py::test_tau_check_fails_on_a_perturbed_quadrature"],
    # known red in the golden fast report (criterion 2b)
    "bellman.interp-sweep": ["test_acceptance.py::test_golden_fast_seed1_report"],
    "bellman.power-hessian": ["test_bellman.py::test_power_hessian_check_fails_off_its_range"],
    "bellman.strip-determinant": ["test_bellman.py::test_strip_determinant_fails_on_a_scaled_m22"],
    "bellman.strip-eigenvalue": [
        "test_bellman.py::test_strip_eigenvalue_fails_on_the_negated_matrix"],
    "bellman.strip-obstacle": ["test_bellman.py::test_strip_obstacle_fails_on_a_smaller_candidate"],
    "planar.fft-roundtrip": ["test_planar.py::test_roundtrip_check_fails_on_a_scaled_inverse"],
    "planar.ab-isometry": ["test_planar.py::test_isometry_check_fails_on_a_scaled_symbol"],
    "planar.ab-decomposition": ["test_planar.py::test_spectral_checks_fail_on_the_wrong_chirality"],
    "planar.dbar-to-d": ["test_planar.py::test_spectral_checks_fail_on_the_wrong_chirality"],
    "planar.heat-identity": [
        "test_planar.py::test_heat_identity_checks_fail_on_a_shortened_heat_time"],
    "planar.heat-identity-monotone": [
        "test_planar.py::test_heat_identity_checks_fail_on_a_shortened_heat_time"],
    "planar.ap-two-sided": [
        "test_planar.py::test_ap_two_sided_check_fails_on_one_scaled_heat_characteristic"],
    "planar.ascent-monotone": [
        "test_planar.py::test_ascent_monotone_fails_on_a_dropping_curve",
        "test_planar.py::test_ascent_monotone_fails_on_a_curve_that_is_not_finite"],
    # known red in the golden fast report (criterion 6)
    "planar.ascent-ratio": ["test_acceptance.py::test_golden_fast_seed1_report"],
    "laminate.mass-baricenter": ["test_laminate.py::test_mass_check_fails_on_heavier_rays"],
    "laminate.closed-vs-quad": [
        "test_laminate.py::test_closed_vs_quad_fails_on_a_scaled_closed_form"],
    "laminate.jensen": [
        "test_laminate.py::test_jensen_check_fails_on_a_measure_that_is_no_laminate",
        "test_laminate.py::test_jensen_check_fails_on_a_small_negative_covariance"],
    "laminate.ratio-limit": [
        "test_laminate.py::test_ratio_limit_fails_when_the_roots_miss_p_minus_one"],
    "laminate.ratio-monotone": [
        "test_laminate.py::test_ratio_monotone_fails_when_the_roots_fall_as_eta_shrinks"],
    "laminate.reflection": [
        "test_laminate.py::test_reflection_check_fails_when_the_rays_are_not_reflected"],
    "stoch.variance": ["test_stochastic.py::test_one_d_checks_gate_at_three_standard_errors"],
    "stoch.riemann-gap": ["test_stochastic.py::test_one_d_checks_gate_at_three_standard_errors"],
    "stoch.isometry": ["test_stochastic.py::test_one_d_checks_gate_at_three_standard_errors"],
    "stoch.product": [
        "test_stochastic.py::test_one_d_checks_gate_at_three_standard_errors",
        "test_stochastic.py::test_product_fails_on_anticipating_sums"],
    "stoch.terminal-order": [
        "test_stochastic.py::test_terminal_order_fails_on_a_late_gradient_time",
        "test_stochastic.py::test_terminal_order_fails_on_the_post_step_gradient"],
    "stoch.conformality": [
        "test_stochastic.py::test_conformality_fails_for_a_non_conformal_matrix"],
    "stoch.subordination": ["test_stochastic.py::test_subordination_fails_for_a_scaled_matrix"],
    "stoch.conditioning": [
        "test_stochastic.py::test_conditioning_fails_against_the_wrong_chirality",
        "test_stochastic.py::test_conditioning_fails_against_a_biased_oracle",
        "test_stochastic.py::test_conditioning_fails_against_a_biased_oracle_at_full_size"],
    "stoch.plain-constant": ["test_stochastic.py::test_constant_checks_gate_at_both_ceilings"],
    "stoch.conformal-constant": [
        "test_stochastic.py::test_constant_checks_gate_at_both_ceilings"],
    "qc.beltrami": ["test_qcmaps.py::test_beltrami_check_fails_on_a_scaled_dilatation"],
    "qc.distortion-slope": ["test_qcmaps.py::test_distortion_check_fails_on_a_steeper_exponent"],
    "qc.sobolev-boundary": [
        "test_qcmaps.py::test_sobolev_check_fails_on_a_larger_annulus_exponent"],
    "qc.weight-monotone": ["test_qcmaps.py::test_weight_check_fails_on_a_shrinking_sweep"],
}

# registry ids that no known-bad input fails yet, and why
NO_KNOWN_BAD = {
    "dyadic.embedding-2": "its slack measures the input, not the inequality: suprema "
                          "for infima read 1.936 against 2.186 (see test_dyadic.py)",
}


def test_every_registry_id_has_a_known_bad_test():
    assert not set(KNOWN_BAD) & set(NO_KNOWN_BAD)
    assert set(KNOWN_BAD) | set(NO_KNOWN_BAD) == set(CHECK_REGISTRY)
    defined = {}
    for name in sorted({n for names in KNOWN_BAD.values() for n in names}):
        module, test = name.split("::")
        if module not in defined:
            tree = ast.parse((Path(__file__).parent / module).read_text())
            defined[module] = {node.name for node in tree.body
                               if isinstance(node, ast.FunctionDef)}
        assert test in defined[module], name
    # the golden fast report holds exactly the known-red entries red
    red = {e["check_id"] for e in json.loads(golden_json("golden_suite_fast_seed1.json"))[
        "entries"] if not e["passed"]}
    assert red == {cid for cid, names in KNOWN_BAD.items()
                   if "test_acceptance.py::test_golden_fast_seed1_report" in names}
