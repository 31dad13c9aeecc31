"""Check builders and the curated experiment batteries.

Every check id is built by exactly one builder: a function of explicit
parameters that returns its CheckResults.  The compute modules return
measurements, and the builder sets every gate on them: each z, slack,
ceiling and constant of a check is here.  The command line runs the same
builders, so an id means the same check wherever it is reported.  Each
experiment is a pure function (params, seed) -> [CheckResult] composed of
builders; the suite runner assembles a RunReport from a named tier
('fast' or 'full').  `EXPERIMENTS` declares each experiment once: its
checks, its fast and full values, and, by its place in the table, its
place in the order of submission to the worker processes, which puts the
long stochastic ones first so that they never start last.  Results are
merged in name order, so reports are deterministic for a fixed
(tier, seed) regardless of the worker count.
"""

from __future__ import annotations

import time

import numpy as np

from . import ascent, bellman, dyadic, laminate, planar, qcmaps, stochastic
from .reporting import CheckResult, RunReport


# ---------------------------------------------------------------------------
# dyadic


def _dyadic_checks(depth, seed):
    rng = np.random.default_rng(seed)
    out = []

    f = dyadic.DyadicFunction(rng.standard_normal(2 ** depth))
    coeffs = dyadic.haar_coefficients(f)
    energy = sum(float(np.sum(c ** 2)) for c in coeffs) + float(f.mean) ** 2
    out.append(CheckResult("dyadic.parseval", abs(energy - f.norm(2.0) ** 2),
                           0.0, 1e-12, detail=f"depth={depth}"))

    tf = dyadic.martingale_transform(f, dyadic.random_signs(depth, rng))
    mean_zero = dyadic.DyadicFunction(f.values - f.mean)
    out.append(CheckResult("dyadic.transform-contraction",
                           tf.norm(2.0) / mean_zero.norm(2.0), 1.0, 1e-12))

    w = dyadic.two_value_weight(2.0, 1.0, depth)
    wg = dyadic.two_value_weight(2.0, 1.0, 7)
    rng_w = np.random.default_rng(seed + 1)
    wr = dyadic.DyadicWeight(np.exp(0.7 * rng_w.standard_normal(2 ** 7)))
    worst_bound = gram_err = 0.0
    for weight in (wg, wr):
        alpha, beta, basis = dyadic.weighted_haar_system(weight)
        aw = weight.all_averages()
        for a, b, avg, child in zip(alpha, beta, aw, aw[1:]):
            delta = child[1::2] - child[0::2]
            worst_bound = max(worst_bound, float(np.max(np.abs(a) - np.sqrt(avg))),
                              float(np.max(np.abs(b) - np.abs(delta) / (2.0 * avg))))
        # einsum, not @: a matrix product this small wakes a BLAS thread
        gram = np.einsum("ik,jk->ij", basis * weight.values, basis) / basis.shape[1]
        gram_err = max(gram_err, float(np.max(np.abs(gram - np.eye(gram.shape[0])))))
    out.append(CheckResult("dyadic.weighted-haar-bounds", worst_bound, 0.0, 1e-12))
    out.append(CheckResult("dyadic.weighted-haar-gram", gram_err, 0.0, 1e-10,
                           detail="depth=7"))

    # intensity growth across the two-parameter (u, v) weight family; the
    # asymptotic exponent is read off the top decades, where the bounded
    # jump factors have saturated
    alpha = 0.25
    qs, intens = [], []
    for u in 4.0 ** np.arange(2, 9):
        wf = dyadic.two_value_weight(u, 1.0, depth)
        qs.append(dyadic.a2_dyadic(wf))
        intens.append(dyadic.carleson_intensity(dyadic.caral_sequence(wf, alpha)))
    slope = float(np.polyfit(np.log(qs[-4:]), np.log(intens[-4:]), 1)[0])
    envelope = max(i / q ** alpha for i, q in zip(intens, qs))
    out.append(CheckResult("dyadic.carleson-intensity-slope", slope, alpha, 0.05,
                           detail=f"envelope C={envelope:.3f}"))

    seq = dyadic.caral_sequence(w, alpha)
    F = dyadic.DyadicFunction(np.abs(rng.standard_normal(2 ** depth)))
    lhs1, lhs2 = dyadic.carleson_embedding_check(seq, F, w)
    B = dyadic.carleson_intensity(seq)
    out.append(CheckResult("dyadic.embedding-1", lhs1,
                           2.0 * B * float(np.mean(F.values)), 0.0))
    out.append(CheckResult("dyadic.embedding-2", lhs2,
                           4.0 * B * float(np.mean(F.values / w.values)), 0.0))

    worst = 0.0
    for u in (2.0, 8.0, 32.0):
        wf = dyadic.two_value_weight(u, 1.0, depth)
        worst = max(worst, dyadic.a_infinity_constant(wf) - dyadic.a2_dyadic(wf))
    out.append(CheckResult("dyadic.a-infinity-vs-a2", worst, 0.0, 0.0))
    return out


def buckley_checks(weight, depth, label):
    """Square sums of the family `weight` (depth -> DyadicWeight) over
    depths 8 .. max(depth, 11).  They stay bounded in depth iff the
    per-level increments are geometrically summable; assert the increment
    ratio stays under 0.9."""
    sums = [dyadic.buckley_sum(weight(d)) for d in range(8, max(depth, 11) + 1)]
    inc = np.diff(sums)
    ratio_max = float(np.max(inc[1:] / inc[:-1])) if np.all(inc > 0) else 0.0
    # a ratio at or above 1 is no geometric tail: the sums grow without bound
    limit = (sums[-1] + inc[-1] / (1 - max(ratio_max, 0.5))
             if ratio_max < 1 else np.inf)
    return [CheckResult("dyadic.buckley-bounded", ratio_max, 0.9, 0.0,
                        detail=f"{label}, limit~{limit:.4f}")]


def _transform_ascent(depth, p, iters, seed, w=None):
    """The ratio ||T_eps f||_Lp(w) / ||f||_Lp(w) that the power ascent over
    f and the signs eps achieves from the Gaussian f of `seed`."""
    f = np.random.default_rng(seed).standard_normal(2 ** depth)
    return ascent.power_ascent(f, p, iters, **dyadic.transform_ascent_ops(depth, w)).ratio


def _lp_bound_checks(depth, iters, seed):
    """The unweighted ascent at p = 4 stays under p* - 1 = 3 (Burkholder)."""
    return [CheckResult("dyadic.transform-lp-bound", _transform_ascent(
        depth, 4.0, iters, seed), 3.0, 0.0, detail="p=4, ascent over f and signs")]


def mt_envelope_checks(w, iters, p, seed):
    """The weighted ascent.  At p = 2 with w constant on each half of
    [0, 1], only the top Haar function sees the jump and the norm is
    sqrt([w]_A2) exactly, so the gap is gated at 1e-9 both ways;
    otherwise the ratio is gated at the envelope 2[w]_A2."""
    ratio, q = _transform_ascent(w.depth, p, iters, seed, w), dyadic.a2_dyadic(w)
    halves = w.values.reshape(2, -1)
    if p == 2.0 and np.all(halves == halves[:, :1]):
        return [CheckResult("dyadic.weighted-mt-envelope", abs(ratio - np.sqrt(q)), 0.0,
                            1e-9, detail=f"ascent {ratio:.9f}, sqrt([w]_A2) "
                            f"{np.sqrt(q):.9f}, envelope 2[w]_A2 {2 * q:.4f}")]
    return [CheckResult("dyadic.weighted-mt-envelope", ratio, 2.0 * q, 0.0,
                        detail=f"ascent at p={p:g}, no closed form: envelope 2[w]_A2")]


# ---------------------------------------------------------------------------
# bellman


def zigzag_checks(ps, variants, samples, seed):
    worst = np.inf
    for p in ps:
        for variant in variants:
            worst = np.minimum(worst, bellman.zigzag_check(
                lambda x, y, p=p, v=variant: bellman.eval_phi(x, y, p, v),
                samples, seed=seed))
    which = "both variants" if len(variants) == 2 else f"variant {variants[0]}"
    return [CheckResult("bellman.zigzag", -worst, 0.0, 1e-9,
                        detail="p in {" + ",".join(f"{p:g}" for p in ps) + "}, " + which)]


def _hessian_checks(ps, samples, seed):
    out = []
    for p in ps:
        out.append(CheckResult(
            "bellman.majorant",
            -bellman.majorant_check("phi", p, samples, seed=seed),
            0.0, 1e-9, detail=f"p={p}"))
        out.append(CheckResult(
            "bellman.section-inequality", bellman.h_section_inequality(p),
            0.0, 1e-10, detail=f"p={p}"))

    rng = np.random.default_rng(seed)
    worst_id = 0.0
    orders = []
    for p in (2.5, 3.0, 1.5):
        x, y = rng.normal(size=2), rng.normal(size=2)
        dx, dy = rng.normal(size=2), rng.normal(size=2)
        errs = []
        for h in (1e-2, 1e-3):
            a, n = bellman.hessian_form_identity(x, y, dx, dy, p, h=h)
            errs.append(abs(a - n))
        if errs[1] > 1e-12:
            orders.append(np.log10(errs[0] / errs[1]))
        a, n = bellman.hessian_form_identity(x, y, dx, dy, p, h=1e-4)
        worst_id = max(worst_id, abs(a - n) / max(abs(a), 1.0))
    out.append(CheckResult("bellman.hessian-identity", worst_id, 0.0, 1e-5))
    out.append(CheckResult("bellman.hessian-order", -min(orders), -1.6, 0.0,
                           detail="order from a 10x step drop"))

    # a candidate that leaves its range x^a y^a <= Q^a fails outright
    rep = bellman.bq_hessian_check(8.0, 0.25, samples, seed=seed)
    out.append(CheckResult("bellman.power-hessian",
                           -rep.worst_margin if rep.range_ratio <= 1 + 1e-12 else 1.0,
                           0.0, 1e-12, detail="Q=8, alpha=1/4"))
    return out


def tau_checks(ps):
    worst = max(abs(bellman.tau(p) - bellman.tau_closed_form(p)) for p in ps)
    return [CheckResult("bellman.tau-quadrature", worst, 0.0, 1e-10,
                        detail=f"p in [{min(ps):g}, {max(ps):g}]")]


def interp_checks(qs):
    ratios = [bellman.interpolation_constant(q) / (q - 1.0) for q in qs]
    i = int(np.argmax(ratios))
    return [CheckResult("bellman.interp-sweep", float(ratios[i]), 1.7, 0.0,
                        detail=f"worst q={qs[i]}")]


def _feasibility_checks(ps):
    return [CheckResult("bellman.feasibility-transition",
                        abs(bellman.feasibility_transition(p) - (bellman.p_star(p) - 1.0)),
                        0.0, 1e-3, detail=f"p={p}")
            for p in ps]


def strip_checks(delta, grid):
    rep = bellman.jn_bellman_check(delta, grid=grid)
    return [
        CheckResult("bellman.strip-eigenvalue", max(rep.fd_max_eig, rep.analytic_max_eig),
                    0.0, 1e-6, detail=f"delta={delta}"),
        CheckResult("bellman.strip-determinant",
                    max(rep.fd_max_det_rel, rep.analytic_max_det_rel),
                    0.0, 1e-5, detail=f"delta={delta}"),
        CheckResult("bellman.strip-obstacle", -rep.obstacle_min_gap, 0.0, 1e-9,
                    detail=f"delta={delta}"),
    ]


# ---------------------------------------------------------------------------
# planar


def _spectral_checks(n, seed):
    """Each check has its own helper, which frees its fields on return; no
    helper holds more than three N x N complex fields at once."""
    dbar = _dbar_check(n)
    rng = np.random.default_rng(seed)
    f = planar.GridField(1.0, rng.standard_normal((n, n))
                         + 1j * rng.standard_normal((n, n)))
    roundtrip = _roundtrip_check(f, n)
    f.values -= f.values.mean()  # in place, so no second field is held
    return [roundtrip, dbar] + _isometry_checks(f, n)


def _max_abs(v):
    """max |v|, with |v| written over the complex array v."""
    return float(np.max(np.abs(v, out=v).real))


def _roundtrip_check(f, n):
    # the unit symbol multiplies by exactly 1.0: a bare FFT round trip
    back = planar.apply_multiplier(lambda k1, k2: 1.0, f).values
    back -= f.values
    return CheckResult("planar.fft-roundtrip", float(np.max(np.abs(back))),
                       0.0, 1e-12, detail=f"n={n}")


def _dbar_check(n):
    u = planar.gaussian_bump(n, 8.0, sigma=0.5)
    # du is made after the transform, so that d_zbar(u) is no longer held
    gap = planar.ab_transform(planar.d_zbar(u)).values
    du = planar.d_z(u)
    del u  # so that the norm's two real temporaries fit beside gap and du
    gap -= du.values
    return CheckResult("planar.dbar-to-d", _max_abs(gap) / du.norm(2.0),
                       0.0, 1e-6, detail=f"n={n}")


def _isometry_checks(f0, n):
    """Isometry and Riesz decomposition of the transform on mean-zero f0;
    each term is freed once it is subtracted, and each norm is taken
    beside one other field."""
    f0_norm = f0.norm(2.0)
    dec = planar.riesz_sq(1, f0).values
    dec -= planar.riesz_sq(2, f0).values
    mixed = planar.riesz_mixed(f0).values
    dec -= np.multiply(2j, mixed, out=mixed)
    del mixed
    ab_f0 = planar.ab_transform(f0)
    dec -= ab_f0.values  # |dec - ab f0| has the bits of |ab f0 - dec|
    dec_gap = _max_abs(dec)
    del dec
    return [
        CheckResult("planar.ab-isometry",
                    abs(ab_f0.norm(2.0) - f0_norm) / f0_norm,
                    0.0, 1e-12, detail=f"n={n}"),
        CheckResult("planar.ab-decomposition", dec_gap, 0.0, 1e-12),
    ]


def heat_identity_checks(ladder):
    """The heat identity on each (n, nt, tmax) rung; the last rung is
    gated, and with two rungs or more the gap must shrink along the
    ladder."""
    out = []
    gaps = []
    for i, (n, nt, tmax) in enumerate(ladder):
        phi = planar.gaussian_bump(n, 8.0, sigma=0.35)
        psi = planar.gaussian_bump(n, 8.0, sigma=0.45, center=(0.3, -0.15))
        rep = planar.identity_1_13_check(phi, psi, tmax=tmax, nt=nt)
        gaps.append(rep.gap_rel)
        # the stated tolerance applies at the finest rung; coarser rungs
        # feed the monotone-refinement record and carry no target
        gate = (0.0, 1e-3) if i == len(ladder) - 1 else ()
        out.append(CheckResult("planar.heat-identity", rep.gap_rel, *gate,
                               detail=f"n={n},nt={nt},tmax={tmax}"))
    if len(gaps) > 1:
        out.append(CheckResult("planar.heat-identity-monotone",
                               float(np.max(np.diff(gaps))), 0.0, 0.0,
                               detail="gap ladder decreases"))
    return out


def ap_checks(n):
    r = np.maximum(np.hypot(*planar.grid_coordinates(n, 2.0)), 2.0 / n / 4.0)
    lo, hi = np.inf, 0.0
    for a in (0.3, 0.6, 0.9):
        w = planar.PlanarWeight(planar.GridField(2.0, (r ** a).astype(complex)), p=2.0)
        c = planar.ap_class(w, sampling=planar.DiscSampling(stride=max(2, n // 32)))
        h = planar.ap_heat(w, sampling=planar.HeatSampling(stride=max(2, n // 32)))
        lo, hi = min(lo, h / c), max(hi, h / c)
    return [CheckResult("planar.ap-two-sided", hi / lo, 8.0, 0.0,
                        detail=f"observed envelope [{lo:.3f}, {hi:.3f}]")]


def ascent_checks(op, p, n, iters, seed, witness=None, curve=None):
    """Ascent for the operator `op` ('r11-r22' or 'ab'), gated at
    0.85 (p* - 1).  The witness field and the (iteration, ratio) curve go
    to the given paths."""
    mult = planar.ab_multiplier() if op == "ab" else planar.riesz_diff_multiplier()
    res = planar.norm_ratio_ascent(mult, p=p, n=n, iters=iters, seed=seed)
    if witness:
        planar.write_field(witness, res.witness)
    if curve:
        with open(curve, "w") as fh:
            fh.write("iteration,ratio\n")
            fh.writelines(f"{i},{float(r)!r}\n" for i, r in enumerate(res.curve))
    drop = float(np.max(-np.diff(res.curve))) if res.curve.size > 1 else 0.0
    if not np.all(np.isfinite(res.curve)):
        drop = np.nan  # a curve that is not finite shows no ascent, and fails
    return [
        CheckResult("planar.ascent-monotone", drop, 0.0, 0.0),
        CheckResult("planar.ascent-ratio", -res.ratio,
                    -0.85 * (bellman.p_star(p) - 1.0), 0.0,
                    detail=f"achieved {res.ratio:.4f} at n={n}"),
    ]


# ---------------------------------------------------------------------------
# laminate


def _measure(which, p, eta):
    """The laminate named `which` and its baricenter."""
    if which == "mu":
        return laminate.mu_laminate(p, eta), (0.0, 1.0)
    if which == "sigma":
        return laminate.sigma_laminate(p, eta), (0.0, -1.0)
    hi, lo = laminate.nu_pair(p, eta)
    return laminate.Laminate(atoms=hi.atoms + lo.atoms, rays=hi.rays + lo.rays), (1.0, 1.0)


def measure_checks(which, p, eta, seed):
    """Unit mass at the known baricenter, and Jensen's inequality at
    a = (0.5, -0.25), for the laminate `which` ('nu', 'mu' or 'sigma')."""
    lam, (cx, cy) = _measure(which, p, eta)
    bx, by, m = laminate.baricenter(lam)
    worst = laminate.laminate_inequality_check(lam, a=(0.5, -0.25), seed=seed)
    return [
        CheckResult("laminate.mass-baricenter",
                    max(abs(bx - cx), abs(by - cy), abs(m - 1)), 0.0, 1e-10),
        CheckResult("laminate.jensen", -worst, 0.0, 1e-10),
    ]


def _quadrature_checks(p):
    # the quadrature cross-check runs at a moderate tail (decay rate eta);
    # below eta ~ 0.05 the ray mass sits beyond float range and only the
    # closed-form power rule applies; phi+ without its degree is
    # integrated by quadrature
    mu, phi = laminate.mu_laminate(p, 0.5), laminate.phi_plus(p)
    closed = laminate.integrate(mu, phi)
    quad = laminate.integrate(mu, laminate.TestFunction2D(phi.fn))
    return [
        CheckResult("laminate.closed-vs-quad", abs(closed - quad) / abs(closed),
                    0.0, 1e-10),
        CheckResult("laminate.reflection",
                    abs(laminate.sigma_ratio(p, 1e-2) - laminate.ratio(p, 1e-2).direct),
                    0.0, 1e-10),
    ]


# the laminate experiment's sweep, and the default of `laminate sweep --etas`
ETAS = (1e-1, 1e-2, 1e-3, 1e-4)


def ratio_sweep_checks(p, etas):
    """Ratio roots over `etas`, taken in decreasing order.  The limit p - 1
    is gated at the smallest eta when that is at most 2e-4, where the 5e-3
    tolerance is calibrated, and reported otherwise; monotonicity needs
    two etas or more."""
    etas = sorted(etas, reverse=True)
    roots = [laminate.ratio(p, eta).direct ** (1.0 / p) for eta in etas]
    gate = (0.0, 5e-3) if etas[-1] <= 2e-4 else ()
    out = [CheckResult("laminate.ratio-limit", abs(roots[-1] - (p - 1.0)), *gate,
                       detail=f"eta={etas[-1]}")]
    if len(etas) > 1:
        out.append(CheckResult("laminate.ratio-monotone",
                               float(np.max(-np.diff(roots))), 0.0, 0.0,
                               detail="sweep " + ",".join(str(e) for e in etas)))
    return out


# ---------------------------------------------------------------------------
# stochastic


# A Monte-Carlo mean passes within Z standard errors of its reference.
Z = 3.0


def _left_point_means(a, b, steps):
    """The exact means of the 1-d study's left-point sums on [a, b] with
    `steps` steps, h = b - a and t_{i-1} = a + (i - 1)h/N:
    E S1^2 = sum t_{i-1} dt = a h + h^2 (N - 1)/(2N) and
    E[(sum sin w dw)(sum w dw)] = sum t_{i-1} e^{-t_{i-1}/2} dt, since
    E[w sin w] = t e^{-t/2} for w ~ N(0, t); W_a ~ N(0, a) starts the pass."""
    h = b - a
    t = a + h * np.arange(steps) / steps
    return (a * h + h ** 2 * (steps - 1) / (2.0 * steps),
            float(np.sum(t * np.exp(-t / 2))) * h / steps)


def riemann_checks(a, b, steps, paths, seed):
    """The 1-d study on [a, b]: both Riemann sums, the isometry and the
    product, each against the exact mean of its discrete sum."""
    demo = stochastic.riemann_gap_demo(a, b, steps, paths, seed=seed)
    isometry, product = _left_point_means(a, b, steps)

    def gate(check_id, key, mean, detail):  # |error| less Z standard errors
        half_width = Z * demo[key + "_sd"] / np.sqrt(paths)
        return CheckResult(check_id, abs(demo[key] - mean) - half_width, 0.0, 0.0,
                           detail=detail)

    return [
        gate("stoch.riemann-gap", "ES2", b - a, f"b-a={b - a:g} inside {Z:g} sigma"),
        gate("stoch.variance", "ES1", 0.0, "left sums are centered"),
        gate("stoch.isometry", "ES1_sq", isometry, "E(sum w dw)^2 = sum t dt"),
        gate("stoch.product", "EFS1", product,
             "E(sum sin w dw)(sum w dw) = sum t e^(-t/2) dt"),
    ]


def _terminal_order_check(paths, seed):
    """The step-ladder sweep on the centred bump (sigma^2 = 0.8, T = 4) at
    N = 4, 16, 64, each rung's mean |X_N - f(W_T)|^2 against its exact
    value e (`stochastic.strong_error_oracle`) by Johnson's (1978)
    skew-corrected t, since the squared gap is skewed: with d = mean - e and
    s, mu3 the per-path sd and third central moment over n paths,
    t = (d + mu3/(6 s^2 n) + mu3 d^2/(3 s^4)) / (s/sqrt(n)), and the largest
    |t| must stay under Z.  The detail carries the oracle's own strong
    order, the slope of its log RMS against log dt over the ladder."""
    ladder = (4, 16, 64)
    surf = stochastic.GaussianMix.single(sigma2=0.8)
    mean, sd, mu3 = stochastic.terminal_gap_sweep(surf, 4.0, ladder, paths, seed=seed).T
    exact = [stochastic.strong_error_oracle(0.8, 4.0, n) for n in ladder]
    d = mean - exact
    t = ((d + mu3 / (6.0 * sd ** 2 * paths) + mu3 * d ** 2 / (3.0 * sd ** 4))
         / (sd / np.sqrt(paths)))
    order = float(np.polyfit(np.log(4.0 / np.array(ladder)), 0.5 * np.log(exact), 1)[0])
    return CheckResult("stoch.terminal-order", np.max(np.abs(t)), Z, 0.0,
                       detail=f"max |skew-corrected t| over N=4,16,64, exact order {order:.3f}")


def _path_checks(steps, paths, seed):
    out = riemann_checks(0.0, 1.0, steps, paths, seed)
    out.append(_terminal_order_check(4096, seed))

    drv_pl = stochastic.BrownianDriver(2, 4.0, 64, seed=seed)
    res = stochastic.transform_residuals(
        stochastic.GaussianMix.random(np.random.default_rng(seed), 2), drv_pl, 256)
    out.append(CheckResult("stoch.conformality",
                           max(res["max_orthogonality"], res["max_norm_mismatch"]),
                           0.0, 1e-10))
    out.append(CheckResult("stoch.subordination", res["max_subordination_excess"],
                           0.0, 1e-10))
    return out


def conditioning_checks(paths, bins, steps, seed):
    """The mean over the bins of z^2 = |estimate - oracle|^2 / stderr^2,
    against the exact mean of the discrete bridges, must stay under
    1 + 5/bins: pure noise reads 1, with a spread of about 1/bins over
    seeds.  The detail carries the oracle's distance to the transform
    itself, the limit of the scheme."""
    surf = stochastic.GaussianMix.single(sigma2=1.0)
    res = stochastic.ab_by_conditioning(surf, T=80.0, paths=paths, bins=bins,
                                        steps=steps, seed=seed)
    z2 = float(np.mean(np.abs(res.estimate - res.oracle) ** 2 / res.stderr ** 2))
    gap = float(np.max(np.abs(res.oracle - res.limit)))
    return [CheckResult("stoch.conditioning", z2, 1.0 + 5.0 / bins, 0.0,
                        detail=f"paths={paths}, max|oracle-conj_ab|={gap:.3e}")]


def constant_checks(p, trials, seed):
    """The moment ratios under p* - 1 = p - 1 (p > 2) and sqrt(p(p-1)/2);
    the details name the study's step count."""
    rep = stochastic.subordination_constants_mc(p, trials, seed=seed)
    grid = f"steps={rep['steps']}"
    observed = f"observed {rep['ratio_conformal']:.3f} vs sqrt({p * (p - 1) / 2:g}), {grid}"
    return [
        CheckResult("stoch.plain-constant", rep["ratio_plain"], p - 1.0, 0.0, detail=grid),
        CheckResult("stoch.conformal-constant", rep["ratio_conformal"],
                    float(np.sqrt(p * (p - 1.0) / 2.0)), 0.0, detail=observed),
    ]


# ---------------------------------------------------------------------------
# qcmaps


def _beltrami_checks(K, seed):
    ratio = max(qcmaps.beltrami_ratio(qcmaps.RadialMap(K, "regular"), seed=seed),
                qcmaps.beltrami_ratio(qcmaps.RadialMap(K, "singular"), seed=seed))
    return [CheckResult("qc.beltrami", ratio, 0.0, 1e-8, detail=f"K={K}")]


def distortion_checks(K):
    slope, spread = qcmaps.distortion_exponent(qcmaps.RadialMap(K, "regular"))
    return [CheckResult("qc.distortion-slope", abs(slope - 1.0 / K) + spread,
                        0.0, 1e-10, detail=f"K={K}")]


def sobolev_checks(K):
    sing = qcmaps.RadialMap(K, "singular")
    return [CheckResult("qc.sobolev-boundary",
                        abs(qcmaps.sobolev_boundary(sing) - (1.0 + sing.k)),
                        0.0, 1e-3, detail=f"K={K}")]


def weight_checks(K, p, n):
    """The Jacobian weight's disc characteristic over p in linspace(2, p, 5).
    The weight at p is built first, so that a p outside the weight's range
    is refused before any characteristic is computed."""
    reg = qcmaps.RadialMap(K, "regular")
    last = qcmaps.jacobian_weight(reg, p, n=n)
    chars = [planar.ap_class(qcmaps.jacobian_weight(reg, q, n=n) if q < p else last,
                             sampling=planar.DiscSampling(stride=max(2, n // 32)))
             for q in np.linspace(2.0, p, 5)]
    return [CheckResult("qc.weight-monotone", float(np.max(-np.diff(chars))),
                        0.0, 1e-9, detail=f"K={K:g}, p sweep to {p:g}")]


# ---------------------------------------------------------------------------
# experiments and tiers


def _exp_dyadic(params, seed):
    depth = params["depth"]
    return (_dyadic_checks(depth, seed)
            + _lp_bound_checks(depth, params["iters"], seed)
            + buckley_checks(lambda d: dyadic.power_weight(0.5, d), depth,
                             "power weight a=0.5")
            + mt_envelope_checks(dyadic.two_value_weight(2.0, 1.0, depth),
                                 params["iters"], 2.0, seed))


def _exp_zigzag(params, seed):
    ps = (2.0, 2.5, 3.0, 5.0, 8.0)
    return (zigzag_checks(ps, ("phi", "phi0"), params["samples"], seed)
            + _hessian_checks(ps, params["samples"], seed))


def _exp_qc(params, seed):
    out = []
    for K in params["K_list"]:
        out += _beltrami_checks(K, seed) + distortion_checks(K) + sobolev_checks(K)
    return out + weight_checks(2.0, 3.9, params["n"])


# name -> (checks(params, seed), {parameter: (fast value, full value)}).
# A value that both tiers would set alike is a literal of its experiment.
# The table's order is the order in which `run_suite` runs them, or submits
# them to its worker processes: five long experiments first, so that no
# worker starts one of them while the others sit idle near the end of a
# run, then the rest by name.
EXPERIMENTS = {
    "stoch-core": (lambda params, seed: _path_checks(
        params["steps"], params["paths"], seed),
        {"paths": (20_000, 100_000), "steps": (25, 1000)}),
    "stoch-constants": (lambda params, seed: constant_checks(4.0, params["trials"], seed),
                        {"trials": (2000, 10_000)}),
    "stoch-conditioning": (lambda params, seed: conditioning_checks(
        params["paths"], params["bins"], params["steps"], seed),
        {"paths": (78, 231), "bins": (16, 24), "steps": (50, 320)}),
    "planar-ascent": (lambda params, seed: ascent_checks(
        "r11-r22", 4.0, params["n"], params["iters"], seed),
        {"n": (64, 256), "iters": (150, 500)}),
    "dyadic": (_exp_dyadic, {"depth": (10, 12), "iters": (200, 300)}),
    "bellman-feasibility": (lambda params, seed: _feasibility_checks(params["p_list"]),
                            {"p_list": ((3.0,), (2.5, 3.0, 4.0))}),
    "bellman-jn": (lambda params, seed: [
        c for delta in params["deltas"] for c in strip_checks(delta, params["grid"])],
        {"deltas": ((0.25,), (0.1, 0.25)), "grid": ((120, 120), (200, 200))}),
    "bellman-tau-interp": (lambda params, seed: (
        tau_checks(np.linspace(1.0, 50.0, params["tau_points"]))
        + interp_checks([2.1, 3.0, 5.0, 10.0, 50.0])), {"tau_points": (25, 60)}),
    "bellman-zigzag": (_exp_zigzag, {"samples": (20_000, 100_000)}),
    "laminate": (lambda params, seed: (
        measure_checks("nu", 3.0, 1e-3, seed) + _quadrature_checks(3.0)
        + ratio_sweep_checks(3.0, ETAS)), {}),
    "planar-ap": (lambda params, seed: ap_checks(params["n"]), {"n": (128, 256)}),
    "planar-identity113": (lambda params, seed: heat_identity_checks(params["ladder"]),
                           {"ladder": (((64, 17, 6.0), (128, 33, 12.0)),
                                       ((64, 17, 6.0), (128, 33, 12.0), (256, 65, 24.0)))}),
    "planar-spectral": (lambda params, seed: _spectral_checks(params["n"], seed),
                        {"n": (128, 512)}),
    "qc": (_exp_qc, {"K_list": ((2.0,), (1.5, 2.0, 3.0)), "n": (128, 256)}),
}
TIERS = ("fast", "full")


def tier_params(tier: str) -> dict:
    """experiment -> parameter -> value at `tier`, read off `EXPERIMENTS`."""
    if tier not in TIERS:
        raise ValueError("tier must be 'fast' or 'full'")
    i = TIERS.index(tier)
    return {name: {key: pair[i] for key, pair in values.items()}
            for name, (_, values) in EXPERIMENTS.items()}


def run_experiment(name: str, params: dict, seed: int = 0):
    return EXPERIMENTS[name][0](params, seed)


def run_suite(tier: str = "fast", seed: int = 0,
              workers: int = 1, skip: tuple = ()) -> RunReport:
    """Run the whole battery: in the calling thread if `workers` is 1,
    else on at most `workers` forked processes, one per experiment at
    most.  Experiments named in `skip` are omitted (skipped, not failed);
    a name that is not an experiment, or a skip of every experiment, is
    refused.  Experiments run in the order of `EXPERIMENTS` and their
    results are merged in name order, so the report does not depend on
    the worker count or the order in which experiments finish.  The
    report also sorts its entries when it serializes them."""
    params = tier_params(tier)
    unknown = sorted(set(skip) - set(EXPERIMENTS))
    if unknown:
        raise ValueError(f"skip names no experiment: {', '.join(unknown)}")
    order = [n for n in EXPERIMENTS if n not in skip]
    if not order:
        raise ValueError("skip leaves no experiment to run")
    report = RunReport(config={"tier": tier, "seed": seed,
                               "skip": ",".join(sorted(skip))})
    start = time.perf_counter()
    if workers == 1:
        results = {n: run_experiment(n, params[n], seed) for n in order}
    else:
        # imported here, since `import bellmanlab` is timed; forked, since
        # a spawned worker would import numpy again
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(workers, len(order)),
                                 mp_context=multiprocessing.get_context("fork")) as pool:
            futures = {n: pool.submit(run_experiment, n, params[n], seed) for n in order}
            results = {n: futures[n].result() for n in sorted(order)}
    for n in sorted(order):
        report.entries.extend(results[n])
    report.wall_time = time.perf_counter() - start
    return report
