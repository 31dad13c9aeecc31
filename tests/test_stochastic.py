import os
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import pytest

from bellmanlab import planar as pl
from bellmanlab import stochastic as st
from bellmanlab.suite import (_half_width, _path_checks, _sum_checks,
                             conditioning_checks, constant_checks, run_experiment,
                             tier_params)
from memtrace import traced


@dataclass
class HoloPoly:
    """f(z) = z^m as a heat surface: harmonic components, so the heat
    extension is the function itself and dbar u vanishes identically."""

    m: int

    def value(self, t, x):
        return (x[..., 0] + 1j * x[..., 1]) ** self.m

    def gradient(self, t, x):
        d = self.m * (x[..., 0] + 1j * x[..., 1]) ** (self.m - 1)
        return np.stack([d, 1j * d], axis=-1)


def ito_integral(process, driver, paths, batch=0):
    """Samples of sum_i f(t_i) (w(t_{i+1}) - w(t_i)) for a 1-d driver: the
    reference the one-pass statistics of `riemann_gap_demo` are held to.

    `process(w)` is called once per step with w(t_i), the paths at the
    current node, shape (paths,); the engine keeps no other step, so the
    integrand is adapted.  It returns the integrand per path, shape
    (paths,), or k integrands against the same increments, shape
    (k, paths); the result then has that shape too.
    """
    if driver.dimension != 1:
        raise ValueError("ito_integral expects a 1-d driver")
    w = np.zeros(paths)
    total = 0.0
    for inc in driver.increments(paths, batch):
        dw = inc[:, 0]
        total = total + np.asarray(process(w)) * dw
        w = w + dw      # a new array: one handed to `process` is not changed
    return total


def increments(driver, paths, batch=0):
    """The (steps, paths, dimension) stack of `driver.increments`."""
    return np.stack(list(driver.increments(paths, batch)))


# ---------------------------------------------------------------------------
# driver


def test_driver_variance_tracks_time():
    drv = st.BrownianDriver(1, 2.0, 64, seed=0)
    inc = increments(drv, 20000)[:, :, 0]
    w = np.cumsum(inc, axis=0)
    t = drv.times()[1:]
    var = np.var(w, axis=1)
    # 4 sigma band for the empirical variance of a chi-square mean
    band = 4.0 * t * np.sqrt(2.0 / 20000)
    assert np.all(np.abs(var - t) <= band)


def test_driver_reproducible_batches():
    drv = st.BrownianDriver(2, 1.0, 16, seed=3)
    a = increments(drv, 100, batch=5)
    b = increments(drv, 100, batch=5)
    c = increments(drv, 100, batch=6)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_the_stream_is_philox_keyed_by_seed_and_batch():
    drv = st.BrownianDriver(2, 1.0, 8, seed=3)
    incs = increments(drv, 100, batch=5)
    rng = np.random.Generator(np.random.Philox(key=[3, 5]))
    assert incs.shape == (8, 100, 2)
    for inc in incs:
        assert np.array_equal(inc, rng.normal(0.0, np.sqrt(drv.dt), size=(100, 2)))


def test_fast_tier_studies_draw_disjoint_streams(monkeypatch):
    # each study of a seed owns its Philox key (seed, batch); a key drawn
    # twice would let two checks score overlapping samples as independent
    keys = []
    stream = st.BrownianDriver.increments

    def recording(self, paths, batch=0):
        keys.append((self.seed, batch))
        return stream(self, paths, batch)

    monkeypatch.setattr(st.BrownianDriver, "increments", recording)
    params = tier_params("fast")
    for name in ("stoch-core", "stoch-conditioning", "stoch-constants"):
        run_experiment(name, params[name], seed=1)
    assert len(keys) >= 3
    assert [key for key, n in Counter(keys).items() if n > 1] == [], sorted(keys)
    # one Brownian pass per study: the isometry and the product ride on the
    # Riemann sums' stream 0, the real transforms on the conformal ones'
    retired = {1, 2, *range(100, 106)}
    assert [key for key in keys if key[1] in retired] == [], sorted(keys)


# ---------------------------------------------------------------------------
# the two Riemann sums


def test_riemann_gap_contains_b_minus_a():
    demo = st.riemann_gap_demo(0.0, 1.0, 400, 40000, seed=1)
    assert all(c.passed for c in _sum_checks(demo, 1.0, 40000))
    # E S1^2 <= b(b - a); the true value here is 1/2
    assert demo["ES1_sq"] <= 1.0 + _half_width(demo, "ES1_sq", 40000)


def test_riemann_gap_from_a_positive_start():
    demo = st.riemann_gap_demo(0.5, 1.5, 100, 20000, seed=2)
    gap, _ = _sum_checks(demo, 1.0, 20000)
    assert gap.passed
    # E S1^2 = int_a^b t dt = (b^2 - a^2) / 2 = 1
    assert abs(demo["ES1_sq"] - 1.0) <= _half_width(demo, "ES1_sq", 20000)


def test_one_d_pass_matches_ito_integrals():
    # the isometry and product statistics of the Riemann pass are those of
    # ito_integral with integrands w, sin w and cos w on the same stream 0
    steps, paths, seed = 64, 3000, 5
    demo = st.riemann_gap_demo(0.0, 1.0, steps, paths, seed=seed)
    drv = st.BrownianDriver(1, 1.0, steps, seed=seed)
    drift = []

    def integrands(w):
        f, g = np.sin(w), np.cos(w)
        drift.append(np.dot(f, g))
        return np.stack([w, f, g])
    s1, f, g = ito_integral(integrands, drv, paths)
    expect = {"ES1_sq": np.mean(s1 ** 2), "ES1_sq_sd": np.std(s1 ** 2),
              "EFG": np.mean(f * g), "EFG_sd": np.std(f * g),
              "EFG_ref": sum(drift) * drv.dt / paths}
    for key, value in expect.items():
        assert demo[key] == pytest.approx(value, rel=0, abs=1e-12), key


def test_drift_reference_ignores_the_blas_thread_count():
    # EFG_ref must carry the same bits whatever the core count: a BLAS dot
    # product splits its sum by thread, so the canonical report would not
    code = ("from bellmanlab import stochastic as st; "
            "print(repr(st.riemann_gap_demo(0, 1, 400, 20000, seed=1)['EFG_ref']))")
    src = str(Path(st.__file__).resolve().parents[1])
    printed = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=120)
        printed.append(out.stdout.strip())
    assert printed[0] == printed[1], printed


def test_riemann_gap_degenerate():
    demo = st.riemann_gap_demo(0.5, 0.5, 10, 10, seed=0)
    assert demo["ES1"] == 0.0 and demo["ES2"] == 0.0
    # too few paths or steps are refused, on an empty interval too
    for a, b, steps, paths in ((0.0, 1.0, 10, 1), (0.5, 0.5, 10, 1),
                               (0.0, 1.0, 0, 10), (0.5, 0.5, 0, 10)):
        with pytest.raises(ValueError, match="at least"):
            st.riemann_gap_demo(a, b, steps, paths)


# ---------------------------------------------------------------------------
# discrete stochastic integrals


def test_integral_of_one_is_endpoint_difference():
    drv = st.BrownianDriver(1, 1.0, 128, seed=2)
    vals = ito_integral(np.ones_like, drv, 30000)
    assert abs(np.mean(vals)) < 4.0 * np.std(vals) / np.sqrt(30000)
    assert np.var(vals) == pytest.approx(1.0, rel=0.05)


def test_isometry_for_w_dw():
    # E (int w dw)^2 = int_0^1 t dt = 1/2 within 3 sigma
    drv = st.BrownianDriver(1, 1.0, 256, seed=3)
    vals = ito_integral(lambda w: w, drv, 40000)
    second = vals ** 2
    assert abs(np.mean(second) - 0.5) <= 3.0 * np.std(second) / np.sqrt(40000)


def test_product_identity():
    drv = st.BrownianDriver(1, 1.0, 256, seed=4)
    paths = 40000
    f = ito_integral(np.sin, drv, paths, batch=2)
    g = ito_integral(np.cos, drv, paths, batch=2)
    prod = f * g
    inc = increments(drv, paths, 2)[:, :, 0]
    w = np.concatenate([np.zeros((1, paths)), np.cumsum(inc, axis=0)], axis=0)[:-1]
    ref = np.mean(np.sum(np.sin(w) * np.cos(w), axis=0) * drv.dt)
    assert abs(np.mean(prod) - ref) <= 3.0 * np.std(prod) / np.sqrt(paths)


def test_vector_integrand_matches_scalar_integrals():
    drv = st.BrownianDriver(1, 1.0, 64, seed=4)
    both = ito_integral(lambda w: np.stack([np.sin(w), np.cos(w)]),
                           drv, 1000, batch=2)
    assert both.shape == (2, 1000)
    for k, fn in enumerate((np.sin, np.cos)):
        one = ito_integral(fn, drv, 1000, batch=2)
        assert np.array_equal(both[k], one)


def test_ito_integral_memory_is_per_step():
    paths, steps = 20_000, 400
    one_array = paths * steps * 8          # a (paths, steps) float64 array: 64 MB
    drv = st.BrownianDriver(1, 1.0, steps, seed=6)
    peak, _ = traced(lambda: ito_integral(lambda w: w, drv, paths))
    assert peak < one_array / 16


# ---------------------------------------------------------------------------
# heat martingales


def test_linear_input_gives_exact_martingale():
    # f(z) = z has constant gradient: X(t) = W_t exactly, no time error
    drv = st.BrownianDriver(2, 2.0, 16, seed=6)
    X, _ = st.simulate(HoloPoly(1), drv, 256, matrices=st.A_STAR[None])
    inc = increments(drv, 256)
    w_end = inc[:, :, 0].sum(0) + 1j * inc[:, :, 1].sum(0)
    assert np.max(np.abs(X - w_end)) < 1e-12


def test_martingale_mean_is_initial_value():
    surf = st.GaussianMix.single(sigma2=0.8)
    drv = st.BrownianDriver(2, 4.0, 64, seed=7)
    X, _ = st.simulate(surf, drv, 20000, matrices=st.A_STAR[None])
    u0 = surf.value(4.0, np.zeros((1, 2)))[0]
    gap = abs(np.mean(X) - u0)
    assert gap <= 3.0 * np.std(X.real) / np.sqrt(20000) + 1e-12


def test_terminal_gap_strong_order():
    surf = st.GaussianMix.single(sigma2=0.8)
    sweep = st.terminal_gap_sweep(surf, 4.0, [16, 32, 64, 128, 256], 3000, seed=8)
    dts = np.log([d for d, _ in sweep])
    rms = np.log([r for _, r in sweep])
    order = np.polyfit(dts, rms, 1)[0]
    assert order >= 0.45


def test_terminal_order_holds_across_seeds():
    # the suite's sweep, max(4096, paths // 40) coupled paths on stream 6,
    # at seeds 1-30
    surf = st.GaussianMix.single(sigma2=0.8)
    orders = []
    for seed in range(1, 31):
        sweep = st.terminal_gap_sweep(surf, 4.0, [16, 32, 64, 128, 256], 4096,
                                      seed=seed)
        orders.append(np.polyfit(np.log([d for d, _ in sweep]),
                                 np.log([r for _, r in sweep]), 1)[0])
    assert min(orders) >= 0.45, orders


def test_gradient_and_dbar_closed_forms():
    surf = st.GaussianMix.random(np.random.default_rng(18), bumps=3)
    x = np.random.default_rng(19).normal(size=(40, 2))
    h = 1e-6
    num = np.stack([(surf.value(0.7, x + h * e) - surf.value(0.7, x - h * e)) / (2 * h)
                    for e in np.eye(2)], axis=-1)
    g = surf.gradient(0.7, x)
    assert np.allclose(g, num, atol=1e-8)
    assert np.allclose(surf.dbar(0.7, x), 0.5 * (g[:, 0] + 1j * g[:, 1]), atol=1e-14)


def test_semigroup_property_of_closed_form():
    # u^{u^f(s,.)}(t,.) = u^f(s+t,.) for the Gaussian closed form
    surf = st.GaussianMix.single(sigma2=0.7)
    x = np.random.default_rng(0).normal(size=(50, 2))
    direct = surf.value(1.3, x)
    stage = st.GaussianMix(surf.amplitudes * (surf.sigma2 / (surf.sigma2 + 0.5)),
                           surf.centers, surf.sigma2 + 0.5)
    assert np.allclose(stage.value(0.8, x), direct, atol=1e-13)


def test_value_is_the_sum_of_complex_bump_terms():
    # value carries the bits of the plain complex sum, also where the far
    # bumps underflow to zero
    surf = st.GaussianMix.random(np.random.default_rng(3), 3)
    x = np.random.default_rng(4).uniform(-40.0, 40.0, size=(64, 64, 2))
    for t in (0.0, 0.7):
        plain = 0.0
        for a, c, s2 in zip(surf.amplitudes, surf.centers, surf.sigma2):
            r2 = (x[..., 0] - c[0]) ** 2 + (x[..., 1] - c[1]) ** 2
            plain = plain + a * (s2 / (s2 + t)) * np.exp(-r2 / (2.0 * (s2 + t)))
        assert surf.value(t, x).tobytes() == plain.tobytes()


# ---------------------------------------------------------------------------
# the matrix transform


def test_holomorphic_input_vanishes():
    drv = st.BrownianDriver(2, 2.0, 32, seed=9)
    _, Y = st.simulate(HoloPoly(2), drv, 64, matrices=st.A_STAR[None])
    assert Y.shape == (1, 64)
    assert np.max(np.abs(Y)) == 0.0


def test_stacked_transforms_match_single_matrix_runs():
    # X is one martingale whatever the stack; each Y row is the transform
    # that matrix alone gives, and the A_STAR row is bit for bit the same
    surf = st.GaussianMix.random(np.random.default_rng(20), bumps=3)
    drv = st.BrownianDriver(2, 4.0, 32, seed=21)
    B = np.random.default_rng(22).normal(size=(2, 2))
    X, Y = st.simulate(surf, drv, 500, batch=10, matrices=np.stack([st.A_STAR, B]))
    assert Y.shape == (2, 500)
    X1, Y1 = st.simulate(surf, drv, 500, batch=10, matrices=st.A_STAR[None])
    assert np.array_equal(X, X1)
    assert np.array_equal(Y[0], Y1[0])
    _, YB = st.simulate(surf, drv, 500, batch=10, matrices=B[None].astype(complex))
    assert np.allclose(Y[1], YB[0], rtol=0, atol=1e-13)


def test_conformality_and_subordination_pathwise():
    rng = np.random.default_rng(10)
    surf = st.GaussianMix.random(rng, bumps=3)
    drv = st.BrownianDriver(2, 3.0, 48, seed=11)
    res = st.transform_residuals(surf, drv, 512)
    assert res["max_orthogonality"] <= 1e-10
    assert res["max_norm_mismatch"] <= 1e-10
    assert res["max_subordination_excess"] <= 1e-10


def path_check_values(monkeypatch, matrix):
    """The suite's path checks at small sizes, seed 1, with `matrix` in
    place of A_STAR: {id: (value, passed)}."""
    monkeypatch.setattr(st, "A_STAR", matrix)
    return {c.check_id: (c.value, c.passed)
            for c in _path_checks(steps=32, paths=256, seed=1)}


def test_conformality_fails_for_a_non_conformal_matrix(monkeypatch):
    # the identity keeps Y = X, whose gradient rows are not orthogonal
    checks = path_check_values(monkeypatch, np.eye(2, dtype=complex))
    assert checks["stoch.conformality"][1] is False
    assert checks["stoch.conformality"][0] > 0.1
    assert checks["stoch.subordination"][1] is True


@pytest.mark.parametrize("k, passed", [(5.0, False), (-5.0, False),
                                        (2.0, True), (-2.0, True)])
def test_one_d_checks_gate_at_three_standard_errors(monkeypatch, k, passed):
    # every mean of the 1-d study set k standard errors off its reference
    study = st.riemann_gap_demo

    def moved(a, b, steps, paths, seed=0):
        demo = study(a, b, steps, paths, seed=seed)
        for key, ref in (("ES1", 0.0), ("ES2", b - a), ("ES1_sq", (b * b - a * a) / 2),
                         ("EFG", demo["EFG_ref"])):
            demo[key] = ref + k * demo[key + "_sd"] / np.sqrt(paths)
        return demo

    monkeypatch.setattr(st, "riemann_gap_demo", moved)
    checks = {c.check_id: c.passed
              for c in _path_checks(steps=32, paths=256, seed=1)}
    for check_id in ("stoch.riemann-gap", "stoch.variance", "stoch.isometry",
                     "stoch.product"):
        assert checks[check_id] is passed, check_id


def test_terminal_order_fails_at_order_three_tenths(monkeypatch):
    # an RMS ladder that decays like dt^0.3, short of the gated order 0.45
    monkeypatch.setattr(st, "terminal_gap_sweep", lambda surface, T, steps_list, paths,
                        seed=0: [(T / n, 0.1 * (T / n) ** 0.3) for n in steps_list])
    [check] = [c for c in _path_checks(steps=32, paths=256, seed=1)
               if c.check_id == "stoch.terminal-order"]
    assert check.value == pytest.approx(-0.3) and not check.passed


def test_subordination_fails_for_a_scaled_matrix(monkeypatch):
    # 3 A_STAR is still conformal, but |K|^2 = 9 * 4 |H|^2 exceeds 4 |H|^2
    checks = path_check_values(monkeypatch, 3.0 * st.A_STAR)
    assert checks["stoch.subordination"][1] is False
    assert checks["stoch.subordination"][0] > 1.0
    assert checks["stoch.conformality"] == (0.0, True)


# ---------------------------------------------------------------------------
# conditioning and constants


def fast_conditioning(seed, paths=None):
    """The suite's conditioning check at the fast tier's sizes, with
    `paths` per bin in place of the tier's."""
    prm = dict(tier_params("fast")["stoch-conditioning"], seed=seed)
    if paths is not None:
        prm["paths"] = paths
    [check] = conditioning_checks(**prm)
    return check


def test_conditioning_matches_oracle_small():
    # the agreement fraction is the negated check value
    assert -fast_conditioning(13).value >= 0.9


def test_conditioning_fails_against_the_wrong_chirality(monkeypatch):
    # the matrix-A martingale represents the conjugate multiplier: scored
    # against the other chirality, most bins disagree
    study = st.ab_by_conditioning

    def wrong(*args, **kwargs):
        res = study(*args, **kwargs)
        return replace(res, oracle=np.conj(res.oracle))

    monkeypatch.setattr(st, "ab_by_conditioning", wrong)
    assert not fast_conditioning(1).passed


def test_conditioning_false_failure_rate():
    # the fast tier's gate at 0.95 fails at 0 of seeds 1-40 (lowest
    # fraction 0.996, seeds 27 and 35); one false failure in seeds 1-20
    # fails this
    fracs = {seed: -fast_conditioning(seed).value for seed in range(1, 21)}
    assert min(fracs.values()) >= 0.95, fracs


def test_conditioning_holds_with_more_paths():
    # more paths shrink the standard error, so a bias in the bridges would
    # show here: with uniform steps, seeds 5 and 6 read 0.895 and 0.934
    for seed in (5, 6):
        assert fast_conditioning(seed, paths=208).passed, seed


@pytest.mark.parametrize("surface, bound", [
    (st.GaussianMix.single(sigma2=1.0), 5e-4),
    (st.GaussianMix.random(np.random.default_rng(1), 3), 1e-3),
])
def test_conditioning_oracle_matches_the_spectral_transform(surface, bound):
    # the closed-form oracle against the FFT multiplier on a 1024^2 torus of
    # side 32, whose nodes hold every 16- and 24-bin center; the gap left is
    # the torus's periodization of the transform's 1/|x|^2 tail
    n, box = 1024, 32.0
    axis = pl.grid_axis(n, box)
    grid = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1)
    spectral = pl.apply_multiplier(pl.conj_ab_multiplier(),
                                   pl.GridField(box, surface.value(0.0, grid))).values
    for bins in (16, 24):
        res = st.ab_by_conditioning(surface, T=4.0, paths=2, bins=bins, steps=4, seed=0)
        centers = -3.0 + (np.arange(bins) + 0.5) * (6.0 / bins)
        gi = np.searchsorted(axis, centers)
        assert np.array_equal(axis[gi], centers)
        gap = np.max(np.abs(res.oracle - spectral[np.ix_(gi, gi)]))
        assert gap <= bound, (bins, gap)


def test_conditioning_study_runs_no_fft(monkeypatch):
    # the oracle is the closed form: no grid, no FFT, nothing from planar
    def banned(*args, **kwargs):
        raise AssertionError("the conditioning study ran an FFT")

    for name in ("fft2", "ifft2"):
        monkeypatch.setattr(np.fft, name, banned)
    run_experiment("stoch-conditioning", tier_params("fast")["stoch-conditioning"], seed=1)
    assert not any(v is pl or getattr(v, "__module__", None) == pl.__name__
                   for v in vars(st).values())


def test_conj_ab_vanishes_at_a_bump_center():
    surf = st.GaussianMix.random(np.random.default_rng(2), 1)
    # finite and 0 at the center (a NaN would fail both comparisons)
    assert np.array_equal(surf.conj_ab(surf.centers), [0.0])
    assert np.abs(surf.conj_ab(surf.centers + 1e-6)[0]) < 1e-6


def test_conditioning_linear_in_f():
    # doubling the amplitude doubles the estimate (same seed, same paths)
    surf1 = st.GaussianMix.single(amplitude=1.0, sigma2=1.0)
    surf2 = st.GaussianMix.single(amplitude=2.0, sigma2=1.0)
    r1 = st.ab_by_conditioning(surf1, T=20.0, paths=312, bins=8, steps=60, seed=14)
    r2 = st.ab_by_conditioning(surf2, T=20.0, paths=312, bins=8, steps=60, seed=14)
    assert np.allclose(r2.estimate, 2.0 * r1.estimate, atol=1e-12)


def test_zero_input_gives_zero():
    surf = st.GaussianMix.single(amplitude=0.0)
    res = st.ab_by_conditioning(surf, T=10.0, paths=78, bins=8, steps=40, seed=15)
    assert np.max(np.abs(res.estimate)) == 0.0


def test_subordination_constants():
    plain, conformal = constant_checks(4.0, trials=2000, seed=16)
    assert plain.passed and plain.target == 3.0
    assert conformal.passed and conformal.target == pytest.approx(np.sqrt(6.0))


def test_constants_need_p_above_two():
    for p in (1.5, 2.0):
        with pytest.raises(ValueError, match="p > 2"):
            st.subordination_constants_mc(p, trials=10, seed=0)


@pytest.mark.parametrize("scale, passed", [(1.01, False), (0.99, True)])
def test_constant_checks_gate_at_both_ceilings(monkeypatch, scale, passed):
    # ratios 1% above p - 1 and sqrt(p(p-1)/2) fail, 1% below pass
    monkeypatch.setattr(st, "subordination_constants_mc", lambda p, trials, seed=0: {
        "ratio_plain": scale * (p - 1.0),
        "ratio_conformal": scale * np.sqrt(p * (p - 1.0) / 2.0)})
    checks = constant_checks(4.0, trials=10, seed=0)
    assert [(c.check_id, c.passed) for c in checks] == [
        ("stoch.plain-constant", passed), ("stoch.conformal-constant", passed)]


def test_constants_stationary_in_horizon():
    a = st.subordination_constants_mc(4.0, trials=1500, seed=17, T=8.0)
    b = st.subordination_constants_mc(4.0, trials=1500, seed=17, T=16.0)
    assert abs(a["ratio_conformal"] - b["ratio_conformal"]) < 0.2
