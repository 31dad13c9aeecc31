from collections import Counter
from dataclasses import dataclass, replace

import numpy as np
import pytest

from bellmanlab import planar as pl
from bellmanlab import stochastic as st
from bellmanlab.suite import (_left_point_means, _path_checks, _terminal_order_check,
                             conditioning_checks, constant_checks, riemann_checks,
                             run_experiment, tier_params)
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


ONE_D = ("stoch.riemann-gap", "stoch.variance", "stoch.isometry", "stoch.product")


def test_riemann_gap_contains_b_minus_a():
    checks = riemann_checks(0.0, 1.0, 400, 40000, seed=1)
    assert [c.check_id for c in checks if c.passed] == list(ONE_D)


def test_riemann_gap_from_a_positive_start():
    checks = riemann_checks(0.5, 1.5, 100, 20000, seed=2)
    assert [c.check_id for c in checks if c.passed] == list(ONE_D)
    assert checks[0].detail == "b-a=1 inside 3 sigma"
    # E S1^2 = a h + h^2 (N - 1)/(2N) = 0.995, the left sum of int_a^b t dt = 1
    assert _left_point_means(0.5, 1.5, 100)[0] == pytest.approx(0.995, rel=0, abs=1e-15)


def test_one_d_pass_matches_ito_integrals():
    # the isometry and product statistics of the Riemann pass are those of
    # ito_integral with integrands w and sin w on the same stream 0
    steps, paths, seed = 64, 3000, 5
    demo = st.riemann_gap_demo(0.0, 1.0, steps, paths, seed=seed)
    drv = st.BrownianDriver(1, 1.0, steps, seed=seed)
    s1, f = ito_integral(lambda w: np.stack([w, np.sin(w)]), drv, paths)
    expect = {"ES1_sq": np.mean(s1 ** 2), "ES1_sq_sd": np.std(s1 ** 2),
              "EFS1": np.mean(f * s1), "EFS1_sd": np.std(f * s1)}
    for key, value in expect.items():
        assert demo[key] == pytest.approx(value, rel=0, abs=1e-12), key


def test_left_point_means_are_the_exact_discrete_means():
    # E[w sin w] for w ~ N(0, t) by Gauss-Hermite quadrature at each left
    # node, against the closed form t e^{-t/2} that the product target sums
    nodes, weights = np.polynomial.hermite_e.hermegauss(60)
    weights = weights / weights.sum()
    for a, b in ((0.0, 1.0), (0.5, 1.5), (2.0, 2.5)):
        for steps in (1, 7, 100, 1000):
            dt = (b - a) / steps
            t = a + dt * np.arange(steps)
            w = np.sqrt(t)[:, None] * nodes
            product = float(np.sum((w * np.sin(w)) @ weights)) * dt
            isometry, target = _left_point_means(a, b, steps)
            assert isometry == pytest.approx(np.sum(t) * dt, rel=0, abs=1e-15)
            assert target == pytest.approx(product, rel=0, abs=1e-14)
    # left sums of the increasing t and t e^{-t/2} fall short of their time
    # integrals, 1/2 and 4 - 6 e^{-1/2}, by (f(1) - f(0)) / (2N) at first order
    limits = (0.5, 4.0 - 6.0 * np.exp(-0.5))
    for n in (100, 1000, 10_000):
        gaps = np.subtract(limits, _left_point_means(0.0, 1.0, n)) * n
        assert gaps == pytest.approx([0.5, 0.5 * np.exp(-0.5)], rel=1e-2), n


def test_riemann_gap_degenerate():
    # an empty interval is refused: every sum and deviation on it is 0, so
    # each gate would compare 0 with 0
    for a, b in ((0.5, 0.5), (0.0, 0.0), (1.0, 0.5), (-0.5, 1.0)):
        with pytest.raises(ValueError, match="need 0 <= a < b"):
            st.riemann_gap_demo(a, b, 10, 10)
    # too few paths or steps are refused
    for steps, paths in ((10, 1), (0, 10)):
        with pytest.raises(ValueError, match="at least"):
            st.riemann_gap_demo(0.0, 1.0, steps, paths)


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


LADDER = [4, 8, 16, 32, 64]


def test_terminal_gap_strong_order():
    # every rung's mean squared gap sits within 3 standard errors of its
    # exact value, and the sampled RMS decays at the exact order, 0.431
    surf = st.GaussianMix.single(sigma2=0.8)
    sweep = st.terminal_gap_sweep(surf, 4.0, LADDER, 3000, seed=8)
    for (mean, sd, _), n in zip(sweep, LADDER):
        assert abs(mean - st.strong_error_oracle(0.8, 4.0, n)) <= 3.0 * sd / np.sqrt(3000)
    order = np.polyfit(np.log(4.0 / np.array(LADDER)),
                       0.5 * np.log([mean for mean, _, _ in sweep]), 1)[0]
    assert order == pytest.approx(0.431, abs=0.01)


def test_terminal_order_holds_across_seeds():
    # the suite's gate on max(4096, paths // 40) coupled paths of stream 6;
    # seeds 1-40 read max |skew-corrected t| 2.58 against Z = 3
    for seed in range(1, 31):
        check = _terminal_order_check(4096, seed)
        assert check.passed, (seed, check.value)


def test_terminal_order_reads_the_skew_corrected_t_on_three_rungs():
    # the gate is Johnson's t over N = 4, 16, 64, which the five-rung sweep
    # gives on the same rows (the rungs share increments, not state); at
    # seed 124 the plain z of those rungs reads 3.07 but the t 2.80
    rows = st.terminal_gap_sweep(st.GaussianMix.single(sigma2=0.8), 4.0, LADDER, 4096,
                                 seed=124)[[0, 2, 4]]
    mean, sd, mu3 = rows.T
    d = mean - [st.strong_error_oracle(0.8, 4.0, n) for n in (4, 16, 64)]
    se = sd / np.sqrt(4096)
    t = (d + mu3 / (6.0 * sd ** 2 * 4096) + mu3 * d ** 2 / (3.0 * sd ** 4)) / se
    check = _terminal_order_check(4096, 124)
    assert check.value == pytest.approx(np.max(np.abs(t)), rel=1e-12)
    assert check.passed and np.max(np.abs(d / se)) > 3.0


def test_bump_gradient_gram_on_the_diagonal():
    # G(t, t) = E|grad u(T - t, W_t)|^2 = 2 sigma^4 t / (S^4 (1 + 2t/S)^2)
    t = np.linspace(0.0, 4.0, 9)
    S = 0.8 + 4.0 - t
    assert np.allclose(st._bump_gradient_gram(0.8, 4.0, t, t),
                       2.0 * 0.8 ** 2 * t / (S ** 4 * (1.0 + 2.0 * t / S) ** 2),
                       rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("seed", [1, 2])
def test_strong_error_oracle_matches_monte_carlo(seed):
    surf = st.GaussianMix.single(sigma2=0.8)
    sweep = st.terminal_gap_sweep(surf, 4.0, [4, 16], 50_000, seed=seed)
    for (mean, sd, _), n in zip(sweep, [4, 16]):
        assert abs(mean - st.strong_error_oracle(0.8, 4.0, n)) <= 3.0 * sd / np.sqrt(50_000)


def test_strong_error_oracle_settles_at_order_one_half():
    # N E|X_N - f(W_T)|^2 tends to a constant, so the RMS falls as dt^(1/2)
    assert 256 * st.strong_error_oracle(0.8, 4.0, 256) == pytest.approx(0.2053, abs=5e-5)
    assert 16_384 * st.strong_error_oracle(0.8, 4.0, 16_384) == pytest.approx(0.2066, abs=5e-5)
    # on the 16-256 ladder the exact order is the 0.482 mean of the orders
    # that seeds 1-40 observed there
    old = np.array([16, 32, 64, 128, 256])
    exact = [st.strong_error_oracle(0.8, 4.0, n) for n in old]
    assert np.polyfit(np.log(4.0 / old), 0.5 * np.log(exact), 1)[0] == pytest.approx(
        0.4825, abs=5e-5)


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
        isometry, product = _left_point_means(a, b, steps)
        for key, ref in (("ES1", 0.0), ("ES2", b - a), ("ES1_sq", isometry),
                         ("EFS1", product)):
            demo[key] = ref + k * demo[key + "_sd"] / np.sqrt(paths)
        return demo

    monkeypatch.setattr(st, "riemann_gap_demo", moved)
    checks = {c.check_id: c.passed
              for c in _path_checks(steps=32, paths=256, seed=1)}
    for check_id in ONE_D:
        assert checks[check_id] is passed, check_id


def test_one_d_checks_false_failure_rate():
    # each of the four Z = 3 gates fails a correct run at 0.27%; at the fast
    # tier's 25 steps and 20,000 paths, seeds 1-40 read max |z| 2.74 over
    # the four checks (2.27 at 100 steps)
    prm = tier_params("fast")["stoch-core"]
    for seed in range(1, 21):
        checks = riemann_checks(0.0, 1.0, prm["steps"], prm["paths"], seed=seed)
        assert [c.check_id for c in checks if c.passed] == list(ONE_D), seed


@pytest.mark.parametrize("steps", [25, 100, 400])
def test_product_fails_on_anticipating_sums(monkeypatch, steps):
    # sin w(t_i) in place of sin w(t_{i-1}) in F: the sum is no longer
    # adapted, and z reads -15.7 to -17.8 at 25 steps and -12.6 to -15.7 at
    # 100 and 400 steps (seeds 1-3) on [0, 1]; on [0.5, 1.5] the product
    # reads 0.19-0.23 above its gate
    study = st.riemann_gap_demo

    def anticipating(a, b, steps, paths, seed=0):
        demo = study(a, b, steps, paths, seed=seed)
        w, f, s1 = np.zeros(paths), np.zeros(paths), np.zeros(paths)
        if a > 0:  # W_a on stream 3, as the real pass draws it
            w = next(st.BrownianDriver(1, a, 1, seed).increments(paths, batch=3))[:, 0]
        for inc in st.BrownianDriver(1, b - a, steps, seed).increments(paths):
            dw = inc[:, 0]
            s1 += w * dw
            w = w + dw
            f += np.sin(w) * dw
        demo["EFS1"], demo["EFS1_sd"] = float(np.mean(f * s1)), float(np.std(f * s1))
        return demo

    monkeypatch.setattr(st, "riemann_gap_demo", anticipating)
    checks = {c.check_id: c for c in _path_checks(steps=steps, paths=20_000, seed=1)}
    assert not checks["stoch.product"].passed
    assert checks["stoch.isometry"].passed and checks["stoch.variance"].passed
    checks = {c.check_id: c for c in riemann_checks(0.5, 1.5, steps, 20_000, seed=1)}
    assert not checks["stoch.product"].passed
    assert checks["stoch.isometry"].passed and checks["stoch.variance"].passed


def faulty_sweep(fault):
    """`terminal_gap_sweep` with the gradient of step i read at time
    T - t_{i+1} ("late-time") or at the post-step W ("post-step")."""
    def sweep(surface, T, steps_list, paths, seed=0):
        finest = max(steps_list)
        fine = np.stack(list(st.BrownianDriver(2, T, finest, seed=seed).increments(
            paths, batch=6)))
        out = []
        for n in sorted(steps_list):
            X = surface.value(T, np.zeros((1, 2)))[0]
            W = np.zeros((paths, 2))
            for i, dW in enumerate(fine.reshape(n, finest // n, paths, 2).sum(axis=1)):
                if fault == "post-step":
                    W = W + dW
                grad = surface.gradient(T - (i + (fault == "late-time")) * T / n, W)
                X = X + grad[:, 0] * dW[:, 0] + grad[:, 1] * dW[:, 1]
                if fault != "post-step":
                    W = W + dW
            sq = np.abs(X - surface.value(0.0, W)) ** 2
            out.append((sq.mean(), sq.std(), np.mean((sq - sq.mean()) ** 3)))
        return np.array(out)
    return sweep


@pytest.mark.parametrize("seed", [1, 5])
def test_terminal_order_fails_on_a_late_gradient_time(monkeypatch, seed):
    # the integrand of step i read at T - t_{i+1}: the skew-corrected t
    # reads 21.0-21.6 at N = 4 (the plain z 13.0-13.3)
    monkeypatch.setattr(st, "terminal_gap_sweep", faulty_sweep("late-time"))
    [check] = [c for c in _path_checks(steps=32, paths=256, seed=seed)
               if c.check_id == "stoch.terminal-order"]
    assert not check.passed and check.value > 12.0


def test_terminal_order_fails_on_the_post_step_gradient(monkeypatch):
    # the integrand read at W_{t_{i+1}} anticipates the increment: z reads
    # 20-33 on every rung, and the gate's skew-corrected t 26-48
    monkeypatch.setattr(st, "terminal_gap_sweep", faulty_sweep("post-step"))
    sweep = st.terminal_gap_sweep(st.GaussianMix.single(sigma2=0.8), 4.0, LADDER, 4096,
                                  seed=1)
    for (mean, sd, _), n in zip(sweep, LADDER):
        assert (mean - st.strong_error_oracle(0.8, 4.0, n)) / (sd / np.sqrt(4096)) > 15.0
    assert not _terminal_order_check(4096, 1).passed


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
    # against the exact mean of its own scheme, the residual is noise: mean
    # z^2 near 1, under the target 1 + 5/16
    check = fast_conditioning(13)
    assert check.passed and 0.8 <= check.value <= 1.2, check.value


def score_against(monkeypatch, oracle_of):
    """Make the conditioning study return oracle_of(result) as its oracle."""
    study = st.ab_by_conditioning

    def patched(*args, **kwargs):
        res = study(*args, **kwargs)
        return replace(res, oracle=oracle_of(res))

    monkeypatch.setattr(st, "ab_by_conditioning", patched)


def test_conditioning_fails_against_the_wrong_chirality(monkeypatch):
    # the matrix-A martingale represents the conjugate multiplier: scored
    # against the other chirality, most bins disagree
    score_against(monkeypatch, lambda res: np.conj(res.oracle))
    assert not fast_conditioning(1).passed


@pytest.mark.parametrize("oracle", ["scaled", "limit"])
@pytest.mark.parametrize("seed", [1, 5])
def test_conditioning_fails_against_a_biased_oracle(monkeypatch, oracle, seed):
    # the fast tier's 50 steps against the oracle scaled by 1.10 read mean
    # z^2 1.96-2.11, and against conj_ab, the limit of the scheme, 3.13-3.26
    # (seeds 1 and 5), over the target 1.3125
    score_against(monkeypatch, lambda res: 1.10 * res.oracle if oracle == "scaled"
                  else res.limit)
    check = fast_conditioning(seed)
    assert not check.passed, check.value


def test_conditioning_fails_against_a_biased_oracle_at_full_size(monkeypatch):
    # the full tier's 231 paths per bin, 24 bins and 320 steps at criterion
    # 8's seed read mean z^2 0.986 against the oracle, and 1.846 against the
    # oracle scaled by 1.05, over the target 1 + 5/24
    score_against(monkeypatch, lambda res: 1.05 * res.oracle)
    [check] = conditioning_checks(paths=231, bins=24, steps=320, seed=8)
    assert not check.passed, check.value


def test_conditioning_false_failure_rate():
    # the fast tier's mean z^2 reads 0.909-1.151 at seeds 1-40 (mean 1.028,
    # sd 0.060), so 0 of 40 seeds exceed 1 + 5/16; one false failure in
    # seeds 1-20 fails this
    values = {seed: fast_conditioning(seed).value for seed in range(1, 21)}
    assert max(values.values()) <= 1.0 + 5.0 / 16, values


def test_conditioning_holds_with_more_paths():
    # more paths shrink the standard error, so a bias of the oracle against
    # the bridges would show here
    for seed in (5, 6):
        assert fast_conditioning(seed, paths=208).passed, seed


def bin_mesh(bins):
    """The bin centers of `ab_by_conditioning`, shape (bins, bins, 2)."""
    centers = -3.0 + (np.arange(bins) + 0.5) * (6.0 / bins)
    return np.stack(np.meshgrid(centers, centers, indexing="ij"), axis=-1)


def test_bridge_oracle_converges_to_the_transform_at_first_order():
    # with N = T^2/4 both the horizon bias (about 0.87/T) and the grid bias
    # (about T/N) fall as 1/T: max |oracle - conj_ab| over 16^2 bins reads
    # 3.85e-2, 2.03e-2, 1.05e-2 and 5.3e-3 at T = 20, 40, 80 and 160
    surf = st.GaussianMix.single(sigma2=1.0)
    mesh = bin_mesh(16)
    gaps = [float(np.max(np.abs(st.bridge_oracle(surf, T, int(T * T / 4), mesh)
                                - surf.conj_ab(mesh))))
            for T in (20.0, 40.0, 80.0, 160.0)]
    ratios = np.divide(gaps[:-1], gaps[1:])
    assert np.all((ratios > 1.85) & (ratios < 2.05)), gaps
    assert gaps[-1] < 6e-3, gaps


@pytest.mark.parametrize("seed", [2, 3, 4, 5])
def test_bridge_oracle_matches_monte_carlo_on_shifted_bumps(seed):
    # three bumps off the origin with complex amplitudes: the closed form's
    # shifted terms against 2,000 bridges per bin, T = 20, 40 steps; mean
    # z^2 reads 0.75-1.14 over seeds 2-5, and 22.8-41.3 against conj_ab
    surf = st.GaussianMix.random(np.random.default_rng(seed), 3)
    res = st.ab_by_conditioning(surf, T=20.0, paths=2000, bins=8, steps=40, seed=seed)
    z2 = lambda ref: float(np.mean(np.abs(res.estimate - ref) ** 2 / res.stderr ** 2))
    assert z2(res.oracle) <= 1.0 + 5.0 / 8, z2(res.oracle)
    assert z2(res.limit) > 10.0, z2(res.limit)


@pytest.mark.parametrize("surface, bound", [
    (st.GaussianMix.single(sigma2=1.0), 5e-4),
    (st.GaussianMix.random(np.random.default_rng(1), 3), 1e-3),
])
def test_conditioning_oracle_matches_the_spectral_transform(surface, bound):
    # the study's limit, conj_ab in closed form, against the FFT multiplier
    # on a 1024^2 torus of side 32, whose nodes hold every 16- and 24-bin
    # center; the gap left is the torus's periodization of the transform's
    # 1/|x|^2 tail
    n, box = 1024, 32.0
    axis = pl.grid_axis(n, box)
    grid = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1)
    spectral = pl.apply_multiplier(pl.conj_ab_multiplier(),
                                   pl.GridField(box, surface.value(0.0, grid))).values
    for bins in (16, 24):
        res = st.ab_by_conditioning(surface, T=4.0, paths=2, bins=bins, steps=4, seed=0)
        centers = bin_mesh(bins)[:, 0, 0]
        gi = np.searchsorted(axis, centers)
        assert np.array_equal(axis[gi], centers)
        gap = np.max(np.abs(res.limit - spectral[np.ix_(gi, gi)]))
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
        "ratio_conformal": scale * np.sqrt(p * (p - 1.0) / 2.0), "steps": 50})
    checks = constant_checks(4.0, trials=10, seed=0)
    assert [(c.check_id, c.passed) for c in checks] == [
        ("stoch.plain-constant", passed), ("stoch.conformal-constant", passed)]


def test_constants_stationary_in_horizon():
    a = st.subordination_constants_mc(4.0, trials=1500, seed=17, T=8.0)
    b = st.subordination_constants_mc(4.0, trials=1500, seed=17, T=16.0)
    assert abs(a["ratio_conformal"] - b["ratio_conformal"]) < 0.2
    assert abs(a["ratio_plain"] - b["ratio_plain"]) < 0.2


def test_constants_study_draws_fifty_steps_per_surface(monkeypatch):
    # six surfaces, one 50-step pass of (trials, 2) normals each: the
    # ceilings are exact for the discrete sums, so a finer grid buys
    # nothing the checks read
    increments = st.BrownianDriver.increments
    drawn = []

    def counted(self, paths, batch=0):
        for inc in increments(self, paths, batch):
            drawn.append(inc.size)
            yield inc

    monkeypatch.setattr(st.BrownianDriver, "increments", counted)
    trials = 10
    assert st.subordination_constants_mc(4.0, trials, seed=1)["steps"] == 50
    assert sum(drawn) == 6 * 50 * trials * 2


def test_euler_sum_is_a_martingale_at_fifty_steps():
    # X_N sums grad u at the left end of each step against dW, an Ito
    # integral of a simple predictable process, so E X_N = u(T, 0) exactly
    # at any N; each part reads z 0.63 and 0.90 here.  The same sum with
    # the gradient at the right end anticipates dW: z -65 and -18
    surf = st.GaussianMix.random(np.random.default_rng(1), 3)
    T, paths = 8.0, 4000
    driver = st.BrownianDriver(2, T, 50, seed=1)
    u0 = surf.value(T, np.zeros((1, 2)))[0]
    X, _ = st.simulate(surf, driver, paths, matrices=st.A_STAR[None])
    W = np.zeros((paths, 2))
    right = np.full(paths, u0)
    for t, dW in zip(driver.times()[1:], driver.increments(paths)):
        W += dW
        grad = surf.gradient(T - t, W)
        right += grad[:, 0] * dW[:, 0] + grad[:, 1] * dW[:, 1]
    z = lambda sums: [float((np.mean(part(sums)) - part(u0))
                            / (np.std(part(sums)) / np.sqrt(paths)))
                      for part in (np.real, np.imag)]
    assert max(map(abs, z(X))) <= 3.0, z(X)
    assert max(map(abs, z(right))) > 10.0, z(right)
