import numpy as np
import pytest

from bellmanlab import ascent
from bellmanlab import dyadic as dy
from bellmanlab import suite


def rand_fn(depth, seed=0):
    return dy.DyadicFunction(np.random.default_rng(seed).standard_normal(2 ** depth))


# ---------------------------------------------------------------------------
# Haar analysis


def test_constant_has_zero_coefficients():
    f = dy.DyadicFunction(np.full(16, 3.7))
    assert all(np.allclose(c, 0.0) for c in dy.haar_coefficients(f))


def test_root_haar_function_coefficient():
    # h_{[0,1]} sampled at depth 3: -1 left, +1 right (L2-normalized)
    vals = np.concatenate([-np.ones(4), np.ones(4)])
    coeffs = dy.haar_coefficients(dy.DyadicFunction(vals))
    assert coeffs[0][0] == pytest.approx(1.0, abs=1e-15)
    assert np.allclose(coeffs[1], 0.0) and np.allclose(coeffs[2], 0.0)


def test_parseval_random_depth8():
    # oracle: direct L2 summation of the sample values
    f = rand_fn(8, seed=1)
    coeffs = dy.haar_coefficients(f)
    lhs = sum(float(np.sum(c ** 2)) for c in coeffs) + float(f.mean) ** 2
    assert abs(lhs - f.norm(2.0) ** 2) < 1e-12


def test_synthesis_inverts_analysis():
    f = rand_fn(9, seed=2)
    g = dy.haar_synthesis(dy.haar_coefficients(f), mean=f.mean)
    assert np.allclose(g.values, f.values, atol=1e-13)


def reference_levels(values):
    """Interval averages (levels 0 .. depth) and Haar coefficients (f, h_I)
    (levels 0 .. depth-1), one interval at a time by direct summation."""
    n = len(values)
    depth = n.bit_length() - 1
    averages, coeffs = [], []
    for lev in range(depth + 1):
        block = n >> lev
        pieces = [values[i * block: (i + 1) * block] for i in range(2 ** lev)]
        averages.append(np.array([piece.sum() / block for piece in pieces]))
        if lev < depth:
            h = np.repeat([-1.0, 1.0], block // 2) * 2.0 ** (lev / 2.0)
            coeffs.append(np.array([np.dot(piece, h) / n for piece in pieces]))
    return averages, coeffs


@pytest.mark.parametrize("depth", [1, 6, 12])
def test_pyramid_matches_reference_loop(depth):
    f = rand_fn(depth, seed=20 + depth)
    averages, coeffs = reference_levels(f.values)
    got = f.all_averages()
    assert len(got) == depth + 1 and got[-1] is f.values
    assert all(np.allclose(g, a, rtol=0, atol=1e-13) for g, a in zip(got, averages))
    got = dy.haar_coefficients(f)
    assert len(got) == depth
    assert all(np.allclose(g, c, rtol=0, atol=1e-13) for g, c in zip(got, coeffs))


def test_empty_samples_are_rejected():
    with pytest.raises(ValueError, match="power of two"):
        dy.DyadicFunction(np.array([]))


@pytest.mark.parametrize("cls", [dy.DyadicFunction, dy.DyadicWeight])
def test_complex_samples_are_rejected(cls):
    with pytest.raises(ValueError, match="samples must be real"):
        cls(np.ones(8) + 0j)


def test_parseval_check_fails_without_the_finest_level(monkeypatch):
    analysis = dy.haar_coefficients
    monkeypatch.setattr(dy, "haar_coefficients", lambda f: analysis(f)[:-1])
    [parseval] = [c for c in suite._dyadic_checks(6, 1)
                  if c.check_id == "dyadic.parseval"]
    assert parseval.value > 0.1 and not parseval.passed


def fast_dyadic_check(check_id):
    """The fast tier's `check_id` entry of the dyadic checks, seed 1."""
    depth = suite.tier_params("fast")["dyadic"]["depth"]
    [check] = [c for c in suite._dyadic_checks(depth, 1) if c.check_id == check_id]
    return check


def test_contraction_check_fails_on_scaled_signs(monkeypatch):
    # signs of modulus 1.05 on level 3 stretch those Haar terms
    signs = dy.random_signs
    monkeypatch.setattr(dy, "random_signs", lambda depth, rng: [
        s * 1.05 if lev == 3 else s for lev, s in enumerate(signs(depth, rng))])
    check = fast_dyadic_check("dyadic.transform-contraction")
    assert check.value > 1.0005 and not check.passed


def test_gram_check_fails_without_the_beta_correction(monkeypatch):
    # h^w = +-2^(lev/2)/alpha on the two halves: unit-scaled, but no longer
    # w-mean zero, so it is not orthogonal to the coarser levels
    system = dy.weighted_haar_system

    def uncorrected(w):
        alpha, beta, basis = system(w)
        scale = np.concatenate([2.0 ** (lev / 2.0) / a for lev, a in enumerate(alpha)])
        return alpha, beta, np.sign(basis) * scale[:, None]

    monkeypatch.setattr(dy, "weighted_haar_system", uncorrected)
    check = fast_dyadic_check("dyadic.weighted-haar-gram")
    assert check.value > 1.0 and not check.passed


def test_haar_bounds_check_fails_on_a_scaled_alpha(monkeypatch):
    # |alpha_I| <= sqrt(<w>_I) holds with equality where Delta_I w = 0
    system = dy.weighted_haar_system

    def scaled(w):
        alpha, beta, basis = system(w)
        return [1.05 * a for a in alpha], beta, basis

    monkeypatch.setattr(dy, "weighted_haar_system", scaled)
    check = fast_dyadic_check("dyadic.weighted-haar-bounds")
    assert check.value > 0.05 and not check.passed


def test_haar_bounds_check_fails_on_a_scaled_beta(monkeypatch):
    # |beta_I| = |Delta_I w| / (2 <w>_I) exactly, so beta x1.05 reads 5% of
    # the largest |beta_I| (0.86 at the fast tier)
    system = dy.weighted_haar_system

    def scaled(w):
        alpha, beta, basis = system(w)
        return alpha, [1.05 * b for b in beta], basis

    monkeypatch.setattr(dy, "weighted_haar_system", scaled)
    check = fast_dyadic_check("dyadic.weighted-haar-bounds")
    assert check.value > 0.04 and not check.passed


def test_a_infinity_check_fails_above_the_a2_characteristic(monkeypatch):
    # [w]_Ainf = 1.02 [w]_A2 on the two-value weights: 0.02 * [w]_A2 over,
    # largest at u = 32, where [w]_A2 = 33^2 / 128
    a2 = dy.a2_dyadic
    monkeypatch.setattr(dy, "a_infinity_constant", lambda w: 1.02 * a2(w))
    check = fast_dyadic_check("dyadic.a-infinity-vs-a2")
    assert check.value == pytest.approx(0.02 * 33 ** 2 / 128) and not check.passed


def test_carleson_slope_check_fails_on_a_larger_exponent(monkeypatch):
    # sequences built at alpha + 0.1 grow like [w]_A2^0.35: the fitted slope
    # reads 0.3509 against 0.25 +- 0.05, at the full tier's depth 12 too
    caral = dy.caral_sequence
    monkeypatch.setattr(dy, "caral_sequence", lambda w, alpha: caral(w, alpha + 0.1))
    for depth in (10, 12):
        [check] = [c for c in suite._dyadic_checks(depth, 1)
                   if c.check_id == "dyadic.carleson-intensity-slope"]
        assert check.value == pytest.approx(0.3509, abs=1e-4) and not check.passed


def test_embedding_1_check_fails_on_suprema_for_infima(monkeypatch):
    # sup_L F in place of inf_L F: the left side reads 2.904 against
    # 2 B int F = 1.459.  dyadic.embedding-2 has no known-bad test: the same
    # fault reads 1.936 against 4 B int F/w = 2.186 and passes, because its
    # slack measures the input (one nonzero Carleson term, at the root, and
    # inf F ~ 1e-3), not the inequality
    pyramid = dy._pyramid
    monkeypatch.setattr(dy, "_pyramid", lambda values, *pair: pyramid(
        values, *(np.maximum if p is np.minimum else p for p in pair)))
    check = fast_dyadic_check("dyadic.embedding-1")
    assert check.value == pytest.approx(2.904, abs=1e-3) and not check.passed
    assert fast_dyadic_check("dyadic.embedding-2").passed


# ---------------------------------------------------------------------------
# Martingale transform


def constant_signs(depth, sign):
    return [np.full(2 ** lev, float(sign)) for lev in range(depth)]


def test_transform_all_plus_is_mean_removal():
    f = rand_fn(7, seed=3)
    tf = dy.martingale_transform(f, constant_signs(7, 1))
    assert np.allclose(tf.values, f.values - f.mean, atol=1e-13)


def test_transform_involution():
    f = rand_fn(7, seed=4)
    minus = constant_signs(7, -1)
    twice = dy.martingale_transform(dy.martingale_transform(f, minus), minus)
    assert np.allclose(twice.values, f.values - f.mean, atol=1e-13)


def test_transform_l2_isometry_on_mean_zero():
    rng = np.random.default_rng(6)
    f = rand_fn(8, seed=6)
    mean_zero_norm = dy.DyadicFunction(f.values - f.mean).norm(2.0)
    for _ in range(5):
        tf = dy.martingale_transform(f, dy.random_signs(8, rng))
        assert tf.norm(2.0) <= mean_zero_norm + 1e-12


def test_transform_l4_bound():
    # sharp constant p* - 1 = 3 at p = 4; random trials never exceed it
    rng = np.random.default_rng(7)
    f = rand_fn(8, seed=7)
    for _ in range(20):
        tf = dy.martingale_transform(f, dy.random_signs(8, rng))
        assert tf.norm(4.0) <= 3.0 * f.norm(4.0)


# ---------------------------------------------------------------------------
# Weight characteristics


def test_a2_constant_weight():
    assert dy.a2_dyadic(dy.DyadicWeight(np.ones(32))) == pytest.approx(1.0)


def test_a2_two_value_hand_computation():
    # oracle: the three intervals of depth <= 1 by hand; sup is at the root:
    # <w> <1/w> = (3/2)(3/4) = 9/8
    w = dy.two_value_weight(2.0, 1.0, 6)
    assert dy.a2_dyadic(w) == pytest.approx(9.0 / 8.0, abs=1e-14)


def test_a2_monotone_in_depth():
    # refinement oracle: the sup over a larger tree cannot decrease
    vals = [dy.a2_dyadic(dy.power_weight(0.5, d)) for d in (8, 10, 12)]
    assert vals[0] <= vals[1] <= vals[2]
    assert np.isfinite(vals[-1])


def test_weight_validation():
    with pytest.raises(ValueError):
        dy.DyadicWeight(np.array([1.0, -1.0]))
    # NaN compares False both ways, so `any(values <= 0)` let it through
    with pytest.raises(ValueError, match="strictly positive"):
        dy.DyadicWeight(np.array([np.nan, 1.0]))


# ---------------------------------------------------------------------------
# Weighted Haar system


def test_weighted_haar_system_reconstructs_every_haar_function():
    # h_I = alpha_I h_I^w + beta_I chi_I/sqrt(|I|) on every row; the oracle
    # h_I and chi_I/sqrt(|I|) come from bit tests on the sample index
    w = dy.DyadicWeight(np.exp(np.random.default_rng(8).standard_normal(2 ** 6)))
    alpha, beta, basis = dy.weighted_haar_system(w)
    assert basis.shape == (63, 64)
    lev = np.repeat(np.arange(6), 2 ** np.arange(6))[:, None]
    idx = np.arange(63)[:, None] - (2 ** lev - 1)
    x = np.arange(64)
    chi = ((x >> (6 - lev)) == idx) * 2.0 ** (lev / 2.0)
    h = chi * np.where((x >> (5 - lev)) & 1, 1.0, -1.0)
    recon = np.concatenate(alpha)[:, None] * basis + np.concatenate(beta)[:, None] * chi
    assert np.max(np.abs(recon - h)) < 1e-12


def test_weighted_haar_unweighted_case():
    alpha, beta, basis = dy.weighted_haar_system(dy.DyadicWeight(np.ones(16)))
    assert np.allclose(np.concatenate(alpha), 1.0)
    assert np.allclose(np.concatenate(beta), 0.0)
    # h_I^w equals h_I: on row (1, 1), value +-1/sqrt(|I|) = +-sqrt(2) on the halves
    assert np.allclose(basis[2], np.repeat([0.0, -np.sqrt(2.0), np.sqrt(2.0)], [8, 4, 4]))


def test_weighted_haar_two_value_reconstruction():
    # oracle: solve the 2x2 system by hand; w = 1 left, 4 right gives
    # beta = (4-1)/(2*2.5) = 3/5 and h_I = alpha h^w + beta chi/sqrt(|I|)
    alpha, beta, basis = dy.weighted_haar_system(dy.two_value_weight(1.0, 4.0, 5))
    assert beta[0][0] == pytest.approx(3.0 / 5.0, abs=1e-15)
    h = np.where(np.arange(32) < 16, -1.0, 1.0)
    assert np.max(np.abs(alpha[0][0] * basis[0] + beta[0][0] - h)) < 1e-14


def test_weighted_haar_bounds_and_gram():
    rng = np.random.default_rng(8)
    w = dy.DyadicWeight(np.exp(rng.standard_normal(2 ** 6)))
    alpha, beta, basis = dy.weighted_haar_system(w)
    aw = w.all_averages()
    avg = np.concatenate(aw[:-1])
    delta = np.concatenate([c[1::2] - c[0::2] for c in aw[1:]])
    assert np.all(np.abs(np.concatenate(alpha)) <= np.sqrt(avg) + 1e-12)
    assert np.all(np.abs(np.concatenate(beta)) <= np.abs(delta) / (2.0 * avg) + 1e-15)
    gram = (basis * w.values) @ basis.T / basis.shape[1]
    assert np.max(np.abs(gram - np.eye(len(basis)))) < 1e-10


def test_weighted_haar_system_needs_depth():
    with pytest.raises(ValueError, match="need depth >= 1"):
        dy.weighted_haar_system(dy.DyadicWeight(np.ones(1)))


# ---------------------------------------------------------------------------
# Carleson sequences


def test_intensity_telescoping_count():
    D = 6
    seq = dy.CarlesonSequence([np.full(2 ** lev, 2.0 ** -lev) for lev in range(D + 1)])
    assert dy.carleson_intensity(seq) == pytest.approx(D + 1.0, abs=1e-12)


def test_carleson_sequence_needs_the_root_level():
    with pytest.raises(ValueError, match="root level"):
        dy.CarlesonSequence([])


def test_caral_sequence_constant_weight_vanishes():
    seq = dy.caral_sequence(dy.DyadicWeight(np.ones(64)), alpha=0.25)
    assert dy.carleson_intensity(seq) == 0.0


def test_caral_sequence_two_value_envelope():
    # exhaustive tree summation oracle across depths
    for depth in (8, 10, 12):
        w = dy.two_value_weight(2.0, 1.0, depth)
        seq = dy.caral_sequence(w, alpha=0.25)
        intensity = dy.carleson_intensity(seq)
        assert intensity <= 4.0 * dy.a2_dyadic(w) ** 0.25


def test_embedding_constant_f():
    D = 5
    seq = dy.CarlesonSequence([np.full(2 ** lev, 2.0 ** -lev) for lev in range(D + 1)])
    f = dy.DyadicFunction(np.ones(2 ** D))
    w = dy.DyadicWeight(np.ones(2 ** D))
    lhs1, lhs2 = dy.carleson_embedding_check(seq, f, w)
    # F = w = 1: both left sides are the intensity B, under 2 B and 4 B
    assert dy.carleson_intensity(seq) == pytest.approx(D + 1.0)
    assert lhs1 == pytest.approx(D + 1.0)
    assert lhs2 == pytest.approx(D + 1.0)


def test_embedding_indicator_random_sequences():
    rng = np.random.default_rng(9)
    D = 8
    n = 2 ** D
    f = dy.DyadicFunction((np.arange(n) < n // 2).astype(float))
    w = dy.DyadicWeight(np.exp(0.5 * rng.standard_normal(n)))
    for _ in range(5):
        seq = dy.CarlesonSequence(
            [rng.uniform(0, 1, 2 ** lev) * 2.0 ** -lev for lev in range(D + 1)])
        lhs1, _ = dy.carleson_embedding_check(seq, f, w)
        assert lhs1 <= 2.0 * dy.carleson_intensity(seq) * np.mean(f.values) * (1 + 1e-12)


def test_embedding_weight_one_reduces():
    # with w = 1 the weighted left side is the plain one
    rng = np.random.default_rng(10)
    D = 6
    seq = dy.CarlesonSequence(
        [rng.uniform(0, 1, 2 ** lev) * 2.0 ** -lev for lev in range(D + 1)])
    f = dy.DyadicFunction(np.abs(rng.standard_normal(2 ** D)))
    lhs1, lhs2 = dy.carleson_embedding_check(seq, f, dy.DyadicWeight(np.ones(2 ** D)))
    assert lhs2 == pytest.approx(lhs1)


def test_embedding_rejects_negative_f():
    seq = dy.CarlesonSequence([np.zeros(1)])
    with pytest.raises(ValueError):
        dy.carleson_embedding_check(
            seq, dy.DyadicFunction(np.array([-1.0, 1.0])),
            dy.DyadicWeight(np.ones(2)))


# ---------------------------------------------------------------------------
# Square-function sums and the exponential characteristic


def test_buckley_constant_weight():
    assert dy.buckley_sum(dy.DyadicWeight(np.ones(64))) == 0.0


def test_buckley_two_value_single_term():
    # only the root contributes: (Delta w / <w>)^2 |I| = (1/(3/2))^2 = 4/9
    w = dy.two_value_weight(2.0, 1.0, 8)
    assert dy.buckley_sum(w) == pytest.approx(4.0 / 9.0, abs=1e-14)


def test_buckley_power_weight_stabilizes():
    sums = [dy.buckley_sum(dy.power_weight(0.5, d)) for d in range(8, 15)]
    inc = np.diff(sums)
    assert np.all(inc > 0)
    # geometric increments: bounded limit
    assert np.max(inc[1:] / inc[:-1]) < 0.75


def test_a_infinity_values_and_domination():
    assert dy.a_infinity_constant(dy.DyadicWeight(np.full(32, 5.0))) == pytest.approx(1.0)
    w = dy.two_value_weight(2.0, 1.0, 8)
    assert dy.a_infinity_constant(w) == pytest.approx(1.5 / np.sqrt(2.0), abs=1e-12)
    for u in (2.0, 8.0, 64.0):
        wf = dy.two_value_weight(u, 1.0, 8)
        assert dy.a_infinity_constant(wf) <= dy.a2_dyadic(wf)


# ---------------------------------------------------------------------------
# Random signs and the transform ascent


def choice_signs(depth, rng):
    """The per-level draw random_signs must reproduce."""
    return [rng.choice([-1.0, 1.0], size=2 ** lev) for lev in range(depth)]


def test_random_signs_match_per_level_choice():
    for i, child in enumerate(np.random.SeedSequence(11).spawn(50)):
        depth = 1 + i % 12
        rng, ref = np.random.default_rng(child), np.random.default_rng(child)
        got, want = dy.random_signs(depth, rng), choice_signs(depth, ref)
        assert len(got) == len(want) == depth
        assert all(np.array_equal(g, r) for g, r in zip(got, want))
        assert rng.standard_normal() == ref.standard_normal()


def ascent_of(w, p, iters, seed):
    f = np.random.default_rng(seed).standard_normal(2 ** w.depth)
    return ascent.power_ascent(f, p, iters, **dy.transform_ascent_ops(w.depth, w))


@pytest.mark.parametrize("depth", [1, 6, 12])
@pytest.mark.parametrize("p", [2.0, 4.0])
def test_mt_ascent_ratio_is_attained(depth, p):
    # the certified ratio is the public transform of the witness under the
    # returned signs, and the curve never falls
    w = dy.DyadicWeight(np.exp(rand_fn(depth, seed=depth).values))
    for seed in (0, 1, 5):
        res = ascent_of(w, p, 60, seed)
        f = dy.DyadicFunction(res.witness)
        tf = dy.martingale_transform(f, res.op)
        assert res.ratio == tf.norm(p, w) / f.norm(p, w) == res.curve[-1]
        assert np.all(np.diff(res.curve) >= 0)
        assert all(set(np.unique(s)) <= {-1.0, 1.0} for s in res.op)


def test_mt_ratio_unweighted_below_one():
    # T is a contraction of L2, and all-plus signs attain 1 on mean-zero f
    w = dy.DyadicWeight(np.ones(2 ** 7))
    assert 1.0 - 1e-9 <= ascent_of(w, 2.0, 200, 0).ratio <= 1.0 + 1e-12


def test_mt_ratio_two_value_envelope():
    w = dy.two_value_weight(2.0, 1.0, 8)
    ratio = ascent_of(w, 2.0, 200, 1).ratio
    assert ratio == pytest.approx(np.sqrt(9 / 8), abs=1e-9)
    assert ratio <= 2.0 * dy.a2_dyadic(w)


def test_mt_ratio_scale_invariance():
    w = dy.two_value_weight(3.0, 1.0, 6)
    w2 = dy.DyadicWeight(7.5 * w.values)
    for p in (2.0, 4.0):
        r1, r2 = ascent_of(w, p, 100, 2).ratio, ascent_of(w2, p, 100, 2).ratio
        assert r1 == pytest.approx(r2, rel=1e-12)


# known-bad transforms: a level drift of 5% per level, or a 5% larger top
# coefficient, is no martingale transform, and the ascent with the plain
# measure in its norm and mean step (the adjoint still weighted) cannot
# reach the weighted extremizer (h_root + 1/3 has plain mean 1/3)


def drifted(monkeypatch, scale):
    # every transform image the ascent reads is a synthesis of its coefficients
    synthesis = dy._haar_synthesis
    monkeypatch.setattr(dy, "_haar_synthesis", lambda coeffs, mean: synthesis(
        [c * scale(lev) for lev, c in enumerate(coeffs)], mean))


def test_lp_bound_fails_on_level_drift(monkeypatch):
    # at depth 10 the drift only reaches 2.7-2.98, so this runs at depth 12
    iters = suite.tier_params("full")["dyadic"]["iters"]
    assert suite._lp_bound_checks(12, iters, 1)[0].passed
    drifted(monkeypatch, lambda lev: 1.05 ** lev)
    for seed in (1, 2):
        [check] = suite._lp_bound_checks(12, iters, seed)
        assert check.value > 3.2 and not check.passed


def test_mt_envelope_fails_high_on_scaled_top_coefficient(monkeypatch):
    w = dy.two_value_weight(2.0, 1.0, 10)
    drifted(monkeypatch, lambda lev: 1.05 if lev == 0 else 1.0)
    [check] = suite.mt_envelope_checks(w, 200, 2.0, 1)
    assert check.value > 0.05 and not check.passed
    assert check.detail.startswith("ascent 1.11")


def test_mt_envelope_fails_low_with_the_plain_mean(monkeypatch):
    w = dy.two_value_weight(2.0, 1.0, 10)
    ops = dy.transform_ascent_ops
    monkeypatch.setattr(dy, "transform_ascent_ops",
                        lambda depth, w=None: {**ops(depth, w), "weight": None})
    [check] = suite.mt_envelope_checks(w, 200, 2.0, 1)
    assert check.value > 0.06 and not check.passed
    assert check.detail.startswith("ascent 1.000000000")


def test_dyadic_ascent_gates_pass_over_30_seeds():
    # the ascents are deterministic; the seed only moves the start
    params = suite.tier_params("fast")["dyadic"]
    depth, iters = params["depth"], params["iters"]
    w = dy.two_value_weight(2.0, 1.0, depth)
    for seed in range(1, 31):
        assert suite._lp_bound_checks(depth, iters, seed)[0].passed, seed
        assert suite.mt_envelope_checks(w, iters, 2.0, seed)[0].passed, seed


def gram_error(w):
    basis = dy.weighted_haar_system(w)[2]
    gram = np.einsum("ik,jk->ij", basis * w.values, basis) / basis.shape[1]
    return float(np.max(np.abs(gram - np.eye(gram.shape[0]))))


def test_suite_gram_check_reports_both_weights():
    from bellmanlab.suite import run_experiment

    seed = 1
    entries = run_experiment("dyadic", {"depth": 7, "iters": 10}, seed=seed)
    reported, = [e.value for e in entries if e.check_id == "dyadic.weighted-haar-gram"]
    two_value = gram_error(dy.two_value_weight(2.0, 1.0, 7))
    rng = np.random.default_rng(seed + 1)
    random_weight = dy.DyadicWeight(np.exp(0.7 * rng.standard_normal(2 ** 7)))
    assert reported == max(two_value, gram_error(random_weight))


def riesz_product(depth):
    """w = prod_{k <= depth} (1 + r_k / 2), r_k the k-th Rademacher digit:
    every level adds the same (Delta w / <w>)^2 mass 1 to the Buckley sum."""
    i = np.arange(2 ** depth)
    digits = (i[:, None] >> (depth - 1 - np.arange(depth))) & 1
    return dy.DyadicWeight(np.prod(1.0 + 0.5 * (1 - 2 * digits), axis=1))


def test_buckley_check_fails_on_a_riesz_product():
    # the sums grow linearly in depth: increment ratio 1, no finite limit
    [check] = suite.buckley_checks(riesz_product, 11, "Riesz product")
    assert check.value == pytest.approx(1.0, abs=1e-9) and not check.passed
    assert check.detail == "Riesz product, limit~inf"
