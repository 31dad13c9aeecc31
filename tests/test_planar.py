import os
import tempfile

import numpy as np
import pytest

from bellmanlab import planar as pl
from bellmanlab import suite
from memtrace import traced


def random_field(n, seed=0, box=1.0, mean_zero=False):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if mean_zero:
        v -= v.mean()
    return pl.GridField(box, v)


def strip_nyquist(values):
    """Remove the aliased +-N/2 plane, where odd symbols are ambiguous."""
    spec = np.fft.fft2(values)
    n = values.shape[0]
    spec[n // 2, :] = 0.0
    spec[:, n // 2] = 0.0
    return np.fft.ifft2(spec)


# ---------------------------------------------------------------------------
# multipliers


def test_identity_symbol_is_identity():
    f = random_field(64, seed=1)
    g = pl.apply_multiplier(lambda k1, k2: np.ones_like(k1), f)
    assert np.max(np.abs(g.values - f.values)) < 1e-13


def test_ab_on_single_mode():
    # hand evaluation of the symbol at the mode k = (1, 2) * 2 pi / L
    n, box = 64, 1.0
    X, Y = pl.grid_coordinates(n, box)
    k = 2 * np.pi / box
    f = pl.GridField(box, np.exp(1j * (k * X + 2 * k * Y)))
    out = pl.ab_transform(f)
    expect = (1 - 2j) ** 2 / 5.0
    assert np.max(np.abs(out.values - expect * f.values)) < 1e-12


def test_riesz_real_on_real():
    raw = random_field(64, seed=2).values.real.astype(complex)
    f = pl.GridField(1.0, strip_nyquist(raw).real.astype(complex))
    for g in (pl.riesz_sq(1, f), pl.riesz_sq(2, f), pl.riesz_mixed(f)):
        assert np.max(np.abs(g.values.imag)) < 1e-12


def test_riesz_squares_sum_to_identity():
    f = random_field(64, seed=3, mean_zero=True)
    s = pl.riesz_sq(1, f).values + pl.riesz_sq(2, f).values
    assert np.max(np.abs(s - f.values)) < 1e-12


def test_ab_decomposition():
    f = random_field(64, seed=4, mean_zero=True)
    dec = (pl.riesz_sq(1, f).values - pl.riesz_sq(2, f).values
           - 2j * pl.riesz_mixed(f).values)
    assert np.max(np.abs(pl.ab_transform(f).values - dec)) < 1e-12


def test_ab_isometry_512():
    f = random_field(512, seed=5, mean_zero=True)
    assert abs(pl.ab_transform(f).norm(2) - f.norm(2)) / f.norm(2) < 1e-12


def test_ab_maps_dbar_to_d():
    u = pl.gaussian_bump(512, 8.0, sigma=0.5)
    du = pl.d_z(u)
    got = pl.ab_transform(pl.d_zbar(u))
    assert np.max(np.abs(got.values - du.values)) / du.norm(2) < 1e-6


def test_conj_ab_is_conjugate_on_real():
    raw = random_field(64, seed=6).values.real.astype(complex)
    f = pl.GridField(1.0, strip_nyquist(raw).real.astype(complex))
    f = pl.GridField(1.0, f.values - f.values.mean())
    a = pl.ab_transform(f).values
    b = pl.apply_multiplier(pl.conj_ab_multiplier(), f).values
    assert np.max(np.abs(np.conj(a) - b)) < 1e-12


def test_spectral_checks_fail_on_the_wrong_chirality(monkeypatch):
    # with the conjugate symbol standing in for the transform, dbar-data no
    # longer maps to d-data and the three-term Riesz form no longer holds;
    # the round trip and the isometry do not see a chirality swap (the
    # isometry fails on a scaled symbol instead, below)
    monkeypatch.setattr(pl, "ab_transform",
                        lambda f: pl.apply_multiplier(pl.conj_ab_multiplier(), f))
    checks = {c.check_id: c for c in suite._spectral_checks(64, 1)}
    for check_id in ("planar.dbar-to-d", "planar.ab-decomposition"):
        assert checks[check_id].value > 0.1 and not checks[check_id].passed
    assert checks["planar.fft-roundtrip"].passed and checks["planar.ab-isometry"].passed


def test_roundtrip_check_fails_on_a_scaled_inverse(monkeypatch):
    # an inverse transform 1 + 1e-9 too large reads about 4.4e-9 at n = 128
    inverse = pl._ifft2
    monkeypatch.setattr(pl, "_ifft2",
                        lambda a, out: np.multiply(inverse(a, out), 1 + 1e-9, out=out))
    n = suite.tier_params("fast")["planar-spectral"]["n"]
    checks = {c.check_id: c for c in suite._spectral_checks(n, 1)}
    assert checks["planar.fft-roundtrip"].value > 1e-9
    assert not checks["planar.fft-roundtrip"].passed


def test_isometry_check_fails_on_a_scaled_symbol(monkeypatch):
    # 1.01 times the symbol stretches every mean-zero field by 1%
    symbol = pl.ab_multiplier()
    monkeypatch.setattr(pl, "ab_multiplier",
                        lambda: lambda k1, k2: 1.01 * symbol(k1, k2))
    n = suite.tier_params("fast")["planar-spectral"]["n"]
    checks = {c.check_id: c for c in suite._spectral_checks(n, 1)}
    assert checks["planar.ab-isometry"].value > 0.009
    assert not checks["planar.ab-isometry"].passed


def test_symbols_are_fresh_grids_on_fresh_axes():
    n = 32
    k1, k2 = pl._freq_axes(n, 1.0)
    assert (k1.shape, k2.shape) == ((n, 1), (1, n))
    # no call shares its axes with another, so a write cannot reach the next
    kept = k1.copy()
    scratch, _ = pl._freq_axes(n, 1.0)
    scratch[:] = 0.0
    assert np.array_equal(pl._freq_axes(n, 1.0)[0], kept)
    singular = [pl.ab_multiplier(), pl.conj_ab_multiplier(),
                pl.riesz_sq_multiplier(1), pl.riesz_sq_multiplier(2),
                pl.riesz_mixed_multiplier(), pl.riesz_diff_multiplier()]
    for mult in singular + [pl.heat_multiplier(0.0), pl.heat_multiplier(0.3)]:
        s = mult(k1, k2)
        assert s.shape == (n, n) and s.flags.writeable
        assert not np.shares_memory(s, k1) and not np.shares_memory(s, k2)
    for mult in singular:
        s = mult(k1, k2)
        assert s.dtype == complex and s[0, 0].tobytes() == bytes(16)  # +0 + 0j
    f = random_field(n, seed=11)
    before = f.values.copy()
    pl.apply_multiplier(pl.ab_multiplier(), f)
    assert np.array_equal(f.values, before)


# ---------------------------------------------------------------------------
# memory: tracemalloc counts numpy's allocations, so these bounds are
# deterministic (resident memory is not)


def test_apply_multiplier_holds_one_grid_and_a_row_block():
    # the one spectrum array, which both transforms run in and which is
    # returned, and the symbol of one block of rows with its temporaries
    # (at most four complex blocks); an N x N symbol held a second grid
    n = 256
    f = random_field(n, seed=12)
    peak, _ = traced(lambda: pl.apply_multiplier(pl.ab_multiplier(), f))
    assert peak <= 16 * n * n + 4 * 16 * pl._ROW_BLOCK * n


def test_frequency_cache_holds_no_grid():
    # nothing of a multiplier application outlives it: no cached axes or grid
    f = random_field(512, seed=13)
    _, held = traced(lambda: pl.apply_multiplier(pl.ab_multiplier(), f))
    assert held < 64 * 1024


def test_spectral_experiment_memory():
    # three n = 512 complex fields at a time, plus 2 MiB for a row block's
    # symbol and a real temporary
    params = suite.tier_params("full")["planar-spectral"]
    n = params["n"]
    peak, held = traced(lambda: suite.run_experiment("planar-spectral", params, 1))
    assert peak <= 3 * 16 * n * n + 2 * 2 ** 20
    assert held < 64 * 1024


# ---------------------------------------------------------------------------
# heat extension


def test_heat_zero_time_and_constants():
    assert np.all(pl.heat_multiplier(0.0)(*pl._freq_axes(64, 1.0)) == 1.0)
    c = pl.GridField(1.0, np.full((32, 32), 2.5 + 0j))
    for t in (0.1, 1.0, 10.0):
        out = pl.apply_multiplier(pl.heat_multiplier(t), c)
        assert np.max(np.abs(out.values - 2.5)) < 1e-12


def test_heat_negative_time_raises():
    with pytest.raises(ValueError):
        pl.heat_multiplier(-1.0)


def test_heat_gaussian_composition():
    # kernel variance is t/2 per axis: a width-sigma^2 bump becomes a
    # width-(sigma^2 + t/2) bump with mass preserved
    s2, t = 1.0, 2.0
    g = pl.gaussian_bump(256, 20.0, sigma=np.sqrt(s2))
    out = pl.apply_multiplier(pl.heat_multiplier(t), g)
    s2_new = s2 + t / 2.0
    pred = pl.gaussian_bump(256, 20.0, sigma=np.sqrt(s2_new),
                            amplitude=s2 / s2_new)
    assert np.max(np.abs(out.values - pred.values)) < 1e-8


# ---------------------------------------------------------------------------
# the heat representation of the squared Riesz transform


def bump_pair(n):
    phi = pl.gaussian_bump(n, 8.0, sigma=0.35)
    psi = pl.gaussian_bump(n, 8.0, sigma=0.45, center=(0.3, -0.15))
    return phi, psi


def test_identity113_gap_and_symmetry():
    phi, psi = bump_pair(128)
    rep = pl.identity_1_13_check(phi, psi, tmax=12.0, nt=33)
    assert rep.gap_rel < 1e-3
    swapped = pl.identity_1_13_check(psi, phi, tmax=12.0, nt=33)
    assert swapped.lhs == pytest.approx(rep.lhs, rel=1e-10)
    assert swapped.rhs == pytest.approx(rep.rhs, rel=1e-10)


def test_identity113_orthogonal_pair():
    # disjoint frequency supports in k1: both sides vanish
    n, box = 128, 8.0
    X, Y = pl.grid_coordinates(n, box)
    k = 2 * np.pi / box
    phi = pl.GridField(box, np.cos(2 * k * X))
    psi = pl.GridField(box, np.cos(9 * k * X))
    rep = pl.identity_1_13_check(phi, psi, tmax=12.0, nt=33)
    assert abs(rep.lhs) < 1e-12 and abs(rep.rhs) < 1e-10


@pytest.mark.parametrize("nt", [0, 1, 2])
def test_identity113_refuses_fewer_than_three_nodes(nt):
    # nt = 0 and 1 left one Simpson node and a gap of 3.5 at n = 16
    phi, psi = bump_pair(16)
    with pytest.raises(ValueError, match="nt >= 3"):
        pl.identity_1_13_check(phi, psi, tmax=12.0, nt=nt)


def test_heat_identity_checks_fail_on_a_shortened_heat_time(monkeypatch):
    # heat times 1% short lift the fast ladder's gaps from (1.0e-2, 4.4e-4)
    # to (4.7e-4, 9.6e-3): the finest rung misses 1e-3 and the ladder rises
    heat = pl.heat_multiplier
    monkeypatch.setattr(pl, "heat_multiplier", lambda t: heat(0.99 * t))
    ladder = suite.tier_params("fast")["planar-identity113"]["ladder"]
    finest, monotone = suite.heat_identity_checks(ladder)[-2:]
    assert finest.value > 9e-3 and not finest.passed
    assert monotone.value > 9e-3 and not monotone.passed


def test_identity113_monotone_refinement():
    gaps = []
    for n, nt, tmax in ((64, 17, 6.0), (128, 33, 12.0), (256, 65, 24.0)):
        phi, psi = bump_pair(n)
        gaps.append(pl.identity_1_13_check(phi, psi, tmax=tmax, nt=nt).gap_rel)
    assert gaps[0] > gaps[1] > gaps[2]


# ---------------------------------------------------------------------------
# weight characteristics


def radial_weight(n, box, a):
    X, Y = pl.grid_coordinates(n, box)
    r = np.maximum(np.hypot(X, Y), box / n / 4.0)
    return pl.PlanarWeight(pl.GridField(box, (r ** a).astype(complex)), p=2.0)


def test_ap_class_constant_weight():
    w = pl.PlanarWeight(pl.GridField(1.0, np.full((64, 64), 3.0 + 0j)))
    assert pl.ap_class(w, sampling=pl.DiscSampling(stride=8)) == pytest.approx(1.0)


def test_ap_class_grows_with_exponent():
    vals = [pl.ap_class(radial_weight(128, 2.0, a), sampling=pl.DiscSampling(stride=8))
            for a in (0.2, 0.5, 0.9)]
    assert vals[0] < vals[1] < vals[2]
    assert all(v >= 1.0 for v in vals)


def test_ap_class_scale_invariant():
    w = radial_weight(128, 2.0, 0.5)
    w2 = pl.PlanarWeight(pl.GridField(2.0, 7.0 * w.values.astype(complex)), p=2.0)
    s = pl.DiscSampling(stride=8)
    assert pl.ap_class(w, sampling=s) == pytest.approx(pl.ap_class(w2, sampling=s), rel=1e-12)


def test_ap_heat_constant_and_refinement_monotone():
    w = pl.PlanarWeight(pl.GridField(1.0, np.full((64, 64), 2.0 + 0j)))
    assert pl.ap_heat(w, sampling=pl.HeatSampling(stride=8)) == pytest.approx(1.0)
    wr = radial_weight(128, 2.0, 0.6)
    coarse = pl.ap_heat(wr, sampling=pl.HeatSampling(stride=8, levels=6))
    fine = pl.ap_heat(wr, sampling=pl.HeatSampling(stride=4, levels=7))
    assert fine >= coarse  # sup over a superset of sample points


def test_ap_heat_transforms_its_fields_once(monkeypatch):
    # w and its dual go forward once; each of the 9 heat times takes one
    # inverse transform per field
    calls = {"_fft2": 0, "_ifft2": 0}
    for name in calls:
        fn = getattr(pl, name)

        def counting(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(pl, name, counting)
    pl.ap_heat(radial_weight(64, 2.0, 0.5))
    assert calls == {"_fft2": 2, "_ifft2": 18}


def test_ap_two_sided_envelope():
    for a in (0.3, 0.6):
        w = radial_weight(128, 2.0, a)
        c = pl.ap_class(w, sampling=pl.DiscSampling(stride=4))
        h = pl.ap_heat(w, sampling=pl.HeatSampling(stride=4))
        assert 0.25 * c <= h <= 8.0 * c


def test_ap_two_sided_check_fails_on_one_scaled_heat_characteristic(monkeypatch):
    # the first weight's heat characteristic x10: the envelope's ratio
    # (1.025 in the fast report) goes past its bound of 8
    heat = pl.ap_heat
    scales = iter([10.0, 1.0, 1.0])
    monkeypatch.setattr(pl, "ap_heat", lambda w, sampling: next(scales) * heat(w, sampling))
    [check] = suite.ap_checks(suite.tier_params("fast")["planar-ap"]["n"])
    assert check.value > 8.0 and not check.passed


# ---------------------------------------------------------------------------
# norm ascent


def test_ascent_ab_at_p2_is_isometric():
    res = pl.norm_ratio_ascent(pl.ab_multiplier(), p=2.0, n=32, iters=10, seed=0)
    assert res.ratio == pytest.approx(1.0, abs=1e-10)


def test_ascent_monotone_and_sign_invariant():
    op = pl.riesz_diff_multiplier()
    res = pl.norm_ratio_ascent(op, p=4.0, n=32, iters=60, seed=1)
    assert np.all(np.diff(res.curve) >= 0)
    res2 = pl.norm_ratio_ascent(lambda k1, k2: -op(k1, k2), p=4.0, n=32,
                                iters=60, seed=1)
    assert res2.ratio == pytest.approx(res.ratio, rel=1e-10)


def test_ascent_monotone_fails_on_a_dropping_curve(monkeypatch):
    dropping = pl.AscentResult(ratio=1.5, witness=random_field(8),
                               curve=np.array([1.2, 1.5, 1.4, 1.5]))
    monkeypatch.setattr(pl, "norm_ratio_ascent", lambda *args, **kw: dropping)
    checks = {c.check_id: c for c in suite.ascent_checks("r11-r22", 4.0, 8, 3, 0)}
    assert checks["planar.ascent-monotone"].value == pytest.approx(0.1)
    assert not checks["planar.ascent-monotone"].passed


@pytest.mark.parametrize("curve", [[np.nan], [1.2, np.nan, 1.5], [1.2, np.inf]])
def test_ascent_monotone_fails_on_a_curve_that_is_not_finite(monkeypatch, curve):
    # a one-value NaN curve used to read 0.0 and pass
    broken = pl.AscentResult(ratio=np.nan, witness=random_field(8), curve=np.array(curve))
    monkeypatch.setattr(pl, "norm_ratio_ascent", lambda *args, **kw: broken)
    checks = {c.check_id: c for c in suite.ascent_checks("r11-r22", 4.0, 8, 3, 0)}
    assert not checks["planar.ascent-monotone"].passed


def test_ascent_ratio_is_achieved():
    # the reported ratio must be reproducible from the witness
    res = pl.norm_ratio_ascent(pl.riesz_diff_multiplier(), p=4.0, n=32,
                               iters=60, seed=2)
    w = res.witness
    out = pl.apply_multiplier(pl.riesz_diff_multiplier(), w)
    assert out.norm(4.0) / w.norm(4.0) == pytest.approx(res.ratio, rel=1e-12)


# ---------------------------------------------------------------------------
# field files


def test_field_roundtrip():
    f = random_field(32, seed=8, box=2.5)
    path = tempfile.mktemp(suffix=".blf")
    try:
        pl.write_field(path, f)
        g = pl.read_field(path)
        assert g.box == f.box
        assert np.array_equal(g.values, f.values)
    finally:
        os.remove(path)


def test_field_bad_magic():
    path = tempfile.mktemp()
    try:
        with open(path, "wb") as fh:
            fh.write(b"nope" + b"\0" * 64)
        with pytest.raises(ValueError):
            pl.read_field(path)
    finally:
        os.remove(path)
