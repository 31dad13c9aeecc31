import numpy as np
import pytest

from bellmanlab import planar as pl
from bellmanlab import qcmaps as qc
from bellmanlab import suite


def test_beltrami_ratio_both_variants():
    for K in (1.5, 2.0, 3.0):
        for variant in ("regular", "singular"):
            m = qc.RadialMap(K, variant)
            assert qc.beltrami_ratio(m) < 1e-8


def test_identity_map():
    m = qc.RadialMap(1.0, "regular")
    slope, spread = qc.distortion_exponent(m)
    assert slope == pytest.approx(1.0, abs=1e-12)
    z = np.array([0.3 + 0.4j, 0.9j])
    assert np.allclose(m.apply(z), z)


def test_distortion_slope_and_constancy():
    m = qc.RadialMap(3.0, "regular")
    slope, spread = qc.distortion_exponent(m)
    assert abs(slope - 1.0 / 3.0) < 1e-10
    assert spread < 1e-10  # |f(B_r)| / |B_r|^{1/K} constant in r


def test_beltrami_check_fails_on_a_scaled_dilatation(monkeypatch):
    # k x1.01 against the maps' own |f_zbar / f_z| = k: 0.01 k = 1/300 off
    k = qc.RadialMap.k
    monkeypatch.setattr(qc.RadialMap, "k", property(lambda m: 1.01 * k.fget(m)))
    [check] = suite._beltrami_checks(2.0, 1)
    assert check.value == pytest.approx(0.01 / 3.0, rel=1e-6) and not check.passed


def test_distortion_check_fails_on_a_steeper_exponent(monkeypatch):
    # f0(z) = z |z|^(1.02/K - 1): the slope is 1.02/K, 0.01 off at K = 2,
    # and |f(B_r)| / |B_r|^(1/K) is no longer constant in r
    monkeypatch.setattr(qc.RadialMap, "apply",
                        lambda m, z: z * np.abs(z) ** (1.02 / m.K - 1.0))
    [check] = suite.distortion_checks(2.0)
    assert check.value > 0.01 and not check.passed


def test_sobolev_check_fails_on_a_larger_annulus_exponent(monkeypatch):
    # the integrand |z|^(q(-1 - 1/K')) at K' = 1.02 K: the boundary moves
    # to 1 + k' with k' = (K' - 1)/(K' + 1), 0.009 off at K = 2
    annulus = qc._annulus_integral
    monkeypatch.setattr(qc, "_annulus_integral", lambda m, q, eps: annulus(
        qc.RadialMap(1.02 * m.K, m.variant), q, eps))
    [check] = suite.sobolev_checks(2.0)
    assert check.value == pytest.approx(0.009, abs=5e-4) and not check.passed


def test_weight_check_fails_on_a_shrinking_sweep(monkeypatch):
    # the i-th characteristic x0.97^i: the first step, 1.0 -> 1.0234 at
    # K = 2 and n = 128, grows by only 2.3% and turns into a drop
    ap_class = pl.ap_class
    calls = []

    def shrinking(w, sampling):
        calls.append(None)
        return ap_class(w, sampling) * 0.97 ** (len(calls) - 1)

    monkeypatch.setattr(pl, "ap_class", shrinking)
    [check] = suite.weight_checks(2.0, 3.9, 128)
    assert len(calls) == 5
    assert check.value > 1e-3 and not check.passed


def test_map_continuity_at_unit_circle():
    for variant in ("regular", "singular"):
        m = qc.RadialMap(2.0, variant)
        z = np.exp(1j * np.linspace(0, 2 * np.pi, 17))
        inner = m.apply(0.999999 * z)
        outer = m.apply(1.000001 * z)
        assert np.max(np.abs(inner - outer)) < 1e-4


def test_sobolev_converges_below_threshold():
    m = qc.RadialMap(2.0, "singular")   # k = 1/3, threshold 4/3
    rep = qc.sobolev_threshold(m, 1.2)
    assert rep["bounded"]
    # Cauchy over eps = 2^-j: increments decay geometrically at rate
    # 2^(q(1+1/K) - 2) = 2^-0.2 per octave
    inc = np.diff(rep["values"])
    assert np.all(inc[1:] / inc[:-1] < 1.0)
    assert inc[-1] / inc[0] == pytest.approx(2.0 ** (-0.2 * (len(inc) - 1)), rel=1e-6)


def test_sobolev_diverges_above_threshold_with_rate():
    m = qc.RadialMap(2.0, "singular")
    rep = qc.sobolev_threshold(m, 1.4)
    assert not rep["bounded"]
    # closed-form exponent of the blow-up: q(1+1/K) - 2 per octave (log2)
    expect = 1.4 * (1.0 + 0.5) - 2.0
    assert rep["increment_slope"] == pytest.approx(expect, abs=1e-9)


def test_sobolev_boundary_location():
    for K in (1.5, 2.0, 3.0):
        m = qc.RadialMap(K, "singular")
        q = qc.sobolev_boundary(m)
        assert abs(q - (1.0 + m.k)) < 1e-3


def test_jacobian_weight_trivial_at_p2():
    w = qc.jacobian_weight(qc.RadialMap(2.0, "regular"), 2.0, n=64)
    assert np.allclose(w.values, 1.0)
    assert pl.ap_class(w, sampling=pl.DiscSampling(stride=8)) == pytest.approx(1.0)


def test_jacobian_weight_monotone_in_p():
    m = qc.RadialMap(2.0, "regular")
    chars = []
    for p in np.linspace(2.0, 3.9, 5):
        w = qc.jacobian_weight(m, p, n=128)
        chars.append(pl.ap_class(w, sampling=pl.DiscSampling(stride=4)))
    assert all(b > a for a, b in zip(chars, chars[1:]))
    assert np.isfinite(chars[-1])


def test_jacobian_weight_range_validation():
    m = qc.RadialMap(2.0, "regular")   # 1 + 1/k = 4
    with pytest.raises(ValueError):
        qc.jacobian_weight(m, 4.0, n=64)
    with pytest.raises(ValueError):
        qc.jacobian_weight(m, 1.5, n=64)


def test_weight_product_of_averages_at_least_one():
    w = qc.jacobian_weight(qc.RadialMap(2.0, "regular"), 3.0, n=128)
    assert pl.ap_class(w, sampling=pl.DiscSampling(stride=4)) >= 1.0
