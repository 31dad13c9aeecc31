import numpy as np
import pytest

from bellmanlab import planar as pl
from bellmanlab import qcmaps as qc


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
