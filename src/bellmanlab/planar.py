"""Spectral operators on a periodic planar grid.

Fields live on an N x N grid over the torus [-L/2, L/2)^2 and operators
are Fourier multipliers applied with the FFT.  Frequency convention: a
field is sum_k fhat(k) e^{i k.x} with k = 2 pi / L * integer vector, so
d/dx_j acts as multiplication by i k_j and the Wirtinger derivatives are

    d    = (d_1 - i d_2)/2  <->  (i/2)(k_1 - i k_2),
    dbar = (d_1 + i d_2)/2  <->  (i/2)(k_1 + i k_2).

The transform that maps dbar-derivatives to d-derivatives therefore has
symbol ((k_1 - i k_2)/|k|)^2; its complex conjugate ((k_1 + i k_2)/|k|)^2
is realized by the stochastic-martingale construction and is exposed as
conj_ab_multiplier.  Both are isometries of mean-zero L^2.  The squared
Riesz multipliers are taken with the positive signs k_j^2/|k|^2 (so that
their sum is the identity on mean-zero fields); with that convention the
transform decomposes as R_1^2 - R_2^2 - 2i R_1R_2 and the quadratic-form
representation through heat extensions carries a positive sign.

A multiplier is its symbol (k1, k2) -> array, zero mode included.  The
symbol is evaluated on broadcastable frequency axes, k1 a column and k2 a
row, and its value must broadcast to the len(k1) x N block they span.
Row r of a symbol depends only on k1[r] and k2, so a multiplier may be
applied a block of rows at a time.  Singular symbols are 0 at the zero
frequency: every such operator acts on the mean-zero part of its input
and returns a mean-zero field.

Band edge: symbols are evaluated at the canonical fftfreq representative,
so the Nyquist plane (where +N/2 and -N/2 alias) picks the negative sign.
Symbols odd in a frequency variable (the mixed Riesz product, the
imaginary part of the transform) are therefore not Hermitian on that
plane, and real-structure statements hold on fields without Nyquist
content -- in particular on every smooth, spatially decaying test field
used here.  Multiplier application is exact on band-limited inputs.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .ascent import AscentResult, power_ascent


@dataclass
class GridField:
    """N x N complex samples on the torus [-L/2, L/2)^2, row-major in x1."""

    box: float
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.ndim != 2 or self.values.shape[0] != self.values.shape[1]:
            raise ValueError("values must be a square 2-d array")
        n = self.values.shape[0]
        if n & (n - 1):
            raise ValueError("grid size must be a power of two")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def cell_area(self) -> float:
        return (self.box / self.n) ** 2

    def norm(self, p: float = 2.0) -> float:
        """L^p norm over the box."""
        return float((np.sum(np.abs(self.values) ** p) * self.cell_area) ** (1 / p))


def grid_axis(n: int, box: float) -> np.ndarray:
    """The n torus-grid points of a side of the box, centered on 0."""
    return (np.arange(n) - n // 2) * box / n


def grid_coordinates(n: int, box: float):
    x = grid_axis(n, box)
    return np.meshgrid(x, x, indexing="ij")


def gaussian_bump(n: int, box: float, sigma: float = 1.0, center=(0.0, 0.0)) -> GridField:
    X, Y = grid_coordinates(n, box)
    cx, cy = center
    return GridField(box, np.exp(-((X - cx) ** 2 + (Y - cy) ** 2) / (2 * sigma ** 2)))


def _freq_axes(n: int, box: float):
    """Frequency axes: k1 a column (n, 1), k2 a row (1, n)."""
    k = 2.0 * np.pi / box * np.fft.fftfreq(n) * n
    return k[:, None], k[None, :]


def _safe_ratio(num, den):
    """num / den, 0 where den == 0, divided in num's complex temporary."""
    out = np.asarray(num, dtype=complex)
    if out.shape != den.shape:
        out = np.broadcast_to(out, den.shape).copy()
    np.divide(out, den, out=out, where=den != 0)
    out[den == 0] = 0
    return out


def ab_multiplier() -> Callable:
    """Symbol ((k1 - i k2)^2 / |k|^2: maps dbar-data to d-data."""
    return lambda k1, k2: _safe_ratio((k1 - 1j * k2) ** 2, k1 ** 2 + k2 ** 2)


def conj_ab_multiplier() -> Callable:
    """Symbol (k1 + i k2)^2 / |k|^2, the conjugate chirality (the one the
    stochastic matrix-transform representation produces)."""
    return lambda k1, k2: _safe_ratio((k1 + 1j * k2) ** 2, k1 ** 2 + k2 ** 2)


def riesz_sq_multiplier(i: int) -> Callable:
    if i not in (1, 2):
        raise ValueError("axis must be 1 or 2")
    return lambda k1, k2: _safe_ratio((k1 if i == 1 else k2) ** 2, k1 ** 2 + k2 ** 2)


def riesz_mixed_multiplier() -> Callable:
    return lambda k1, k2: _safe_ratio(k1 * k2, k1 ** 2 + k2 ** 2)


def riesz_diff_multiplier() -> Callable:
    """R_1^2 - R_2^2 in one multiplier (the real part of the transform)."""
    return lambda k1, k2: _safe_ratio(k1 ** 2 - k2 ** 2, k1 ** 2 + k2 ** 2)


def _ifft2(a, out: np.ndarray) -> np.ndarray:
    """The inverse 2-d FFT of a, written into out (which may be a itself)
    and returned.  numpy's ifft2 ignores its out= and makes two arrays of
    its own, while ifftn over the last two axes honours it and runs the
    same two passes, so the result has the same bits."""
    return np.fft.ifftn(a, axes=(-2, -1), out=out)


# rows of the spectrum that one evaluation of a symbol covers
_ROW_BLOCK = 32


def apply_multiplier(mult: Callable, f: GridField) -> GridField:
    """mult applied to f through one spectrum array, which is returned.

    The symbol is evaluated on _ROW_BLOCK rows of the frequency grid at a
    time, mult(k1[r:r + _ROW_BLOCK], k2), and multiplies those rows of the
    spectrum in place; so row r of the symbol must depend only on k1[r]
    and k2, and no N x N symbol is ever held."""
    k1, k2 = _freq_axes(f.n, f.box)
    spec = np.fft.fft2(f.values, out=np.empty_like(f.values))
    for r in range(0, f.n, _ROW_BLOCK):
        rows = spec[r:r + _ROW_BLOCK]
        # the symbol stays the first operand: a complex product under FMA
        # need not have the bits of its swap
        np.multiply(mult(k1[r:r + _ROW_BLOCK], k2), rows, out=rows)
    return GridField(f.box, _ifft2(spec, spec))


def ab_transform(f: GridField) -> GridField:
    return apply_multiplier(ab_multiplier(), f)


def riesz_sq(i: int, f: GridField) -> GridField:
    return apply_multiplier(riesz_sq_multiplier(i), f)


def riesz_mixed(f: GridField) -> GridField:
    return apply_multiplier(riesz_mixed_multiplier(), f)


def d_z(f: GridField) -> GridField:
    return apply_multiplier(lambda k1, k2: 0.5j * (k1 - 1j * k2), f)


def d_zbar(f: GridField) -> GridField:
    return apply_multiplier(lambda k1, k2: 0.5j * (k1 + 1j * k2), f)


def heat_multiplier(t: float) -> Callable:
    """Symbol exp(-t |k|^2 / 4) of the heat extension with kernel
    (pi t)^-1 exp(-|x-y|^2/t); t = 0 gives the identity."""
    if t < 0:
        raise ValueError("t must be >= 0")
    return lambda k1, k2: np.exp(-t * (k1 ** 2 + k2 ** 2) / 4.0)


# ---------------------------------------------------------------------------
# The quadratic-form representation of the squared Riesz transform


def _simpson(y, x) -> float:
    """Composite Simpson rule for samples y at an odd number of nodes x, with
    each panel's weights for uneven spacing h0, h1 (Cartwright 2017)."""
    h = np.diff(x)
    h0, h1 = h[0::2], h[1::2]
    hsum = h0 + h1
    h0divh1 = h0 / h1
    return float(np.sum(hsum / 6.0 * (y[:-2:2] * (2.0 - 1.0 / h0divh1)
                                      + y[1::2] * (hsum * (hsum / (h0 * h1)))
                                      + y[2::2] * (2.0 - h0divh1))))


@dataclass
class Identity113Report:
    lhs: float
    rhs: float
    gap_rel: float


def identity_1_13_check(phi: GridField, psi: GridField, tmax: float,
                        nt: int) -> Identity113Report:
    """Compare int R_1^2 phi . psi dx against (1/2) * the time-integrated
    product of heat-extended x1-derivatives,

        int R_1^2 phi . psi = (1/2) int_0^inf int d_1 phi(.,t) d_1 psi(.,t) dx dt

    (the prefactor is 1/2 under this module's heat normalization and
    positive squared-Riesz convention).  The t-integral uses Simpson on
    log-spaced nodes over [t_min, tmax], t_min = (L/N)^2, a Simpson head
    on [0, t_min], and an exponential tail fitted on the last nodes.
    Both fields should vanish at the box edge; nothing checks that here.
    """
    if phi.n != psi.n or phi.box != psi.box:
        raise ValueError("fields must share a grid")
    if nt < 3:
        raise ValueError(f"need nt >= 3 Simpson nodes, got {nt}")
    n, box = phi.n, phi.box
    tmin = (box / n) ** 2
    if not tmax > tmin:
        raise ValueError(f"need tmax > t_min = (L/N)^2 = {tmin:g}, got {tmax:g}")
    dA = phi.cell_area
    k1, k2 = _freq_axes(n, box)
    P = np.fft.fft2(phi.values, out=np.empty_like(phi.values))
    S = np.fft.fft2(psi.values, out=np.empty_like(psi.values))
    # two fields rewritten at each t: the heat-extended x1-derivatives
    d1p, d1s = np.empty_like(P), np.empty_like(S)
    _ifft2(np.multiply(riesz_sq_multiplier(1)(k1, k2), P, out=d1p), d1p)
    d1p *= psi.values
    lhs = float(np.real(np.sum(d1p) * dA))

    def g(t):
        kd = 1j * k1 * heat_multiplier(t)(k1, k2)
        _ifft2(np.multiply(kd, P, out=d1p), d1p)
        _ifft2(np.multiply(kd, S, out=d1s), d1s)
        return float(np.real(np.sum(np.multiply(d1p, d1s, out=d1p))) * dA)

    nt |= 1  # Simpson wants an odd count
    s = np.linspace(np.log(tmin), np.log(tmax), nt)
    ts = np.exp(s)
    gs = np.array([g(t) for t in ts])
    body = _simpson(gs * ts, s)
    head = (tmin / 6.0) * (g(0.0) + 4.0 * g(tmin / 2.0) + gs[0])
    ntail = max(5, nt // 8)
    tail = 0.0
    tt, gg = ts[-ntail:], gs[-ntail:]
    if np.all(gg > 0):
        coeffs, *_ = np.linalg.lstsq(
            np.vstack([np.ones_like(tt), -tt]).T, np.log(gg), rcond=None)
        if coeffs[1] > 0:
            tail = float(gs[-1] / coeffs[1])
    total = head + body + tail
    rhs = 0.5 * total
    gap = abs(lhs - rhs) / max(abs(lhs), 1e-300)
    return Identity113Report(lhs=lhs, rhs=rhs, gap_rel=gap)


# ---------------------------------------------------------------------------
# Planar weight characteristics


@dataclass
class PlanarWeight:
    """Positive real field together with the exponent p it is used at."""

    field: GridField
    p: float = 2.0

    def __post_init__(self):
        v = self.field.values
        if np.any(v.real <= 0) or np.any(v.imag != 0):
            raise ValueError("weight must be strictly positive and real")
        if self.p <= 1:
            raise ValueError("p must exceed 1")

    @property
    def values(self) -> np.ndarray:
        return self.field.values.real


@dataclass(frozen=True)
class DiscSampling:
    """Disc centers on every stride-th grid point; dyadic radii
    box/2^j for j = 1 .. 5."""

    stride: int = 8


@dataclass(frozen=True)
class HeatSampling:
    """Heat-extension times box^2/4^j for j = 0 .. levels, centers on a
    stride-subgrid."""

    stride: int = 4
    levels: int = 8


def _sup_characteristic(w: PlanarWeight, kernels, stride: int) -> float:
    """max(1, sup of <w> <w^{-1/(p-1)}>^{p-1}), p = w.p, over the averages
    real(ifft2(spectrum * K)) / mass of w and its dual for each (K, mass)
    in `kernels`, sampled on a stride-subgrid.  w and its dual are
    transformed once for all kernels."""
    W = np.fft.fft2(w.values, out=np.empty(w.values.shape, complex))
    D = np.fft.fft2(w.values ** (-1.0 / (w.p - 1.0)), out=np.empty_like(W))
    bw, bd = np.empty_like(W), np.empty_like(D)  # the averages, per kernel
    best = 1.0
    for K, mass in kernels:
        aw = _ifft2(np.multiply(W, K, out=bw), bw).real / mass
        ad = _ifft2(np.multiply(D, K, out=bd), bd).real / mass
        char = aw[::stride, ::stride] * ad[::stride, ::stride] ** (w.p - 1.0)
        best = max(best, float(np.max(char)))
    return best


def ap_class(w: PlanarWeight, sampling: DiscSampling = DiscSampling()) -> float:
    """sup over sampled discs of <w>_B <w^{-1/(p-1)}>_B^{p-1}, p = w.p.

    Disc averages are periodic FFT convolutions with the disc indicator
    over its point count."""
    n, box = w.field.n, w.field.box
    # squared distance to the origin of the torus, at index (0, 0)
    dist2 = sum(np.roll(c, (n // 2, n // 2), (0, 1)) ** 2
                for c in grid_coordinates(n, box))

    def discs():
        for j in range(1, 6):
            # the disc always holds its center, so count >= 1
            mask = dist2 <= (box / 2 ** j) ** 2
            yield np.fft.fft2(mask), mask.sum()

    return _sup_characteristic(w, discs(), sampling.stride)


def ap_heat(w: PlanarWeight, sampling: HeatSampling = HeatSampling()) -> float:
    """sup over sampled (x, t) of w(x,t) (w^{-1/(p-1)}(x,t))^{p-1}, p = w.p,
    the extensions taken with this module's heat kernel."""
    k1, k2 = _freq_axes(w.field.n, w.field.box)
    times = (w.field.box ** 2 / 4.0 ** j for j in range(sampling.levels + 1))
    return _sup_characteristic(
        w, ((heat_multiplier(t)(k1, k2), 1.0) for t in times), sampling.stride)


# ---------------------------------------------------------------------------
# Lower bounds on multiplier norms by ascent


def norm_ratio_ascent(op: Callable, p: float, n: int, iters: int,
                      seed: int = 0) -> AscentResult:
    """Maximize ||op f||_p / ||f||_p over mean-zero fields on the unit box
    by `ascent.power_ascent` from a complex Gaussian field; the ratio is a
    certified lower bound for the discretized operator norm."""
    m = op(*_freq_axes(n, 1.0))
    rng = np.random.default_rng(seed)
    # a GridField, so that a grid size it refuses is refused before the ascent
    f = GridField(1.0, rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))

    def through(symbol):  # ifft2(symbol fft2(v)), both transforms run in out
        return lambda _, v, out: _ifft2(np.multiply(symbol, np.fft.fft2(v, out=out), out=out), out)

    res = power_ascent(f.values, p, iters, apply=through(m), adjoint=through(np.conj(m)))
    return res._replace(witness=GridField(1.0, res.witness))


# ---------------------------------------------------------------------------
# Field files: magic, N, L header then N^2 little-endian (re, im) pairs


_MAGIC = b"BLF1"


def write_field(path, f: GridField) -> None:
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", f.n))
        fh.write(struct.pack("<d", f.box))
        inter = np.empty((f.n, f.n, 2))
        inter[:, :, 0] = f.values.real
        inter[:, :, 1] = f.values.imag
        fh.write(inter.astype("<f8").tobytes())


def read_field(path) -> GridField:
    with open(path, "rb") as fh:
        if fh.read(4) != _MAGIC:
            raise ValueError("not a field file")
        n = struct.unpack("<I", fh.read(4))[0]
        box = struct.unpack("<d", fh.read(8))[0]
        raw = np.frombuffer(fh.read(16 * n * n), dtype="<f8").reshape(n, n, 2)
        return GridField(box, raw[:, :, 0] + 1j * raw[:, :, 1])
