"""Uniformly sampled signals with 2*pi-in-exponent Fourier analysis.

A :class:`SampledSignal` stands in for a function in L2(R): complex
samples on a uniform grid, treated as zero outside the sampled window.
The Fourier convention throughout is

    fhat(w) = integral f(t) exp(-2*pi*i*t*w) dt,

realized as a dt-scaled DFT with frequencies centered at zero, which
makes the transform exactly unitary on the grid (Plancherel to
roundoff) and the standard Gaussian ``exp(-pi t^2)`` self-dual.

Elementary operators (translate, modulate, dilate), moments and
vanishing-moment counting, antiderivatives and spectral derivatives
live here; all are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .groups import _complex_samples, _finite_float, _finite_number, _integer, _known_keys

__all__ = [
    "SampledSignal",
    "Spectrum",
    "gaussian",
    "mexican_hat",
    "haar_wavelet",
    "signal_from_spectrum_profile",
    "l2_norm",
    "inner",
    "fourier",
    "inverse_fourier",
    "translate",
    "modulate",
    "dilate",
    "moments",
    "MomentReport",
    "vanishing_moment_count",
    "antiderivative",
    "derivative",
]

_MAX_MOMENT_COUNT = 32
_DERIVATIVE_KEEP_FRACTION = 0.9  # top 10% of |w| zeroed to suppress ringing


@dataclass(frozen=True)
class SampledSignal:
    """Complex samples on the uniform grid ``t0 + dt*arange(N)``."""

    t0: float
    dt: float
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.complex128)
        if vals.ndim != 1 or vals.size < 2:
            raise ValueError("need a 1-d sample array of length >= 2")
        if not np.all(np.isfinite(vals)):
            raise ValueError("non-finite value in a signal")
        _finite_number(self.t0, "t0")
        if _finite_number(self.dt, "dt") <= 0:
            raise ValueError("dt must be positive")
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return self.values.size

    def grid(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n)

    def same_grid(self, other: "SampledSignal") -> bool:
        return (
            self.n == other.n
            and abs(self.t0 - other.t0) <= 1e-12 * max(1.0, abs(self.t0))
            and abs(self.dt - other.dt) <= 1e-12 * self.dt
        )

    def with_values(self, values) -> "SampledSignal":
        return SampledSignal(self.t0, self.dt, values)

    def to_dict(self) -> dict:
        return {
            "t0": self.t0,
            "dt": self.dt,
            "re": self.values.real.tolist(),
            "im": self.values.imag.tolist(),
        }

    @staticmethod
    def from_dict(d: dict) -> "SampledSignal":
        _known_keys(d, ("t0", "dt", "re", "im"), "signal")
        return SampledSignal(_finite_float(d["t0"], "t0"), _finite_float(d["dt"], "dt"),
                             _complex_samples(d))


@dataclass(frozen=True)
class Spectrum:
    """Frequency samples on ``w0 + dw*arange(N)``; ``dw = 1/(N*dt)``."""

    w0: float
    dw: float
    values: np.ndarray
    t_origin: float = 0.0  # time origin carried along for exact roundtrips

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.complex128)
        if vals.ndim != 1 or vals.size < 2:
            raise ValueError("need a 1-d spectrum of length >= 2")
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return self.values.size

    def grid(self) -> np.ndarray:
        return self.w0 + self.dw * np.arange(self.n)

    def interpolate(self, w) -> np.ndarray:
        """Cubic-spline interpolation of the spectrum; zero outside the band.

        Spectra of decaying windows are smooth in the bin variable, so a
        cubic fit keeps scale-resampled window evaluations (as used by the
        wavelet transform) well below the chart quadrature error.  The
        spline is built on the first call and kept with the spectrum.
        """
        w = np.asarray(w, dtype=float)
        g = self.grid()
        c0, c1, c2, c3 = self._spline
        inside = (w >= g[0]) & (w <= g[-1])
        x = np.where(inside, (w - self.w0) / self.dw, 0.0)
        i = np.minimum(x.astype(np.intp), self.n - 2)
        s = w - g[i]
        out = ((c0[i] * s + c1[i]) * s + c2[i]) * s + c3[i]
        return np.where(inside, out, 0.0 + 0.0j)

    @cached_property
    def _spline(self):
        """Power-form coefficients, one set per bin, of the not-a-knot cubic spline."""
        h = np.diff(self.grid())
        d = np.diff(self.values) / h
        m = _not_a_knot_slopes(h, d)
        t = (m[:-1] + m[1:] - 2.0 * d) / h
        return t / h, (d - m[:-1]) / h - t, m[:-1], self.values[:-1]

    def dc_index(self) -> int:
        return int(round(-self.w0 / self.dw))


def _not_a_knot_slopes(h: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Node slopes of the not-a-knot cubic spline with bin widths ``h`` and slopes ``d``.

    The rows are the slope-continuity equations
    ``h[i] m[i-1] + 2 (h[i-1] + h[i]) m[i] + h[i-1] m[i+1] = 3 (h[i] d[i-1]
    + h[i-1] d[i])`` with not-a-knot end rows, the system scipy's
    ``CubicSpline`` solves, here by one Thomas sweep: elimination without
    pivoting, whose pivots on a near-uniform grid stay between ``0.4 h``
    and ``4 h``.  With two or three nodes the spline is the line or
    parabola through them.
    """
    n = d.size + 1
    if n == 2:
        return np.array([d[0], d[0]])
    if n == 3:
        m1 = (h[1] * d[0] + h[0] * d[1]) / (h[0] + h[1])
        return np.array([2.0 * d[0] - m1, m1, 2.0 * d[1] - m1])
    sub = [0.0] + h[1:].tolist() + [h[-2] + h[-1]]
    diag = [h[1]] + (2.0 * (h[:-1] + h[1:])).tolist() + [h[-2]]
    sup = [h[0] + h[1]] + h[:-1].tolist()
    rhs = (
        [((h[0] + 2.0 * sup[0]) * h[1] * d[0] + h[0] ** 2 * d[1]) / sup[0]]
        + (3.0 * (h[1:] * d[:-1] + h[:-1] * d[1:])).tolist()
        + [(h[-1] ** 2 * d[-2] + (2.0 * sub[-1] + h[-1]) * h[-2] * d[-1]) / sub[-1]]
    )
    for i in range(1, n):
        f = sub[i] / diag[i - 1]
        diag[i] -= f * sup[i - 1]
        rhs[i] -= f * rhs[i - 1]
    rhs[-1] /= diag[-1]
    for i in range(n - 2, -1, -1):
        rhs[i] = (rhs[i] - sup[i] * rhs[i + 1]) / diag[i]
    return np.array(rhs, dtype=d.dtype)


def _grid_signal(t_lo: float, t_hi: float, n: int, fn) -> SampledSignal:
    dt = (t_hi - t_lo) / n
    t = t_lo + dt * np.arange(n)
    return SampledSignal(t_lo, dt, fn(t))


def gaussian(t_lo=-16.0, t_hi=16.0, n=2048) -> SampledSignal:
    """The self-dual Gaussian ``exp(-pi t^2)``."""
    return _grid_signal(t_lo, t_hi, n, lambda t: np.exp(-np.pi * t * t))


def mexican_hat(t_lo=-20.0, t_hi=20.0, n=4096) -> SampledSignal:
    """``(1 - t^2) exp(-t^2/2)``: two vanishing moments."""
    return _grid_signal(t_lo, t_hi, n, lambda t: (1 - t * t) * np.exp(-t * t / 2))


def haar_wavelet(t_lo=-2.0, t_hi=2.0, n=256) -> SampledSignal:
    """+1 on [0, 1/2), -1 on [1/2, 1): one vanishing moment."""

    def fn(t):
        return np.where((t >= 0) & (t < 0.5), 1.0, 0.0) - np.where(
            (t >= 0.5) & (t < 1.0), 1.0, 0.0
        )

    return _grid_signal(t_lo, t_hi, n, fn)


def signal_from_spectrum_profile(
    profile, t_lo=-32.0, t_hi=32.0, n=4096
) -> SampledSignal:
    """Build a signal by prescribing its spectrum pointwise.

    ``profile(w)`` is evaluated on the centered DFT frequency grid (the
    zero bin is forced to ``profile``'s limit at 0 if finite, else 0)
    and inverted; handy for atoms given by a closed-form ``psi_hat``.
    """
    w, dw = _frequencies(n, (t_hi - t_lo) / n)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        vals = np.asarray(profile(w), dtype=np.complex128)
    vals[~np.isfinite(vals)] = 0.0
    spec = Spectrum(w[0], dw, vals, t_origin=t_lo)
    return inverse_fourier(spec)


def l2_norm(f: SampledSignal) -> float:
    return float(np.sqrt(f.dt * np.sum(np.abs(f.values) ** 2)))


def inner(f: SampledSignal, g: SampledSignal) -> complex:
    if not f.same_grid(g):
        raise ValueError("inner product needs matching grids")
    return complex(f.dt * np.sum(f.values * np.conj(g.values)))


def _frequencies(n: int, dt: float):
    """The centered DFT frequencies ``(k - n//2) dw`` of ``n`` samples, and ``dw = 1/(n dt)``."""
    dw = 1.0 / (n * dt)
    return (np.arange(n) - n // 2) * dw, dw


def fourier(f: SampledSignal) -> Spectrum:
    """dt-scaled DFT with frequencies centered at zero."""
    w, dw = _frequencies(f.n, f.dt)
    vals = f.dt * np.exp(-2j * np.pi * f.t0 * w) * np.fft.fftshift(np.fft.fft(f.values))
    return Spectrum(w[0], dw, vals, t_origin=f.t0)


def inverse_fourier(spec: Spectrum) -> SampledSignal:
    """Inverse of :func:`fourier`; restores the carried time origin."""
    n = spec.n
    dt = 1.0 / (n * spec.dw)
    phased = spec.values * np.exp(2j * np.pi * spec.t_origin * spec.grid())
    vals = np.fft.ifft(np.fft.ifftshift(phased)) / dt
    return SampledSignal(spec.t_origin, dt, vals)


def _complex_interp(tq, t, values):
    re = np.interp(tq, t, values.real, left=0.0, right=0.0)
    im = np.interp(tq, t, values.imag, left=0.0, right=0.0)
    return re + 1j * im


def translate(f: SampledSignal, x: float) -> SampledSignal:
    """``(T_x f)(t) = f(t - x)``; a shift by whole steps ``dt`` is exact, others interpolate."""
    _finite_number(x, "x")
    return f.with_values(_translate_into(np.zeros(f.n, dtype=np.complex128), f, x))


def _translate_into(out: np.ndarray, f: SampledSignal, x: float) -> np.ndarray:
    """The samples of ``T_x f`` written into ``out``, which holds zeros."""
    steps = x / f.dt
    k = round(steps)
    if abs(steps - k) >= 1e-9:
        out[:] = _complex_interp(f.grid() - x, f.grid(), f.values)
    elif abs(k) < f.n:  # out[n] = values[n - k] wherever both lie on the grid
        out[max(k, 0):f.n + min(k, 0)] = f.values[max(-k, 0):f.n - max(k, 0)]
    return out


def modulate(f: SampledSignal, omega: float) -> SampledSignal:
    """``(M_w f)(t) = exp(2*pi*i*t*w) f(t)`` (exact)."""
    return f.with_values(np.exp(2j * np.pi * f.grid() * _finite_number(omega, "omega")) * f.values)


def dilate(f: SampledSignal, a: float) -> SampledSignal:
    """``(D_a f)(t) = |a|^(-1/2) f(t/a)``, linear interpolation off-grid."""
    if _finite_number(a, "a") == 0:
        raise ValueError("dilation scale must be nonzero")
    vals = _complex_interp(f.grid() / a, f.grid(), f.values)
    return f.with_values(vals / np.sqrt(abs(a)))


@dataclass(frozen=True)
class MomentReport:
    moments: tuple
    absolute_moments: tuple
    window: tuple

    def to_dict(self) -> dict:
        return {
            "moments_re": [m.real for m in self.moments],
            "moments_im": [m.imag for m in self.moments],
            "absolute_moments": list(self.absolute_moments),
            "window": list(self.window),
        }


def moments(psi: SampledSignal, k_max: int) -> MomentReport:
    """Trapezoid moments ``int t^k psi dt`` and ``int |t|^k |psi| dt``, k <= k_max.

    Values are window-truncated quantities; the report records the
    window so tail sensitivity can be probed by widening the grid.
    """
    k_max = _integer(k_max, "k_max")
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    t = psi.grid()
    mom = []
    amom = []
    for k in range(k_max + 1):
        mom.append(complex(np.trapezoid(t**k * psi.values, dx=psi.dt)))
        amom.append(float(np.trapezoid(np.abs(t) ** k * np.abs(psi.values), dx=psi.dt)))
    window = (psi.t0, psi.t0 + psi.n * psi.dt)
    return MomentReport(tuple(mom), tuple(amom), window)


def vanishing_moment_count(psi: SampledSignal, tol: float) -> int:
    """Largest L with ``|moment_k| <= tol * int |t|^k |psi|`` for all k < L.

    The tolerance is relative to the matching absolute moment, which
    makes the test invariant under scaling of psi and of the time axis.
    """
    if _finite_number(tol, "tol") <= 0:
        raise ValueError("tol must be positive")
    rep = moments(psi, _MAX_MOMENT_COUNT)
    for k in range(_MAX_MOMENT_COUNT + 1):
        if abs(rep.moments[k]) > tol * rep.absolute_moments[k]:
            return k
    return _MAX_MOMENT_COUNT + 1


def antiderivative(psi: SampledSignal) -> SampledSignal:
    """Cumulative trapezoid integral from the left grid edge."""
    y = psi.values
    steps = np.cumsum(psi.dt * (y[1:] + y[:-1]) / 2.0)
    return psi.with_values(np.concatenate(([0.0], steps)))


def derivative(psi: SampledSignal, order: int = 1) -> SampledSignal:
    """Spectral derivative: multiply the spectrum by ``(2*pi*i*w)^order``.

    The top 10% of frequencies are zeroed; differentiation amplifies the
    grid's highest bins, which carry only discretization noise for the
    smooth signals this is meant for.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    spec = fourier(psi)
    w = spec.grid()
    w_cut = _DERIVATIVE_KEEP_FRACTION * np.max(np.abs(w))
    mult = (2j * np.pi * w) ** order
    mult[np.abs(w) > w_cut] = 0.0
    out = inverse_fourier(
        Spectrum(spec.w0, spec.dw, spec.values * mult, spec.t_origin)
    )
    return psi.with_values(out.values)
