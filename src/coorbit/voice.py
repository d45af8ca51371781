"""The two concrete voice transforms: wavelet transform and STFT.

The wavelet transform of ``f`` against ``psi`` is computed per scale in
the Fourier domain,

    W(b, a) = |a|^(1/2) * IFFT[ fhat * conj(psihat(a .)) ](b),

which is the exact spectral form of ``<f, T_b D_a psi>`` and keeps the
covariance in ``b`` exact up to DFT periodization.  Scale samples of
``psihat`` come from a cubic spline on the window's spectrum, built once
per spectrum.

The STFT ``V(x, w) = dt * sum_t f(t) conj(g(t-x)) exp(-2 pi i t w)``,
its adjoint ``istft`` and the Gabor frame operator of
:mod:`coorbit.frames` are one factored operator, :class:`_TFOperator`:
window rows times a uniform frequency axis.  Its analysis and its
synthesis each take one length-``M`` FFT per folded row when ``dw * dt
= 1/M``; only axes that do not fold build the dense phase table.

Admissibility, inversion, reproducing kernels and the explicit wavelet
Duflo-Moore multiplier ``psihat / sqrt|w|`` round out the module.
Heisenberg phases never enter any field or norm; they are applied only
by :func:`schrodinger_atom` for group-law level tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .groups import GroupField, GroupQuadrature, _on_group, build_tf_quadrature
from .signals import (
    SampledSignal,
    Spectrum,
    _complex_interp,
    _frequencies,
    _translate_into,
    fourier,
    inverse_fourier,
    l2_norm,
    modulate,
    translate,
    dilate,
)

__all__ = [
    "NotAdmissible",
    "NotAdmissibleError",
    "cwt",
    "icwt",
    "stft",
    "istft",
    "admissibility_constant",
    "normalize_admissible",
    "reproducing_kernel",
    "duflo_moore_wavelet",
    "wavelet_rep",
    "gabor_atom",
    "schrodinger_atom",
]

_DC_TOLERANCE = 1e-6
_EDGE_DECAY_WARN = 1e-8


@dataclass(frozen=True)
class NotAdmissible:
    """Typed outcome: the admissibility integral diverges (nonzero DC)."""

    dc_magnitude: float
    peak_magnitude: float

    def __bool__(self):  # truthiness would invite silent misuse
        raise TypeError("NotAdmissible outcome must be handled explicitly")


class NotAdmissibleError(ValueError):
    pass


def _check_edge_decay(f: SampledSignal, meta: dict, name: str):
    peak = float(np.max(np.abs(f.values)))
    if peak == 0.0:
        return
    edge = float(max(abs(f.values[0]), abs(f.values[-1])))
    if edge > _EDGE_DECAY_WARN * peak:
        meta.setdefault("warnings", []).append(
            f"{name} does not decay to {_EDGE_DECAY_WARN:g} of peak at the grid "
            "edges; FFT periodization may alias"
        )


def admissibility_constant(psi: SampledSignal):
    """``C = (sum_{w != 0} |psihat|^2 / |w| * dw)^(1/2)`` or :class:`NotAdmissible`.

    A DC component beyond ``1e-6`` of the spectral peak forces the
    defining integral to diverge, so such windows are rejected as a
    typed outcome rather than a numeric value.
    """
    spec = fourier(psi)
    mag = np.abs(spec.values)
    peak = float(np.max(mag))
    dc = float(mag[spec.dc_index()])
    if peak == 0.0 or dc > _DC_TOLERANCE * peak:
        return NotAdmissible(dc_magnitude=dc, peak_magnitude=peak)
    w = spec.grid()
    mask = w != 0.0
    c2 = float(np.sum(mag[mask] ** 2 / np.abs(w[mask])) * spec.dw)
    return math.sqrt(c2)


def _admissible_constant(psi: SampledSignal, refusal: str) -> float:
    """The admissibility constant; refused as ``"<refusal>: DC magnitude ..."``."""
    c = admissibility_constant(psi)
    if isinstance(c, NotAdmissible):
        raise NotAdmissibleError(
            f"{refusal}: DC magnitude {c.dc_magnitude:g} (peak {c.peak_magnitude:g})"
        )
    return c


def normalize_admissible(psi: SampledSignal) -> SampledSignal:
    """Rescale so the admissibility constant equals one."""
    # certify-atom writes this refusal into its artifact
    c = _admissible_constant(psi, "cannot normalize")
    if c == 0.0:
        raise NotAdmissibleError("cannot normalize a zero window")
    return psi.with_values(psi.values / c)


def wavelet_rep(f: SampledSignal, b: float, a: float) -> SampledSignal:
    """Unitary wavelet action ``T_b D_a f``: dilate, then shift."""
    return translate(dilate(f, a), b)


def _b_grid_matches(quad: GroupQuadrature, s: SampledSignal) -> bool:
    """Whether the affine chart's b-grid is ``s``'s sample grid, node for node."""
    return (quad.n_b == s.n and abs(quad.b_lo - s.t0) <= 1e-9 * max(1.0, abs(s.t0))
            and abs(quad.db - s.dt) <= 1e-12 * s.dt)


def cwt(f: SampledSignal, psi: SampledSignal, quad: GroupQuadrature) -> GroupField:
    """Wavelet transform of ``f`` against ``psi`` on an affine chart."""
    _on_group("affine", chart=quad)
    if not f.same_grid(psi):
        raise ValueError("f and psi must share grid parameters")
    meta: dict = {}
    _check_edge_decay(f, meta, "signal")
    _check_edge_decay(psi, meta, "analyzing window")

    fhat = fourier(f)
    psihat = fourier(psi)
    # rows are built in the inverse FFT's input order: ifftshift permutes
    # the grid, the spectrum and the t0 phase once, never a row
    w, fvals = np.fft.ifftshift(fhat.grid()), np.fft.ifftshift(fhat.values)
    phase = np.exp(2j * np.pi * f.t0 * w)

    b_grid = quad.b_grid()
    resample = not _b_grid_matches(quad, f)
    out = np.empty(quad.shape, dtype=np.complex128)
    # one row block serves both branches; on the signal's grid it is the output
    buf = np.empty((quad.n_scales, f.n), dtype=np.complex128) if resample else None
    scales = quad.scale_grid()
    t = f.grid()
    for s_idx, sgn in enumerate(quad.signs):
        rows = out[s_idx] if buf is None else buf
        for j, a in enumerate(sgn * scales):
            rows[j] = math.sqrt(abs(a)) * fvals * np.conj(psihat.interpolate(a * w))
        rows *= phase
        np.fft.ifft(rows, axis=-1, out=rows)
        rows /= f.dt
        if resample:
            for j in range(quad.n_scales):
                out[s_idx, j] = _complex_interp(b_grid, t, rows[j])
    return GroupField(quad, out, meta)


def icwt(W: GroupField, psi: SampledSignal) -> SampledSignal:
    """Inverse wavelet transform, scale-by-scale in the spectral domain.

    Accumulates ``C^-2 |a|^(1/2) F_b[W(., a)](w) psihat(a w) du/|a|``
    over all scale nodes and sign branches, then inverts one spectrum.
    """
    quad = W.quad
    _on_group("affine", field=quad)
    if not _b_grid_matches(quad, psi):
        raise ValueError("quadrature b-grid must match the window grid")
    c_psi = _admissible_constant(psi, "icwt needs an admissible window")
    if c_psi <= 0:
        raise NotAdmissibleError("admissibility constant must be positive")

    psihat = fourier(psi)
    w, dw = _frequencies(psi.n, quad.db)
    du = quad.du
    scales = quad.scale_grid()
    # kept in the forward FFT's output order: the grid and phase are permuted once
    w_fft = np.fft.ifftshift(w)
    db_phase = quad.db * np.exp(-2j * np.pi * quad.b_lo * w_fft)

    acc = np.zeros(psi.n, dtype=np.complex128)
    spec_rows = np.empty((quad.n_scales, psi.n), dtype=np.complex128)
    for s_idx, sgn in enumerate(quad.signs):
        # forward transform of every b-row at once, into the one row block
        np.fft.fft(W.values[s_idx], axis=-1, out=spec_rows)
        np.multiply(db_phase, spec_rows, out=spec_rows)
        for row, a in zip(spec_rows, sgn * scales):
            acc += math.sqrt(abs(a)) * row * psihat.interpolate(a * w_fft) * (du / abs(a))
    acc /= c_psi**2
    return inverse_fourier(Spectrum(w[0], dw, np.fft.fftshift(acc), t_origin=quad.b_lo))


def stft(f: SampledSignal, g: SampledSignal, x_grid, w_grid) -> GroupField:
    """Short-time Fourier transform on a rectangular (x, w) chart.

    ``x_grid`` and ``w_grid`` are ``(origin, step, count)`` triples.  The
    window must live on the signal's grid; shifts aligned to the grid
    are exact, others interpolate linearly.  The chart's rows are one
    :class:`_TFOperator` analysis.
    """
    quad = build_tf_quadrature(*x_grid, *w_grid)
    return GroupField(quad, _stft_operator(f, g, quad).analyze(f.values).reshape(quad.shape))


# |M dw dt - 1| below which dw dt counts as exactly 1/M
_FOLD_TOLERANCE = 8 * 2.0**-52


def _fold_length(dt: float, dw: float, n_t: int):
    """``M = 1/(dw dt)`` when it is an integer in ``[1, n_t]``, else ``None``."""
    prod = dt * dw
    if not prod * n_t >= 0.5:  # also an underflow to zero
        return None
    m = round(1.0 / prod)
    if 1 <= m <= n_t and abs(m * prod - 1.0) <= _FOLD_TOLERANCE:
        return m
    return None


def _unit_phase(cycles: np.ndarray) -> np.ndarray:
    """``exp(-2 pi i cycles)``, with ``cycles`` reduced modulo 1 first."""
    return np.exp(-2j * np.pi * np.mod(cycles, 1.0))


def _modulation(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``exp(2 pi i a_j b_k)``, shape ``(len(a), len(b))``."""
    return np.exp(2j * np.pi * np.outer(a, b))


def _fold_rows(Y: np.ndarray, m: int) -> np.ndarray:
    """Row sums of ``Y`` over its columns modulo ``m``, shape ``(rows, m)``."""
    q, r = divmod(Y.shape[1], m)
    Z = Y[:, :q * m].reshape(Y.shape[0], q, m).sum(axis=1)
    Z[:, :r] += Y[:, q * m:]
    return Z


class _TFOperator:
    """STFT analysis on a uniform frequency axis, and its adjoint, built once.

    Rows ``R[r] = g(t - xs[r]) exp(2 pi i t row_w[r])`` (no phase without
    ``row_w`` or when every ``row_w`` is 0) on the samples ``t_n = t0 + n
    dt``, axis ``w_k = w0 + k dw``; each translate is written in place by
    :func:`~coorbit.signals.translate`'s rule.
    ``analyze(v)[r, k] = dt sum_n v_n conj(R[r, n]) exp(-2 pi i t_n w_k)``
    and ``synthesize(C) = sum_r R[r] (C[r] @ exp(2 pi i w_k t_n))``, its
    adjoint up to the factor ``dt``.  When ``dw dt = 1/M``
    (:func:`_fold_length`) the phase is ``t0 w_k + n dt w0 + n k / M`` and
    both directions fold.  Analysis sums the rows of ``conj(R) v exp(-2 pi
    i n dt w0)`` modulo ``M``, takes one length-``M`` FFT per row for
    column ``k mod M`` and scales column k by ``exp(-2 pi i t0 w_k) dt``.
    Synthesis sums the rows of ``conj(C) exp(-2 pi i t0 w_k)`` modulo
    ``M``, takes one length-``M`` FFT per row, reads it at ``n mod M``,
    multiplies by ``conj(R) exp(-2 pi i n dt w0)``, sums the rows and
    conjugates.  Axes that do not fold take the dense product with
    ``exp(-2 pi i t_n w_k)``.
    """

    def __init__(self, g: SampledSignal, xs, t0: float, dt: float,
                 w0: float, dw: float, n_w: int, row_w=None):
        G = np.zeros((len(xs), g.n), dtype=np.complex128)
        for i, x in enumerate(xs):
            _translate_into(G[i], g, x)
        if row_w is not None and np.any(row_w):
            G *= _modulation(row_w, g.grid())
        self._G = np.conj(G, out=G)
        self.shape, self.dt = (len(xs), n_w), dt
        self._t = t0 + dt * np.arange(g.n)
        self._w = w0 + dw * np.arange(n_w)
        m = _fold_length(dt, dw, g.n)
        self._fold = None if m is None else (
            m, _unit_phase(np.arange(g.n) * (dt * w0)), _unit_phase(self._w * t0),
            np.arange(n_w) % m)

    @cached_property
    def _phases(self) -> np.ndarray:
        """``exp(-2 pi i t_n w_k)``, shape ``(n_t, n_w)``, built on first unfolded use."""
        return _modulation(-self._t, self._w)

    def analyze(self, v: np.ndarray) -> np.ndarray:
        """``dt sum_n v_n conj(R[r, n]) exp(-2 pi i t_n w_k)``, flat and row-major."""
        if self._fold is None:
            return ((self._G * v[None, :]) @ (self._phases * self.dt)).ravel()
        m, pre, post, cols = self._fold
        Z = _fold_rows(self._G * (v * pre)[None, :], m)
        return (np.fft.fft(Z, axis=-1)[:, cols] * (post * self.dt)[None, :]).ravel()

    def synthesize(self, C: np.ndarray) -> np.ndarray:
        """``sum_r R[r] (C[r] @ exp(2 pi i w_k t_n))`` for ``C`` in ``analyze``'s order."""
        # each term conj(R[r]) (conj(C[r]) @ exp(-2 pi i w t)), conjugated once
        C = np.conj(np.reshape(C, self.shape))
        if self._fold is None:
            P = C @ self._phases.T
            P *= self._G
            return np.conj(P.sum(axis=0))
        m, pre, post, _ = self._fold
        F = np.fft.fft(_fold_rows(C * post[None, :], m), axis=-1)
        # F read at n mod M: whole periods as a broadcast, then the remainder
        rows, n = self._G.shape
        q = n // m
        out = np.empty(n, dtype=np.complex128)
        out[:q * m] = (self._G[:, :q * m].reshape(rows, q, m) * F[:, None, :]).sum(axis=0).ravel()
        out[q * m:] = (self._G[:, q * m:] * F[:, :n - q * m]).sum(axis=0)
        return np.conj(out * pre, out=out)


def _stft_operator(f: SampledSignal, g: SampledSignal, quad: GroupQuadrature) -> _TFOperator:
    """The STFT operator of window ``g`` on the TF chart ``quad``, on ``f``'s grid."""
    _on_group("tf", chart=quad)
    if not f.same_grid(g):
        raise ValueError("window must share the signal grid")
    return _TFOperator(g, quad.x_grid(), f.t0, f.dt, quad.w0, quad.dw, quad.n_w)


def istft(V: GroupField, g: SampledSignal) -> SampledSignal:
    """``|g|^-2 sum V(x,w) M_w T_x g dx dw``: the STFT operator's adjoint, scaled."""
    quad = V.quad
    op = _stft_operator(g, g, quad)
    gnorm2 = l2_norm(g) ** 2
    if gnorm2 == 0.0:
        raise ValueError("zero window")
    vals = op.synthesize(V.values) * (quad.dx * quad.dw) / gnorm2
    return SampledSignal(g.t0, g.dt, vals)


def reproducing_kernel(psi: SampledSignal, quad: GroupQuadrature) -> GroupField:
    """Self-transform kernel: ``cwt(psi, psi)`` or ``V_gg`` on a TF chart."""
    if quad.kind == "affine":
        _admissible_constant(psi, "kernel needs an admissible window")
        return cwt(psi, psi, quad)
    return GroupField(quad, _stft_operator(psi, psi, quad).analyze(psi.values).reshape(quad.shape))


def duflo_moore_wavelet(psi: SampledSignal) -> SampledSignal:
    """Spectral multiplier ``psihat / sqrt(|w|)`` (zero bin dropped)."""
    _admissible_constant(psi, "Duflo-Moore multiplier undefined")
    spec = fourier(psi)
    w = spec.grid()
    vals = spec.values.copy()
    mask = w != 0.0
    vals[mask] = vals[mask] / np.sqrt(np.abs(w[mask]))
    vals[~mask] = 0.0
    out = inverse_fourier(Spectrum(spec.w0, spec.dw, vals, spec.t_origin))
    return psi.with_values(out.values)


def gabor_atom(g: SampledSignal, x: float, omega: float) -> SampledSignal:
    """Phase-free time-frequency shift ``M_w T_x g``."""
    return modulate(translate(g, x), omega)


def schrodinger_atom(
    g: SampledSignal, x: float, omega: float, tau: complex = 1.0
) -> SampledSignal:
    """Full Heisenberg action ``tau exp(-pi i w x) M_w T_x g``.

    Only the modulus of coefficients against these atoms matters for
    any norm in the toolkit; this exists to verify exactly that.
    """
    atom = gabor_atom(g, x, omega)
    phase = tau * np.exp(-1j * np.pi * omega * x)
    return atom.with_values(phase * atom.values)
