"""The two concrete voice transforms, wavelet transform and STFT, one operator each.

The wavelet transform of ``f`` against ``psi`` is computed per scale in
the Fourier domain,

    W(b, a) = |a|^(1/2) * IFFT[ fhat * conj(psihat(a .)) ](b),

which is the exact spectral form of ``<f, T_b D_a psi>`` and keeps the
covariance in ``b`` exact up to DFT periodization.  Scale samples of
``psihat`` come from a cubic spline on the window's spectrum, which
:class:`_WaveletOperator` builds once; ``icwt`` is its adjoint over ``C^2``.

The STFT ``V(x, w) = dt * sum_t f(t) conj(g(t-x)) exp(-2 pi i t w)``,
its adjoint ``istft`` and the Gabor frame operator of
:mod:`coorbit.frames` are one factored operator, :class:`_TFOperator`:
window rows times a uniform frequency axis.  Its analysis and its
synthesis each take one length-``M`` FFT per folded row when ``dw * dt
= 1/M``; only axes that do not fold build the dense phase table.

Admissibility, inversion and reproducing kernels round out the module.
The STFT's atoms are the phase-free shifts ``M_w T_x g``: Heisenberg
phases never enter any field or norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .fields import _next_fast_len
from .groups import GroupField, GroupQuadrature, _on_group, _Report, build_tf_quadrature
from .signals import (
    SampledSignal,
    Spectrum,
    _complex_interp,
    _frequencies,
    _translate_into,
    fourier,
    inverse_fourier,
    l2_norm,
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
    "PaddedPeriod",
    "ReproducingProjector",
]

_DC_TOLERANCE = 1e-6
_EDGE_DECAY_WARN = 1e-8
_PERIOD_TAIL = 1e-3  # psi's energy share a projector's period may drop: reconstruct's tol


@dataclass(frozen=True)
class NotAdmissible(_Report):
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


def _b_grid_matches(quad: GroupQuadrature, s: SampledSignal) -> bool:
    """Whether the affine chart's b-grid is ``s``'s sample grid, node for node."""
    return (quad.n_b == s.n and abs(quad.b_lo - s.t0) <= 1e-9 * max(1.0, abs(s.t0))
            and abs(quad.db - s.dt) <= 1e-12 * s.dt)


def cwt(f: SampledSignal, psi: SampledSignal, quad: GroupQuadrature) -> GroupField:
    """Wavelet transform of ``f`` against ``psi`` on an affine chart."""
    _on_group("affine", chart=quad)
    op = _voice_operator(f, psi, quad)
    meta: dict = {}
    _check_edge_decay(f, meta, "signal")
    _check_edge_decay(psi, meta, "analyzing window")
    return GroupField(quad, op.analyze(f.values).reshape(quad.shape), meta)


def icwt(W: GroupField, psi: SampledSignal) -> SampledSignal:
    """Inverse wavelet transform: ``C^-2`` times the wavelet operator's adjoint,
    divided in the spectral domain before the one inverse FFT."""
    quad = W.quad
    _on_group("affine", field=quad)
    if not _b_grid_matches(quad, psi):
        raise ValueError("quadrature b-grid must match the window grid")
    c_psi = _admissible_constant(psi, "icwt needs an admissible window")
    if c_psi <= 0:
        raise NotAdmissibleError("admissibility constant must be positive")
    spec = _voice_operator(psi, psi, quad)._spectrum(W.values)
    return inverse_fourier(replace(spec, values=spec.values / c_psi**2))


class _WaveletOperator:
    """Wavelet analysis on an affine chart (``cwt`` on ``grid``'s samples, flat) and its
    adjoint up to ``dt`` under the Haar weights (``icwt`` without ``C^-2``, on a chart
    whose b-grid is the window's), built once; rows ``psihat(a w)`` are made per call."""

    def __init__(self, psi: SampledSignal, quad: GroupQuadrature, grid: SampledSignal):
        self.quad, self._grid, self._psihat = quad, grid, fourier(psi)
        # both axes in FFT order: each grid and phase is permuted once, never a row
        w, dw = _frequencies(grid.n, grid.dt)
        self._w = np.fft.ifftshift(w[0] + dw * np.arange(grid.n))  # fourier(grid)'s grid
        self._phase = np.exp(2j * np.pi * grid.t0 * self._w)
        self._at = None if _b_grid_matches(quad, grid) else (quad.b_grid(), grid.grid())
        self._ws, self._dws = _frequencies(psi.n, quad.db)
        self._ws_fft = np.fft.ifftshift(self._ws)
        self._db_phase = quad.db * np.exp(-2j * np.pi * quad.b_lo * self._ws_fft)

    def analyze(self, v: np.ndarray) -> np.ndarray:
        quad, grid = self.quad, self._grid
        fvals = np.fft.ifftshift(fourier(grid.with_values(v)).values)
        out = np.empty(quad.shape, dtype=np.complex128)
        # one row block serves both branches; on the signal's grid it is the output
        buf = None if self._at is None else np.empty((quad.n_scales, grid.n), np.complex128)
        for s_idx, sgn in enumerate(quad.signs):
            rows = out[s_idx] if buf is None else buf
            for j, a in enumerate(sgn * quad.scale_grid()):
                rows[j] = math.sqrt(abs(a)) * fvals * np.conj(self._psihat.interpolate(a * self._w))
            rows *= self._phase
            np.fft.ifft(rows, axis=-1, out=rows)
            rows /= grid.dt
            if buf is not None:
                for j in range(quad.n_scales):
                    out[s_idx, j] = _complex_interp(*self._at, rows[j])
        return out.ravel()

    def _spectrum(self, C: np.ndarray) -> Spectrum:
        """The spectrum ``sum |a|^(1/2) F_b[C(., a)] psihat(a w) db du/|a|``."""
        quad, C = self.quad, np.reshape(C, self.quad.shape)
        acc = np.zeros(self._ws.size, dtype=np.complex128)
        spec_rows = np.empty((quad.n_scales, self._ws.size), dtype=np.complex128)
        for s_idx, sgn in enumerate(quad.signs):
            # forward transform of every b-row at once, into the one row block
            np.fft.fft(C[s_idx], axis=-1, out=spec_rows)
            np.multiply(self._db_phase, spec_rows, out=spec_rows)
            for row, a in zip(spec_rows, sgn * quad.scale_grid()):
                acc += (math.sqrt(abs(a)) * row * self._psihat.interpolate(a * self._ws_fft)
                        * (quad.du / abs(a)))
        return Spectrum(self._ws[0], self._dws, np.fft.fftshift(acc), t_origin=quad.b_lo)

    def synthesize(self, C: np.ndarray) -> np.ndarray:
        """``analyze``'s adjoint up to ``dt``, for ``C`` in ``analyze``'s order."""
        return inverse_fourier(self._spectrum(C)).values


def stft(f: SampledSignal, g: SampledSignal, x_grid, w_grid) -> GroupField:
    """Short-time Fourier transform on a rectangular (x, w) chart.

    ``x_grid`` and ``w_grid`` are ``(origin, step, count)`` triples.  The
    window must live on the signal's grid; shifts aligned to the grid
    are exact, others interpolate linearly.  The chart's rows are one
    :class:`_TFOperator` analysis.
    """
    quad = build_tf_quadrature(*x_grid, *w_grid)
    return GroupField(quad, _voice_operator(f, g, quad).analyze(f.values).reshape(quad.shape))


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
    (:func:`_fold_length`) the phase is ``t0 w_k + n dt w0 + n k / M``, so
    both directions sum their rows modulo ``M`` and take one length-``M`` FFT
    per row; other axes take the dense product with ``exp(-2 pi i t_n w_k)``.
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


def _voice_operator(f: SampledSignal, g: SampledSignal, quad: GroupQuadrature):
    """The voice transform of window ``g`` on chart ``quad``, on ``f``'s grid: a
    :class:`_WaveletOperator` on an affine chart, a :class:`_TFOperator` on a TF chart."""
    if not f.same_grid(g):
        raise ValueError("f and psi must share grid parameters" if quad.kind == "affine"
                         else "window must share the signal grid")
    if quad.kind == "affine":
        return _WaveletOperator(g, quad, f)
    return _TFOperator(g, quad.x_grid(), f.t0, f.dt, quad.w0, quad.dw, quad.n_w)


def istft(V: GroupField, g: SampledSignal) -> SampledSignal:
    """``|g|^-2 sum V(x,w) M_w T_x g dx dw``: the STFT operator's adjoint, scaled."""
    quad = V.quad
    _on_group("tf", chart=quad)
    gnorm2 = l2_norm(g) ** 2
    if gnorm2 == 0.0:
        raise ValueError("zero window")
    vals = _voice_operator(g, g, quad).synthesize(V.values) * (quad.dx * quad.dw) / gnorm2
    return SampledSignal(g.t0, g.dt, vals)


def reproducing_kernel(psi: SampledSignal, quad: GroupQuadrature) -> GroupField:
    """Self-transform kernel: ``cwt(psi, psi)`` or ``V_gg`` on a TF chart."""
    if quad.kind == "affine":
        _admissible_constant(psi, "kernel needs an admissible window")
        return cwt(psi, psi, quad)
    return GroupField(quad, _voice_operator(psi, psi, quad).analyze(psi.values).reshape(quad.shape))


@dataclass(frozen=True)
class PaddedPeriod(_Report):
    """A :class:`ReproducingProjector`'s b-period, its samples, and the energy it drops."""

    period: float
    samples: int
    tail_energy_fraction: float


class ReproducingProjector:
    """``F -> V_psi V_psi^* F`` on an affine chart, on one zero-padded b-period, built once.

    With ``psi`` normalized as :func:`~coorbit.frames.atom_kernel` does, this is ``F * K``
    by the reproducing formula, without K's chart truncation.  The period is the smallest
    fast length, at the chart's step, holding the chart widened at each end by ``a_max``
    times psi's radius: the smallest ``|t|`` beyond which at most ``_PERIOD_TAIL`` of psi's
    energy lies.  Rows ``|a|^(1/2) psihat(a w)`` come once from ``fourier(psi)``'s spline.
    """

    def __init__(self, psi: SampledSignal, quad: GroupQuadrature):
        _on_group("affine", chart=quad)
        psi = normalize_admissible(psi)
        r, share = np.abs(psi.grid()), np.abs(psi.values) ** 2
        share /= share.sum()
        order = np.argsort(r)
        radius = r[order][np.searchsorted(np.cumsum(share[order]), 1.0 - _PERIOD_TAIL)]
        n = _next_fast_len(quad.n_b + math.ceil(2 * quad.a_max * radius / quad.db))
        tail = float(share[r > (n - quad.n_b) * quad.db / (2 * quad.a_max)].sum())
        self.quad, self.period = quad, PaddedPeriod(n * quad.db, n, tail)
        a = np.multiply.outer(quad.signs, quad.scale_grid())[..., None]
        rows = np.sqrt(np.abs(a)) * fourier(psi).interpolate(a * np.fft.fftfreq(n, quad.db))
        self._analysis = np.conj(rows)
        # Haar weight db du/|a| times the frequency step 1/(n db); ifft divides by n
        self._synthesis = rows * (quad.du / np.abs(a))

    def apply(self, F: GroupField) -> GroupField:
        if F.quad != self.quad:
            raise ValueError("field chart must match the projector's chart")
        x = np.fft.fft(F.values, n=self.period.samples, axis=-1)
        x *= self._synthesis
        # the spectrum of V_psi^* F, read by every analysis row
        np.multiply(self._analysis, x.reshape(-1, x.shape[-1]).sum(axis=0), out=x)
        np.fft.ifft(x, axis=-1, out=x)
        meta = {"truncation": {"period_tail_energy_fraction": self.period.tail_energy_fraction}}
        return GroupField(F.quad, x[..., :F.quad.n_b].copy(), meta)
