"""Weighted L^p_m calculus on group fields.

Norms, involutions, group convolution, U-oscillation and the Young
inequality checks all live here.  Every field is a
:class:`~coorbit.groups.GroupField`; its quadrature's ``kind`` says
whether it lives on the affine chart or the time-frequency plane.

Group convolution on the affine chart,

    (F * G)(x) = sum_y F(y) G(y^{-1} x) weight(y),

uses the closed form ``y^{-1} x = ((b - b')/a', a/a')``.  It is
evaluated as one FFT correlation per input-scale row (the inner sum
over ``b'`` is a discrete correlation on the uniform b-grid).  The
kernel is read at exactly the interpolated points of the literal double
sum, which stays as the test oracle ``_convolve_direct``, so the two
agree to roundoff.  The kernel is read once per kernel plane and
positive input scale ``s``: the points of the input scale ``-s`` are
those of ``s`` reversed along b, so negative-scale rows run through the
same block b-reversed.  The kernel's block spectra depend on the kernel
alone, so :class:`KernelOperator` builds them once for repeated
application.
Convolutions are truncated-domain quantities: the outer chart ring's
share of each operand's L1 mass is attached to the result as a tail
report, never hidden.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .groups import (
    GroupField,
    _chart_index,
    _exponent,
    _finite_number,
    _in_chart,
    _in_chart_run,
    _integer,
    _inverse,
    _known_keys,
    _object,
    _on_group,
    _product,
    _pullback,
    _read_chart,
    _read_rows,
    affine_field_interpolate,
)
from .weights import (
    WeightSpec,
    custom_weight,
    eval_weight_at,
    is_p_control,
    poly_tf,
    power_scale,
)

__all__ = [
    "NeighborhoodSpec",
    "affine_box",
    "tf_box",
    "lpm_norm",
    "field_l2_norm",
    "involute",
    "convolve",
    "KernelOperator",
    "oscillation",
    "young_check",
    "YoungReport",
    "kernel_project",
    "unit_weight",
    "weight_reciprocal",
]

_SPECTRA_BYTE_LIMIT = 256 * 2**20  # KernelOperator streams its spectra above this
_DEFAULT_OSC_SAMPLES = 7
# each neighbourhood kind's box sides, its keys besides "kind" and "n_samples"
_U_KEYS = {"affine": ("beta", "alpha"), "tf": ("beta_x", "beta_w")}


@dataclass(frozen=True)
class NeighborhoodSpec:
    """Compact identity neighbourhood used for oscillation and tiling.

    Affine variant: the rectangle ``[-beta/2, beta/2] x [alpha^-1/2,
    alpha^1/2]`` on the positive-scale branch.  TF variant: the centered
    box with side lengths ``beta_x``, ``beta_w``.  ``n_samples`` is the
    per-axis sampling density used to approximate suprema over the set.
    """

    kind: str
    beta: float = 0.0
    alpha: float = 1.0
    beta_x: float = 0.0
    beta_w: float = 0.0
    n_samples: int = _DEFAULT_OSC_SAMPLES

    def __post_init__(self):
        if self.kind == "affine":
            if _finite_number(self.beta, "beta") <= 0 or _finite_number(self.alpha, "alpha") <= 1:
                raise ValueError("affine neighbourhood needs beta > 0, alpha > 1")
        elif self.kind == "tf":
            if (_finite_number(self.beta_x, "beta_x") <= 0
                    or _finite_number(self.beta_w, "beta_w") <= 0):
                raise ValueError("tf neighbourhood needs positive box sides")
        else:
            raise ValueError(f"unknown neighbourhood kind {self.kind!r}")
        object.__setattr__(self, "n_samples", _integer(self.n_samples, "n_samples"))
        if self.n_samples < 2:
            raise ValueError("need at least two sample points per axis")

    def haar_mass(self) -> float:
        if self.kind == "affine":
            return self.beta * (math.sqrt(self.alpha) - 1 / math.sqrt(self.alpha))
        return self.beta_x * self.beta_w

    def offsets(self):
        """Sample points of the set, identity included (odd densities)."""
        n = self.n_samples
        if self.kind == "affine":
            delta = np.linspace(-self.beta / 2, self.beta / 2, n)
            tau = np.exp(np.linspace(-math.log(self.alpha) / 2,
                                     math.log(self.alpha) / 2, n))
            d, t = np.meshgrid(delta, tau, indexing="ij")
            return d.ravel(), t.ravel()
        ox = np.linspace(-self.beta_x / 2, self.beta_x / 2, n)
        ow = np.linspace(-self.beta_w / 2, self.beta_w / 2, n)
        dx, dw = np.meshgrid(ox, ow, indexing="ij")
        return dx.ravel(), dw.ravel()

    def to_dict(self) -> dict:
        return {"kind": self.kind, **{key: getattr(self, key) for key in _U_KEYS[self.kind]},
                "n_samples": self.n_samples}

    @staticmethod
    def from_dict(d: dict) -> "NeighborhoodSpec":
        kind = _object(d, "neighbourhood")["kind"]
        if not isinstance(kind, str) or kind not in _U_KEYS:
            raise ValueError(f"unknown neighbourhood kind {kind!r}")
        _known_keys(d, ("kind", *_U_KEYS[kind], "n_samples"), "neighbourhood")
        sides = {key: _finite_number(d[key], f"neighbourhood.{key}") for key in _U_KEYS[kind]}
        return NeighborhoodSpec(kind, n_samples=d.get("n_samples", _DEFAULT_OSC_SAMPLES),
                                **sides)


def affine_box(beta: float, alpha: float, n_samples: int = _DEFAULT_OSC_SAMPLES) -> NeighborhoodSpec:
    return NeighborhoodSpec("affine", beta=beta, alpha=alpha, n_samples=n_samples)


def tf_box(beta_x: float, beta_w: float, n_samples: int = _DEFAULT_OSC_SAMPLES) -> NeighborhoodSpec:
    return NeighborhoodSpec("tf", beta_x=beta_x, beta_w=beta_w, n_samples=n_samples)


def unit_weight(kind: str) -> WeightSpec:
    return power_scale(0.0) if kind == "affine" else poly_tf(0.0, 0.0)


def weight_reciprocal(w: WeightSpec) -> WeightSpec:
    """Pointwise reciprocal 1/w as a weight on the same group."""
    if w.family == "power_scale":
        return power_scale(-w.s)
    if w.family == "symmetric_power":
        rho = w.rho
        return custom_weight(lambda b, a: 1.0 / (a**rho + a ** (-rho)), "affine")
    if w.family == "poly_tf":
        r, s = w.r, w.s
        return custom_weight(lambda x, om: (1.0 + x) ** (-r) * (1.0 + om) ** (-s), "tf")
    ev = w.evaluator
    return custom_weight(lambda *args: 1.0 / ev(*args), w.group)


def _p_norm(values, weights, p: float, measure=1.0) -> float:
    """The field and sequence norm ``(sum |v w|^p measure)^(1/p)``; ``max |v w|`` at p = inf."""
    a = np.abs(values) * weights
    if math.isinf(_exponent(p)):
        return float(np.max(a))
    return float(np.sum(a**p * measure) ** (1.0 / p))


def lpm_norm(F: GroupField, p: float, m: WeightSpec | None = None) -> float:
    """Weighted norm ``||F m||_{L^p}``; the grid max realizes p = inf."""
    quad = F.quad
    if m is None:
        m = unit_weight(quad.kind)
    weights = eval_weight_at(m, quad.kind, *quad.node_points())
    return _p_norm(F.values, weights, p, quad.node_weights())


def field_l2_norm(F: GroupField) -> float:
    return lpm_norm(F, 2.0)


def involute(F: GroupField, kind: str = "nabla") -> GroupField:
    """``F^v(x) = F(x^{-1})`` or ``F^nabla(x) = conj F(x^{-1})`` by interpolation."""
    if kind not in ("vee", "nabla"):
        raise ValueError("kind must be 'vee' or 'nabla'")
    vals, _ = _read_chart(F, *_inverse(F.quad.kind, F.quad.node_points()))
    if kind == "nabla":
        vals = np.conj(vals)
    return GroupField(F.quad, vals)


def _edge_l1_fraction(F: GroupField) -> float:
    wts = F.quad.node_weights()
    mass = np.abs(F.values) * wts
    total = float(np.sum(mass))
    if total == 0.0:
        return 0.0
    mask = np.zeros(F.values.shape, dtype=bool)
    mask[:, :1, :] = True
    mask[:, -1:, :] = True
    mask[:, :, :2] = True
    mask[:, :, -2:] = True
    return float(np.sum(mass[mask]) / total)


def _convolve_direct(F: GroupField, G: GroupField) -> np.ndarray:
    quad = F.quad
    b_n, a_n = quad.node_points()
    wts = quad.node_weights().ravel()
    fb, fa = b_n.ravel(), a_n.ravel()
    fv = F.values.ravel() * wts
    out = np.empty(quad.n_nodes, dtype=np.complex128)
    for idx in range(quad.n_nodes):
        bx = b_n.flat[idx]
        ax = a_n.flat[idx]
        vals = affine_field_interpolate(G, *_pullback("affine", (fb, fa), (bx, ax)))
        out[idx] = np.sum(fv * vals)
    return out.reshape(quad.shape)


def _next_fast_len(n: int) -> int:
    """Smallest 11-smooth length ``>= n``: the lengths pocketfft transforms fastest."""
    while True:
        k = n
        for p in (2, 3, 5, 7, 11):
            while k % p == 0:
                k //= p
        if k == 1:
            return n
        n += 1


def _fft_len(quad) -> int:
    # circular length 2*n_b is alias-free for the retained output window
    return _next_fast_len(2 * quad.n_b)


def _sign_routes(quad, p: int):
    """``(input, output, flipped)`` branch positions that kernel plane ``p`` joins.

    Plane ``sigma`` takes an input on branch ``s`` to the output branch
    ``sigma * s``.  A negative-scale input is read b-reversed and its
    output reversed back (``flipped``): its blocks are the positive-scale
    blocks of the same plane, b-reversed.
    """
    sigma = quad.signs[p]
    return [(quad.signs.index(s), quad.signs.index(sigma * s), s < 0)
            for s in quad.signs if sigma * s in quad.signs]


def _kernel_blocks(quad):
    """Geometry of the fast path's kernel blocks, grouped by kernel plane.

    One block per (kernel plane, input scale) with a positive input scale
    ``a_in = s_j``: the kernel is read at the bilinear points of the direct
    sum, trimmed to the b-offsets that map into the chart (``cols`` of the
    zero-padded FFT row) and to the output ``rows`` whose scale ratio lies
    in the u-range.  The input scale ``-s_j`` needs no block of its own: its
    b-indices ``(m db / a_in - b_lo) / db`` over the symmetric offsets
    ``m`` are those of ``s_j`` reversed, exactly, so its block is this one
    b-reversed (see :func:`_sign_routes`).  Planes that join no pair of
    the chart's branches are skipped.  Yields ``(p, j, rows, cols, w_j, fu,
    fb)``; ``p`` is the plane's branch position, and ``fu`` and ``fb`` are
    the kernel's fractional indices of the rows and the columns.
    """
    n_b = quad.n_b
    n_u = quad.n_scales
    db = quad.db
    du = quad.du
    u = quad.u_grid()
    scales = np.exp(u)
    ms = np.arange(-(n_b - 1), n_b)
    for p in range(len(quad.signs)):
        if not _sign_routes(quad, p):
            continue
        for j in range(n_u):
            # kernel b-index of each node offset m, kept by the same in-chart
            # test (snap included) that the direct sum's interpolation applies;
            # both index arrays are monotone, so what is kept is one run
            fb_all = (ms * db / scales[j] - quad.b_lo) / db
            kept_b = np.flatnonzero(_in_chart(fb_all, n_b))
            fu_all = (u - u[j] - quad.u_lo) / du
            kept_u = np.flatnonzero(_in_chart(fu_all, n_u))
            if kept_b.size == 0 or kept_u.size == 0:
                continue
            cols = slice(kept_b[0], kept_b[-1] + 1)
            rows = slice(kept_u[0], kept_u[-1] + 1)
            w_j = db * du / scales[j]
            yield p, j, rows, cols, w_j, fu_all[rows], fb_all[cols]


def _spectra_nbytes(quad) -> int:
    """Bytes the kernel's block spectra take if stored, before any FFT."""
    n_rows = sum(rows.stop - rows.start for _, _, rows, *_ in _kernel_blocks(quad))
    return n_rows * _fft_len(quad) * np.dtype(np.complex128).itemsize


def _kernel_reads(G: GroupField):
    """``(p, j, rows, cols, w_j, block)``: the kernel read at each block's points.

    Log-scale rows are blended first, then b-columns, so each value equals
    :func:`~coorbit.groups._bilinear` at the same indices bit for bit.
    """
    for p, j, rows, cols, w_j, fu, fb in _kernel_blocks(G.quad):
        yield p, j, rows, cols, w_j, _read_rows(_read_rows(G.values[p], fu).T, fb).T


def _kernel_spectra(G: GroupField):
    """``(p, j, rows, w_j, spectrum)`` of every nonzero kernel block.

    The block is zero-padded to the FFT length and transformed along b.
    """
    L = _fft_len(G.quad)
    for p, j, rows, cols, w_j, block in _kernel_reads(G):
        if not np.any(block):
            continue
        gm = np.zeros((block.shape[0], L), dtype=np.complex128)
        gm[:, cols] = block
        yield p, j, rows, w_j, np.fft.fft(gm, axis=-1, out=gm)


def _apply_spectra(F: GroupField, spectra) -> np.ndarray:
    """``F * G`` from G's block spectra, one FFT correlation per block and input branch.

    The spectra come grouped by kernel plane, stored or streamed.  Each
    plane's block for input scale ``j`` meets F's row ``j`` on every
    input branch the plane joins (:func:`_sign_routes`), negative-scale
    rows b-reversed: the block spectrum times ``w_j`` times the row's
    spectrum goes into one product buffer and is summed into that
    branch's accumulator in the frequency domain, leaving the spectrum
    intact.  One inverse FFT per accumulated row follows, and the result
    is added to its output branch, reversed back for a reversed input.
    """
    quad = F.quad
    n_b = quad.n_b
    L = _fft_len(quad)
    out = np.zeros(quad.shape, dtype=np.complex128)
    acc = np.empty((2, quad.n_scales, L), dtype=np.complex128)
    rows_hat = np.empty((2, L), dtype=np.complex128)
    buf = np.empty((quad.n_scales, L), dtype=np.complex128)
    for p, blocks in itertools.groupby(spectra, key=lambda block: block[0]):
        routes = _sign_routes(quad, p)
        n = len(routes)
        acc[:n] = 0
        x = rows_hat[:n]
        for _, j, rows, w_j, spec in blocks:
            x[:, n_b:] = 0
            for k, (si, _, flipped) in enumerate(routes):
                x[k, :n_b] = F.values[si, j, ::-1] if flipped else F.values[si, j]
            np.fft.fft(x, axis=-1, out=x)
            x *= w_j
            for k in range(n):
                acc[k, rows] += np.multiply(spec, x[k], out=buf[: len(spec)])
        for k, (_, so, flipped) in enumerate(routes):
            np.fft.ifft(acc[k], axis=-1, out=acc[k])
            window = acc[k, :, n_b - 1 : 2 * n_b - 1]
            out[so] += window[:, ::-1] if flipped else window
    return out


def _with_truncation(F: GroupField, vals, right_edge: float) -> GroupField:
    meta = {
        "truncation": {
            "left_factor_edge_l1_fraction": _edge_l1_fraction(F),
            "right_factor_edge_l1_fraction": right_edge,
        }
    }
    return GroupField(F.quad, vals, meta)


def _check_affine_pair(F: GroupField, G: GroupField):
    _on_group("affine", field=F.quad, kernel=G.quad)
    if F.quad != G.quad:
        raise ValueError("convolution needs matching quadratures")


def convolve(F: GroupField, G: GroupField) -> GroupField:
    """Group convolution ``(F * G)(x) = sum_y F(y) G(y^{-1}x) w(y)``.

    Runs one FFT correlation per input-scale row.  It queries the kernel
    at the interpolation points of the literal double sum
    (``_convolve_direct``, kept as the test oracle) and matches it to
    roundoff.  G's block spectra, one per kernel plane and positive input
    scale, are streamed; :class:`KernelOperator` stores them for reuse.
    """
    _check_affine_pair(F, G)
    return _with_truncation(F, _apply_spectra(F, _kernel_spectra(G)), _edge_l1_fraction(G))


class KernelOperator:
    """Right convolution with a fixed kernel, ``F -> F * K``, built once.

    The fast path's kernel block spectra depend on K alone, so they are
    computed here once and reused by every :meth:`apply`: one per kernel
    plane and positive input scale, up to ``n_signs * n_scales**2`` rows of
    the FFT length.  When storing them would take more than
    ``_SPECTRA_BYTE_LIMIT`` bytes, each apply streams them through the
    same loop, as :func:`convolve` does (bounded memory).  ``apply(F)``
    equals ``convolve(F, K)`` bit for bit, truncation report included.
    """

    def __init__(self, K: GroupField):
        _on_group("affine", kernel=K.quad)
        self.K = K
        self._right_edge = _edge_l1_fraction(K)
        stored = _spectra_nbytes(K.quad) <= _SPECTRA_BYTE_LIMIT
        self._spectra = list(_kernel_spectra(K)) if stored else None

    @property
    def stored(self) -> bool:
        """Whether the block spectra are held rather than streamed."""
        return self._spectra is not None

    def apply(self, F: GroupField) -> GroupField:
        _check_affine_pair(F, self.K)
        spectra = self._spectra if self.stored else _kernel_spectra(self.K)
        return _with_truncation(F, _apply_spectra(F, spectra), self._right_edge)


def oscillation(G: GroupField, U: NeighborhoodSpec) -> GroupField:
    """Pointwise ``max_u |G(u x) - G(x)|`` over the U sample points.

    The essential supremum is approximated on the finite offset grid of
    ``U``, a lower estimate.  Out-of-chart evaluations read zero, so a
    node whose moved point leaves the chart takes ``|G(x)|``; this only
    inflates the oscillation near the chart edge (the safe direction for
    every certificate built on top of it).

    Each offset moves the node set to a tensor product in chart
    coordinates whose axis-0 index depends on one offset component
    alone: ``tau`` on the affine chart (``log|tau a|`` shifts every row
    by ``log tau / du``), ``dx`` on the TF plane.  Offsets are grouped by
    that component; each group blends axis 0 once into a block with
    axis 1 leading (the plane is transposed once per sign branch), and
    each offset reads axis 1 by gathering whole rows of the block.  Both
    maps are monotone, so the in-chart nodes form contiguous runs.  Axis
    0 is blended first, as in the pointwise kernel, so the values equal
    pointwise interpolation bit for bit.
    """
    quad = G.quad
    _on_group(quad.kind, neighbourhood=U)
    affine = quad.kind == "affine"
    planes = G.values if affine else G.values[None]
    c1, c2 = (quad.b_grid(), quad.scale_grid()) if affine else (quad.x_grid(), quad.w_grid())
    d, t = U.offsets()
    key, other = (t, d) if affine else (d, t)

    def index(k, v):
        """Chart indices of the nodes moved by the offset with components ``k``, ``v``."""
        return _chart_index(quad, *_product(quad.kind, (v, k) if affine else (k, v), (c1, c2)))

    n0, n1 = planes.shape[1:]
    planes_t = [np.ascontiguousarray(plane.T) for plane in planes]
    osc = np.zeros((len(planes), n1, n0))
    # the runs in-chart for every offset; a node outside them read zero for
    # some offset, so its oscillation is at least |G|, taken once at the end
    lo0, hi0, lo1, hi1 = 0, n0, 0, n1
    for k in np.unique(key):
        group = other[key == k]
        f0 = index(k, group[0])[0]
        rows = _in_chart_run(f0, n0)
        lo0, hi0 = max(lo0, rows.start), min(hi0, rows.stop)
        if rows.start >= rows.stop:
            continue
        blocks = [np.ascontiguousarray(_read_rows(plane, f0[rows]).T) for plane in planes]
        for v in group:
            f1 = index(k, v)[1]
            cols = _in_chart_run(f1, n1)
            lo1, hi1 = max(lo1, cols.start), min(hi1, cols.stop)
            if cols.start >= cols.stop:
                continue
            for block, plane_t, osc_t in zip(blocks, planes_t, osc):
                vals = _read_rows(block, f1[cols])
                vals -= plane_t[cols, rows]
                window = osc_t[cols, rows]
                np.maximum(window, np.abs(vals), out=window)
    for plane_t, osc_t in zip(planes_t, osc):
        for edge in (np.s_[:lo1], np.s_[hi1:], np.s_[:, :lo0], np.s_[:, hi0:]):
            np.maximum(osc_t[edge], np.abs(plane_t[edge]), out=osc_t[edge])
    osc = np.ascontiguousarray(osc.transpose(0, 2, 1), dtype=np.complex128)
    return GroupField(quad, osc.reshape(quad.shape))


@dataclass(frozen=True)
class YoungReport:
    checks: tuple  # of dicts {name, lhs, rhs, pass}
    slack: float

    @property
    def passed(self) -> bool:
        return all(c["pass"] for c in self.checks)

    def to_dict(self) -> dict:
        return {"slack": self.slack, "pass": self.passed,
                "checks": [dict(c) for c in self.checks]}


def young_check(
    F: GroupField,
    G: GroupField,
    p: float,
    m: WeightSpec,
    w: WeightSpec,
    slack: float = 0.05,
) -> YoungReport:
    """Numerically test the four convolution-module inequalities.

    Checks, with ``q`` conjugate to ``p`` and ``H = G``:

    * algebra:   ||G * F||_{L1_w}      <= ||G||_{L1_w} ||F||_{L1_w}
    * left:      ||G * F||_{Lp_m}      <= ||G||_{L1_w} ||F||_{Lp_m}
    * right:     ||F * G^vee||_{Lp_m}  <= ||F||_{Lp_m} ||G||_{L1_w}
    * duality:   ||F * H^vee||_{Linf_{1/w}} <= ||F||_{Lp_m} ||H||_{Lq_{1/m}}

    The slack absorbs quadrature and interpolation error; violations
    beyond it indicate a defect, not a tolerance issue.
    """
    if not is_p_control(w, m, p):
        raise ValueError("w is not a p-control-weight of m")
    q = math.inf if p == 1 else (1.0 if math.isinf(p) else p / (p - 1.0))
    GF = convolve(G, F)
    G_vee = involute(G, "vee")
    FGv = convolve(F, G_vee)

    norm_G_w = lpm_norm(G, 1.0, w)
    norm_F_w = lpm_norm(F, 1.0, w)
    norm_F_pm = lpm_norm(F, p, m)
    inv_w = weight_reciprocal(w)
    inv_m = weight_reciprocal(m)

    checks = []

    def add(name, lhs, rhs):
        checks.append({"name": name, "lhs": lhs, "rhs": rhs,
                       "pass": bool(lhs <= rhs * (1.0 + slack))})

    add("algebra_l1w", lpm_norm(GF, 1.0, w), norm_G_w * norm_F_w)
    add("left_module", lpm_norm(GF, p, m), norm_G_w * norm_F_pm)
    add("right_module", lpm_norm(FGv, p, m), norm_F_pm * norm_G_w)
    add("duality_sup", lpm_norm(FGv, math.inf, inv_w),
        norm_F_pm * lpm_norm(G, q, inv_m))
    return YoungReport(tuple(checks), slack)


def kernel_project(F: GroupField, K: GroupField) -> GroupField:
    """Projection onto the transform image: ``P(F) = F * K``."""
    return convolve(F, K)
