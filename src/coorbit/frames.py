"""Atom certification, frame certificates, and certified reconstruction.

The central object is the frame certificate for a kernel ``K`` and an
identity neighbourhood ``U``:

    q = ||K||_{L1_w} * ||osc_U(K)||_{L1_w},   pass iff q < 1.

A passing certificate guarantees a contractive Neumann iteration for
reconstructing reproducing-space fields from their lattice samples,

    F_{n+1} = Y + (F_n - T F_n),   T F = (sum_i F(x_i) phi_i) * K,

with asymptotic contraction ratio at most q.  ``design_lattice``
searches a geometric schedule of shrinking neighbourhoods until the
certificate passes and emits the matching lattice parameters.

All certified quantities are chart-truncated, and the oscillation's
supremum is sampled on U's offset grid (a lower estimate); every
certificate carries both caveats explicitly.  Chart truncation can only
be tested by widening the chart, never extrapolated.
"""

from __future__ import annotations

import bisect
import math
import sys
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .fields import (
    KernelOperator,
    NeighborhoodSpec,
    _p_norm,
    affine_box,
    field_l2_norm,
    lpm_norm,
    oscillation,
    unit_weight,
)
from .groups import (
    GroupField,
    GroupQuadrature,
    _exponent,
    _finite_number,
    _integer,
    _on_group,
    _Report,
)
from .lattices import (
    BUPU,
    AffineLattice,
    SampledSequence,
    TFLattice,
    _interpolate_at,
    bupu_synthesize,
)
from .signals import (
    SampledSignal,
    Spectrum,
    _frequencies,
    fourier,
    inverse_fourier,
    l2_norm,
    moments,
    derivative,
    vanishing_moment_count,
)
from .voice import (
    NotAdmissibleError,
    _TFOperator,
    _voice_operator,
    normalize_admissible,
    reproducing_kernel,
)
from .weights import WeightSpec, eval_weight_at

__all__ = [
    "FrameCertificate",
    "ReconstructionReport",
    "ReconstructionDivergence",
    "DesignSearchError",
    "DesignResult",
    "atom_kernel",
    "atom_certificate",
    "wavelet_atom_sufficient",
    "AtomSufficiencyReport",
    "stft_window_sufficient",
    "WindowSufficiencyReport",
    "frame_bounds_empirical",
    "BoundsReport",
    "neumann_reconstruct",
    "design_lattice",
    "GaborOperator",
    "gabor_coefficients",
    "gabor_synthesize",
    "gabor_frame_operator",
    "frame_operator_invert",
    "gabor_tightness_probe",
    "random_bandlimited_signal",
    "besov_exponent",
]

_TRUNCATION_CAVEAT = (
    "all L1_w quantities are chart-truncated; q < 1 on the chart does not "
    "bound the tails the chart cannot see"
)


@dataclass(frozen=True)
class FrameCertificate:
    kernel_l1w: float
    osc_l1w: float
    U: NeighborhoodSpec
    wspec: WeightSpec
    chart: dict

    @property
    def q(self) -> float:
        return self.kernel_l1w * self.osc_l1w

    @property
    def passed(self) -> bool:
        return bool(self.q < 1.0)

    @property
    def caveat(self) -> str:
        n = self.U.n_samples
        return (f"{_TRUNCATION_CAVEAT}; osc_l1w takes the sup over the {n}x{n} = {n * n} "
                "sampled offsets of U, a lower estimate of the sup over U")

    def to_dict(self) -> dict:
        return {
            "kernel_l1w": self.kernel_l1w,
            "osc_l1w": self.osc_l1w,
            "q": self.q,
            "pass": self.passed,
            "U": self.U.to_dict(),
            "weight": self.wspec.to_dict(),
            "chart": dict(self.chart),
            "caveat": self.caveat,
        }


@dataclass(frozen=True)
class ReconstructionReport(_Report):
    iterations: int
    residual_history: tuple
    converged: bool
    final_relative_error: float | None = None
    lattice_points: int | None = None
    active_tiles: int | None = None
    uncovered_nodes: int | None = None
    tiles_finer_than_cells: bool | None = None

    def contraction_ratios(self) -> np.ndarray:
        h = np.asarray(self.residual_history)
        if h.size < 2:
            return np.asarray([])
        with np.errstate(divide="ignore", invalid="ignore"):
            return h[1:] / h[:-1]


class ReconstructionDivergence(RuntimeError):
    def __init__(self, message: str, report: ReconstructionReport):
        super().__init__(message)
        self.report = report


def _stopping_rule(tol: float, max_iter: int) -> tuple:
    """``(tol, max_iter)`` with ``max_iter`` read as an integer, refused unless ``max_iter >= 1``
    and ``tol >= 0``: a run of no step would return its data, and no residual meets a
    negative or NaN tol."""
    max_iter = _integer(max_iter, "max_iter")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    if not tol >= 0:
        raise ValueError(f"tol must be >= 0, got {tol}")
    return tol, max_iter


def _fixed_point(step, x0, norm_b: float, tol: float, max_iter: int, **tiles):
    """The loop of both frame iterations: ``x, res = step(x)`` until ``res <= tol * norm_b``.

    Zero data (``norm_b == 0``) returns ``x0`` after one iteration of
    residual zero.  Residual growth beyond 0.1% per step, three steps in
    a row, raises :class:`ReconstructionDivergence` with the report;
    stagnation at a consistency floor jitters but does not grow.
    """
    x, streak = x0, 0
    history, converged = ([0.0], True) if norm_b == 0.0 else ([], False)
    while not converged and len(history) < max_iter:
        x, res = step(x)
        streak = streak + 1 if history and res > history[-1] * 1.001 else 0
        history.append(res)
        converged = bool(res <= tol * norm_b)
        if streak >= 3:
            raise ReconstructionDivergence(
                "residual grew for three consecutive iterations",
                ReconstructionReport(len(history), tuple(history), False, **tiles))
    return x, ReconstructionReport(len(history), tuple(history), converged, **tiles)


class DesignSearchError(RuntimeError):
    def __init__(self, message: str, best_q: float, q_history: list, q_steps: list):
        super().__init__(message)
        self.best_q = best_q
        self.q_history = q_history
        self.q_steps = q_steps


def _certificate_from_kernel(K, w, U, kernel_l1w=None) -> FrameCertificate:
    """Certificate of kernel ``K`` for ``U`` on its chart; ``kernel_l1w`` skips the norm."""
    if kernel_l1w is None:
        kernel_l1w = lpm_norm(K, 1.0, w)
    return FrameCertificate(kernel_l1w, lpm_norm(oscillation(K, U), 1.0, w), U, w,
                            K.quad.to_dict())


def atom_kernel(psi: SampledSignal, quad: GroupQuadrature) -> GroupField:
    """Self-kernel of ``psi`` on the chart, after normalizing the window.

    Affine charts normalize to admissibility constant one (the kernel
    must be convolution idempotent for a certificate to mean anything),
    TF charts to unit L2 norm; non-admissible windows raise.
    """
    if quad.kind == "affine":
        return reproducing_kernel(normalize_admissible(psi), quad)
    norm = l2_norm(psi)
    if norm == 0.0:
        raise NotAdmissibleError("zero window")
    return reproducing_kernel(psi.with_values(psi.values / norm), quad)


def atom_certificate(
    psi: SampledSignal, quad: GroupQuadrature, w: WeightSpec, U: NeighborhoodSpec
) -> FrameCertificate:
    """Certificate for the self-kernel (``atom_kernel``) of ``psi`` on the chart;
    a weight or U on another group than the chart's raises before the kernel is built."""
    _on_group(quad.kind, weight=w, neighbourhood=U)
    return _certificate_from_kernel(atom_kernel(psi, quad), w, U)


@dataclass(frozen=True)
class AtomSufficiencyReport(_Report):
    vanishing_moments: int
    rho: float
    rho_bound: float
    absolute_moments: tuple
    derivative_l1_norms: tuple
    passed: bool


def wavelet_atom_sufficient(
    psi: SampledSignal, rho: float, tol: float = 1e-6
) -> AtomSufficiencyReport:
    """Moment/smoothness sufficient condition for wavelet atom status.

    Measures the vanishing-moment count L, the windowed absolute moments
    through order L+1 and the windowed L1 norms of the derivatives
    through order L; the verdict is ``rho < L - 1/2``.  On a finite grid
    integrability is automatic, so only magnitudes are reported.
    """
    if _finite_number(rho, "rho") < 0:
        raise ValueError("rho must be >= 0")
    L = vanishing_moment_count(psi, tol)
    rep = moments(psi, L + 1)
    deriv_norms = [float(np.trapezoid(np.abs(psi.values), dx=psi.dt))]
    for k in range(1, L + 1):
        dk = derivative(psi, k)
        deriv_norms.append(float(np.trapezoid(np.abs(dk.values), dx=psi.dt)))
    bound = L - 0.5
    return AtomSufficiencyReport(
        L, rho, bound, rep.absolute_moments, tuple(deriv_norms), bool(rho < bound)
    )


@dataclass(frozen=True)
class WindowSufficiencyReport(_Report):
    alpha: float
    beta: float
    time_norm: float
    freq_norm: float
    time_tail_fraction: float
    freq_tail_fraction: float
    passed: bool


def _weighted_l1_with_tail(x: np.ndarray, vals: np.ndarray, dx: float, exponent: float):
    w = np.abs(vals) * (1.0 + np.abs(x)) ** exponent
    total = float(np.trapezoid(w, dx=dx))
    n = x.size
    edge = max(1, n // 20)  # outer 10% of the grid: 5% on each end
    tail = float(np.trapezoid(w[:edge], dx=dx) + np.trapezoid(w[-edge:], dx=dx))
    frac = tail / total if total > 0 else math.inf
    return total, frac


def stft_window_sufficient(g: SampledSignal, r: float, s: float) -> WindowSufficiencyReport:
    """Joint time/frequency localization test for Gabor window status.

    Uses the exponents ``alpha = 2r + 1 + 1`` and ``beta = 2s + 1 + 1``
    (margin one over the strict thresholds in dimension one) and demands
    that the outer 10% of each grid carries less than 1% of the weighted
    L1 mass -- a boxcar window fails through its sinc spectrum.
    """
    if _finite_number(r, "r") < 0 or _finite_number(s, "s") < 0:
        raise ValueError("r and s must be >= 0")
    alpha = 2 * r + 2.0
    beta = 2 * s + 2.0
    t = g.grid()
    tn, tf = _weighted_l1_with_tail(t, g.values, g.dt, alpha)
    spec = fourier(g)
    w = spec.grid()
    fn, ff = _weighted_l1_with_tail(w, spec.values, spec.dw, beta)
    ok = tn > 0 and fn > 0 and tf < 0.01 and ff < 0.01
    return WindowSufficiencyReport(alpha, beta, tn, fn, tf, ff, bool(ok))


def random_bandlimited_signal(
    template: SampledSignal,
    band: tuple,
    rng: np.random.Generator,
    envelope_width: float | None = None,
) -> SampledSignal:
    """Random smooth signal with spectrum inside ``band`` (both signs).

    Random complex bin amplitudes under a raised-cosine band taper,
    inverted to the time grid and localized by a Gaussian envelope so
    the samples decay inside the window; normalized to unit L2 norm.
    ``envelope_width`` defaults to a sixth of the window's span.
    """
    w_lo, w_hi = band
    if not (0 <= w_lo < w_hi):
        raise ValueError("need 0 <= w_lo < w_hi")
    if envelope_width is not None and not envelope_width > 0:
        raise ValueError(f"envelope_width must be positive, got {envelope_width!r}")
    w_c, dw = _frequencies(template.n, template.dt)
    w = w_c[0] + dw * np.arange(template.n)  # Spectrum.grid() of fourier(template)
    amp = np.zeros(w.size, dtype=np.complex128)
    mask = (np.abs(w) >= w_lo) & (np.abs(w) <= w_hi)
    phase = np.exp(2j * np.pi * rng.uniform(size=int(np.sum(mask))))
    mag = rng.uniform(0.2, 1.0, int(np.sum(mask)))
    taper = np.cos(
        np.pi / 2 * (2 * (np.abs(w[mask]) - w_lo) / (w_hi - w_lo) - 1.0)
    ) ** 2
    amp[mask] = mag * phase * taper
    sig = inverse_fourier(Spectrum(w_c[0], dw, amp, template.t0))
    t = sig.grid()
    center = t[0] + (t[-1] - t[0]) / 2
    width = (t[-1] - t[0]) / 6 if envelope_width is None else envelope_width
    vals = sig.values * np.exp(-(((t - center) / width) ** 2))
    out = SampledSignal(sig.t0, sig.dt, vals)
    n = l2_norm(out)
    if n == 0:
        raise ValueError("degenerate draw")
    return out.with_values(out.values / n)


@dataclass(frozen=True)
class BoundsReport(_Report):
    a_hat: float
    b_hat: float
    ratios: tuple
    draws: int


def frame_bounds_empirical(
    window: SampledSignal,
    lat,
    p: float = 2.0,
    m: WeightSpec | None = None,
    ensemble: int = 20,
    seed: int = 0,
    *,
    quad: GroupQuadrature,
    band: tuple = (0.1, 1.0),
    envelope_width: float | None = None,
) -> BoundsReport:
    """Sampled-to-continuous norm ratios over an ensemble of random signals.

    For each draw ``f``, the ratio is the discrete ``l^p_m`` norm of the
    transform sampled on the lattice against the chart ``L^p_m`` norm of
    the transform itself; the empirical bounds are the extremes.  Draws
    whose transform norm vanishes are redrawn (at most ten times each).  A bad
    ``ensemble`` or ``p``, or a lattice off the chart's group, raises before any draw.
    """
    ensemble = _integer(ensemble, "ensemble")
    if ensemble < 1:
        raise ValueError("ensemble must be >= 1")
    _exponent(p)
    _on_group(quad.kind, lattice=lat)
    rng = np.random.default_rng(seed)
    # what every draw shares, as lpm_norm, sample_field and seq_lpm_norm compute it
    m = m if m is not None else unit_weight(quad.kind)
    chart_weights = eval_weight_at(m, quad.kind, *quad.node_points())
    node_weights = quad.node_weights()
    points = lat.point_arrays()
    point_weights = eval_weight_at(m, lat.kind, *points)
    # every draw lands on one grid, so the operator built on the first serves all
    op = None
    ratios = []
    for _ in range(ensemble):
        for _attempt in range(10):
            f = random_bandlimited_signal(window, band, rng, envelope_width)
            if op is None:
                op = _voice_operator(f, window, quad)
            F = GroupField(quad, op.analyze(f.values).reshape(quad.shape))
            denom = _p_norm(F.values, chart_weights, p, node_weights)
            if denom > 0:
                break
        else:
            raise ValueError("could not draw a test signal with nonzero transform")
        samples, _ = _interpolate_at(F, lat, *points)
        ratios.append(_p_norm(samples, point_weights, p) / denom)
    ratios = tuple(float(r) for r in ratios)
    return BoundsReport(min(ratios), max(ratios), ratios, ensemble)


def neumann_reconstruct(
    samples: SampledSequence | np.ndarray,
    bupu: BUPU,
    K: GroupField,
    tol: float = 1e-3,
    max_iter: int = 100,
    certificate: FrameCertificate | None = None,
    allow_uncertified: bool = False,
    ground_truth: GroupField | None = None,
):
    """Invert ``T F = (sum_i F(x_i) phi_i) * K`` by the fixed-point iteration.

    ``Y`` is T applied to the (unknown) field with the known samples,
    read as ``bupu_synthesize`` reads them: a ``SampledSequence`` or one
    coefficient per lattice point, or one per active tile as
    ``BUPU.active_samples`` returns them.  The iteration
    ``F <- Y + (F - T F)`` converges geometrically when
    the certificate's q is below one.  Divergence (three residual
    increases in a row) raises, carrying the report; the q bound is a
    chart-truncated estimate and may be optimistic, so garbage is never
    returned silently.  Each iteration reads F only at the tiles that
    hold chart nodes (``BUPU.sample_synthesize``); the report carries
    the partition's tile counts.  The kernel is applied through one
    :class:`~coorbit.fields.KernelOperator`, built after the samples are
    read and before the first iteration; ``max_iter < 1`` and a negative
    or NaN ``tol`` raise first.
    """
    tol, max_iter = _stopping_rule(tol, max_iter)
    if certificate is None and not allow_uncertified:
        raise ValueError(
            "no certificate supplied; pass allow_uncertified=True to override"
        )
    if certificate is not None and not certificate.passed and not allow_uncertified:
        raise ValueError("certificate did not pass (q >= 1)")
    if bupu.quad != K.quad:
        raise ValueError("partition chart must match the kernel chart")
    if ground_truth is not None and ground_truth.quad != K.quad:
        raise ValueError("ground truth chart must match the kernel chart")

    # synthesized first: refused samples never pay for the kernel operator
    Y = bupu_synthesize(samples, bupu)
    project = KernelOperator(K).apply
    tiles = {
        "lattice_points": bupu.lattice.n_points,
        "active_tiles": int(bupu.active_tiles.size),
        "uncovered_nodes": bupu.uncovered_nodes,
        "tiles_finer_than_cells": bupu.tiles_finer_than_cells,
    }
    Y = project(Y)

    def step(F):
        TF = project(bupu.sample_synthesize(F))
        F_next = GroupField(K.quad, Y.values + F.values - TF.values)
        return F_next, field_l2_norm(GroupField(K.quad, F_next.values - F.values))

    F, report = _fixed_point(step, Y, field_l2_norm(Y), tol, max_iter, **tiles)
    denom = 0.0 if ground_truth is None else field_l2_norm(ground_truth)
    if denom > 0:
        err = field_l2_norm(GroupField(K.quad, F.values - ground_truth.values)) / denom
        report = replace(report, final_relative_error=err)
    return F, report


@dataclass(frozen=True)
class DesignResult:
    alpha: float
    beta: float
    certificate: FrameCertificate
    steps: int
    q_history: tuple
    q_steps: tuple = ()

    def lattice(self, quad: GroupQuadrature) -> AffineLattice:
        """The designed lattice over a window whose tiles cover every node of ``quad``.

        The tiles are the designed neighbourhood, the lattice's own
        ``(alpha, beta)`` box.  Scale levels reach ``a_min`` and ``a_max``;
        shifts reach the b-range at the finest level, where tile k covers
        half a tile either side of ``beta * k``.
        """
        ln_alpha = math.log(self.alpha)
        j_lo = int(math.floor(math.log(quad.a_min) / ln_alpha))
        j_hi = int(math.ceil(math.log(quad.a_max) / ln_alpha))
        reach = max(abs(quad.b_lo), abs(quad.b_hi)) / (self.beta * self.alpha**j_lo)
        k_span = int(math.ceil(reach - 0.5))
        return AffineLattice(self.alpha, self.beta, j_lo, j_hi, -k_span, k_span, quad.signs)

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "beta": self.beta,
            "steps": self.steps,
            "q_history": list(self.q_history),
            "q_steps": list(self.q_steps),
            "certificate": self.certificate.to_dict(),
        }


def _first_pass(n_steps: int, passes) -> int | None:
    """An index in ``range(n_steps)`` where ``passes`` holds, or None if none does.

    Probes 0, 1, 3, 7, ..., 2^k - 1, capped at ``n_steps - 1``, until one
    passes, then bisects between the last failing probe and the passing
    one.  If the capped probe fails too, the other indices are tried in
    ascending order.  No index is evaluated twice.  The index returned
    passes, and it is 0 or its predecessor was evaluated and failed; on a
    monotone ``passes`` it is the first passing index, found in at most
    ``max(1, 2 ceil(log2(n + 1)))`` evaluations.
    """
    failed = []
    probe = 0
    while not passes(probe):
        failed.append(probe)
        if probe == n_steps - 1:
            return next((n for n in range(n_steps) if n not in failed and passes(n)), None)
        probe = min(2 * probe + 1, n_steps - 1)
    lo = failed[-1] + 1 if failed else 0
    return bisect.bisect_left(range(lo, probe), True, key=passes) + lo


def design_lattice(
    psi: SampledSignal,
    quad: GroupQuadrature,
    w: WeightSpec,
    alpha0: float = 2.0,
    beta0: float = 1.0,
    gamma: float = 0.7,
    max_steps: int = 20,
) -> DesignResult:
    """Shrink ``(alpha_n, beta_n) = (1 + (alpha0-1) gamma^n, beta0 gamma^n)``
    until the frame certificate passes.

    The kernel and its weighted L1 norm are fixed along the schedule;
    only the oscillation shrinks over nested neighbourhoods, so q is
    expected to be nonincreasing, and ``_first_pass`` searches the steps.
    ``q_history`` holds the q of each evaluated step and ``q_steps`` their
    1-based numbers, in ascending order.  The search stops at
    ``max_steps`` or at the first step whose alpha rounds to 1 or beta to
    0.  Raises with the best q when no step passes, and before the kernel
    is built when the schedule cannot shrink or takes no step, or when the
    chart or the weight is not on the affine group.
    """
    max_steps = _integer(max_steps, "max_steps")
    for key, value, ok in (("alpha0", alpha0, 1 < alpha0 < math.inf),
                           ("beta0", beta0, 0 < beta0 < math.inf),
                           ("gamma", gamma, 0 < gamma < 1),
                           ("max_steps", max_steps, max_steps >= 1)):
        if not ok:
            raise ValueError(f"schedule.{key} = {value!r}: the schedule needs a finite "
                             "alpha0 > 1, a finite beta0 > 0, 0 < gamma < 1 and max_steps >= 1")
    _on_group("affine", chart=quad, weight=w)
    if w.family == "symmetric_power":
        suff = wavelet_atom_sufficient(psi, w.rho)
        if not suff.passed:
            raise ValueError(
                f"window has {suff.vanishing_moments} vanishing moments; "
                f"needs rho={w.rho} < {suff.rho_bound}"
            )

    def schedule(n):
        return 1.0 + (alpha0 - 1.0) * gamma**n, beta0 * gamma**n

    def stalled(n):
        alpha_n, beta_n = schedule(n)
        return alpha_n <= 1.0 or beta_n <= 0.0

    # both roundings are monotone in n, so the usable steps are a prefix;
    # alpha rounds to 1 before step 7e18 < sys.maxsize even at gamma = 1 - 2**-53
    n_steps = bisect.bisect_left(range(min(max_steps, sys.maxsize)), True, key=stalled)
    K = atom_kernel(psi, quad)
    kernel_l1w = lpm_norm(K, 1.0, w)
    certs = {}

    def passes(n):
        alpha_n, beta_n = schedule(n)
        certs[n] = _certificate_from_kernel(K, w, affine_box(beta_n, alpha_n), kernel_l1w)
        return certs[n].passed

    found = _first_pass(n_steps, passes)
    evaluated = sorted(certs)
    q_history = [certs[n].q for n in evaluated]
    q_steps = [n + 1 for n in evaluated]
    if found is None:
        stop = ("" if n_steps == max_steps
                else f"; the schedule stops shrinking at step {n_steps + 1}")
        raise DesignSearchError(
            f"no passing certificate in {n_steps} steps (best q = {min(q_history):.4g}){stop}",
            min(q_history), q_history, q_steps)
    return DesignResult(*schedule(found), certs[found], found + 1, tuple(q_history),
                        tuple(q_steps))


# ---------------------------------------------------------------------------
# Gabor frame operator
# ---------------------------------------------------------------------------

class GaborOperator(_TFOperator):
    """Gabor analysis and synthesis over a lattice window, built once in factored form.

    Gabor coefficients are STFT samples on the lattice, so this is the
    :class:`~coorbit.voice._TFOperator` with the lattice mapped to rows
    and an axis; coefficients run in lattice order.  When ``A[0,1] == 0``
    the translate depends on ``n1`` only: one row per ``n1`` (the
    translate times ``exp(2 pi i t c A10 n1)``) and the axis
    ``w = c A11 n2``, which analysis folds when ``c A11 dt = 1/M``.  Other
    lattices keep one row per lattice point and the single column
    ``w = 0``.  Neither forms an atom.
    """

    def __init__(self, g: SampledSignal, lat: TFLattice):
        xs, row_w = lat.point_arrays()
        axis = (0.0, 0.0, 1)
        if lat.generator[0, 1] == 0.0:
            n2 = lat.n2_max - lat.n2_min + 1
            xs = xs[::n2]
            row_w = lat.scale * lat.generator[1, 0] * np.arange(lat.n1_min, lat.n1_max + 1)
            step = lat.scale * lat.generator[1, 1]
            axis = (step * lat.n2_min, step, n2)
        super().__init__(g, xs, g.t0, g.dt, *axis, row_w=row_w)

    def apply(self, v: np.ndarray) -> np.ndarray:
        """The frame operator ``S v = synthesize(analyze(v))``."""
        return self.synthesize(self.analyze(v))


def gabor_coefficients(f: SampledSignal, g: SampledSignal, lat: TFLattice) -> np.ndarray:
    """Inner products ``<f, M_w T_x g>`` over the lattice window."""
    if not f.same_grid(g):
        raise ValueError("window must share the signal grid")
    return GaborOperator(g, lat).analyze(f.values)


def gabor_synthesize(coeffs, g: SampledSignal, lat: TFLattice) -> SampledSignal:
    """``sum_lambda c_lambda M_w T_x g``, one coefficient per lattice point."""
    c = np.asarray(coeffs, dtype=np.complex128)
    if c.shape != (lat.n_points,):
        raise ValueError(
            f"got {c.size} coefficients for a lattice of {lat.n_points} points"
        )
    return SampledSignal(g.t0, g.dt, GaborOperator(g, lat).synthesize(c))


def gabor_frame_operator(f: SampledSignal, g: SampledSignal, lat: TFLattice) -> SampledSignal:
    """``S f = sum_lambda <f, g_lambda> g_lambda`` over the lattice window."""
    if l2_norm(g) == 0.0:
        raise ValueError("zero window")
    if not f.same_grid(g):
        raise ValueError("window must share the signal grid")
    return SampledSignal(g.t0, g.dt, GaborOperator(g, lat).apply(f.values))


def gabor_tightness_probe(
    g: SampledSignal, lat: TFLattice, ensemble: int = 20, seed: int = 0,
    band: tuple = (0.1, 1.0), envelope_width: float | None = None,
) -> dict:
    """Spread of ``<S f, f> / ||f||^2`` over random band-limited draws; a bad
    ``ensemble`` or a zero window raises before any draw."""
    ensemble = _integer(ensemble, "ensemble")
    if ensemble < 1:
        raise ValueError("ensemble must be >= 1")
    if l2_norm(g) == 0.0:
        raise ValueError("zero window")
    rng = np.random.default_rng(seed)
    op = GaborOperator(g, lat)
    ratios = []
    for _ in range(ensemble):
        f = random_bandlimited_signal(g, band, rng, envelope_width)
        coeffs = op.analyze(f.values)
        quad_form = float(np.real(np.sum(np.abs(coeffs) ** 2)))
        ratios.append(quad_form / l2_norm(f) ** 2)
    ratios = np.asarray(ratios)
    mean = float(np.mean(ratios))
    return {
        "min": float(np.min(ratios)),
        "max": float(np.max(ratios)),
        "mean": mean,
        "variation": float((np.max(ratios) - np.min(ratios)) / mean) if mean else math.inf,
    }


def frame_operator_invert(
    y: SampledSignal,
    g: SampledSignal,
    lat: TFLattice,
    bounds: tuple,
    tol: float = 1e-8,
    max_iter: int = 50,
):
    """Solve ``S x = y`` by the relaxed Neumann iteration.

    With ``lam = 2/(A+B)`` the iteration ``x <- x + lam (y - S x)``
    contracts at rate ``(B-A)/(B+A)``; near-tight frames converge in a
    handful of steps.  Bounds too small for the frame make it diverge,
    which raises as in :func:`neumann_reconstruct`.  The frame operator
    is built once per call, as one :class:`GaborOperator`, after ``max_iter``,
    ``tol``, the bounds and the window are checked; a zero window raises.
    """
    tol, max_iter = _stopping_rule(tol, max_iter)
    a, b = bounds
    if not (0 < a <= b < math.inf):
        raise ValueError("need finite frame bounds 0 < a <= b < inf")
    if l2_norm(g) == 0.0:
        raise ValueError("zero window")
    if not y.same_grid(g):
        raise ValueError("window must share the signal grid")
    lam = 2.0 / (a + b)
    op = GaborOperator(g, lat)

    def step(x):
        r = y.values - op.apply(x)
        return x + lam * r, l2_norm(y.with_values(r))

    x, report = _fixed_point(step, lam * y.values, l2_norm(y), tol, max_iter)
    return y.with_values(x), report


def besov_exponent(p, s):
    """Smoothness-exponent map ``sigma = s - 1/2 + 1/p`` (with ``1/inf = 0``).

    Exact over the rationals: integer and Fraction inputs stay Fractions.
    """
    inv_p = 0 if _exponent(p) == math.inf else Fraction(1) / p
    return s - Fraction(1, 2) + inv_p, p, p
