import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import coorbit as cb
from coorbit import frames
from coorbit.fields import affine_box, convolve, field_l2_norm, lpm_norm, tf_box
from coorbit.frames import (
    DesignSearchError,
    GaborOperator,
    ReconstructionDivergence,
    atom_certificate,
    besov_exponent,
    design_lattice,
    frame_bounds_empirical,
    frame_operator_invert,
    gabor_coefficients,
    gabor_frame_operator,
    gabor_synthesize,
    gabor_tightness_probe,
    neumann_reconstruct,
    random_bandlimited_signal,
    stft_window_sufficient,
    wavelet_atom_sufficient,
)
from coorbit.groups import GroupField, build_affine_quadrature, build_tf_quadrature
from coorbit.lattices import (
    AffineLattice,
    TFLattice,
    build_bupu,
    bupu_synthesize,
    sample_field,
    seq_lpm_norm,
)
from coorbit.signals import inner
from coorbit.voice import NotAdmissibleError, _fold_length, cwt, gabor_atom, stft


@pytest.fixture(scope="module")
def atom_chart():
    # working chart for the all-moments atom: kernel decays well inside
    return build_affine_quadrature(-2, 2, 512, 1 / 4, 4, 49, (1, -1))


@pytest.fixture(scope="module")
def atom_kernel(s0_atom_normalized, atom_chart):
    return cwt(s0_atom_normalized, s0_atom_normalized, atom_chart)


class TestCertificate:
    def test_consistency_invariants(self, s0_atom, atom_chart):
        w1 = cb.symmetric_power(1.0)
        cert = atom_certificate(s0_atom, atom_chart, w1, affine_box(0.05, 1.05))
        assert cert.q == pytest.approx(cert.kernel_l1w * cert.osc_l1w, rel=1e-12)
        assert cert.passed == (cert.q < 1.0)
        assert "chart" in cert.to_dict()

    def test_enlarging_U_never_decreases_q(self, s0_atom, atom_chart):
        w1 = cb.symmetric_power(1.0)
        small = atom_certificate(s0_atom, atom_chart, w1, affine_box(0.02, 1.02))
        large = atom_certificate(s0_atom, atom_chart, w1, affine_box(0.1, 1.1))
        assert large.q >= small.q

    def test_not_admissible(self, gauss, atom_chart):
        with pytest.raises(NotAdmissibleError):
            atom_certificate(gauss, atom_chart, cb.symmetric_power(1.0),
                             affine_box(0.1, 1.1))

    def test_tf_certificate_runs(self, gauss):
        quad = build_tf_quadrature(-6, 0.125, 97, -6, 0.125, 97)
        cert = atom_certificate(gauss, quad, cb.poly_tf(0, 0), tf_box(0.05, 0.05))
        assert cert.q > 0


class TestAtomSufficiency:
    def test_mexican_hat(self, mexhat):
        assert wavelet_atom_sufficient(mexhat, 1.0).passed  # 1 < 2 - 1/2
        assert not wavelet_atom_sufficient(mexhat, 2.0).passed  # 2 >= 1.5

    def test_gaussian_fails(self, gauss):
        rep = wavelet_atom_sufficient(gauss, 0.0)
        assert rep.vanishing_moments == 0
        assert not rep.passed

    def test_report_contents(self, mexhat):
        rep = wavelet_atom_sufficient(mexhat, 1.0)
        assert rep.vanishing_moments == 2
        assert len(rep.absolute_moments) == rep.vanishing_moments + 2
        assert len(rep.derivative_l1_norms) == rep.vanishing_moments + 1
        assert all(np.isfinite(v) for v in rep.derivative_l1_norms)


class TestWindowSufficiency:
    def test_gaussian_passes(self, gauss):
        assert stft_window_sufficient(gauss, 1.0, 1.0).passed

    def test_boxcar_fails_in_frequency(self):
        n = 2048
        dt = 32.0 / n
        t = -16 + dt * np.arange(n)
        box = cb.SampledSignal(-16, dt, ((t >= -0.5) & (t < 0.5)).astype(float))
        rep = stft_window_sufficient(box, 0.0, 2.0)
        assert not rep.passed
        assert rep.freq_tail_fraction > 0.01

    def test_zero_signal_fails(self, gauss):
        rep = stft_window_sufficient(gauss.with_values(np.zeros(gauss.n)), 1.0, 1.0)
        assert not rep.passed


@pytest.fixture(scope="module")
def g():
    return cb.gaussian(-16, 16, 2048)


@pytest.fixture(scope="module")
def lat():
    # omega rows extend past the test band by several window bandwidths
    # so the frame operator stays well-conditioned on the leakage
    return TFLattice.separable(0.5, 0.5, (-24, 24), (-12, 12))


class TestGabor:

    def test_zero_in_zero_out(self, g, lat):
        zero = g.with_values(np.zeros(g.n))
        out = gabor_frame_operator(zero, g, lat)
        assert np.max(np.abs(out.values)) == 0.0

    def test_self_adjoint(self, g, lat):
        rng = np.random.default_rng(0)
        f = random_bandlimited_signal(g, (0.2, 1.0), rng, envelope_width=2.5)
        h = random_bandlimited_signal(g, (0.2, 1.0), rng, envelope_width=2.5)
        sf = gabor_frame_operator(f, g, lat)
        sh = gabor_frame_operator(h, g, lat)
        assert inner(sf, h) == pytest.approx(inner(f, sh), abs=1e-8)

    def test_tightness_probe(self, g, lat):
        probe = gabor_tightness_probe(g, lat, ensemble=20, seed=5,
                                      band=(0.2, 1.2), envelope_width=2.5)
        assert probe["variation"] < 0.10

    def test_synthesis_adjoint_roundtrip(self, g, lat):
        rng = np.random.default_rng(1)
        f = random_bandlimited_signal(g, (0.2, 1.0), rng, envelope_width=2.5)
        c = gabor_coefficients(f, g, lat)
        sf = gabor_frame_operator(f, g, lat)
        assert np.allclose(gabor_synthesize(c, g, lat).values, sf.values, atol=1e-12)

    def test_inversion_reconstructs(self, g, lat):
        rng = np.random.default_rng(11)
        f = random_bandlimited_signal(g, (0.25, 1.0), rng, envelope_width=2.2)
        probe = gabor_tightness_probe(g, lat, ensemble=5, seed=5,
                                      band=(0.25, 1.0), envelope_width=2.2)
        sf = gabor_frame_operator(f, g, lat)
        rec, rep = frame_operator_invert(sf, g, lat, (probe["min"], probe["max"]),
                                         tol=1e-10, max_iter=50)
        err = np.sqrt(np.sum(np.abs(rec.values - f.values) ** 2)
                      / np.sum(np.abs(f.values) ** 2))
        assert err <= 1e-6

    def test_zero_signal_returns_at_once(self, g, lat):
        zero = g.with_values(np.zeros(g.n))
        rec, rep = frame_operator_invert(zero, g, lat, (2.82, 2.83))
        assert (rep.iterations, rep.residual_history, rep.converged) == (1, (0.0,), True)
        assert np.max(np.abs(rec.values)) == 0.0

    def test_too_small_bounds_diverge(self, g, lat):
        # the criterion-10 problem with bounds far below the frame's: the
        # step 2/(A+B) overshoots, and the residual grows every iteration
        rng = np.random.default_rng(11)
        f = random_bandlimited_signal(g, (0.25, 1.0), rng, envelope_width=2.2)
        sf = gabor_frame_operator(f, g, lat)
        with pytest.raises(ReconstructionDivergence) as exc:
            frame_operator_invert(sf, g, lat, (0.5, 0.6), tol=1e-10, max_iter=50)
        assert exc.value.report.iterations >= 3
        assert not exc.value.report.converged

    def test_bad_bounds_rejected(self, g, lat):
        with pytest.raises(ValueError):
            frame_operator_invert(g, g, lat, (0.0, 1.0))

    def test_max_iter_below_one_builds_no_operator(self, g, lat, monkeypatch):
        # a cap that runs no step would return x0 unconverged; it is refused
        # before the frame operator is built
        builds = []

        class Counted(frames.GaborOperator):
            def __init__(self, *args, **kwargs):
                builds.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(frames, "GaborOperator", Counted)
        for max_iter in (0, -5):
            with pytest.raises(ValueError, match="max_iter must be >= 1"):
                frame_operator_invert(g, g, lat, (2.82, 2.83), max_iter=max_iter)
        assert builds == []
        _, rep = frame_operator_invert(g, g, lat, (2.82, 2.83), tol=0.0, max_iter=1)
        assert (builds, rep.iterations) == ([1], 1)

    @pytest.mark.parametrize("bounds", [(1.0, math.inf), (math.inf, math.inf),
                                        (1.0, math.nan)])
    def test_non_finite_bounds_rejected(self, g, lat, bounds):
        # an infinite upper bound would make the step 0 and return x = 0
        with pytest.raises(ValueError, match="finite frame bounds"):
            frame_operator_invert(g, g, lat, bounds)

    @pytest.mark.parametrize("t0, dt", [(-15.0, 32 / 2048), (-16.0, 30 / 2048)])
    def test_off_grid_signal_rejected(self, g, lat, t0, dt):
        y = cb.SampledSignal(t0, dt, g.values)
        with pytest.raises(ValueError, match="window must share the signal grid"):
            frame_operator_invert(y, g, lat, (1.0, 2.0))
        with pytest.raises(ValueError, match="window must share the signal grid"):
            gabor_coefficients(y, g, lat)

    def test_coefficient_count_checked(self, g, lat):
        with pytest.raises(ValueError, match=f"{lat.n_points - 1} .*{lat.n_points}"):
            gabor_synthesize(np.ones(lat.n_points - 1), g, lat)

    def test_inversion_memory_stays_factored(self, g, lat):
        # the criterion-10 problem; its atom matrix alone is 1225 x 2048
        # complex samples (40.1 MB)
        rng = np.random.default_rng(11)
        f = random_bandlimited_signal(g, (0.25, 1.0), rng, envelope_width=2.2)
        sf = gabor_frame_operator(f, g, lat)
        tracemalloc.start()
        try:
            frame_operator_invert(sf, g, lat, (2.82, 2.83), tol=1e-10, max_iter=50)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20


def _atom_matrix(g, lat):
    """Oracle: one explicit atom ``M_w T_x g`` per lattice point, in lattice order."""
    xs, ws = lat.point_arrays()
    return np.array([gabor_atom(g, float(x), float(w)).values for x, w in zip(xs, ws)])


def _rel(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


_ORACLE_LATTICES = {
    "separable": TFLattice.separable(0.5, 0.5, (-12, 12), (-6, 6)),
    "shear": TFLattice(np.array([[0.5, 0.0], [0.25, 0.5]]), 1.0, -12, 12, -6, 6),
    "upper": TFLattice(np.array([[0.5, 0.125], [0.0, 0.5]]), 1.0, -12, 12, -6, 6),
    "off_grid": TFLattice.separable(0.37, 0.45, (-16, 16), (-5, 5)),
    "one_point": TFLattice.separable(0.5, 0.5, (3, 3), (-2, -2)),
}


@pytest.mark.parametrize("name", sorted(_ORACLE_LATTICES))
class TestGaborOperatorOracle:
    """The factored operator against the explicit atom matrix."""

    def test_analyze_synthesize_apply(self, g, name):
        lat = _ORACLE_LATTICES[name]
        atoms = _atom_matrix(g, lat)
        op = GaborOperator(g, lat)
        rng = np.random.default_rng(4)
        f = random_bandlimited_signal(g, (0.2, 1.0), rng, envelope_width=2.5)
        c_ref = (atoms.conj() @ f.values) * g.dt
        assert _rel(op.analyze(f.values), c_ref) <= 1e-12
        c = rng.standard_normal(lat.n_points) + 1j * rng.standard_normal(lat.n_points)
        assert _rel(op.synthesize(c), c @ atoms) <= 1e-12
        assert _rel(op.apply(f.values), c_ref @ atoms) <= 1e-12
        assert _rel(gabor_frame_operator(f, g, lat).values, c_ref @ atoms) <= 1e-12

    def test_tightness_probe(self, g, name):
        lat = _ORACLE_LATTICES[name]
        atoms = _atom_matrix(g, lat)
        rng = np.random.default_rng(7)
        ratios = []
        for _ in range(4):
            f = random_bandlimited_signal(g, (0.2, 1.0), rng, envelope_width=2.5)
            coeffs = (atoms.conj() @ f.values) * f.dt
            ratios.append(np.sum(np.abs(coeffs) ** 2) / cb.l2_norm(f) ** 2)
        probe = gabor_tightness_probe(g, lat, ensemble=4, seed=7,
                                      band=(0.2, 1.0), envelope_width=2.5)
        for key, ref in (("min", min(ratios)), ("max", max(ratios)),
                         ("mean", np.mean(ratios))):
            assert probe[key] == pytest.approx(ref, rel=1e-12, abs=0.0)


def test_gabor_analysis_path(g, lat):
    # criterion 10's lattice: c A11 dt = 0.5 / 64 = 1/128, so analysis folds;
    # A[0,1] != 0 keeps one row per point and the single w = 0 column, dense
    assert _fold_length(1 / 64, 0.5, 2048) == 128
    assert GaborOperator(g, lat)._fold[0] == 128
    assert GaborOperator(g, _ORACLE_LATTICES["upper"])._fold is None


def _bounds_per_draw(window, lat, quad, seed, band, envelope_width, ensemble=6, p=2, m=None):
    """Reference ratios: one full ``stft`` or ``cwt`` call, and the public norms, per draw."""
    rng = np.random.default_rng(seed)
    ratios = []
    for _ in range(ensemble):
        f = random_bandlimited_signal(window, band, rng, envelope_width)
        if isinstance(lat, AffineLattice):
            F = cwt(f, window, quad)
        else:
            F = stft(f, window, (quad.x0, quad.dx, quad.n_x), (quad.w0, quad.dw, quad.n_w))
        ratios.append(float(seq_lpm_norm(sample_field(F, lat), p, m, lat)
                            / lpm_norm(F, p, m)))
    return tuple(ratios)


def test_frame_bounds_ratios_bit_identical_tf():
    # the first grid is incommensurate (dw * dt = 1/702.4, the dense
    # frequency axis), and a draw's dt is one ulp off the window's, so the
    # STFT must be built on the draw's grid to match stft bit for bit; the
    # second is criterion 10's (dw * dt = 1/512, the folded axis)
    cases = (
        (cb.gaussian(-10, 10.5, 1800), TFLattice.separable(0.5, 0.5, (-16, 16), (-7, 7)),
         build_tf_quadrature(-8, 0.125, 129, -3.5, 0.125, 57), (0.2, 1.2), 3.0),
        (cb.gaussian(-16, 16, 2048), TFLattice.separable(0.5, 0.5, (-24, 24), (-12, 12)),
         build_tf_quadrature(-12, 0.125, 193, -4.0, 0.125, 65), (0.25, 1.0), 2.2),
    )
    for g, lat, quad, band, width in cases:
        rep = frame_bounds_empirical(g, lat, p=2, ensemble=6, seed=3, quad=quad,
                                     band=band, envelope_width=width)
        assert rep.ratios == _bounds_per_draw(g, lat, quad, 3, band, width)


def test_frame_bounds_ratios_bit_identical_affine(s0_atom_normalized, atom_chart):
    lat = AffineLattice(2.0, 0.5, -2, 2, -12, 12, (1, -1))
    rep = frame_bounds_empirical(s0_atom_normalized, lat, p=2, ensemble=6, seed=2,
                                 quad=atom_chart, band=(0.2, 1.0))
    assert rep.ratios == _bounds_per_draw(s0_atom_normalized, lat, atom_chart, 2,
                                          (0.2, 1.0), None)


@pytest.mark.parametrize("p", [1.0, 3.0, math.inf])
def test_frame_bounds_weighted_ratios_bit_identical(p, s0_atom_normalized, atom_chart):
    # the chart and lattice weights are computed once per call; each draw's
    # norms must still equal lpm_norm's and seq_lpm_norm's bit for bit
    g = cb.gaussian(-10, 10.5, 1800)
    lat = TFLattice(np.array([[0.5, 0.0], [0.25, 0.5]]), 1.0, -16, 16, -7, 7)
    quad = build_tf_quadrature(-8, 0.125, 129, -3.5, 0.125, 57)
    m = cb.poly_tf(1.0, 0.5)
    rep = frame_bounds_empirical(g, lat, p=p, m=m, ensemble=3, seed=4, quad=quad,
                                 band=(0.2, 1.2), envelope_width=3.0)
    assert rep.ratios == _bounds_per_draw(g, lat, quad, 4, (0.2, 1.2), 3.0, 3, p, m)
    lat = AffineLattice(2.0, 0.5, -2, 2, -12, 12, (1, -1))
    m = cb.symmetric_power(1.0)
    rep = frame_bounds_empirical(s0_atom_normalized, lat, p=p, m=m, ensemble=3, seed=5,
                                 quad=atom_chart, band=(0.2, 1.0))
    assert rep.ratios == _bounds_per_draw(s0_atom_normalized, lat, atom_chart, 5,
                                          (0.2, 1.0), None, 3, p, m)


def _bandlimited_by_transform(template, band, rng, envelope_width=None):
    """Oracle: the draw with its band read off ``fourier(template)``, spectrum and all."""
    w_lo, w_hi = band
    spec = cb.fourier(template)
    w = spec.grid()
    amp = np.zeros(w.size, dtype=np.complex128)
    mask = (np.abs(w) >= w_lo) & (np.abs(w) <= w_hi)
    phase = np.exp(2j * np.pi * rng.uniform(size=int(np.sum(mask))))
    mag = rng.uniform(0.2, 1.0, int(np.sum(mask)))
    taper = np.cos(np.pi / 2 * (2 * (np.abs(w[mask]) - w_lo) / (w_hi - w_lo) - 1.0)) ** 2
    amp[mask] = mag * phase * taper
    sig = cb.inverse_fourier(type(spec)(spec.w0, spec.dw, amp, spec.t_origin))
    t = sig.grid()
    center = t[0] + (t[-1] - t[0]) / 2
    width = envelope_width or (t[-1] - t[0]) / 6
    out = cb.SampledSignal(sig.t0, sig.dt, sig.values * np.exp(-(((t - center) / width) ** 2)))
    return out.with_values(out.values / cb.l2_norm(out))


@pytest.mark.parametrize("template, band, width", [
    (cb.gaussian(-16, 16, 2048), (0.25, 1.0), 2.2),
    (cb.gaussian(-10, 10.5, 1800), (0.2, 1.2), 3.0),
    (cb.SampledSignal(-3.7, 0.13, np.arange(301) % 7 - 3.0), (0.0, 2.5), None),
    (cb.SampledSignal(0.25, 0.05, np.ones(64)), (1.0, 10.0), 0.8),
])
def test_random_draws_bit_identical_to_transforming_the_template(template, band, width):
    # the draws need only the template's grid: they equal, bit for bit, the
    # draws that read the band off the template's spectrum
    rng, ref_rng = np.random.default_rng(8), np.random.default_rng(8)
    for _ in range(3):
        f = random_bandlimited_signal(template, band, rng, width)
        ref = _bandlimited_by_transform(template, band, ref_rng, width)
        assert (f.t0, f.dt) == (ref.t0, ref.dt)
        assert np.array_equal(f.values.view(np.int64), ref.values.view(np.int64))


def test_envelope_width_none_is_the_default_and_nonpositive_refused(g, lat):
    # None takes a sixth of the span; 0.0 is not read as None, and a
    # negative width, whose envelope is that of its absolute value, is refused
    f = random_bandlimited_signal(g, (0.25, 1.0), np.random.default_rng(4))
    t = f.grid()
    same = random_bandlimited_signal(g, (0.25, 1.0), np.random.default_rng(4),
                                     envelope_width=(t[-1] - t[0]) / 6)
    assert np.array_equal(f.values.view(np.int64), same.values.view(np.int64))
    quad = build_tf_quadrature(-12, 0.125, 193, -4.0, 0.125, 65)
    for width in (0.0, -0.0, -2.2, math.nan):
        with pytest.raises(ValueError, match="envelope_width must be positive"):
            random_bandlimited_signal(g, (0.25, 1.0), np.random.default_rng(4), width)
        with pytest.raises(ValueError, match="envelope_width must be positive"):
            frame_bounds_empirical(g, lat, ensemble=2, quad=quad, envelope_width=width)
        with pytest.raises(ValueError, match="envelope_width must be positive"):
            gabor_tightness_probe(g, lat, ensemble=2, envelope_width=width)


class TestFrameBounds:
    def test_gabor_near_tight(self):
        g = cb.gaussian(-16, 16, 2048)
        lat = TFLattice.separable(0.5, 0.5, (-24, 24), (-7, 7))
        quad = build_tf_quadrature(-12, 0.125, 193, -3.5, 0.125, 57)
        rep = frame_bounds_empirical(g, lat, p=2, ensemble=20, seed=3, quad=quad,
                                     band=(0.2, 1.2), envelope_width=3.0)
        assert rep.a_hat / rep.b_hat >= 0.9

    def test_coarse_lattice_far_from_frame(self):
        g = cb.gaussian(-16, 16, 2048)
        lat = TFLattice.separable(2.0, 2.0, (-6, 6), (-2, 2))
        quad = build_tf_quadrature(-12, 0.125, 193, -3.5, 0.125, 57)
        rep = frame_bounds_empirical(g, lat, p=2, ensemble=20, seed=3, quad=quad,
                                     band=(0.2, 1.2), envelope_width=3.0)
        assert rep.a_hat / rep.b_hat < 0.6

    def test_single_draw_degenerate(self):
        g = cb.gaussian(-16, 16, 2048)
        lat = TFLattice.separable(0.5, 0.5, (-24, 24), (-7, 7))
        quad = build_tf_quadrature(-12, 0.125, 193, -3.5, 0.125, 57)
        rep = frame_bounds_empirical(g, lat, p=2, ensemble=1, seed=9, quad=quad,
                                     band=(0.2, 1.2), envelope_width=3.0)
        assert rep.a_hat == rep.b_hat

    def test_upper_bound_law(self, s0_atom_normalized, atom_chart, atom_kernel):
        # empirical upper ratio <= analytic N * C * (osc + kernel) bound
        psi = s0_atom_normalized
        w1 = cb.symmetric_power(1.0)
        beta, alpha = 0.7**8, 1 + 0.7**8
        U = affine_box(beta, alpha)
        cert = atom_certificate(psi, atom_chart, w1, U)
        ln_a = math.log(alpha)
        j_span = int(math.ceil(math.log(4) / ln_a))
        k_span = int(math.ceil(2 / (beta * 0.25)))
        lat = AffineLattice(alpha, beta, -j_span, j_span, -k_span, k_span, (1, -1))
        rep = frame_bounds_empirical(psi, lat, p=2, m=None, ensemble=5, seed=2,
                                     quad=atom_chart, band=(0.45, 1.1),
                                     envelope_width=0.6)
        from coorbit.lattices import cover_counts, default_density_probe

        counts = cover_counts(lat, U, *default_density_probe(atom_chart, lat, U))
        n_max = int(np.max(counts))
        mass = U.haar_mass()
        c_lower = math.sqrt(alpha) / math.sqrt(mass)  # inverse lower constant
        analytic = c_lower * n_max * (cert.osc_l1w + cert.kernel_l1w)
        assert rep.b_hat <= analytic


@pytest.fixture(scope="module")
def neumann_setup(s0_atom_normalized, atom_chart, atom_kernel):
    psi = s0_atom_normalized
    w1 = cb.symmetric_power(1.0)
    n = 15
    beta, alpha = 0.7**n, 1 + 0.7**n
    U = affine_box(beta, alpha)
    cert = atom_certificate(psi, atom_chart, w1, U)
    assert cert.passed
    ln_a = math.log(alpha)
    j_span = int(math.ceil(math.log(4) / ln_a))
    k_span = int(math.ceil(2 / (beta * 0.25)))
    lat = AffineLattice(alpha, beta, -j_span, j_span, -k_span, k_span, (1, -1))
    bupu = build_bupu(lat, U, atom_chart)
    return psi, cert, lat, bupu, atom_kernel


class TestNeumann:
    def test_requires_certificate(self, neumann_setup):
        psi, cert, lat, bupu, K = neumann_setup
        samples = sample_field(K, lat)
        with pytest.raises(ValueError):
            neumann_reconstruct(samples, bupu, K)

    def test_zero_samples(self, neumann_setup):
        psi, cert, lat, bupu, K = neumann_setup
        zero = sample_field(K.with_values(np.zeros_like(K.values)), lat)
        field, rep = neumann_reconstruct(zero, bupu, K, certificate=cert)
        assert rep.converged
        assert np.max(np.abs(field.values)) == 0.0

    def test_zero_samples_error_against_truth(self, neumann_setup):
        # zero data reconstructs zero; a nonzero truth is then missed entirely
        psi, cert, lat, bupu, K = neumann_setup
        zero = sample_field(K.with_values(np.zeros_like(K.values)), lat)
        _, rep = neumann_reconstruct(zero, bupu, K, certificate=cert, ground_truth=K)
        assert (rep.iterations, rep.converged, rep.final_relative_error) == (1, True, 1.0)

    def test_kernel_reconstruction(self, neumann_setup):
        # K itself lies in the reproducing space: its samples determine it
        psi, cert, lat, bupu, K = neumann_setup
        samples = sample_field(K, lat)
        rec, rep = neumann_reconstruct(samples, bupu, K, tol=1e-4, max_iter=100,
                                       certificate=cert, ground_truth=K)
        assert rep.converged
        assert rep.final_relative_error <= 5e-3
        ratios = rep.contraction_ratios()
        assert np.max(ratios[2:]) <= cert.q + 0.1

    def test_divergence_detection(self, neumann_setup):
        psi, cert, lat, bupu, K = neumann_setup
        # feeding a kernel scaled far above idempotence makes T expansive
        bad_K = K.with_values(25.0 * K.values)
        samples = sample_field(bad_K, lat)
        with pytest.raises(ReconstructionDivergence) as exc:
            neumann_reconstruct(samples, bupu, bad_K, tol=1e-6, max_iter=50,
                                allow_uncertified=True)
        assert exc.value.report.iterations >= 3


    @pytest.fixture(scope="class")
    def designed_loop(self, s0_atom_normalized):
        # fast-path chart (6,400 nodes) with a designed-size lattice
        psi = s0_atom_normalized
        quad = build_affine_quadrature(-2, 2, 128, 1 / 4, 4, 25, (1, -1))
        K = cwt(psi, psi, quad)
        beta, alpha = 0.7**8, 1 + 0.7**8
        j_span = int(math.ceil(math.log(4) / math.log(alpha)))
        k_span = int(math.ceil(2 / (beta * 0.25)))
        lat = AffineLattice(alpha, beta, -j_span, j_span, -k_span, k_span, (1, -1))
        bupu = build_bupu(lat, affine_box(beta, alpha), quad)
        f = random_bandlimited_signal(psi, (0.45, 1.1), np.random.default_rng(3),
                                      envelope_width=0.6)
        return quad, K, lat, bupu, cwt(f, psi, quad)

    def test_matches_public_reference_loop(self, designed_loop):
        # the loop written out from the public sample -> synthesize ->
        # convolve steps gives the same field and residuals, bit for bit
        quad, K, lat, bupu, W = designed_loop
        samples = sample_field(W, lat)
        n_iter = 4
        rec, rep = neumann_reconstruct(samples, bupu, K, tol=0.0, max_iter=n_iter,
                                       allow_uncertified=True)

        Y = convolve(bupu_synthesize(samples, bupu), K)
        F = Y
        history = []
        for _ in range(n_iter):
            TF = convolve(bupu_synthesize(sample_field(F, lat), bupu), K)
            F_next = GroupField(quad, Y.values + F.values - TF.values)
            history.append(field_l2_norm(GroupField(quad, F_next.values - F.values)))
            F = F_next
        assert rep.iterations == n_iter
        assert rep.residual_history == tuple(history)
        assert np.array_equal(rec.values.view(np.int64), F.values.view(np.int64))
        assert rep.lattice_points == lat.n_points
        assert rep.active_tiles == bupu.active_tiles.size < lat.n_points
        assert rep.uncovered_nodes == bupu.uncovered_nodes
        # ln(alpha) = 0.056 against du = 0.116: tiles are finer than cells
        assert rep.tiles_finer_than_cells is True

    def test_active_samples_match_full_lattice(self, designed_loop):
        # reading the field only at the active tiles synthesizes, and so
        # reconstructs, bit for bit like sampling the whole lattice
        quad, K, lat, bupu, W = designed_loop
        full = sample_field(W, lat)
        active = bupu.active_samples(W)
        assert active.shape == (bupu.active_tiles.size,)
        assert np.array_equal(active.view(np.int64),
                              full.values[bupu.active_tiles].view(np.int64))
        Y_full = bupu_synthesize(full, bupu)
        Y_active = bupu_synthesize(active, bupu)
        assert np.array_equal(Y_active.values.view(np.int64), Y_full.values.view(np.int64))
        runs = [neumann_reconstruct(c, bupu, K, tol=0.0, max_iter=2, allow_uncertified=True)
                for c in (full, active)]
        (rec_full, rep_full), (rec_active, rep_active) = runs
        assert rep_active == rep_full
        assert np.array_equal(rec_active.values.view(np.int64), rec_full.values.view(np.int64))

    def test_wrong_coefficient_length_raises(self, designed_loop):
        # neither one per lattice point nor one per active tile: the error
        # names both lengths it would have taken
        quad, K, lat, bupu, W = designed_loop
        n_active = bupu.active_tiles.size
        for n in (n_active - 1, n_active + 1, lat.n_points + 1):
            with pytest.raises(ValueError, match=f"{lat.n_points} .* {n_active} "):
                bupu_synthesize(np.zeros(n), bupu)
            with pytest.raises(ValueError, match=f"got {n} coefficients"):
                neumann_reconstruct(np.zeros(n), bupu, K, allow_uncertified=True)

    def test_refused_samples_build_no_kernel_operator(self, designed_loop, monkeypatch):
        # wrong length, not a vector, or sampled on another lattice: the
        # refusal comes before the kernel operator is built
        quad, K, lat, bupu, W = designed_loop
        builds = []

        class Counted(frames.KernelOperator):
            def __init__(self, *args, **kwargs):
                builds.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(frames, "KernelOperator", Counted)
        other = AffineLattice(lat.alpha * 1.01, lat.beta, lat.j_min, lat.j_max,
                              lat.k_min, lat.k_max, lat.signs)
        refused = (
            (np.zeros(bupu.active_tiles.size + 1), "got .* coefficients"),
            (np.zeros((lat.n_points, 1)), "1-D vector"),
            (sample_field(W, other), "another lattice"),
        )
        for samples, message in refused:
            with pytest.raises(ValueError, match=message):
                neumann_reconstruct(samples, bupu, K, allow_uncertified=True)
        # a ground truth of the same shape on a shifted chart: its node
        # values are not the chart's, so the error would compare other points
        moved = cb.GroupQuadrature.from_dict({**quad.to_dict(), "b_lo": quad.b_lo + quad.db,
                                              "b_hi": quad.b_hi + quad.db})
        with pytest.raises(ValueError, match="ground truth chart"):
            neumann_reconstruct(bupu.active_samples(W), bupu, K, allow_uncertified=True,
                                ground_truth=GroupField(moved, W.values))
        assert builds == []
        neumann_reconstruct(bupu.active_samples(W), bupu, K, max_iter=1,
                            allow_uncertified=True)
        assert builds == [1]

    def test_max_iter_below_one_builds_no_kernel_operator(self, designed_loop, monkeypatch):
        # a cap that runs no step would return Y unconverged; it is refused
        # before the kernel operator is built
        quad, K, lat, bupu, W = designed_loop
        builds = []

        class Counted(frames.KernelOperator):
            def __init__(self, *args, **kwargs):
                builds.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(frames, "KernelOperator", Counted)
        for max_iter in (0, -5):
            with pytest.raises(ValueError, match="max_iter must be >= 1"):
                neumann_reconstruct(bupu.active_samples(W), bupu, K, max_iter=max_iter,
                                    allow_uncertified=True)
        assert builds == []

    def test_all_tiles_active_readings_agree(self):
        # a coarse lattice under a chart that reaches past its window: every
        # tile holds a node, so a vector's length reads the same either way
        lat = AffineLattice(2.0, 1.0, -1, 1, -2, 2, (1, -1))
        quad = build_affine_quadrature(-4, 4, 32, 1 / 8, 8, 13, (1, -1))
        bupu = build_bupu(lat, affine_box(1.0, 2.0), quad)
        assert np.array_equal(bupu.active_tiles, np.arange(lat.n_points))
        rng = np.random.default_rng(5)
        W = GroupField(quad, rng.normal(size=quad.shape) + 1j * rng.normal(size=quad.shape))
        per_point = sample_field(W, lat)
        per_tile = bupu.active_samples(W)
        assert per_tile.shape == per_point.values.shape
        Y_point = bupu_synthesize(per_point, bupu)
        Y_tile = bupu_synthesize(per_tile, bupu)
        assert np.array_equal(Y_tile.values.view(np.int64), Y_point.values.view(np.int64))
        assert np.array_equal(Y_tile.values.view(np.int64),
                              bupu.sample_synthesize(W).values.view(np.int64))


@pytest.fixture(scope="module")
def s0_design(s0_atom, atom_chart):
    return design_lattice(s0_atom, atom_chart, cb.symmetric_power(1.0), max_steps=18)


# q per schedule step of the s0 design search, recorded from the scattered
# oscillation kernel; the separable kernel must reproduce them to roundoff.
_S0_DESIGN_Q = (
    163.4984751035727, 131.0949242709559, 99.97592495399215, 73.21089624155891,
    51.256290410764045, 35.10596841681387, 23.92659083842918, 16.361417126106627,
    11.239660973669215, 7.767703122400641, 5.403081649342605, 3.778662071766403,
    2.6641386418054576, 1.8854459555789789, 1.3530236294509508, 0.9688141819476809,
)


class TestDesign:
    def test_zero_cap_errors(self, s0_atom, atom_chart):
        with pytest.raises(DesignSearchError):
            design_lattice(s0_atom, atom_chart, cb.symmetric_power(1.0), max_steps=0)

    def test_insufficient_moments_rejected(self, gauss, atom_chart):
        with pytest.raises(ValueError):
            design_lattice(gauss, atom_chart, cb.symmetric_power(1.0))

    @pytest.mark.parametrize("key, value", [
        ("alpha0", 1.0), ("alpha0", 0.5), ("alpha0", math.nan), ("beta0", 0.0),
        ("beta0", -1.0), ("gamma", 0.0), ("gamma", -0.5), ("gamma", 1.0), ("gamma", 1.5),
    ])
    def test_schedule_that_cannot_shrink_refused_first(self, s0_atom, atom_chart, monkeypatch,
                                                       key, value):
        # gamma >= 1 would search to the cap; gamma <= 0, alpha0 <= 1 or
        # beta0 <= 0 would fail in affine_box after the kernel was built
        calls = []
        for name in ("wavelet_atom_sufficient", "atom_kernel", "oscillation"):
            real = getattr(frames, name)
            monkeypatch.setattr(frames, name,
                                lambda *a, _real=real, _name=name, **k: calls.append(_name)
                                or _real(*a, **k))
        with pytest.raises(ValueError, match=f"schedule.{key} = "):
            design_lattice(s0_atom, atom_chart, cb.symmetric_power(1.0), **{key: value})
        assert calls == []

    def test_monotone_q_and_success(self, s0_design):
        result = s0_design
        assert result.certificate.passed
        qs = np.asarray(result.q_history)
        assert np.all(np.diff(qs) < 0)
        assert result.beta == pytest.approx(0.7 ** (result.steps - 1))

    def test_s0_chart_passes_at_step_16_with_pinned_q(self, s0_design):
        assert s0_design.steps == 16
        qs = np.asarray(s0_design.q_history)
        assert qs.shape == (len(_S0_DESIGN_Q),)
        assert np.all(np.abs(qs - _S0_DESIGN_Q) <= 1e-13 * np.asarray(_S0_DESIGN_Q))

    def test_cap_below_crossing_reports_best(self, s0_atom, atom_chart):
        with pytest.raises(DesignSearchError) as exc:
            design_lattice(s0_atom, atom_chart, cb.symmetric_power(1.0), max_steps=4)
        assert exc.value.best_q > 1.0
        assert len(exc.value.q_history) == 4


class TestBesovExponent:
    def test_pinned_values(self):
        assert besov_exponent(2, 1) == (Fraction(1), 2, 2)
        sigma, p, q = besov_exponent(math.inf, Fraction(1, 2))
        assert sigma == 0 and p == math.inf and q == math.inf
        assert besov_exponent(1, 0)[0] == Fraction(1, 2)

    def test_exact_rational(self):
        sigma, _, _ = besov_exponent(3, Fraction(2, 7))
        assert sigma == Fraction(2, 7) - Fraction(1, 2) + Fraction(1, 3)
        assert isinstance(sigma, Fraction)

    def test_float_path(self):
        sigma, _, _ = besov_exponent(2.0, 0.25)
        assert sigma == pytest.approx(0.25)

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            besov_exponent(0.5, 1)


def test_report_artifact_keys_pinned():
    """The five reports written by the shared rule keep their artifact keys and list values."""
    from coorbit.frames import (AtomSufficiencyReport, BoundsReport, ReconstructionReport,
                                WindowSufficiencyReport)
    from coorbit.lattices import NormEquivalenceReport

    cases = [
        (ReconstructionReport(3, (1.0, 0.5, 0.25), True, 0.01, 10, 4, 0, False),
         {"iterations": 3, "residual_history": [1.0, 0.5, 0.25], "converged": True,
          "final_relative_error": 0.01, "lattice_points": 10, "active_tiles": 4,
          "uncovered_nodes": 0, "tiles_finer_than_cells": False}),
        (BoundsReport(0.9, 1.1, (0.9, 1.1), 2),
         {"a_hat": 0.9, "b_hat": 1.1, "ratios": [0.9, 1.1], "draws": 2}),
        (AtomSufficiencyReport(2, 1.0, 1.5, (1.0, 2.0, 3.0), (4.0, 5.0), True),
         {"vanishing_moments": 2, "rho": 1.0, "rho_bound": 1.5,
          "absolute_moments": [1.0, 2.0, 3.0], "derivative_l1_norms": [4.0, 5.0],
          "pass": True}),
        (WindowSufficiencyReport(4.0, 2.0, 1.5, 1.25, 0.001, 0.002, False),
         {"alpha": 4.0, "beta": 2.0, "time_norm": 1.5, "freq_norm": 1.25,
          "time_tail_fraction": 0.001, "freq_tail_fraction": 0.002, "pass": False}),
        (NormEquivalenceReport(1.0, (0.5, 2.0), True, 0.3, 2),
         {"ratio": 1.0, "window": [0.5, 2.0], "pass": True, "haar_mass": 0.3,
          "max_overlap": 2, "heuristic_window": False}),
    ]
    for report, expected in cases:
        # == tells a list from a tuple, so the values' types are pinned too
        assert report.to_dict() == expected, type(report).__name__
