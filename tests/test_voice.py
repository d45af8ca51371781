import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import coorbit as cb
from coorbit.fields import field_l2_norm, lpm_norm
from coorbit.groups import AffinePoint, affine_inv, left_translate_field
from coorbit.groups import affine_field_interpolate
from coorbit.voice import (
    NotAdmissible,
    NotAdmissibleError,
    admissibility_constant,
    cwt,
    duflo_moore_wavelet,
    gabor_atom,
    icwt,
    istft,
    normalize_admissible,
    reproducing_kernel,
    schrodinger_atom,
    stft,
    wavelet_rep,
)
from coorbit.voice import _TFOperator, _fold_length

from conftest import chirp


@pytest.fixture(scope="module")
def small_quad():
    return cb.build_affine_quadrature(-20, 20, 4096, 1 / 8, 8, 49, (1, -1))


class TestAdmissibility:
    def test_gaussian_not_admissible(self, gauss):
        out = admissibility_constant(gauss)
        assert isinstance(out, NotAdmissible)
        assert out.dc_magnitude > 0.9  # integral of exp(-pi t^2) is 1

    def test_mexican_hat_constant(self, mexhat):
        c = admissibility_constant(mexhat)
        # closed form for (1-t^2)exp(-t^2/2): C^2 = 2*pi; the spectral
        # quadrature at this grid's bin width carries ~1e-5 relative error
        assert c**2 == pytest.approx(2 * np.pi, rel=1e-4)
        fine = admissibility_constant(cb.mexican_hat(-80, 80, 16384))
        assert fine**2 == pytest.approx(2 * np.pi, rel=1e-7)

    def test_stable_under_refinement(self):
        c1 = admissibility_constant(cb.mexican_hat(-20, 20, 2048))
        c2 = admissibility_constant(cb.mexican_hat(-20, 20, 8192))
        assert c1 == pytest.approx(c2, rel=0.01)

    def test_spectrum_profile_atom(self, s0_atom):
        c = admissibility_constant(s0_atom)
        assert isinstance(c, float) and c > 0

    def test_normalize(self, mexhat):
        psi = normalize_admissible(mexhat)
        assert admissibility_constant(psi) == pytest.approx(1.0, abs=1e-6)
        again = normalize_admissible(psi)
        assert np.max(np.abs(again.values - psi.values)) <= 1e-6 * np.max(
            np.abs(psi.values)
        )

    def test_normalize_failures(self, gauss):
        with pytest.raises(NotAdmissibleError):
            normalize_admissible(gauss)
        with pytest.raises(NotAdmissibleError):
            normalize_admissible(gauss.with_values(np.zeros(gauss.n)))


class TestWaveletTransform:
    def test_kernel_value_at_identity(self, mexhat_desk_normalized):
        psi = mexhat_desk_normalized
        quad = cb.build_affine_quadrature(-32, 32, 4096, 1 / 8, 8, 49, (1, -1))
        K = cwt(psi, psi, quad)
        # identity node (0, 1): u-grid is odd-length symmetric, so u = 0 is a node
        j0 = 24
        assert quad.scale_grid()[j0] == pytest.approx(1.0, abs=1e-12)
        i0 = 2048
        assert quad.b_grid()[i0] == pytest.approx(0.0, abs=1e-12)
        val = K.values[0, j0, i0]
        assert val.real == pytest.approx(cb.l2_norm(psi) ** 2, rel=1e-6)
        assert abs(val.imag) <= 1e-8

    def test_involution_symmetry_pointwise(self, mexhat_desk_normalized):
        # W_psi psi (x) = conj(W_psi psi(x^-1)); checked on node pairs whose
        # inverses are nodes again (b = 0 column, a = 1 row), where no
        # interpolation error enters
        psi = mexhat_desk_normalized
        quad = cb.build_affine_quadrature(-32, 32, 4096, 1 / 8, 8, 49, (1, -1))
        K = cwt(psi, psi, quad)
        peak = np.max(np.abs(K.values))
        scales = quad.scale_grid()
        # inv(0, a) = (0, 1/a): the scale grid is symmetric, u_j <-> u_{n-1-j}
        i0 = 2048  # b = 0
        for s_idx in range(2):
            col = K.values[s_idx, :, i0]
            assert np.max(np.abs(col - np.conj(col[::-1]))) <= 1.5e-6 * peak
        # inv(b, 1) = (-b, 1) on the a = 1 row (index 24): b-grid reflection
        j0 = 24
        row = K.values[0, j0]
        assert np.max(np.abs(row[1:] - np.conj(row[1:][::-1]))) <= 1e-6 * peak
        # interpolated points carry the bilinear error budget instead
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = AffinePoint(rng.uniform(-2, 2), rng.uniform(0.3, 3) * rng.choice([-1, 1]))
            q = affine_inv(p)
            v1 = affine_field_interpolate(K, np.array([p.b]), np.array([p.a]))[0]
            v2 = affine_field_interpolate(K, np.array([q.b]), np.array([q.a]))[0]
            assert abs(v1 - np.conj(v2)) <= 3e-3 * peak

    def test_grid_mismatch_rejected(self, mexhat_desk, small_quad):
        f = cb.mexican_hat(-16, 16, 2048)
        with pytest.raises(ValueError):
            cwt(f, mexhat_desk, small_quad)

    def test_isometry_ratio(self, mexhat_desk_normalized, desk_quad):
        psi = mexhat_desk_normalized
        f = chirp(-32, 64 / 4096, 4096, 6.0, 0.35, 0.005)
        W = cwt(f, psi, desk_quad)
        ratio = field_l2_norm(W) ** 2 / cb.l2_norm(f) ** 2
        assert 0.97 <= ratio <= 1.03  # C_psi = 1 after normalization

    def test_covariance(self, mexhat_desk_normalized):
        psi = mexhat_desk_normalized
        quad = cb.build_affine_quadrature(-32, 32, 4096, 1 / 8, 8, 49, (1, -1))
        f = chirp(-32, 64 / 4096, 4096, 4.0, 0.4)
        W = cwt(f, psi, quad)
        # grid-aligned group shift: b0 on the b-grid, a0 = e^{k du} on the u-grid
        a0 = float(np.exp(2 * quad.du))
        b0 = 64 * quad.db
        g = wavelet_rep(f, b0, a0)
        W_shifted = cwt(g, psi, quad)
        expected = left_translate_field(W, AffinePoint(b0, a0))
        # the two bottom scale rows pull from below the chart and read zero
        # by the out-of-chart policy; covariance is asserted where the
        # pullback stays in-chart
        num = np.sqrt(
            np.sum(np.abs(W_shifted.values[:, 2:, :] - expected.values[:, 2:, :]) ** 2)
        )
        den = np.sqrt(np.sum(np.abs(expected.values[:, 2:, :]) ** 2))
        assert num / den <= 1e-3

    def test_symmetry_between_arguments(self, mexhat_desk_normalized):
        # cwt(f, g)(x) = conj(cwt(g, f)(x^{-1})): exact on self-inverse node
        # pairs, interpolation-limited elsewhere
        psi = mexhat_desk_normalized
        quad = cb.build_affine_quadrature(-32, 32, 4096, 1 / 4, 4, 41, (1, -1))
        f = chirp(-32, 64 / 4096, 4096, 3.0, 0.3)
        Wfg = cwt(f, psi, quad)
        Wgf = cwt(psi, f, quad)
        peak = np.max(np.abs(Wfg.values))
        i0, n_u = 2048, 41
        for s_idx in range(2):
            col_fg = Wfg.values[s_idx, :, i0]
            col_gf = Wgf.values[s_idx, ::-1, i0]
            assert np.max(np.abs(col_fg - np.conj(col_gf))) <= 1e-5 * peak
        rng = np.random.default_rng(1)
        for _ in range(30):
            p = AffinePoint(rng.uniform(-1, 1), rng.uniform(0.5, 2))
            q = affine_inv(p)
            v1 = affine_field_interpolate(Wfg, np.array([p.b]), np.array([p.a]))[0]
            v2 = affine_field_interpolate(Wgf, np.array([q.b]), np.array([q.a]))[0]
            assert abs(v1 - np.conj(v2)) <= 2e-3 * peak


class TestInverseWavelet:
    def test_roundtrip_and_coverage_refinement(self, mexhat):
        psi = normalize_admissible(cb.mexican_hat(-32, 32, 2048))
        f = chirp(-32, 64 / 2048, 2048, 5.0, 0.30)
        base = cb.build_affine_quadrature(-32, 32, 2048, 0.216, 8.0, 44, (1, -1))
        wide = cb.build_affine_quadrature(-32, 32, 2048, 0.108, 16.0, 62, (1, -1))
        errs = []
        for quad in (base, wide):
            W = cwt(f, psi, quad)
            rec = icwt(W, psi)
            errs.append(
                np.sqrt(
                    np.sum(np.abs(rec.values - f.values) ** 2)
                    / np.sum(np.abs(f.values) ** 2)
                )
            )
        assert errs[0] <= 0.05
        assert errs[1] <= 0.5 * errs[0]

    def test_zero_field(self, mexhat_desk_normalized):
        psi = mexhat_desk_normalized
        quad = cb.build_affine_quadrature(-32, 32, 4096, 1 / 4, 4, 25, (1, -1))
        zero = cb.GroupField(quad, np.zeros(quad.shape))
        out = icwt(zero, psi)
        assert np.max(np.abs(out.values)) == 0.0

    def test_linearity(self, mexhat_desk_normalized):
        psi = mexhat_desk_normalized
        quad = cb.build_affine_quadrature(-32, 32, 4096, 1 / 4, 4, 25, (1, -1))
        f = chirp(-32, 64 / 4096, 4096, 4.0, 0.3)
        W = cwt(f, psi, quad)
        one = icwt(W, psi)
        two = icwt(W.with_values(2 * W.values), psi)
        assert np.allclose(two.values, 2 * one.values, rtol=0, atol=1e-12)

    def test_rejects_non_admissible(self, gauss):
        quad = cb.build_affine_quadrature(-16, 16, 2048, 1 / 4, 4, 25, (1, -1))
        zero = cb.GroupField(quad, np.zeros(quad.shape))
        with pytest.raises(NotAdmissibleError):
            icwt(zero, gauss)


class TestSTFT:
    def test_self_value_at_origin(self, gauss):
        V = stft(gauss, gauss, (0.0, 0.25, 1), (0.0, 0.125, 1))
        assert V.values[0, 0].real == pytest.approx(cb.l2_norm(gauss) ** 2, abs=1e-8)
        assert abs(V.values[0, 0].imag) <= 1e-10

    def test_moyal(self, gauss):
        rng = np.random.default_rng(2)
        from coorbit.frames import random_bandlimited_signal

        f = random_bandlimited_signal(gauss, (0.2, 1.2), rng, envelope_width=3.0)
        V = stft(f, gauss, (-12, 0.125, 193), (-3.5, 0.0625, 113))
        ratio = lpm_norm(V, 2) / (cb.l2_norm(gauss) * cb.l2_norm(f))
        assert 0.99 <= ratio <= 1.01

    def test_covariance_in_modulus(self, gauss):
        f = chirp(-16, 32 / 2048, 2048, 2.0, 0.5)
        x0 = 64 * gauss.dt  # grid-aligned shift
        V = stft(f, gauss, (-6, 0.25, 49), (-2, 0.125, 33))
        V_shift = stft(cb.translate(f, x0), gauss, (-6 + x0, 0.25, 49), (-2, 0.125, 33))
        assert np.max(np.abs(np.abs(V_shift.values) - np.abs(V.values))) <= 1e-6

    def test_istft_roundtrip(self, gauss):
        rng = np.random.default_rng(3)
        from coorbit.frames import random_bandlimited_signal

        f = random_bandlimited_signal(gauss, (0.2, 1.0), rng, envelope_width=3.0)
        V = stft(f, gauss, (-12, 0.25, 97), (-3, 0.0625, 97))
        rec = istft(V, gauss)
        err = np.sqrt(
            np.sum(np.abs(rec.values - f.values) ** 2) / np.sum(np.abs(f.values) ** 2)
        )
        assert err <= 0.02

    def test_istft_zero_and_linearity(self, gauss):
        V = stft(gauss, gauss, (-4, 0.5, 17), (-2, 0.25, 17))
        zero = istft(V.with_values(np.zeros_like(V.values)), gauss)
        assert np.max(np.abs(zero.values)) == 0.0
        one = istft(V, gauss)
        three = istft(V.with_values(3 * V.values), gauss)
        assert np.allclose(three.values, 3 * one.values, atol=1e-12)

    def test_zero_window_rejected(self, gauss):
        V = stft(gauss, gauss, (-4, 0.5, 17), (-2, 0.25, 17))
        with pytest.raises(ValueError):
            istft(V, gauss.with_values(np.zeros(gauss.n)))


def _dense_stft(f, g, x_grid, w_grid):
    """The STFT as one dense product ``(G * f) @ E``: the folded axis's oracle."""
    xs = x_grid[0] + x_grid[1] * np.arange(x_grid[2])
    ws = w_grid[0] + w_grid[1] * np.arange(w_grid[2])
    G = np.conj(np.array([cb.translate(g, x).values for x in xs]))
    E = np.exp(-2j * np.pi * np.outer(f.grid(), ws)) * f.dt
    return (G * f.values[None, :]) @ E


def _max_rel_diff(V, ref):
    return np.max(np.abs(V - ref)) / np.max(np.abs(ref))


class TestSTFTFrequencyAxis:
    """The folded frequency axis (``dw * dt = 1/M``) against the dense product."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        n_t=st.integers(2, 96),
        m_frac=st.floats(0.0, 1.0),
        dt=st.sampled_from([1 / 16, 0.1, 1 / 8, 0.15, 0.2]),
        t0=st.floats(-4.0, 4.0),
        w0=st.floats(-4.0, 4.0),
        n_w_frac=st.floats(0.0, 1.0),
        x_frac=st.floats(-0.5, 0.5),
        dx_cells=st.floats(0.3, 3.0),
        n_x=st.integers(1, 4),
        seed=st.integers(0, 2**16),
    )
    # M = n_t; one node on each axis; n_w > M with n_t not a multiple of M
    @example(n_t=24, m_frac=1.0, dt=1 / 8, t0=-3.0, w0=0.3, n_w_frac=1.0,
             x_frac=0.0, dx_cells=1.0, n_x=3, seed=1)
    @example(n_t=17, m_frac=0.3, dt=0.2, t0=2.5, w0=-1.1, n_w_frac=0.0,
             x_frac=0.1, dx_cells=1.0, n_x=1, seed=2)
    @example(n_t=50, m_frac=0.1, dt=0.1, t0=-3.05, w0=0.37, n_w_frac=1.0,
             x_frac=-0.2, dx_cells=2.5, n_x=4, seed=3)
    def test_fold_matches_dense_product(self, n_t, m_frac, dt, t0, w0, n_w_frac,
                                        x_frac, dx_cells, n_x, seed):
        m = 1 + round(m_frac * (n_t - 1))
        dw = 1.0 / (m * dt)
        # w span at most 12 keeps |t w|, and so the dense phases' roundoff, small
        n_w = 1 + round(n_w_frac * min(3 * m, 12 / dw))
        assert _fold_length(dt, dw, n_t) == m
        # a tone on one w node under an envelope, plus 10 % noise: |V| peaks
        # near dt * sum |f g|, so the bound is not inflated by cancellation
        rng = np.random.default_rng(seed)
        t = t0 + dt * np.arange(n_t)
        tone = w0 + dw * rng.integers(n_w)
        noise = np.array([1, 1j]) @ rng.normal(size=(2, n_t)) / 10
        envelope = np.exp(-np.linspace(-1.5, 1.5, n_t) ** 2)
        f = cb.SampledSignal(t0, dt, envelope * np.exp(2j * np.pi * tone * t) + noise)
        g = cb.SampledSignal(t0, dt, np.exp(-np.linspace(-2, 2, n_t) ** 2))
        x_grid = (x_frac * n_t * dt, dx_cells * dt, n_x)
        w_grid = (w0, dw, n_w)
        V = stft(f, g, x_grid, w_grid).values
        assert _max_rel_diff(V, _dense_stft(f, g, x_grid, w_grid)) <= 1e-12

    def test_criterion_grid_folds(self, gauss):
        rng = np.random.default_rng(4)
        from coorbit.frames import random_bandlimited_signal

        f = random_bandlimited_signal(gauss, (0.25, 1.0), rng, envelope_width=2.2)
        grids = ((-12, 0.125, 193), (-4.0, 0.125, 65))
        assert _fold_length(f.dt, 0.125, f.n) == 512
        V = stft(f, gauss, *grids).values
        assert _max_rel_diff(V, _dense_stft(f, gauss, *grids)) <= 1e-12

    def test_incommensurate_grid_keeps_dense_product(self):
        # dw * dt = 0.125 * 20.5 / 1800 = 1/702.4: no integer fold
        g = cb.gaussian(-10, 10.5, 1800)
        f = cb.translate(g, 0.75)
        grids = ((-8, 0.125, 129), (-3.5, 0.125, 57))
        assert _fold_length(f.dt, 0.125, f.n) is None
        V = stft(f, g, *grids).values
        assert np.array_equal(V, _dense_stft(f, g, *grids))

    @pytest.mark.parametrize("dw", [0.125, 1e-300])
    def test_long_fold_stays_dense_and_small(self, dw):
        # M = 512 > n_t = 256, and a step whose 1/(dw dt) no FFT could hold
        g = cb.gaussian(-2, 2, 256)
        f = cb.translate(g, 0.25)
        grids = ((-1.0, 0.25, 9), (-2.0, dw, 33))
        assert _fold_length(f.dt, dw, f.n) is None
        tracemalloc.start()
        try:
            V = stft(f, g, *grids).values
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20
        assert np.array_equal(V, _dense_stft(f, g, *grids))


class TestSTFTAdjoint:
    """``istft`` and ``_TFOperator.synthesize`` against their definitions."""

    @pytest.mark.parametrize("grid, folds", [
        ((-4.0, 4.0, 256), True),  # dt = 1/32, dw = 0.5: M = 64
        ((-4.0, 4.1, 250), False),  # dw dt = 0.0162: no integer fold
    ])
    def test_istft_matches_atom_sum(self, grid, folds):
        g = cb.gaussian(*grid)
        x_grid, w_grid = (-2.0, 0.375, 11), (-3.0, 0.5, 13)
        assert (_fold_length(g.dt, w_grid[1], g.n) is not None) == folds
        rng = np.random.default_rng(5)
        V = stft(g, g, x_grid, w_grid)
        V = V.with_values(rng.normal(size=V.values.shape)
                          + 1j * rng.normal(size=V.values.shape))
        xs = x_grid[0] + x_grid[1] * np.arange(x_grid[2])
        ws = w_grid[0] + w_grid[1] * np.arange(w_grid[2])
        ref = sum(V.values[i, k] * gabor_atom(g, x, w).values
                  for i, x in enumerate(xs) for k, w in enumerate(ws))
        ref *= x_grid[1] * w_grid[1] / cb.l2_norm(g) ** 2
        rec = istft(V, g).values
        assert np.max(np.abs(rec - ref)) <= 1e-12 * np.max(np.abs(ref))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        n_t=st.integers(2, 80),
        m_frac=st.floats(0.0, 1.0),
        fold=st.booleans(),
        dt=st.sampled_from([1 / 16, 0.1, 0.15]),
        t0=st.floats(-4.0, 4.0),
        w0=st.floats(-4.0, 4.0),
        n_w_frac=st.floats(0.0, 1.0),
        n_r=st.integers(1, 4),
        phased=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_synthesize_is_dt_adjoint(self, n_t, m_frac, fold, dt, t0, w0, n_w_frac, n_r,
                                      phased, seed):
        m = 1 + round(m_frac * (n_t - 1))
        dw = 1.0 / (m * dt) * (1.0 if fold else 1.0137)
        # w span at most 12, as in the fold oracle: unfolded axes keep dense phases
        n_w = 1 + round(n_w_frac * min(3 * m, 12 / dw))
        assert (_fold_length(dt, dw, n_t) is not None) == fold
        rng = np.random.default_rng(seed)
        g = cb.SampledSignal(t0, dt, np.exp(-np.linspace(-2, 2, n_t) ** 2))
        xs = t0 + n_t * dt * rng.uniform(size=n_r)
        row_w = rng.uniform(-2, 2, n_r) if phased else None
        op = _TFOperator(g, xs, t0, dt, w0, dw, n_w, row_w=row_w)
        v = rng.normal(size=n_t) + 1j * rng.normal(size=n_t)
        C = rng.normal(size=(n_r, n_w)) + 1j * rng.normal(size=(n_r, n_w))
        A, S = op.analyze(v), op.synthesize(C)
        lhs, rhs = np.vdot(C, A), dt * np.vdot(S, v)
        # the Cauchy-Schwarz bounds of the two sides: the scale of their roundoff
        scale = max(np.linalg.norm(C) * np.linalg.norm(A),
                    dt * np.linalg.norm(S) * np.linalg.norm(v))
        assert abs(lhs - rhs) <= 1e-12 * scale

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        n_t=st.integers(2, 96),
        m_frac=st.floats(0.0, 1.0),
        dt=st.sampled_from([1 / 16, 0.1, 1 / 8, 0.15, 0.2]),
        t0=st.floats(-4.0, 4.0),
        w0=st.floats(-4.0, 4.0),
        n_w_frac=st.floats(0.0, 1.0),
        n_r=st.integers(1, 4),
        aligned=st.booleans(),
        phased=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    # M = N with n_w > M; one node on each axis; n_w > M with N not a
    # multiple of M; M = 1
    @example(n_t=24, m_frac=1.0, dt=1 / 8, t0=-1.5, w0=0.3, n_w_frac=1.0, n_r=3,
             aligned=True, phased=False, seed=1)
    @example(n_t=17, m_frac=0.3, dt=0.2, t0=2.5, w0=-1.1, n_w_frac=0.0, n_r=1,
             aligned=False, phased=True, seed=2)
    @example(n_t=50, m_frac=0.1, dt=0.1, t0=-3.05, w0=0.37, n_w_frac=1.0, n_r=4,
             aligned=True, phased=True, seed=3)
    @example(n_t=5, m_frac=0.0, dt=0.2, t0=0.4, w0=-2.0, n_w_frac=1.0, n_r=2,
             aligned=False, phased=False, seed=4)
    def test_folded_synthesis_matches_dense_product(self, n_t, m_frac, dt, t0, w0, n_w_frac,
                                                    n_r, aligned, phased, seed):
        m = 1 + round(m_frac * (n_t - 1))
        dw = 1.0 / (m * dt)
        # w span at most 12 keeps |t w|, and so the oracle's phase roundoff, small
        n_w = 1 + round(n_w_frac * min(3 * m, 12 / dw))
        rng = np.random.default_rng(seed)
        g = cb.SampledSignal(t0, dt, np.exp(-np.linspace(-2, 2, n_t) ** 2))
        if aligned:
            xs = dt * rng.integers(-n_t - 2, n_t + 3, size=n_r)
        else:
            xs = n_t * dt * rng.uniform(-1, 1, size=n_r)
        row_w = rng.uniform(-2, 2, n_r) if phased else None
        op = _TFOperator(g, xs, t0, dt, w0, dw, n_w, row_w=row_w)
        assert op._fold is not None and op._fold[0] == m
        C = rng.normal(size=(n_r, n_w)) + 1j * rng.normal(size=(n_r, n_w))
        # the dense product, with rows built atom by atom
        t, ws = g.grid(), w0 + dw * np.arange(n_w)
        R = np.array([cb.translate(g, x).values for x in xs])
        if phased:
            R *= np.exp(2j * np.pi * np.outer(row_w, t))
        E = np.exp(2j * np.pi * np.outer(ws, t))
        ref = np.sum(R * (C @ E), axis=0)
        # the triangle-inequality bound of each sample: the scale of its roundoff
        scale = np.max(np.abs(R).T @ np.sum(np.abs(C), axis=1))
        assert np.max(np.abs(op.synthesize(C) - ref)) <= 1e-12 * scale


def _index_shift(values, k):
    """``values[n - k]``, zero where ``n - k`` leaves the grid: a grid-aligned shift by index."""
    src = np.arange(values.size) - k
    ok = (src >= 0) & (src < values.size)
    out = np.zeros(values.size, dtype=np.complex128)
    out[ok] = values[src[ok]]
    return out


class TestTFOperatorRows:
    """Window rows filled by slicing against ``translate``, bit for bit."""

    @pytest.mark.parametrize("row_w", ["none", "zero", "phased"])
    def test_rows_match_translate(self, row_w):
        t = np.linspace(-2, 2, 40)
        g = cb.SampledSignal(-1.3, 0.1, np.exp(-t ** 2 + 1j * t))
        # inside, at and beyond the window's length, both ways, then off the grid
        steps = (0, 1, -1, 17, -17, 39, -39, 40, -40, 41, -45, 1000)
        xs = [k * g.dt for k in steps] + [0.37 * g.dt, -2.5 * g.dt, 41.5 * g.dt, 0.7]
        ref = np.array([cb.translate(g, x).values for x in xs])
        for i, k in enumerate(steps):
            assert np.array_equal(ref[i].view(np.int64), _index_shift(g.values, k).view(np.int64))
        phases = {"none": None, "zero": np.zeros(len(xs)),
                  "phased": np.linspace(-1.5, 2.0, len(xs))}[row_w]
        if phases is not None:
            # the rows' modulation as it was applied to every row, zero phases included
            ref = ref * np.exp(2j * np.pi * np.outer(phases, g.grid()))
        op = _TFOperator(g, xs, g.t0, g.dt, 0.0, 1.0, 1, row_w=phases)
        assert np.array_equal(op._G.view(np.int64), np.conj(ref).view(np.int64))


class TestReproducingKernel:
    def test_kernel_symmetry_under_involution(self, mexhat_desk_normalized):
        psi = mexhat_desk_normalized
        quad = cb.build_affine_quadrature(-32, 32, 4096, 1 / 8, 8, 49, (1, -1))
        K = reproducing_kernel(psi, quad)
        from coorbit.fields import involute

        K_nabla = involute(K, "nabla")
        # interpolation towards inv(x) dominates the pointwise budget
        mask = np.abs(K.values) > 1e-4 * np.max(np.abs(K.values))
        err = np.max(np.abs((K_nabla.values - K.values)[mask]))
        assert err <= 2e-3 * np.max(np.abs(K.values))
        # on self-inverse node pairs the identity is interpolation-free
        i0, j_mid = 2048, 24
        col = K.values[0, :, i0]
        assert np.max(np.abs(col - np.conj(col[::-1]))) <= 1e-6 * np.max(np.abs(K.values))

    def test_not_admissible_propagates(self, gauss):
        quad = cb.build_affine_quadrature(-16, 16, 2048, 1 / 4, 4, 25, (1, -1))
        with pytest.raises(NotAdmissibleError):
            reproducing_kernel(gauss, quad)

    def test_tf_kernel(self, gauss):
        quad = cb.build_tf_quadrature(-4, 0.25, 33, -4, 0.25, 33)
        K = reproducing_kernel(gauss, quad)
        i0 = 16
        assert K.values[i0, i0].real == pytest.approx(cb.l2_norm(gauss) ** 2, abs=1e-8)

    def test_tf_kernels_are_group_fields(self, gauss):
        quad = cb.build_tf_quadrature(-4, 0.25, 33, -4, 0.25, 33)
        for K in (reproducing_kernel(gauss, quad), cb.atom_kernel(gauss, quad)):
            assert isinstance(K, cb.GroupField)
            assert K.quad.kind == "tf"
            assert K.quad == quad


class TestDufloMoore:
    def test_norm_equals_admissibility_constant(self, mexhat):
        D = duflo_moore_wavelet(mexhat)
        c = admissibility_constant(mexhat)
        assert cb.l2_norm(D) == pytest.approx(c, rel=0.01)

    def test_twice_is_inverse_frequency(self, mexhat):
        from coorbit.signals import fourier

        DD = duflo_moore_wavelet(duflo_moore_wavelet(mexhat))
        spec = fourier(mexhat)
        spec_dd = fourier(DD)
        w = spec.grid()
        mask = w != 0
        expected = spec.values[mask] / np.abs(w[mask])
        assert np.max(np.abs(spec_dd.values[mask] - expected)) <= 1e-8 * np.max(
            np.abs(expected)
        )

    def test_result_remains_admissible(self, mexhat):
        D = duflo_moore_wavelet(mexhat)
        c = admissibility_constant(D)
        assert isinstance(c, float) and np.isfinite(c)

    def test_dc_violation(self, gauss):
        with pytest.raises(NotAdmissibleError):
            duflo_moore_wavelet(gauss)


class TestPhaseAtoms:
    def test_tau_independence_of_modulus(self, gauss):
        rng = np.random.default_rng(4)
        from coorbit.signals import inner

        for _ in range(100):
            x = float(rng.integers(-64, 64)) * gauss.dt
            om = rng.uniform(-2, 2)
            tau = np.exp(2j * np.pi * rng.uniform())
            f = cb.modulate(cb.translate(gauss, 0.5), 0.3)
            c1 = inner(f, schrodinger_atom(gauss, x, om, 1.0))
            c2 = inner(f, schrodinger_atom(gauss, x, om, tau))
            assert abs(abs(c1) - abs(c2)) <= 1e-12 * max(abs(c1), 1e-30)

    def test_schrodinger_phase_convention(self, gauss):
        x, om = 0.5, 0.25
        atom = schrodinger_atom(gauss, x, om, 1j)
        plain = gabor_atom(gauss, x, om)
        phase = 1j * np.exp(-1j * np.pi * om * x)
        assert np.allclose(atom.values, phase * plain.values, atol=1e-14)
