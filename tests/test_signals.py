import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import coorbit as cb
from coorbit import signals
from coorbit.signals import (
    antiderivative,
    derivative,
    dilate,
    fourier,
    inverse_fourier,
    l2_norm,
    modulate,
    moments,
    translate,
    vanishing_moment_count,
)


class TestFourier:
    def test_roundtrip(self, mexhat):
        back = inverse_fourier(fourier(mexhat))
        err = np.max(np.abs(back.values - mexhat.values))
        assert err <= 1e-10 * np.max(np.abs(mexhat.values))
        assert back.t0 == mexhat.t0

    def test_gaussian_self_dual(self, gauss):
        spec = fourier(gauss)
        w = spec.grid()
        assert np.max(np.abs(spec.values - np.exp(-np.pi * w * w))) <= 1e-6

    def test_plancherel(self, mexhat):
        spec = fourier(mexhat)
        spec_norm = np.sqrt(spec.dw * np.sum(np.abs(spec.values) ** 2))
        assert spec_norm == pytest.approx(l2_norm(mexhat), rel=1e-10)

    @pytest.mark.parametrize("parity", [0, 1])
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(half=st.integers(1, 256), t0=st.floats(-20, 20).filter(bool),
           dt=st.floats(0.01, 2.0), seed=st.integers(0, 2**32 - 1))
    def test_roundtrip_and_plancherel_random_grids(self, parity, half, t0, dt, seed):
        rng = np.random.default_rng(seed)
        n = 2 * half + parity
        f = cb.SampledSignal(t0, dt, rng.normal(size=n) + 1j * rng.normal(size=n))
        spec = fourier(f)
        back = inverse_fourier(spec)
        assert back.t0 == t0
        assert back.dt == pytest.approx(dt, rel=1e-14)
        assert np.max(np.abs(back.values - f.values)) <= 1e-10 * np.max(np.abs(f.values))
        spec_norm = np.sqrt(spec.dw * np.sum(np.abs(spec.values) ** 2))
        assert spec_norm == pytest.approx(l2_norm(f), rel=1e-10)

    def test_spectrum_bin_width(self, mexhat):
        spec = fourier(mexhat)
        assert spec.dw == pytest.approx(1.0 / (mexhat.n * mexhat.dt), rel=1e-14)


class TestElementaryOperators:
    def test_translate_zero(self, gauss):
        assert np.array_equal(translate(gauss, 0.0).values, gauss.values)

    def test_translate_grid_aligned_exact(self, gauss):
        out = translate(gauss, 4 * gauss.dt)
        assert np.array_equal(out.values[4:], gauss.values[:-4])

    def test_dilate_norm_preserved(self, gauss):
        assert l2_norm(dilate(gauss, 2.0)) == pytest.approx(l2_norm(gauss), rel=1e-3)
        assert l2_norm(dilate(gauss, -1.5)) == pytest.approx(l2_norm(gauss), rel=1e-3)

    def test_translate_modulate_norms(self, gauss):
        assert l2_norm(translate(gauss, 1.37)) == pytest.approx(l2_norm(gauss), rel=1e-3)
        assert l2_norm(modulate(gauss, 0.8)) == pytest.approx(l2_norm(gauss), rel=1e-12)

    def test_commutation_relation(self, gauss):
        # M_w T_x = exp(2 pi i x w) T_x M_w
        x, w = 16 * gauss.dt, 0.625
        lhs = modulate(translate(gauss, x), w)
        rhs = translate(modulate(gauss, w), x)
        phase = np.exp(2j * np.pi * x * w)
        assert np.max(np.abs(lhs.values - phase * rhs.values)) <= 1e-10

    def test_dilate_zero_scale(self, gauss):
        with pytest.raises(ValueError):
            dilate(gauss, 0.0)


class TestMoments:
    def test_mexican_hat_moments(self, mexhat):
        rep = moments(mexhat, 2)
        assert abs(rep.moments[0]) <= 1e-8 * rep.absolute_moments[0]
        assert abs(rep.moments[1]) <= 1e-8 * rep.absolute_moments[1]
        expected = -2 * np.sqrt(2 * np.pi)
        assert rep.moments[2].real == pytest.approx(expected, rel=1e-6)

    def test_haar_moments_exact(self):
        hw = cb.haar_wavelet(-2, 2, 256)
        rep = moments(hw, 1)
        assert abs(rep.moments[0]) <= 1e-10
        assert rep.moments[1].real == pytest.approx(-0.25, abs=1e-10)

    def test_odd_function_zero_mean(self):
        # grid symmetric about zero (midpoint-offset), so samples pair up
        n = 512
        dt = 8.0 / n
        t0 = -4 + dt / 2
        t = t0 + dt * np.arange(n)
        odd = cb.SampledSignal(t0, dt, t * np.exp(-t * t))
        assert abs(moments(odd, 0).moments[0]) <= 1e-12

    def test_vanishing_counts(self, mexhat, gauss):
        assert vanishing_moment_count(mexhat, 1e-6) == 2
        assert vanishing_moment_count(cb.haar_wavelet(), 1e-10) == 1
        assert vanishing_moment_count(gauss, 1e-6) == 0

    def test_moment_shift_law(self, mexhat):
        # antiderivative loses exactly one vanishing moment
        assert vanishing_moment_count(antiderivative(mexhat), 1e-6) == 1

    def test_window_reported(self, mexhat):
        rep = moments(mexhat, 0)
        assert rep.window == (-20.0, 20.0)


class TestCalculus:
    def test_antiderivative_of_zero(self, gauss):
        zero = gauss.with_values(np.zeros(gauss.n))
        assert np.all(antiderivative(zero).values == 0)

    def test_derivative_of_antiderivative(self, mexhat):
        anti = antiderivative(mexhat)
        back = np.gradient(anti.values.real, mexhat.dt)
        inner = slice(mexhat.n // 8, -mexhat.n // 8)
        err = np.max(np.abs(back[inner] - mexhat.values.real[inner]))
        assert err <= 5 * mexhat.dt**2 / mexhat.dt  # O(dt^2) differences on dt grid

    def test_gaussian_derivative(self, gauss):
        d = derivative(gauss, 1)
        t = gauss.grid()
        ana = -2 * np.pi * t * np.exp(-np.pi * t * t)
        inner = slice(gauss.n // 10, -gauss.n // 10)
        assert np.max(np.abs(d.values - ana)[inner]) <= 1e-5

    def test_sine_second_derivative(self):
        n = 2048
        dt = 16.0 / n
        t = -8 + dt * np.arange(n)
        s = cb.SampledSignal(-8, dt, np.sin(2 * np.pi * t))
        d2 = derivative(s, 2)
        ana = -((2 * np.pi) ** 2) * np.sin(2 * np.pi * t)
        inner = slice(n // 10, -n // 10)
        assert np.max(np.abs(d2.values - ana)[inner]) <= 1e-4

    def test_derivative_of_zero(self, gauss):
        zero = gauss.with_values(np.zeros(gauss.n))
        assert np.max(np.abs(derivative(zero, 1).values)) == 0.0

    def test_invalid_order(self, gauss):
        with pytest.raises(ValueError):
            derivative(gauss, 0)


class TestSerialization:
    def test_signal_roundtrip(self, mexhat):
        again = cb.SampledSignal.from_dict(mexhat.to_dict())
        assert again.t0 == mexhat.t0 and again.dt == mexhat.dt
        assert np.array_equal(again.values, mexhat.values)

    def test_re_and_im_lengths_must_match(self, mexhat):
        d = mexhat.to_dict()
        d["im"] = d["im"][:1]
        with pytest.raises(ValueError, match="re and im must have the same length"):
            cb.SampledSignal.from_dict(d)


class TestScipyReplacements:
    """The numpy antiderivative and spline against the scipy routines they replace."""

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(
        y=arrays(np.complex128, st.integers(2, 300),
                 elements=st.complex_numbers(max_magnitude=1e6, allow_nan=False,
                                             allow_infinity=False)),
        dt=st.floats(1e-3, 10),
    )
    def test_antiderivative_is_cumulative_trapezoid(self, y, dt):
        from scipy.integrate import cumulative_trapezoid

        anti = antiderivative(cb.SampledSignal(0.0, dt, y)).values
        assert np.array_equal(anti, cumulative_trapezoid(y, dx=dt, initial=0.0))

    @pytest.mark.parametrize("window", ["mexhat", "s0_atom", "gauss"])
    def test_spline_matches_cubic_spline(self, request, window):
        from scipy.interpolate import CubicSpline

        spec = fourier(request.getfixturevalue(window))
        g = spec.grid()
        reference = CubicSpline(g, spec.values, extrapolate=False)
        peak = np.max(np.abs(spec.values))
        dw = spec.dw
        between = np.concatenate([g[:-1] + f * dw for f in (0.5, 0.3, 0.97)]
                                 + [a * g for a in (0.37, 0.81, 1.9)])
        outside = np.concatenate([g[0] - dw * np.array([1e-9, 0.5, 7.0]),
                                  g[-1] + dw * np.array([1e-9, 0.5, 7.0])])
        for w in (g, between, outside):
            expected = reference(w)
            expected[np.isnan(expected)] = 0.0
            assert np.max(np.abs(spec.interpolate(w) - expected)) <= 1e-12 * peak
        assert np.all(spec.interpolate(outside) == 0.0)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 9])
    def test_short_spectra(self, n):
        # two and three nodes: the line and parabola through them
        from scipy.interpolate import CubicSpline

        rng = np.random.default_rng(n)
        spec = cb.Spectrum(-0.3, 0.17, rng.normal(size=n) + 1j * rng.normal(size=n))
        g = spec.grid()
        w = np.linspace(g[0] - 0.1, g[-1] + 0.1, 301)
        expected = CubicSpline(g, spec.values, extrapolate=False)(w)
        expected[np.isnan(expected)] = 0.0
        assert np.max(np.abs(spec.interpolate(w) - expected)) <= 1e-12 * np.max(
            np.abs(spec.values))

    def test_cwt_builds_one_spline(self, monkeypatch, mexhat):
        built = []
        slopes = signals._not_a_knot_slopes

        def counting(*args):
            built.append(1)
            return slopes(*args)

        monkeypatch.setattr(signals, "_not_a_knot_slopes", counting)
        quad = cb.build_affine_quadrature(-20, 20, 64, 0.5, 2.0, 9, (1, -1))
        cb.cwt(mexhat, mexhat, quad)
        assert len(built) == 1
