import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coorbit as cb
from coorbit import fields
from coorbit.fields import (
    KernelOperator,
    _convolve_direct,
    affine_box,
    convolve,
    field_l2_norm,
    involute,
    kernel_project,
    lpm_norm,
    oscillation,
    tf_box,
    weight_reciprocal,
    young_check,
)
from coorbit.groups import GroupField, build_affine_quadrature, haar_integral
from coorbit.voice import cwt

from conftest import bump_field, rel_l2


@pytest.fixture(scope="module")
def conv_quad():
    # odd symmetric u-grid: node-to-node scale ratios land on the grid
    return build_affine_quadrature(-8, 8, 1024, np.exp(-1.6), np.exp(1.6), 33, (1, -1))


@pytest.fixture(scope="module")
def assoc_quad():
    # u-span wide enough that the intermediate convolutions decay inside the
    # chart; interior quadrature discrepancy then sits below 1e-6
    return build_affine_quadrature(-8, 8, 1024, np.exp(-2.4), np.exp(2.4), 49, (1, -1))


@pytest.fixture(scope="module")
def small_kernel():
    psi = cb.normalize_admissible(cb.mexican_hat(-16, 16, 512))
    quad = build_affine_quadrature(-16, 16, 48, 1 / 4, 4, 17, (1, -1))
    return cwt(psi, psi, quad)


class TestNeighborhood:
    def test_affine_mass(self):
        U = affine_box(1.0, 4.0)
        assert U.haar_mass() == pytest.approx(1.5)

    def test_contains_identity(self):
        d, t = affine_box(1.0, 2.0, n_samples=7).offsets()
        assert np.min(np.abs(d)) == 0.0
        assert np.min(np.abs(t - 1.0)) <= 1e-12

    def test_tf_box(self):
        U = tf_box(2.0, 3.0)
        assert U.haar_mass() == pytest.approx(6.0)

    def test_invalid(self):
        with pytest.raises(ValueError):
            affine_box(1.0, 0.9)
        with pytest.raises(ValueError):
            tf_box(-1.0, 1.0)


class TestNorms:
    def test_zero_field(self, conv_quad):
        zero = GroupField(conv_quad, np.zeros(conv_quad.shape))
        assert lpm_norm(zero, 1.0) == 0.0
        assert lpm_norm(zero, math.inf) == 0.0

    def test_indicator_l1(self):
        quad = build_affine_quadrature(-2, 2, 256, 0.25, 4.0, 129, (1,))
        b, a = quad.node_points()
        ind = ((np.abs(b) <= 0.5) & (a >= 0.5) & (a <= 2.0)).astype(complex)
        F = GroupField(quad, ind)
        val = lpm_norm(F, 1.0)
        tol = 2 * max(quad.db, quad.du)
        assert abs(val - 1.5) <= tol * 1.5

    def test_homogeneity(self, conv_quad):
        F = bump_field(conv_quad, 0.2, 0.1, 0.8, 0.3)
        for p in (1.0, 2.0, math.inf):
            assert lpm_norm(F.with_values(3.5 * F.values), p) == pytest.approx(
                3.5 * lpm_norm(F, p), rel=1e-12
            )

    def test_triangle_inequality(self, conv_quad):
        F = bump_field(conv_quad, 0.4, 0.1, 0.8, 0.3)
        G = bump_field(conv_quad, -0.3, -0.1, 0.6, 0.25)
        S = F.with_values(F.values + G.values)
        for p in (1.0, 2.0, math.inf):
            assert lpm_norm(S, p) <= lpm_norm(F, p) + lpm_norm(G, p) + 1e-12

    def test_embedding_monotonicity(self, conv_quad):
        # m1 >= c m2 pointwise implies the same for the norms
        F = bump_field(conv_quad, 0.0, 0.0, 0.8, 0.3)
        m1 = cb.symmetric_power(1.0)  # >= 2 everywhere
        m2 = cb.power_scale(0.0)  # == 1
        for p in (1.0, 2.0, math.inf):
            assert lpm_norm(F, p, m1) >= 2.0 * lpm_norm(F, p, m2) * (1 - 1e-12)

    def test_weight_reciprocal(self):
        w = cb.symmetric_power(1.0)
        inv = weight_reciprocal(w)
        from coorbit.weights import eval_weight_at

        a = np.array([0.5, 1.0, 3.0])
        assert np.allclose(
            eval_weight_at(inv, "affine", 0 * a, a) * eval_weight_at(w, "affine", 0 * a, a), 1.0
        )


class TestInvolution:
    def test_double_vee_identity(self, conv_quad):
        F = bump_field(conv_quad, 0.3, 0.1, 0.9, 0.35)
        FF = involute(involute(F, "vee"), "vee")
        mask = np.abs(F.values) > 1e-6
        err = np.max(np.abs((FF.values - F.values)[mask]))
        assert err <= 5e-3 * np.max(np.abs(F.values))

    def test_nabla_of_zero(self, conv_quad):
        zero = GroupField(conv_quad, np.zeros(conv_quad.shape))
        assert np.all(involute(zero, "nabla").values == 0)

    def test_tf_involution_exact_on_symmetric_grid(self):
        quad = cb.build_tf_quadrature(-4, 0.25, 33, -4, 0.25, 33)
        x, w = quad.node_points()
        F = GroupField(quad, np.exp(-(x**2) - w * w) * (1 + 0.3j * x))
        FI = involute(F, "vee")
        assert np.allclose(FI.values, F.values[::-1, ::-1], atol=1e-12)


class TestConvolve:
    def test_zero_annihilates(self, small_kernel):
        zero = small_kernel.with_values(np.zeros_like(small_kernel.values))
        out = _convolve_direct(small_kernel, zero)
        assert np.max(np.abs(out)) == 0.0

    def test_fast_matches_direct(self, small_kernel):
        K = small_kernel
        fast = convolve(K, K)
        direct = GroupField(K.quad, _convolve_direct(K, K))
        err = field_l2_norm(GroupField(K.quad, fast.values - direct.values))
        assert err <= 1e-10 * field_l2_norm(direct)

    def test_fast_matches_direct_single_sign(self):
        psi = cb.normalize_admissible(cb.mexican_hat(-16, 16, 512))
        quad = build_affine_quadrature(-16, 16, 48, 1 / 4, 4, 17, (1,))
        K = cwt(psi, psi, quad)
        fast = convolve(K, K)
        direct = GroupField(quad, _convolve_direct(K, K))
        err = field_l2_norm(GroupField(quad, fast.values - direct.values))
        assert err <= 1e-10 * field_l2_norm(direct)

    def test_indicator_self_convolution_at_identity(self):
        # (chi_A * chi_A)(e) = Haar mass of A intersect A^{-1}, A = A_{1,4}
        quad = build_affine_quadrature(-2, 2, 128, 1 / 8, 8, 121, (1,))
        b, a = quad.node_points()
        ind = ((np.abs(b) <= 0.5) & (a >= 0.5) & (a <= 2.0)).astype(complex)
        F = GroupField(quad, ind)
        out = convolve(F, F)
        # identity node
        j0 = 60
        assert quad.scale_grid()[j0] == pytest.approx(1.0, abs=1e-9)
        i0 = 64
        val = out.values[0, j0, i0].real
        # A^{-1} = {(-b/a, 1/a)}: mass of overlap computed by quadrature oracle
        inv_ind = ((np.abs(-b / a) <= 0.5) & (1 / a >= 0.5) & (1 / a <= 2.0))
        overlap = ((inv_ind) & (ind > 0)).astype(complex)
        oracle = haar_integral(GroupField(quad, overlap)).real
        assert val == pytest.approx(oracle, rel=0.05)

    def test_quadrature_mismatch_rejected(self, small_kernel):
        other = build_affine_quadrature(-16, 16, 48, 1 / 4, 4, 19, (1, -1))
        G = GroupField(other, np.zeros(other.shape))
        with pytest.raises(ValueError):
            convolve(small_kernel, G)

    def test_associativity(self, assoc_quad):
        conv_quad = assoc_quad
        F = bump_field(conv_quad, 0.3, 0.1, 0.9, 0.35)
        G = bump_field(conv_quad, -0.2, -0.15, 0.9, 0.35)
        H = bump_field(conv_quad, 0.1, 0.05, 0.9, 0.35)
        lhs = convolve(convolve(F, G), H)
        rhs = convolve(F, convolve(G, H))
        assert rel_l2(lhs, rhs) <= 1e-6

    def test_truncation_metadata(self, small_kernel):
        out = convolve(small_kernel, small_kernel)
        tr = out.meta["truncation"]
        assert 0 <= tr["left_factor_edge_l1_fraction"] < 1
        assert 0 <= tr["right_factor_edge_l1_fraction"] < 1


def _random_field(quad, seed):
    rng = np.random.default_rng(seed)
    return GroupField(quad, rng.normal(size=quad.shape) + 1j * rng.normal(size=quad.shape))


class TestFastConvolveProperty:
    # random small charts: the fast path reads the kernel at the direct
    # sum's interpolation points, so the two agree to roundoff
    @pytest.mark.parametrize("signs", [(1,), (1, -1), (-1,), (-1, 1)])
    @pytest.mark.parametrize("parity", [0, 1])
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        b_lo=st.floats(-5, 5), width=st.floats(0.5, 10), n_b=st.integers(2, 14),
        a_min=st.floats(0.05, 2), ratio=st.floats(1.1, 20), half=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_fast_matches_direct(self, signs, parity, b_lo, width, n_b, a_min, ratio,
                                 half, seed):
        n_scales = 2 * half + parity
        quad = build_affine_quadrature(b_lo, b_lo + width, n_b, a_min, a_min * ratio,
                                       n_scales, signs)
        F = _random_field(quad, seed)
        G = _random_field(quad, seed + 1)
        fast = convolve(F, G).values
        direct = _convolve_direct(F, G)
        err = field_l2_norm(GroupField(quad, fast - direct))
        assert err <= 1e-10 * field_l2_norm(GroupField(quad, direct))


def test_next_fast_len_matches_scipy():
    from scipy.fft import next_fast_len

    lengths = range(1, 16385)
    assert [fields._next_fast_len(n) for n in lengths] == [next_fast_len(n) for n in lengths]


@pytest.mark.parametrize("n", [0, -1, -7])
def test_next_fast_len_refuses_lengths_below_one(n):
    # 0 % p == 0 for every p: the search would never return
    with pytest.raises(ValueError, match=f"an FFT length must be >= 1, got {n}"):
        fields._next_fast_len(n)


class TestKernelOperator:
    @pytest.fixture(scope="class")
    def chart_kernels(self):
        # negative-first charts too: planes and inputs are indexed by branch position
        psi = cb.normalize_admissible(cb.mexican_hat(-16, 16, 512))
        return [cwt(psi, psi, build_affine_quadrature(-16, 16, 96, 1 / 4, 4, 17, signs))
                for signs in ((1, -1), (-1,), (-1, 1))]

    @pytest.fixture(scope="class")
    def chart_kernel(self, chart_kernels):
        return chart_kernels[0]

    def _assert_same(self, a, b):
        assert np.array_equal(a.values.view(np.int64), b.values.view(np.int64))
        assert a.meta == b.meta

    def test_stored_matches_convolve_bit_for_bit(self, chart_kernels):
        for K in chart_kernels:
            op = KernelOperator(K)
            # the second apply also shows the first left the stored spectra intact
            for seed in (1, 2):
                F = _random_field(K.quad, seed)
                self._assert_same(op.apply(F), convolve(F, K))

    def test_two_sign_spectra_take_twice_one_sign(self, chart_kernels):
        # one block per (kernel plane, input scale): a negative input scale
        # reuses the positive one's block reversed, so two signs hold 2x, not
        # 4x, and a (-1,) chart, whose kernel plane joins no branches, none
        def block_rows(quad):
            return sum(rows.stop - rows.start for _, _, rows, *_ in fields._kernel_blocks(quad))

        one = block_rows(build_affine_quadrature(-16, 16, 96, 1 / 4, 4, 17, (1,)))
        assert one > 0
        for K, factor in zip(chart_kernels, (2, 0, 2), strict=True):
            rows = block_rows(K.quad)
            assert rows == factor * one
            # 16 bytes per block row of the FFT length; a zero block is not held
            held = sum(spec.nbytes for *_, spec in KernelOperator(K)._spectra)
            assert held <= 16 * fields._fft_len(K.quad) * rows

    def test_other_chart_refused(self, chart_kernel):
        op = KernelOperator(chart_kernel)
        other = build_affine_quadrature(-16, 16, 96, 1 / 4, 4, 19, (1, -1))
        with pytest.raises(ValueError):
            op.apply(_random_field(other, 4))


class TestOscillation:
    def test_constant_field_zero(self, conv_quad):
        F = GroupField(conv_quad, np.ones(conv_quad.shape))
        osc = oscillation(F, affine_box(0.2, 1.2))
        # nodes whose whole U-orbit stays in-chart see no variation; the
        # scale action tau*b pushes large-|b| nodes out, so stay inside
        interior = osc.values[:, 3:-3, 200:-200]
        assert np.max(np.abs(interior)) <= 1e-12

    def test_monotone_in_U(self, small_kernel):
        K = small_kernel
        small = oscillation(K, affine_box(0.25, 1.25))
        large = oscillation(K, affine_box(0.5, 1.5))
        # the true sup is monotone; the sampled sup may wiggle at the
        # sampling-error scale near zeros of the oscillation
        slack = 1e-4 * np.max(large.values.real)
        assert np.all(small.values.real <= large.values.real + slack)

    def test_shrinkage_to_zero(self):
        # chart chosen so the kernel decays well inside every edge; the
        # oscillation norm then shrinks with the neighbourhood instead of
        # flooring at the chart boundary
        psi = cb.normalize_admissible(cb.mexican_hat(-16, 16, 1024))
        quad = build_affine_quadrature(-16, 16, 128, 1 / 2, 2, 17, (1, -1))
        K = cwt(psi, psi, quad)
        w1 = cb.symmetric_power(1.0)
        norms = [
            lpm_norm(oscillation(K, affine_box(0.7**n, 1 + 0.7**n)), 1.0, w1)
            for n in range(0, 13, 2)
        ]
        assert all(b < a for a, b in zip(norms, norms[1:]))
        assert norms[-1] <= 0.1 * norms[0]

    def test_sample_refinement_stability(self, small_kernel):
        K = small_kernel
        w1 = cb.symmetric_power(1.0)
        U7 = affine_box(0.1, 1.1, n_samples=7)
        U13 = affine_box(0.1, 1.1, n_samples=13)
        o7 = lpm_norm(oscillation(K, U7), 1.0, w1)
        o13 = lpm_norm(oscillation(K, U13), 1.0, w1)
        assert o13 >= o7 * (1 - 1e-9)  # finer sampling can only see more
        assert (o13 - o7) <= 0.01 * o7

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1j * np.inf])
    @pytest.mark.parametrize("group", ["affine", "tf"])
    def test_non_finite_field_refused(self, group, bad):
        if group == "affine":
            quad = build_affine_quadrature(-2, 2, 16, 0.5, 2, 5, (1, -1))
            U = affine_box(0.2, 1.2)
        else:
            quad = cb.build_tf_quadrature(-1, 0.125, 17, -1, 0.125, 17)
            U = tf_box(0.25, 0.25)
        vals = np.ones(quad.shape, dtype=complex)
        vals.flat[vals.size // 2] = bad
        with pytest.raises(ValueError, match="finite"):
            oscillation(GroupField(quad, vals), U)

    def test_tf_oscillation(self):
        quad = cb.build_tf_quadrature(-4, 0.125, 65, -4, 0.125, 65)
        x, w = quad.node_points()
        F = GroupField(quad, np.exp(-(x**2) - w * w))
        osc = oscillation(F, tf_box(0.25, 0.25))
        assert np.all(osc.values.real >= 0)
        assert np.max(osc.values.real) > 0


class TestYoung:
    def test_zero_passes(self, conv_quad):
        F = GroupField(conv_quad, np.zeros(conv_quad.shape))
        rep = young_check(F, F, 2.0, cb.power_scale(1.0), cb.symmetric_power(2.0))
        assert rep.passed

    def test_smooth_draws(self, conv_quad):
        m1, w2 = cb.power_scale(1.0), cb.symmetric_power(2.0)
        rng = np.random.default_rng(0)
        for _ in range(5):
            F = bump_field(
                conv_quad, rng.uniform(-1, 1), rng.uniform(-0.3, 0.3), 0.9, 0.3,
                sign_idx=int(rng.integers(0, 2)),
            )
            G = bump_field(
                conv_quad, rng.uniform(-1, 1), rng.uniform(-0.3, 0.3), 0.9, 0.3,
                sign_idx=int(rng.integers(0, 2)),
            )
            rep = young_check(F, G, 2.0, m1, w2)
            assert rep.passed, rep.to_dict()

    def test_control_weight_precondition(self, conv_quad):
        F = bump_field(conv_quad, 0.0, 0.0, 0.8, 0.3)
        with pytest.raises(ValueError):
            young_check(F, F, 2.0, cb.power_scale(1.0), cb.symmetric_power(1.2))


class TestProjection:
    def test_projection_idempotent(self):
        psi = cb.normalize_admissible(cb.mexican_hat(-32, 32, 1024))
        quad = build_affine_quadrature(-32, 32, 1024, 1 / 8, 8, 49, (1, -1))
        K = cwt(psi, psi, quad)
        rng = np.random.default_rng(3)
        F = bump_field(quad, 0.5, 0.2, 2.0, 0.5)
        PF = kernel_project(F, K)
        PPF = kernel_project(PF, K)
        assert rel_l2(PPF, PF) <= 0.05
