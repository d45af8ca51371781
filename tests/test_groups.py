import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coorbit as cb
from coorbit.fields import (
    KernelOperator,
    NeighborhoodSpec,
    _kernel_blocks,
    _kernel_reads,
    convolve,
    involute,
    oscillation,
    tf_convolve,
)
from coorbit.groups import (
    AFFINE_IDENTITY,
    AffinePoint,
    HeisenbergPoint,
    affine_inv,
    _bilinear,
    _in_chart,
    _read_rows,
    affine_modular,
    affine_mul,
    affine_field_interpolate,
    build_affine_quadrature,
    haar_integral,
    heis_identity,
    heis_inv,
    heis_mul,
    left_translate_field,
    tf_field_interpolate,
)
from coorbit.lattices import cover_counts, covering_quadrature
from coorbit.weights import eval_weight_at

from conftest import bump_field


# affine points on the seeded tests' ranges, on both sign branches
_AFFINE_POINT = st.builds(lambda b, a, s: AffinePoint(b, s * a),
                          st.floats(-5, 5), st.floats(0.1, 4), st.sampled_from([1, -1]))


class TestAffineArithmetic:
    def test_neutral_element(self):
        assert affine_mul(AFFINE_IDENTITY, AffinePoint(3, -1)) == AffinePoint(3, -1)

    def test_product(self):
        assert affine_mul(AffinePoint(1, 2), AffinePoint(3, -1)) == AffinePoint(7, -2)

    def test_product_with_inverse_gives_identity(self):
        p = affine_mul(AffinePoint(4, 2), AffinePoint(-2, 0.5))
        assert p == AffinePoint(0, 1)

    def test_inverse_values(self):
        assert affine_inv(AFFINE_IDENTITY) == AFFINE_IDENTITY
        assert affine_inv(AffinePoint(4, 2)) == AffinePoint(-2.0, 0.5)
        assert affine_inv(AffinePoint(-3, -1)) == AffinePoint(-3, -1)

    def test_zero_scale_rejected(self):
        with pytest.raises(ValueError):
            AffinePoint(1.0, 0.0)

    def test_modular_function(self):
        assert affine_modular(AFFINE_IDENTITY) == 1
        assert affine_modular(AffinePoint(3, -2)) == 2
        assert affine_modular(AffinePoint(5, 0.25)) == 0.25

    def test_associativity_random(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            b = rng.uniform(-5, 5, 3)
            a = rng.uniform(0.1, 4, 3) * rng.choice([-1, 1], 3)
            p, q, r = (AffinePoint(bi, ai) for bi, ai in zip(b, a))
            lhs = affine_mul(affine_mul(p, q), r)
            rhs = affine_mul(p, affine_mul(q, r))
            assert abs(lhs.b - rhs.b) <= 1e-12 * max(1, abs(lhs.b))
            assert abs(lhs.a - rhs.a) <= 1e-12 * max(1, abs(lhs.a))

    def test_inverse_law_random(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            p = AffinePoint(rng.uniform(-5, 5), rng.uniform(0.1, 4) * rng.choice([-1, 1]))
            e = affine_mul(p, affine_inv(p))
            assert abs(e.b) < 1e-12 and abs(e.a - 1) < 1e-12

    def test_modular_homomorphism_random(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            p = AffinePoint(rng.uniform(-5, 5), rng.uniform(0.1, 4) * rng.choice([-1, 1]))
            q = AffinePoint(rng.uniform(-5, 5), rng.uniform(0.1, 4) * rng.choice([-1, 1]))
            assert abs(
                affine_modular(affine_mul(p, q)) - affine_modular(p) * affine_modular(q)
            ) <= 1e-12 * affine_modular(p) * affine_modular(q)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_AFFINE_POINT)
    def test_inverse_law_hypothesis(self, p):
        for e in (affine_mul(p, affine_inv(p)), affine_mul(affine_inv(p), p)):
            assert abs(e.b) < 1e-12 and abs(e.a - 1) < 1e-12

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_AFFINE_POINT, _AFFINE_POINT)
    def test_modular_homomorphism_hypothesis(self, p, q):
        assert abs(
            affine_modular(affine_mul(p, q)) - affine_modular(p) * affine_modular(q)
        ) <= 1e-12 * affine_modular(p) * affine_modular(q)


class TestHeisenbergArithmetic:
    def test_neutral(self):
        p = HeisenbergPoint((0.3,), (0.7,), 1j)
        q = heis_mul(heis_identity(1), p)
        assert q.x == p.x and q.omega == p.omega
        assert abs(q.tau - p.tau) < 1e-12

    def test_phase_example(self):
        out = heis_mul(HeisenbergPoint((1,), (0,), 1), HeisenbergPoint((0,), (1,), 1))
        assert out.x == (1.0,) and out.omega == (1.0,)
        assert abs(out.tau - (-1)) < 1e-10

    def test_order_sensitivity_against_formula(self):
        # both orderings evaluated by direct substitution into the group law
        p = HeisenbergPoint((0,), (1,), 1)
        q = HeisenbergPoint((1,), (0,), 1)
        out = heis_mul(p, q)
        # phase exp(pi*i*(q.x*p.w - p.x*q.w)) = exp(pi*i) = -1
        assert abs(out.tau - np.exp(1j * np.pi * 1.0)) < 1e-10

    def test_inverse(self):
        for p in [
            heis_identity(1),
            HeisenbergPoint((1,), (1,), 1j),
            HeisenbergPoint((2,), (0,), 1),
        ]:
            e = heis_mul(p, heis_inv(p))
            assert np.allclose(e.x, 0) and np.allclose(e.omega, 0)
            assert abs(e.tau - 1) < 1e-12
        inv = heis_inv(HeisenbergPoint((1,), (1,), 1j))
        assert inv.x == (-1.0,) and inv.omega == (-1.0,)
        assert abs(inv.tau - (-1j)) < 1e-12

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.integers(1, 3).flatmap(lambda d: st.builds(
        HeisenbergPoint,
        st.lists(st.floats(-50, 50), min_size=d, max_size=d),
        st.lists(st.floats(-50, 50), min_size=d, max_size=d),
        st.floats(0, 1).map(lambda turn: np.exp(2j * np.pi * turn)),
    )))
    def test_inverse_law_random(self, p):
        e = heis_identity(p.d)
        for out in (heis_mul(p, heis_inv(p)), heis_mul(heis_inv(p), p)):
            assert out.x == e.x and out.omega == e.omega
            assert abs(out.tau - 1) <= 1e-12

    def test_associativity_random(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            pts = [
                HeisenbergPoint(
                    rng.uniform(-3, 3, 2),
                    rng.uniform(-3, 3, 2),
                    np.exp(2j * np.pi * rng.uniform()),
                )
                for _ in range(3)
            ]
            lhs = heis_mul(heis_mul(pts[0], pts[1]), pts[2])
            rhs = heis_mul(pts[0], heis_mul(pts[1], pts[2]))
            assert np.allclose(lhs.x, rhs.x, atol=1e-12)
            assert np.allclose(lhs.omega, rhs.omega, atol=1e-12)
            assert abs(lhs.tau - rhs.tau) < 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            heis_mul(heis_identity(1), heis_identity(2))

    def test_unit_modulus_enforced(self):
        with pytest.raises(ValueError):
            HeisenbergPoint((0.0,), (0.0,), 1.5)


class TestAffineQuadrature:
    def test_haar_mass_of_rectangle(self):
        # analytic mass of [-1/2,1/2] x [1/2,2] is beta*(sqrt(alpha)-1/sqrt(alpha)) = 1.5
        quad = build_affine_quadrature(-0.5, 0.5, 64, 0.5, 2.0, 65, (1,))
        mass = haar_integral(cb.GroupField(quad, np.ones(quad.shape)))
        tol = 2 * max(quad.db, quad.du)
        assert abs(mass.real - 1.5) <= tol * 1.5

    def test_indicator_integral(self):
        quad = build_affine_quadrature(-2, 2, 256, 0.25, 4.0, 129, (1, -1))
        b, a = quad.node_points()
        ind = ((np.abs(b) <= 0.5) & (a >= 0.5) & (a <= 2.0)).astype(complex)
        val = haar_integral(cb.GroupField(quad, ind))
        tol = 2 * max(quad.db, quad.du)
        assert abs(val.real - 1.5) <= tol * 1.5

    def test_zero_and_constant_fields(self):
        quad = build_affine_quadrature(-1, 1, 16, 0.5, 2.0, 9, (1,))
        assert haar_integral(cb.GroupField(quad, np.zeros(quad.shape))) == 0
        total = np.sum(quad.node_weights())
        assert abs(
            haar_integral(cb.GroupField(quad, np.ones(quad.shape))) - total
        ) < 1e-12 * total

    def test_degenerate_ranges_rejected(self):
        with pytest.raises(ValueError):
            build_affine_quadrature(-1, 1, 16, 2.0, 2.0, 9, (1,))
        with pytest.raises(ValueError):
            build_affine_quadrature(-1, 1, 16, 4.0, 2.0, 9, (1,))
        with pytest.raises(ValueError):
            build_affine_quadrature(-1, 1, 1, 0.5, 2.0, 9, (1,))

    def test_node_count_and_weights(self):
        quad = build_affine_quadrature(-1, 1, 8, 0.5, 2.0, 5, (1, -1))
        assert quad.n_nodes == 8 * 5 * 2
        w = quad.node_weights()
        assert np.all(w > 0)
        a = np.exp(quad.u_grid())
        expected = quad.db * quad.du / a
        assert np.allclose(w[0, :, 0], expected)

    def test_weights_match_measure_on_both_signs(self):
        quad = build_affine_quadrature(-1, 1, 8, 0.5, 2.0, 5, (1, -1))
        w = quad.node_weights()
        assert np.allclose(w[0], w[1])  # weight depends on |a| only

    def test_serialization_roundtrip(self):
        quad = build_affine_quadrature(-3, 5, 32, 0.25, 8.0, 17, (1, -1))
        again = cb.GroupQuadrature.from_dict(quad.to_dict())
        assert again.to_dict() == quad.to_dict()
        # charts compare and hash by value, which is how fields are matched
        assert again == quad and hash(again) == hash(quad)
        assert again != cb.GroupQuadrature.from_dict({**quad.to_dict(), "n_b": 33})

    def test_refinement_second_order(self):
        # Richardson ratio of successive refinements ~ 1/4 on smooth fields
        # (bump decays below 1e-7 at the chart edges so endpoint effects
        # stay subdominant)
        vals = []
        for n_b, n_s in [(64, 17), (128, 33), (256, 65)]:
            quad = build_affine_quadrature(-4, 4, n_b, 0.25, 4.0, n_s, (1, -1))
            F = bump_field(quad, 0.2, 0.0, 0.9, 0.3)
            vals.append(haar_integral(F).real)
        d1 = abs(vals[1] - vals[0])
        d2 = abs(vals[2] - vals[1])
        # refinement changes the value by no more than the coarse error
        # estimate; superalgebraic convergence on entire integrands is fine
        assert d2 <= 0.6 * d1
        assert d1 <= 1e-6 * abs(vals[0])


@pytest.mark.parametrize("construct", [
    lambda: build_affine_quadrature(-1, np.nan, 16, 0.5, 2.0, 9, (1,)),
    lambda: build_affine_quadrature(-1, 1, 16, 0.5, np.inf, 9, (1,)),
    lambda: cb.build_tf_quadrature(np.nan, 0.1, 8, 0.0, 0.1, 8),
    lambda: cb.build_tf_quadrature(0.0, 0.1, 8, 0.0, np.inf, 8),
    lambda: cb.SampledSignal(0.0, np.nan, np.ones(4)),
    lambda: cb.SampledSignal(-np.inf, 0.1, np.ones(4)),
    lambda: cb.affine_box(np.nan, 2.0),
    lambda: cb.affine_box(1.0, np.inf),
    lambda: cb.tf_box(np.nan, 1.0),
    lambda: cb.AffineLattice(np.nan, 0.5, 0, 1, 0, 1),
    lambda: cb.AffineLattice(2.0, np.inf, 0, 1, 0, 1),
    lambda: cb.TFLattice(np.eye(2), np.nan, 0, 1, 0, 1),
    lambda: cb.TFLattice(np.array([[1.0, np.nan], [0.0, 1.0]]), 1.0, 0, 1, 0, 1),
])
def test_non_finite_geometry_refused(construct):
    with pytest.raises(ValueError, match="finite"):
        construct()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.inf)])
@pytest.mark.parametrize("construct", [
    lambda vals: cb.GroupField(build_affine_quadrature(-1, 1, 4, 0.5, 2.0, 3, (1,)),
                               vals.reshape(1, 3, 4)),
    lambda vals: cb.GroupField(cb.build_tf_quadrature(0.0, 0.1, 3, 0.0, 0.1, 4),
                               vals.reshape(3, 4)),
    lambda vals: cb.SampledSignal(0.0, 0.1, vals),
])
def test_non_finite_values_refused(construct, bad):
    vals = np.ones(12, dtype=complex)
    vals[5] = bad
    with pytest.raises(ValueError, match="non-finite"):
        construct(vals)


@pytest.mark.parametrize("sign", [1.5, True])
@pytest.mark.parametrize("construct", [
    lambda signs: build_affine_quadrature(-1, 1, 8, 0.5, 2, 3, signs),
    lambda signs: cb.AffineLattice(2.0, 1.0, -2, 2, -4, 4, signs),
])
def test_sign_branch_read_as_an_integer(construct, sign):
    # as in a config: 1.5 does not truncate to 1, and True is not a number
    with pytest.raises(ValueError, match=r"signs\[0\] must be"):
        construct((sign, -1))


class TestLeftTranslation:
    def test_identity_translation(self):
        quad = build_affine_quadrature(-4, 4, 64, 0.25, 4.0, 33, (1, -1))
        F = bump_field(quad, 0.0, 0.0, 1.0, 0.5)
        G = left_translate_field(F, AFFINE_IDENTITY)
        assert np.allclose(G.values, F.values, atol=1e-12)
        assert G.meta["coverage"] == 1.0

    def test_grid_aligned_shift(self):
        quad = build_affine_quadrature(-4, 4, 64, 0.25, 4.0, 33, (1, -1))
        F = bump_field(quad, 0.0, 0.0, 0.8, 0.4)
        shift = 8 * quad.db
        G = left_translate_field(F, AffinePoint(shift, 1.0))
        # b-shift moves the grid exactly: rows displaced by 8 cells
        assert np.allclose(G.values[0, :, 8:], F.values[0, :, :-8], atol=1e-12)

    def test_haar_invariance_random(self):
        quad = build_affine_quadrature(-10, 10, 400, 1 / 6, 6, 97, (1, -1))
        rng = np.random.default_rng(0)
        for _ in range(20):
            F = bump_field(
                quad,
                rng.uniform(-2, 2),
                rng.uniform(-0.5, 0.5),
                1.5,
                0.45,
                sign_idx=int(rng.integers(0, 2)),
            )
            y = AffinePoint(rng.uniform(-2, 2), float(np.exp(rng.uniform(-0.5, 0.5))))
            base = haar_integral(F)
            moved = haar_integral(left_translate_field(F, y))
            assert abs(moved - base) <= 1e-3 * abs(base)

    def test_tf_translation(self):
        quad = cb.build_tf_quadrature(-4, 0.125, 65, -4, 0.125, 65)
        x, w = quad.node_points()
        F = cb.GroupField(quad, np.exp(-(x**2) - w**2))
        G = left_translate_field(F, (0.125 * 4, -0.125 * 2))
        assert np.allclose(G.values[4:, :-2], F.values[:-4, 2:], atol=1e-12)


# Both chart maps share one bilinear kernel; these properties hold it at
# the nodes and past the chart edge, on random small charts.
_PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)
_SIGNS = st.sampled_from([(1,), (-1,), (1, -1), (-1, 1)])
_BEYOND = st.floats(1e-6, 3.0)  # index-space distance past the last node


def _random_values(shape, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _affine_chart(b_lo, width, n_b, a_min, ratio, n_scales, signs):
    return build_affine_quadrature(b_lo, b_lo + width, n_b, a_min, a_min * ratio,
                                   n_scales, signs)


_AFFINE_CHART = st.builds(
    _affine_chart,
    st.floats(-5, 5), st.floats(0.5, 10), st.integers(2, 12),
    st.floats(0.05, 2), st.floats(1.1, 20), st.integers(2, 8), _SIGNS,
)
_TF_CHART = st.builds(
    cb.build_tf_quadrature,
    st.floats(-5, 5), st.floats(0.05, 1), st.integers(1, 12),
    st.floats(-5, 5), st.floats(0.05, 1), st.integers(1, 12),
)


def _assert_reads_nodes(vals, mask, expected):
    assert np.all(mask)
    assert np.max(np.abs(vals - expected)) <= 1e-12 * np.max(np.abs(expected))


class TestBilinearKernel:
    @_PROPERTY
    @given(_AFFINE_CHART, st.integers(0, 2**32 - 1))
    def test_affine_nodes_read_node_values(self, quad, seed):
        F = cb.GroupField(quad, _random_values(quad.shape, seed))
        _assert_reads_nodes(*affine_field_interpolate(F, *quad.node_points(), with_mask=True),
                            F.values)

    @_PROPERTY
    @given(_TF_CHART, st.integers(0, 2**32 - 1))
    def test_tf_nodes_read_node_values(self, quad, seed):
        F = cb.GroupField(quad, _random_values(quad.shape, seed))
        _assert_reads_nodes(*tf_field_interpolate(F, *quad.node_points(), with_mask=True),
                            F.values)

    @_PROPERTY
    @given(_AFFINE_CHART, st.integers(0, 2**32 - 1), _BEYOND, st.floats(0, 1))
    def test_affine_beyond_chart_reads_zero(self, quad, seed, d, t):
        F = cb.GroupField(quad, _random_values(quad.shape, seed))
        fb_in = t * (quad.n_b - 1)
        fu_in = t * (quad.n_scales - 1)
        # (b index, u index, sign) triples, each past the chart on one count
        cases = [(fb, fu_in, s) for fb in (-d, quad.n_b - 1 + d) for s in quad.signs]
        cases += [(fb_in, fu, s) for fu in (-d, quad.n_scales - 1 + d) for s in quad.signs]
        cases += [(fb_in, fu_in, -s) for s in quad.signs if -s not in quad.signs]
        fb, fu, s = (np.array(c, dtype=float) for c in zip(*cases))
        b = quad.b_lo + quad.db * fb
        a = s * np.exp(quad.u_lo + quad.du * fu)
        vals, mask = affine_field_interpolate(F, b, a, with_mask=True)
        assert not np.any(mask)
        assert np.all(vals == 0)

    @_PROPERTY
    @given(_AFFINE_CHART, st.integers(0, 2**32 - 1))
    def test_affine_involution_reads_inverse_points(self, quad, seed):
        F = cb.GroupField(quad, _random_values(quad.shape, seed))
        b, a = quad.node_points()
        inv = [affine_inv(AffinePoint(*p)) for p in zip(b.ravel(), a.ravel())]
        vals = affine_field_interpolate(F, np.reshape([p.b for p in inv], quad.shape),
                                        np.reshape([p.a for p in inv], quad.shape))
        assert np.array_equal(involute(F, "vee").values, vals)
        assert np.array_equal(involute(F, "nabla").values, np.conj(vals))

    @_PROPERTY
    @given(_TF_CHART, st.integers(0, 2**32 - 1))
    def test_tf_involution_reads_inverse_points(self, quad, seed):
        F = cb.GroupField(quad, _random_values(quad.shape, seed))
        x, w = quad.node_points()
        vals = tf_field_interpolate(F, -x, -w)
        assert np.array_equal(involute(F, "vee").values, vals)
        assert np.array_equal(involute(F, "nabla").values, np.conj(vals))

    @_PROPERTY
    @given(_TF_CHART, st.integers(0, 2**32 - 1), _BEYOND, st.floats(0, 1))
    def test_tf_beyond_chart_reads_zero(self, quad, seed, d, t):
        F = cb.GroupField(quad, _random_values(quad.shape, seed))
        fx_in = t * (quad.n_x - 1)
        fw_in = t * (quad.n_w - 1)
        cases = [(fx, fw_in) for fx in (-d, quad.n_x - 1 + d)]
        cases += [(fx_in, fw) for fw in (-d, quad.n_w - 1 + d)]
        fx, fw = (np.array(c, dtype=float) for c in zip(*cases))
        vals, mask = tf_field_interpolate(F, quad.x0 + quad.dx * fx, quad.w0 + quad.dw * fw,
                                          with_mask=True)
        assert not np.any(mask)
        assert np.all(vals == 0)


# Every tensor-product reader (oscillation, the convolution kernel's
# blocks) blends axis 0 first, as the scattered kernel does, so each is
# compared with scattered reads bit for bit; so are left translations.
_GROWTH = st.floats(1e-3, 4.0)  # neighbourhood side over chart side


def _reference_oscillation(G, U):
    """Pointwise interpolation at every offset, one scattered read each."""
    quad = G.quad
    c1, c2 = quad.node_points()
    osc = np.zeros(G.values.shape, dtype=float)
    for d, t in zip(*U.offsets()):
        if quad.kind == "affine":
            vals = affine_field_interpolate(G, d + t * c1, t * c2)
        else:
            vals = tf_field_interpolate(G, c1 + d, c2 + t)
        np.maximum(osc, np.abs(vals - G.values), out=osc)
    return osc


def _assert_oscillation_matches_reference(G, U):
    osc = oscillation(G, U).values
    assert np.all(osc.imag == 0)
    assert np.array_equal(osc.real, _reference_oscillation(G, U))


class TestBilinearGrid:
    @_PROPERTY
    @given(_AFFINE_CHART, st.integers(0, 2**32 - 1))
    def test_kernel_blocks_match_scattered_kernel(self, quad, seed):
        # the convolution's pre-FFT blocks, against scattered reads at the
        # same fractional indices, on the branch the block reads
        G = cb.GroupField(quad, _random_values(quad.shape, seed))
        for (p, *_, fu, fb), (*_, block) in zip(_kernel_blocks(quad), _kernel_reads(G),
                                                strict=True):
            ref, mask = _bilinear(G.values[p], *np.meshgrid(fu, fb, indexing="ij"))
            assert np.all(mask)
            assert np.array_equal(block, ref)

    @_PROPERTY
    @given(_AFFINE_CHART, st.integers(0, 2**32 - 1))
    def test_negative_input_scale_reads_are_reversed_blocks(self, quad, seed):
        # the kernel read for input scale -s_j, by its own b-indices and
        # in-chart test, is the block for +s_j reversed along b, bit for bit
        G = cb.GroupField(quad, _random_values(quad.shape, seed))
        n_b = quad.n_b
        ms = np.arange(-(n_b - 1), n_b)
        scales = quad.scale_grid()
        for (p, j, _, cols, _, block), (*_, fu, _) in zip(
                _kernel_reads(G), _kernel_blocks(quad), strict=True):
            padded = np.zeros((block.shape[0], 2 * n_b - 1), dtype=complex)
            padded[:, cols] = block
            fb_neg = (ms * quad.db / -scales[j] - quad.b_lo) / quad.db
            kept = _in_chart(fb_neg, n_b)
            neg = np.zeros_like(padded)
            neg[:, kept] = _read_rows(_read_rows(G.values[p], fu).T, fb_neg[kept]).T
            assert np.array_equal(neg, padded[:, ::-1])

    @_PROPERTY
    @given(_AFFINE_CHART, st.integers(0, 2**32 - 1), st.floats(-6, 6),
           st.floats(-3, 3), st.sampled_from([1, -1]))
    def test_affine_left_translation_matches_pointwise_reads(self, quad, seed, yb, log_a, s):
        F = cb.GroupField(quad, _random_values(quad.shape, seed))
        y = AffinePoint(yb, s * np.exp(log_a))
        G = left_translate_field(F, y)
        b, a = quad.node_points()
        vals, mask = affine_field_interpolate(F, (b - y.b) / y.a, a / y.a, with_mask=True)
        assert np.array_equal(G.values, vals)
        assert G.meta["coverage"] == float(np.mean(mask))

    @_PROPERTY
    @given(_TF_CHART, st.integers(0, 2**32 - 1), st.floats(-6, 6), st.floats(-6, 6))
    def test_tf_left_translation_matches_pointwise_reads(self, quad, seed, yx, yw):
        F = cb.GroupField(quad, _random_values(quad.shape, seed))
        G = left_translate_field(F, (yx, yw))
        x, w = quad.node_points()
        vals, mask = tf_field_interpolate(F, x - yx, w - yw, with_mask=True)
        assert np.array_equal(G.values, vals)
        assert G.meta["coverage"] == float(np.mean(mask))

    @_PROPERTY
    @given(_AFFINE_CHART, st.integers(0, 2**32 - 1), _GROWTH, _GROWTH, st.integers(2, 9))
    def test_affine_oscillation_matches_pointwise_reads(self, quad, seed, gb, gu, n):
        G = cb.GroupField(quad, _random_values(quad.shape, seed))
        beta = gb * (quad.b_hi - quad.b_lo)
        alpha = (quad.a_max / quad.a_min) ** gu
        _assert_oscillation_matches_reference(G, NeighborhoodSpec(
            "affine", beta=beta, alpha=alpha, n_samples=n))

    @_PROPERTY
    @given(_TF_CHART, st.integers(0, 2**32 - 1), _GROWTH, _GROWTH, st.integers(2, 9))
    def test_tf_oscillation_matches_pointwise_reads(self, quad, seed, gx, gw, n):
        G = cb.GroupField(quad, _random_values(quad.shape, seed))
        _assert_oscillation_matches_reference(G, NeighborhoodSpec(
            "tf", beta_x=gx * quad.n_x * quad.dx, beta_w=gw * quad.n_w * quad.dw,
            n_samples=n))


# one small chart, field, lattice and U on each group, for the group and exponent rules
_AFF_QUAD = build_affine_quadrature(-2, 2, 16, 0.5, 2.0, 5, (1, -1))
_TF_QUAD = cb.build_tf_quadrature(-2.0, 0.25, 16, -2.0, 0.25, 16)
_AFF_FIELD = cb.GroupField(_AFF_QUAD, np.ones(_AFF_QUAD.shape))
_TF_FIELD = cb.GroupField(_TF_QUAD, np.ones(_TF_QUAD.shape))
_AFF_LAT = cb.AffineLattice(1.5, 0.5, -2, 2, -8, 8, (1, -1))
_TF_LAT = cb.TFLattice.separable(0.5, 0.5, (-4, 4), (-4, 4))
_PSI = cb.mexican_hat(-8, 8, 256)
_AFF_U, _TF_U = cb.affine_box(0.5, 1.5), cb.tf_box(0.5, 0.5)
# one call per library entry point, with one part on the other group
_WRONG_GROUP_CALLS = {
    "oscillation": lambda: oscillation(_AFF_FIELD, _TF_U),
    "eval_weight_at": lambda: eval_weight_at(cb.poly_tf(1, 1), "affine", 1.0, 1.0),
    "is_p_control": lambda: cb.is_p_control(cb.poly_tf(1, 1), cb.power_scale(1.0), 2.0),
    "convolve": lambda: convolve(_AFF_FIELD, _TF_FIELD),
    "KernelOperator": lambda: KernelOperator(_TF_FIELD),
    "tf_convolve": lambda: tf_convolve(_TF_FIELD, _AFF_FIELD),
    "affine_field_interpolate": lambda: affine_field_interpolate(_TF_FIELD, 0.0, 1.0),
    "tf_field_interpolate": lambda: tf_field_interpolate(_AFF_FIELD, 0.0, 1.0),
    "covering_quadrature": lambda: covering_quadrature(_TF_LAT, _TF_U),
    "cwt": lambda: cb.cwt(_PSI, _PSI, _TF_QUAD),
    "icwt": lambda: cb.icwt(_TF_FIELD, _PSI),
    "istft": lambda: cb.istft(_AFF_FIELD, _PSI),
    "cover_counts": lambda: cover_counts(_AFF_LAT, _TF_U, [0.0], [1.0]),
    "is_relatively_separated": lambda: cb.is_relatively_separated(_AFF_LAT, _TF_U),
    "build_bupu": lambda: cb.build_bupu(_AFF_LAT, _AFF_U, _TF_QUAD),
    "atom_certificate/U": lambda: cb.atom_certificate(
        _PSI, _AFF_QUAD, cb.power_scale(0.0), _TF_U),
    "atom_certificate/weight": lambda: cb.atom_certificate(
        _PSI, _AFF_QUAD, cb.poly_tf(0.0, 0.0), _AFF_U),
    "design_lattice": lambda: cb.design_lattice(_PSI, _TF_QUAD, cb.poly_tf(0.0, 0.0)),
    "frame_bounds_empirical": lambda: cb.frame_bounds_empirical(
        _PSI, _TF_LAT, ensemble=1, quad=_AFF_QUAD),
}


class TestOneGroupRule:
    """Every entry point refuses a part on the other group, in one message format."""

    @pytest.mark.parametrize("name, message", [
        ("oscillation", "neighbourhood on 'tf' applied to the 'affine' group"),
        ("eval_weight_at", "weight on 'tf' applied to the 'affine' group"),
        ("is_p_control", "weight on 'tf' applied to the 'affine' group"),
        ("convolve", "kernel on 'tf' applied to the 'affine' group"),
        ("KernelOperator", "kernel on 'tf' applied to the 'affine' group"),
        ("tf_convolve", "kernel on 'affine' applied to the 'tf' group"),
        ("affine_field_interpolate", "field on 'tf' applied to the 'affine' group"),
        ("tf_field_interpolate", "field on 'affine' applied to the 'tf' group"),
        ("covering_quadrature", "lattice on 'tf' applied to the 'affine' group"),
        ("cwt", "chart on 'tf' applied to the 'affine' group"),
        ("icwt", "field on 'tf' applied to the 'affine' group"),
        ("istft", "chart on 'affine' applied to the 'tf' group"),
        ("cover_counts", "neighbourhood on 'tf' applied to the 'affine' group"),
        ("is_relatively_separated", "neighbourhood on 'tf' applied to the 'affine' group"),
        ("build_bupu", "chart on 'tf' applied to the 'affine' group"),
        ("atom_certificate/U", "neighbourhood on 'tf' applied to the 'affine' group"),
        ("atom_certificate/weight", "weight on 'tf' applied to the 'affine' group"),
        ("design_lattice", "chart on 'tf' applied to the 'affine' group"),
        ("frame_bounds_empirical", "lattice on 'tf' applied to the 'affine' group"),
    ])
    def test_refused_in_one_format_before_any_kernel(self, monkeypatch, name, message):
        from coorbit import frames

        def no_work(*args, **kwargs):
            raise AssertionError("a kernel, transform or draw ran before the refusal")

        for stage in ("atom_kernel", "cwt", "random_bandlimited_signal",
                      "wavelet_atom_sufficient"):
            monkeypatch.setattr(frames, stage, no_work)
        with pytest.raises(ValueError) as exc:
            _WRONG_GROUP_CALLS[name]()
        assert str(exc.value) == message


class TestOneExponentRule:
    """``p`` must lie in ``[1, inf]`` for every norm and exponent map."""

    _ENTRIES = {
        "lpm_norm": lambda p: cb.lpm_norm(_AFF_FIELD, p),
        "seq_lpm_norm": lambda p: cb.seq_lpm_norm(np.ones(_AFF_LAT.n_points), p, None, _AFF_LAT),
        "is_p_control": lambda p: cb.is_p_control(cb.symmetric_power(2.0), cb.power_scale(1.0), p),
        "besov_exponent": lambda p: cb.besov_exponent(p, 1.0),
    }

    @pytest.mark.parametrize("entry", sorted(_ENTRIES))
    @pytest.mark.parametrize("p", [-np.inf, np.nan, 0.5])
    def test_outside_refused(self, entry, p):
        with pytest.raises(ValueError, match=r"p must lie in \[1, inf\]"):
            self._ENTRIES[entry](p)

    @pytest.mark.parametrize("entry", sorted(_ENTRIES))
    @pytest.mark.parametrize("p", [1, 2, np.inf])
    def test_inside_accepted(self, entry, p):
        self._ENTRIES[entry](p)
