import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coorbit as cb
from coorbit.fields import (
    KernelOperator,
    NeighborhoodSpec,
    _apply_spectra,
    _fft_len,
    _kernel_blocks,
    _kernel_reads,
    _kernel_spectra,
    convolve,
    involute,
    oscillation,
)
from coorbit.groups import (
    AffinePoint,
    _bilinear,
    _in_chart,
    _inverse,
    _product,
    _pullback,
    _read_rows,
    affine_field_interpolate,
    build_affine_quadrature,
    haar_integral,
    left_translate_field,
    tf_field_interpolate,
)
from coorbit.lattices import cover_counts, covering_quadrature
from coorbit.weights import eval_weight_at

from conftest import affine_inv, bump_field


# affine points on the seeded tests' ranges, on both sign branches, and TF points
_AFFINE_POINT = st.tuples(st.floats(-5, 5), st.builds(lambda a, s: s * a, st.floats(0.1, 4),
                                                      st.sampled_from([1, -1])))
_TF_POINT = st.tuples(st.floats(-5, 5), st.floats(-5, 5))
_POINT = {"affine": _AFFINE_POINT, "tf": _TF_POINT}
_IDENTITY = {"affine": (0.0, 1.0), "tf": (0.0, 0.0)}
_LAW = settings(max_examples=200, deadline=None, derandomize=True)


def _close(p, q, scale):
    """Coordinate pairs equal to roundoff at the size ``scale`` of their terms."""
    return all(abs(u - v) <= 1e-12 * scale for u, v in zip(p, q, strict=True))


def _size(kind, *points):
    """One plus the largest coordinate (and affine inverse scale) of the points."""
    return 1 + max(max(abs(c1), abs(c2), 1 / abs(c2) if kind == "affine" else 0)
                   for c1, c2 in points)


class TestAffineArithmetic:
    def test_neutral_element(self):
        assert _product("affine", _IDENTITY["affine"], (3, -1)) == (3, -1)

    def test_product(self):
        assert _product("affine", (1, 2), (3, -1)) == (7, -2)

    def test_product_with_inverse_gives_identity(self):
        p = _product("affine", (4, 2), (-2, 0.5))
        assert p == (0, 1)

    def test_inverse_values(self):
        assert _inverse("affine", _IDENTITY["affine"]) == _IDENTITY["affine"]
        assert _inverse("affine", (4, 2)) == (-2.0, 0.5)
        assert _inverse("affine", (-3, -1)) == (-3, -1)

    def test_zero_scale_rejected(self):
        with pytest.raises(ValueError):
            AffinePoint(1.0, 0.0)

    def test_associativity_random(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            b = rng.uniform(-5, 5, 3)
            a = rng.uniform(0.1, 4, 3) * rng.choice([-1, 1], 3)
            p, q, r = zip(b, a)
            lhs = _product("affine", _product("affine", p, q), r)
            rhs = _product("affine", p, _product("affine", q, r))
            assert abs(lhs[0] - rhs[0]) <= 1e-12 * max(1, abs(lhs[0]))
            assert abs(lhs[1] - rhs[1]) <= 1e-12 * max(1, abs(lhs[1]))

    def test_inverse_law_random(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            p = (rng.uniform(-5, 5), rng.uniform(0.1, 4) * rng.choice([-1, 1]))
            e = _product("affine", p, _inverse("affine", p))
            assert abs(e[0]) < 1e-12 and abs(e[1] - 1) < 1e-12

    @_LAW
    @given(_AFFINE_POINT)
    def test_inverse_law_hypothesis(self, p):
        for e in (_product("affine", p, _inverse("affine", p)),
                  _product("affine", _inverse("affine", p), p)):
            assert abs(e[0]) < 1e-12 and abs(e[1] - 1) < 1e-12


@pytest.mark.parametrize("kind", ["affine", "tf"])
class TestGroupLaw:
    """The one law (``_product``, ``_inverse``, ``_pullback``) is a group law on both groups."""

    @_LAW
    @given(data=st.data())
    def test_identity_is_neutral_on_both_sides(self, kind, data):
        p = data.draw(_POINT[kind])
        e = _IDENTITY[kind]
        assert _product(kind, e, p) == p
        assert _product(kind, p, e) == p

    @_LAW
    @given(data=st.data())
    def test_inverse_is_two_sided(self, kind, data):
        p = data.draw(_POINT[kind])
        inv = _inverse(kind, p)
        for e in (_product(kind, p, inv), _product(kind, inv, p)):
            assert _close(e, _IDENTITY[kind], _size(kind, p))

    @_LAW
    @given(data=st.data())
    def test_associative_to_roundoff(self, kind, data):
        p, q, r = (data.draw(_POINT[kind]) for _ in range(3))
        lhs = _product(kind, _product(kind, p, q), r)
        rhs = _product(kind, p, _product(kind, q, r))
        assert _close(lhs, rhs, _size(kind, p, q, r) ** 3)

    @_LAW
    @given(data=st.data())
    def test_pullback_is_inverse_times_point(self, kind, data):
        y, x = data.draw(_POINT[kind]), data.draw(_POINT[kind])
        assert _close(_pullback(kind, y, x), _product(kind, _inverse(kind, y), x),
                      _size(kind, y, x) ** 2)

    def test_law_is_elementwise_on_arrays(self, kind):
        # the library calls the law on whole coordinate arrays; each entry
        # gets the arithmetic of the scalar call
        rng = np.random.default_rng(3)
        p, q = ((rng.uniform(-5, 5, 40), rng.uniform(0.1, 4, 40) * rng.choice([-1, 1], 40))
                for _ in range(2))
        for law, args in ((_product, (p, q)), (_inverse, (p,)), (_pullback, (p, q))):
            arrays = law(kind, *args)
            for n in range(40):
                scalars = law(kind, *(tuple(float(c[n]) for c in arg) for arg in args))
                assert (float(arrays[0][n]), float(arrays[1][n])) == scalars


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
        G = left_translate_field(F, AffinePoint(*_IDENTITY["affine"]))
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


def _reference_apply_spectra(F, spectra):
    """``F * G`` by one FFT of F's row per block and input branch, the row times the Haar
    weight ``db du / a_j`` after its FFT, and one inverse FFT per branch a plane joins."""
    quad = F.quad
    n_b = quad.n_b
    L = _fft_len(quad)
    scales = np.exp(quad.u_grid())
    out = np.zeros(quad.shape, dtype=np.complex128)
    acc = np.empty((2, quad.n_scales, L), dtype=np.complex128)
    rows_hat = np.empty((2, L), dtype=np.complex128)
    buf = np.empty((quad.n_scales, L), dtype=np.complex128)
    for p, blocks in itertools.groupby(spectra, key=lambda block: block[0]):
        sigma = quad.signs[p]
        routes = [(quad.signs.index(s), quad.signs.index(sigma * s), s < 0)
                  for s in quad.signs if sigma * s in quad.signs]
        n = len(routes)
        acc[:n] = 0
        x = rows_hat[:n]
        for _, j, rows, spec in blocks:
            x[:, n_b:] = 0
            for k, (si, _, flipped) in enumerate(routes):
                x[k, :n_b] = F.values[si, j, ::-1] if flipped else F.values[si, j]
            np.fft.fft(x, axis=-1, out=x)
            x *= quad.db * quad.du / scales[j]
            for k in range(n):
                acc[k, rows] += np.multiply(spec, x[k], out=buf[: len(spec)])
        for k, (_, so, flipped) in enumerate(routes):
            np.fft.ifft(acc[k], axis=-1, out=acc[k])
            window = acc[k, :, n_b - 1 : 2 * n_b - 1]
            out[so] += window[:, ::-1] if flipped else window
    return out


class TestBilinearGrid:
    @_PROPERTY
    @given(_AFFINE_CHART, st.integers(0, 2**32 - 1))
    def test_apply_spectra_matches_per_route_reference(self, quad, seed):
        # F's rows transformed once per apply, against once per block and branch: the
        # same products summed in the same order, so the same bits, stored or streamed
        F = cb.GroupField(quad, _random_values(quad.shape, seed))
        G = cb.GroupField(quad, _random_values(quad.shape, seed + 1))
        ref = _reference_apply_spectra(F, _kernel_spectra(G)).view(np.int64)
        stored = list(_kernel_spectra(G))
        for spectra in (stored, stored, _kernel_spectra(G)):
            assert np.array_equal(_apply_spectra(F, spectra).view(np.int64), ref)

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
        for (p, j, _, cols, block), (*_, fu, _) in zip(
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

        for stage in ("atom_kernel", "_voice_operator", "random_bandlimited_signal",
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


_STEP = "t_hi must exceed t_lo by a finite positive step"


class TestOneNumberRule:
    """A non-finite, fractional or too small scalar, or an unknown weight family, raises one
    ``ValueError`` naming it."""

    _ENTRIES = {
        "translate": lambda v: cb.translate(_PSI, v),
        "dilate": lambda v: cb.dilate(_PSI, v),
        "modulate": lambda v: cb.modulate(_PSI, v),
        "vanishing_moment_count": lambda v: cb.vanishing_moment_count(_PSI, v),
        "moments": lambda v: cb.moments(_PSI, v),
        "wavelet_atom_sufficient/rho": lambda v: cb.wavelet_atom_sufficient(_PSI, v),
        "wavelet_atom_sufficient/tol": lambda v: cb.wavelet_atom_sufficient(_PSI, 1.0, v),
        "stft_window_sufficient/r": lambda v: cb.stft_window_sufficient(_PSI, v, 0.0),
        "stft_window_sufficient/s": lambda v: cb.stft_window_sufficient(_PSI, 0.0, v),
        "symmetric_power": cb.symmetric_power,
        "poly_tf/r": lambda v: cb.poly_tf(v, 0.0),
        "poly_tf/s": lambda v: cb.poly_tf(0.0, v),
        "power_scale": cb.power_scale,
        "WeightSpec/family": cb.WeightSpec,
        "WeightSpec/rho": lambda v: cb.WeightSpec("symmetric_power", rho=v),
        "WeightSpec/s": lambda v: cb.WeightSpec("power_scale", s=v),
        # counts: each read as an integer, then held to its lower bound
        "frame_operator_invert": lambda v: cb.frame_operator_invert(
            _PSI, _PSI, _TF_LAT, (1.0, 1.0), max_iter=v),
        "neumann_reconstruct": lambda v: cb.neumann_reconstruct(None, None, None, max_iter=v),
        "frame_bounds_empirical": lambda v: cb.frame_bounds_empirical(
            _PSI, _AFF_LAT, ensemble=v, quad=_AFF_QUAD),
        "gabor_tightness_probe": lambda v: cb.gabor_tightness_probe(_PSI, _TF_LAT, ensemble=v),
        "submultiplicativity_probe": lambda v: cb.submultiplicativity_probe(
            cb.symmetric_power(1.0), samples=v),
        "moderateness_probe": lambda v: cb.moderateness_probe(
            cb.power_scale(1.0), cb.symmetric_power(2.0), samples=v),
        "design_lattice": lambda v: cb.design_lattice(
            _PSI, _AFF_QUAD, cb.power_scale(0.0), max_steps=v),
        "covering_quadrature": lambda v: covering_quadrature(_AFF_LAT, _AFF_U, v),
        "NeighborhoodSpec": lambda v: NeighborhoodSpec.from_dict({**_AFF_U.to_dict(),
                                                                  "n_samples": v}),
        "derivative": lambda v: cb.derivative(_PSI, v),
        "gaussian": lambda v: cb.gaussian(n=v),
        "mexican_hat": lambda v: cb.mexican_hat(n=v),
        "haar_wavelet": lambda v: cb.haar_wavelet(n=v),
        "signal_from_spectrum_profile": lambda v: cb.signal_from_spectrum_profile(
            lambda w: np.exp(-np.pi * w * w), n=v),
        # the bounds of a signal's grid: finite numbers a finite positive step apart
        "gaussian/t_lo": lambda v: cb.gaussian(v, 16, 64),
        "gaussian/t_hi": lambda v: cb.gaussian(16, v, 64),
        "gaussian/span": lambda v: cb.gaussian(-v, v, 64),
        "mexican_hat/t_hi": lambda v: cb.mexican_hat(0, v, 64),
        "haar_wavelet/t_lo": lambda v: cb.haar_wavelet(v, 2, 64),
        "signal_from_spectrum_profile/t_lo": lambda v: cb.signal_from_spectrum_profile(
            lambda w: np.exp(-np.pi * w * w), v, 32, 64),
        "besov_exponent/s": lambda v: cb.besov_exponent(2, v),
        "build_affine_quadrature": lambda v: build_affine_quadrature(-2, 2, v, 0.5, 2.0, 5),
        "build_tf_quadrature": lambda v: cb.build_tf_quadrature(-2.0, 0.25, v, -2.0, 0.25, 16),
        # scalars read by the library itself, not only by the CLI
        "frame_operator_invert/tol": lambda v: cb.frame_operator_invert(
            _PSI, _PSI, _TF_LAT, (1.0, 1.0), tol=v),
        "frame_operator_invert/bounds": lambda v: cb.frame_operator_invert(
            _PSI, _PSI, _TF_LAT, (v, 1.0)),
        "frame_bounds_empirical/p": lambda v: cb.frame_bounds_empirical(
            _PSI, _AFF_LAT, p=v, quad=_AFF_QUAD),
        "lpm_norm": lambda v: cb.lpm_norm(_AFF_FIELD, v),
        "design_lattice/gamma": lambda v: cb.design_lattice(
            _PSI, _AFF_QUAD, cb.power_scale(0.0), gamma=v),
        "design_lattice/alpha0": lambda v: cb.design_lattice(
            _PSI, _AFF_QUAD, cb.power_scale(0.0), alpha0=v),
        "frame_bounds_empirical/band": lambda v: cb.frame_bounds_empirical(
            _PSI, _AFF_LAT, quad=_AFF_QUAD, band=(v, 1.0)),
        "frame_bounds_empirical/envelope_width": lambda v: cb.frame_bounds_empirical(
            _PSI, _AFF_LAT, quad=_AFF_QUAD, envelope_width=v),
        "frame_bounds_empirical/band[1]": lambda v: cb.frame_bounds_empirical(
            _PSI, _AFF_LAT, quad=_AFF_QUAD, band=(0.1, v)),
        "gabor_tightness_probe/envelope_width": lambda v: cb.gabor_tightness_probe(
            _PSI, _TF_LAT, envelope_width=v),
        "AffinePoint/b": lambda v: AffinePoint(v, 1.0),
        "AffinePoint/a": lambda v: AffinePoint(0.0, v),
        "left_translate_field/tf": lambda v: left_translate_field(_TF_FIELD, (v, 0.0)),
        "TFLattice.separable": lambda v: cb.TFLattice.separable(v, 0.5, (-4, 4), (-4, 4)),
        # seeds: read as counts, before any draw
        "frame_bounds_empirical/seed": lambda v: cb.frame_bounds_empirical(
            _PSI, _AFF_LAT, seed=v, quad=_AFF_QUAD),
        "gabor_tightness_probe/seed": lambda v: cb.gabor_tightness_probe(_PSI, _TF_LAT, seed=v),
        "submultiplicativity_probe/seed": lambda v: cb.submultiplicativity_probe(
            cb.symmetric_power(1.0), seed=v),
        "moderateness_probe/seed": lambda v: cb.moderateness_probe(
            cb.power_scale(1.0), cb.symmetric_power(2.0), seed=v),
        "young_check": lambda v: cb.young_check(_AFF_FIELD, _AFF_FIELD, 2.0, cb.power_scale(1.0),
                                                cb.symmetric_power(2.0), slack=v),
    }

    @pytest.mark.parametrize("entry, value, message", [
        ("translate", np.inf, "x must be finite, got inf"),
        ("translate", np.nan, "x must be finite, got nan"),
        ("dilate", np.nan, "a must be finite, got nan"),
        ("modulate", np.inf, "omega must be finite, got inf"),
        ("vanishing_moment_count", np.nan, "tol must be finite, got nan"),
        ("moments", 2.5, "k_max must be an integer, got 2.5"),
        ("wavelet_atom_sufficient/rho", np.nan, "rho must be finite, got nan"),
        ("wavelet_atom_sufficient/tol", -np.inf, "tol must be finite, got -inf"),
        ("stft_window_sufficient/r", np.nan, "r must be finite, got nan"),
        ("stft_window_sufficient/s", np.inf, "s must be finite, got inf"),
        ("symmetric_power", np.nan, "rho must be finite, got nan"),
        ("poly_tf/r", np.nan, "r must be finite, got nan"),
        ("poly_tf/s", -np.inf, "s must be finite, got -inf"),
        ("power_scale", np.inf, "s must be finite, got inf"),
        ("WeightSpec/family", "bogus", "unknown weight family 'bogus'"),
        ("WeightSpec/rho", np.nan, "rho must be finite, got nan"),
        ("WeightSpec/s", np.inf, "s must be finite, got inf"),
        ("frame_operator_invert", 2.5, "max_iter must be an integer, got 2.5"),
        ("neumann_reconstruct", 2.5, "max_iter must be an integer, got 2.5"),
        ("frame_bounds_empirical", True, "ensemble must be a number, got True"),
        ("frame_bounds_empirical", 2.5, "ensemble must be an integer, got 2.5"),
        ("gabor_tightness_probe", 2.5, "ensemble must be an integer, got 2.5"),
        ("submultiplicativity_probe", 2.5, "samples must be an integer, got 2.5"),
        ("moderateness_probe", 2.5, "samples must be an integer, got 2.5"),
        ("design_lattice", 2.5, "max_steps must be an integer, got 2.5"),
        ("covering_quadrature", 0, "cells_per_tile must be >= 1, got 0"),
        ("covering_quadrature", -3, "cells_per_tile must be >= 1, got -3"),
        ("covering_quadrature", 2.5, "cells_per_tile must be an integer, got 2.5"),
        ("NeighborhoodSpec", 7.5, "n_samples must be an integer, got 7.5"),
        ("frame_operator_invert/tol", "a", "tol must be a number, got 'a'"),
        # every residual meets an infinite tol: one step would report convergence
        ("frame_operator_invert/tol", np.inf, "tol must be finite, got inf"),
        ("frame_operator_invert/bounds", "a", "bounds[0] must be a number, got 'a'"),
        ("frame_bounds_empirical/p", "2", "p must be a number, got '2'"),
        ("lpm_norm", "2", "p must be a number, got '2'"),
        ("lpm_norm", True, "p must be a number, got True"),
        ("design_lattice/gamma", "0.5", "gamma must be a number, got '0.5'"),
        ("design_lattice/alpha0", None, "alpha0 must be a number, got None"),
        ("frame_bounds_empirical/band", "a", "band[0] must be a number, got 'a'"),
        ("frame_bounds_empirical/envelope_width", "2", "envelope_width must be a number, got '2'"),
        # an infinite band edge or envelope gives draws that do not decay in the window
        ("frame_bounds_empirical/band[1]", np.inf, "band[1] must be finite, got inf"),
        ("frame_bounds_empirical/envelope_width", np.inf, "envelope_width must be finite, got inf"),
        ("gabor_tightness_probe/envelope_width", np.inf, "envelope_width must be finite, got inf"),
        # a NaN translation would read as an all-zero field of coverage 0
        ("AffinePoint/b", np.nan, "b must be finite, got nan"),
        ("AffinePoint/a", np.nan, "a must be finite, got nan"),
        ("left_translate_field/tf", np.nan, "y[0] must be finite, got nan"),
        ("TFLattice.separable", "a", "a_x must be a number, got 'a'"),
        ("TFLattice.separable", True, "a_x must be a number, got True"),
        # counts the library reads, each held to its lower bound by one rule
        ("derivative", 1.5, "order must be an integer, got 1.5"),
        ("derivative", True, "order must be a number, got True"),
        ("derivative", "2", "order must be a number, got '2'"),
        ("derivative", 0, "order must be >= 1, got 0"),
        *[(entry, value, message)
          for entry in ("gaussian", "mexican_hat", "haar_wavelet", "signal_from_spectrum_profile")
          for value, message in ((2.5, "n must be an integer, got 2.5"),
                                 (1, "n must be >= 2, got 1"))],
        ("gaussian/t_lo", "a", "t_lo must be a number, got 'a'"),
        ("gaussian/t_hi", np.nan, "t_hi must be finite, got nan"),
        ("gaussian/t_hi", True, "t_hi must be a number, got True"),
        ("gaussian/t_hi", -16, f"{_STEP}, got t_lo=16, t_hi=-16, n=64"),
        ("gaussian/t_hi", 16, f"{_STEP}, got t_lo=16, t_hi=16, n=64"),
        # a span that overflows, and a step that underflows to zero
        ("gaussian/span", 1e308, f"{_STEP}, got t_lo=-1e+308, t_hi=1e+308, n=64"),
        ("gaussian/span", 5e-324, f"{_STEP}, got t_lo=-5e-324, t_hi=5e-324, n=64"),
        ("mexican_hat/t_hi", np.inf, "t_hi must be finite, got inf"),
        ("haar_wavelet/t_lo", None, "t_lo must be a number, got None"),
        ("signal_from_spectrum_profile/t_lo", -np.inf, "t_lo must be finite, got -inf"),
        ("signal_from_spectrum_profile/t_lo", 32, f"{_STEP}, got t_lo=32, t_hi=32, n=64"),
        ("besov_exponent/s", np.nan, "s must be finite, got nan"),
        ("besov_exponent/s", np.inf, "s must be finite, got inf"),
        ("besov_exponent/s", True, "s must be a number, got True"),
        ("besov_exponent/s", "a", "s must be a number, got 'a'"),
        ("build_affine_quadrature", 1, "n_b must be >= 2, got 1"),
        ("build_tf_quadrature", 0, "n_x must be >= 1, got 0"),
        *[(f"{entry}/seed", value, message)
          for entry in ("frame_bounds_empirical", "gabor_tightness_probe",
                        "submultiplicativity_probe", "moderateness_probe")
          for value, message in ((2.5, "seed must be an integer, got 2.5"),
                                 (True, "seed must be a number, got True"),
                                 (-1, "seed must be >= 0, got -1"))],
        # an infinite slack passes every inequality whatever the norms, a negative one none
        ("young_check", np.inf, "slack must be finite, got inf"),
        ("young_check", np.nan, "slack must be finite, got nan"),
        ("young_check", True, "slack must be a number, got True"),
        ("young_check", "a", "slack must be a number, got 'a'"),
        ("young_check", None, "slack must be a number, got None"),
        ("young_check", -0.1, "slack must be >= 0, got -0.1"),
    ])
    def test_refused_naming_the_parameter(self, entry, value, message):
        with pytest.raises(ValueError) as exc:
            self._ENTRIES[entry](value)
        assert str(exc.value) == message

    def test_count_with_no_fractional_part_reads_as_an_int(self):
        U = NeighborhoodSpec.from_dict({**_AFF_U.to_dict(), "n_samples": 7.0})
        assert U.n_samples == 7 and type(U.n_samples) is int

    def test_seed_with_no_fractional_part_draws_as_the_int(self):
        ratios = [cb.frame_bounds_empirical(_PSI, _AFF_LAT, ensemble=2, seed=seed,
                                            quad=_AFF_QUAD).ratios for seed in (2, 2.0)]
        assert ratios[0] == ratios[1]


# every reader, with the name its refusal gives; a "/tf" entry is the reader's other kind
_READERS = {
    "quadrature": _AFF_QUAD, "quadrature/tf": _TF_QUAD,
    "neighbourhood": _AFF_U, "neighbourhood/tf": _TF_U,
    "weight": cb.symmetric_power(1.0), "weight/tf": cb.poly_tf(1.0, 2.0),
    "lattice": _AFF_LAT, "lattice/tf": _TF_LAT,
    "signal": _PSI, "field": _AFF_FIELD,
}


# the keys a reader fills in when they are absent
_OPTIONAL_KEYS = {"neighbourhood": ("n_samples",), "lattice": ("type", "signs")}


class TestOneReaderRule:
    """Every ``from_dict`` reads its own ``to_dict()`` and refuses a key it never reads."""

    @pytest.mark.parametrize("name", sorted(_READERS))
    def test_own_dict_read_and_unknown_key_named(self, name):
        obj = _READERS[name]
        d = obj.to_dict()
        assert type(obj).from_dict(d).to_dict() == d
        with pytest.raises(ValueError) as exc:
            type(obj).from_dict({**d, "extra": 1})
        assert str(exc.value) == f"unknown {name.split('/')[0]} keys: ['extra']"

    @pytest.mark.parametrize("name, key", [
        (name, key) for name in sorted(_READERS) for key in _READERS[name].to_dict()
        if key not in _OPTIONAL_KEYS.get(name.split("/")[0], ())])
    def test_missing_key_named(self, name, key):
        obj = _READERS[name]
        d = obj.to_dict()
        del d[key]
        with pytest.raises(ValueError) as exc:
            type(obj).from_dict(d)
        assert str(exc.value) == f"missing {name.split('/')[0]} keys: ['{key}']"
