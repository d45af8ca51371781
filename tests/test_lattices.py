import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import coorbit as cb
from coorbit.fields import affine_box, tf_box
from coorbit.groups import GroupField, build_affine_quadrature, build_tf_quadrature
from coorbit.lattices import (
    _COVERING_MAX_NODES,
    _TIE_EPS,
    AffineLattice,
    TFLattice,
    _cover_pairs,
    _pair_sum,
    _tile_average,
    build_bupu,
    bupu_synthesize,
    cover_counts,
    cover_sum,
    covering_quadrature,
    default_density_probe,
    is_relatively_separated,
    is_U_dense,
    norm_equivalence_check,
    sample_field,
    seq_lpm_norm,
)



def _index_tags(lat) -> list:
    """Index tags in canonical order by nested loops: the oracle for ``point_arrays``' order."""
    if lat.kind == "affine":
        return [(j, k, eps) for eps in lat.signs for j in range(lat.j_min, lat.j_max + 1)
                for k in range(lat.k_min, lat.k_max + 1)]
    return [(n1, n2) for n1 in range(lat.n1_min, lat.n1_max + 1)
            for n2 in range(lat.n2_min, lat.n2_max + 1)]


def _points_by_tag(lat) -> dict:
    """Each index tag's point, read off ``point_arrays``."""
    return dict(zip(_index_tags(lat), zip(*lat.point_arrays())))


@pytest.fixture(scope="module")
def lat12():
    return AffineLattice(2.0, 1.0, -3, 3, -8, 8, (1, -1))


@pytest.fixture(scope="module")
def quad12(lat12):
    return covering_quadrature(lat12, affine_box(1.0, 2.0), cells_per_tile=6)


class TestLatticePoints:
    def test_affine_point_formula(self):
        lat = AffineLattice(2.0, 1.0, -2, 2, -4, 4, (1, -1))
        lookup = _points_by_tag(lat)
        assert lookup[(1, 3, 1)] == (6.0, 2.0)
        assert lookup[(0, 0, 1)] == (0.0, 1.0)
        assert lookup[(-1, 1, -1)] == (-0.5, -0.5)

    @pytest.mark.parametrize("lat", [
        AffineLattice(2.0, 1.0, -2, 2, -4, 4, (1, -1)),
        AffineLattice(1.3, 0.4, -7, 9, -5, 6, (-1,)),
        # the designed s0 lattice of the reconstruct workload: 3,959,902 points
        AffineLattice(1 + 0.7**15, 0.7**15, -293, 293, -1686, 1686, (1, -1)),
    ])
    def test_affine_points_equal_one_power_per_point(self, lat):
        # one power per scale row, indexed, against the formula evaluated
        # at every point as a float power, for the whole lattice and subsets
        def per_point(flat):
            eps_idx, rest = np.divmod(flat, lat.n_j * lat.n_k)
            j, k = np.divmod(rest, lat.n_k)
            eps = np.asarray(lat.signs, dtype=float)[eps_idx]
            a = eps * lat.alpha ** (j + lat.j_min).astype(float)
            return a * lat.beta * (k + lat.k_min).astype(float), a

        rng = np.random.default_rng(2)
        for flat in (None, rng.integers(0, lat.n_points, 1000), np.array([lat.n_points - 1, 0]),
                     np.zeros(0, dtype=np.int64)):
            ref = per_point(np.arange(lat.n_points) if flat is None else flat)
            for got, want in zip(lat.point_arrays(flat), ref):
                assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("lat", [
        TFLattice(np.array([[0.5, 0.1], [0.0, 0.4]]), 1.0, -12, 12, -12, 12),
        TFLattice(np.array([[0.37, 0.11], [-0.13, 0.91]]), 0.73, -40, 40, -40, 40),
    ])
    def test_tf_points_are_the_elementwise_formula(self, lat):
        # c (A00 n1 + A01 n2), c (A10 n1 + A11 n2) per point, bit for bit: a
        # matrix product, or c A formed first, rounds differently on such lattices
        tags = np.array(_index_tags(lat), dtype=float)
        (g00, g01), (g10, g11) = lat.generator
        want = [lat.scale * (g00 * tags[:, 0] + g01 * tags[:, 1]),
                lat.scale * (g10 * tags[:, 0] + g11 * tags[:, 1])]
        flat = np.random.default_rng(3).integers(0, lat.n_points, 200)
        for got, ref in zip(lat.point_arrays(), want):
            assert np.array_equal(got.view(np.int64), ref.view(np.int64))
        for got, ref in zip(lat.point_arrays(flat), want):
            assert np.array_equal(got.view(np.int64), ref[flat].view(np.int64))

    def test_count(self):
        lat = AffineLattice(2.0, 1.0, -2, 2, -4, 4, (1, -1))
        assert lat.n_points == 5 * 9 * 2

    @pytest.mark.parametrize("make, args", [
        (TFLattice, (np.eye(2), 1.0, 0, 2.5, 0, 1)),
        (TFLattice, (np.eye(2), 1.0, 0, 2, True, 1)),
        (AffineLattice, (2.0, 1.0, 0.5, 2, -1, 1)),
        (AffineLattice, (2.0, 1.0, True, 2, -1, 1)),
    ])
    def test_index_bounds_must_be_integers(self, make, args):
        # a fraction once built a TF point past n1_max and a non-integer
        # point count; the affine one failed later, inside point_arrays
        with pytest.raises(ValueError, match="must be an integer|must be a number"):
            make(*args)

    def test_integral_bounds_are_stored_as_ints(self):
        lat = AffineLattice(2.0, 1.0, np.int64(-1), 1.0, -2.0, 2, (1, -1))
        assert [type(v) for v in (lat.j_min, lat.j_max, lat.k_min, lat.k_max)] == [int] * 4
        assert lat.n_points == 2 * 3 * 5

    def test_tf_generator_is_owned_and_read_only(self):
        A = 0.5 * np.eye(2)
        lat = TFLattice(A, 1.0, -2, 2, -2, 2)
        before = lat.to_dict()
        A[0, 0] = 3.0  # the caller's array is not the lattice's
        assert lat.to_dict() == before
        with pytest.raises(ValueError, match="read-only"):
            lat.generator[1, 1] = 7.0
        assert lat.to_dict() == before

    def test_tf_separable(self):
        lat = TFLattice.separable(0.5, 0.25, (-2, 2), (-4, 4))
        lookup = _points_by_tag(lat)
        assert lookup[(1, -2)] == (0.5, -0.5)

    def test_invalid(self):
        with pytest.raises(ValueError):
            AffineLattice(0.9, 1.0, 0, 1, 0, 1)
        with pytest.raises(ValueError):
            TFLattice(np.zeros((2, 2)))

    @pytest.mark.parametrize("signs", [(1, 1), (-1, -1), (1, -1, 1)])
    def test_duplicate_sign_branch_rejected(self, signs):
        # a repeated branch would enumerate every point of it twice
        with pytest.raises(ValueError, match="duplicate sign branch"):
            AffineLattice(2.0, 1.0, -2, 2, -4, 4, signs)


class TestDensity:
    def test_matching_rectangle_dense(self, lat12, quad12):
        probe = default_density_probe(quad12, lat12, affine_box(1.0, 2.0))
        assert is_U_dense(lat12, affine_box(1.0, 2.0), probe).covered

    @pytest.mark.parametrize("alpha,beta", [(1.5, 0.7), (3.0, 2.0)])
    def test_lattice_well_spread_general(self, alpha, beta):
        # the matching rectangle always tiles, whatever the parameters
        lat = AffineLattice(alpha, beta, -2, 2, -6, 6, (1, -1))
        U = affine_box(beta, alpha)
        quad = covering_quadrature(lat, U, cells_per_tile=5)
        probe = default_density_probe(quad, lat, U)
        assert is_U_dense(lat, U, probe).covered
        assert is_relatively_separated(lat, U) <= 18

    def test_scale_gap_witness(self):
        lat = AffineLattice(4.0, 2.0, -2, 2, -8, 8, (1, -1))
        quad = covering_quadrature(lat, affine_box(2.0, 4.0), cells_per_tile=6)
        probe = default_density_probe(quad, lat, affine_box(2.0, 4.0))
        report = is_U_dense(lat, affine_box(1.0, 2.0), probe)
        assert not report.covered
        assert report.witness is not None
        a = abs(report.witness[1])
        # scale gaps of the A_{1,2}-tiles of Lambda(2,4):
        # ratio to the nearest 4^j lies in (sqrt 2, 4/sqrt 2)
        r = a / 4 ** math.floor(math.log(a, 4))
        assert math.sqrt(2) < r < 4 / math.sqrt(2)

    def test_single_point_not_dense(self):
        lat = AffineLattice(2.0, 1.0, 0, 0, 0, 0, (1,))
        report = is_U_dense(lat, affine_box(0.1, 1.01), (np.array([3.0]), np.array([1.0])))
        assert not report.covered

    def test_monotone_in_U(self, lat12, quad12):
        # growing U never flips covered -> uncovered
        probe = default_density_probe(quad12, lat12, affine_box(1.0, 2.0))
        small = is_U_dense(lat12, affine_box(1.0, 2.0), probe).covered
        grown = is_U_dense(lat12, affine_box(1.5, 2.5), probe).covered
        assert small and grown


def _pairwise_separation(lat, K):
    """Every pair of lattice points through the overlap test, in chunks: the oracle."""
    b, a = lat.point_arrays()
    n = b.size
    max_count = 0
    chunk = max(1, int(2e7) // max(n, 1))
    for lo in range(0, n, chunk):
        bi, ai = b[lo:lo + chunk, None], a[lo:lo + chunk, None]
        if lat.kind == "affine":
            atil = ai / a[None, :]
            ok = (
                (atil > 0)
                & (atil >= 1.0 / K.alpha - _TIE_EPS)
                & (atil <= K.alpha + _TIE_EPS)
                & (np.abs((bi - b[None, :]) / a[None, :]) <= (1.0 + atil) * K.beta / 2 + _TIE_EPS)
            )
        else:
            ok = ((np.abs(bi - b[None, :]) <= K.beta_x + _TIE_EPS)
                  & (np.abs(ai - a[None, :]) <= K.beta_w + _TIE_EPS))
        max_count = max(max_count, int(np.max(np.sum(ok, axis=1))))
    return max_count


_SEPARATION = settings(max_examples=60, deadline=None, derandomize=True)


class TestSeparation:
    def test_lambda12_counts(self, lat12):
        count = is_relatively_separated(lat12, affine_box(1.0, 2.0))
        # overlap bound from the lattice geometry: 2(2N+1)(2M+1) with N=M=1
        assert count <= 18

    def test_near_coincident_points_counted_per_index(self):
        # the concrete lattice types cannot host literal duplicates (the
        # index-to-point map is injective), so the per-index counting is
        # exercised on neighbours packed tighter than the overlap set:
        # every index keeps its own count contribution
        lat = AffineLattice(2.0, 0.01, 0, 0, -1, 1, (1,))
        assert is_relatively_separated(lat, affine_box(0.5, 1.5)) >= 2

    def test_gabor_lattice_separated_any_scale(self):
        for c in (0.25, 0.5, 1.0, 2.0):
            lat = TFLattice(np.eye(2), c, -8, 8, -8, 8)
            count = is_relatively_separated(lat, tf_box(0.5, 0.5))
            assert count <= (math.ceil(1.0 / c) * 2 + 1) ** 2

    @_SEPARATION
    @given(st.floats(1 + 1e-7, 3.0), st.floats(1e-6, 2.0), st.integers(-3, 0), st.integers(0, 3),
           st.integers(-8, 0), st.integers(0, 8), st.sampled_from([(1,), (-1,), (1, -1)]),
           st.one_of(st.just(None), st.tuples(st.floats(0.2, 6.0), st.floats(0.2, 6.0))))
    def test_affine_matches_pairwise_scan(self, alpha, beta, j_min, j_max, k_min, k_max, signs,
                                          grow):
        # grow None: K is the lattice's own box, so neighbours touch and the slack decides
        lat = AffineLattice(alpha, beta, j_min, j_max, k_min, k_max, signs)
        K = affine_box(beta, alpha) if grow is None else affine_box(beta * grow[0],
                                                                    alpha ** grow[1])
        assert is_relatively_separated(lat, K) == _pairwise_separation(lat, K)

    @_SEPARATION
    @given(st.floats(0.3, 1.5), st.floats(0.3, 1.5), st.floats(-0.6, 0.6), st.floats(-0.6, 0.6),
           st.booleans(), st.floats(0.2, 2.0), st.integers(-5, 0), st.integers(0, 5),
           st.one_of(st.just(None), st.tuples(st.floats(0.1, 4.0), st.floats(0.1, 4.0))))
    def test_tf_matches_pairwise_scan(self, g00, g11, g01, g10, diagonal, scale, n_min, n_max,
                                      sides):
        # sides None: K is the box of one lattice step per axis (diagonal: neighbours touch)
        off = 0.0 if diagonal else 1.0
        gen = np.array([[g00, off * g01], [off * g10, g11]])
        assume(abs(np.linalg.det(gen)) > 0.05)
        lat = TFLattice(gen, scale, n_min, n_max, -n_max, -n_min)
        K = tf_box(scale * g00, scale * g11) if sides is None else tf_box(*sides)
        assert is_relatively_separated(lat, K) == _pairwise_separation(lat, K)

    @pytest.mark.parametrize("K", [
        affine_box(1e6, 1e10), affine_box(1e300, 1e300), affine_box(1.0, 1e9),
        affine_box(1e-300, 1 + 1e-15), tf_box(1e308, 1e308), tf_box(0.4, 1.7e308),
    ], ids=["alpha-past-1/eps", "huge", "alpha-1/eps", "tiny", "tf-huge", "tf-huge-w"])
    def test_box_finite_for_any_K(self, lat12, K):
        # 1/alpha_K - eps <= 0 leaves the scale ratio bounded only by the window's own
        # span, and a TF side past half the largest float cannot be doubled
        lat = lat12 if K.kind == "affine" else TFLattice([[1, 0.2], [0.1, 1]], 0.5, -5, 5, -4, 6)
        assert is_relatively_separated(lat, K) == _pairwise_separation(lat, K)

    def test_cost_follows_the_pairs(self):
        # 49,282 points: the pairwise scan compares 2.4e9 pairs, the cover about 9 per point
        lat = AffineLattice(1.1, 0.1, -20, 20, -300, 300, (1, -1))
        start = time.process_time()
        count = is_relatively_separated(lat, affine_box(0.1, 1.1))
        assert time.process_time() - start < 1.0
        assert count == 8

    def test_memory_bounded_when_K_spans_the_window(self):
        # every point meets half the window's tiles: 4,494 points, 10 M candidate
        # pairs; holding them all at once peaked at 540 MiB traced
        lat = AffineLattice(2.0, 1.0, -3, 3, -160, 160, (1, -1))
        tracemalloc.start()
        try:
            count = is_relatively_separated(lat, affine_box(1e3, 1e3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == 2247
        assert peak < 100 * 2**20


class TestSampling:
    def test_constant_field(self, lat12, quad12):
        F = GroupField(quad12, np.ones(quad12.shape))
        seq = sample_field(F, lat12)
        in_chart = seq.values[seq.in_chart]
        assert np.allclose(in_chart, 1.0)
        assert seq.coverage > 0.5

    def test_kernel_peak_sample(self):
        psi = cb.normalize_admissible(cb.mexican_hat(-16, 16, 1024))
        quad = build_affine_quadrature(-16, 16, 1024, 1 / 4, 4, 49, (1, -1))
        K = cb.cwt(psi, psi, quad)
        lat = AffineLattice(2.0, 1.0, -1, 1, -4, 4, (1, -1))
        seq = sample_field(K, lat)
        tags = _index_tags(lat)
        idx = tags.index((0, 0, 1))
        assert seq.values[idx].real == pytest.approx(cb.l2_norm(psi) ** 2, rel=1e-6)

    def test_seq_norms(self, lat12):
        c = np.zeros(lat12.n_points)
        assert seq_lpm_norm(c, 2.0, None, lat12) == 0.0
        c = np.ones(lat12.n_points)
        m = cb.power_scale(1.0)
        # discretized weight: m_s at (j,k,eps) equals alpha^{-js}
        tags = _index_tags(lat12)
        expected = np.sqrt(sum(2.0 ** (-2 * j) for j, k, e in tags))
        assert seq_lpm_norm(c, 2.0, m, lat12) == pytest.approx(expected, rel=1e-12)
        assert seq_lpm_norm(3 * c, 2.0, m, lat12) == pytest.approx(
            3 * seq_lpm_norm(c, 2.0, m, lat12), rel=1e-12
        )

    def test_non_vector_coefficients_refused(self, lat12, quad12):
        # a column of n ones broadcast against the n weights to n x n and
        # read n instead of sqrt(n); synthesis raised numpy's own error
        ones = np.ones(lat12.n_points)
        assert seq_lpm_norm(ones, 2.0, None, lat12) == pytest.approx(math.sqrt(ones.size))
        bupu = build_bupu(lat12, affine_box(1.0, 2.0), quad12)
        for bad in (ones[:, None], ones[None, :], np.float64(1.0)):
            with pytest.raises(ValueError, match="1-D"):
                seq_lpm_norm(bad, 2.0, None, lat12)
            with pytest.raises(ValueError, match="1-D"):
                bupu_synthesize(bad, bupu)

    def test_sequence_from_another_lattice_refused(self):
        # two windows of 350 points each: equal lengths, different points
        lat = AffineLattice(1.3, 0.4, -3, 3, -12, 12, (1, -1))
        other = AffineLattice(1.5, 0.3, -3, 3, -12, 12, (1, -1))
        assert lat.n_points == other.n_points == 350
        quad = build_affine_quadrature(-2, 2, 64, 0.5, 2, 9, (1, -1))
        bupu = build_bupu(lat, affine_box(0.4, 1.3), quad)
        F = GroupField(quad, np.ones(quad.shape))
        foreign = sample_field(F, other)
        with pytest.raises(ValueError, match="another lattice"):
            bupu_synthesize(foreign, bupu)
        with pytest.raises(ValueError, match="another lattice"):
            seq_lpm_norm(foreign, 2.0, None, lat)
        # an equal lattice built apart is the same lattice
        own = sample_field(F, AffineLattice(1.3, 0.4, -3, 3, -12, 12, (1, -1)))
        assert seq_lpm_norm(own, 2.0, None, lat) == seq_lpm_norm(own.values, 2.0, None, lat)
        assert np.array_equal(bupu_synthesize(own, bupu).values,
                              bupu_synthesize(own.values, bupu).values)
        # the same on the TF plane: two windows of 121 points each
        tlat = TFLattice.separable(0.5, 0.5, (-5, 5), (-5, 5))
        tother = TFLattice.separable(0.6, 0.4, (-5, 5), (-5, 5))
        assert tlat.n_points == tother.n_points == 121
        tquad = build_tf_quadrature(-2, 0.125, 33, -2, 0.125, 33)
        tbupu = build_bupu(tlat, tf_box(0.5, 0.5), tquad)
        G = GroupField(tquad, np.ones(tquad.shape))
        foreign = sample_field(G, tother)
        with pytest.raises(ValueError, match="another lattice"):
            bupu_synthesize(foreign, tbupu)
        with pytest.raises(ValueError, match="another lattice"):
            seq_lpm_norm(foreign, 2.0, None, tlat)
        own = sample_field(G, TFLattice(np.diag([0.5, 0.5]), 1.0, -5, 5, -5, 5))
        assert seq_lpm_norm(own, 2.0, None, tlat) == seq_lpm_norm(own.values, 2.0, None, tlat)
        assert np.array_equal(bupu_synthesize(own, tbupu).values,
                              bupu_synthesize(own.values, tbupu).values)


class TestNormEquivalence:
    def test_single_coefficient(self, lat12, quad12):
        c = np.zeros(lat12.n_points)
        tags = _index_tags(lat12)
        c[tags.index((0, 0, 1))] = 1.0
        rep = norm_equivalence_check(c, 2.0, cb.power_scale(1.0), lat12,
                                     affine_box(1.0, 2.0), quad12)
        assert rep.passed
        # one tile: ratio = (weighted tile mass)^(1/2) / m(x_i)
        lo, hi = rep.window
        assert lo <= rep.ratio <= hi

    def test_seeded_ensemble(self, lat12, quad12):
        rng = np.random.default_rng(5)
        m = cb.power_scale(1.0)
        U = affine_box(1.0, 2.0)
        for _ in range(20):
            c = rng.normal(size=lat12.n_points) + 1j * rng.normal(size=lat12.n_points)
            rep = norm_equivalence_check(c, 2.0, m, lat12, U, quad12)
            assert rep.passed

    def test_zero_sequence_convention(self, lat12, quad12):
        rep = norm_equivalence_check(
            np.zeros(lat12.n_points), 2.0, None, lat12, affine_box(1.0, 2.0), quad12
        )
        assert rep.passed


class TestModerationWindow:
    """The norm-equivalence window is the closed form of each weight family's bound."""

    @staticmethod
    def _case(group):
        if group == "affine":
            lat = AffineLattice(2.0, 1.0, -3, 3, -8, 8, (1, -1))
            U = affine_box(1.0, 2.0)
            return lat, U, covering_quadrature(lat, U, cells_per_tile=4)
        lat = TFLattice.separable(0.5, 0.5, (-8, 8), (-8, 8))
        return lat, tf_box(0.5, 1.0), build_tf_quadrature(-4, 0.125, 65, -4, 0.125, 65)

    @pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
    @pytest.mark.parametrize("group, m, bound", [
        ("affine", cb.power_scale(-1.5), 2.0**0.75),  # alpha_U^(|s|/2)
        ("affine", cb.symmetric_power(1.0), 2.0**0.5),  # alpha_U^(rho/2)
        ("tf", cb.poly_tf(1.0, 2.0), 1.25 * 1.5**2),  # (1 + beta_x/2)^r (1 + beta_w/2)^s
        # a custom weight's bound is its max over U's offsets: b = 1/2; |x| = 1/4, |w| = 1/2
        ("affine", cb.custom_weight(lambda b, a: 1.0 + b**2, "affine"), 1.25),
        ("tf", cb.custom_weight(lambda x, w: 1.0 + x + w, "tf"), 1.75),
    ])
    def test_window_is_the_closed_form(self, group, m, bound, p):
        lat, U, quad = self._case(group)
        c = np.random.default_rng(7).normal(size=lat.n_points)
        rep = norm_equivalence_check(c, p, m, lat, U, quad)
        root = U.haar_mass() ** (1 / p)
        n = max(rep.max_overlap, 1)
        window = (1 / bound, n * bound) if math.isinf(p) else (
            root / bound, root * n ** (1 - 1 / p) * bound)
        assert rep.window == pytest.approx(window, rel=1e-12)
        assert rep.heuristic_window is (m.family == "custom")


def _partition_sum(bupu, c1, c2, coeffs):
    """``sum_i coeffs_i phi_i`` at arbitrary points: the cover sum averaged over its tiles."""
    return _tile_average(*cover_sum(bupu.lattice, bupu.U, c1, c2, coeffs))


class TestBUPU:
    def test_exact_tiling_partition(self, lat12, quad12):
        U = affine_box(1.0, 2.0)
        bupu = build_bupu(lat12, U, quad12)
        # partition sums to one at 1e4 random points of the claimable
        # region (the smallest in-window level covers |b| <= 2.125)
        rng = np.random.default_rng(1)
        b = rng.uniform(-2, 2, 10000)
        a = np.exp(rng.uniform(-1.5, 1.5, 10000)) * rng.choice([-1.0, 1.0], 10000)
        sums = _partition_sum(bupu, b, a, np.ones(lat12.n_points))
        assert np.max(np.abs(sums - 1.0)) <= 1e-12

    def test_tile_interior_indicator(self, lat12, quad12):
        U = affine_box(1.0, 2.0)
        bupu = build_bupu(lat12, U, quad12)
        c = np.zeros(lat12.n_points)
        tags = _index_tags(lat12)
        c[tags.index((0, 0, 1))] = 1.0
        # strict interior of the (0,0,+1) tile: phi = 1 there
        vals = _partition_sum(bupu, np.array([0.2, -0.3]), np.array([1.1, 0.9]), c)
        assert np.allclose(vals, 1.0)
        # outside: 0
        vals = _partition_sum(bupu, np.array([3.0]), np.array([1.0]), c)
        assert np.allclose(vals, 0.0)

    def test_boundary_split_evenly(self, lat12, quad12):
        U = affine_box(1.0, 2.0)
        bupu = build_bupu(lat12, U, quad12)
        c = np.zeros(lat12.n_points)
        tags = _index_tags(lat12)
        c[tags.index((0, 0, 1))] = 1.0
        # b = 1/2 sits on the shared boundary of tiles k=0 and k=1
        vals = _partition_sum(bupu, np.array([0.5]), np.array([1.0]), c)
        assert np.allclose(vals, 0.5)

    def test_local_finiteness_bound(self, lat12, quad12):
        U = affine_box(1.0, 2.0)
        c_u = is_relatively_separated(lat12, U)
        counts = cover_counts(lat12, U, *default_density_probe(quad12, lat12, U))
        assert int(np.max(counts)) <= c_u

    @pytest.mark.parametrize("lat, U, quad", [
        (AffineLattice(2.0, 1.0, -2, 2, -6, 6), affine_box(1.0, 2.0),
         build_tf_quadrature(0.5, 0.25, 8, 0.5, 0.25, 8)),
        (TFLattice.separable(0.5, 0.5, (-4, 4), (-4, 4)), tf_box(0.5, 0.5),
         build_affine_quadrature(-2, 2, 16, 0.5, 2.0, 5, (1, -1))),
    ])
    def test_chart_on_another_group_raises(self, lat, U, quad):
        # the chart's (x, w) nodes are not (b, a) points, nor the reverse
        with pytest.raises(ValueError, match="chart on"):
            build_bupu(lat, U, quad)

    def test_density_failure_raises(self):
        lat = AffineLattice(4.0, 2.0, -2, 2, -8, 8, (1, -1))
        quad = covering_quadrature(lat, affine_box(2.0, 4.0), cells_per_tile=6)
        with pytest.raises(ValueError, match="witness"):
            build_bupu(lat, affine_box(1.0, 2.0), quad)

    def test_synthesize_zero_one_hot_bounded(self, lat12, quad12):
        U = affine_box(1.0, 2.0)
        bupu = build_bupu(lat12, U, quad12)
        zero = bupu_synthesize(np.zeros(lat12.n_points), bupu)
        assert np.max(np.abs(zero.values)) == 0.0
        c = np.zeros(lat12.n_points)
        tags = _index_tags(lat12)
        c[tags.index((0, 1, 1))] = 2.0
        F = bupu_synthesize(c, bupu)
        assert np.max(np.abs(F.values)) == pytest.approx(2.0)
        # boundedness: ||sum c_i phi_i||_{L^p_m} <= C ||c||, C from the
        # norm-equivalence window
        rng = np.random.default_rng(2)
        m = cb.power_scale(1.0)
        for _ in range(20):
            c = rng.normal(size=lat12.n_points)
            F = bupu_synthesize(c, bupu)
            rep = norm_equivalence_check(c, 2.0, m, lat12, U, quad12)
            from coorbit.fields import lpm_norm

            lhs = lpm_norm(F, 2.0, m)
            rhs = rep.window[1] * seq_lpm_norm(c, 2.0, m, lat12)
            assert lhs <= rhs * 1.02


def _random_field(quad, seed):
    rng = np.random.default_rng(seed)
    return GroupField(quad, rng.normal(size=quad.shape) + 1j * rng.normal(size=quad.shape))


def _assert_step_bit_identical(F, lat, bupu):
    ref = bupu_synthesize(sample_field(F, lat), bupu)
    step = bupu.sample_synthesize(F)
    # compare the bits of real and imaginary parts, not values up to roundoff
    assert np.array_equal(ref.values.view(np.int64), step.values.view(np.int64))
    assert step.meta == ref.meta
    # the active tiles' coefficients alone synthesize the same field
    active = bupu_synthesize(bupu.active_samples(F), bupu)
    assert np.array_equal(ref.values.view(np.int64), active.values.view(np.int64))


class TestCompiledStep:
    """``BUPU.sample_synthesize`` reproduces sample-then-synthesize bit for bit."""

    def test_two_sign_affine_chart(self):
        lat = AffineLattice(1.3, 0.4, -4, 4, -20, 20, (1, -1))
        quad = build_affine_quadrature(-2, 2, 64, 0.5, 2, 9, (1, -1))
        bupu = build_bupu(lat, affine_box(0.4, 1.3), quad)
        assert 0 < bupu.active_tiles.size < lat.n_points
        _assert_step_bit_identical(_random_field(quad, 1), lat, bupu)

    def test_tile_boundaries_on_chart_nodes(self):
        # tile edges of the dyadic lattice sit at b = a (k +- 1/2) and
        # a = 2^(j +- 1/2): grid steps 1/4 in b and half a level in log a,
        # so edge nodes lie in two tiles and level-corner nodes in three
        lat = AffineLattice(2.0, 1.0, -3, 3, -8, 8, (1, -1))
        quad = build_affine_quadrature(-2, 2, 16, 2**-1.5, 2**1.5, 7, (1, -1))
        bupu = build_bupu(lat, affine_box(1.0, 2.0), quad)
        assert int(np.max(bupu.counts)) == 3
        for seed in range(3):
            _assert_step_bit_identical(_random_field(quad, seed), lat, bupu)

    @pytest.mark.parametrize("n_b, n_scales, finer", [(16, 7, False), (8, 7, True),
                                                       (16, 3, True)])
    def test_tiles_finer_than_cells(self, n_b, n_scales, finer):
        # dyadic tiles span ln 2 in log-scale and 2^-1.5 in b at the finest
        # chart scale, against cells du = 3 ln 2 / (n_scales - 1), db = 4 / n_b
        lat = AffineLattice(2.0, 1.0, -3, 3, -8, 8, (1, -1))
        quad = build_affine_quadrature(-2, 2, n_b, 2**-1.5, 2**1.5, n_scales, (1, -1))
        assert build_bupu(lat, affine_box(1.0, 2.0), quad).tiles_finer_than_cells is finer

    def test_chart_past_lattice_window(self):
        lat = AffineLattice(2.0, 1.0, -1, 1, -2, 2, (1, -1))
        quad = build_affine_quadrature(-4, 4, 32, 1 / 8, 8, 13, (1, -1))
        bupu = build_bupu(lat, affine_box(1.0, 2.0), quad)
        assert bupu.uncovered_nodes == int(np.sum(bupu.counts == 0)) > 0
        _assert_step_bit_identical(_random_field(quad, 4), lat, bupu)

    def test_tf_lattice(self):
        lat = TFLattice(np.array([[0.5, 0.1], [0.0, 0.4]]), 1.0, -12, 12, -12, 12)
        quad = build_tf_quadrature(-3, 0.125, 49, -2.5, 0.125, 41)
        bupu = build_bupu(lat, tf_box(0.5, 0.4), quad)
        assert int(np.max(bupu.counts)) > 1
        assert not bupu.tiles_finer_than_cells
        _assert_step_bit_identical(_random_field(quad, 5), lat, bupu)

    def test_map_matches_cover_machinery(self, lat12, quad12):
        U = affine_box(1.0, 2.0)
        bupu = build_bupu(lat12, U, quad12)
        b, a = quad12.node_points()
        assert np.array_equal(bupu.counts.ravel(), cover_counts(lat12, U, b, a))
        nodes, tiles, _ = _cover_pairs(lat12, U, b, a)
        assert np.array_equal(bupu.pair_nodes, nodes)
        assert np.array_equal(bupu.active_tiles[bupu.pair_active], tiles)
        pb, pa = lat12.point_arrays()
        assert np.array_equal(bupu.active_points[0], pb[bupu.active_tiles])
        assert np.array_equal(bupu.active_points[1], pa[bupu.active_tiles])


# cover_counts against the tile definition, checked lattice point by
# lattice point: an affine point (b, a) lies in the tile of (j, k, eps)
# iff sign(a) = eps, alpha^-j |a| lies in [alpha_U^-1/2, alpha_U^1/2] and
# |eps alpha^-j b - beta k| <= beta_U / 2; a TF point lies in the box of
# side (beta_x, beta_w) centred on the lattice point.  Both admit the
# documented slack of _TIE_EPS (index space for affine, plane units for TF),
# so points exactly on a shared edge count for both tiles.
_COVER = settings(max_examples=40, deadline=None, derandomize=True)
# a NaN or inf cast to a tile index warns; the oracle cases fail on it
_NO_RUNTIME_WARNING = pytest.mark.filterwarnings("error::RuntimeWarning")
_RATIO = st.one_of(st.just(1.0), st.floats(0.3, 2.5))  # U side over lattice step
# half-side steps to the four edge midpoints and four corners of a tile
_EDGE_STEPS = np.array([(p, q) for p in (-1, 0, 1) for q in (-1, 0, 1) if p or q],
                       dtype=float).T


def _affine_brute_counts(lat, U, b, a):
    j, k, eps = (np.array(v)[:, None] for v in zip(*_index_tags(lat)))
    level = lat.alpha ** (-j.astype(float))
    scale = level * np.abs(a)
    in_scale = (
        (np.sign(a) == eps)
        & (scale >= U.alpha ** -0.5 * lat.alpha ** -_TIE_EPS)
        & (scale <= U.alpha ** 0.5 * lat.alpha ** _TIE_EPS)
    )
    in_shift = np.abs(eps * level * b - lat.beta * k) <= U.beta / 2 + lat.beta * _TIE_EPS
    return np.sum(in_scale & in_shift, axis=0)


def _tf_brute_counts(lat, U, x, w):
    px, pw = (v[:, None] for v in lat.point_arrays())
    inside = (
        (np.abs(x - px) <= U.beta_x / 2 + _TIE_EPS)
        & (np.abs(w - pw) <= U.beta_w / 2 + _TIE_EPS)
    )
    return np.sum(inside, axis=0)


@_NO_RUNTIME_WARNING
class TestCoverCountsBruteForce:
    @_COVER
    @given(st.floats(1.2, 3.0), st.floats(0.2, 2.0), st.integers(-3, 0), st.integers(0, 3),
           st.integers(-6, 0), st.integers(0, 6), st.sampled_from([(1,), (-1,), (1, -1)]),
           _RATIO, _RATIO, st.integers(0, 2**32 - 1))
    def test_affine(self, alpha, beta, j_min, j_max, k_min, k_max, signs, rb, ra, seed):
        lat = AffineLattice(alpha, beta, j_min, j_max, k_min, k_max, signs)
        U = affine_box(beta * rb, alpha**ra)
        rng = np.random.default_rng(seed)
        # random points over the window and a margin, both signs
        a = rng.choice([-1.0, 1.0], 200) * alpha ** rng.uniform(j_min - 1.5, j_max + 1.5, 200)
        b = a * beta * rng.uniform(k_min - 2, k_max + 2, 200)
        # points exactly on the edges and corners of some tiles
        tags = _index_tags(lat)
        for i in rng.choice(len(tags), min(len(tags), 10), replace=False):
            j, k, eps = tags[i]
            sa, sb = _EDGE_STEPS
            edge_a = eps * alpha**j * U.alpha ** (sa / 2)
            edge_b = eps * alpha**j * (beta * k + sb * U.beta / 2)
            a, b = np.concatenate([a, edge_a]), np.concatenate([b, edge_b])
        counts = cover_counts(lat, U, b, a)
        assert np.array_equal(counts, _affine_brute_counts(lat, U, b, a))

    @_COVER
    @given(st.floats(0.3, 1.5), st.floats(0.3, 1.5), st.floats(-0.25, 0.25),
           st.floats(-0.25, 0.25), st.booleans(), st.floats(0.5, 2.0),
           st.floats(0.2, 3.0), st.floats(0.2, 3.0), st.integers(0, 2**32 - 1))
    def test_tf(self, g00, g11, g01, g10, diagonal, scale, beta_x, beta_w, seed):
        off = 0.0 if diagonal else 1.0
        lat = TFLattice(np.array([[g00, off * g01], [off * g10, g11]]), scale, -4, 3, -3, 4)
        U = tf_box(beta_x, beta_w)
        rng = np.random.default_rng(seed)
        px, pw = lat.point_arrays()
        x = rng.uniform(px.min() - 2, px.max() + 2, 200)
        w = rng.uniform(pw.min() - 2, pw.max() + 2, 200)
        for i in rng.choice(px.size, 10, replace=False):
            sx, sw = _EDGE_STEPS
            x = np.concatenate([x, px[i] + sx * beta_x / 2])
            w = np.concatenate([w, pw[i] + sw * beta_w / 2])
        counts = cover_counts(lat, U, x, w)
        assert np.array_equal(counts, _tf_brute_counts(lat, U, x, w))


def _unclamped_affine_cover(lat, U, b, a):
    """The affine cover as it was before its index ranges were cut to the window: the oracle.

    It runs one pass per tile offset the neighbourhood allows, however
    few of them the window holds.
    """
    nodes, tiles = [], []
    ln_alpha = math.log(lat.alpha)
    half_u = math.log(U.alpha) / (2 * ln_alpha)
    half_b = U.beta / (2 * lat.beta)
    for s_idx, sgn in enumerate(lat.signs):
        sel = np.flatnonzero((np.sign(a) == sgn) & (a != 0))
        if sel.size == 0:
            continue
        t = np.log(np.abs(a[sel])) / ln_alpha
        j_lo = np.ceil(t - half_u - _TIE_EPS).astype(np.int64)
        j_hi = np.floor(t + half_u + _TIE_EPS).astype(np.int64)
        for dj in range(int(np.max(j_hi - j_lo, initial=-1)) + 1):
            j = j_lo + dj
            ok_j = (j <= j_hi) & (j >= lat.j_min) & (j <= lat.j_max)
            if not np.any(ok_j):
                continue
            idx_j, jj = sel[ok_j], j[ok_j]
            y = sgn * b[idx_j] * lat.alpha ** (-jj.astype(float)) / lat.beta
            k_lo = np.ceil(y - half_b - _TIE_EPS).astype(np.int64)
            k_hi = np.floor(y + half_b + _TIE_EPS).astype(np.int64)
            for dk in range(int(np.max(k_hi - k_lo, initial=-1)) + 1):
                k = k_lo + dk
                ok_k = (k <= k_hi) & (k >= lat.k_min) & (k <= lat.k_max)
                if np.any(ok_k):
                    nodes.append(idx_j[ok_k])
                    tiles.append(lat.flat_index(jj[ok_k], k[ok_k], s_idx))
    return nodes, tiles


def _unclamped_tf_cover(lat, U, x, w):
    """The TF cover as it was before its index ranges were cut to the window: the oracle."""
    nodes, tiles = [], []
    gen_inv = np.linalg.inv(lat.scale * lat.generator)
    base = gen_inv @ np.vstack([x, w])
    n1_near = np.round(base[0]).astype(np.int64)
    n2_near = np.round(base[1]).astype(np.int64)
    corners = np.array([[sx * U.beta_x / 2, sw * U.beta_w / 2]
                        for sx in (-1, 1) for sw in (-1, 1)]).T
    reach = np.max(np.abs(gen_inv @ corners), axis=1)
    r1, r2 = int(math.ceil(reach[0] + _TIE_EPS)), int(math.ceil(reach[1] + _TIE_EPS))
    for d1 in range(-r1, r1 + 1):
        for d2 in range(-r2, r2 + 1):
            n1, n2 = n1_near + d1, n2_near + d2
            ok = (n1 >= lat.n1_min) & (n1 <= lat.n1_max) & (n2 >= lat.n2_min) & (n2 <= lat.n2_max)
            if not np.any(ok):
                continue
            px, pw = lat._points(n1, n2)
            inside = np.flatnonzero(ok & (np.abs(x - px) <= U.beta_x / 2 + _TIE_EPS)
                                    & (np.abs(w - pw) <= U.beta_w / 2 + _TIE_EPS))
            if inside.size:
                nodes.append(inside)
                tiles.append(lat.flat_index(n1[inside], n2[inside]))
    return nodes, tiles


def _assert_cover_matches_unclamped(lat, U, c1, c2):
    """Each point meets the same tiles in the same order as in the unclamped loop.

    So its count and its tile sums are bit-identical; the sums add a
    distinct value per tile, read off the tile index.
    """
    c1, c2 = np.asarray(c1, dtype=float).ravel(), np.asarray(c2, dtype=float).ravel()
    old = _unclamped_affine_cover if lat.kind == "affine" else _unclamped_tf_cover
    empty = [np.zeros(0, dtype=np.int64)]
    ref_nodes, ref_tiles = (np.concatenate(empty + part) for part in old(lat, U, c1, c2))
    nodes, tiles, n = _cover_pairs(lat, U, c1, c2)
    assert np.array_equal(np.bincount(nodes, minlength=n), np.bincount(ref_nodes, minlength=n))
    order, ref_order = np.argsort(nodes, kind="stable"), np.argsort(ref_nodes, kind="stable")
    assert np.array_equal(tiles[order], ref_tiles[ref_order])

    def tile_values(t):
        return np.cos(0.618 * t) + 1j * np.sin(1.3 * t)

    sums = _pair_sum(nodes, tile_values(tiles), n)
    ref = _pair_sum(ref_nodes, tile_values(ref_tiles), n)
    assert np.array_equal(sums.view(np.int64), ref.view(np.int64))


class TestCoverBoundedByWindow:
    """Tile covers expand index ranges cut to the window and meet the same tiles in the same order."""

    @_NO_RUNTIME_WARNING
    @pytest.mark.parametrize("lat, U, quad", [
        (AffineLattice(1.5, 1e-9, -2, 2, -8, 8, (1, -1)), affine_box(0.5, 1.5),
         build_affine_quadrature(-2, 2, 16, 0.5, 2.0, 5, (1, -1))),
        (TFLattice(np.eye(2), 1e-9, -4, 4, -4, 4), tf_box(0.5, 0.5),
         build_tf_quadrature(-2.0, 0.25, 16, -2.0, 0.25, 16)),
    ], ids=["affine", "tf"])
    def test_tiny_step_costs_what_the_window_allows(self, lat, U, quad):
        # U spans about 2.5e8 lattice steps per axis: a range per node that
        # long would not fit in memory, and the window holds at most 170 tiles
        start = time.process_time()
        bupu = build_bupu(lat, U, quad)
        assert time.process_time() - start < 1.0
        c1, c2 = (np.ravel(c) for c in quad.node_points())
        brute = _affine_brute_counts if lat.kind == "affine" else _tf_brute_counts
        assert np.array_equal(bupu.counts.ravel(), brute(lat, U, c1, c2))

    @pytest.mark.parametrize("lat, U, quad", [
        (AffineLattice(1.5, 5e-324, -2, 2, -8, 8, (1, -1)), affine_box(0.5, 1.5),
         build_affine_quadrature(-2, 2, 16, 0.5, 2.0, 5, (1, -1))),
        (TFLattice(np.eye(2), 5e-324, -4, 4, -4, 4), tf_box(0.5, 0.5),
         build_tf_quadrature(-2.0, 0.25, 16, -2.0, 0.25, 16)),
        # U's extent is finite, the chart's is not: refused before any warning
        (AffineLattice(1.5, 1.5e-308, -2, 2, -8, 8, (1, -1)), affine_box(0.5, 1.5),
         build_affine_quadrature(-2, 2, 16, 0.5, 2.0, 5, (1, -1))),
        (TFLattice(np.eye(2), 1e-308, -8, 8, -8, 8), tf_box(0.5, 0.5),
         build_tf_quadrature(-2.0, 0.25, 16, -2.0, 0.25, 16)),
    ], ids=["affine", "tf", "affine-chart", "tf-chart"])
    def test_subnormal_step_refused(self, lat, U, quad):
        # U's or the chart's extent in index units overflows: no index range is finite
        with pytest.raises(ValueError, match="the lattice step is too small"):
            build_bupu(lat, U, quad)

    @_NO_RUNTIME_WARNING
    @pytest.mark.parametrize("lat, U", [
        (AffineLattice(1.5, 0.5, -2, 2, -8, 8, (1, -1)), affine_box(0.5, 1.5)),
        (TFLattice(np.eye(2), 0.5, -4, 4, -4, 4), tf_box(0.5, 0.5)),
    ], ids=["affine", "tf"])
    def test_no_query_points(self, lat, U):
        counts = cover_counts(lat, U, [], [])
        assert counts.shape == (0,) and counts.dtype.kind == "i"

    @_NO_RUNTIME_WARNING
    @pytest.mark.parametrize("lat, U, quad", [
        # in-window scales, shifts far past the k-window
        (AffineLattice(1.5, 0.5, -2, 2, -8, 8, (1, -1)), affine_box(0.5, 1.5),
         build_affine_quadrature(1000, 1010, 16, 0.5, 2.0, 5, (1, -1))),
        # scales far past the j-window
        (AffineLattice(1.5, 0.5, -2, 2, -8, 8, (1, -1)), affine_box(0.5, 1.5),
         build_affine_quadrature(-2, 2, 16, 100.0, 200.0, 5, (1, -1))),
        (TFLattice(np.eye(2), 0.5, -4, 4, -4, 4), tf_box(0.5, 0.5),
         build_tf_quadrature(100.0, 0.25, 16, -2.0, 0.25, 16)),
    ], ids=["affine-shifts", "affine-scales", "tf"])
    def test_chart_outside_window_has_no_pairs(self, lat, U, quad):
        nodes, tiles, n = _cover_pairs(lat, U, *quad.node_points())
        assert nodes.size == tiles.size == 0
        assert n == quad.n_nodes

    @_NO_RUNTIME_WARNING
    def test_criterion_09_lattice(self):
        # step 16 of the default schedule, windowed as acceptance criterion 09 does, on its chart
        alpha, beta = 1.0 + 0.7**15, 0.7**15
        j_span = int(math.ceil(math.log(4) / math.log(alpha)))
        k_span = int(math.ceil(2 / (beta * 0.25)))
        lat = AffineLattice(alpha, beta, -j_span, j_span, -k_span, k_span, (1, -1))
        quad = build_affine_quadrature(-2, 2, 512, 1 / 4, 4, 49, (1, -1))
        _assert_cover_matches_unclamped(lat, affine_box(beta, alpha), *quad.node_points())

    @_NO_RUNTIME_WARNING
    @_COVER
    @given(st.floats(1.2, 3.0), st.floats(0.2, 2.0), st.integers(-3, 0), st.integers(0, 3),
           st.integers(-6, 0), st.integers(0, 6), st.sampled_from([(1,), (-1,), (1, -1)]),
           st.floats(0.3, 30.0), st.floats(0.3, 8.0), st.integers(0, 2**32 - 1))
    def test_affine_matches_unclamped_loop(self, alpha, beta, j_min, j_max, k_min, k_max, signs,
                                           rb, ra, seed):
        # U up to 30 steps wide and 8 levels tall, so most ranges reach past the window
        lat = AffineLattice(alpha, beta, j_min, j_max, k_min, k_max, signs)
        rng = np.random.default_rng(seed)
        a = rng.choice([-1.0, 1.0], 300) * alpha ** rng.uniform(j_min - ra, j_max + ra, 300)
        b = a * beta * rng.uniform(k_min - rb, k_max + rb, 300)
        _assert_cover_matches_unclamped(lat, affine_box(beta * rb, alpha**ra), b, a)

    @_NO_RUNTIME_WARNING
    @_COVER
    @given(st.floats(0.3, 1.5), st.floats(0.3, 1.5), st.floats(-0.25, 0.25),
           st.floats(-0.25, 0.25), st.floats(0.5, 2.0), st.integers(-4, 0), st.integers(0, 4),
           st.integers(-4, 0), st.integers(0, 4), st.floats(0.2, 20.0), st.floats(0.2, 20.0),
           st.integers(0, 2**32 - 1))
    def test_tf_matches_unclamped_loop(self, g00, g11, g01, g10, scale, n1_min, n1_max,
                                       n2_min, n2_max, beta_x, beta_w, seed):
        lat = TFLattice(np.array([[g00, g01], [g10, g11]]), scale, n1_min, n1_max, n2_min, n2_max)
        rng = np.random.default_rng(seed)
        px, pw = lat.point_arrays()
        x = rng.uniform(px.min() - beta_x, px.max() + beta_x, 300)
        w = rng.uniform(pw.min() - beta_w, pw.max() + beta_w, 300)
        _assert_cover_matches_unclamped(lat, tf_box(beta_x, beta_w), x, w)

    @_NO_RUNTIME_WARNING
    @pytest.mark.parametrize("gen", [[[0.0, 1.0], [1.0, 0.0]], [[0.3, -0.9], [1.1, 0.2]],
                                     [[0.2, 0.7], [-0.8, -0.5]], [[1.0, 0.5], [0.1, 0.5]]],
                             ids=["swap", "x-strip", "x-strip-negative", "tie"])
    @pytest.mark.parametrize("sides", [(0.3, 0.3), (0.7, 0.2), (4.0, 5.0)])
    def test_tf_x_strip_matches_unclamped_loop(self, gen, sides):
        # |A01| > |A11|: n2 is solved from the x-strip ("tie": |A01| == |A11| takes the w-strip)
        lat = TFLattice(np.array(gen), 0.5, -6, 6, -5, 7)
        rng = np.random.default_rng(11)
        px, pw = lat.point_arrays()
        x = np.concatenate([rng.uniform(px.min() - 1, px.max() + 1, 300), px + sides[0] / 2])
        w = np.concatenate([rng.uniform(pw.min() - 1, pw.max() + 1, 300), pw - sides[1] / 2])
        _assert_cover_matches_unclamped(lat, tf_box(*sides), x, w)
        assert np.array_equal(cover_counts(lat, tf_box(*sides), x, w),
                              _tf_brute_counts(lat, tf_box(*sides), x, w))

    def test_dense_tf_cover_memory(self):
        # 197,554 pairs on a 400 x 400 chart; a whole candidate box per node peaked at 99 MiB
        quad = build_tf_quadrature(-5, 0.025, 400, -5, 0.025, 400)
        lat = TFLattice([[1, 0.2], [0.1, 1]], 0.05, -130, 130, -130, 130)
        pts = quad.node_points()
        tracemalloc.start()
        try:
            nodes, _, _ = _cover_pairs(lat, tf_box(0.05, 0.05), *pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert nodes.size == 197_554
        assert peak < 70 * 2**20


class TestSerialization:
    def test_affine_lattice_roundtrip(self, lat12):
        assert AffineLattice.from_dict(lat12.to_dict()) == lat12
        assert hash(AffineLattice.from_dict(lat12.to_dict())) == hash(lat12)

    def test_tf_lattice_roundtrip(self):
        lat = TFLattice.separable(0.5, 0.5, (-4, 4), (-4, 4))
        again = TFLattice.from_dict(lat.to_dict())
        assert np.allclose(again.generator, lat.generator)
        assert again.to_dict() == lat.to_dict()
        assert again == lat and hash(again) == hash(lat)

    @pytest.mark.parametrize("U", [affine_box(0.5, 1.5, 5), tf_box(0.25, 0.75, 9)],
                             ids=["affine", "tf"])
    def test_neighbourhood_roundtrip(self, U):
        assert cb.NeighborhoodSpec.from_dict(U.to_dict()) == U


class TestCoveringQuadrature:
    def test_node_cap_halves_the_b_nodes(self):
        # 543,000 b-nodes by the tile size: the chart would hold 2.7e8 nodes
        lat = AffineLattice(1.1, 0.01, -20, 20, -1000, 1000, (1, -1))
        quad = covering_quadrature(lat, affine_box(0.01, 1.1))
        assert quad.n_nodes <= _COVERING_MAX_NODES < 2 * (quad.n_b + 1) * quad.n_scales * 2
        b, a = lat.point_arrays()
        assert quad.b_lo <= np.min(b) and quad.b_hi >= np.max(b)
        assert quad.a_min <= np.min(np.abs(a)) and quad.a_max >= np.max(np.abs(a))

    def test_node_cap_stops_at_two_b_nodes(self):
        # six million scale nodes: halving the b-nodes stops at two
        lat = AffineLattice(1.0001, 0.5, -5, 5, -4, 4, (1, -1))
        quad = covering_quadrature(lat, affine_box(0.5, 1 + 1e-9))
        assert quad.n_b == 2


class TestLatticeIdentity:
    def test_tf_equality_and_hash_read_the_values(self):
        # -0.0 == 0.0 as numbers, though their bytes differ
        pos = TFLattice(np.array([[0.5, 0.0], [0.0, 0.4]]), 1.0, -3, 3, -2, 2)
        neg = TFLattice(np.array([[0.5, -0.0], [-0.0, 0.4]]), 1.0, -3, 3, -2, 2)
        assert pos.generator.tobytes() != neg.generator.tobytes()
        assert pos == neg and hash(pos) == hash(neg)
        assert len({pos, neg}) == 1
        # integral float bounds and an int scale read as the same numbers
        assert TFLattice(np.diag([0.5, 0.4]), 1, -3.0, 3.0, -2, 2) == pos
        for other in (TFLattice(np.array([[0.5, 0.1], [0.0, 0.4]]), 1.0, -3, 3, -2, 2),
                      TFLattice(np.diag([0.5, 0.4]), 2.0, -3, 3, -2, 2),
                      TFLattice(np.diag([0.5, 0.4]), 1.0, -3, 4, -2, 2),
                      TFLattice(np.diag([0.5, 0.4]), 1.0, -3, 3, -2, 1)):
            assert pos != other and not pos == other
        # a lattice of the other group is never equal
        affine = AffineLattice(2.0, 0.5, -3, 3, -2, 2, (1,))
        assert affine != pos and pos != affine and not affine == pos
