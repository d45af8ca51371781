import math

import numpy as np
import pytest

import coorbit as cb
from coorbit.groups import AffinePoint, HeisenbergPoint, affine_inv
from coorbit.weights import (
    custom_weight,
    eval_weight,
    eval_weight_at,
    is_p_control,
    moderateness_probe,
    poly_tf,
    power_scale,
    submultiplicativity_probe,
    symmetric_power,
)


class TestEvaluation:
    def test_power_scale(self):
        assert eval_weight(power_scale(2.0), AffinePoint(5, 0.5)) == pytest.approx(4.0)

    def test_symmetric_power(self):
        assert eval_weight(symmetric_power(1.0), AffinePoint(0, 2)) == pytest.approx(2.5)

    def test_poly_tf(self):
        assert eval_weight(poly_tf(1, 2), (1.0, 1.0)) == pytest.approx(8.0)

    def test_group_mismatch(self):
        with pytest.raises(ValueError):
            eval_weight(poly_tf(1, 1), AffinePoint(0, 1))

    @pytest.mark.parametrize("spec, kind, closed_form", [
        (power_scale(1.5), "affine", lambda b, a: np.abs(a) ** -1.5),
        (symmetric_power(0.7), "affine", lambda b, a: np.abs(a) ** 0.7 + np.abs(a) ** -0.7),
        (poly_tf(1.2, 0.5), "tf", lambda x, w: (1 + np.abs(x)) ** 1.2 * (1 + np.abs(w)) ** 0.5),
        # a custom evaluator sees b itself and |a| on the affine group, |x| and |w| on the plane
        (custom_weight(lambda b, a: b * a, "affine"), "affine", lambda b, a: b * np.abs(a)),
        (custom_weight(lambda x, w: x - w, "tf"), "tf", lambda x, w: np.abs(x) - np.abs(w)),
    ])
    def test_eval_weight_at_closed_forms(self, spec, kind, closed_form):
        rng = np.random.default_rng(3)
        c1 = rng.uniform(-5, 5, 64)
        c2 = rng.uniform(0.1, 5, 64) * rng.choice([-1, 1], 64)
        np.testing.assert_allclose(eval_weight_at(spec, kind, c1, c2), closed_form(c1, c2),
                                   rtol=1e-14)
        assert eval_weight(spec, AffinePoint(c1[0], c2[0]) if kind == "affine"
                           else (c1[0], c2[0])) == pytest.approx(closed_form(c1[0], c2[0]))

    @pytest.mark.parametrize("spec, other", [
        (power_scale(1.0), "tf"), (symmetric_power(1.0), "tf"), (poly_tf(1, 1), "affine"),
        (custom_weight(lambda b, a: a, "affine"), "tf"),
        (custom_weight(lambda x, w: x, "tf"), "affine"),
    ])
    def test_eval_weight_at_refuses_the_other_group(self, spec, other):
        with pytest.raises(ValueError, match=f"applied to the '{other}' group"):
            eval_weight_at(spec, other, np.ones(3), np.ones(3))

    def test_probe_refuses_weights_on_two_groups(self):
        with pytest.raises(ValueError, match="applied to the 'affine' group"):
            moderateness_probe(power_scale(1.0), poly_tf(1, 1), 10)

    def test_heisenberg_point_reads_euclidean_lengths(self):
        p = HeisenbergPoint((3.0, -4.0), (12.0, 5.0), 1.0)
        assert eval_weight(poly_tf(1, 1), p) == pytest.approx((1 + 5.0) * (1 + 13.0))

    def test_positive_everywhere(self):
        rng = np.random.default_rng(0)
        b = rng.uniform(-10, 10, 100)
        a = rng.uniform(0.01, 10, 100) * rng.choice([-1, 1], 100)
        for spec in (power_scale(-1.5), power_scale(2.0), symmetric_power(0.7)):
            from coorbit.weights import eval_weight_at

            assert np.all(eval_weight_at(spec, "affine", b, a) > 0)

    def test_negative_parameters_rejected(self):
        with pytest.raises(ValueError):
            symmetric_power(-1.0)
        with pytest.raises(ValueError):
            poly_tf(-1.0, 0.0)


class TestControlWeights:
    def test_affine_closed_form(self):
        assert is_p_control(symmetric_power(2.0), power_scale(1.0), 2.0)
        assert not is_p_control(symmetric_power(1.2), power_scale(1.0), 2.0)
        # boundary: rho = |s| + max(1/p, 1/q) passes (inclusive)
        assert is_p_control(symmetric_power(1.5), power_scale(1.0), 2.0)

    def test_infinity_convention(self):
        # 1/inf = 0, so max(1/p, 1/q) = 1 at p = inf
        assert is_p_control(symmetric_power(2.0), power_scale(1.0), math.inf)
        assert not is_p_control(symmetric_power(1.9), power_scale(1.0), math.inf)

    def test_tf_closed_form(self):
        for p in (1.0, 2.0, math.inf):
            assert is_p_control(poly_tf(2, 2), poly_tf(1, 1), p)
        assert not is_p_control(poly_tf(1, 2), poly_tf(2, 1), 2.0)

    def test_custom_rejected(self):
        w = cb.custom_weight(lambda b, a: np.ones_like(a), "affine")
        with pytest.raises(ValueError):
            is_p_control(w, power_scale(1.0), 2.0)

    def test_duality_symmetry(self):
        # p-control for m_s equals q-control for m_{-s}: the closed form is
        # invariant under (s, p) -> (-s, q)
        for rho in (0.5, 1.0, 1.7, 2.5):
            for s in (-2.0, -0.5, 0.0, 1.0, 2.0):
                for p in (1.0, 1.5, 2.0, 4.0, math.inf):
                    q = math.inf if p == 1 else (1.0 if math.isinf(p) else p / (p - 1))
                    assert is_p_control(
                        symmetric_power(rho), power_scale(s), p
                    ) == is_p_control(symmetric_power(rho), power_scale(-s), q)


class TestProbes:
    def test_symmetric_power_submultiplicative(self):
        for rho in (0.0, 0.5, 1.0, 2.0):
            assert submultiplicativity_probe(symmetric_power(rho), 3000, seed=1).passed

    def test_poly_tf_submultiplicative(self):
        assert submultiplicativity_probe(poly_tf(1.5, 2.0), 3000, seed=2).passed

    def test_power_scale_multiplicative(self):
        rep = submultiplicativity_probe(power_scale(1.0), 3000, seed=3)
        assert rep.passed
        assert rep.max_ratio == pytest.approx(1.0, abs=1e-12)

    def test_moderateness_known_pairs(self):
        assert moderateness_probe(power_scale(1.0), symmetric_power(1.0), 3000, 4).passed
        assert moderateness_probe(power_scale(-2.0), symmetric_power(2.0), 3000, 5).passed
        assert moderateness_probe(poly_tf(1, 2), poly_tf(1, 2), 3000, 6).passed

    def test_constant_weight_fails_to_moderate(self):
        # w_0 = 2 cannot moderate m_1: scale products escape any constant
        rep = moderateness_probe(power_scale(1.0), symmetric_power(0.0), 3000, seed=7)
        assert not rep.passed

    def test_invariants_exact(self):
        rng = np.random.default_rng(8)
        from coorbit.weights import eval_weight_at

        for _ in range(200):
            p = AffinePoint(rng.uniform(-5, 5), rng.uniform(0.05, 8) * rng.choice([-1, 1]))
            q = AffinePoint(rng.uniform(-5, 5), rng.uniform(0.05, 8) * rng.choice([-1, 1]))
            prod = cb.affine_mul(p, q)
            # m_s multiplicative
            m = power_scale(1.3)
            assert eval_weight(m, prod) == pytest.approx(
                eval_weight(m, p) * eval_weight(m, q), rel=1e-12
            )
            # w_rho inversion symmetric
            w = symmetric_power(0.8)
            assert eval_weight(w, p) == pytest.approx(
                eval_weight(w, affine_inv(p)), rel=1e-12
            )

    def test_poly_tf_evenness(self):
        rng = np.random.default_rng(9)
        v = poly_tf(1.2, 0.7)
        for _ in range(100):
            x, om = rng.uniform(-10, 10, 2)
            assert eval_weight(v, (x, om)) == eval_weight(v, (-x, -om))

    def test_serialization(self):
        for spec in (power_scale(1.0), symmetric_power(2.0), poly_tf(1, 2)):
            assert cb.WeightSpec.from_dict(spec.to_dict()) == spec
