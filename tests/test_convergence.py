"""Refine-and-widen harness: two discretisations of one operator, held against each other.

A new discretisation is admitted only if it converges to the operator it
replaces as the chart grows.  Each row applies two operators to one field,
cuts both results back to a common chart, and reads the Haar-weighted
relative gap.  The rows pin today's pair on the s0 atom: the padded-period
projector ``V_psi V_psi^*`` against the kernel's ``F * K``.  Their gap is K's
own chart truncation, so it does not move with the projector's period or
with the chart's refinement, and falls when K's b-range is widened.
"""

import numpy as np
import pytest

import coorbit as cb
from coorbit import fields, voice
from coorbit.fields import KernelOperator, field_l2_norm
from coorbit.groups import GroupField
from coorbit.voice import ReproducingProjector

S0_CHART = {"group": "affine", "b_lo": -2.0, "b_hi": 2.0, "n_b": 512,
            "a_min": 0.25, "a_max": 4.0, "n_scales": 49, "signs": [1, -1]}
# K's b-range doubled at the same step; the scales are the chart's
WIDE_B = {**S0_CHART, "b_lo": -4.0, "b_hi": 4.0, "n_b": 1024}
# the s0 chart's ranges at about half its b-step and half its log-scale step
REFINED = {**S0_CHART, "n_b": 1024, "n_scales": 97}


def _gap(A: GroupField, B: GroupField) -> float:
    """``||A - B|| / ||B||`` in the Haar-weighted L2 norm of B's chart."""
    return field_l2_norm(GroupField(B.quad, A.values - B.values)) / field_l2_norm(B)


def _padded(W: GroupField, wide) -> GroupField:
    """``W`` zero-padded into ``wide``, a chart with the same step and scales."""
    lo = round((W.quad.b_lo - wide.b_lo) / wide.db)
    values = np.zeros(wide.shape, dtype=np.complex128)
    values[..., lo:lo + W.quad.n_b] = W.values
    return GroupField(wide, values)


def _cut(F: GroupField, narrow) -> GroupField:
    """``F`` read back on ``narrow``'s nodes, the inverse of :func:`_padded`."""
    lo = round((narrow.b_lo - F.quad.b_lo) / F.quad.db)
    return GroupField(narrow, F.values[..., lo:lo + narrow.n_b])


@pytest.fixture(scope="module")
def s0_case(s0_atom_normalized):
    psi = s0_atom_normalized
    quad = cb.GroupQuadrature.from_dict(S0_CHART)
    f = cb.random_bandlimited_signal(psi, (0.45, 1.1), np.random.default_rng(0),
                                     envelope_width=0.6)
    W = cb.cwt(f, psi, quad)
    return psi, quad, W, KernelOperator(cb.atom_kernel(psi, quad)).apply(W)


def test_gap_is_flat_in_the_period(s0_case, monkeypatch):
    # periods of 1 to 4 times the chosen one: the period already holds the
    # atom's reach, so a longer one changes the gap by well under 5 %
    psi, quad, W, KW = s0_case
    chosen = ReproducingProjector(psi, quad).period.samples
    gaps = []
    for factor in (1, 2, 3, 4):
        monkeypatch.setattr(voice, "_next_fast_len",
                            lambda n, _k=factor: _k * fields._next_fast_len(n))
        P = ReproducingProjector(psi, quad)
        assert P.period.samples == factor * chosen
        gaps.append(_gap(P.apply(W), KW))
    assert max(gaps) <= 1.05 * min(gaps)


def test_gap_falls_when_the_kernel_chart_is_widened(s0_case):
    # K read on a chart of twice the b-range sees the kernel's b-tails that
    # the s0 chart cuts off: the gap falls by more than 4x (4.06 to 4.41 over
    # draws 0 to 5 of this stream)
    psi, quad, W, KW = s0_case
    narrow = _gap(ReproducingProjector(psi, quad).apply(W), KW)
    wide = cb.GroupQuadrature.from_dict(WIDE_B)
    Wp = _padded(W, wide)
    PW = _cut(ReproducingProjector(psi, wide).apply(Wp), quad)
    KW_wide = _cut(fields.convolve(Wp, cb.atom_kernel(psi, wide)), quad)
    assert narrow >= 4 * _gap(PW, KW_wide)


@pytest.mark.parametrize("seed", [0, 1])
def test_gap_is_flat_under_refinement(s0_atom_normalized, seed):
    # halving both chart steps leaves K's b-truncation where it was: the gap
    # reads 3.870e-3 -> 3.877e-3 for draw 0 and 3.872e-3 -> 3.878e-3 for draw 1.
    # The refined K is convolved, streaming spectra that would take 441 MiB held
    psi = s0_atom_normalized
    f = cb.random_bandlimited_signal(psi, (0.45, 1.1), np.random.default_rng(seed),
                                     envelope_width=0.6)
    gaps = []
    for chart in (S0_CHART, REFINED):
        quad = cb.GroupQuadrature.from_dict(chart)
        W = cb.cwt(f, psi, quad)
        gaps.append(_gap(ReproducingProjector(psi, quad).apply(W),
                         fields.convolve(W, cb.atom_kernel(psi, quad))))
    assert max(gaps) <= 1.05 * min(gaps)
