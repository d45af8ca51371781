"""Weight families on the affine group and the time-frequency plane.

Three closed-form families cover the toolkit's needs:

* ``power_scale(s)``:     ``|a|^(-s)`` on the affine group (multiplicative);
* ``symmetric_power(rho)``: ``|a|^rho + |a|^(-rho)``, submultiplicative;
* ``poly_tf(r, s)``:      ``(1+|x|)^r (1+|w|)^s`` on the plane, its own
  control weight.

``is_p_control`` evaluates the closed-form control-weight criteria for
these families; the two probes are falsifiers for the defining
inequalities on a bounded chart box (they can refute, never prove).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .groups import _exponent, _finite_float, _integer, _known_keys, _object, _on_group, _product

__all__ = [
    "WeightSpec",
    "power_scale",
    "symmetric_power",
    "poly_tf",
    "custom_weight",
    "eval_weight_at",
    "is_p_control",
    "submultiplicativity_probe",
    "moderateness_probe",
    "ProbeReport",
]

_PROBE_B_BOX = 10.0
_PROBE_U_BOX = 3.0
_PROBE_TF_BOX = 10.0
_PROBE_TOL = 1e-12
# the group and the serialized parameters of each closed-form family
_FAMILIES = {"power_scale": ("affine", ("s",)), "symmetric_power": ("affine", ("rho",)),
             "poly_tf": ("tf", ("r", "s"))}


@dataclass(frozen=True)
class WeightSpec:
    """One member of the known weight families (or a custom evaluator)."""

    family: str  # power_scale | symmetric_power | poly_tf | custom
    s: float = 0.0
    rho: float = 0.0
    r: float = 0.0
    evaluator: Optional[Callable] = None
    group: str = ""  # set for custom; implied otherwise

    def __post_init__(self):
        if self.family not in (*_FAMILIES, "custom"):
            raise ValueError(f"unknown weight family {self.family!r}")
        for key in _FAMILIES.get(self.family, (None, ()))[1]:  # a custom weight has none
            object.__setattr__(self, key, _finite_float(getattr(self, key), key))
        if self.family == "symmetric_power" and self.rho < 0:
            raise ValueError("rho must be >= 0")
        if self.family == "poly_tf" and (self.r < 0 or self.s < 0):
            raise ValueError("poly_tf exponents must be >= 0")
        if self.family == "custom" and (self.evaluator is None
                                        or self.group not in ("affine", "tf")):
            raise ValueError("custom weight needs an evaluator and a group tag")

    @property
    def kind(self) -> str:
        return _FAMILIES[self.family][0] if self.family in _FAMILIES else self.group

    def to_dict(self) -> dict:
        if self.family not in _FAMILIES:
            raise ValueError("custom weights do not serialize")
        return {"family": self.family, **{k: getattr(self, k) for k in _FAMILIES[self.family][1]}}

    @staticmethod
    def from_dict(d: dict) -> "WeightSpec":
        fam = _object(d, "weight")["family"]
        if not isinstance(fam, str) or fam not in _FAMILIES:
            raise ValueError(f"unknown weight family {fam!r}")
        _known_keys(d, ("family", *_FAMILIES[fam][1]), "weight")
        params = {k: _finite_float(d[k], f"weight.{k}") for k in _FAMILIES[fam][1]}
        return WeightSpec(fam, **params)


def power_scale(s: float) -> WeightSpec:
    return WeightSpec(family="power_scale", s=s)


def symmetric_power(rho: float) -> WeightSpec:
    return WeightSpec(family="symmetric_power", rho=rho)


def poly_tf(r: float, s: float) -> WeightSpec:
    return WeightSpec(family="poly_tf", r=r, s=s)


def custom_weight(evaluator: Callable, group: str) -> WeightSpec:
    return WeightSpec(family="custom", evaluator=evaluator, group=group)


def eval_weight_at(w: WeightSpec, kind: str, c1, c2) -> np.ndarray:
    """Vectorized evaluation at chart coordinates ``(c1, c2)`` of the group ``kind``.

    Affine: ``(b, a)``, read as ``(b, |a|)``; TF: ``(x, omega)``, read as
    ``(|x|, |omega|)``, by custom evaluators too.  A weight on the other group raises.
    """
    _on_group(kind, weight=w)
    c1 = np.asarray(c1, dtype=float)
    if kind == "tf":
        c1 = np.abs(c1)
    c2 = np.abs(np.asarray(c2, dtype=float))
    if w.family == "power_scale":
        return c2 ** (-w.s)
    if w.family == "symmetric_power":
        return c2**w.rho + c2 ** (-w.rho)
    if w.family == "poly_tf":
        return (1.0 + c1) ** w.r * (1.0 + c2) ** w.s
    return np.asarray(w.evaluator(c1, c2), dtype=float)


def is_p_control(w: WeightSpec, m: WeightSpec, p: float) -> bool:
    """Closed-form p-control-weight test for the known families.

    Affine: ``symmetric_power(rho)`` controls ``power_scale(s)`` exactly
    when ``rho >= |s| + max(1/p, 1/q)`` (``1/inf = 0``).  TF plane:
    ``poly_tf(r, s)`` controls ``poly_tf(r0, s0)`` when ``r >= r0`` and
    ``s >= s0``; the exponent p plays no role on unimodular groups.
    """
    if w.family == "custom" or m.family == "custom":
        raise ValueError("no closed form for custom weights; use the probes")
    _on_group(m.kind, weight=w)
    inv_p = 0.0 if math.isinf(_exponent(p)) else 1.0 / p
    inv_q = 1.0 - inv_p
    if w.kind == "affine":
        if w.family != "symmetric_power" or m.family != "power_scale":
            raise ValueError("affine control test expects symmetric_power vs power_scale")
        return w.rho >= abs(m.s) + max(inv_p, inv_q)
    return w.r >= m.r and w.s >= m.s


@dataclass(frozen=True)
class ProbeReport:
    max_ratio: float
    passed: bool
    worst: tuple = ()
    detail: dict = field(default_factory=dict)


def _sample_points(group: str, samples: int, rng: np.random.Generator):
    if group == "affine":
        b = rng.uniform(-_PROBE_B_BOX, _PROBE_B_BOX, samples)
        u = rng.uniform(-_PROBE_U_BOX, _PROBE_U_BOX, samples)
        sgn = rng.choice([-1.0, 1.0], samples)
        return b, sgn * np.exp(u)
    x = rng.uniform(-_PROBE_TF_BOX, _PROBE_TF_BOX, samples)
    om = rng.uniform(-_PROBE_TF_BOX, _PROBE_TF_BOX, samples)
    return x, om


def _probe_pairs(group: str, samples: int, seed: int):
    """Two seeded point samples on the probe box of ``group``."""
    samples = _integer(samples, "samples")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    return _sample_points(group, samples, rng), _sample_points(group, samples, rng)


def submultiplicativity_probe(
    w: WeightSpec, samples: int = 2000, seed: int = 0
) -> ProbeReport:
    """Search for violations of ``w(xy) <= w(x) w(y)`` on a chart box."""
    group = w.kind
    p1, p2 = _probe_pairs(group, samples, seed)
    ratio = eval_weight_at(w, group, *_product(group, p1, p2)) / (
        eval_weight_at(w, group, *p1) * eval_weight_at(w, group, *p2)
    )
    k = int(np.argmax(ratio))
    worst = ((p1[0][k], p1[1][k]), (p2[0][k], p2[1][k]))
    mx = float(ratio[k])
    return ProbeReport(mx, mx <= 1.0 + _PROBE_TOL, worst)


def moderateness_probe(
    m: WeightSpec, w: WeightSpec, samples: int = 2000, seed: int = 0
) -> ProbeReport:
    """Search for violations of ``m(xy) <= w(x)m(y)`` and ``m(xy) <= m(x)w(y)``."""
    group = m.kind
    p1, p2 = _probe_pairs(group, samples, seed)
    m_prod = eval_weight_at(m, group, *_product(group, p1, p2))
    left = m_prod / (eval_weight_at(w, group, *p1) * eval_weight_at(m, group, *p2))
    right = m_prod / (eval_weight_at(m, group, *p1) * eval_weight_at(w, group, *p2))
    mx_left, mx_right = float(np.max(left)), float(np.max(right))
    mx = max(mx_left, mx_right)
    return ProbeReport(mx, mx <= 1.0 + _PROBE_TOL,
                       detail={"max_left": mx_left, "max_right": mx_right})
