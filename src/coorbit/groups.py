"""Group arithmetic and Haar-measure quadrature for the two working groups.

The toolkit operates on two locally compact groups:

* the affine group ``Aff = R x R*`` with the law
  ``(b1, a1)(b2, a2) = (b1 + a1*b2, a1*a2)``, left Haar measure
  ``db da / a**2`` and modular function ``|a|``;
* the time-frequency plane ``R x R``, the Heisenberg group with its
  phase factored out.  Every field and norm on it is phase-free, so its
  integrals are Lebesgue integrals over the plane.

Each law is written once, elementwise on coordinate pairs (scalars or
arrays): ``_product``, ``_inverse`` and ``_pullback`` (``y^{-1} x``).

A :class:`GroupQuadrature` is a truncated chart of one of these groups
together with per-node Haar weights.  A :class:`GroupField` attaches
complex values to the nodes.  Everything here is immutable after
construction and free of hidden state; reductions run in ascending
node-index order so results are bitwise reproducible.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields

import numpy as np

__all__ = [
    "AffinePoint",
    "GroupQuadrature",
    "GroupField",
    "build_affine_quadrature",
    "build_tf_quadrature",
    "haar_integral",
    "affine_field_interpolate",
    "tf_field_interpolate",
    "left_translate_field",
]

_CHART_SNAP = 1e-9  # relative slack when deciding grid membership


@dataclass(frozen=True)
class AffinePoint:
    """Point ``(b, a)`` of the affine group; ``b`` shifts, ``a`` scales."""

    b: float
    a: float

    def __post_init__(self):
        _finite_number(self.b, "b")
        if _finite_number(self.a, "a") == 0:
            raise ValueError("affine scale must be nonzero")


def _product(kind: str, p, q):
    """Coordinates of the products ``p q``: affine ``(b1 + a1 b2, a1 a2)``, TF ``p + q``."""
    (p1, p2), (q1, q2) = p, q
    if kind == "affine":
        return p1 + p2 * q1, p2 * q2
    return p1 + q1, p2 + q2


def _inverse(kind: str, p):
    """Coordinates of the inverses ``p^{-1}``: affine ``(-b/a, 1/a)``, TF ``-p``."""
    p1, p2 = p
    if kind == "affine":
        return -p1 / p2, 1.0 / p2
    return -p1, -p2


def _pullback(kind: str, y, x):
    """Coordinates of ``y^{-1} x``: affine ``((b - y_b)/y_a, a/y_a)``, TF ``x - y``."""
    (y1, y2), (x1, x2) = y, x
    if kind == "affine":
        return (x1 - y1) / y2, x2 / y2
    return x1 - y1, x2 - y2


@dataclass(frozen=True)
class GroupQuadrature:
    """Nodes and Haar weights on a truncated chart.

    Affine charts are parameterized by a uniform b-grid on
    ``[b_lo, b_hi)`` (step ``db``), a uniform log-scale grid ``u`` on
    ``[log(a_min), log(a_max)]`` (``n_scales`` nodes, step ``du``) and a
    set of sign branches; the node at ``(b, eps*e^u)`` carries the
    weight ``db*du/|a|`` coming from ``db da/a**2``.

    Time-frequency charts are plain uniform grids on the plane with the
    Lebesgue weight ``dx*dw`` (the phase circle is dropped from all
    integrals; it contributes measure one).

    Node order is documented and fixed: affine values are indexed
    ``[sign, scale, b]`` with signs in listed order, scales by ascending
    ``u`` and b ascending; TF values are indexed ``[x, omega]``.
    """

    kind: str  # "affine" | "tf"
    # affine parameters
    b_lo: float = 0.0
    b_hi: float = 0.0
    n_b: int = 0
    a_min: float = 0.0
    a_max: float = 0.0
    n_scales: int = 0
    signs: tuple = ()
    # tf parameters
    x0: float = 0.0
    dx: float = 0.0
    n_x: int = 0
    w0: float = 0.0
    dw: float = 0.0
    n_w: int = 0

    def __post_init__(self):
        if self.kind not in ("affine", "tf"):
            raise ValueError(f"unknown quadrature kind {self.kind!r}")

    # --- affine chart geometry -------------------------------------------
    @property
    def db(self) -> float:
        return (self.b_hi - self.b_lo) / self.n_b

    @property
    def u_lo(self) -> float:
        return math.log(self.a_min)

    @property
    def u_hi(self) -> float:
        return math.log(self.a_max)

    @property
    def du(self) -> float:
        if self.n_scales < 2:
            raise ValueError("need at least two scale nodes")
        return (self.u_hi - self.u_lo) / (self.n_scales - 1)

    def b_grid(self) -> np.ndarray:
        return self.b_lo + self.db * np.arange(self.n_b)

    def u_grid(self) -> np.ndarray:
        return np.linspace(self.u_lo, self.u_hi, self.n_scales)

    def scale_grid(self) -> np.ndarray:
        return np.exp(self.u_grid())

    # --- tf chart geometry ------------------------------------------------
    def x_grid(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(self.n_x)

    def w_grid(self) -> np.ndarray:
        return self.w0 + self.dw * np.arange(self.n_w)

    # --- shared surface ----------------------------------------------------
    @property
    def shape(self) -> tuple:
        if self.kind == "affine":
            return (len(self.signs), self.n_scales, self.n_b)
        return (self.n_x, self.n_w)

    @property
    def n_nodes(self) -> int:
        return int(np.prod(self.shape))

    def node_weights(self) -> np.ndarray:
        """Per-node Haar weight, in node order."""
        if self.kind == "affine":
            w_scale = self.db * self.du / np.exp(self.u_grid())
            return np.broadcast_to(
                w_scale[None, :, None], self.shape
            ).copy()
        return np.full(self.shape, self.dx * self.dw)

    def node_points(self) -> tuple:
        """Chart coordinates of all nodes, broadcast to ``shape``.

        Affine: ``(b, a)`` arrays; TF: ``(x, w)`` arrays.
        """
        if self.kind == "affine":
            sgn = np.asarray(self.signs, dtype=float)[:, None, None]
            a = sgn * np.exp(self.u_grid())[None, :, None]
            b = np.broadcast_to(self.b_grid()[None, None, :], self.shape)
            return np.broadcast_to(b, self.shape), np.broadcast_to(a, self.shape)
        x = np.broadcast_to(self.x_grid()[:, None], self.shape)
        w = np.broadcast_to(self.w_grid()[None, :], self.shape)
        return x, w

    def to_dict(self) -> dict:
        """The chart's group and its builder's arguments, by parameter name."""
        d = {"group": self.kind}
        for key in _CHART_KEYS[self.kind]:
            value = getattr(self, key)
            d[key] = list(value) if isinstance(value, tuple) else value
        return d

    @staticmethod
    def from_dict(d: dict) -> "GroupQuadrature":
        group = _tag(d, "group", _CHART_KEYS, "quadrature")
        keys = _CHART_KEYS[group]
        _known_keys(d, ("group", *keys), "quadrature")
        build = build_affine_quadrature if group == "affine" else build_tf_quadrature
        return build(**{key: read(d[key], f"quadrature.{key}") for key, read in keys.items()})


def _real(value, key: str):
    """``value`` itself if it is a real number, NaN and the infinities included; a bool or a
    string raises.  The range check after it names what a NaN or an infinity breaks."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{key} must be a number, got {value!r}")
    return value


def _finite_number(value, key: str):
    """``value`` itself if it is a finite real number; a bool or a string raises."""
    try:
        finite = math.isfinite(_real(value, key))
    except OverflowError:  # an int beyond the float range
        finite = False
    if not finite:
        raise ValueError(f"{key} must be finite, got {value!r}")
    return value


def _finite_float(value, key: str) -> float:
    """A finite real number (no bool or string) as a ``float``, for artifact bytes."""
    return float(_finite_number(value, key))


def _integer(value, key: str) -> int:
    """``value`` as an ``int``; a float or a ``Fraction`` reads only if it has no fractional
    part."""
    if _finite_number(value, key) != int(value):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _count(value, key: str, least: int) -> int:
    """``value`` read as an integer by :func:`_integer`, refused below ``least``."""
    count = _integer(value, key)
    if count < least:
        raise ValueError(f"{key} must be >= {least}, got {count}")
    return count


def _seeded(seed) -> np.random.Generator:
    """The generator of ``seed``, read as a count: ``2.0`` draws what ``2`` draws."""
    return np.random.default_rng(_count(seed, "seed", 0))


def _exponent(p):
    """``p`` itself if it is a real number in ``[1, inf]``; a bool, a string, ``p < 1``,
    ``-inf`` and NaN raise.  A ``Fraction`` reads."""
    if not 1 <= _real(p, "p"):
        raise ValueError(f"p must lie in [1, inf], got {p!r}")
    return p


def _on_group(kind: str, **parts) -> None:
    """Refuse the first keyword part (a chart, lattice, U or weight) not on the group ``kind``."""
    for name, part in parts.items():
        if part.kind != kind:
            raise ValueError(f"{name} on {part.kind!r} applied to the {kind!r} group")


def _object(value, key: str) -> dict:
    """``value`` itself if it is a dict (a JSON object); anything else raises."""
    if not isinstance(value, dict):
        raise ValueError(f"{key} must be an object, got {type(value).__name__}")
    return value


def _known_keys(d, keys, name: str, optional=()) -> dict:
    """``d`` itself, refused unless it is an object that holds every one of ``keys`` and no
    key outside ``keys`` and ``optional``."""
    unknown = sorted(set(_object(d, name)) - set(keys) - set(optional))
    if unknown:
        raise ValueError(f"unknown {name} keys: {unknown}")
    missing = sorted(set(keys) - set(d))
    if missing:
        raise ValueError(f"missing {name} keys: {missing}")
    return d


def _tag(d, key: str, tags, name: str) -> str:
    """``d[key]``, the tag that says which of ``tags`` the object ``d`` serializes; a
    missing key and an unknown tag raise, naming ``name``."""
    if key not in _object(d, name):
        raise ValueError(f"missing {name} keys: {[key]}")
    if not isinstance(d[key], str) or d[key] not in tags:
        raise ValueError(f"unknown {name} {key} {d[key]!r}")
    return d[key]


def _integers(values, key: str) -> tuple:
    """A config list of integers as a tuple of ``int``."""
    if not isinstance(values, (list, tuple)):
        raise ValueError(f"{key} must be a list of integers, got {values!r}")
    return tuple(_integer(v, f"{key}[{i}]") for i, v in enumerate(values))


# each chart group's keys, the parameters of its builder, with the rule that reads each
_CHART_KEYS = {
    "affine": {"b_lo": _finite_float, "b_hi": _finite_float, "n_b": _integer,
               "a_min": _finite_float, "a_max": _finite_float, "n_scales": _integer,
               "signs": _integers},
    "tf": {"x0": _finite_float, "dx": _finite_float, "n_x": _integer,
           "w0": _finite_float, "dw": _finite_float, "n_w": _integer},
}


def _finite_floats(values, key: str) -> np.ndarray:
    """A list of finite real numbers (no bool or string) as a float array."""
    if not isinstance(values, (list, tuple)):
        raise ValueError(f"{key} must be a list of numbers, got {type(values).__name__}")
    if set(map(type, values)) <= {float}:  # the fast path: one type test per entry
        array = np.asarray(values)
        if np.all(np.isfinite(array)):
            return array
    for i, value in enumerate(values):
        _finite_number(value, f"{key}[{i}]")
    return np.asarray(values, dtype=float)


def _complex_samples(d: dict) -> np.ndarray:
    """The samples of a serialized signal or field, from its ``re`` and ``im`` lists."""
    re, im = _finite_floats(d["re"], "re"), _finite_floats(d["im"], "im")
    if re.size != im.size:
        raise ValueError(f"re and im must have the same length, got {re.size} and {im.size}")
    return re + 1j * im


def _sign_branches(signs) -> tuple:
    """Affine sign branches as a tuple of ints: a nonempty subset of {+1, -1}, each once."""
    signs = tuple(_integer(s, f"signs[{i}]") for i, s in enumerate(signs))
    if not signs or any(s not in (1, -1) for s in signs):
        raise ValueError("signs must be a nonempty subset of {+1, -1}")
    if len(set(signs)) != len(signs):
        raise ValueError("duplicate sign branch")
    return signs


class _Report:
    """Base of the result records whose artifact is their fields, then the properties
    named in ``_derived``, and nothing else."""

    _derived = ()  # names of properties written after the fields

    def to_dict(self) -> dict:
        """Fields, then ``_derived``, by name; ``passed`` as "pass", tuples as lists, and a
        value with its own ``to_dict`` (a spec, a chart, a nested record) as that dict."""
        out = {}
        for name in (*(f.name for f in fields(self)), *self._derived):
            value = getattr(self, name)
            if hasattr(value, "to_dict"):
                value = value.to_dict()
            out["pass" if name == "passed" else name] = (
                list(value) if isinstance(value, tuple) else value)
        return out


def build_affine_quadrature(
    b_lo: float,
    b_hi: float,
    n_b: int,
    a_min: float,
    a_max: float,
    n_scales: int,
    signs=(1, -1),
) -> GroupQuadrature:
    """Truncated affine chart with weights ``db*du/|a|``.

    The b-grid is uniform on ``[b_lo, b_hi)``; the scale grid is
    log-uniform with ``n_scales`` nodes on ``[a_min, a_max]``, replicated
    on each requested sign branch.  A chart whose largest weight, at
    ``a_min``, is not finite is refused.
    """
    n_b, n_scales = _count(n_b, "n_b", 2), _count(n_scales, "n_scales", 2)
    for key, value in (("b_lo", b_lo), ("b_hi", b_hi), ("a_min", a_min), ("a_max", a_max)):
        _finite_number(value, key)
    if not (0 < a_min < a_max):
        raise ValueError("need 0 < a_min < a_max")
    if b_hi <= b_lo:
        raise ValueError("need b_hi > b_lo")
    quad = GroupQuadrature(
        kind="affine",
        b_lo=float(b_lo),
        b_hi=float(b_hi),
        n_b=n_b,
        a_min=float(a_min),
        a_max=float(a_max),
        n_scales=n_scales,
        signs=_sign_branches(signs),
    )
    if not math.isfinite(quad.db * quad.du / math.exp(quad.u_lo)):  # the largest weight
        raise ValueError(f"the chart's Haar weight db*du/a_min is not finite "
                         f"(db = {quad.db!r}, a_min = {a_min!r})")
    return quad


def build_tf_quadrature(
    x0: float, dx: float, n_x: int, w0: float, dw: float, n_w: int
) -> GroupQuadrature:
    """Uniform chart of the time-frequency plane, weight ``dx*dw``."""
    n_x, n_w = _count(n_x, "n_x", 1), _count(n_w, "n_w", 1)
    for key, value in (("x0", x0), ("dx", dx), ("w0", w0), ("dw", dw)):
        _finite_number(value, key)
    if dx <= 0 or dw <= 0:
        raise ValueError("invalid TF grid")
    return GroupQuadrature(
        kind="tf", x0=float(x0), dx=float(dx), n_x=n_x,
        w0=float(w0), dw=float(dw), n_w=n_w,
    )


@dataclass(frozen=True)
class GroupField:
    """Complex values of a function on the group, attached to a quadrature."""

    quad: GroupQuadrature
    values: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.complex128)
        if vals.shape != self.quad.shape:
            raise ValueError(
                f"values shape {vals.shape} does not match quadrature {self.quad.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("non-finite value in a field")
        object.__setattr__(self, "values", vals)

    def with_values(self, values, **meta) -> "GroupField":
        merged = dict(self.meta)
        merged.update(meta)
        return GroupField(self.quad, values, merged)

    def to_dict(self) -> dict:
        flat = self.values.ravel()
        return {
            "quadrature": self.quad.to_dict(),
            "re": flat.real.tolist(),
            "im": flat.imag.tolist(),
        }

    @staticmethod
    def from_dict(d: dict) -> "GroupField":
        _known_keys(d, ("quadrature", "re", "im"), "field")
        quad = GroupQuadrature.from_dict(d["quadrature"])
        return GroupField(quad, _complex_samples(d).reshape(quad.shape))


def haar_integral(F: GroupField) -> complex:
    """Quadrature sum ``sum(value * weight)`` in ascending node order."""
    return complex(np.sum(F.values * F.quad.node_weights()))


def _in_chart(f, n: int):
    """Fractional indices within the snap of the node range ``[0, n - 1]``."""
    return (f >= -_CHART_SNAP) & (f <= n - 1 + _CHART_SNAP)


def _in_chart_run(f, n: int) -> slice:
    """The in-chart entries of nondecreasing fractional indices ``f``, as a slice."""
    return slice(int(np.searchsorted(f, -_CHART_SNAP, "left")),
                 int(np.searchsorted(f, n - 1 + _CHART_SNAP, "right")))


def _cell(f, n: int):
    """Cell index and offset in the cell of in-chart fractional indices.

    The last node belongs to the last cell, and a one-node axis reads its
    node through index ``-1`` with offset 1.
    """
    g = np.clip(f, 0.0, n - 1.0)
    i = np.minimum(g.astype(int), n - 2)
    return i, g - i


def _lerp(lo, hi, t):
    """``(1 - t) * lo + t * hi`` with one real weight per leading index, in place on ``lo``.

    ``lo`` and ``hi`` are fresh complex arrays (gathered points or rows);
    the weights scale their float views, so none is promoted to complex.
    """
    lo_f = lo.view(np.float64).reshape(t.size, -1)
    hi_f = hi.view(np.float64).reshape(t.size, -1)
    lo_f *= (1 - t)[:, None]
    hi_f *= t[:, None]
    lo_f += hi_f
    return lo


def _read_rows(array, f):
    """Rows of ``array`` blended along axis 0 at in-chart fractional indices ``f``."""
    i, t = _cell(f, array.shape[0])
    return _lerp(array[i], array[i + 1], t)


def _bilinear(plane: np.ndarray, f0, f1):
    """Bilinear read of ``plane`` at fractional node indices ``(f0, f1)``.

    ``f0`` indexes axis 0 and ``f1`` axis 1.  Axis 0 is blended first,
    as in every chart read.  Points further than the snap outside the
    node range read as zero.  Returns the values and the in-chart mask,
    both shaped like ``f0``.
    """
    n0, n1 = plane.shape
    ok = _in_chart(f0, n0) & _in_chart(f1, n1)
    out = np.zeros(f0.shape, dtype=np.complex128)
    if np.any(ok):
        i0, t0 = _cell(f0[ok], n0)
        i1, t1 = _cell(f1[ok], n1)
        out[ok] = _lerp(
            _lerp(plane[i0, i1], plane[i0 + 1, i1], t0),
            _lerp(plane[i0, i1 + 1], plane[i0 + 1, i1 + 1], t0),
            t1,
        )
    return out, ok


def _chart_index(quad: GroupQuadrature, c1, c2):
    """Fractional node indices ``(axis 0, axis 1)`` of chart points.

    Affine: ``c1 = b`` and ``c2 = a`` on one sign branch, mapped to
    ``(log|a| - u_lo)/du`` and ``(b - b_lo)/db``.  TF: ``(x - x0)/dx``
    and ``(w - w0)/dw``.
    """
    if quad.kind == "affine":
        return (np.log(np.abs(c2)) - quad.u_lo) / quad.du, (c1 - quad.b_lo) / quad.db
    return (c1 - quad.x0) / quad.dx, (c2 - quad.w0) / quad.dw


def _read_chart(F: GroupField, c1, c2):
    """Bilinear read of ``F`` at points of its group, with the in-chart mask.

    Affine points ``(c1, c2) = (b, a)`` read the sign branch ``sign(a)``;
    TF points are ``(x, w)``.  A point off the chart, or on a branch the
    chart lacks, reads as zero.
    """
    quad = F.quad
    c1, c2 = np.broadcast_arrays(np.asarray(c1, dtype=float), np.asarray(c2, dtype=float))
    if quad.kind == "tf":
        return _bilinear(F.values, *_chart_index(quad, c1, c2))
    out = np.zeros(c1.shape, dtype=np.complex128)
    inside = np.zeros(c1.shape, dtype=bool)
    for s_idx, sgn in enumerate(quad.signs):
        sel = np.sign(c2) == sgn
        if np.any(sel):
            out[sel], inside[sel] = _bilinear(
                F.values[s_idx], *_chart_index(quad, c1[sel], c2[sel]))
    return out, inside


def affine_field_interpolate(F: GroupField, b_q, a_q, with_mask: bool = False):
    """Bilinear interpolation on an affine field at points ``(b, a)``; zero outside the chart.

    Returns the values, plus the in-chart mask when ``with_mask`` is set.
    """
    _on_group("affine", field=F.quad)
    out, inside = _read_chart(F, b_q, a_q)
    return (out, inside) if with_mask else out


def tf_field_interpolate(F: GroupField, x_q, w_q, with_mask: bool = False):
    """Bilinear interpolation on a TF-plane field; zero outside the chart."""
    _on_group("tf", field=F.quad)
    out, inside = _read_chart(F, x_q, w_q)
    return (out, inside) if with_mask else out


def left_translate_field(F: GroupField, y) -> GroupField:
    """Left translation ``(L_y F)(x) = F(y^{-1} x)`` by chart interpolation.

    Each node is read at its pullback ``y^{-1} x``: ``((b - y.b)/y.a,
    a/y.a)`` on the affine chart, ``(x - yx, w - yw)`` on the TF plane.
    Out-of-chart pullback points (and a pullback branch the chart lacks)
    read as zero; the fraction of nodes whose pullback stayed in-chart is
    recorded in ``meta["coverage"]``.
    """
    quad = F.quad
    if quad.kind == "affine":
        if not isinstance(y, AffinePoint):
            raise ValueError("affine field needs an AffinePoint translation")
        y = (y.b, y.a)
    elif not isinstance(y, (tuple, list, np.ndarray)):
        raise ValueError("tf field needs an (x, w) translation")
    y = (_finite_float(y[0], "y[0]"), _finite_float(y[1], "y[1]"))
    vals, mask = _read_chart(F, *_pullback(quad.kind, y, quad.node_points()))
    return GroupField(quad, vals, {"coverage": float(np.mean(mask))})
