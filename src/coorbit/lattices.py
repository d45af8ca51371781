"""Point lattices, well-spreadness verification, and tile partitions.

The affine lattice with parameters ``alpha > 1``, ``beta > 0`` is the
family ``(eps * alpha^j * beta * k, eps * alpha^j)`` over integer
``(j, k)`` windows and sign branches; it tiles the group exactly by the
rectangles ``x_i U`` with ``U = [-beta/2, beta/2] x [alpha^-1/2,
alpha^1/2]``.  TF lattices are scaled integer lattices ``c A Z^2`` of
the plane (separable or general invertible generator).

Membership of a chart point in a tile ``x_i U`` reduces to closed-form
index conditions, so density checks, cover counts, indicator partitions
of unity and tile sums are all evaluated exactly (no sampling of U),
with a small absolute slack so points on shared tile boundaries count
for every adjacent tile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import NeighborhoodSpec, _p_norm, affine_box, lpm_norm, tf_box, unit_weight
from .groups import (
    GroupField,
    GroupQuadrature,
    _count,
    _finite_number,
    _integer,
    _integers,
    _known_keys,
    _on_group,
    _pullback,
    _Report,
    _sign_branches,
    affine_field_interpolate,
    build_affine_quadrature,
    tf_field_interpolate,
)
from .weights import WeightSpec, eval_weight_at

__all__ = [
    "AffineLattice",
    "TFLattice",
    "SampledSequence",
    "BUPU",
    "is_U_dense",
    "DensityReport",
    "is_relatively_separated",
    "sample_field",
    "seq_lpm_norm",
    "norm_equivalence_check",
    "NormEquivalenceReport",
    "build_bupu",
    "bupu_synthesize",
    "cover_counts",
    "cover_sum",
    "covering_quadrature",
    "default_density_probe",
]

_TIE_EPS = 1e-9  # index-space slack so shared tile boundaries count both sides
_NOT_FINITE = ("tile index range is not finite: the lattice step is too small "
               "for U, or a query point is not finite")
_COVERING_MAX_NODES = 2_000_000  # covering_quadrature halves its b-nodes, then its scales, to this
_SEPARATION_PAIRS = 2**18  # about the most candidate pairs one separation chunk holds


@dataclass(frozen=True)
class AffineLattice:
    """``(eps alpha^j beta k, eps alpha^j)`` over a finite index window."""

    kind = "affine"
    alpha: float
    beta: float
    j_min: int
    j_max: int
    k_min: int
    k_max: int
    signs: tuple = (1, -1)

    def __post_init__(self):
        if _finite_number(self.alpha, "alpha") <= 1 or _finite_number(self.beta, "beta") <= 0:
            raise ValueError("need alpha > 1 and beta > 0")
        _index_window(self, "j_min", "j_max", "k_min", "k_max")
        object.__setattr__(self, "signs", _sign_branches(self.signs))

    @property
    def n_j(self) -> int:
        return self.j_max - self.j_min + 1

    @property
    def n_k(self) -> int:
        return self.k_max - self.k_min + 1

    @property
    def n_points(self) -> int:
        return len(self.signs) * self.n_j * self.n_k

    def flat_index(self, j, k, eps_idx):
        """Position in the canonical enumeration (sign-major, j, k)."""
        return (np.asarray(eps_idx) * self.n_j + (np.asarray(j) - self.j_min)) * self.n_k + (
            np.asarray(k) - self.k_min
        )

    def point_arrays(self, flat=None):
        """Points ``(b, a)`` in canonical order, or at the given flat indices."""
        if flat is None:
            flat = np.arange(self.n_points)
        eps_idx, rest = np.divmod(np.asarray(flat, dtype=np.int64), self.n_j * self.n_k)
        j, k = np.divmod(rest, self.n_k)
        eps = np.asarray(self.signs, dtype=float)[eps_idx]
        # one power per scale row, indexed: the same values as one per point
        levels = self.alpha ** np.arange(self.j_min, self.j_max + 1).astype(float)
        a = eps * levels[j]
        b = a * self.beta * (k + self.k_min).astype(float)
        return b, a

    def to_dict(self) -> dict:
        return {
            "type": "affine",
            "alpha": self.alpha,
            "beta": self.beta,
            "j": [self.j_min, self.j_max],
            "k": [self.k_min, self.k_max],
            "signs": [int(s) for s in self.signs],
        }

    @staticmethod
    def from_dict(d: dict) -> "AffineLattice":
        _known_keys(d, ("alpha", "beta", "j", "k"), "lattice", optional=("type", "signs"))
        return AffineLattice(
            _finite_number(d["alpha"], "lattice.alpha"),
            _finite_number(d["beta"], "lattice.beta"),
            *_index_range(d["j"], "lattice.j"), *_index_range(d["k"], "lattice.k"),
            _integers(d.get("signs", (1, -1)), "lattice.signs"),
        )


@dataclass(frozen=True, eq=False)
class TFLattice:
    """Scaled plane lattice ``c A Z^2``; separable when A is diagonal."""

    kind = "tf"
    generator: np.ndarray  # 2x2, invertible
    scale: float = 1.0
    n1_min: int = 0
    n1_max: int = 0
    n2_min: int = 0
    n2_max: int = 0

    def __post_init__(self):
        gen = np.array(self.generator, dtype=float).reshape(2, 2)  # a copy the caller cannot reach
        gen.flags.writeable = False
        if not np.all(np.isfinite(gen)):
            raise ValueError("lattice generator must be finite")
        if abs(np.linalg.det(gen)) < 1e-12:
            raise ValueError("lattice generator must be invertible")
        if _finite_number(self.scale, "scale") <= 0:
            raise ValueError("lattice scale must be positive")
        _index_window(self, "n1_min", "n1_max", "n2_min", "n2_max")
        object.__setattr__(self, "generator", gen)

    @staticmethod
    def separable(a_x: float, b_w: float, n1, n2) -> "TFLattice":
        if _finite_number(a_x, "a_x") <= 0 or _finite_number(b_w, "b_w") <= 0:
            raise ValueError("separable steps must be positive")
        return TFLattice(np.diag([a_x, b_w]), 1.0, n1[0], n1[1], n2[0], n2[1])

    @property
    def n_points(self) -> int:
        return (self.n1_max - self.n1_min + 1) * (self.n2_max - self.n2_min + 1)

    def point_arrays(self, flat=None):
        """Points ``(x, w)`` in canonical order, or at the given flat indices."""
        if flat is None:
            flat = np.arange(self.n_points)
        n1, n2 = np.divmod(np.asarray(flat, dtype=np.int64), self.n2_max - self.n2_min + 1)
        return self._points(n1 + self.n1_min, n2 + self.n2_min)

    def _points(self, n1, n2):
        """The points ``c A (n1, n2)``, elementwise: the one formula for points and tile centres."""
        g, c = self.generator, self.scale
        return c * (g[0, 0] * n1 + g[0, 1] * n2), c * (g[1, 0] * n1 + g[1, 1] * n2)

    def _key(self) -> tuple:
        """What ``==`` and ``hash`` read: the generator as floats, so ``-0.0 == 0.0`` holds."""
        return (*self.generator.ravel().tolist(), self.scale, self.n1_min, self.n1_max,
                self.n2_min, self.n2_max)

    def __eq__(self, other):
        return self._key() == other._key() if isinstance(other, TFLattice) else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def flat_index(self, n1, n2):
        width = self.n2_max - self.n2_min + 1
        return (np.asarray(n1) - self.n1_min) * width + (np.asarray(n2) - self.n2_min)

    def to_dict(self) -> dict:
        return {
            "type": "tf",
            "generator": self.generator.tolist(),
            "scale": self.scale,
            "n1": [self.n1_min, self.n1_max],
            "n2": [self.n2_min, self.n2_max],
        }

    @staticmethod
    def from_dict(d: dict) -> "TFLattice":
        _known_keys(d, ("generator", "scale", "n1", "n2"), "lattice", optional=("type",))
        gen = np.asarray(d["generator"], dtype=object)
        if gen.shape != (2, 2):
            raise ValueError(f"lattice.generator must be 2x2, got {d['generator']!r}")
        for (r, c), v in np.ndenumerate(gen):
            _finite_number(v, f"lattice.generator[{r}][{c}]")
        return TFLattice(gen.astype(float), _finite_number(d["scale"], "lattice.scale"),
                         *_index_range(d["n1"], "lattice.n1"),
                         *_index_range(d["n2"], "lattice.n2"))


def _index_range(value, key: str) -> tuple:
    """A config's ``[lo, hi]`` index bounds as two ints."""
    bounds = _integers(value, key)
    if len(bounds) != 2:
        raise ValueError(f"{key} must be a pair of integers, got {value!r}")
    return bounds


def _index_window(lat, lo1: str, hi1: str, lo2: str, hi2: str) -> None:
    """Store the four named index bounds of ``lat`` as ints; refuse an empty window."""
    bounds = [_integer(getattr(lat, name), name) for name in (lo1, hi1, lo2, hi2)]
    for name, value in zip((lo1, hi1, lo2, hi2), bounds):
        object.__setattr__(lat, name, value)
    if bounds[0] > bounds[1] or bounds[2] > bounds[3]:
        raise ValueError("empty index window")


# ---------------------------------------------------------------------------
# tile membership machinery
# ---------------------------------------------------------------------------

def _in_window(lo, hi, lo_min: int, hi_max: int):
    """Integer ranges ``[lo, hi]``, cut to the index window ``[lo_min, hi_max]``.

    A range outside the window comes back empty (``lo > hi``), and every
    range spans at most the window, however far the float bounds reach,
    so what the ranges expand to is bounded by the window.  A bound that
    is not finite (a query point that is not finite, or one too far for
    the step) is refused before the integer cast.
    """
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise ValueError(_NOT_FINITE)
    return (np.clip(lo, lo_min, hi_max + 1).astype(np.int64),
            np.clip(hi, lo_min - 1, hi_max).astype(np.int64))


def _expand(lo, hi):
    """``(row, i)`` for every integer ``i`` in ``[lo[row], hi[row]]``, row by row, ascending."""
    lengths = np.maximum(hi - lo + 1, 0)
    row = np.repeat(np.arange(lengths.size), lengths)
    first = np.cumsum(lengths) - lengths  # where each row's run starts
    return row, np.arange(row.size) + (lo - first)[row]


def _reach(lat, U: NeighborhoodSpec):
    """U's half-extent along each index axis of ``lat`` ((j, k) or (n1, n2)), TF slack included.

    It is the same for every point, so a step too small for it to be a float
    (a subnormal ``beta`` or ``scale``) is refused before any per-point division.
    """
    if lat.kind == "affine":
        reach = (math.log(U.alpha) / (2 * math.log(lat.alpha)), U.beta / (2 * lat.beta))
    else:
        half_x, half_w = U.beta_x / 2 + _TIE_EPS, U.beta_w / 2 + _TIE_EPS
        corners = np.array([[sx * half_x, sw * half_w] for sx in (-1, 1) for sw in (-1, 1)]).T
        reach = np.max(np.abs(np.linalg.inv(lat.scale * lat.generator) @ corners), axis=1)
    if not np.all(np.isfinite(reach)):
        raise ValueError(_NOT_FINITE)
    return reach


def _chart_reach(lat, U: NeighborhoodSpec, c1, c2) -> None:
    """Refuse nodes whose extent in index units, U's reach added, is not finite.

    It bounds every index the probe and the covers compute for the nodes, in
    Python floats (they overflow to inf silently), before any per-node division.
    """
    reach, far = max(_reach(lat, U)), float(np.max(np.abs(c1)))
    if lat.kind == "affine":
        # a shift index is b alpha^-j / beta, at levels j within U's reach of log|a|
        extent = far * math.sqrt(U.alpha) * float(lat.alpha) / float(np.min(np.abs(c2)))
        extent /= float(lat.beta)
    else:  # an index is inv(A) (x, w) / c, or a coordinate over c along a strip
        extent = max(far, float(np.max(np.abs(c2)))) / float(lat.scale)
        extent *= max(1.0, 2 * float(np.max(np.abs(np.linalg.inv(lat.generator)))))
    if not math.isfinite(extent + reach):
        raise ValueError(_NOT_FINITE)


def _affine_cover(lat: AffineLattice, U: NeighborhoodSpec, b, a):
    """Tile-membership pairs ``(point, lattice flat index)``.

    A point ``(b, a)`` lies in the tile ``x_{j,k,eps} U`` iff the sign
    matches, ``alpha^{-j} |a|`` lies in ``[alpha_U^{-1/2}, alpha_U^{1/2}]``
    and ``|eps alpha^{-j} b - beta k| <= beta_U / 2``; both conditions
    are solved for integer (j, k) directly, so every pair is an incidence.
    """
    half_u, half_b = _reach(lat, U)
    sign = np.sign(a)
    sel = np.flatnonzero(np.isin(sign, lat.signs))
    t = np.log(np.abs(a[sel])) / math.log(lat.alpha)
    row, j = _expand(*_in_window(np.ceil(t - half_u - _TIE_EPS),
                                 np.floor(t + half_u + _TIE_EPS), lat.j_min, lat.j_max))
    node = sel[row]
    y = sign[node] * b[node] * lat.alpha ** (-j.astype(float)) / lat.beta
    row, k = _expand(*_in_window(np.ceil(y - half_b - _TIE_EPS),
                                 np.floor(y + half_b + _TIE_EPS), lat.k_min, lat.k_max))
    node, j = node[row], j[row]
    eps_idx = np.where(sign[node] == lat.signs[0], 0, 1)  # every sign here is in lat.signs
    return node, lat.flat_index(j, k, eps_idx)


def _tf_cover(lat: TFLattice, U: NeighborhoodSpec, x, w):
    """Tile-membership pairs ``(point, lattice flat index)``, kept from a strip of candidates.

    n1 spans U's reach; per (point, n1), n2 spans the strip of the coordinate
    it moves faster along (``|A11|`` against ``|A01|``), widened by the slack.
    """
    g, c = lat.generator, lat.scale
    half_x, half_w = U.beta_x / 2 + _TIE_EPS, U.beta_w / 2 + _TIE_EPS
    r1 = _reach(lat, U)[0] + _TIE_EPS
    t = np.linalg.inv(c * g)[0] @ np.vstack([x, w])
    node, n1 = _expand(*_in_window(np.ceil(t - r1), np.floor(t + r1), lat.n1_min, lat.n1_max))
    ax = int(abs(g[1, 1]) >= abs(g[0, 1]))  # 1: the w-strip, 0: the x-strip
    mid = ((x, w)[ax][node] / c - g[ax, 0] * n1) / g[ax, 1]
    spread = (half_x, half_w)[ax] / abs(c * g[ax, 1]) + _TIE_EPS
    row, n2 = _expand(*_in_window(np.ceil(mid - spread), np.floor(mid + spread),
                                  lat.n2_min, lat.n2_max))
    node, n1 = node[row], n1[row]
    px, pw = lat._points(n1, n2)
    inside = np.flatnonzero((np.abs(x[node] - px) <= half_x) & (np.abs(w[node] - pw) <= half_w))
    return node[inside], lat.flat_index(n1[inside], n2[inside])


def _cover_pairs(lat, U: NeighborhoodSpec, c1, c2):
    """Every ``(point, tile)`` incidence of the query points, and their number.

    The pairs come point by point, and each point meets its tiles in
    ascending index order ((j, k) or (n1, n2)), so every sum over a
    point's tiles adds them in this order.  The candidate ranges are cut
    to the lattice's window first, so the work is bounded by the window.
    This is the one membership code path behind cover counts, cover sums
    and the partition's stored map.
    """
    _on_group(lat.kind, neighbourhood=U)
    c1, c2 = (np.asarray(c, dtype=float).ravel() for c in (c1, c2))
    cover = _affine_cover if lat.kind == "affine" else _tf_cover
    return *cover(lat, U, c1, c2), c1.size


def _pair_sum(nodes, values, n: int) -> np.ndarray:
    """Per-point sums of the pair values, added in pair order from zero."""
    values = np.asarray(values)
    out = np.empty(n, dtype=np.complex128)
    out.real = np.bincount(nodes, weights=values.real, minlength=n)
    out.imag = np.bincount(nodes, weights=values.imag, minlength=n)
    return out


def _tile_average(counts, sums) -> np.ndarray:
    """Sums over covering tiles divided by their number; zero where uncovered."""
    out = np.zeros(counts.size, dtype=np.complex128)
    hit = counts > 0
    out[hit] = sums[hit] / counts[hit]
    return out


def cover_counts(lat, U: NeighborhoodSpec, c1, c2):
    """Number of lattice tiles ``x_i U`` containing each query point."""
    nodes, _, n = _cover_pairs(lat, U, c1, c2)
    return np.bincount(nodes, minlength=n)


def cover_sum(lat, U: NeighborhoodSpec, c1, c2, coeffs):
    """``sum_i coeffs_i * chi_{x_i U}`` (and counts) at the query points."""
    nodes, tiles, n = _cover_pairs(lat, U, c1, c2)
    return np.bincount(nodes, minlength=n), _pair_sum(nodes, np.asarray(coeffs)[tiles], n)


@dataclass(frozen=True)
class DensityReport:
    covered: bool
    witness: tuple | None = None

    def __bool__(self):
        return self.covered


def is_U_dense(lat, U: NeighborhoodSpec, probe) -> DensityReport:
    """Check that the tiles ``x_i U`` cover every probe point.

    ``probe`` is a pair of coordinate arrays.  Returns the first
    uncovered point (lowest index) as a witness on failure.
    """
    c1, c2 = (np.asarray(c, dtype=float).ravel() for c in probe)
    bad = np.flatnonzero(cover_counts(lat, U, c1, c2) == 0)
    if bad.size:
        return DensityReport(False, (float(c1[bad[0]]), float(c2[bad[0]])))
    return DensityReport(True)


def is_relatively_separated(lat, K: NeighborhoodSpec):
    """Max number of translates ``x_j K`` that meet one ``x_i K``.

    A finite lattice window is always relatively separated; the count is
    its local finiteness constant.  The candidates are the tile cover of
    the lattice's own points, in chunks, so the cost follows the pairs, not
    n^2, and memory stays bounded however many points one K meets.
    TF: ``x_i K`` meets ``x_j K`` iff ``x_i`` lies in the tile of ``x_j``
    under the box of doubled sides.  Affine: iff ``x_j^{-1} x_i = (btil,
    atil)`` has ``atil > 0`` in ``[1/alpha_K - eps, alpha_K + eps]`` and
    ``|btil| <= (1 + atil) beta_K / 2 + eps`` (``eps`` the slack).  Then
    ``atil`` and ``1/atil`` are at most ``r = 1 / (1/alpha_K - eps)``, so
    ``x_i`` lies in the tile of ``x_j`` under the box of scale side ``r^2``
    and shift side ``(1 + r) beta_K + 2 eps``.  Each box is capped at the
    window's own extent (affine: ratio ``alpha max|a| / min|a|``, shift
    ``2 max|b| / min|a|``), which no pair exceeds, so it is finite for every
    K; the cover's index slack absorbs rounding, and the test above decides.
    """
    _on_group(lat.kind, neighbourhood=K)
    b, a = lat.point_arrays()
    if lat.kind == "tf":
        box = tf_box(2 * min(K.beta_x, float(np.ptp(b)) + 1),
                     2 * min(K.beta_w, float(np.ptp(a)) + 1))
    else:
        a_min = float(np.min(np.abs(a)))
        ratio = 1 / max(1 / K.alpha - _TIE_EPS, a_min / (lat.alpha * float(np.max(np.abs(a)))))
        half = min((1 + ratio) * K.beta / 2, 2 * float(np.max(np.abs(b))) / a_min) + _TIE_EPS
        box = affine_box(2 * half, ratio**2)
    # each chunk meets at most about _SEPARATION_PAIRS tiles, by the box's reach per point
    per_point = min(np.prod(2 * np.asarray(_reach(lat, box)) + 3), lat.n_points)
    step = max(1, int(_SEPARATION_PAIRS // per_point))
    count = 0
    for start in range(0, b.size, step):
        x = b[start:start + step], a[start:start + step]
        i, j, n = _cover_pairs(lat, box, *x)
        if lat.kind == "affine":
            btil, atil = _pullback("affine", (b[j], a[j]), (x[0][i], x[1][i]))
            i = i[(atil > 0) & (atil >= 1.0 / K.alpha - _TIE_EPS) & (atil <= K.alpha + _TIE_EPS)
                  & (np.abs(btil) <= (1.0 + atil) * K.beta / 2 + _TIE_EPS)]
        count = max(count, int(np.bincount(i, minlength=n).max()))
    return count


@dataclass(frozen=True)
class SampledSequence:
    """Field samples at the lattice points, in canonical enumeration order."""

    lattice: object
    values: np.ndarray
    in_chart: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.complex128))
        object.__setattr__(self, "in_chart", np.asarray(self.in_chart, dtype=bool))

    @property
    def coverage(self) -> float:
        return float(np.mean(self.in_chart))


def _interpolate_at(F: GroupField, lat, c1, c2):
    """Field values at points of ``lat``'s group, with the in-chart mask."""
    if lat.kind == "affine":
        return affine_field_interpolate(F, c1, c2, with_mask=True)
    return tf_field_interpolate(F, c1, c2, with_mask=True)


def sample_field(F: GroupField, lat) -> SampledSequence:
    """Interpolated field values at the lattice points (out-of-chart flagged)."""
    vals, mask = _interpolate_at(F, lat, *lat.point_arrays())
    return SampledSequence(lat, vals, mask)


def _coefficients(c, lat, active=None) -> np.ndarray:
    """1-D coefficients on ``lat``, from a ``SampledSequence`` on ``lat`` or an array.

    ``c`` holds one value per lattice point or, given the sorted unique
    ``active`` tile indices, one per active tile; the result is per point
    without ``active`` and per active tile with it.  When every tile is
    active the two readings are the same vector.
    """
    if isinstance(c, SampledSequence):
        if c.lattice != lat:
            raise ValueError("sequence was sampled on another lattice")
        vals = c.values
    else:
        vals = np.asarray(c)
    if vals.ndim != 1:
        raise ValueError(f"coefficients must be a 1-D vector, got shape {vals.shape}")
    if vals.size == lat.n_points:
        return vals if active is None else vals[active]
    if active is not None and vals.size == active.size:
        return vals
    accepted = f"{lat.n_points} (one per lattice point)"
    if active is not None:
        accepted += f" or {active.size} (one per active tile)"
    raise ValueError(f"got {vals.size} coefficients; the lattice takes {accepted}")


def seq_lpm_norm(c, p: float, m: WeightSpec | None, lat) -> float:
    """Discrete norm ``(sum |c_i|^p m(x_i)^p)^(1/p)`` (max at p = inf)."""
    vals = _coefficients(c, lat)
    weights = eval_weight_at(m if m is not None else unit_weight(lat.kind), lat.kind,
                             *lat.point_arrays())
    return _p_norm(vals, weights, p)


def covering_quadrature(lat, U: NeighborhoodSpec, cells_per_tile: int = 6) -> GroupQuadrature:
    """Affine chart that contains every tile of the (finite) lattice."""
    _on_group("affine", lattice=lat, neighbourhood=U)
    cells_per_tile = _count(cells_per_tile, "cells_per_tile", 1)
    b, a = lat.point_arrays()
    half_b = np.abs(a) * U.beta / 2
    b_lo = float(np.min(b - half_b))
    b_hi = float(np.max(b + half_b))
    a_abs = np.abs(a)
    a_min = float(np.min(a_abs) / math.sqrt(U.alpha))
    a_max = float(np.max(a_abs) * math.sqrt(U.alpha))
    smallest_tile = float(np.min(a_abs)) * U.beta
    n_b = int(min(_COVERING_MAX_NODES, math.ceil((b_hi - b_lo) / smallest_tile * cells_per_tile)))
    n_scales = int(math.ceil((math.log(a_max) - math.log(a_min)) / math.log(U.alpha)
                             * cells_per_tile)) + 1
    n_b, n_scales = max(n_b, 2), max(n_scales, 2)  # the chart's own floor, counted in the cap
    while n_b * n_scales * len(lat.signs) > _COVERING_MAX_NODES:
        if n_b > 2:
            n_b = max(2, n_b // 2)
        else:
            n_scales = max(2, n_scales // 2)
    return build_affine_quadrature(b_lo, b_hi, n_b, a_min, a_max, n_scales, lat.signs)


@dataclass(frozen=True)
class NormEquivalenceReport(_Report):
    ratio: float
    window: tuple
    passed: bool
    haar_mass: float
    max_overlap: int
    heuristic_window: bool = False


def _moderation_bound(m: WeightSpec, U: NeighborhoodSpec):
    """sup over U of the right-moderating factor for the known families."""
    heuristic = False
    if m.family == "power_scale":
        bound = U.alpha ** (abs(m.s) / 2)
    elif m.family == "poly_tf":
        bound = (1 + U.beta_x / 2) ** m.r * (1 + U.beta_w / 2) ** m.s
    elif m.family == "symmetric_power":
        bound = U.alpha ** (m.rho / 2)  # w_rho(xu) <= w_rho(x) w_rho(u) on the tile
    else:
        # probe over the offset sample; flagged as heuristic
        heuristic = True
        bound = float(np.max(eval_weight_at(m, U.kind, *U.offsets())))
    return float(bound), heuristic


def norm_equivalence_check(
    c,
    p: float,
    m: WeightSpec | None,
    lat,
    U: NeighborhoodSpec,
    quad: GroupQuadrature | None = None,
) -> NormEquivalenceReport:
    """Compare ``||sum |c_i| chi_{x_i U}||_{L^p_m}`` with ``||c||_{l^p_m}``.

    The admissible window comes from the tile-wise moderation bounds of
    the weight family, the Haar mass of U and the measured maximal tile
    overlap; a zero sequence passes by convention.
    """
    m_eval = m if m is not None else unit_weight(lat.kind)
    vals = _coefficients(c, lat)
    seq_norm = seq_lpm_norm(vals, p, m_eval, lat)
    if quad is None:
        quad = covering_quadrature(lat, U)
    pts = quad.node_points()
    counts, sums = cover_sum(lat, U, pts[0], pts[1], np.abs(vals))
    field = GroupField(quad, sums.reshape(quad.shape))
    fld_norm = lpm_norm(field, p, m_eval)
    n_max = int(np.max(counts)) if counts.size else 0

    if seq_norm == 0.0:
        return NormEquivalenceReport(
            1.0, (0.0, math.inf), True, U.haar_mass(), n_max
        )

    bound, heuristic = _moderation_bound(m_eval, U)
    mass = U.haar_mass()
    inv_p = 0.0 if math.isinf(p) else 1.0 / p
    lo = mass**inv_p / bound
    hi = mass**inv_p * max(n_max, 1) ** (1.0 - inv_p) * bound
    ratio = fld_norm / seq_norm
    passed = bool(lo * (1 - 0.02) <= ratio <= hi * (1 + 0.02))
    return NormEquivalenceReport(ratio, (lo, hi), passed, mass, n_max, heuristic)


@dataclass(frozen=True)
class BUPU:
    """Indicator partition of unity ``phi_i = chi_{x_i U} / sum_j chi_{x_j U}``.

    Cover counts realize the normalization exactly, so ``0 <= phi_i <= 1``,
    ``supp phi_i`` is the tile, and the partition sums to one at every
    covered point (points on shared boundaries are split evenly among the
    covering tiles).

    The partition stores its map from chart nodes to covering tiles, one
    entry per (chart node, tile) incidence in accumulation order:
    ``pair_nodes`` holds the flat chart node.  ``active_tiles`` are the
    distinct lattice flat indices that hold a chart node, ``active_points``
    their lattice points, and ``pair_active`` the position of each pair's
    tile among them.  Synthesis on the chart reads only these tiles.
    """

    lattice: object
    U: NeighborhoodSpec
    quad: GroupQuadrature
    counts: np.ndarray
    pair_nodes: np.ndarray
    active_tiles: np.ndarray
    active_points: tuple
    pair_active: np.ndarray

    @property
    def uncovered_nodes(self) -> int:
        """Chart nodes that no tile covers."""
        return int(np.count_nonzero(self.counts == 0))

    @property
    def tiles_finer_than_cells(self) -> bool:
        """Whether a tile is narrower than a chart cell along some axis.

        A tile ``x_i U`` at scale ``a`` spans ``|a| beta`` in b and
        ``ln alpha`` in log-scale; such tiles mostly hold no chart node,
        so most lattice samples are never read.  Affine tiles are checked
        at the chart's finest scale.
        """
        U, quad = self.U, self.quad
        if quad.kind == "affine":
            return bool(math.log(U.alpha) < quad.du or U.beta * quad.a_min < quad.db)
        return bool(U.beta_x < quad.dx or U.beta_w < quad.dw)

    def active_samples(self, F: GroupField) -> np.ndarray:
        """F read at the active tiles' points, one value per tile in ``active_tiles`` order.

        Equals ``sample_field(F, lattice).values[active_tiles]`` bit for
        bit, and ``bupu_synthesize`` takes it as it takes the full
        sequence: the partition reads no other tile.
        """
        return _interpolate_at(F, self.lattice, *self.active_points)[0]

    def sample_synthesize(self, F: GroupField) -> GroupField:
        """``sum_i F(x_i) phi_i``, reading F only at the active tiles.

        Bit for bit ``bupu_synthesize(sample_field(F, lattice), self)``:
        the active points come from ``point_arrays``, are interpolated by
        the same kernel, and are summed in the same order.
        """
        return bupu_synthesize(self.active_samples(F), self)


def default_density_probe(quad: GroupQuadrature, lat, U: NeighborhoodSpec):
    """Chart nodes restricted to the region the finite window can cover.

    Edge-of-window nodes are excluded: scales within one lattice level of
    the window ends and shifts within one tile of the k-range ends do not
    enter the verdict.
    """
    c1, c2, ok = _density_probe(quad, lat, U)
    return c1[ok], c2[ok]


def _density_probe(quad: GroupQuadrature, lat, U: NeighborhoodSpec):
    """The chart nodes, flat in node order, and the mask of ``default_density_probe``'s."""
    _on_group(lat.kind, neighbourhood=U, chart=quad)
    c1, c2 = (np.asarray(c, dtype=float).ravel() for c in quad.node_points())
    _chart_reach(lat, U, c1, c2)
    if lat.kind == "affine":
        a_lo = lat.alpha**lat.j_min * math.sqrt(lat.alpha)
        a_hi = lat.alpha**lat.j_max / math.sqrt(lat.alpha)
        ok = (np.abs(c2) >= a_lo) & (np.abs(c2) <= a_hi)
        ln_alpha = math.log(lat.alpha)
        j_near = np.round(np.log(np.abs(c2)) / ln_alpha).astype(int)
        y = np.sign(c2) * c1 / (lat.alpha ** j_near.astype(float) * lat.beta)
        ok &= (y >= lat.k_min + 0.5) & (y <= lat.k_max - 0.5)
        ok &= np.isin(np.sign(c2), np.asarray(lat.signs, dtype=float))
    else:
        x_pts, w_pts = lat.point_arrays()
        ok = ((c1 >= np.min(x_pts) + U.beta_x / 2) & (c1 <= np.max(x_pts) - U.beta_x / 2)
              & (c2 >= np.min(w_pts) + U.beta_w / 2) & (c2 <= np.max(w_pts) - U.beta_w / 2))
    return c1, c2, ok


def build_bupu(lat, U: NeighborhoodSpec, quad: GroupQuadrature) -> BUPU:
    """Tile partition of unity over the chart; one cover also checks the density probe."""
    c1, c2, probe = _density_probe(quad, lat, U)
    nodes, tiles, n = _cover_pairs(lat, U, c1, c2)
    counts = np.bincount(nodes, minlength=n).reshape(quad.shape)
    uncovered = np.flatnonzero(probe & (counts.ravel() == 0))
    if uncovered.size:
        i = uncovered[0]
        raise ValueError("lattice is not U-dense on the working region; "
                         f"witness {(float(c1[i]), float(c2[i]))}")
    active, pair_active = np.unique(tiles, return_inverse=True)
    return BUPU(lat, U, quad, counts, nodes, active, lat.point_arrays(active), pair_active)


def bupu_synthesize(c, bupu: BUPU) -> GroupField:
    """Field ``sum_i c_i phi_i`` on the partition's chart.

    ``c`` holds one coefficient per lattice point (a ``SampledSequence``
    on the partition's lattice or an array) or one per active tile, in
    ``active_tiles`` order, as ``BUPU.active_samples`` returns them; only
    the active tiles' coefficients are read, so both synthesize the same.
    """
    vals = _coefficients(c, bupu.lattice, bupu.active_tiles)
    counts = bupu.counts.ravel()
    out = _tile_average(counts, _pair_sum(bupu.pair_nodes, vals[bupu.pair_active], counts.size))
    return GroupField(bupu.quad, out.reshape(bupu.quad.shape))
