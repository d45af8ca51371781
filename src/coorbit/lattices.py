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

from .fields import NeighborhoodSpec, _p_norm, lpm_norm, unit_weight
from .groups import (
    GroupField,
    GroupQuadrature,
    _finite_number,
    _integer,
    _integers,
    _on_group,
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
_COVERING_MAX_NODES = 2_000_000  # covering_quadrature halves its b-nodes below this


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
        if a_x <= 0 or b_w <= 0:
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

def _affine_cover(lat: AffineLattice, U: NeighborhoodSpec, b, a):
    """Tile-membership pairs ``(point, lattice flat index)``, one array each per pass.

    A point ``(b, a)`` lies in the tile ``x_{j,k,eps} U`` iff the sign
    matches, ``alpha^{-j} |a|`` lies in ``[alpha_U^{-1/2}, alpha_U^{1/2}]``
    and ``|eps alpha^{-j} b - beta k| <= beta_U / 2``; both conditions
    are solved for integer (j, k) directly.
    """
    nodes, tiles = [], []
    ln_alpha = math.log(lat.alpha)
    half_u = math.log(U.alpha) / (2 * ln_alpha)
    half_b = U.beta / (2 * lat.beta)

    sign_index = {s: i for i, s in enumerate(lat.signs)}
    for sgn, s_idx in sign_index.items():
        sel = np.flatnonzero((np.sign(a) == sgn) & (a != 0))
        if sel.size == 0:
            continue
        t = np.log(np.abs(a[sel])) / ln_alpha
        j_lo = np.ceil(t - half_u - _TIE_EPS).astype(np.int64)
        j_hi = np.floor(t + half_u + _TIE_EPS).astype(np.int64)
        max_span_j = int(np.max(j_hi - j_lo, initial=-1)) + 1
        for dj in range(max_span_j):
            j = j_lo + dj
            ok_j = (j <= j_hi) & (j >= lat.j_min) & (j <= lat.j_max)
            if not np.any(ok_j):
                continue
            idx_j = sel[ok_j]
            jj = j[ok_j]
            y = sgn * b[idx_j] * lat.alpha ** (-jj.astype(float)) / lat.beta
            k_lo = np.ceil(y - half_b - _TIE_EPS).astype(np.int64)
            k_hi = np.floor(y + half_b + _TIE_EPS).astype(np.int64)
            max_span_k = int(np.max(k_hi - k_lo, initial=-1)) + 1
            for dk in range(max_span_k):
                k = k_lo + dk
                ok_k = (k <= k_hi) & (k >= lat.k_min) & (k <= lat.k_max)
                if not np.any(ok_k):
                    continue
                nodes.append(idx_j[ok_k])
                tiles.append(lat.flat_index(jj[ok_k], k[ok_k], s_idx))
    return nodes, tiles


def _tf_cover(lat: TFLattice, U: NeighborhoodSpec, x, w):
    nodes, tiles = [], []
    gen_inv = np.linalg.inv(lat.scale * lat.generator)
    # integer coordinates of candidate lattice points around each query
    base = gen_inv @ np.vstack([x, w])
    n1_near = np.round(base[0]).astype(np.int64)
    n2_near = np.round(base[1]).astype(np.int64)
    # radius in index space needed to cover the box U
    corners = np.array(
        [[sx * U.beta_x / 2, sw * U.beta_w / 2] for sx in (-1, 1) for sw in (-1, 1)]
    ).T
    reach = np.max(np.abs(gen_inv @ corners), axis=1)
    r1, r2 = int(math.ceil(reach[0] + _TIE_EPS)), int(math.ceil(reach[1] + _TIE_EPS))
    for d1 in range(-r1, r1 + 1):
        for d2 in range(-r2, r2 + 1):
            n1 = n1_near + d1
            n2 = n2_near + d2
            ok = (
                (n1 >= lat.n1_min) & (n1 <= lat.n1_max)
                & (n2 >= lat.n2_min) & (n2 <= lat.n2_max)
            )
            if not np.any(ok):
                continue
            px, pw = lat._points(n1, n2)
            inside = np.flatnonzero(
                ok
                & (np.abs(x - px) <= U.beta_x / 2 + _TIE_EPS)
                & (np.abs(w - pw) <= U.beta_w / 2 + _TIE_EPS)
            )
            if inside.size:
                nodes.append(inside)
                tiles.append(lat.flat_index(n1[inside], n2[inside]))
    return nodes, tiles


def _cover_pairs(lat, U: NeighborhoodSpec, c1, c2):
    """Every ``(point, tile)`` incidence of the query points, and their number.

    The order is fixed, pass by pass over the tile offsets, and every sum
    over a point's tiles adds them in this order.  This is the one
    membership code path behind cover counts, cover sums and the
    partition's stored map.
    """
    _on_group(lat.kind, neighbourhood=U)
    c1 = np.asarray(c1, dtype=float).ravel()
    c2 = np.asarray(c2, dtype=float).ravel()
    cover = _affine_cover if lat.kind == "affine" else _tf_cover
    nodes, tiles = cover(lat, U, c1, c2)
    empty = [np.zeros(0, dtype=np.int64)]
    return np.concatenate(empty + nodes), np.concatenate(empty + tiles), c1.size


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
    c1 = np.asarray(probe[0], dtype=float).ravel()
    c2 = np.asarray(probe[1], dtype=float).ravel()
    counts = cover_counts(lat, U, c1, c2)
    bad = np.flatnonzero(counts == 0)
    if bad.size:
        i = int(bad[0])
        return DensityReport(False, (float(c1[i]), float(c2[i])))
    return DensityReport(True)


def is_relatively_separated(lat, K: NeighborhoodSpec):
    """Max number of translates ``x_j K`` that meet one ``x_i K``.

    A finite lattice window is always relatively separated; the count is
    its local finiteness constant.

    Affine overlap is exact: ``x_i K`` meets ``x_j K`` iff the relative
    point ``x_j^{-1} x_i = (btil, atil)`` has a positive scale ratio with
    ``atil`` in ``[1/alpha_K, alpha_K]`` and ``|btil| <= (1 + atil)
    beta_K / 2``; the TF condition is the difference box.
    """
    _on_group(lat.kind, neighbourhood=K)
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
    b, a = lat.point_arrays()
    half_b = np.abs(a) * U.beta / 2
    b_lo = float(np.min(b - half_b))
    b_hi = float(np.max(b + half_b))
    a_abs = np.abs(a)
    a_min = float(np.min(a_abs) / math.sqrt(U.alpha))
    a_max = float(np.max(a_abs) * math.sqrt(U.alpha))
    smallest_tile = float(np.min(a_abs)) * U.beta
    n_b = int(min(_COVERING_MAX_NODES, math.ceil((b_hi - b_lo) / smallest_tile * cells_per_tile)))
    n_scales = int(
        math.ceil((math.log(a_max) - math.log(a_min)) / math.log(U.alpha) * cells_per_tile)
    ) + 1
    signs = tuple(lat.signs)
    while n_b * n_scales * len(signs) > _COVERING_MAX_NODES:
        n_b = max(2, n_b // 2)
        if n_b == 2:
            break
    return build_affine_quadrature(b_lo, b_hi, max(n_b, 2), a_min, a_max,
                                   max(n_scales, 2), signs)


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
    inv_q = 0.0 if p == 1 else (1.0 if math.isinf(p) else 1.0 - 1.0 / p)
    if math.isinf(p):
        lo = 1.0 / bound
        hi = max(n_max, 1) * bound
    else:
        lo = mass ** (1.0 / p) / bound
        hi = mass ** (1.0 / p) * max(n_max, 1) ** inv_q * bound
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
    pts = quad.node_points()
    c1 = np.asarray(pts[0], dtype=float).ravel()
    c2 = np.asarray(pts[1], dtype=float).ravel()
    if lat.kind == "affine":
        a_lo = lat.alpha**lat.j_min * math.sqrt(lat.alpha)
        a_hi = lat.alpha**lat.j_max / math.sqrt(lat.alpha)
        ok = (np.abs(c2) >= a_lo) & (np.abs(c2) <= a_hi)
        ln_alpha = math.log(lat.alpha)
        j_near = np.round(np.log(np.abs(c2)) / ln_alpha).astype(int)
        y = np.sign(c2) * c1 / (lat.alpha ** j_near.astype(float) * lat.beta)
        ok &= (y >= lat.k_min + 0.5) & (y <= lat.k_max - 0.5)
        sign_ok = np.isin(np.sign(c2), np.asarray(lat.signs, dtype=float))
        ok &= sign_ok
    else:
        x_pts, w_pts = lat.point_arrays()
        ok = (
            (c1 >= np.min(x_pts) + U.beta_x / 2)
            & (c1 <= np.max(x_pts) - U.beta_x / 2)
            & (c2 >= np.min(w_pts) + U.beta_w / 2)
            & (c2 <= np.max(w_pts) - U.beta_w / 2)
        )
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
