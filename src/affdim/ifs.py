"""IFS data model: affine maps, words, the natural projection, measure
sampling and the box-count estimator on the samples, the strong-separation
checker, and the config file format.

A system holds every entry as a ``Fraction``: ``IfsSystem`` converts what
it is given, and ``Fraction(float)`` is exact, so a float entry is read as
the binary rational it already is.  Every decision on a system (contraction,
strong separation) is therefore exact, and touching configurations are
classified as separation failures rather than round-off noise.  The float
kernels read ``IfsSystem.columns``; the sampling kernels read
``IfsSystem.step_columns``, where an entry bitwise equal in every map is one
Python float that each step multiplies by instead of gathering it, and they
draw their symbols from raw Philox words (``BernoulliWeights.draw``).  The
triangular class (``IfsSystem.triangular``) is decided here, once per system
on its Fractions, and every layer reads it there, through
``check_triangular_split`` and ``abs_diagonals`` when it needs a triangular
system: ``pressure`` and ``ergodic`` take it without executing ``splitting``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple, Optional, Sequence, Tuple

from ._numpy import np
from ._record import record
from .errors import BadSymbol, NonConvexPolygon, NotTriangular, ParseError, TooFewPoints
from .linalg2 import (Mat2, apply4, det4, log_alpha1, mul4, numpy_ops, operator_norm,
                      renormalise4)

Vec2 = tuple  # (x, y) pairs of float or Fraction

_STREAM_OFFSET = 0x9E3779B9  # separates derived RNG streams
SYMBOL_BLOCK = 1 << 18  # symbols drawn per block by the sampling kernels


def rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Philox generator keyed by seed + stream * _STREAM_OFFSET (mod 2^64).

    Philox is counter-based, so each (seed, stream) pair is reproducible bit
    for bit, and streams of one seed never share a key.
    """
    return np.random.Generator(np.random.Philox(key=(seed + _STREAM_OFFSET * stream) % (1 << 64)))


# ---------------------------------------------------------------------------
# Affine maps and systems
# ---------------------------------------------------------------------------


@record
class AffineMap:
    """f(x) = A x + t with A contracting and nonsingular."""

    linear: Mat2
    translation: Vec2

    @staticmethod
    def identity() -> "AffineMap":
        return AffineMap(Mat2.identity(), (0.0, 0.0))

    def apply(self, p: Vec2) -> Vec2:
        x, y = self.linear.apply(p)
        return (x + self.translation[0], y + self.translation[1])

    def compose(self, other: "AffineMap") -> "AffineMap":
        """self after other: (self.compose(other))(x) = self(other(x))."""
        lin = self.linear @ other.linear
        tx, ty = self.linear.apply(other.translation)
        return AffineMap(lin, (tx + self.translation[0], ty + self.translation[1]))

    def fixed_point(self) -> Vec2:
        """Solve (I - A) x = t; unique since A is contracting."""
        a = self.linear
        m = Mat2(1 - a.a11, -a.a12, -a.a21, 1 - a.a22)
        return m.inverse().apply(self.translation)

    def to_float(self) -> "AffineMap":
        return AffineMap(
            self.linear.to_float(),
            (float(self.translation[0]), float(self.translation[1])),
        )


@record
class IfsSystem:
    """Ordered list of affine contractions; symbols are 1..N.  Every entry
    is converted to a ``Fraction``, exactly."""

    maps: tuple
    label: Optional[str] = None

    def __post_init__(self):
        object.__setattr__(self, "maps", tuple(
            AffineMap(Mat2(*map(Fraction, f.linear.entries())),
                      tuple(map(Fraction, f.translation)))
            for f in self.maps))
        if len(self.maps) < 1:
            raise ValueError("an IFS needs at least one map")
        for k, f in enumerate(self.maps):
            d = f.linear.det
            if d == 0:
                raise ValueError(f"map {k + 1} is singular")
            if float(d) == 0.0:
                raise ValueError(f"map {k + 1} has a nonzero determinant below the float range")
            # alpha1 < 1 iff T < 2 and (1 - alpha1^2)(1 - alpha2^2) = 1 - T + D^2 > 0,
            # with T = alpha1^2 + alpha2^2; the float norm bounds bounding_radius
            t = sum(e * e for e in f.linear.entries())
            if t >= 2 or t >= 1 + d * d or operator_norm(f.linear) >= 1.0:
                raise ValueError(f"map {k + 1} is not a contraction")

    @property
    def n(self) -> int:
        return len(self.maps)

    @cached_property
    def triangular(self) -> Optional[str]:
        """The triangular class, decided once on the Fractions: None when a
        linear part has a nonzero upper-right entry, else ADominant when
        |a_i| > |c_i| for every map, CDominant when |a_i| < |c_i| for every
        map, and "None" otherwise (any tie).  Every layer reads it here."""
        if self._upper_right is not None:
            return None
        diagonals = [(abs(f.linear.a11), abs(f.linear.a22)) for f in self.maps]
        if all(a > c for a, c in diagonals):
            return "ADominant"
        return "CDominant" if all(a < c for a, c in diagonals) else "None"

    @cached_property
    def _upper_right(self) -> Optional[int]:
        """The first map (1-based) with a nonzero upper-right entry, or None."""
        return next((k + 1 for k, f in enumerate(self.maps)
                     if not f.linear.is_lower_triangular()), None)

    @cached_property
    def columns(self) -> tuple:
        """Entry columns (a11, a12, a21, a22, tx, ty) of the float maps, one
        entry per map: the operands of the batched 2x2 kernel."""
        table = np.array([f.linear.entries() + tuple(f.translation) for f in self.maps],
                         dtype=float)
        return tuple(table.T)

    @cached_property
    def step_columns(self) -> tuple:
        """``columns`` as the sampling kernels read them at each step: a
        column shared by every map is that one Python float
        (:func:`shared_columns`)."""
        return shared_columns(self.columns)

    @cached_property
    def symbols(self) -> tuple:
        """The merged alphabet of the pressure and the exponent enclosure,
        which ignore translations: the map indices of each distinct linear
        part, in order of first appearance."""
        groups = {}
        for i, f in enumerate(self.maps):
            groups.setdefault(f.linear, []).append(i)
        return tuple(tuple(g) for g in groups.values())

    @cached_property
    def symbol_entries(self) -> tuple:
        """The float linear entries (a11, a12, a21, a22) of each symbol's
        first map: the operands of the list instance's kernels."""
        return tuple(self.maps[g[0]].linear.to_float().entries() for g in self.symbols)

    @cached_property
    def max_norm(self) -> float:
        return max(operator_norm(f.linear) for f in self.maps)

    @cached_property
    def certificate(self):
        """The dominated-splitting certificate of :func:`splitting.certify`,
        computed once per system: ``analyze``, the T4.1 statuses and every
        direction routine read it."""
        from .splitting import certify  # splitting imports this module

        return certify(self)

    @cached_property
    def bounding_radius(self) -> float:
        """Radius R with |f_i(x)| <= R whenever |x| <= R; covers the attractor."""
        tmax = max(math.hypot(*map(float, f.translation)) for f in self.maps)
        return tmax / (1.0 - self.max_norm) if tmax > 0 else 1.0


def check_triangular_split(sys: IfsSystem) -> str:
    """``IfsSystem.triangular``: ADominant, CDominant or "None"; NotTriangular,
    naming the first map with a nonzero upper-right entry, when it is None."""
    if sys.triangular is None:
        raise NotTriangular(f"map {sys._upper_right} has a nonzero upper-right entry")
    return sys.triangular


def abs_diagonals(sys: IfsSystem):
    """|a_i| and |c_i| of a lower-triangular system as tuples of floats, the
    dominant diagonal first: (|c_i|, |a_i|) when it is c-dominant.
    NotTriangular otherwise."""
    a = tuple(abs(float(f.linear.a11)) for f in sys.maps)
    c = tuple(abs(float(f.linear.a22)) for f in sys.maps)
    return (c, a) if check_triangular_split(sys) == "CDominant" else (a, c)


@record
class BernoulliWeights:
    """Strictly positive probability vector over the symbols."""

    p: tuple

    def __post_init__(self):
        object.__setattr__(self, "p", tuple(self.p))
        if any(float(x) <= 0 for x in self.p):
            raise ValueError("weights must be strictly positive")
        if abs(sum(float(x) for x in self.p) - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1")

    @staticmethod
    def uniform(n: int) -> "BernoulliWeights":
        return BernoulliWeights((Fraction(1, n),) * n)

    def __len__(self):
        return len(self.p)

    @cached_property
    def as_array(self) -> np.ndarray:
        return np.array([float(x) for x in self.p])

    @cached_property
    def _cdf(self) -> np.ndarray:
        cdf = self.as_array.cumsum()
        cdf /= cdf[-1]
        return cdf

    @cached_property
    def _cuts(self) -> tuple:
        """The raw word ceil(c 2^53) << 11 of each inner value c < 1 of the
        normalised cdf: Philox's double of a word w is (w >> 11) 2^-53, so it
        is >= c exactly when w is >= the cut.  A value c = 1 is never reached
        by a double below 1, and its cut would not fit 64 bits."""
        return tuple(np.uint64(math.ceil(c * 2.0 ** 53) << 11)
                     for c in self._cdf[:-1].tolist() if c < 1.0)

    def draw(self, gen: np.random.Generator, shape) -> np.ndarray:
        """Symbols 0..N-1 (intp), i.i.d. by the weights, of the given shape.

        Equal bit for bit to ``gen.choice(N, size=shape, p=self.as_array)``:
        each of the raw words behind its uniforms counts the cut words
        (``_cuts``) it reaches, as a uniform counts the cdf values it
        reaches.  One word is drawn per symbol even for N = 1, so every
        stream advances as ``choice`` advances it.  Philox hands out its
        words in C order, so consecutive draws of row blocks equal one draw
        of the stacked shape.
        """
        words = gen.bit_generator.random_raw(shape)
        count = np.zeros(words.shape, dtype=np.min_scalar_type(len(self._cuts)))
        for cut in self._cuts:
            count += words >= cut
        return count.astype(np.intp)


def shared_columns(cols) -> tuple:
    """``cols`` with each column whose entries are bitwise equal (as int64,
    so +0.0 and -0.0 differ) replaced by that entry as a Python float: a
    kernel multiplies by it instead of gathering it at every step, and gets
    the same bits."""
    return tuple(float(c[0]) if (c.view(np.int64) == c.view(np.int64)[0]).all() else c
                 for c in cols)


def gather(cols, syms) -> tuple:
    """The entries of :func:`shared_columns` ``cols`` at the symbols
    ``syms``: a shared entry as it is, any other column gathered."""
    return tuple(c if type(c) is float else c.take(syms) for c in cols)


def symbol_blocks(weights: BernoulliWeights, gen, count: int, depth: int):
    """Consecutive row blocks of one (count, depth) symbol draw, each of
    about SYMBOL_BLOCK symbols (at least one row).

    Stacked, the blocks equal ``weights.draw(gen, (count, depth))``, since
    Philox hands out its doubles in C order.
    """
    rows = max(1, SYMBOL_BLOCK // depth)
    for lo in range(0, count, rows):
        yield weights.draw(gen, (min(rows, count - lo), depth))


def draw_blockwise(weights: BernoulliWeights, gen, count: int, depth: int, kernel) -> np.ndarray:
    """``kernel`` applied to the :func:`symbol_blocks` of a (count, depth)
    draw, count >= 1, results concatenated along the first axis: a kernel
    that treats rows independently returns the values of one whole draw."""
    return np.concatenate([kernel(syms) for syms in symbol_blocks(weights, gen, count, depth)])


def validate_word(sys: IfsSystem, word: Sequence[int]) -> None:
    for s in word:
        if not 1 <= s <= sys.n:
            raise BadSymbol(f"symbol {s} outside 1..{sys.n}")


def compose_word(sys: IfsSystem, word: Sequence[int]) -> AffineMap:
    """f_w = f_{w_1} o ... o f_{w_n}; the empty word gives the identity.

    Folds the system maps directly (no identity factor), so the composition
    is exact in the system's Fractions.
    """
    validate_word(sys, word)
    if not word:
        return AffineMap.identity()
    out = sys.maps[word[-1] - 1]
    for s in reversed(word[:-1]):
        out = sys.maps[s - 1].compose(out)
    return out


class ProjectedPoint(NamedTuple):
    point: Vec2
    error_bound: float  # distance to the true infinite-word limit


def natural_projection(sys: IfsSystem, word: Sequence[int], seed: Vec2 = (0.0, 0.0)) -> ProjectedPoint:
    """Finite truncation f_w(seed) of the natural projection.

    The reported bound is alpha1(A_w) * diam of the invariant disk, which
    dominates the distance to the limit point of any extension of ``word``.
    alpha1(A_w) comes from the batched kernel, the product renormalised
    every step, so arbitrarily deep words never underflow.
    """
    if len(word) < 1:
        raise ValueError("natural_projection needs a non-empty word")
    validate_word(sys, word)
    x, y = _point_kernel(sys, seed)(np.array([word]) - 1)[0]
    prod, log_scale = (1.0, 0.0, 0.0, 1.0), 0.0
    for s in word:
        prod, scale = renormalise4(mul4(prod, tuple(c[s - 1] for c in sys.columns[:4])))
        log_scale += math.log(scale)
    bound = math.exp(log_scale + float(log_alpha1(numpy_ops())(*prod))) * 2.0 * sys.bounding_radius
    return ProjectedPoint((float(x), float(y)), bound)


def _point_kernel(sys: IfsSystem, seed_point: Vec2):
    """Function of a (count, depth) array of 0-based symbols giving the
    (count, 2) points f_w(seed_point), one word w per row.  Each step reads
    one row of a contiguous copy of the block's transpose, last symbol
    first, and multiplies by the shared entries of ``step_columns``."""
    cols = sys.step_columns

    def points(syms):
        x = np.full(len(syms), float(seed_point[0]))
        y = np.full(len(syms), float(seed_point[1]))
        for i in np.ascontiguousarray(syms.T[::-1]):
            *a, tx, ty = gather(cols, i)
            x, y = apply4(a, x, y)
            x += tx
            y += ty
        return np.column_stack([x, y])

    return points


def sample_measure(
    sys: IfsSystem,
    weights: BernoulliWeights,
    depth: int,
    count: int,
    rng_seed: int,
    seed_point: Vec2 = (0.0, 0.0),
) -> np.ndarray:
    """``count`` draws of f_w(seed_point) with w ~ weights^depth, as (count, 2).

    Philox is counter-based, so the stream is reproducible bit-for-bit and can
    be partitioned by sample index without changing values; the symbols are
    drawn in blocks of samples.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if count < 1:
        raise ValueError("count must be >= 1")
    if len(weights) != sys.n:
        raise ValueError("weights length does not match the system")
    return draw_blockwise(weights, rng(rng_seed), count, depth, _point_kernel(sys, seed_point))


@record
class EstimateSeries:
    """Log-log regression data of an empirical dimension estimator."""

    scales: tuple  # strictly decreasing
    counts: tuple  # box counts or correlation integrals per scale
    slope: float
    r2: float

    def __post_init__(self):
        if len(self.scales) < 4:
            raise ValueError("need at least 4 scales")
        if any(a <= b for a, b in zip(self.scales, self.scales[1:])):
            raise ValueError("scales must be strictly decreasing")


def _least_squares(x: np.ndarray, y: np.ndarray) -> Tuple[float, float]:
    xm, ym = x.mean(), y.mean()
    sxx = float(np.sum((x - xm) ** 2))
    sxy = float(np.sum((x - xm) * (y - ym)))
    if sxx == 0.0:
        return 0.0, 1.0
    slope = sxy / sxx
    pred = ym + slope * (x - xm)
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - ym) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else max(0.0, 1.0 - ss_res / ss_tot)
    return slope, r2


def box_dimension_estimate(points: np.ndarray, k_min: int, k_max: int) -> EstimateSeries:
    """Occupied-box counts on the dyadic grids 2^-k, k = k_min..k_max, and the
    least-squares slope of log count against k log 2.

    Counts are exact at every k: the cells are exact floats, packed into one
    exact key x 2^26 + y while |x|, |y| < 2^25, and otherwise compared as
    complex numbers, which sort by x, then y; sorted neighbours count them
    without ``np.unique``, which imports ``numpy.ma``."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must be an (n, 2) array")
    if pts.shape[0] < 1000:
        raise TooFewPoints(f"need >= 1000 points, got {pts.shape[0]}")
    if not 1 <= k_min <= k_max - 3:
        raise ValueError("need k_max >= k_min + 3 >= 4 (four scales)")
    if not np.abs(pts).max() < 2.0 ** (1024 - k_max):
        raise ValueError("points * 2^k_max overflow float64")
    ks = list(range(k_min, k_max + 1))
    counts = []
    for k in ks:
        cell = np.floor(np.ldexp(pts, k))  # exact: scaling by 2^k rounds nothing
        if np.abs(cell).max() < 2.0 ** 25:
            key = cell[:, 0] * 2.0 ** 26 + cell[:, 1]
        else:
            key = cell.view(np.complex128)
        key = np.sort(key, axis=None)
        counts.append(1 + int(np.count_nonzero(key[1:] != key[:-1])))
    x = np.array([k * math.log(2.0) for k in ks])
    y = np.log(np.array(counts, dtype=float))
    slope, r2 = _least_squares(x, y)
    return EstimateSeries(
        scales=tuple(0.5 ** k for k in ks), counts=tuple(counts), slope=slope, r2=r2
    )


# ---------------------------------------------------------------------------
# Convex polygons and the strong separation condition
# ---------------------------------------------------------------------------


def _cross(o, a, b):
    return det4((a[0] - o[0], b[0] - o[0], a[1] - o[1], b[1] - o[1]))


@record
class Polygon:
    """Convex polygon; vertices are canonicalized to counterclockwise order."""

    vertices: tuple

    def __post_init__(self):
        verts = tuple(tuple(v) for v in self.vertices)
        if len(verts) < 3:
            raise NonConvexPolygon("polygon needs at least 3 vertices")
        area2 = sum(det4((a[0], b[0], a[1], b[1])) for a, b in zip(verts, verts[1:] + verts[:1]))
        if area2 == 0:
            raise NonConvexPolygon("polygon is degenerate")
        if area2 < 0:
            verts = tuple(reversed(verts))
        n = len(verts)
        for i in range(n):
            c = _cross(verts[i], verts[(i + 1) % n], verts[(i + 2) % n])
            if c < 0:
                raise NonConvexPolygon(f"reflex corner at vertex {(i + 1) % n}")
        object.__setattr__(self, "vertices", verts)

    def __len__(self):
        return len(self.vertices)

    def edges(self):
        n = len(self.vertices)
        return [(self.vertices[i], self.vertices[(i + 1) % n]) for i in range(n)]

    def centroid(self) -> Vec2:
        n = len(self.vertices)
        sx = sum(v[0] for v in self.vertices)
        sy = sum(v[1] for v in self.vertices)
        return (sx / n, sy / n)

    def to_float(self) -> "Polygon":
        return Polygon(tuple((float(x), float(y)) for x, y in self.vertices))

    def transform(self, f: AffineMap) -> "Polygon":
        return Polygon(tuple(f.apply(v) for v in self.vertices))

    def bounding_box(self):
        xs = [float(v[0]) for v in self.vertices]
        ys = [float(v[1]) for v in self.vertices]
        return min(xs), min(ys), max(xs), max(ys)


def _project_interval(poly: Polygon, axis):
    dots = [v[0] * axis[0] + v[1] * axis[1] for v in poly.vertices]
    return min(dots), max(dots)


def polygons_disjoint(p: Polygon, q: Polygon) -> bool:
    """Separating axis test over the edge normals of both polygons."""
    for poly in (p, q):
        for (a, b) in poly.edges():
            axis = (b[1] - a[1], a[0] - b[0])  # outward-ish normal, unnormalized
            pmin, pmax = _project_interval(p, axis)
            qmin, qmax = _project_interval(q, axis)
            if pmax < qmin or qmax < pmin:
                return True
    return False


def _point_segment_dist2(pt, a, b):
    """Squared distance point-to-segment; exact on rational input."""
    abx, aby = b[0] - a[0], b[1] - a[1]
    apx, apy = pt[0] - a[0], pt[1] - a[1]
    denom = abx * abx + aby * aby
    tnum = apx * abx + apy * aby
    if tnum <= 0:  # includes a degenerate segment, where tnum = 0
        return apx * apx + apy * apy
    if tnum >= denom:
        dx, dy = pt[0] - b[0], pt[1] - b[1]
        return dx * dx + dy * dy
    # foot inside the segment: dist^2 = cross^2 / |ab|^2
    cr = det4((apx, apy, abx, aby))
    return cr * cr / denom


def polygon_distance2(p: Polygon, q: Polygon):
    """Squared Euclidean distance between convex polygons (0 if they meet)."""
    if not polygons_disjoint(p, q):
        return 0
    best = None
    for poly_a, poly_b in ((p, q), (q, p)):
        for v in poly_a.vertices:
            for (a, b) in poly_b.edges():
                d2 = _point_segment_dist2(v, a, b)
                if best is None or d2 < best:
                    best = d2
    return best


@record
class SscReport:
    """Outcome of the strong separation check against an open polygon."""

    holds: bool
    kappa: float  # min pairwise distance between image polygons
    margin: float  # min distance from image polygons to the boundary of O
    witness: Optional[str] = None


def check_ssc(sys: IfsSystem, polygon: Polygon) -> SscReport:
    """Check f_i(closure(O)) inside O with pairwise disjoint images.

    ``holds`` requires every image polygon strictly inside ``polygon`` and
    the image polygons pairwise at a positive distance.  The polygon's
    vertices are converted to Fractions like the system's entries, so every
    comparison is exact and touching images fail cleanly.
    """
    polygon = Polygon(tuple(tuple(map(Fraction, v)) for v in polygon.vertices))
    images = [polygon.transform(f) for f in sys.maps]

    # (a) containment with margin.  For an interior point of a convex polygon
    # the boundary distance is the min over edges of the distance to the edge
    # line, and that min over a convex image polygon is attained at an image
    # vertex.  sign(d) * d^2 is monotone in the signed distance d, so the
    # minimum can be taken exactly.
    margin_sd2 = None  # signed squared line distance; negative = outside
    margin_witness = None
    for i, img in enumerate(images):
        for (a, b) in polygon.edges():
            ex, ey = b[0] - a[0], b[1] - a[1]
            elen2 = ex * ex + ey * ey
            for v in img.vertices:
                cr = _cross(a, b, v)  # > 0 strictly inside (ccw polygon)
                sd2 = cr * cr / elen2
                if cr < 0:
                    sd2 = -sd2
                if margin_sd2 is None or sd2 < margin_sd2:
                    margin_sd2 = sd2
                    if cr <= 0:
                        x, y = (format_number(c) for c in v)
                        margin_witness = f"image {i + 1} vertex ({x}, {y}) not interior to O"
    margin = math.copysign(math.sqrt(abs(float(margin_sd2))), float(margin_sd2))

    # (b) pairwise disjointness
    kappa2 = None
    pair_witness = None
    for i in range(len(images)):
        for j in range(i + 1, len(images)):
            d2 = polygon_distance2(images[i], images[j])
            if kappa2 is None or d2 < kappa2:
                kappa2 = d2
                pair_witness = f"images {i + 1} and {j + 1} meet"
    kappa = math.sqrt(float(kappa2)) if kappa2 is not None else math.inf

    contained = margin_sd2 > 0
    separated = kappa2 is None or kappa2 > 0
    holds = bool(contained and separated)
    witness = None if holds else margin_witness if not contained else pair_witness
    return SscReport(holds=holds, kappa=kappa, margin=margin, witness=witness)


# ---------------------------------------------------------------------------
# Config file format
# ---------------------------------------------------------------------------
#
#   # comments and blank lines are ignored
#   label <name>
#   map a11 a12 a21 a22 t1 t2        (one row per map, N rows)
#   weights p1 ... pN                (optional)
#   polygon x y                      (optional, one row per vertex, >= 3 rows)
#
# Numbers are decimals or rationals "p/q"; everything is kept exact.


class ParsedSystem(NamedTuple):
    system: IfsSystem
    weights: Optional[BernoulliWeights]
    polygon: Optional[Polygon]


def _parse_number(token: str, lineno: int):
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad number {token!r}", line=lineno) from None


def parse_system(text: str) -> ParsedSystem:
    label = None
    rows = []
    weights_row = None
    poly_rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        key, args = parts[0].lower(), parts[1:]
        if key == "label":
            if not args:
                raise ParseError("label needs a value", line=lineno)
            label = " ".join(args)
        elif key == "map":
            if len(args) != 6:
                raise ParseError(
                    f"map row needs 6 numbers (a11 a12 a21 a22 t1 t2), got {len(args)}",
                    line=lineno,
                )
            rows.append(tuple(_parse_number(tok, lineno) for tok in args))
        elif key == "weights":
            if weights_row is not None:
                raise ParseError("duplicate weights row", line=lineno)
            weights_row = (lineno, [_parse_number(tok, lineno) for tok in args])
        elif key == "polygon":
            if len(args) != 2:
                raise ParseError("polygon row needs 2 numbers (x y)", line=lineno)
            poly_rows.append(tuple(_parse_number(tok, lineno) for tok in args))
        else:
            raise ParseError(f"unknown directive {key!r}", line=lineno)

    if not rows:
        raise ParseError("config has no map rows")
    maps = tuple(
        AffineMap(Mat2(r[0], r[1], r[2], r[3]), (r[4], r[5])) for r in rows
    )
    try:
        system = IfsSystem(maps, label=label)
    except ValueError as e:
        raise ParseError(str(e)) from None

    weights = None
    if weights_row is not None:
        lineno, vals = weights_row
        if len(vals) != len(maps):
            raise ParseError(
                f"weights row has {len(vals)} entries for {len(maps)} maps", line=lineno
            )
        try:
            weights = BernoulliWeights(tuple(vals))
        except ValueError as e:
            raise ParseError(str(e), line=lineno) from None

    poly = None
    if poly_rows:
        try:
            poly = Polygon(tuple(poly_rows))
        except NonConvexPolygon as e:
            raise ParseError(f"bad polygon: {e}") from None
    return ParsedSystem(system, weights, poly)


def format_number(x) -> str:
    """Text of a number in every report, table and config: ints and
    Fractions exactly ("n" or "n/d"), strings as they are, and any other
    number as repr(float(x)), so a numpy scalar prints like a float."""
    if type(x) is float:  # the common case, kept cheap for long tables
        return repr(x)
    if isinstance(x, (int, str, Fraction)):
        return str(x)
    return repr(float(x))


def serialize_system(
    sys: IfsSystem,
    weights: Optional[BernoulliWeights] = None,
    polygon: Optional[Polygon] = None,
) -> str:
    lines = []
    if sys.label:
        lines.append(f"label {sys.label}")
    for f in sys.maps:
        a = f.linear
        nums = (a.a11, a.a12, a.a21, a.a22, f.translation[0], f.translation[1])
        lines.append("map " + " ".join(format_number(x) for x in nums))
    if weights is not None:
        lines.append("weights " + " ".join(format_number(x) for x in weights.p))
    if polygon is not None:
        for v in polygon.vertices:
            lines.append(f"polygon {format_number(v[0])} {format_number(v[1])}")
    return "\n".join(lines) + "\n"
