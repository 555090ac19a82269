"""Small exact linear algebra: 2x2 matrices, singular values, the projective line.

Entries may be floats or ``fractions.Fraction``: an IFS holds Fractions,
while the splitting certificate and the renderer run float matrices.
Products, determinants and triangular predicates are exact on Fractions.
Anything involving a square root (singular values, angles) is computed in
float.

The batched 2x2 kernel (:func:`mul4`, :func:`det4`, :func:`apply4`,
:func:`renormalise4`, :func:`log_alpha1`) is the one place that writes out a
2x2 product, determinant or matrix-vector image, for ``Mat2``, the singular
values, the word products, sampled points, cylinders and direction angles.
:func:`word_blocks` enumerates the words of the pressure and the exponent
enclosure in bounded blocks.  The operands are entry 4-tuples: a system's
per-map float entries are ``IfsSystem.columns``, and the merged alphabet's are
``IfsSystem.symbol_entries`` transposed.  A formula of a word walk is written
once, over the ``Ops`` its caller binds in: one instance maps it over lists of
Python floats with libm (:data:`LIBM`), the other calls it on numpy arrays
(:func:`numpy_ops`).  Both make the same operations in the same order, so they
give the same bits wherever numpy's loops equal libm's: under AVX2 dispatch,
but for ``math.hypot``, which is CPython's own; numpy's AVX512 log may differ
by 1 ulp.  Each caller keeps its own renormalisation cadence, and that cadence
is part of the output bytes: it decides the last bits.  Four kernels run once
per word or point on Python floats and write their arithmetic out, as a call
costs more there (Python 3.11, shared Xeon):

- :func:`prepend_each`: 10 ms for 16,384 products, 23 ms through ``mul4``;
- :func:`log_alpha1`'s kernel: 16 ms for 32,768 words, 21 ms through ``det4``;
- ``ergodic._arc_values``: hl-demo's enclosure 36.8 ms, 41.6 ms with calls;
- ``render.render_chaos``'s orbit: 18 ms for 200,100 steps, 62 ms via ``apply4``.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections import namedtuple
from fractions import Fraction
from typing import NamedTuple, Optional

from ._numpy import np
from ._record import record
from .errors import NegativeExponent, SingularMatrix

# |det| below this is treated as singular: keeps inverse norms finite.
DET_FLOOR = 1e-300


@record
class Mat2:
    """2x2 real matrix [[a11, a12], [a21, a22]]."""

    a11: object
    a12: object
    a21: object
    a22: object

    def __init__(self, a11, a12, a21, a22):  # built in inner loops: a fixed signature
        object.__setattr__(self, "a11", a11)
        object.__setattr__(self, "a12", a12)
        object.__setattr__(self, "a21", a21)
        object.__setattr__(self, "a22", a22)

    @staticmethod
    def identity() -> "Mat2":
        return Mat2(1.0, 0.0, 0.0, 1.0)

    @staticmethod
    def diagonal(a, c) -> "Mat2":
        return Mat2(a, 0, 0, c)

    @staticmethod
    def lower_triangular(a, b, c) -> "Mat2":
        """[[a, 0], [b, c]] -- the shape used throughout the triangular theory."""
        return Mat2(a, 0, b, c)

    @staticmethod
    def rotation(phi: float) -> "Mat2":
        return Mat2(math.cos(phi), -math.sin(phi), math.sin(phi), math.cos(phi))

    @property
    def det(self):
        return det4(self.entries())

    def entries(self):
        return (self.a11, self.a12, self.a21, self.a22)

    def is_lower_triangular(self) -> bool:
        return self.a12 == 0

    def to_float(self) -> "Mat2":
        return Mat2(float(self.a11), float(self.a12), float(self.a21), float(self.a22))

    def __matmul__(self, other: "Mat2") -> "Mat2":
        return Mat2(*mul4(self.entries(), other.entries()))

    def apply(self, v):
        return apply4(self.entries(), *v)

    def scaled(self, s) -> "Mat2":
        return Mat2(self.a11 * s, self.a12 * s, self.a21 * s, self.a22 * s)

    def inverse(self) -> "Mat2":
        d = self.det
        if abs(d) < DET_FLOOR:
            raise SingularMatrix(f"|det| = {abs(d)} below floor {DET_FLOOR}")
        inv = Fraction(1) / d if isinstance(d, (int, Fraction)) else 1.0 / d
        return Mat2(self.a22 * inv, -self.a12 * inv, -self.a21 * inv, self.a11 * inv)


class SingularPair(NamedTuple):
    """Ordered singular values alpha1 >= alpha2 > 0 of a nonsingular matrix."""

    alpha1: float
    alpha2: float


def singular_values(m: Mat2) -> SingularPair:
    """Closed-form singular values of a nonsingular 2x2 matrix.

    alpha1^2 is the larger eigenvalue of M M^T:
    alpha1^2 = (T + sqrt(T^2 - 4 D^2)) / 2 with T = tr(M M^T), D = det M.
    alpha2 is recovered from alpha1 * alpha2 = |D| so the product identity is
    exact; the inner sqrt argument is clamped at 0 against round-off.
    """
    det = det4(tuple(map(float, m.entries())))
    if abs(det) < DET_FLOOR:
        raise SingularMatrix(f"|det| = {abs(det)} below floor {DET_FLOOR}")
    alpha1 = operator_norm(m)
    return SingularPair(alpha1, abs(det) / alpha1)


def operator_norm(m: Mat2) -> float:
    """alpha1 of a 2x2 matrix, in the closed form of :func:`singular_values`."""
    e = a, b, c, d = tuple(map(float, m.entries()))
    t = a * a + b * b + c * c + d * d
    det = det4(e)
    return math.sqrt((t + math.sqrt(max(t * t - 4.0 * det * det, 0.0))) / 2.0)


def phi_s(m: Mat2, s: float) -> float:
    """Singular value function phi^s driving the subadditive pressure.

    alpha1^s on [0,1], alpha1 * alpha2^(s-1) on (1,2], (alpha1*alpha2)^(s/2)
    beyond; continuous at the breakpoints.
    """
    if s < 0:
        raise NegativeExponent(f"s = {s} < 0")
    a1, a2 = singular_values(m)
    if s <= 1:
        return a1 ** s
    if s <= 2:
        return a1 * a2 ** (s - 1.0)
    return (a1 * a2) ** (s / 2.0)


# ---------------------------------------------------------------------------
# Batched 2x2 kernel: a batch of matrices is the 4-tuple (m11, m12, m21, m22)
# of entry arrays, and operands broadcast against each other.
# ---------------------------------------------------------------------------


def det4(m) -> np.ndarray:
    m11, m12, m21, m22 = m
    return m11 * m22 - m12 * m21


def mul4(p, q) -> tuple:
    """Entry 4-tuple of the products P Q."""
    p11, p12, p21, p22 = p
    q11, q12, q21, q22 = q
    return (p11 * q11 + p12 * q21, p11 * q12 + p12 * q22,
            p21 * q11 + p22 * q21, p21 * q12 + p22 * q22)


def apply4(m, x, y) -> tuple:
    """The images M (x, y) as an (x, y) pair, matrices and vectors broadcast."""
    m11, m12, m21, m22 = m
    return m11 * x + m12 * y, m21 * x + m22 * y


def renormalise4(m) -> tuple:
    """(m / scale, scale) with scale the largest |entry| of each matrix."""
    m11, m12, m21, m22 = m
    scale = np.maximum(np.maximum(np.abs(m11), np.abs(m12)),
                       np.maximum(np.abs(m21), np.abs(m22)))
    return (m11 / scale, m12 / scale, m21 / scale, m22 / scale), scale


def prepend_each(syms, words) -> tuple:
    """``renormalise4(mul4(A, words))`` for every matrix A of ``syms``
    (4-tuples of Python floats), on a batch of words given as four entry
    lists: the products' four entry lists and their scales, A the slowest
    index.  The operations are the batched kernel's, so are the values."""
    out, scales = ([], [], [], []), []
    q11, q12, q21, q22 = words
    for a11, a12, a21, a22 in syms:
        m = ([a11 * x + a12 * y for x, y in zip(q11, q21)],
             [a11 * x + a12 * y for x, y in zip(q12, q22)],
             [a21 * x + a22 * y for x, y in zip(q11, q21)],
             [a21 * x + a22 * y for x, y in zip(q12, q22)])
        # renormalise4's max(max(|m11|, |m12|), max(|m21|, |m22|)), inline
        scale = [x if (x := a if a > b else b) > (y := c if c > d else d) else y
                 for a, b, c, d in zip(*(map(abs, entries) for entries in m))]
        for o, c in zip(out, m):
            o.extend(map(operator.truediv, c, scale))
        scales.extend(scale)
    return out, scales


def _each(f, *words) -> list:
    """``f`` over lists of words, a float argument shared by all, as numpy broadcasts it."""
    return list(map(f, *(itertools.repeat(w) if isinstance(w, float) else w for w in words)))


# What a word walk is written over, bound in by its caller: the formulas' operations;
# ``each``, which maps a formula over lists of words or calls it on arrays; the
# containers' constructors; ``outer``, a formula over all pairs; and ``products``, the
# renormalised products of each matrix of a list with each word, the matrix slowest.
Ops = namedtuple("Ops", "log sqrt hypot atan2 maximum minimum each vector zeros tile outer "
                        "products")
LIBM = Ops(math.log, math.sqrt, math.hypot, math.atan2, max, min, _each, list,
           lambda k: [0.0] * k, operator.mul,
           lambda f, a, b: [v for x in a for v in map(f, itertools.repeat(x), b)], prepend_each)


@functools.cache
def numpy_ops() -> Ops:
    """:data:`LIBM`'s numpy twin, built on first use: imports execute no numpy."""
    def products(syms, words):
        lead = syms[0] if len(syms) == 1 else tuple(np.array(c)[:, None] for c in zip(*syms))
        e, scale = renormalise4(mul4(lead, words))
        return tuple(x.ravel() for x in e), scale.ravel()

    return Ops(np.log, np.sqrt, np.hypot, np.arctan2, np.maximum, np.minimum,
               lambda f, *words: f(*words), np.array, np.zeros,
               lambda x, k: x if k == 1 else np.tile(x, k),
               lambda f, a, b: f(np.asarray(a)[:, None], b).ravel(), products)


def log_alpha1(ops: Ops):
    """The function of the entries (m11, m12, m21, m22) that gives log alpha1
    of the matrix, from T = tr(M M^T) and D = det M as in
    :func:`singular_values`, on ``ops``: scalars with :data:`LIBM`, or
    elementwise on arrays with :func:`numpy_ops`."""
    log, sqrt, maximum = ops.log, ops.sqrt, ops.maximum

    def kernel(m11, m12, m21, m22):
        t = m11 * m11 + m12 * m12 + m21 * m21 + m22 * m22
        dn = m11 * m22 - m12 * m21
        return 0.5 * log((t + sqrt(maximum(t * t - 4.0 * dn * dn, 0.0))) / 2.0)

    return kernel


def word_blocks(level_one, prepend, n_sym: int, n: int, block: int):
    """Every length-n word over ``n_sym`` symbols, in lexicographic order with
    the leading symbol as the slowest digit, as (start, words) blocks:
    ``start`` is the index of the block's first word.

    ``level_one`` holds the one-symbol words, and ``prepend(words, i)``
    returns ``words`` with symbol ``i`` prepended, or with every symbol
    prepended (one block of words per symbol) when ``i`` is None.  The last
    symbols are built level by level, at the call, while a level holds at
    most ``block`` words; the returned generator then prepends the leading
    symbols depth first, so each level keeps one block alive at a time.
    """
    words, depth = level_one, 1
    while depth < n and n_sym ** (depth + 1) <= block:
        words = prepend(words, None)
        depth += 1
    return _walk(words, depth, 0, prepend, n_sym, n)


def _walk(words, depth, start, prepend, n_sym, n):
    if depth == n:
        yield start, words
        return
    for i in range(n_sym):
        yield from _walk(prepend(words, i), depth + 1, start + i * n_sym ** depth,
                         prepend, n_sym, n)


# ---------------------------------------------------------------------------
# Projective line P^1: directions as canonical angles in [0, pi).
# ---------------------------------------------------------------------------


def _canonical_angle(theta: float) -> float:
    t = math.fmod(theta, math.pi)
    if t <= 0.0:  # -0.0 as well, so that the seam gives +0.0
        t += math.pi
    if t >= math.pi:  # fmod round-off at the seam
        t -= math.pi
    return t


@record
class ProjPoint:
    """A direction line through the origin, stored as its angle in [0, pi)."""

    theta: float

    def __init__(self, theta):
        object.__setattr__(self, "theta", _canonical_angle(float(theta)))

    @staticmethod
    def from_vector(x: float, y: float) -> "ProjPoint":
        if x == 0.0 and y == 0.0:
            raise ValueError("zero vector has no direction")
        return ProjPoint(math.atan2(y, x))

    @staticmethod
    def from_slope(slope: float) -> "ProjPoint":
        """Direction of the vector (1, slope)."""
        return ProjPoint(math.atan(slope))

    def to_vector(self):
        return (math.cos(self.theta), math.sin(self.theta))


def proj_act(m: Mat2, p: ProjPoint) -> ProjPoint:
    """Image of the direction p under the linear map m, as a direction."""
    if abs(float(m.det)) < DET_FLOOR:
        raise SingularMatrix("projective action needs a nonsingular matrix")
    return ProjPoint.from_vector(*m.apply(p.to_vector()))


def proj_metric(p1: ProjPoint, p2: ProjPoint) -> float:
    """|sin(theta1 - theta2)|: symmetric, zero iff the directions coincide."""
    return abs(math.sin(p1.theta - p2.theta))


def angle_gap(a: float, b: float) -> float:
    """Counterclockwise angular distance from a to b on the period-pi circle."""
    return _canonical_angle(b - a)


@record
class ProjArc:
    """Closed angular arc on P^1, counterclockwise from start to end.

    Length is the ccw gap (end - start) mod pi and must lie in (0, pi).
    """

    start: ProjPoint
    end: ProjPoint

    def __init__(self, start, end):
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "end", end)
        if not 0.0 < self.length < math.pi:
            raise ValueError(
                f"arc length {self.length} outside (0, pi); endpoints must differ"
            )

    @staticmethod
    def from_angles(start: float, end: float) -> "ProjArc":
        return ProjArc(ProjPoint(start), ProjPoint(end))

    @staticmethod
    def around(center: float, half_width: float) -> "ProjArc":
        return ProjArc.from_angles(center - half_width, center + half_width)

    @property
    def length(self) -> float:
        return angle_gap(self.start.theta, self.end.theta)

    @property
    def midpoint(self) -> ProjPoint:
        return ProjPoint(self.start.theta + 0.5 * self.length)

    def contains(self, p: ProjPoint) -> bool:
        """True if p lies on the closed arc."""
        return angle_gap(self.start.theta, p.theta) <= self.length

    def start_offset(self, other: "ProjArc") -> Optional[float]:
        """The ccw gap from this arc's start to the start of ``other`` when
        ``other`` starts on this arc, else None."""
        off = angle_gap(self.start.theta, other.start.theta)
        return off if off <= self.length else None

    def intersects(self, other: "ProjArc") -> bool:
        """Closed arcs meet iff one of them starts on the other."""
        return self.start_offset(other) is not None or other.start_offset(self) is not None

    def overlap(self, other: "ProjArc") -> float:
        """Length of the overlap of two arcs (0 when disjoint or just touching)."""
        best = 0.0
        for first, second in ((self, other), (other, self)):
            off = first.start_offset(second)
            if off is not None:
                best = max(best, min(first.length - off, second.length))
        return best


def arc_image(m: Mat2, arc: ProjArc) -> ProjArc:
    """Image arc of a closed arc under a nonsingular linear map.

    Endpoints map to endpoints; which of the two candidate arcs is the image
    is decided by requiring the image of the arc midpoint to lie inside.
    """
    p1 = proj_act(m, arc.start)
    p2 = proj_act(m, arc.end)
    mid = proj_act(m, arc.midpoint)
    cand = ProjArc(p1, p2)
    if cand.contains(mid):
        return cand
    return ProjArc(p2, p1)
