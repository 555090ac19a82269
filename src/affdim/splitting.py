"""Dominated-splitting certification and the invariant direction fields.

Certification runs three routes in precedence order: the exact triangular
criterion, the exact positivity criterion, then a numeric multicone
invariance check of a best-effort proposal.  A failed numeric route yields
Unknown, never Refuted; the only refutations are exact obstructions (a
generator with equal singular values keeps the ratio alpha1/alpha2 at one
along its own powers).  The proposal grows from the attracting eigenlines of
the generators and of their products of two, so certification draws no
random numbers and executes no numpy, on any system.

The certificate's forward multicone (``SplitReport.multicone``) and its
complement (``SplitReport.backward_cone``) are the only cones that the
backward check and the direction routines read, and :func:`nest` is the one
nesting test of image arcs, forward and backward.

Direction fields: e_ss depends on the forward word and is computed either from
products of inverse matrices on the certificate's cone (generic) or by the
explicit slope series for lower-triangular systems with dominant second
diagonal.  e_s is the mirror, and one routine serves both fields: e_ss takes
the future word, the inverse maps, the backward cone and the series
(-b/c, a/c), and is pinned vertical for a-dominant systems; e_s takes the past
word from its most recent symbol, the forward maps, the forward cone and the
series (b/a, c/a), and is pinned vertical for c-dominant systems.

The folds read each step as one row of a contiguous copy of the symbol
block's transpose, and multiply by an entry that is bitwise equal for every
symbol (the inverse maps' included) as one float
(:func:`ifs.shared_columns`), which gives the bits of gathering it.

One route choice (:func:`_route`) and its folds serve the samplers and the
single-word functions alike: a single word is a one-row symbol array, so
``strong_stable_direction`` gives exactly the sampler's angle for the row that
holds its word.  A single word is read to its end, and PrefixTooShort is
raised unless the error bound after the whole word is below ``tol``.  Both
bounds hold for the limit of every extension of the word:

- series: the geometric tail max|num| |prefactor| / (1 - max|ratio|) of the
  slope, with the prefactor the product of the word's ratios;
- products: the largest |sin| gap between the product's images of the start,
  midpoint and end of every arc of the cone, since the limit and the returned
  image of the first arc's midpoint both lie in the image of the cone.
"""

from __future__ import annotations

import math
from itertools import combinations, permutations
from typing import Optional, Sequence

from ._numpy import np
from ._record import record
from .errors import NotCertified, NotTriangular, PrefixTooShort
from .ifs import (BernoulliWeights, IfsSystem, check_triangular_split, draw_blockwise, gather,
                  rng, shared_columns, validate_word)
from .linalg2 import (
    Mat2,
    ProjArc,
    ProjPoint,
    arc_image,
    det4,
    mul4,
    renormalise4,
    singular_values,
)

DEFAULT_TOL = 1e-12
SAMPLE_TOL = 1e-9  # direction accuracy that sets the samplers' default depth
PROPOSAL_INFLATE = 0.01  # half-width that fattens proposed directions into arcs
PROPOSAL_ROUNDS = 60  # image-absorbing rounds before a proposal gives up
# per field, the triangular case that pins it vertical and the one that sums its slope series
_PINNED = {"ss": "ADominant", "s": "CDominant"}
_SERIES = {"ss": "CDominant", "s": "ADominant"}


@record
class Multicone:
    """Finite disjoint union of closed angular arcs with total measure < pi."""

    arcs: tuple

    def __post_init__(self):
        arcs = tuple(self.arcs)
        if not arcs:
            raise ValueError("multicone needs at least one arc")
        if sum(a.length for a in arcs) >= math.pi:
            raise ValueError("multicone must have total measure < pi")
        order = sorted(arcs, key=lambda a: a.start.theta)
        for i, a in enumerate(order):
            for b in order[i + 1 :]:
                if a.intersects(b):  # closed arcs, so touching endpoints fail too
                    raise ValueError("multicone arcs must be disjoint with positive gaps")
        object.__setattr__(self, "arcs", tuple(order))

    def complement(self) -> "Multicone":
        """Closure of the complement: the gap arcs between the components."""
        following = self.arcs[1:] + self.arcs[:1]
        return Multicone(tuple(ProjArc(a.end, b.start) for a, b in zip(self.arcs, following)))

    def seed_point(self) -> ProjPoint:
        return self.arcs[0].midpoint


@record
class SplitReport:
    """Outcome of dominated-splitting certification."""

    verdict: str  # Certified | Refuted | Unknown
    method: Optional[str] = None  # Triangular | Positivity | MulticoneCheck
    multicone: Optional[Multicone] = None  # certifying forward multicone
    margin: float = 0.0  # min angular clearance of the invariance check
    triangular: Optional[str] = None  # ADominant | CDominant when applicable

    def __post_init__(self):
        if self.verdict == "Certified" and self.multicone is None:
            raise ValueError("a certified split carries its forward multicone")

    @property
    def certified(self) -> bool:
        return self.verdict == "Certified"

    @property
    def backward_cone(self) -> Optional[Multicone]:
        """Closure of the complement of the forward multicone: the cone of
        the backward non-overlapping check and of e_ss."""
        return None if self.multicone is None else self.multicone.complement()


def triangular_forward_cone(sys: IfsSystem, case: str) -> Multicone:
    """Explicit forward-invariant arc for a dominated triangular family.

    ADominant: slopes contract toward the e_s series, so a symmetric slope
    band |slope| <= K is invariant once K beats max|b/a| / (1 - max|c/a|).
    CDominant: slopes expand toward the vertical, so the band around the
    y-axis |slope| >= T is invariant once T beats max |b| / (|c| - |a|).
    """
    rows = [tuple(abs(float(x)) for x in f.linear.entries()) for f in sys.maps]
    if case == "ADominant":
        bound = max(b / a for a, _, b, _ in rows) / (1.0 - max(c / a for a, _, _, c in rows))
        k = max(bound * 1.001 + 1e-9, 0.01)
        half = math.atan(k)
        return Multicone((ProjArc.from_angles(-half, half),))
    if case == "CDominant":
        t0 = max(b / (c - a) for a, _, b, c in rows)
        t = max(t0 * 1.001 + 1e-9, 1.0)
        cut = math.atan(t)
        return Multicone((ProjArc.from_angles(cut, math.pi - cut),))
    raise ValueError(f"no cone for triangular case {case!r}")


def _sign_consistent(m: Mat2) -> bool:
    e = [float(x) for x in m.entries()]
    return all(x > 0 for x in e) or all(x < 0 for x in e)


def _is_similarity(m: Mat2) -> bool:
    """Exact test for alpha1 == alpha2 (M M^T a multiple of the identity)."""
    a, b, c, d = m.entries()
    return a * a + b * b == c * c + d * d and a * c + b * d == 0


def nest(linears, cone: Multicone) -> tuple:
    """(images, clearance) of ``cone`` under each linear map, in order:
    ``images`` holds the image arcs of the cone's arcs, one list per map, and
    ``clearance`` the least :func:`_clearance` of them.  Each map is made
    float once: the projective action of a Fraction entry is its float's."""
    images = [[arc_image(m, arc) for arc in cone.arcs] for m in map(Mat2.to_float, linears)]
    return images, min(_clearance(cone, img) for row in images for img in row)


def _clearance(cone: Multicone, img: ProjArc) -> float:
    """min(off, host.length - (off + img.length)), where ``host`` is the first
    arc of the cone that holds the start of ``img`` and ``off`` the ccw gap
    from the host's start to it; -inf when no arc holds it."""
    for host in cone.arcs:
        off = host.start_offset(img)
        if off is not None:
            return min(off, host.length - (off + img.length))
    return -math.inf


def check_multicone_invariance(sys: IfsSystem, m: Multicone) -> SplitReport:
    """Certified iff every generator maps every arc strictly inside the cone;
    reports the minimal clearance, -inf when an image leaves the cone."""
    _, clearance = nest((f.linear for f in sys.maps), m)
    if clearance < 0:
        clearance = -math.inf
    verdict = "Certified" if clearance > 0 else "Refuted"
    return SplitReport(verdict, method="MulticoneCheck", multicone=m, margin=clearance)


def attracting_line(m: Mat2) -> Optional[ProjPoint]:
    """The eigenline of the eigenvalue of larger modulus, from the closed
    form of a 2x2 eigenvector; None when the eigenvalues are complex or equal
    in modulus, decided exactly on rational entries."""
    a, b, c, d = m.entries()
    tr = a + d
    disc = (a - d) ** 2 + 4 * b * c
    if disc <= 0 or tr == 0:
        return None
    # with root = sign(tr) sqrt(disc), 2 lambda = tr + root, and both (2 lambda
    # - 2d, 2c) and (2b, 2 lambda - 2a) are eigenvectors: take the form whose
    # sum does not cancel
    root = math.copysign(math.sqrt(disc), tr)
    if (a - d) * tr >= 0:
        return ProjPoint.from_vector(float(a - d) + root, float(2 * c))
    return ProjPoint.from_vector(float(2 * b), float(d - a) + root)


def propose_multicone(sys: IfsSystem) -> Optional[SplitReport]:
    """The certifying report of a proposed forward multicone, or None.

    The attracting eigenlines of the generators and of their products of two
    are fattened into arcs; each round, every image arc that does not nest
    with clearance PROPOSAL_INFLATE / 4 is fattened and absorbed, until the
    cone nests or is hopeless (Bochi-Gourmelon: a dominated finite family has
    a strictly invariant multicone)."""
    linears = [f.linear for f in sys.maps]
    seeds = [attracting_line(m) for m in linears]
    seeds += [attracting_line(p @ q) for p, q in permutations(linears, 2)]
    angles = sorted({p.theta for p in seeds if p is not None})
    arcs = _merge_arcs([ProjArc.around(t, PROPOSAL_INFLATE) for t in angles])
    for _ in range(PROPOSAL_ROUNDS):
        if not arcs or sum(a.length for a in arcs) >= math.pi - 0.05:
            return None  # no seed, or the union nears the whole line
        cone = Multicone(tuple(arcs))  # merged arcs are disjoint
        images, clearance = nest(linears, cone)
        if clearance >= PROPOSAL_INFLATE / 4:
            return SplitReport("Certified", method="MulticoneCheck", multicone=cone,
                               margin=clearance)
        arcs = _merge_arcs(arcs + [ProjArc.around(img.midpoint.theta,
                                                  img.length / 2 + PROPOSAL_INFLATE)
                                   for row in images for img in row
                                   if _clearance(cone, img) < PROPOSAL_INFLATE / 4])
    return None


def _merge_arcs(arcs):
    """Union of circular arcs, merged while any pair touches; None if the
    union degenerates toward the full circle."""
    work = list(arcs)
    while True:
        for i, j in combinations(range(len(work)), 2):
            u = _union_two(work[i], work[j])
            if u is None:
                return None
            if u is not NotImplemented:
                work[j] = u
                del work[i]
                break
        else:
            return work


def _union_two(a: ProjArc, b: ProjArc):
    """Union arc if a and b touch or overlap; NotImplemented when disjoint;
    None when the union would cover the whole circle."""
    for first, second in ((a, b), (b, a)):
        off = first.start_offset(second)
        if off is not None:
            end = max(first.length, off + second.length)
            if end >= math.pi:
                return None
            return ProjArc.from_angles(first.start.theta, first.start.theta + end)
    return NotImplemented


def certify(sys: IfsSystem) -> SplitReport:
    """Dominated-splitting certification with route precedence
    triangular > positivity > proposed multicone."""
    if any(_is_similarity(f.linear) for f in sys.maps):
        return SplitReport("Refuted", method=None, margin=-math.inf)
    try:
        case = check_triangular_split(sys)
    except NotTriangular:
        case = None
    if case in ("ADominant", "CDominant"):
        cone = triangular_forward_cone(sys, case)
        checked = check_multicone_invariance(sys, cone)
        return SplitReport("Certified", method="Triangular", multicone=cone,
                           margin=checked.margin, triangular=case)
    if all(_sign_consistent(f.linear) for f in sys.maps):
        cone = Multicone((ProjArc.from_angles(0.0, math.pi / 2),))
        checked = check_multicone_invariance(sys, cone)
        if checked.certified:
            return SplitReport("Certified", method="Positivity", multicone=cone,
                               margin=checked.margin)
    return propose_multicone(sys) or SplitReport("Unknown")


def _require_certified(sys: IfsSystem, split: Optional[SplitReport]) -> SplitReport:
    if split is None:
        split = sys.certificate
    if not split.certified:
        raise NotCertified(f"dominated splitting not certified (verdict {split.verdict})")
    return split


def _slope_series(sys: IfsSystem, field: str):
    """(num, ratio) per symbol of the triangular slope series
    slope = sum_k num[w_k] * ratio[w_1] ... ratio[w_{k-1}]:
    (-b/c, a/c) for e_ss over the future word, (b/a, c/a) for e_s over the
    past word read from its most recent symbol."""
    a, _, b, c = sys.columns[:4]
    return (-b / c, a / c) if field == "ss" else (b / a, c / a)


def strong_stable_direction(
    sys: IfsSystem,
    prefix: Sequence[int],
    tol: float = DEFAULT_TOL,
    split: Optional[SplitReport] = None,
    method: str = "auto",
) -> ProjPoint:
    """Strong-stable direction e_ss for a one-sided forward word.

    ``method``: "auto" takes the samplers' route (pinned, series or products),
    "series" forces the slope series (triangular c-dominant only), "iterate"
    forces the inverse-matrix products on the certificate's backward cone.
    The whole word is read; PrefixTooShort is raised when the error bound
    after it, which bounds the distance to the limit of every extension of
    the word, is not below ``tol``.
    """
    split = _require_certified(sys, split)
    validate_word(sys, prefix)
    return _direction(sys, "ss", prefix, tol, split, method)


def stable_direction(
    sys: IfsSystem,
    suffix: Sequence[int],
    tol: float = DEFAULT_TOL,
    split: Optional[SplitReport] = None,
    method: str = "auto",
) -> ProjPoint:
    """Stable direction e_s for a one-sided past word (oldest symbol first).

    Mirror of :func:`strong_stable_direction` with forward products; the
    triangular shortcuts swap roles (c-dominant pins e_s to the y-axis).
    """
    split = _require_certified(sys, split)
    validate_word(sys, suffix)
    return _direction(sys, "s", tuple(reversed(suffix)), tol, split, method)


def _direction(sys, field, word, tol, split, method) -> ProjPoint:
    """e_ss (``field`` "ss", future word) or e_s ("s", past word from its
    most recent symbol): the route's folds on the one-row symbol array of
    ``word``, checked against ``tol`` with the route's error bound."""
    route = _route(sys, split, field, method)
    if route is None:
        return ProjPoint(math.pi / 2)
    fold, angles, error = route
    folded = fold(np.array([word], dtype=np.intp) - 1)
    bound = error(folded)
    if not bound < tol:
        raise PrefixTooShort(f"error bound {bound:.3g} after {len(word)} symbols above tol {tol}")
    return ProjPoint(float(angles(folded)[0]))


def _route(sys, split, field, method="auto"):
    """The route to e_ss (``field`` "ss") or e_s ("s"): None when the field is
    pinned vertical, else (fold, angles, error).  ``fold`` reads a
    (count, depth) array of 0-based symbols, one word per row, ``angles``
    turns what it returns into angles in [0, pi), and ``error`` gives the
    error bound of a one-row fold (see the module docstring)."""
    if method == "auto" and split.triangular == _PINNED[field]:
        return None
    if method in ("auto", "series") and split.triangular == _SERIES[field]:
        num, ratio = _slope_series(sys, field)
        steps = shared_columns((num, ratio))
        return (lambda syms: _series_fold(*steps, syms),
                lambda folded: _fold(list(map(math.atan, folded[0].tolist()))),
                lambda folded: float(np.max(np.abs(num))) * abs(float(folded[1][0]))
                / (1.0 - float(np.max(np.abs(ratio)))))
    if method == "series":
        case = _SERIES[field][0].lower()
        raise NotTriangular(f"slope series needs a lower-triangular {case}-dominant system")
    cols = sys.columns[:4]
    if field == "ss":  # inverse maps applied to the backward cone
        cone = split.backward_cone
        det = det4(cols)
        cols = (cols[3] / det, -cols[1] / det, -cols[2] / det, cols[0] / det)
    else:
        cone = split.multicone
    cols = shared_columns(cols)
    seed = cone.seed_point().to_vector()

    def error(prod):
        ends = [p.to_vector() for a in cone.arcs for p in (a.start, a.midpoint, a.end)]
        t = _image_angles(prod, np.array(ends).T).tolist()
        return max(abs(math.sin(x - y)) for x in t for y in t)

    return (lambda syms: _product_fold(cols, syms),
            lambda prod: _image_angles(prod, seed), error)


def default_direction_depth(sys: IfsSystem, split: SplitReport, field: str = "ss") -> int:
    """Word depth whose geometric tail bound for the direction iteration is
    below SAMPLE_TOL; heuristic contraction rate outside the triangular cases.

    ``field`` picks the target: "ss" needs depth along the future word,
    "s" along the past word; in the triangular cases one of the two fields
    is constant and needs depth one.
    """
    if split.triangular is not None:
        if split.triangular == _PINNED[field]:
            return 1
        r = float(np.max(np.abs(_slope_series(sys, field)[1])))
    else:
        r = max(a2 / a1 for a1, a2 in (singular_values(f.linear) for f in sys.maps))
        r = min(max(r, 1e-6), 0.97)
    return int(min(max(math.ceil(math.log(SAMPLE_TOL) / math.log(r)), 8), 400))


def sample_nu_ss_angles(
    sys: IfsSystem,
    weights: BernoulliWeights,
    depth: Optional[int],
    count: int,
    rng_seed: int,
    split: Optional[SplitReport] = None,
) -> np.ndarray:
    """Vectorized angle samples of the strong-stable direction distribution."""
    return _direction_angles(sys, weights, depth, count, rng_seed, split, "ss")


def sample_e_s_angles(
    sys: IfsSystem,
    weights: BernoulliWeights,
    depth: Optional[int],
    count: int,
    rng_seed: int,
    split: Optional[SplitReport] = None,
) -> np.ndarray:
    """Vectorized angle samples of the stable-direction distribution over
    random past words."""
    return _direction_angles(sys, weights, depth, count, rng_seed, split, "s")


def _direction_angles(sys, weights, depth, count, rng_seed, split, field) -> np.ndarray:
    """``count`` angles of e_ss (``field`` "ss", random future words, symbol
    stream 0) or e_s ("s", random past words, column k the k-th symbol into
    the past, stream 1); see the module docstring for the mirror."""
    split = _require_certified(sys, split)
    if count < 1:
        raise ValueError("count must be >= 1")
    if depth is None:
        depth = default_direction_depth(sys, split, field=field)
    if depth < 1:
        raise ValueError("depth must be >= 1")
    route = _route(sys, split, field)
    if route is None:
        return np.full(count, math.pi / 2)
    fold, angles, _ = route
    stream = 0 if field == "ss" else 1
    return draw_blockwise(weights, rng(rng_seed, stream=stream), count, depth,
                          lambda syms: angles(fold(syms)))


def _series_fold(num, ratio, syms) -> tuple:
    """(slopes, prefactors), one per row of ``syms``: the slope series summed
    over the row's word and the product of its ratios.  ``num`` and
    ``ratio`` come as :func:`ifs.shared_columns` returns them; each step
    reads one row of a contiguous copy of the block's transpose."""
    slopes = np.zeros(len(syms))
    pref = np.ones(len(syms))
    for i in np.ascontiguousarray(syms.T):
        num_i, ratio_i = gather((num, ratio), i)
        slopes += num_i * pref
        pref = pref * ratio_i
    return slopes, pref


def _product_fold(cols, syms) -> tuple:
    """M_{s_1} ... M_{s_depth}, one product per row of ``syms``, renormalised
    every step; ``cols`` holds the per-symbol entries of the M_i as
    :func:`ifs.shared_columns` returns them, and each step reads one row of
    a contiguous copy of the block's transpose."""
    count = len(syms)
    p = (np.ones(count), np.zeros(count), np.zeros(count), np.ones(count))
    for i in np.ascontiguousarray(syms.T):
        p, _ = renormalise4(mul4(p, gather(cols, i)))
    return p


def _image_angles(p, v) -> np.ndarray:
    """Angles in [0, pi) of the images P v of the vectors v = (vx, vy), the
    products and the vectors broadcast against each other."""
    vx, vy = v
    wx = p[0] * vx + p[1] * vy
    wy = p[2] * vx + p[3] * vy
    return _fold(list(map(math.atan2, wy.tolist(), wx.tolist())))


def _fold(angles) -> np.ndarray:
    """libm angles in [-pi, pi] folded into [0, pi) by correctly rounded
    operations, as ``ProjPoint`` folds them: +-pi and -0.0 give 0."""
    t = np.array(angles)
    t = np.where(t <= 0.0, t + math.pi, t)
    return np.where(t >= math.pi, t - math.pi, t)


def min_angle_separation(
    sys: IfsSystem,
    weights: BernoulliWeights,
    depth: Optional[int],
    count: int,
    rng_seed: int,
    split: Optional[SplitReport] = None,
    ss_angles: Optional[np.ndarray] = None,
) -> float:
    """Empirical min of |sin(e_s - e_ss)| over sampled pairs of past/future
    words; positive under dominated splitting.

    ``ss_angles`` passes e_ss samples already drawn with these arguments
    (``sample_nu_ss_angles``), so a caller that prints them samples once.
    """
    split = _require_certified(sys, split)
    if ss_angles is None:
        ss_angles = sample_nu_ss_angles(sys, weights, depth, count, rng_seed, split)
    es = sample_e_s_angles(sys, weights, depth, count, rng_seed, split)
    return math.sin(min_circular_gap(ss_angles, es))


def min_circular_gap(a: np.ndarray, b: np.ndarray) -> float:
    """min over all pairs (x in a, y in b) of the angular distance mod pi,
    capped at pi: each y is compared with its two neighbours in sorted a,
    wrapping at the ends of [0, pi)."""
    a = np.sort(a)
    idx = np.searchsorted(a, b)
    best = math.pi
    for i in ((idx - 1) % len(a), idx % len(a)):
        d = np.abs(b - a[i])
        d = np.minimum(d, math.pi - d)
        best = min(best, float(d.min()))
    return best
