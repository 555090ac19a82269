"""Dominated-splitting certification and the invariant direction fields.

Certification runs three routes in precedence order: the exact triangular
criterion, the exact positivity criterion, then a numeric multicone
invariance check of a best-effort proposal.  A failed numeric route yields
Unknown, never Refuted; the only refutations are exact obstructions (a
generator with equal singular values keeps the ratio alpha1/alpha2 at one
along its own powers).

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
from dataclasses import dataclass
from typing import Optional, Sequence

from ._numpy import np
from .errors import NotCertified, NotTriangular, PrefixTooShort
from .ifs import BernoulliWeights, IfsSystem, draw_blockwise, rng, validate_word
from .linalg2 import (
    Mat2,
    ProjArc,
    ProjPoint,
    arc_image,
    det4,
    mul4,
    proj_act,
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


@dataclass(frozen=True)
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
        arcs = []
        n = len(self.arcs)
        for i in range(n):
            a = self.arcs[i]
            b = self.arcs[(i + 1) % n]
            arcs.append(ProjArc(a.end, b.start))
        return Multicone(tuple(arcs))

    def seed_point(self) -> ProjPoint:
        return self.arcs[0].midpoint


@dataclass(frozen=True)
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


def require_lower_triangular(sys: IfsSystem) -> None:
    """NotTriangular, naming the first map with a nonzero upper-right entry."""
    for k, f in enumerate(sys.maps):
        if not f.linear.is_lower_triangular():
            raise NotTriangular(f"map {k + 1} has a nonzero upper-right entry")


def check_triangular_split(sys: IfsSystem) -> str:
    """Sufficient triangular criterion: ADominant, CDominant or None.

    Exact on rational entries; any tie |a_i| = |c_i| yields None.
    """
    require_lower_triangular(sys)
    a_dom = all(abs(f.linear.a11) > abs(f.linear.a22) for f in sys.maps)
    c_dom = all(abs(f.linear.a11) < abs(f.linear.a22) for f in sys.maps)
    if a_dom:
        return "ADominant"
    if c_dom:
        return "CDominant"
    return "None"


def abs_diagonals(sys: IfsSystem):
    """|a_i| and |c_i| of a lower-triangular system, the dominant diagonal
    first: (|c_i|, |a_i|) when it is c-dominant.  NotTriangular otherwise."""
    a, c = np.abs(sys.columns[0]), np.abs(sys.columns[3])
    return (c, a) if check_triangular_split(sys) == "CDominant" else (a, c)


def triangular_forward_cone(sys: IfsSystem, case: str) -> Multicone:
    """Explicit forward-invariant arc for a dominated triangular family.

    ADominant: slopes contract toward the e_s series, so a symmetric slope
    band |slope| <= K is invariant once K beats max|b/a| / (1 - max|c/a|).
    CDominant: slopes expand toward the vertical, so the band around the
    y-axis |slope| >= T is invariant once T beats max |b| / (|c| - |a|).
    """
    a, _, b, c = (np.abs(x) for x in sys.columns[:4])
    if case == "ADominant":
        bound = float(np.max(b / a)) / (1.0 - float(np.max(c / a)))
        k = max(bound * 1.001 + 1e-9, 0.01)
        half = math.atan(k)
        return Multicone((ProjArc.from_angles(-half, half),))
    if case == "CDominant":
        t0 = float(np.max(b / (c - a)))
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
    ``clearance`` the least min(off, host.length - (off + img.length)) over
    them, where ``host`` is the first arc of the cone that holds the image's
    start and ``off`` the ccw gap from the host's start to it; -inf once an
    image starts outside the cone."""
    images, clearance = [], math.inf
    for m in linears:
        images.append([])
        for arc in cone.arcs:
            img = arc_image(m, arc)
            for host in cone.arcs:
                off = host.start_offset(img)
                if off is not None:
                    clearance = min(clearance, off, host.length - (off + img.length))
                    break
            else:
                return images, -math.inf
            images[-1].append(img)
    return images, clearance


def check_multicone_invariance(sys: IfsSystem, m: Multicone, margin: float = 0.0) -> SplitReport:
    """Certified iff every generator maps every arc strictly inside the cone
    with angular clearance >= margin; reports the minimal clearance, -inf
    when an image leaves the cone."""
    _, clearance = nest((f.linear for f in sys.maps), m)
    if clearance < 0:
        clearance = -math.inf
    verdict = "Certified" if clearance >= margin and clearance > 0 else "Refuted"
    return SplitReport(verdict, method="MulticoneCheck", multicone=m, margin=clearance)


def propose_multicone(sys: IfsSystem) -> Optional[Multicone]:
    """Best-effort forward multicone: fatten sampled attracting directions and
    absorb their images until invariant or hopeless."""
    gen = rng(1234567)
    angles = []
    for f in sys.maps:
        p = ProjPoint(0.3)
        angles.append(proj_act(f.linear, p).theta)
    for _ in range(160):
        depth = int(gen.integers(8, 30))
        word = gen.integers(0, sys.n, size=depth)
        mat = Mat2.identity()
        for s in word:
            mat = sys.maps[int(s)].linear.to_float() @ mat
            mx = max(abs(e) for e in mat.entries())
            mat = mat.scaled(1.0 / mx)
        # long products are numerically rank one; map a generic vector rather
        # than going through the nonsingular projective action
        x, y = mat.apply(ProjPoint(gen.uniform(0, math.pi)).to_vector())
        if x != 0.0 or y != 0.0:
            angles.append(ProjPoint.from_vector(x, y).theta)

    arcs = [ProjArc.around(t, PROPOSAL_INFLATE) for t in sorted(set(angles))]
    arcs = _merge_arcs(arcs)
    if arcs is None:
        return None
    for _ in range(PROPOSAL_ROUNDS):
        try:
            cone = Multicone(tuple(arcs))
        except ValueError:
            return None
        report = check_multicone_invariance(sys, cone, margin=PROPOSAL_INFLATE / 4)
        if report.certified:
            return cone
        new_arcs = list(arcs)
        for f in sys.maps:
            for arc in arcs:
                img = arc_image(f.linear, arc)
                new_arcs.append(ProjArc.around(img.midpoint.theta,
                                               img.length / 2 + PROPOSAL_INFLATE))
        arcs = _merge_arcs(new_arcs)
        if arcs is None or sum(a.length for a in arcs) >= math.pi - 0.05:
            return None
    return None


def _merge_arcs(arcs):
    """Union of circular arcs, merged while any pair touches; None if the
    union degenerates toward the full circle."""
    work = list(arcs)
    changed = True
    while changed:
        changed = False
        for i in range(len(work)):
            for j in range(i + 1, len(work)):
                u = _union_two(work[i], work[j])
                if u is NotImplemented:
                    continue
                if u is None:
                    return None
                work[j] = u
                del work[i]
                changed = True
                break
            if changed:
                break
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
    for f in sys.maps:
        if _is_similarity(f.linear):
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
    cone = propose_multicone(sys)
    if cone is not None:
        checked = check_multicone_invariance(sys, cone)
        if checked.certified:
            return checked
    return SplitReport("Unknown")


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
        return (lambda syms: _series_fold(num, ratio, syms),
                lambda folded: np.mod(np.arctan(folded[0]), math.pi),
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
    seed = cone.seed_point().to_vector()

    def error(prod):
        ends = [p.to_vector() for a in cone.arcs for p in (a.start, a.midpoint, a.end)]
        t = _image_angles(prod, np.array(ends).T)
        return float(np.max(np.abs(np.sin(t[:, None] - t))))

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
        r = max(
            singular_values(f.linear).alpha2 / singular_values(f.linear).alpha1
            for f in sys.maps
        )
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
    over the row's word and the product of its ratios."""
    slopes = np.zeros(len(syms))
    pref = np.ones(len(syms))
    for k in range(syms.shape[1]):
        i = syms[:, k]
        slopes += num[i] * pref
        pref = pref * ratio[i]
    return slopes, pref


def _product_fold(cols, syms) -> tuple:
    """M_{s_1} ... M_{s_depth}, one product per row of ``syms``, renormalised
    every step; ``cols`` holds the per-symbol entries of the M_i."""
    count = len(syms)
    p = (np.ones(count), np.zeros(count), np.zeros(count), np.ones(count))
    for k in range(syms.shape[1]):
        i = syms[:, k]
        p, _ = renormalise4(mul4(p, tuple(c[i] for c in cols)))
    return p


def _image_angles(p, v) -> np.ndarray:
    """Angles in [0, pi) of the images P v of the vectors v = (vx, vy), the
    products and the vectors broadcast against each other."""
    vx, vy = v
    wx = p[0] * vx + p[1] * vy
    wy = p[2] * vx + p[3] * vy
    return np.mod(np.arctan2(wy, wx), math.pi)


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
