"""Separation quantities Delta_n for self-similar IFSs on the line.

Delta_n is the minimum distance between the translation parts of distinct
depth-n compositions sharing an exact contraction ratio (+inf when every
ratio class is a singleton, 0 on an exact overlap).  Rational arithmetic is
mandatory: Delta_n must distinguish 0 from 1e-300, which floats cannot.  So
``LineIfs`` converts every beta and gamma to a ``Fraction``, exactly, and a
float is read as the binary rational it already is.

The arithmetic is exact and in Python integers.  With q the least common
denominator of all betas and gammas, every depth-n word is one integer pair
(P, T) standing for the ratio P/q^n and the translation T/q^n; appending a
symbol multiplies and adds integers.  A level is kept as its ratio classes,
a dict from P to the translations of the words with that ratio, so no
per-word ratio is stored and Delta_n reads each class as it is.  Only the
final minimum gap becomes a Fraction, gap/q^n.  One level-by-level
enumeration yields every depth, so ``hochman_rate`` builds Delta_1..Delta_n
in a single pass instead of re-enumerating each depth from level one.

``x_axis_line_ifs`` and ``direction_line_ifs`` derive the line systems of a
planar triangular system.  They import ``ifs`` when called, not with this
module, which ``import affdim.cli`` executes for every command.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence, Tuple

from ._record import record
from .errors import EnumerationTooLarge

if TYPE_CHECKING:
    from .ifs import BernoulliWeights, IfsSystem

DEFAULT_CAP = 2_000_000


@record
class LineIfs:
    """Self-similar maps g_i(x) = beta_i * x + gamma_i on the real line,
    every beta and gamma a ``Fraction``."""

    maps: tuple  # ((beta, gamma), ...)

    def __post_init__(self):
        object.__setattr__(self, "maps", tuple(tuple(map(Fraction, m)) for m in self.maps))
        if len(self.maps) < 1:
            raise ValueError("LineIfs needs at least one map")
        for k, (beta, _gamma) in enumerate(self.maps):
            if not 0 < abs(beta) < 1:
                raise ValueError(f"map {k + 1}: contraction must satisfy 0 < |beta| < 1")

    @property
    def n(self) -> int:
        return len(self.maps)

    def merged_duplicates(self, weights: Sequence):
        """Collapse exactly identical maps, summing their weights.

        The push-forward measure only sees the map multiset, so duplicate
        maps must be merged before any separation or dimension reasoning.
        """
        merged = {}  # in order of first appearance
        for m, w in zip(self.maps, weights):
            merged[m] = merged[m] + w if m in merged else w
        return LineIfs(tuple(merged)), tuple(merged.values())

    def hull(self) -> Tuple[Fraction, Fraction]:
        """Interval hull of the attractor (smallest invariant interval), exact.
        Its ends are among the attractor's points fix(g_i), and g_i(fix(g_j))
        and fix(g_i g_j) for beta_i, beta_j < 0."""
        fixed = [g / (1 - b) for b, g in self.maps]
        flips = [(b, g) for b, g in self.maps if b < 0]
        ends = (fixed + [b * x + g for b, g in flips for x in fixed]
                + [(b1 * g2 + g1) / (1 - b1 * b2) for b1, g1 in flips for b2, g2 in flips])
        return min(ends), max(ends)


@record
class DeltaReport:
    """Delta_n table with the finite-depth trend verdict."""

    rows: tuple  # ((n, delta_n, rate), ...); delta_n an exact Fraction or inf
    verdict: str  # TrendBounded | ExactOverlap | Inconclusive


def _check_cap(ifs: LineIfs, n: int, cap: int) -> None:
    total = ifs.n ** n
    if total > cap:
        raise EnumerationTooLarge(f"{ifs.n}^{n} = {total} exceeds cap {cap}")


def _levels(ifs: LineIfs, n_max: int, cap: int):
    """Yield (q**n, classes) for every depth n = 1..n_max, where ``classes``
    maps each ratio P to the list of translations T of the depth-n words
    with that ratio.

    q is the least common denominator of all betas and gammas, so
    beta_i = p_i/q and gamma_i = r_i/q with integers p_i, r_i.
    A depth-n word w is then the integer pair (P, T) with beta_w = P/q^n and
    gamma_w = T/q^n: appending symbol i on the right gives
    g_(wi)(x) = g_w(g_i(x)), i.e. (P p_i, T q + P r_i), so class (P, ts)
    sends its translations to class P p_i.  The order of the translations
    within a class is unspecified.  EnumerationTooLarge is raised before the
    first depth with N^n > cap.
    """
    q = math.lcm(*(x.denominator for m in ifs.maps for x in m))
    gens = [(int(b * q), int(g * q)) for b, g in ifs.maps]
    classes = {1: [0]}
    for n in range(1, n_max + 1):
        _check_cap(ifs, n, cap)
        level = {}
        for P, ts in classes.items():
            for p, r in gens:
                shift = P * r
                level.setdefault(P * p, []).extend([t * q + shift for t in ts])
        classes = level
        yield q ** n, classes


def _delta(scale, classes):
    """Delta_n of one enumerated level: the smallest distance between the
    translations of words with equal ratio, rescaled by 1/q^n.  Sorts the
    classes in place."""
    best = None
    for vals in classes.values():
        if len(vals) < 2:
            continue
        vals.sort()
        gap = min(b - a for a, b in zip(vals, vals[1:]))
        if best is None or gap < best:
            best = gap
            if best == 0:
                break
    if best is None:
        return math.inf
    return Fraction(best, scale)


def delta_n(ifs: LineIfs, n: int, cap: int = DEFAULT_CAP):
    """Exact Delta_n: min gap of same-ratio translations over distinct words.

    Returns a Fraction, or math.inf when every ratio group is a singleton.
    Zero means two distinct words induce the same map.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_cap(ifs, n, cap)
    for level in _levels(ifs, n, cap):
        pass  # only the deepest level is kept
    return _delta(*level)


def hochman_rate(ifs: LineIfs, n_max: int, cap: int = DEFAULT_CAP) -> DeltaReport:
    """Delta_n rows for n = 1..n_max with a finite-depth trend verdict.

    TrendBounded when every rate -(1/n) log Delta_n stays below
    1.5 * (-log min |beta|) and no exact overlap occurred; verdicts are
    heuristics about the inspected depths, never proofs of the limit
    condition.
    """
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    bound = 1.5 * max(map(_neg_log, (abs(b) for b, _ in ifs.maps)))
    rows = []
    overlap = False
    rates_ok = True
    for n, level in enumerate(_levels(ifs, n_max, cap), 1):
        d = _delta(*level)
        if d == math.inf:
            rate = -math.inf
        elif d == 0:
            rate = math.inf
            overlap = True
        else:
            rate = _neg_log(d) / n
            if rate > bound:
                rates_ok = False
        rows.append((n, d, rate))
        if overlap:
            break
    verdict = "ExactOverlap" if overlap else "TrendBounded" if rates_ok else "Inconclusive"
    return DeltaReport(rows=tuple(rows), verdict=verdict)


def _neg_log(x: Fraction) -> float:
    """-log x >= 0 (+0.0 at x = 1), from x's numerator and denominator below the least float."""
    f = float(x)
    return (-math.log(f) or 0.0) if f else math.log(x.denominator) - math.log(x.numerator)


def x_axis_line_ifs(sys: IfsSystem, weights: BernoulliWeights):
    """Projected first-coordinate system {a_i x + t_i} of a triangular family,
    duplicates merged with summed weights.  NotTriangular otherwise."""
    from .ifs import require_lower_triangular
    require_lower_triangular(sys)
    maps = tuple((f.linear.a11, f.translation[0]) for f in sys.maps)
    return LineIfs(maps).merged_duplicates(weights.p)


def direction_line_ifs(sys: IfsSystem, weights: BernoulliWeights):
    """Strong-stable slope system {(a_i/c_i) x - b_i/c_i} of a triangular
    family, duplicates merged with summed weights.  NotTriangular otherwise."""
    from .ifs import require_lower_triangular
    require_lower_triangular(sys)
    maps = tuple((f.linear.a11 / f.linear.a22, -f.linear.a21 / f.linear.a22) for f in sys.maps)
    return LineIfs(maps).merged_duplicates(weights.p)
