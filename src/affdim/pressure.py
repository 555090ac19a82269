"""Subadditive pressure: finite-n approximants, root isolation, and the
exact closed forms for lower-triangular families.

The pressure ignores translations, so maps that share a linear part are
merged into one symbol with a multiplicity: words run over the *distinct*
linear parts (``IfsSystem.symbols``, in order of first appearance), and each
word carries the log of the product of its symbols' multiplicities as an
s-independent weight inside the log-sum-exp.  The merge is exact, and the
enumeration cap counts the distinct^n words that are actually allocated.

Words are enumerated in lexicographic (leading-symbol-block) order with
per-word renormalization, so results are deterministic and no product ever
under- or overflows.  The words' last symbols are built level by level while
a level holds at most ``WALK_BLOCK`` words; the leading symbols are then
prepended depth first, one block of words per node
(:func:`linalg2.word_blocks`).  The walk carries only the products and their
log scales, and each leaf writes its slice of log alpha1, the one output
stored for every word.  Every word sees the same floating-point operations as
in a level-by-level build.  log |det| and the log multiplicity are summed
along the words apart, in the walk's order (:func:`_word_sums`): per-word
arrays only when the symbols' values differ, otherwise the one float that
every word carries.  A root evaluation runs over blocks of at most
``WORD_BLOCK`` words: one pass takes the largest log term, a second sums the
softmax weights and their slopes along numpy's pairwise-sum tree
(:func:`_pairwise_sums`), so both sums equal ``np.sum`` of the full-length
arrays bit for bit.  So the peak is one float64 per word when the symbols
share |det| and multiplicity (phi-c, sec44, hl-demo), and three otherwise,
beside blocks of fixed size.  Finite-n roots certify the true root from
above: submultiplicativity of the singular value function makes the
approximants decrease along doubling depths.

The walk (:func:`_word_products`), log alpha1 (:func:`linalg2.log_alpha1`)
and the log phi^s term with its slope (:func:`_phi_and_slope`) are defined
once over ``linalg2.Ops``.  A depth of at most ``WORD_BLOCK`` words
(:func:`word_ops`) maps them over lists of Python floats with libm,
``math.exp`` and ``math.fsum``, and executes no numpy; a deeper one calls
them on numpy blocks.  The products are the same bits in both, while numpy's
AVX512 log may differ from libm's by 1 ulp, so a list root lies within 2
``ROOT_TOL`` of the array one.

On each of [0, 1], [1, 2] and [2, 4] the finite-depth pressure is a
log-sum-exp of functions affine in s, hence convex and decreasing, so each
depth's root is found by Newton's method from the left end of the piece that
holds it: the iterates climb to the root from below.  The reported depth
root is the upper end of a final bracket of width at most ``tol`` whose upper
end was evaluated with P_n <= 0.

Dominated lower-triangular families have the exact closed form of Falconer
and Miao (:func:`triangular_pressure_root`).  ``dimension.analyze`` uses it
instead of :func:`pressure_root` for them, as a :meth:`RootEstimate.closed_form`
whose reports print ``pressure-method: closed-form``; every other system, and
the ``pressure`` command, runs the finite-depth roots.  The closed forms run
on Python floats and libm (``**``, ``math.log``), summed by :func:`ordered_sum`.
"""

from __future__ import annotations

import functools
import math
import operator
from typing import Callable, Optional, Sequence, Tuple

from ._numpy import np
from ._record import record
from .errors import EnumerationTooLarge, NegativeExponent, NoDomination, NoSignChange
from .ifs import IfsSystem, abs_diagonals, check_triangular_split
from .linalg2 import LIBM, Ops, det4, log_alpha1, numpy_ops, word_blocks

DEFAULT_CAP = 20_000_000
DEFAULT_SCHEDULE = (2, 4, 8, 12)
ROOT_TOL = 1e-12
WALK_BLOCK = 1 << 13  # words held per level of the depth-first enumeration
WORD_BLOCK = 1 << 15  # words per block of a root evaluation


@record
class RootEstimate:
    """Certified-from-above pressure root data along a depth schedule.

    ``s_upper`` is certified (finite-depth roots bound the true root from
    above); ``s_extrapolated`` removes the leading 1/n bias from the last two
    depths and is a heuristic estimate, never a certified bound.  ``dropped``
    lists the requested depths that the enumeration cap removed.  ``method``
    is "finite-depth", or "closed-form" for an exact root with no history
    (see :meth:`closed_form`).
    """

    s_upper: float  # root at the largest depth: upper bound for the true root
    history: tuple  # ((n, root_n), ...)
    converged: bool
    dropped: tuple = ()
    method: str = "finite-depth"

    @staticmethod
    def closed_form(root: float) -> "RootEstimate":
        """An exact root, bounded from above within ``ROOT_TOL`` like the
        triangular closed forms: both ``s_upper`` and ``s_extrapolated``
        read it."""
        return RootEstimate(s_upper=root, history=(), converged=True, method="closed-form")

    @property
    def s_extrapolated(self) -> float:
        if len(self.history) < 2:
            return self.s_upper
        (n1, r1), (n2, r2) = self.history[-2], self.history[-1]
        return (n2 * r2 - n1 * r1) / (n2 - n1)


def _word_sums(values, n: int, ops: Ops):
    """The sum of the symbols' ``values`` along every length-n word, the new
    symbol's added on the left at each level by ``ops.outer``: one float when
    every symbol carries the same value, otherwise one entry per word in
    lexicographic order with the leading symbol as the slowest digit."""
    shared = all(v == values[0] for v in values)
    symbols = total = values[:1] if shared else values
    for _ in range(n - 1):
        total = ops.outer(operator.add, symbols, total)
    return float(total[0]) if shared else total


def word_ops(words: int) -> Ops:
    """The container of a walk over ``words`` words (words times arcs, for
    the exponent enclosure): lists of Python floats on libm (:data:`LIBM`) up
    to ``WORD_BLOCK``, numpy arrays past it.  The one test that decides it."""
    return LIBM if words <= WORD_BLOCK else numpy_ops()


def word_log_singulars(sys: IfsSystem, n: int, cap: int = DEFAULT_CAP):
    """log alpha1, log |det| and log multiplicity of every length-n word over
    the distinct linear parts, in lexicographic order with the leading symbol
    as the slowest digit: lists or arrays, as :func:`word_ops` picks.

    log |det| and the log multiplicity come from :func:`_word_sums`: per word
    only when the symbols' values differ, otherwise one float that equals
    every word's entry.  log alpha2 is log |det| - log alpha1 (see
    :func:`phi_log_values`).  Products are renormalized per word (log scale
    carried separately) and log |det| is the exact per-symbol sum, so deep
    strongly-dominated products lose no precision.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    n_sym = len(sys.symbols)
    total = n_sym ** n
    if total > cap:
        raise EnumerationTooLarge(f"{n_sym}^{n} = {total} exceeds cap {cap}")
    ops = word_ops(total)
    log, each = ops.log, ops.each
    values = (each(lambda *a: log(abs(det4(a))), *map(ops.vector, zip(*sys.symbol_entries))),
              each(log, ops.vector([float(len(g)) for g in sys.symbols])))
    log_det, log_w = (_word_sums(v, n, ops) for v in values)
    log_a1, kernel = ops.zeros(total), log_alpha1(ops)
    for start, (e, logscale) in _word_products(sys, n, ops):
        log_a1[start:start + len(logscale)] = each(operator.iadd, each(kernel, *e), logscale)
    return log_a1, log_det, log_w


def _word_products(sys: IfsSystem, n: int, ops: Ops):
    """The (start, (products, log scales)) blocks of the length-n words: the
    depth-first walk of the module docstring, on the container of ``ops``.
    A word held as Python floats takes four times its bytes as float64, so
    the list walk holds a quarter of ``WALK_BLOCK`` words per level."""
    syms, log, each = sys.symbol_entries, ops.log, ops.each

    def prepend(words, i):
        e, logscale = words
        lead = syms if i is None else syms[i:i + 1]
        e, m = ops.products(lead, e)  # iadd: in place on fresh arrays, a plain + on floats
        return e, each(operator.iadd, each(log, m), ops.tile(logscale, len(lead)))

    level_one = tuple(map(ops.vector, zip(*syms))), ops.zeros(len(syms))
    block = WALK_BLOCK // 4 if ops is LIBM else WALK_BLOCK
    return word_blocks(level_one, prepend, len(syms), n, block)


def _phi_and_slope(s: float):
    """log phi^s of a word from its log alpha1 ``a`` and log |det| ``d``, and
    the slope in s of the affine piece that starts at s: one definition for
    floats and arrays alike.  The slope is None below s = 1, where it is the
    stored log alpha1 itself."""
    if s <= 1:
        phi = lambda a, d: s * a
    elif s <= 2:  # log alpha1 + (s - 1) log alpha2
        phi = lambda a, d, c=s - 1.0: (d - a) * c + a
    else:
        phi = lambda a, d, c=s / 2.0: (d - a + a) * c
    if s < 1.0:
        return phi, None
    if s < 2.0:  # log alpha2
        return phi, lambda a, d: d - a
    return phi, lambda a, d: (d - a + a) * 0.5  # the mean of log alpha1 and log alpha2


def _at(x, words: slice):
    """A per-word ``x`` in a slice of words; a float shared by every word as is."""
    return x if isinstance(x, float) else x[words]


def phi_log_values(log_a1, log_det, s: float) -> Callable[[slice], object]:
    """log phi^s of the words in a slice, in one fresh list or array per
    call (the container of ``log_a1``), from the stored log alpha1 and log
    |det| (per word or one shared float), by :func:`_phi_and_slope`."""
    if s < 0:
        raise NegativeExponent(f"s = {s} < 0")
    phi, each = _phi_and_slope(s)[0], (LIBM if isinstance(log_a1, list) else numpy_ops()).each
    return lambda words: each(phi, log_a1[words], _at(log_det, words))


def pressure_n(sys: IfsSystem, s: float, n: int, cap: int = DEFAULT_CAP) -> float:
    """Finite-depth pressure (1/n) log sum over |w| = n of phi^s(A_w)."""
    return _pressure_with_slope(word_log_singulars(sys, n, cap=cap), n, s)[0]


def _pairwise_sums(leaf: Callable[[slice], tuple], start: int, stop: int, block: int) -> tuple:
    """Componentwise sums of ``leaf(words)`` over the words [start, stop),
    split as ``np.sum`` splits a contiguous float64 array: a node of n > 128
    at n//2 rounded down to a multiple of 8, while one of n <= 128 is one
    loop.  A node of at most max(block, 128) words is one leaf, so leaves
    that sum their slice with ``np.sum`` give the full-length ``np.sum`` bit
    for bit.
    """
    n = stop - start
    if n <= max(block, 128):
        return leaf(slice(start, stop))
    half = n // 2 - n // 2 % 8
    left = _pairwise_sums(leaf, start, start + half, block)
    right = _pairwise_sums(leaf, start + half, stop, block)
    return tuple(a + b for a, b in zip(left, right))


def _pressure_with_slope(words, n: int, s: float) -> Tuple[float, float]:
    """P_n(s) and its right derivative in s, from one phi_log_values call.

    The derivative is the softmax-weighted mean of the per-word slopes of the
    affine piece that starts at s (:func:`_phi_and_slope`).  Lists are one
    block, summed by ``math.fsum``.  Arrays are read in blocks of at most
    ``WORD_BLOCK`` words twice, for the largest log term and for the two
    sums, which run along numpy's pairwise tree (:func:`_pairwise_sums`).
    """
    log_a1, log_det, log_w = words
    phi, slope = phi_log_values(log_a1, log_det, s), _phi_and_slope(s)[1]
    lists = isinstance(log_a1, list)  # the container that word_log_singulars picked
    each = (LIBM if lists else numpy_ops()).each

    def log_terms(words):
        return each(operator.iadd, phi(words), _at(log_w, words))

    def slopes(words):
        a1 = log_a1[words]
        return a1 if slope is None else each(slope, a1, _at(log_det, words))

    if lists:
        terms = log_terms(slice(None))
        m = max(terms)
        weights = [math.exp(e - m) for e in terms]
        total = math.fsum(weights)
        dot = math.fsum(map(operator.mul, weights, slopes(slice(None))))
    else:
        m = float(np.max([np.max(log_terms(slice(a, a + WORD_BLOCK)))
                          for a in range(0, log_a1.size, WORD_BLOCK)]))

        def sums(words):  # the softmax weights, and the weights times the slopes
            e = log_terms(words)
            e -= m
            np.exp(e, out=e)
            total = float(np.sum(e))
            e *= slopes(words)
            return total, float(np.sum(e))

        total, dot = _pairwise_sums(sums, 0, log_a1.size, WORD_BLOCK)
    return (m + math.log(total)) / n, dot / (total * n)


def _depth_root(evaluate: Callable[[float], Tuple[float, float]], tol: float) -> float:
    """Root of a continuous decreasing function that is convex on each of
    [0, 1], [1, 2] and [2, 4]; ``evaluate`` returns (value, right derivative).

    The kinks pick the piece that holds the root, and Newton's method runs
    from that piece's left end, where it climbs to the root from below.  Once
    a step is shorter than ``tol`` the point one ``tol`` above the last lower
    end is tested.  Returns the upper end of a bracket of width at most
    ``tol`` whose value was evaluated <= 0.
    """
    v1, d1 = evaluate(1.0)
    if v1 <= 0.0:
        lo, hi = 0.0, 1.0
        v, d = evaluate(0.0)
        if v <= 0.0:
            return 0.0
    else:
        v2, d2 = evaluate(2.0)
        if v2 <= 0.0:
            lo, hi, v, d = 1.0, 2.0, v1, d1
        else:
            if evaluate(4.0)[0] > 0.0:
                raise NoSignChange("pressure still positive at s = 4.0; not a contracting system?")
            lo, hi, v, d = 2.0, 4.0, v2, d2
    while hi - lo > tol:
        x = lo - v / d  # at or below the root, up to rounding
        if not x - lo >= tol:  # converged: close the bracket from below
            x = max(lo + tol, math.nextafter(lo, math.inf))
        elif not x < hi:  # rounding carried the iterate to the upper end
            x = min(hi - tol, math.nextafter(hi, -math.inf))
        if not lo < x < hi:  # the bracket is tol wide up to one rounding
            break
        vx, dx = evaluate(x)
        if vx > 0.0:
            lo, v, d = x, vx, dx
        else:
            hi = x
    return hi


def adjusted_schedule(sys: IfsSystem, schedule: Sequence[int], cap: int = DEFAULT_CAP):
    """Drop depths whose enumeration exceeds the cap; always keep one depth.

    Words run over the distinct linear parts, so depth n costs distinct^n.
    """
    n_sym = len(sys.symbols)
    kept = [n for n in schedule if n_sym ** n <= cap]
    if not kept:
        n = 1
        while n_sym ** (n + 1) <= cap:
            n += 1
        kept = [n]
    return tuple(kept)


def pressure_root(
    sys: IfsSystem,
    n_schedule: Optional[Sequence[int]] = None,
    cap: int = DEFAULT_CAP,
) -> RootEstimate:
    """Roots of the finite-depth pressures along an increasing schedule.

    Each depth's root is the upper end of a bracket of width ``ROOT_TOL``
    in [0, 4] (see :func:`_depth_root`); the final root is an upper bound
    for the true pressure root.  ``converged`` is the stopping heuristic
    |last - previous| < 10 ROOT_TOL, not a proof.
    """
    requested = DEFAULT_SCHEDULE if n_schedule is None else tuple(n_schedule)
    n_schedule = adjusted_schedule(sys, requested, cap)
    if not n_schedule or any(b <= a for a, b in zip(n_schedule, n_schedule[1:])):
        raise ValueError("schedule must be non-empty and strictly increasing")
    history = []
    for n in n_schedule:
        words = word_log_singulars(sys, n, cap=cap)
        root = _depth_root(lambda s: _pressure_with_slope(words, n, s), ROOT_TOL)
        history.append((n, root))
    converged = len(history) >= 2 and abs(history[-1][1] - history[-2][1]) < 10 * ROOT_TOL
    return RootEstimate(
        s_upper=history[-1][1],
        history=tuple(history),
        converged=converged,
        dropped=tuple(n for n in requested if n not in n_schedule),
    )


# ---------------------------------------------------------------------------
# Lower-triangular closed forms
# ---------------------------------------------------------------------------


def ordered_sum(terms) -> float:
    """Left-to-right float sum: numpy's below 8 terms, Python's before 3.12."""
    return functools.reduce(operator.add, terms)


def triangular_pressure(sys: IfsSystem, s: float) -> float:
    """Exact piecewise pressure for lower-triangular linear parts."""
    if s < 0:
        raise NegativeExponent(f"s = {s} < 0")
    a, c = abs_diagonals(sys)
    if s < 1:
        return math.log(max(ordered_sum(x ** s for x in a), ordered_sum(y ** s for y in c)))
    if s < 2:
        return math.log(max(ordered_sum(x * y ** (s - 1) for x, y in zip(a, c)),
                            ordered_sum(y * x ** (s - 1) for x, y in zip(a, c))))
    return math.log(ordered_sum((x * y) ** (s / 2.0) for x, y in zip(a, c)))


def _solve_sum_equals_one(fn: Callable[[float], float]) -> float:
    """Unique root of a strictly decreasing sum-function minus one, from above.

    Bisects to a bracket of width at most ``ROOT_TOL`` and returns its upper
    end, where ``fn`` was evaluated <= 1, so the result never sits below the
    root (up to rounding in ``fn``), like the finite-depth pressure roots.
    """
    lo, hi = 0.0, 1.0
    while fn(hi) > 1.0:
        hi *= 2.0
        if hi > 1e6:
            raise NoSignChange("sum never drops below one; entries not contracting?")
    while hi - lo > ROOT_TOL:
        mid = 0.5 * (lo + hi)
        if fn(mid) > 1.0:
            lo = mid
        else:
            hi = mid
    return hi


def triangular_roots(sys: IfsSystem) -> Tuple[float, float]:
    """The two moran-type roots (s1, s2) of the dominated triangular family.

    A-dominant: sum |a_i|^s1 = 1 and sum |a_i| |c_i|^(s2-1) = 1;
    c-dominant swaps the roles of a and c.  min(s1, s2) is the pressure root
    whenever it lies below 2 (see :func:`triangular_pressure_root`).
    """
    if check_triangular_split(sys) == "None":
        raise NoDomination("need |a_i|>|c_i| for all i or |a_i|<|c_i| for all i")
    a, c = abs_diagonals(sys)  # the dominant diagonal first
    s1 = _solve_sum_equals_one(lambda s: ordered_sum(x ** s for x in a))
    s2 = _solve_sum_equals_one(lambda s: ordered_sum(x * y ** (s - 1.0) for x, y in zip(a, c)))
    return s1, s2


def triangular_pressure_root(
    sys: IfsSystem, roots: Optional[Tuple[float, float]] = None
) -> float:
    """Exact root of the triangular pressure closed form.

    min(s1, s2) while that lies in the first two branches; beyond 2 the root
    solves sum (|a_i| |c_i|)^(s/2) = 1 instead.  ``roots`` passes (s1, s2)
    from :func:`triangular_roots` when the caller already has them.
    """
    s1, s2 = triangular_roots(sys) if roots is None else roots
    root = min(s1, s2)
    if root < 2.0:
        return root
    a, c = abs_diagonals(sys)
    return _solve_sum_equals_one(lambda s: ordered_sum((x * y) ** (s / 2.0) for x, y in zip(a, c)))
