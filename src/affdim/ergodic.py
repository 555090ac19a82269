"""Entropy, Lyapunov exponents and the Lyapunov dimension.

Exponents come by one of three routes, tried in this order by
:func:`lyapunov_exponents`:

- lower-triangular linear parts: exact closed forms (Birkhoff averages of
  the log diagonal entries, on Python floats and ``math.log``);
- a certified dominated splitting: a two-sided enclosure of chi_s from
  Furstenberg's formula over the certified forward multicone
  (:func:`lyapunov_enclosure`).  Its midpoint is chi_s once it is
  ``ENCLOSURE_TOL`` wide, with no random numbers; a wider enclosure clamps
  the Monte-Carlo estimate instead;
- anything else: a batched Monte-Carlo estimate.  The top exponent tracks
  alpha1 of renormalized random products, drawn in blocks of about
  ``ifs.SYMBOL_BLOCK`` symbols; each step reads one contiguous row of a
  block and multiplies by the entries shared by every map as floats
  (``IfsSystem.step_columns``).

The second exponent always follows from the exact determinant identity
chi_s + chi_ss = -sum p_i log |det A_i|, which loses no precision where
direct alpha2 tracking of long products would lose everything.

The enclosure (Furstenberg & Kesten 1960; Jurga & Morris, Nonlinearity
2019).  Write f(w) = sum_i p_i log|A_i w| for unit w.  The forward multicone
C with A_i C inside C carries a stationary measure mu = sum_i p_i (A_i)_* mu
of the direction walk, and chi_s = -integral of f d mu: on C every |A_u w| is
comparable to alpha1(A_u).  Iterating the stationarity, mu gives mass p_u to
the image A_u C of each length-n word, so -chi_s lies between sum_u p_u min f
and sum_u p_u max f, taken over the arcs A_u(C_j) of every arc C_j of C.  The
image of an arc is the positive cone spanned by the images of its two ends,
so its midpoint is their bisector and its half-width h half their angle.
The angle derivative of log|A w| is at most (alpha1^2 - alpha2^2) /
(2 alpha1 alpha2) in modulus, so on an arc f is its midpoint value
+- h * L with L = sum_i p_i (alpha1_i^2 - alpha2_i^2) / (2 alpha1_i alpha2_i),
which is sqrt(T^2 - 4 D^2) / (2 D) with T = tr(A^T A) and D = |det A|,
rounded up as sqrt(T^2 - 4 D^2 + 64 u T^2) (1 + 16 u) / (2 D).  The arcs
shrink like exp(-n (chi_ss - chi_s)), and n is raised until the bracket is
``ENCLOSURE_TOL`` wide, stops narrowing, or ``ENCLOSURE_WORDS`` words are
spent.  Words run over the merged alphabet of the pressure,
``IfsSystem.symbols`` (the distinct linear parts), each symbol weighted by the
sum of its maps' weights, in the blocks of :func:`linalg2.word_blocks`.

Rounding.  With u = 2^-53, K = 2 max_i ||A_i||_F / min |A_i x| over unit x
in C (doubled for the points' own distance from C), F = max_i
max |log alpha_{1,2}(A_i)| (which bounds |f|), N distinct linear parts, m the
certificate's clearance and l_j the lengths of the arcs of C, every
half-width is padded by

    eta = max_j tan(l_j / 2) / 2 * rho * (2 K + n (5 K + 1)) u + 8 u,
    rho = max_j sin l_j / (sin(m / 2) sin(l_j - m / 2)),

and each of the two sums by ((2 n + 8 + B)(F + pi L) + 4 K + 4 + (N + 4) F) u,
B the number of word blocks.  The argument: one step x -> A_i x, the float
entries of A_i and the renormalisation of the kernel (:func:`mul4`,
:func:`renormalise4`) turn a direction by at most (5 K + 1) u, and the
rounded arc ends turn by 2 u before the first step magnifies them by at most
K.  Every exact point after the first step sits at clearance at least m in
its host arc of C, and its float twin within eta < m / 2 of it, where rho
bounds the density of the Hilbert metric of the arc; and no
A_i increases Hilbert distances between arcs of C (Birkhoff).  The Hilbert
error is thus at most rho (2 K + n (5 K + 1)) u, and an arc's Hilbert
metric is at least 2 cot(l / 2) times its angle; 8 u covers the bisector and
the half-angle.  The sums pad p_u (2 n roundings of rational weights), the
products and differences of each term (8), the per-block and final
``math.fsum`` (B + 1, each exactly rounded), and the value of f at a float
midpoint (the last three terms).  The argument needs eta < m / 2; when that
fails the enclosure gives up and Monte Carlo runs instead.

The walk of the words and the value of f and the spread on an image arc are
defined once (:func:`_arc_sums`, :func:`_arc_values`).  A depth of at most
``WORD_BLOCK`` words times arcs maps them over lists of Python floats with
libm, a larger one calls them on numpy blocks (:func:`pressure.word_ops`);
the set-up (L, F, K, rho, eta and the cone's unit vectors) runs on Python
floats and libm for both.  The two instances make the same operations, which
the rounding argument counts the same way, so one pad serves both, with B
counting the blocks of either.
"""

from __future__ import annotations

import functools
import math
import operator
from typing import TYPE_CHECKING, Optional, Tuple

from ._numpy import np
from ._record import record
from . import ifs, pressure
from .errors import BadExponents
from .ifs import BernoulliWeights, IfsSystem, abs_diagonals, rng
from .linalg2 import LIBM, det4, log_alpha1, mul4, numpy_ops, renormalise4, word_blocks
from .pressure import WALK_BLOCK, ordered_sum, word_ops

if TYPE_CHECKING:  # certify's report is only passed through: splitting stays unexecuted
    from .splitting import SplitReport

RENORM_EVERY = 32
ENCLOSURE_TOL = 1e-10  # chi_s bracket width at which the enclosure stops
ENCLOSURE_WORDS = 1 << 20  # words the enclosure may enumerate, all depths together
_U = 2.0 ** -53  # unit roundoff of float64


@record
class Enclosure:
    """chi_s lies in [lo, hi], by the depth-``depth`` words."""

    lo: float
    hi: float
    depth: int


@record
class ExponentTriple:
    """Entropy and Lyapunov exponents in nats, with standard errors (zero for
    exact and enclosed exponents) and, for enclosed ones, the enclosure."""

    entropy: float
    chi_s: float
    chi_ss: float
    stderr_s: float = 0.0
    stderr_ss: float = 0.0
    enclosure: Optional[Enclosure] = None

    def __post_init__(self):
        if not self.chi_s > 0:
            raise BadExponents(f"chi_s = {self.chi_s} must be positive")
        if self.chi_ss < self.chi_s:
            raise BadExponents("chi_ss must be >= chi_s")


def entropy(weights: BernoulliWeights) -> float:
    """Shannon entropy -sum p_i log p_i in nats."""
    return -ordered_sum(x * math.log(x) for x in map(float, weights.p))


def det_identity_value(sys: IfsSystem, weights: BernoulliWeights) -> float:
    """-sum p_i log |det A_i| = chi_s + chi_ss, exactly, on libm."""
    dets = (det4(f.linear.to_float().entries()) for f in sys.maps)
    return -ordered_sum(float(p) * math.log(abs(d)) for p, d in zip(weights.p, dets))


def _with_det_identity(sys, weights, chi_s, stderr, enc=None) -> ExponentTriple:
    """The triple with chi_ss = d - chi_s (:func:`det_identity_value`) and
    chi_s capped at d/2: the top exponent never exceeds half the drift d."""
    d = det_identity_value(sys, weights)
    chi_s = min(chi_s, d / 2.0)
    return ExponentTriple(entropy(weights), chi_s, d - chi_s, stderr, stderr, enc)


def lyapunov_triangular(sys: IfsSystem, weights: BernoulliWeights) -> ExponentTriple:
    """Exact exponents for lower-triangular linear parts."""
    a, c = abs_diagonals(sys)
    la, lc = (-ordered_sum(float(p) * math.log(x) for p, x in zip(weights.p, d)) for d in (a, c))
    return ExponentTriple(entropy(weights), min(la, lc), max(la, lc))


def lyapunov_monte_carlo(
    sys: IfsSystem,
    weights: BernoulliWeights,
    n: int,
    trials: int,
    rng_seed: int,
    stream: int = 0,
) -> ExponentTriple:
    """Monte-Carlo exponents from ``trials`` independent length-n products.

    chi_s averages -(1/n) log alpha1 of renormalized products; chi_ss comes
    from the determinant identity, so the identity holds exactly by
    construction and stderr_ss mirrors stderr_s.  The (n, trials) draw from
    ``rng(rng_seed, stream)`` comes in :func:`ifs.symbol_blocks` of whole steps.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if trials < 2:
        raise ValueError("trials must be >= 2")
    cols = sys.step_columns[:4]
    e = (np.ones(trials), np.zeros(trials), np.zeros(trials), np.ones(trials))
    logscale = np.zeros(trials)
    k = 0
    for syms in ifs.symbol_blocks(weights, rng(rng_seed, stream), n, trials):
        for i in syms:
            # right-multiply the running product by the step matrix
            e = mul4(e, ifs.gather(cols, i))
            k += 1
            if k % RENORM_EVERY == 0 or k == n:
                e, m = renormalise4(e)
                logscale += np.log(m)

    log_a1 = logscale + log_alpha1(numpy_ops())(*e)
    chi_trials = -log_a1 / n
    chi_s = float(np.mean(chi_trials))
    stderr = float(np.std(chi_trials, ddof=1) / math.sqrt(trials))
    return _with_det_identity(sys, weights, chi_s, stderr)


def _min_gain(a, alpha2: float, start: float, length: float, cone) -> float:
    """min |A x| over unit x on an arc: at an end of the arc, or alpha2 when
    the arc holds the most contracted direction.  ``cone`` is the arc as the
    matrix [start | end] of unit vectors."""
    a11, a12, a21, a22 = a
    e11, e12, e21, e22 = mul4(a, cone)
    # the eigenvector of A^T A for alpha2^2, a quarter turn from that for alpha1^2
    low = 0.5 * math.atan2(2 * (a11 * a12 + a21 * a22),
                           a11 * a11 + a21 * a21 - a12 * a12 - a22 * a22) + 0.5 * math.pi
    if (low - start) % math.pi <= length:
        return alpha2
    return min(math.hypot(e11, e21), math.hypot(e12, e22))


def exponent_bracket(
    sys: IfsSystem, weights: BernoulliWeights, split: SplitReport, n: int
) -> Optional[Tuple[float, float]]:
    """The depth-n bracket [lo, hi] of chi_s over the certified forward
    multicone of ``split``, padded for rounding (see the module docstring);
    None when the rounding argument does not apply (eta >= m / 2).

    Maps that share a linear part are one symbol with the summed weight.  The
    set-up runs on Python floats and libm, the words as :func:`_arc_sums`.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    p = [float(sum(weights.p[i] for i in g)) for g in sys.symbols]
    syms = sys.symbol_entries
    t = [a11 * a11 + a12 * a12 + a21 * a21 + a22 * a22 for a11, a12, a21, a22 in syms]
    dt = [abs(det4(a)) for a in syms]  # alpha1 alpha2; t is alpha1^2 + alpha2^2
    disc = [max(x * x - 4.0 * y * y, 0.0) for x, y in zip(t, dt)]  # (alpha1^2 - alpha2^2)^2
    alpha1 = [math.sqrt((x + math.sqrt(d)) / 2.0) for x, d in zip(t, disc)]
    alpha2 = [y / a for y, a in zip(dt, alpha1)]
    lip = math.fsum(pa * (math.sqrt(d + 64 * _U * x * x) / (2.0 * y))
                    for pa, d, x, y in zip(p, disc, t, dt)) * (1 + 16 * _U)
    big_f = max(abs(math.log(a)) for a in alpha1 + alpha2)

    arcs = split.multicone.arcs
    m2 = split.margin / 2.0
    if not m2 > 0.0:  # a triangular cone whose float check failed
        return None
    # each arc as the matrix [start | end] of unit vectors, ccw from start
    cone = []
    for arc in arcs:
        start, end = arc.start.theta, arc.start.theta + arc.length
        cone.append((math.cos(start), math.cos(end), math.sin(start), math.sin(end)))
    k = 2.0 * max(math.sqrt(x) / _min_gain(a, a2, arc.start.theta, arc.length, c)
                  for a, x, a2 in zip(syms, t, alpha2) for arc, c in zip(arcs, cone))
    rho = max(math.sin(a.length) / (math.sin(m2) * math.sin(a.length - m2)) for a in arcs)
    eta = max(math.tan(a.length / 2.0) for a in arcs) / 2.0 * rho * (2 * k + n * (5 * k + 1)) * _U
    if not eta < m2:
        return None
    sums_lo, sums_hi = _arc_sums(sys, p, cone, n, lip, eta + 8 * _U)
    pad = ((2 * n + 8 + len(sums_lo)) * (big_f + math.pi * lip)
           + 4 * k + 4 + (len(syms) + 4) * big_f) * _U
    return -(math.fsum(sums_hi) + pad), -(math.fsum(sums_lo) - pad)


def _arc_values(syms, p, lip, eta, ops):
    """The functions of a word's images (e11, e21) and (e12, e22) of an arc's
    start and end that give f at the image arc's midpoint, and its spread
    lip (h + eta), h the image's half-width: one definition for floats and
    arrays alike, on ``ops``."""
    log, hypot, atan2 = ops.log, ops.hypot, ops.atan2
    rows = tuple((*a, pa) for a, pa in zip(syms, p))

    def mid(e11, e12, e21, e22):
        ns, ne = hypot(e11, e21), hypot(e12, e22)
        cx, cy = e11 / ns + e12 / ne, e21 / ns + e22 / ne  # the bisector: the image's midpoint
        cc = cx * cx + cy * cy
        f = 0.0
        for a11, a12, a21, a22, pa in rows:
            wx = a11 * cx + a12 * cy
            wy = a21 * cx + a22 * cy
            f = f + pa * log((wx * wx + wy * wy) / cc)
        return 0.5 * f

    def spread(e11, e12, e21, e22):
        return lip * (0.5 * atan2(abs(e11 * e22 - e12 * e21), e11 * e12 + e21 * e22) + eta)

    return mid, spread


def _arc_sums(sys, p, cone, n, lip, eta):
    """Per block of words u, the sums of p_u times the least and the largest
    f -+ spread (:func:`_arc_values`) over the arcs of u, in the list walk's
    blocks of the pressure or in array blocks of at most ``WORD_BLOCK``
    words, which hold words times arcs flat, the arc the fastest index."""
    syms, n_arcs = sys.symbol_entries, len(cone)
    ops = word_ops(len(syms) ** n * n_arcs)
    each = ops.each

    def prepend(words, i):
        e, pu = words
        a, pa = (syms, p) if i is None else (syms[i:i + 1], p[i:i + 1])
        return ops.products(a, e)[0], ops.outer(operator.mul, pa, pu)

    start = tuple(map(ops.vector, zip(*cone))), ops.vector([1.0])
    block = WALK_BLOCK // 4 if ops is LIBM else pressure.WORD_BLOCK
    mid, spread = _arc_values(syms, p, lip, eta, ops)
    sums_lo, sums_hi = [], []
    for _, (e, pu) in word_blocks(prepend(start, None), prepend, len(syms), n, block):
        f, h = each(mid, *e), each(spread, *e)
        for sums, side, extreme in ((sums_lo, operator.sub, ops.minimum),
                                    (sums_hi, operator.add, ops.maximum)):
            v = each(side, f, h)
            per_word = functools.reduce(lambda a, b: each(extreme, a, b),
                                        (v[j::n_arcs] for j in range(n_arcs)))
            sums.append(math.fsum(each(operator.mul, pu, per_word)))
    return sums_lo, sums_hi


def lyapunov_enclosure(
    sys: IfsSystem, weights: BernoulliWeights, split: SplitReport
) -> Optional[Enclosure]:
    """The narrowest :func:`exponent_bracket` found by raising the depth
    until the bracket is ``ENCLOSURE_TOL`` wide, it stops narrowing, or the
    next depth would exceed ``ENCLOSURE_WORDS`` words in all; None when the
    rounding argument fails at the first depth.

    The depths run 4, 8, then as far as the bracket's geometric decay between
    the last two depths predicts the tolerance is met.
    """
    n_sym = len(sys.symbols)
    runs = []  # Enclosure per depth run
    want, left = 4, ENCLOSURE_WORDS
    while True:
        depth = want
        while depth > 1 and n_sym ** depth > left:
            depth -= 1
        if runs and depth <= runs[-1].depth or n_sym ** depth > left:
            break
        bracket = exponent_bracket(sys, weights, split, depth)
        if bracket is None:
            break
        left -= n_sym ** depth
        runs.append(Enclosure(*bracket, depth))
        width = bracket[1] - bracket[0]
        if width <= ENCLOSURE_TOL:
            break
        if len(runs) == 1:
            want = 2 * depth
            continue
        rate = (width / (runs[-2].hi - runs[-2].lo)) ** (1.0 / (depth - runs[-2].depth))
        if not rate < 1.0:
            break
        want = depth + max(1, math.ceil(math.log(ENCLOSURE_TOL / width) / math.log(rate)))
    return min(runs, key=lambda r: r.hi - r.lo, default=None)


def lyapunov_exponents(
    sys: IfsSystem,
    weights: BernoulliWeights,
    mc_n: int = 1000,
    mc_trials: int = 1000,
    rng_seed: int = 0,
    split: Optional[SplitReport] = None,
    stream: int = 0,
) -> ExponentTriple:
    """Exact exponents when the system is triangular.  When ``split``
    certifies a dominated splitting, chi_s is enclosed: its value is the
    enclosure's midpoint once the enclosure is ``ENCLOSURE_TOL`` wide, and
    otherwise the Monte-Carlo estimate clamped into the enclosure.  Monte
    Carlo alone (symbol stream ``stream``) serves every other system."""
    if sys.is_triangular():
        return lyapunov_triangular(sys, weights)
    enc = None
    if split is not None and split.certified:
        enc = lyapunov_enclosure(sys, weights, split)
    if enc is not None and enc.hi - enc.lo <= ENCLOSURE_TOL:
        chi_s, stderr = 0.5 * (enc.lo + enc.hi), 0.0
    else:
        mc = lyapunov_monte_carlo(sys, weights, mc_n, mc_trials, rng_seed, stream)
        if enc is None:
            return mc
        chi_s, stderr = min(max(mc.chi_s, enc.lo), enc.hi), mc.stderr_s
    return _with_det_identity(sys, weights, chi_s, stderr, enc)


def lyapunov_dimension(t: ExponentTriple) -> float:
    """min{2, h/chi_s, 1 + (h - chi_s)/chi_ss}; always in [0, 2]."""
    return min(2.0, t.entropy / t.chi_s, 1.0 + (t.entropy - t.chi_s) / t.chi_ss)
