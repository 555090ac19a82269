"""Subadditive pressure: finite-n approximants, root isolation, and the
exact closed forms for lower-triangular families.

The pressure ignores translations, so maps that share a linear part are
merged into one symbol with a multiplicity: words run over the *distinct*
linear parts (in order of first appearance), and each word carries the log
of the product of its symbols' multiplicities as an s-independent weight
inside the log-sum-exp.  The merge is exact, and the enumeration cap counts
the distinct^n words that are actually allocated.

Word enumeration is level-by-level in lexicographic (leading-symbol-block)
order with per-word renormalization, so results are deterministic and no
product ever under- or overflows.  Finite-n roots certify the true root from
above: submultiplicativity of the singular value function makes the
approximants decrease along doubling depths.

On each of [0, 1], [1, 2] and [2, 4] the finite-depth pressure is a
log-sum-exp of functions affine in s, hence convex and decreasing, so each
depth's root is found by Newton's method from the left end of the piece that
holds it: the iterates climb to the root from below.  The reported depth
root is the upper end of a final bracket of width at most ``tol`` whose upper
end was evaluated with P_n <= 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .errors import EnumerationTooLarge, NegativeExponent, NoDomination, NoSignChange
from .ifs import IfsSystem
from .splitting import check_triangular_split

DEFAULT_CAP = 20_000_000
DEFAULT_SCHEDULE = (2, 4, 8, 12)
ROOT_TOL = 1e-12


@dataclass(frozen=True)
class RootEstimate:
    """Certified-from-above pressure root data along a depth schedule.

    ``s_upper`` is certified (finite-depth roots bound the true root from
    above); ``s_extrapolated`` removes the leading 1/n bias from the last two
    depths and is a heuristic estimate, never a certified bound.  ``dropped``
    lists the requested depths that the enumeration cap removed.
    """

    s_upper: float  # root at the largest depth: upper bound for the true root
    history: tuple  # ((n, root_n), ...)
    converged: bool
    tol: float
    dropped: tuple = ()

    @property
    def s_extrapolated(self) -> float:
        if len(self.history) < 2:
            return self.s_upper
        (n1, r1), (n2, r2) = self.history[-2], self.history[-1]
        return (n2 * r2 - n1 * r1) / (n2 - n1)

    def __str__(self):
        rows = " ".join(f"{n}:{r:.10g}" for n, r in self.history)
        return f"root<= {self.s_upper:.12g} (converged={self.converged}; {rows})"


def _merged_linear_parts(sys: IfsSystem) -> Tuple[np.ndarray, np.ndarray]:
    """The distinct linear parts in order of first appearance, as an
    (n_sym, 2, 2) float array, and the number of maps sharing each one."""
    first, counts = {}, {}
    for i, f in enumerate(sys.maps):
        first.setdefault(f.linear, i)
        counts[f.linear] = counts.get(f.linear, 0) + 1
    return sys.linear_array[list(first.values())], np.array(list(counts.values()), dtype=float)


def word_log_singulars(
    sys: IfsSystem, n: int, cap: int = DEFAULT_CAP
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """log alpha1, log alpha2 and log multiplicity for every length-n word over
    the distinct linear parts, in lexicographic order with the leading symbol
    as the slowest digit.

    Products are renormalized per word (log scale carried separately) and
    log alpha2 is recovered from the exact per-symbol log-determinant sum,
    so deep strongly-dominated products lose no precision.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    A, mult = _merged_linear_parts(sys)
    n_sym = A.shape[0]
    total = n_sym ** n
    if total > cap:
        raise EnumerationTooLarge(f"{n_sym}^{n} = {total} exceeds cap {cap}")
    sym_logdet = np.log(np.abs(A[:, 0, 0] * A[:, 1, 1] - A[:, 0, 1] * A[:, 1, 0]))
    sym_logw = np.log(mult)

    e11, e12 = A[:, 0, 0].copy(), A[:, 0, 1].copy()
    e21, e22 = A[:, 1, 0].copy(), A[:, 1, 1].copy()
    logscale = np.zeros(n_sym)
    logdet = sym_logdet.copy()
    logw = sym_logw
    for _ in range(n - 1):
        k = e11.shape[0]
        new11 = np.empty(n_sym * k)
        new12 = np.empty(n_sym * k)
        new21 = np.empty(n_sym * k)
        new22 = np.empty(n_sym * k)
        new_scale = np.empty(n_sym * k)
        new_det = np.empty(n_sym * k)
        for i in range(n_sym):  # leading symbol block: A_i times every word
            a11, a12, a21, a22 = A[i, 0, 0], A[i, 0, 1], A[i, 1, 0], A[i, 1, 1]
            sl = slice(i * k, (i + 1) * k)
            new11[sl] = a11 * e11 + a12 * e21
            new12[sl] = a11 * e12 + a12 * e22
            new21[sl] = a21 * e11 + a22 * e21
            new22[sl] = a21 * e12 + a22 * e22
            new_scale[sl] = logscale
            new_det[sl] = logdet + sym_logdet[i]
        m = np.maximum(np.maximum(np.abs(new11), np.abs(new12)),
                       np.maximum(np.abs(new21), np.abs(new22)))
        e11, e12, e21, e22 = new11 / m, new12 / m, new21 / m, new22 / m
        logscale = new_scale + np.log(m)
        logdet = new_det
        logw = np.add.outer(sym_logw, logw).ravel()

    t = e11 * e11 + e12 * e12 + e21 * e21 + e22 * e22
    dn = e11 * e22 - e12 * e21
    disc = np.maximum(t * t - 4.0 * dn * dn, 0.0)
    log_a1 = logscale + 0.5 * np.log((t + np.sqrt(disc)) / 2.0)
    log_a2 = logdet - log_a1
    return log_a1, log_a2, logw


def phi_log_values(log_a1: np.ndarray, log_a2: np.ndarray, s: float) -> np.ndarray:
    """log phi^s per word from the stored log singular values."""
    if s < 0:
        raise NegativeExponent(f"s = {s} < 0")
    if s <= 1:
        return s * log_a1
    if s <= 2:
        return log_a1 + (s - 1.0) * log_a2
    return (s / 2.0) * (log_a1 + log_a2)


def _logsumexp(v: np.ndarray) -> float:
    m = float(np.max(v))
    return m + math.log(float(np.sum(np.exp(v - m))))


def pressure_n(sys: IfsSystem, s: float, n: int, cap: int = DEFAULT_CAP) -> float:
    """Finite-depth pressure (1/n) log sum over |w| = n of phi^s(A_w)."""
    log_a1, log_a2, log_w = word_log_singulars(sys, n, cap=cap)
    return _logsumexp(phi_log_values(log_a1, log_a2, s) + log_w) / n


def _pressure_with_slope(words, n: int, s: float) -> Tuple[float, float]:
    """P_n(s) and its right derivative in s, from one phi_log_values call.

    The derivative is the softmax-weighted mean of the per-word slopes of the
    affine piece that starts at s.
    """
    log_a1, log_a2, log_w = words
    v = phi_log_values(log_a1, log_a2, s) + log_w
    m = float(np.max(v))
    e = np.exp(v - m)
    total = float(np.sum(e))
    slope = log_a1 if s < 1.0 else log_a2 if s < 2.0 else 0.5 * (log_a1 + log_a2)
    return (m + math.log(total)) / n, float(np.sum(e * slope)) / (total * n)


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
    n_sym = len({f.linear for f in sys.maps})
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
    tol: float = ROOT_TOL,
    cap: int = DEFAULT_CAP,
) -> RootEstimate:
    """Roots of the finite-depth pressures along an increasing schedule.

    Each depth's root is the upper end of a bracket of width ``tol`` in
    [0, 4] (see :func:`_depth_root`); the final root is an upper bound for
    the true pressure root.  ``converged`` is the stopping heuristic
    |last - previous| < 10 tol, not a proof.
    """
    requested = DEFAULT_SCHEDULE if n_schedule is None else tuple(n_schedule)
    n_schedule = adjusted_schedule(sys, requested, cap)
    if not n_schedule or any(b <= a for a, b in zip(n_schedule, n_schedule[1:])):
        raise ValueError("schedule must be non-empty and strictly increasing")
    history = []
    for n in n_schedule:
        words = word_log_singulars(sys, n, cap=cap)
        root = _depth_root(lambda s: _pressure_with_slope(words, n, s), tol)
        history.append((n, root))
    converged = len(history) >= 2 and abs(history[-1][1] - history[-2][1]) < 10 * tol
    return RootEstimate(
        s_upper=history[-1][1],
        history=tuple(history),
        converged=converged,
        tol=tol,
        dropped=tuple(n for n in requested if n not in n_schedule),
    )


# ---------------------------------------------------------------------------
# Lower-triangular closed forms
# ---------------------------------------------------------------------------


def _abs_diagonals(sys: IfsSystem):
    check_triangular_split(sys)  # raises NotTriangular when not applicable
    A = sys.linear_array
    return np.abs(A[:, 0, 0]), np.abs(A[:, 1, 1])


def triangular_pressure(sys: IfsSystem, s: float) -> float:
    """Exact piecewise pressure for lower-triangular linear parts."""
    if s < 0:
        raise NegativeExponent(f"s = {s} < 0")
    a, c = _abs_diagonals(sys)
    if s < 1:
        return math.log(max(float(np.sum(a ** s)), float(np.sum(c ** s))))
    if s < 2:
        return math.log(
            max(float(np.sum(a * c ** (s - 1))), float(np.sum(c * a ** (s - 1))))
        )
    return math.log(float(np.sum((a * c) ** (s / 2.0))))


def _solve_sum_equals_one(fn: Callable[[float], float], tol: float = 1e-12) -> float:
    """Unique root of a strictly decreasing sum-function minus one, from above.

    Bisects to a bracket of width at most ``tol`` and returns its upper end,
    where ``fn`` was evaluated <= 1, so the result never sits below the root
    (up to rounding in ``fn``), like the finite-depth pressure roots.
    """
    lo, hi = 0.0, 1.0
    while fn(hi) > 1.0:
        hi *= 2.0
        if hi > 1e6:
            raise NoSignChange("sum never drops below one; entries not contracting?")
    while hi - lo > tol:
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
    a, c = _abs_diagonals(sys)
    case = check_triangular_split(sys)
    if case == "None":
        raise NoDomination("need |a_i|>|c_i| for all i or |a_i|<|c_i| for all i")
    if case == "CDominant":
        a, c = c, a
    s1 = _solve_sum_equals_one(lambda s: float(np.sum(a ** s)))
    s2 = _solve_sum_equals_one(lambda s: float(np.sum(a * c ** (s - 1.0))))
    return s1, s2


def triangular_pressure_root(sys: IfsSystem) -> float:
    """Exact root of the triangular pressure closed form.

    min(s1, s2) while that lies in the first two branches; beyond 2 the root
    solves sum (|a_i| |c_i|)^(s/2) = 1 instead.
    """
    s1, s2 = triangular_roots(sys)
    root = min(s1, s2)
    if root < 2.0:
        return root
    a, c = _abs_diagonals(sys)
    return _solve_sum_equals_one(lambda s: float(np.sum((a * c) ** (s / 2.0))))
