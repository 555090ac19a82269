"""Entropy, Lyapunov exponents and the Lyapunov dimension.

Exponents come in two flavors: exact closed forms for lower-triangular
linear parts (Birkhoff averages of the log diagonal entries) and a batched
Monte-Carlo estimator for general matrices.  The Monte-Carlo top exponent
tracks alpha1 of renormalized random products; the second exponent is
recovered through the exact determinant identity
chi_s + chi_ss = -sum p_i log |det A_i|, which loses no precision where
direct alpha2 tracking of long products would lose everything.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import BadExponents, NotTriangular
from .ifs import BernoulliWeights, IfsSystem
from .splitting import SplitReport, sample_e_s_angles

RENORM_EVERY = 32
_STREAM_OFFSET = 0x9E3779B9


@dataclass(frozen=True)
class ExponentTriple:
    """Entropy and Lyapunov exponents in nats, with standard errors
    (zero for exact computations)."""

    entropy: float
    chi_s: float
    chi_ss: float
    stderr_s: float = 0.0
    stderr_ss: float = 0.0

    def __post_init__(self):
        if not self.chi_s > 0:
            raise BadExponents(f"chi_s = {self.chi_s} must be positive")
        if self.chi_ss < self.chi_s:
            raise BadExponents("chi_ss must be >= chi_s")


def entropy(weights: BernoulliWeights) -> float:
    """Shannon entropy -sum p_i log p_i in nats."""
    p = weights.as_array
    return float(-np.sum(p * np.log(p)))


def _log_dets(sys: IfsSystem) -> np.ndarray:
    A = sys.linear_array
    return np.log(np.abs(A[:, 0, 0] * A[:, 1, 1] - A[:, 0, 1] * A[:, 1, 0]))


def det_identity_value(sys: IfsSystem, weights: BernoulliWeights) -> float:
    """-sum p_i log |det A_i| = chi_s + chi_ss, exactly."""
    return float(-np.dot(weights.as_array, _log_dets(sys)))


def lyapunov_triangular(sys: IfsSystem, weights: BernoulliWeights) -> ExponentTriple:
    """Exact exponents for lower-triangular linear parts."""
    for k, f in enumerate(sys.maps):
        if not f.linear.is_lower_triangular():
            raise NotTriangular(f"map {k + 1} has a nonzero upper-right entry")
    A = sys.linear_array
    p = weights.as_array
    la = float(-np.dot(p, np.log(np.abs(A[:, 0, 0]))))
    lc = float(-np.dot(p, np.log(np.abs(A[:, 1, 1]))))
    return ExponentTriple(entropy(weights), min(la, lc), max(la, lc))


def lyapunov_monte_carlo(
    sys: IfsSystem,
    weights: BernoulliWeights,
    n: int,
    trials: int,
    rng_seed: int,
) -> ExponentTriple:
    """Monte-Carlo exponents from ``trials`` independent length-n products.

    chi_s averages -(1/n) log alpha1 of renormalized products; chi_ss comes
    from the determinant identity, so the identity holds exactly by
    construction and stderr_ss mirrors stderr_s.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if trials < 2:
        raise ValueError("trials must be >= 2")
    rng = np.random.Generator(np.random.Philox(key=rng_seed))
    A = sys.linear_array
    p = weights.as_array
    syms = rng.choice(sys.n, size=(n, trials), p=p)
    a11, a12, a21, a22 = A[:, 0, 0], A[:, 0, 1], A[:, 1, 0], A[:, 1, 1]
    e11 = np.ones(trials)
    e12 = np.zeros(trials)
    e21 = np.zeros(trials)
    e22 = np.ones(trials)
    logscale = np.zeros(trials)
    for k in range(n):
        i = syms[k]
        b11, b12, b21, b22 = a11[i], a12[i], a21[i], a22[i]
        # right-multiply the running product by the step matrix
        n11 = e11 * b11 + e12 * b21
        n12 = e11 * b12 + e12 * b22
        n21 = e21 * b11 + e22 * b21
        n22 = e21 * b12 + e22 * b22
        e11, e12, e21, e22 = n11, n12, n21, n22
        if (k + 1) % RENORM_EVERY == 0 or k + 1 == n:
            m = np.maximum(np.maximum(np.abs(e11), np.abs(e12)),
                           np.maximum(np.abs(e21), np.abs(e22)))
            e11, e12, e21, e22 = e11 / m, e12 / m, e21 / m, e22 / m
            logscale += np.log(m)

    t = e11 * e11 + e12 * e12 + e21 * e21 + e22 * e22
    dn = e11 * e22 - e12 * e21
    disc = np.maximum(t * t - 4.0 * dn * dn, 0.0)
    log_a1 = logscale + 0.5 * np.log((t + np.sqrt(disc)) / 2.0)
    chi_trials = -log_a1 / n
    chi_s = float(np.mean(chi_trials))
    stderr = float(np.std(chi_trials, ddof=1) / math.sqrt(trials))
    d = det_identity_value(sys, weights)
    # the top exponent can never exceed half the determinant drift
    chi_s = min(chi_s, d / 2.0)
    return ExponentTriple(entropy(weights), chi_s, d - chi_s, stderr, stderr)


def lyapunov_exponents(
    sys: IfsSystem,
    weights: BernoulliWeights,
    mc_n: int = 1000,
    mc_trials: int = 1000,
    rng_seed: int = 0,
) -> ExponentTriple:
    """Exact exponents when the system is triangular, Monte Carlo otherwise."""
    if sys.is_triangular():
        return lyapunov_triangular(sys, weights)
    return lyapunov_monte_carlo(sys, weights, mc_n, mc_trials, rng_seed)


def lyapunov_dimension(t: ExponentTriple) -> float:
    """min{2, h/chi_s, 1 + (h - chi_s)/chi_ss}; always in [0, 2]."""
    if not t.chi_s > 0:
        raise BadExponents("chi_s must be positive")
    return min(2.0, t.entropy / t.chi_s, 1.0 + (t.entropy - t.chi_s) / t.chi_ss)


def lyapunov_via_directions(
    sys: IfsSystem,
    weights: BernoulliWeights,
    count: int,
    rng_seed: int,
    split: Optional[SplitReport] = None,
) -> Tuple[float, float]:
    """Cross-check of chi_s through the stable direction field:
    -E[ log ||A_{i_0} v|| ], v unit in e_s(past), i_0 ~ weights independent.

    Returns (estimate, stderr).  Needs certified dominated splitting.
    """
    angles = sample_e_s_angles(sys, weights, None, count, rng_seed, split)
    rng = np.random.Generator(np.random.Philox(key=(rng_seed + 3 * _STREAM_OFFSET) % (1 << 64)))
    i0 = rng.choice(sys.n, size=count, p=weights.as_array)
    A = sys.linear_array
    vx, vy = np.cos(angles), np.sin(angles)
    wx = A[i0, 0, 0] * vx + A[i0, 0, 1] * vy
    wy = A[i0, 1, 0] * vx + A[i0, 1, 1] * vy
    vals = -0.5 * np.log(wx * wx + wy * wy)
    return float(np.mean(vals)), float(np.std(vals, ddof=1) / math.sqrt(count))

