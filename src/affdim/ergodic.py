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

from .errors import BadExponents
from .ifs import BernoulliWeights, IfsSystem, rng
from .linalg2 import det4, entry_columns, log_alpha1, mul4, renormalise4
from .splitting import SplitReport, abs_diagonals, sample_e_s_angles

RENORM_EVERY = 32
MC_BLOCK_STEPS = 256  # product steps whose symbols are drawn at once


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
    return np.log(np.abs(det4(entry_columns(sys.linear_array))))


def det_identity_value(sys: IfsSystem, weights: BernoulliWeights) -> float:
    """-sum p_i log |det A_i| = chi_s + chi_ss, exactly."""
    return float(-np.dot(weights.as_array, _log_dets(sys)))


def lyapunov_triangular(sys: IfsSystem, weights: BernoulliWeights) -> ExponentTriple:
    """Exact exponents for lower-triangular linear parts."""
    a, c = abs_diagonals(sys)
    p = weights.as_array
    la = float(-np.dot(p, np.log(a)))
    lc = float(-np.dot(p, np.log(c)))
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
    construction and stderr_ss mirrors stderr_s.  The symbols are drawn
    MC_BLOCK_STEPS steps at a time; the stream equals one (n, trials) draw.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if trials < 2:
        raise ValueError("trials must be >= 2")
    gen = rng(rng_seed)
    cols = entry_columns(sys.linear_array)
    e = (np.ones(trials), np.zeros(trials), np.zeros(trials), np.ones(trials))
    logscale = np.zeros(trials)
    for start in range(0, n, MC_BLOCK_STEPS):
        syms = weights.draw(gen, (min(MC_BLOCK_STEPS, n - start), trials))
        for k, i in enumerate(syms, start):
            # right-multiply the running product by the step matrix
            e = mul4(e, tuple(c[i] for c in cols))
            if (k + 1) % RENORM_EVERY == 0 or k + 1 == n:
                e, m = renormalise4(e)
                logscale += np.log(m)

    log_a1 = logscale + log_alpha1(e)
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
    i0 = weights.draw(rng(rng_seed, stream=3), count)
    A = sys.linear_array
    vx, vy = np.cos(angles), np.sin(angles)
    wx = A[i0, 0, 0] * vx + A[i0, 0, 1] * vy
    wy = A[i0, 1, 0] * vx + A[i0, 1, 1] * vy
    vals = -0.5 * np.log(wx * wx + wy * wy)
    return float(np.mean(vals)), float(np.std(vals, ddof=1) / math.sqrt(count))

