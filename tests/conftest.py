"""Shared generators for randomized suites.

Triangular draws keep a diagonal-ratio gap of at least 2 and moderate shear:
finite-depth pressure approximants converge like C/n with a constant that
blows up as the domination gap closes.  Draws whose pressure root falls next
to a breakpoint of the singular value function (s = 1 or s = 2) are rejected
when requested: the leading 1/n coefficient jumps across a branch switch, so
depth-extrapolation tolerances only hold away from the kinks.
"""

from fractions import Fraction as F

from affdim.ifs import AffineMap, IfsSystem
from affdim.linalg2 import Mat2, operator_norm

BREAKPOINT_GAP = 0.07


def _draw_triangular(rng, n_maps, ratio, bscale, norm_cap, dominant, big_range):
    rows = []
    for _ in range(n_maps):
        big = rng.uniform(*big_range) * (-1 if rng.random() < 0.25 else 1)
        r = rng.uniform(*ratio)
        small = big / r * (-1 if rng.random() < 0.25 else 1)
        b = rng.uniform(-bscale, bscale) * abs(big)
        a, c = (small, big) if dominant == "c" else (big, small)
        m = Mat2.lower_triangular(a, b, c)
        m = m.scaled(min(1.0, norm_cap / operator_norm(m)))
        rows.append(AffineMap(m, (0.0, 0.0)))
    return IfsSystem(tuple(rows))


def six_distinct_maps_system():
    """Six lower-triangular maps whose linear parts all differ (the shears
    do), so merging maps by linear part saves nothing: 6^12 words exceed the
    default enumeration cap while 6^8 fit under it."""
    return IfsSystem(tuple(
        AffineMap(Mat2.lower_triangular(F(1, 3), F(k, 10), F(1, 4)), (F(k, 6), F(0)))
        for k in range(6)
    ))


def random_triangular_system(
    rng,
    n_maps=None,
    ratio=(2.0, 4.0),
    bscale=0.3,
    norm_cap=0.9,
    dominant=None,
    away_from_breakpoints=False,
    big_range=(0.35, 0.7),
):
    from affdim.pressure import triangular_pressure_root

    while True:
        n = n_maps if n_maps is not None else int(rng.integers(2, 4))
        dom = dominant if dominant is not None else ("c" if rng.random() < 0.5 else "a")
        sysm = _draw_triangular(rng, n, ratio, bscale, norm_cap, dom, big_range)
        if not away_from_breakpoints:
            return sysm
        root = triangular_pressure_root(sysm)
        if root < 2.0 and min(abs(root - 1.0), abs(root - 2.0)) >= BREAKPOINT_GAP:
            return sysm
