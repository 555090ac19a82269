"""Shared generators for randomized suites.

Triangular draws keep a diagonal-ratio gap of at least 2 and moderate shear:
finite-depth pressure approximants converge like C/n with a constant that
blows up as the domination gap closes.  Draws whose pressure root falls next
to a breakpoint of the singular value function (s = 1 or s = 2) are rejected
when requested: the leading 1/n coefficient jumps across a branch switch, so
depth-extrapolation tolerances only hold away from the kinks.
"""

import contextlib
import math
import os
from fractions import Fraction as F
from itertools import product
from pathlib import Path

import pytest

import affdim.ergodic
import affdim.pressure
from affdim.ifs import AffineMap, IfsSystem
from affdim.linalg2 import Mat2, operator_norm

BREAKPOINT_GAP = 0.07

# pytest's ``pythonpath`` setting puts src/ on this process's path only; the
# tests that run ``python -m affdim.cli`` in a child need it in the environment
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)


def avx2_env():
    """This process's environment with numpy's SIMD dispatch limited to AVX2
    and below, for a child that runs without the AVX512 loops."""
    return dict(os.environ, NPY_ENABLE_CPU_FEATURES="SSE SSE2 SSE3 SSSE3 SSE41 POPCNT "
                                                    "SSE42 AVX F16C FMA3 AVX2")


@contextlib.contextmanager
def word_instance(ops):
    """Every word walk of ``pressure`` and ``ergodic`` on the container of
    ``ops`` (``LIBM`` or ``numpy_ops()``), whatever its word count."""
    with pytest.MonkeyPatch.context() as mp:
        for module in (affdim.pressure, affdim.ergodic):
            mp.setattr(module, "word_ops", lambda words: ops)
        yield


def random_positive_system(rng, n_maps):
    """Maps with entries in [0.02, 0.45]: positive, contracting, and
    certified by the positivity route (dominated, not triangular)."""
    return IfsSystem(tuple(
        AffineMap(Mat2(*(float(x) for x in rng.uniform(0.02, 0.45, 4))), (float(k), 0.0))
        for k in range(n_maps)
    ))


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


def six_distinct_maps_system(upper_right=F(0)):
    """Six maps whose linear parts all differ (the shears do), so merging
    maps by linear part saves nothing: 6^12 words exceed the default
    enumeration cap while 6^8 fit under it.  Lower-triangular unless
    ``upper_right`` is nonzero."""
    return IfsSystem(tuple(
        AffineMap(Mat2(F(1, 3), upper_right, F(k, 10), F(1, 4)), (F(k, 6), F(0)))
        for k in range(6)
    ))


# Lower-triangular with a tie |a_1| = |c_1|: no dominated triangular case,
# so analyze takes the finite-depth pressure route.
TIE_CONFIG = """label tie
map 1/2 0 1/8 1/2 0 0
map 1/3 0 1/5 1/4 1/2 0
map 1/4 0 0 1/3 0 1/2
polygon 0 0
polygon 1 0
polygon 1 1
polygon 0 1
"""


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


def compose_line_word(ifs, word):
    """(beta_w, gamma_w) of g_w = g_{w_1} o ... o g_{w_n}, symbol by symbol."""
    beta, gamma = F(1), F(0)
    for s in word:
        b, g = ifs.maps[s]
        gamma = gamma + beta * g
        beta = beta * b
    return beta, gamma


def brute_force_delta(ifs, n):
    """Oracle for Delta_n: min over all distinct word pairs, infinity when no
    pair shares a contraction ratio."""
    comps = [compose_line_word(ifs, w) for w in product(range(ifs.n), repeat=n)]
    best = None
    for i in range(len(comps)):
        for j in range(i + 1, len(comps)):
            if comps[i][0] != comps[j][0]:
                continue
            gap = abs(comps[i][1] - comps[j][1])
            if best is None or gap < best:
                best = gap
    return math.inf if best is None else best


def fill_convex_oracle(img, spec, vertices, color):
    """Scalar scanline fill of one convex polygon given in plane coordinates:
    the reference for the batched fill in ``affdim.render``."""
    x0, y0, x1, y1 = spec.viewport
    w, h = spec.width, spec.height
    cols = [(vx - x0) / (x1 - x0) * w for vx, vy in vertices]
    rows = [(y1 - vy) / (y1 - y0) * h for vx, vy in vertices]
    r_lo = max(0, int(math.floor(min(rows))))
    r_hi = min(h - 1, int(math.ceil(max(rows))))
    n = len(vertices)
    for r in range(r_lo, r_hi + 1):
        yc = r + 0.5
        xs = []
        for i in range(n):
            ra, ca = rows[i], cols[i]
            rb, cb = rows[(i + 1) % n], cols[(i + 1) % n]
            if (ra <= yc < rb) or (rb <= yc < ra):
                tpar = (yc - ra) / (rb - ra)
                xs.append(ca + tpar * (cb - ca))
        if len(xs) < 2:
            continue
        lo, hi = min(xs), max(xs)
        c_lo = max(0, int(math.floor(lo + 0.5)))
        c_hi = min(w - 1, int(math.floor(hi - 0.5)))
        if c_hi >= c_lo:
            img[r, c_lo : c_hi + 1] = color
        elif hi - lo > 0:  # thinner than a pixel: mark the center column
            c = int(math.floor((lo + hi) / 2))
            if 0 <= c < w:
                img[r, c] = color


def count_calls(monkeypatch, module, name):
    """Replace ``module.name`` by a wrapper that records each call."""
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls
