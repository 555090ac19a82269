"""Built-in example systems.

All constants are exact rationals so golden tests never see decimal drift.
The library exposes exactly three names: ``sec44``, ``phi-c`` (parameterized
by 0 < c < 1/2) and ``hl-demo``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

from .hochman import LineIfs
from .ifs import AffineMap, BernoulliWeights, IfsSystem, ParsedSystem, Polygon
from .linalg2 import Mat2

F = Fraction


def sec44() -> ParsedSystem:
    """Three lower-triangular maps with a certified dimension near 1.4273.

    Ships with the separating parallelogram and uniform weights.
    """
    a = F(16, 81)
    c = F(2, 3)
    maps = (
        AffineMap(Mat2.lower_triangular(a, F(-2, 3), c), (F(19, 54), F(47, 100))),
        AffineMap(Mat2.lower_triangular(a, F(0), c), (F(1235, 2187), F(3, 10))),
        AffineMap(Mat2.lower_triangular(a, F(2, 3), c), (F(1721, 2187), F(-38, 81))),
    )
    polygon = Polygon(((F(0), F(0)), (F(19, 27), F(1)), (F(38, 27), F(0)), (F(19, 27), F(-1))))
    return ParsedSystem(IfsSystem(maps, label="sec44"), BernoulliWeights.uniform(3), polygon)


def phi_c(c) -> ParsedSystem:
    """Six-map family of parallelogram systems on the unit square, 0 < c < 1/2.

    Satisfies the open set condition on the square but not strong separation
    (the images tile and touch).
    """
    c = Fraction(c)
    if not F(0) < c < F(1, 2):
        raise ValueError("phi-c needs 0 < c < 1/2")
    third = F(1, 3)
    up = F(1, 2) - c  # shear of maps 3,4; maps 5,6 use the negative
    maps = (
        AffineMap(Mat2.lower_triangular(third, F(0), c), (third, F(0))),
        AffineMap(Mat2.lower_triangular(third, F(0), c), (third, 1 - c)),
        AffineMap(Mat2.lower_triangular(third, up, c), (F(0), F(1, 2))),
        AffineMap(Mat2.lower_triangular(third, up, c), (F(2, 3), F(0))),
        AffineMap(Mat2.lower_triangular(third, -up, c), (F(0), F(1, 2) - c)),
        AffineMap(Mat2.lower_triangular(third, -up, c), (F(2, 3), 1 - c)),
    )
    square = Polygon(((F(0), F(0)), (F(1), F(0)), (F(1), F(1)), (F(0), F(1))))
    return ParsedSystem(
        IfsSystem(maps, label=f"phi-c c={c}"), BernoulliWeights.uniform(6), square
    )


def phi_c_closed_form(c) -> float:
    """Generic attractor dimension of the family.

    1 - log2/log c on the a-dominant branch (c < 1/3) and 2 + log(2c)/log 3
    on the c-dominant branch (c > 1/3, off an exceptional parameter set).
    The two branches agree at c = 1/3.
    """
    cf = float(c)
    if not 0.0 < cf < 0.5:
        raise ValueError("phi-c needs 0 < c < 1/2")
    if cf <= 1.0 / 3.0:
        return 1.0 - math.log(2.0) / math.log(cf)
    return 2.0 + math.log(2.0 * cf) / math.log(3.0)


def phi_c_direction_ifs(c) -> LineIfs:
    """Slope IFS of the strong-stable directions for the c-dominant branch."""
    c = Fraction(c)
    ratio = F(1, 3) / c
    shift = (2 * c - 1) / (2 * c)
    return LineIfs(((ratio, F(0)), (ratio, F(0)), (ratio, shift), (ratio, shift),
                    (ratio, -shift), (ratio, -shift)))


def hl_demo() -> ParsedSystem:
    """Two positive near-conformal maps satisfying every hypothesis of the
    projection theorem for measures with dimension below one: positivity
    gives the invariant cone, 1/25 scaling gives the bunching inequality,
    and the far-apart translations give strong separation on the unit square.
    """
    rho = F(1, 25)
    m1 = Mat2(2 * rho, rho, rho, rho)
    m2 = Mat2(rho, rho, rho, 2 * rho)
    maps = (
        AffineMap(m1, (F(1, 10), F(1, 10))),
        AffineMap(m2, (F(7, 10), F(7, 10))),
    )
    square = Polygon(((F(0), F(0)), (F(1), F(0)), (F(1), F(1)), (F(0), F(1))))
    return ParsedSystem(IfsSystem(maps, label="hl-demo"), BernoulliWeights.uniform(2), square)


_BUILDERS = {"sec44": sec44, "hl-demo": hl_demo}


def example_names():
    return ("sec44", "phi-c", "hl-demo")


def get_example(name: str, params: Optional[dict] = None) -> ParsedSystem:
    params = dict(params or {})
    if name == "phi-c":
        if "c" not in params:
            raise ValueError("phi-c needs --param c=<value in (0, 1/2)>")
        return phi_c(Fraction(str(params["c"])))
    if name in _BUILDERS:
        return _BUILDERS[name]()
    raise ValueError(f"unknown example {name!r}; choose from {', '.join(example_names())}")
