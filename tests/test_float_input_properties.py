"""Property suite: a system built from floats is the system of the binary
rationals those floats are, so strong separation, bunching and Delta_n
decide the same as on the entries written as Fractions.

Skipped where hypothesis is not installed.
"""

from fractions import Fraction as F

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from affdim.dimension import one_bunched  # noqa: E402
from affdim.hochman import LineIfs, hochman_rate  # noqa: E402
from affdim.ifs import AffineMap, IfsSystem, Polygon, check_ssc  # noqa: E402
from affdim.linalg2 import Mat2  # noqa: E402

entry = st.floats(-0.6, 0.6)
affine_rows = st.lists(st.tuples(*[entry] * 4, st.floats(-1, 1), st.floats(-1, 1)),
                       min_size=1, max_size=3)


def outcome(fn, *args):
    """fn(*args), or the type and text of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as e:
        return type(e), str(e)


def system(rows, num):
    return IfsSystem(tuple(AffineMap(Mat2(*map(num, r[:4])), (num(r[4]), num(r[5])))
                           for r in rows))


def ssc(rows, num, side):
    square = Polygon(tuple((num(x), num(y)) for x, y in
                           ((-side, -side), (side, -side), (side, side), (-side, side))))
    return check_ssc(system(rows, num), square)


@settings(max_examples=60, deadline=None)
@given(rows=affine_rows, side=st.floats(0.5, 4))
def test_ssc_of_floats_is_ssc_of_their_fractions(rows, side):
    assert outcome(ssc, rows, float, side) == outcome(ssc, rows, F, side)


@settings(max_examples=200, deadline=None)
@given(e=st.tuples(*[entry] * 4))
def test_one_bunched_of_floats_is_one_bunched_of_their_fractions(e):
    assert one_bunched(Mat2(*e)) == one_bunched(Mat2(*map(F, e)))


@settings(max_examples=60, deadline=None)
@given(maps=st.lists(st.tuples(st.floats(-0.99, 0.99), st.floats(-1, 1)), min_size=1,
                     max_size=3),
       n_max=st.integers(2, 4))
def test_hochman_rate_of_floats_is_that_of_their_fractions(maps, n_max):
    def rate(num):
        return hochman_rate(LineIfs(tuple((num(b), num(g)) for b, g in maps)), n_max)

    assert outcome(rate, float) == outcome(rate, F)
