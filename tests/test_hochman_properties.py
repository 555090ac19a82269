"""Property suite: the integer enumeration behind Delta_n against the
word-pair oracle, and the exact hull, on random rational line systems.

Skipped where hypothesis is not installed.
"""

from fractions import Fraction as F

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from conftest import brute_force_delta  # noqa: E402

from affdim.hochman import LineIfs, delta_n, hochman_rate  # noqa: E402


@st.composite
def rational_line_maps(draw):
    """1-3 maps beta x + gamma with rational 0 < |beta| < 1 of either sign;
    a drawn map may repeat an earlier one, giving an exact overlap."""
    maps = []
    for _ in range(draw(st.integers(1, 3))):
        if maps and draw(st.booleans()) and draw(st.booleans()):
            maps.append(draw(st.sampled_from(maps)))
            continue
        den = draw(st.integers(2, 9))
        beta = F(draw(st.integers(1, den - 1)), den) * draw(st.sampled_from((1, -1)))
        gamma = F(draw(st.integers(-6, 6)), draw(st.integers(1, 7)))
        maps.append((beta, gamma))
    return tuple(maps)


@settings(max_examples=80, deadline=None)
@given(maps=rational_line_maps(), n=st.integers(1, 5))
@example(maps=((F(3, 7), F(1, 2)),), n=5)  # one map: every class a singleton
@example(maps=((F(1, 2), F(1, 3)), (F(1, 2), F(1, 3))), n=1)  # repeated map
@example(maps=((F(-1, 2), F(3, 2)), (F(1, 3), F(2, 3))), n=2)  # common fixed point
@example(maps=((F(-2, 9), F(0)), (F(2, 9), F(-5, 7)), (F(-2, 9), F(1, 4))), n=5)
def test_delta_n_matches_word_pair_oracle(maps, n):
    ifs = LineIfs(maps)
    assert delta_n(ifs, n) == brute_force_delta(ifs, n)


@settings(max_examples=40, deadline=None)
@given(maps=rational_line_maps(), n_max=st.integers(2, 5))
def test_rows_are_the_oracle_up_to_the_first_overlap(maps, n_max):
    ifs = LineIfs(maps)
    rep = hochman_rate(ifs, n_max)
    want = []
    for n in range(1, n_max + 1):
        want.append(brute_force_delta(ifs, n))
        if want[-1] == 0:
            break
    assert [d for _, d, _ in rep.rows] == want
    assert (rep.verdict == "ExactOverlap") == (want[-1] == 0)


twentieths = st.integers(-19, 19).filter(bool).map(lambda k: F(k, 20))
shifts = st.builds(F, st.integers(-9, 9), st.integers(1, 9))


@settings(max_examples=80, deadline=None)
@given(maps=st.lists(st.tuples(twentieths, shifts), min_size=1, max_size=4))
@example(maps=[(F(-19, 20), F(0)), (F(-19, 20), F(1))])  # slow reflections
def test_hull_is_the_least_invariant_interval(maps):
    lo, hi = LineIfs(maps).hull()
    ends = [b * x + g for b, g in maps for x in (lo, hi)]
    # every image lies inside the hull, and the outermost reach its ends
    assert (min(ends), max(ends)) == (lo, hi)
