"""Property suite: lower-triangular systems whose diagonals tie or nearly tie,
|c_i| = |a_i| (1 + k 2^-60) for small integers k (k = 0 included), with
norms up to within 2^-20 of 1.  Such diagonals round to one float, so no
float test may stand in for the exact one: the certificate always comes back
as a report, and ``analyze`` fails only with the errors the CLI reports as
exit 1.  Whenever the exact dominance has a triangular cone, ``certify`` takes
the triangular route, and the cone's arc is re-checked in Fractions.

Skipped where hypothesis is not installed.
"""

from fractions import Fraction as F

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, event, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import affdim.pressure  # noqa: E402
from affdim.dimension import analyze_targets  # noqa: E402
from affdim.errors import AffdimError  # noqa: E402
from affdim.ifs import AffineMap, IfsSystem, Polygon, check_triangular_split  # noqa: E402
from affdim.linalg2 import Mat2  # noqa: E402
from affdim.splitting import SplitReport, certify, triangular_forward_cone  # noqa: E402

UNIT_SQUARE = Polygon(((0, 0), (1, 0), (1, 1), (0, 1)))

# |a|: a small-denominator rational, or one within 2^-j of 1
diagonal = st.one_of(
    st.integers(2, 64).flatmap(lambda q: st.integers(1, q - 1).map(lambda p: F(p, q))),
    st.integers(20, 50).map(lambda j: 1 - F(1, 2 ** j)),
)
near_tie_row = st.tuples(diagonal, st.integers(-16, 16), st.integers(-7, 7),
                         st.booleans(), st.booleans(), st.integers(0, 4), st.integers(0, 4))


def near_tie_map(a, k, b_eighths, flip_a, flip_c, tx, ty):
    """[[a, 0], [b, c]] with |c| = |a| (1 + k 2^-60) and |b| below 1 - max(|a|, |c|)."""
    c = a * (1 + F(k, 2 ** 60))
    b = F(b_eighths, 8) * (1 - max(a, c))
    return AffineMap(Mat2.lower_triangular(-a if flip_a else a, b, -c if flip_c else c),
                     (F(tx, 4), F(ty, 4)))


def near_tie_system(rows):
    try:
        return IfsSystem(tuple(near_tie_map(*r) for r in rows))
    except ValueError:  # a norm of 1 or more: not a contraction
        assume(False)


@settings(max_examples=40, deadline=None)
@given(rows=st.lists(near_tie_row, min_size=1, max_size=3), polygon=st.booleans())
def test_near_ties_certify_and_analyze_without_crashing(rows, polygon):
    sysm = near_tie_system(rows)
    split = certify(sysm)
    assert isinstance(split, SplitReport)
    with pytest.MonkeyPatch.context() as mp:  # two depths keep the finite-depth root quick
        mp.setattr(affdim.pressure, "DEFAULT_SCHEDULE", (2, 4))
        try:
            analyze_targets(sysm, ("measure", "attractor"),
                            polygon=UNIT_SQUARE if polygon else None, mc_n=50, mc_trials=10,
                            hochman_depth=3)
        except (AffdimError, ValueError, OSError):  # what cli.main reports as exit 1
            pass


def det(u, v):
    return u[0] * v[1] - u[1] * v[0]


def strictly_invariant_in_fractions(sysm, arc) -> bool:
    """The arc's ends as the exact rationals of their float unit vectors, u
    and v signed so that det[u, v] > 0 (the arc is shorter than pi): every
    exact linear part maps u and v strictly inside the cone s u + t v, or
    both strictly inside its negative, decided by determinant signs."""
    u, v = (tuple(map(F, p.to_vector())) for p in (arc.start, arc.end))
    if det(u, v) < 0:
        v = (-v[0], -v[1])
    assert det(u, v) > 0
    for f in sysm.maps:
        a11, a12, a21, a22 = f.linear.entries()
        images = [(a11 * x + a12 * y, a21 * x + a22 * y) for x, y in (u, v)]
        signs = {(det(u, w) > 0, det(w, v) > 0) for w in images}
        if any(det(u, w) == 0 or det(w, v) == 0 for w in images) or \
                signs not in ({(True, True)}, {(False, False)}):
            return False
    return True


# near-tie rows whose k share one sign, nonzero: c-dominant, or a-dominant
# for k < 0, however near the tie
dominated_rows = st.tuples(st.lists(near_tie_row, min_size=1, max_size=3),
                           st.sampled_from((-1, 1))).map(
    lambda rows_sign: [(a, rows_sign[1] * max(abs(k), 1), *rest)
                       for a, k, *rest in rows_sign[0]])


@settings(max_examples=200, deadline=None)
@given(rows=st.one_of(st.lists(near_tie_row, min_size=1, max_size=3), dominated_rows))
def test_triangular_cones_certify_and_are_invariant_in_fractions(rows):
    sysm = near_tie_system(rows)
    case = check_triangular_split(sysm)
    cone = triangular_forward_cone(sysm, case) if case in ("ADominant", "CDominant") else None
    event(f"{case}, {'an arc' if cone else 'no arc'}")
    if cone is not None:
        split = certify(sysm)
        assert split.certified and split.method == "Triangular" and split.triangular == case
        assert all(strictly_invariant_in_fractions(sysm, arc) for arc in cone.arcs)
