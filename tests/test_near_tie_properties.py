"""Property suite: lower-triangular systems whose diagonals tie or nearly tie,
|c_i| = |a_i| (1 + k 2^-60) for small integers k (k = 0 included), with
norms up to within 2^-20 of 1.  Such diagonals round to one float, so no
float test may stand in for the exact one: the certificate always comes back
as a report, and ``analyze`` fails only with the errors the CLI reports as
exit 1.  Whenever the exact dominance has a triangular cone, ``certify`` takes
the triangular route exactly when the cone, re-checked in Fractions, is
strictly invariant.  The same re-check holds for every cone certified by the
positivity and proposal routes, and a Fraction-only overlap check of the
inverse images gives the backward non-overlapping status.  The system's
triangular class (``IfsSystem.triangular``) is the one re-derived on the
Fractions, with upper-right entries, signs and mixed dominance drawn too.

Skipped where hypothesis is not installed.
"""

import math
from fractions import Fraction as F
from itertools import combinations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, event, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import affdim.pressure  # noqa: E402
from affdim.dimension import analyze_targets, backward_non_overlapping  # noqa: E402
from affdim.errors import AffdimError, NotTriangular  # noqa: E402
from affdim.ifs import AffineMap, IfsSystem, Polygon, check_triangular_split  # noqa: E402
from affdim.linalg2 import Mat2, ProjArc  # noqa: E402
from affdim.splitting import (Multicone, SplitReport, certify,  # noqa: E402
                              check_multicone_invariance, propose_multicone,
                              triangular_forward_cone)

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


def image(m, uv):
    """The images under the Mat2 ``m``, its entries as Fractions, of the
    vectors ``uv``."""
    a11, a12, a21, a22 = map(F, m.entries())
    return [(a11 * x + a12 * y, a21 * x + a22 * y) for x, y in uv]


def strictly_invariant_in_fractions(linears, cone) -> bool:
    """Each arc's exact ends u, v (``cone.ends``, det[u, v] > 0): every
    linear part maps the u and v of each arc strictly inside the cone
    s u' + t v' of one arc, or both strictly inside its negative, decided by
    determinant signs."""
    ends = cone.ends
    assert all(det(u, v) > 0 for u, v in ends)

    def inside(images, host):
        u, v = host
        signs = {(det(u, w) > 0, det(w, v) > 0) for w in images}
        return all(det(u, w) != 0 and det(w, v) != 0 for w in images) and \
            signs in ({(True, True)}, {(False, False)})

    return all(any(inside(image(m, uv), host) for host in ends) for m in linears for uv in ends)


def images_overlap_in_fractions(linears, cone) -> bool:
    """Whether the images of ``cone`` under two of the linear parts share an
    interior direction: an end of one image lies strictly inside the other
    (w = s p + t q with s t > 0, s and t by Cramer's rule), or the two images
    have the same pair of end lines.  No orientation is needed."""
    def strictly_inside(w, p, q):
        return det(w, q) / det(p, q) * (det(p, w) / det(p, q)) > 0

    rows = [[image(m, uv) for uv in cone.ends] for m in linears]
    return any(any(strictly_inside(w, *b) for w in a) or any(strictly_inside(w, *a) for w in b)
               or all(any(det(w, z) == 0 for z in b) for w in a)
               for row_i, row_j in combinations(rows, 2) for a in row_i for b in row_j)


QUADRANT = Multicone((ProjArc.from_angles(0.0, math.pi / 2),), (((1, 0), (0, 1)),))


def assert_cone_verdicts_match_fractions(sysm):
    """The engine's forward verdict on the quadrant and on the proposed cone,
    and its backward status on the certificate's backward cone when the cone
    route decides it, are the Fraction checkers'; returns that status."""
    linears = [f.linear for f in sysm.maps]
    proposed = propose_multicone(sysm)
    for cone in [QUADRANT] + ([proposed[0]] if proposed else []):
        assert check_multicone_invariance(sysm, cone).certified == \
            strictly_invariant_in_fractions(linears, cone)
    split = certify(sysm)
    if not split.certified or sysm.triangular in ("ADominant", "CDominant"):
        return None
    inverses = [Mat2(*map(F, m.entries())).inverse() for m in linears]
    backward = split.backward_cone
    verified = strictly_invariant_in_fractions(inverses, backward) and \
        not images_overlap_in_fractions(inverses, backward)
    status = backward_non_overlapping(sysm, split)
    assert status == ("Failed" if len(sysm.symbols) < sysm.n
                      else "Verified" if verified else "Unknown")
    return status


# near-tie rows whose k share one sign, nonzero: c-dominant, or a-dominant
# for k < 0, however near the tie
dominated_rows = st.tuples(st.lists(near_tie_row, min_size=1, max_size=3),
                           st.sampled_from((-1, 1))).map(
    lambda rows_sign: [(a, rows_sign[1] * max(abs(k), 1), *rest)
                       for a, k, *rest in rows_sign[0]])


@settings(max_examples=200, deadline=None)
@given(rows=st.one_of(st.lists(near_tie_row, min_size=1, max_size=3), dominated_rows))
def test_triangular_cones_certify_and_are_invariant_in_fractions(rows):
    # the triangular cone is only a proposal: the exact check decides it, and
    # certify takes the triangular route exactly when the arc nests in
    # Fractions.  Its exact ends (1, +-K) or (+-1, T) lie past the exact
    # bound, so every arc there nests, sign flips and near ties included
    sysm = near_tie_system(rows)
    case = check_triangular_split(sysm)
    cone = triangular_forward_cone(sysm, case) if case in ("ADominant", "CDominant") else None
    nests = cone is not None and strictly_invariant_in_fractions(
        [f.linear for f in sysm.maps], cone)
    event(f"{case}, {'no arc' if cone is None else 'an arc that nests' if nests else 'an arc'}")
    if cone is not None:
        split = certify(sysm)
        assert nests and check_multicone_invariance(sysm, cone).certified
        assert split.method == "Triangular" and sysm.triangular == case


def test_positive_and_proposed_cones_are_invariant_in_fractions():
    # every cone the positivity and proposal routes certify nests in Fractions,
    # checked arc by arc against every arc of the cone
    from test_cli import PROPOSED_CONE_CONFIGS, ZERO_CLEARANCE_CONFIG
    from test_splitting import random_conjugated_system

    from affdim.ifs import parse_system
    from affdim.library import hl_demo

    configs = [*PROPOSED_CONE_CONFIGS.values(), ZERO_CLEARANCE_CONFIG]
    systems = [parse_system(text).system for text in configs] + [hl_demo()[0]]
    systems += [random_conjugated_system(seed) for seed in range(60)]
    methods = []
    for sysm in systems:
        split = certify(sysm)
        if split.certified:
            methods.append(split.method)
            assert strictly_invariant_in_fractions([f.linear for f in sysm.maps], split.multicone)
    assert methods.count("MulticoneCheck") >= 29 and "Positivity" in methods


def test_cone_verdicts_match_the_fraction_checkers():
    # forward and backward, on the proposal's systems, hl-demo and the 60
    # random conjugated systems
    from test_cli import PROPOSED_CONE_CONFIGS
    from test_splitting import random_conjugated_system

    from affdim.ifs import parse_system
    from affdim.library import hl_demo

    systems = [parse_system(text).system for text in PROPOSED_CONE_CONFIGS.values()]
    systems += [hl_demo()[0]] + [random_conjugated_system(seed) for seed in range(60)]
    statuses = [assert_cone_verdicts_match_fractions(sysm) for sysm in systems]
    assert statuses[:3] == ["Unknown", "Verified", "Verified"]
    assert statuses[3:].count("Unknown") >= 29  # the random images overlap


positive = st.integers(1, 11).flatmap(lambda p: st.integers(2 * p + 1, 24).map(lambda q: F(p, q)))


@settings(max_examples=200, deadline=None)
@given(entries=st.lists(positive, min_size=8, max_size=8))
def test_positive_pairs_match_the_fraction_checkers(entries):
    # entries in (0, 1/2): the quadrant certifies, and the backward status
    # turns on how the two inverse images of its complement meet
    linears = Mat2(*entries[:4]), Mat2(*entries[4:])
    assume(all(m.det != 0 for m in linears))
    sysm = IfsSystem((AffineMap(linears[0], (F(0), F(0))), AffineMap(linears[1], (F(1, 2), F(1, 2)))))
    status = assert_cone_verdicts_match_fractions(sysm)
    event(str(status))
    assert status is not None


# one map of the class property: |a| from ``diagonal``; |c| ties it, nearly
# ties it (+-2^-60), or is drawn apart; random signs
class_row = st.tuples(diagonal, st.sampled_from(("tie", "above", "below", "apart")), diagonal,
                      st.integers(-7, 7), st.booleans(), st.booleans(),
                      st.integers(0, 4), st.integers(0, 4))


def class_map(a, relation, other, b_eighths, flip_a, flip_c, tx, ty, upper=0):
    """[[+-a, u], [b, +-c]], u = upper/8 and b = b_eighths/8 times 1 - max(|a|, |c|)."""
    c = {"tie": a, "above": a * (1 + F(1, 2 ** 60)), "below": a * (1 - F(1, 2 ** 60)),
         "apart": other}[relation]
    room = 1 - max(a, c)
    m = Mat2(-a if flip_a else a, F(upper, 8) * room, F(b_eighths, 8) * room,
             -c if flip_c else c)
    return AffineMap(m, (F(tx, 4), F(ty, 4)))


@settings(max_examples=150, deadline=None)
@given(rows=st.lists(class_row, min_size=1, max_size=4),
       uppers=st.lists(st.tuples(st.integers(0, 3), st.sampled_from((-3, -1, 1, 2))),
                       max_size=2))
def test_triangular_class_is_the_fraction_class(rows, uppers):
    # ``uppers`` puts nonzero upper-right entries on some maps (index mod the
    # map count).  The class is re-derived on the Fractions of the rows: None
    # on a nonzero upper-right entry, else the strict dominance every map shares
    upper = {k % len(rows): u for k, u in uppers}
    try:
        sysm = IfsSystem(tuple(class_map(*r, upper=upper.get(k, 0)) for k, r in enumerate(rows)))
    except ValueError:  # a norm of 1 or more: not a contraction
        assume(False)
    diagonals = [(abs(f.linear.a11), abs(f.linear.a22)) for f in sysm.maps]
    if upper:
        want = None
    elif all(a > c for a, c in diagonals):
        want = "ADominant"
    elif all(a < c for a, c in diagonals):
        want = "CDominant"
    else:
        want = "None"
    event(repr(want))
    assert sysm.triangular == want
    if upper:
        first = min(upper) + 1
        with pytest.raises(NotTriangular, match=f"^map {first} has a nonzero upper-right entry$"):
            check_triangular_split(sysm)
    else:
        assert check_triangular_split(sysm) == want
    if certify(sysm).method == "Triangular":
        assert want in ("ADominant", "CDominant")
