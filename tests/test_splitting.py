import math
from fractions import Fraction

import numpy as np
import pytest

from affdim.errors import NotCertified, NotTriangular, PrefixTooShort
from affdim.ifs import AffineMap, BernoulliWeights, IfsSystem, parse_system
from affdim.library import hl_demo, phi_c, sec44
from affdim.linalg2 import (Mat2, ProjArc, ProjPoint, angle_gap, proj_act, proj_metric,
                            singular_values)
from affdim.splitting import (
    Multicone,
    attracting_line,
    certify,
    check_multicone_invariance,
    check_triangular_split,
    min_angle_separation,
    min_circular_gap,
    sample_e_s_angles,
    sample_nu_ss_angles,
    stable_direction,
    strong_stable_direction,
)

F = Fraction


def triangular_system(rows, translations=None, norm_cap=None):
    """rows = [(a, b, c), ...] lower-triangular entries.

    With ``norm_cap`` each row is rescaled to that operator norm; uniform
    scaling preserves domination and the direction-field slopes.
    """
    if translations is None:
        translations = [(0.0, 0.0)] * len(rows)
    mats = [Mat2.lower_triangular(a, b, c) for a, b, c in rows]
    if norm_cap is not None:
        from affdim.linalg2 import operator_norm

        mats = [m.scaled(min(1.0, norm_cap / operator_norm(m))) for m in mats]
    maps = tuple(AffineMap(m, t) for m, t in zip(mats, translations))
    return IfsSystem(maps)


def random_cdominant(rng, n=3):
    rows = []
    for _ in range(n):
        c = rng.uniform(0.45, 0.8)
        a = rng.uniform(0.1, 0.9) * c * 0.8
        b = rng.uniform(-0.8, 0.8)
        sa = -1 if rng.random() < 0.3 else 1
        sc = -1 if rng.random() < 0.3 else 1
        rows.append((sa * a, b, sc * c))
    return triangular_system(rows, norm_cap=0.9)


class TestTriangularCriterion:
    def test_phi_c_quarter_is_a_dominant(self):
        sysm, _, _ = phi_c(F(1, 4))
        assert check_triangular_split(sysm) == "ADominant"

    def test_phi_c_04_is_c_dominant(self):
        sysm, _, _ = phi_c(F(2, 5))
        assert check_triangular_split(sysm) == "CDominant"

    def test_tie_yields_none(self):
        sysm = triangular_system([(0.5, 0.1, 0.5), (0.3, 0.0, 0.6)])
        assert check_triangular_split(sysm) == "None"

    def test_non_triangular_rejected(self):
        sysm = IfsSystem((AffineMap(Mat2(0.5, 0.1, 0.0, 0.5), (0, 0)),
                          AffineMap(Mat2(0.5, 0.0, 0.0, 0.4), (1, 1))))
        with pytest.raises(NotTriangular):
            check_triangular_split(sysm)


class TestMulticoneInvariance:
    def test_positive_entries_first_quadrant(self):
        sysm, _, _ = hl_demo()
        cone = Multicone((ProjArc.from_angles(0.0, math.pi / 2),))
        rep = check_multicone_invariance(sysm, cone)
        assert rep.certified and rep.margin > 0

    def test_rotation_fails_the_cone_and_certify_refutes(self):
        # a failing cone refutes no other cone; the similarity proof does
        m = Mat2.rotation(1.0).scaled(0.5)
        sysm = IfsSystem((AffineMap(m, (0, 0)), AffineMap(m, (1, 0))))
        cone = Multicone((ProjArc.from_angles(0.2, 1.2),))
        rep = check_multicone_invariance(sysm, cone)
        assert rep.verdict == "Unknown" and rep.margin == -math.inf
        assert certify(sysm).verdict == "Refuted"

    def test_diagonal_attracting_axis(self):
        sysm = IfsSystem((AffineMap(Mat2.diagonal(0.5, 0.25), (0, 0)),
                          AffineMap(Mat2.diagonal(0.5, 0.25), (1, 1))))
        cone = Multicone((ProjArc.around(0.0, 0.3),))
        rep = check_multicone_invariance(sysm, cone)
        assert rep.certified


class TestAttractingLine:
    def test_dominant_eigenvector(self):
        # M v is parallel to v, and |M v| is the spectral radius
        g = np.random.default_rng(3)
        for _ in range(500):
            m = Mat2(*(float(x) for x in g.uniform(-1, 1, 4)))
            a, b, c, d = m.entries()
            disc = (a - d) ** 2 + 4 * b * c
            p = attracting_line(m)
            if disc <= 0:
                assert p is None
                continue
            x, y = p.to_vector()
            u, v = m.apply((x, y))
            assert abs(x * v - y * u) < 1e-12
            assert math.hypot(u, v) == pytest.approx((abs(a + d) + math.sqrt(disc)) / 2,
                                                     rel=1e-12)

    def test_none_without_a_dominant_eigenvalue(self):
        assert attracting_line(Mat2.rotation(0.5).scaled(0.5)) is None  # complex pair
        assert attracting_line(Mat2(F(1, 2), F(0), F(0), F(-1, 2))) is None  # +-1/2
        assert attracting_line(Mat2(F(1, 2), F(1), F(0), F(1, 2))) is None  # one eigenline
        assert attracting_line(Mat2.diagonal(F(1, 5), F(1, 2))) == ProjPoint(math.pi / 2)


class TestCertify:
    def test_sec44_triangular_route(self):
        sysm, _, _ = sec44()
        rep = certify(sysm)
        assert rep.certified and rep.method == "Triangular"
        assert rep.triangular == "CDominant" and rep.margin > 0

    def test_hl_demo_positivity_route(self):
        sysm, _, _ = hl_demo()
        rep = certify(sysm)
        assert rep.certified and rep.method == "Positivity" and rep.margin > 0

    def test_similarity_refuted(self):
        m = Mat2.rotation(0.7).scaled(0.5)
        sysm = IfsSystem((AffineMap(m, (0, 0)), AffineMap(Mat2.diagonal(0.5, 0.25), (1, 1))))
        assert certify(sysm).verdict == "Refuted"

    def test_conjugated_positive_system_via_proposal(self):
        # rotate a positive-entry pair out of the positive quadrant; only the
        # multicone search can certify it
        r = Mat2.rotation(0.9)
        rinv = Mat2.rotation(-0.9)
        base = [Mat2(0.3, 0.1, 0.05, 0.25), Mat2(0.2, 0.12, 0.8, 0.9)]
        maps = tuple(AffineMap(r @ (m.scaled(0.4) @ rinv), (k, 0.0)) for k, m in enumerate(base))
        sysm = IfsSystem(maps)
        rep = certify(sysm)
        assert rep.certified and rep.method == "MulticoneCheck"
        assert rep.margin > 0

    def test_multi_arc_cone_for_interleaved_attractors(self):
        # conjugating the diagonal by a 2.0 rotation interleaves attracting
        # and repelling directions, so no single arc is invariant; the
        # proposal has to assemble a genuine multi-arc cone
        d = Mat2.diagonal(0.6, 0.05)
        r, ri = Mat2.rotation(2.0), Mat2.rotation(-2.0)
        sysm = IfsSystem((AffineMap(d, (0.0, 0.0)),
                          AffineMap(r @ (d @ ri), (2.0, 0.0))))
        rep = certify(sysm)
        assert rep.certified and rep.method == "MulticoneCheck"
        assert len(rep.multicone.arcs) >= 2
        assert rep.margin > 0

    def test_unknown_for_rotation_mix(self):
        # irrationalish rotation + diagonal: not dominated, no exact obstruction
        maps = (AffineMap(Mat2.rotation(1.0) @ Mat2.diagonal(0.6, 0.5), (0, 0)),
                AffineMap(Mat2.diagonal(0.6, 0.5), (1, 1)))
        sysm = IfsSystem(maps)
        assert certify(sysm).verdict in ("Unknown", "Refuted")

    @pytest.mark.parametrize("case, rows", [
        ("CDominant", [(F(1, 2), F(0), F(1, 2) + F(1, 10 ** 20)), (F(1, 3), F(1, 4), F(1, 2))]),
        ("ADominant", [(F(1, 2) + F(1, 10 ** 20), F(0), F(1, 2)), (F(1, 2), F(1, 4), F(1, 3))]),
    ], ids=["c-dominant", "a-dominant"])
    def test_near_tie_declines_the_triangular_route(self, case, rows):
        # |a_1| and |c_1| are one float, and the float cone bound once divided
        # by zero.  Only the a-dominant mirror still declines: its exact bound
        # max|b/a| / (1 - max|c/a|), about 2.5e19, leaves no float arc below
        # pi/2, while the c-dominant bound max|b| / (|c| - |a|) is 3/2
        from affdim.splitting import triangular_forward_cone

        sysm = triangular_system(rows)
        assert check_triangular_split(sysm) == case
        cone = triangular_forward_cone(sysm, case)
        rep = certify(sysm)
        if case == "CDominant":
            assert cone is not None and rep.certified
            assert rep.method == "Triangular" and rep.triangular == "CDominant"
        else:
            assert cone is None
            assert rep.method != "Triangular" and rep.triangular is None

    def test_bound_past_every_float_declines(self):
        # |c_1| - |a_1| = 10^-400: the exact bound 10^400 / 4 has no float, and
        # its arc would be the whole line
        from affdim.splitting import triangular_forward_cone

        sysm = triangular_system([(F(1, 2), F(1, 4), F(1, 2) + F(1, 10 ** 400))])
        assert check_triangular_split(sysm) == "CDominant"
        assert triangular_forward_cone(sysm, "CDominant") is None

    @pytest.mark.parametrize("sign", [1, -1], ids=["same-sign", "flipped"])
    def test_near_tie_arc_must_nest_in_fractions(self, sign):
        # c = a (1 + 2^-60): the band |slope| >= 1 is invariant, but its float
        # ends are not mirror images, so a map that flips the slope's sign sends
        # one end just outside the other; that arc is declined
        from affdim.splitting import triangular_forward_cone

        a = 1 - F(1, 2 ** 20)
        sysm = triangular_system([(a, F(0), sign * a * (1 + F(1, 2 ** 60)))])
        cone = triangular_forward_cone(sysm, "CDominant")
        assert (cone is not None) == (sign == 1)
        assert certify(sysm).certified == (sign == 1)


def random_conjugated_system(seed):
    """2-4 maps R(c + t) diag(s1, s2) R(p - c), t and p uniform in (-w, w):
    strongly non-conformal maps whose image and weak directions, in bands of
    random half-width w, are turned together by c, so many are dominated
    outside the positive quadrant, some only by a multi-arc cone."""
    g = np.random.default_rng(seed)
    c, w = g.uniform(0, math.pi), g.uniform(0.2, 1.2)
    maps = []
    for k in range(int(g.integers(2, 5))):
        t, p = g.uniform(-w, w, 2)
        s1 = float(g.uniform(0.3, 0.9))
        d = Mat2.diagonal(s1, s1 * float(g.uniform(0.02, 0.4)))
        maps.append(AffineMap(Mat2.rotation(c + t) @ d @ Mat2.rotation(p - c), (float(k), 0.0)))
    return IfsSystem(tuple(maps))


class TestProposedConeSoundness:
    def test_arc_points_map_strictly_inside(self, monkeypatch):
        # a pointwise re-check that does not go through splitting.nest: 65
        # evenly spaced points of every arc, ends included, map by float Mat2
        # into the open interior of some arc; certification draws no random
        # numbers and gives the same arcs on every call
        import affdim.splitting as splitting_mod
        from test_cli import PROPOSED_CONE_CONFIGS

        def no_random(*args, **kwargs):
            raise AssertionError("certification drew random numbers")

        monkeypatch.setattr(splitting_mod, "rng", no_random)
        systems = [parse_system(text).system for text in PROPOSED_CONE_CONFIGS.values()]
        systems += [random_conjugated_system(seed) for seed in range(60)]
        proposed = 0
        for sysm in systems:
            rep = certify(sysm)
            if rep.method != "MulticoneCheck":
                continue
            assert rep.multicone == certify(sysm).multicone
            proposed += 1
            arcs = rep.multicone.arcs
            for m in (f.linear.to_float() for f in sysm.maps):
                for arc in arcs:
                    for k in range(65):
                        q = proj_act(m, ProjPoint(arc.start.theta + arc.length * k / 64))
                        assert any(0 < angle_gap(a.start.theta, q.theta) < a.length
                                   for a in arcs)
        assert proposed >= 29  # both configs and 27 of the 60 random systems


class TestStrongStableDirection:
    def test_constant_word_eigendirection(self):
        sysm = triangular_system([(0.125, 0.5, 0.25), (0.125, -0.25, 0.25)])
        got = strong_stable_direction(sysm, (1,) * 80, tol=1e-13)
        want = ProjPoint.from_slope(-4.0)  # -b/(c-a) = -1/0.25
        assert proj_metric(got, want) < 1e-10

    def test_a_dominant_is_vertical(self):
        sysm, _, _ = phi_c(F(1, 4))
        rng = np.random.default_rng(5)
        for _ in range(5):
            w = tuple(int(x) for x in rng.integers(1, 7, size=30))
            got = strong_stable_direction(sysm, w)
            assert got.theta == math.pi / 2

    def test_series_matches_iteration(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            sysm = random_cdominant(rng)
            w = tuple(int(x) for x in rng.integers(1, sysm.n + 1, size=400))
            tol = 1e-10
            s = strong_stable_direction(sysm, w, tol=tol, method="series")
            it = strong_stable_direction(sysm, w, tol=tol, method="iterate")
            assert proj_metric(s, it) < 10 * tol

    def test_iterate_reads_words_of_any_length(self):
        # |a/c| = 0.999 contracts so slowly that convergence to 1e-10 takes
        # more than 10,000 symbols; the whole word is read, not a prefix
        sysm = triangular_system([(0.4995, 0.1, 0.5), (0.4995, -0.05, 0.5)])
        w = (1, 2, 2) * 15000
        it = strong_stable_direction(sysm, w, tol=1e-10, method="iterate")
        series = strong_stable_direction(sysm, w, tol=1e-10, method="series")
        assert proj_metric(it, series) < 1e-12

    def test_prefix_too_short(self):
        sysm = triangular_system([(0.125, 0.5, 0.25), (0.125, -0.25, 0.25)])
        with pytest.raises(PrefixTooShort):
            strong_stable_direction(sysm, (1, 2), tol=1e-13)

    def test_not_certified(self):
        m = Mat2.rotation(0.7).scaled(0.5)
        sysm = IfsSystem((AffineMap(m, (0, 0)), AffineMap(m, (1, 1))))
        with pytest.raises(NotCertified):
            strong_stable_direction(sysm, (1,) * 50)

    def test_shift_invariance(self):
        # A_{i0} e_ss(i) = e_ss(sigma i)
        sysm, _, _ = sec44()
        rng = np.random.default_rng(17)
        tol = 1e-12
        for _ in range(20):
            w = tuple(int(x) for x in rng.integers(1, 4, size=120))
            e_full = strong_stable_direction(sysm, w, tol=tol)
            e_shift = strong_stable_direction(sysm, w[1:], tol=tol)
            assert proj_metric(proj_act(sysm.maps[w[0] - 1].linear, e_full), e_shift) < 10 * tol


class TestStableDirection:
    def test_c_dominant_constant_word_vertical(self):
        sysm = triangular_system([(0.125, 0.5, 0.25), (0.125, -0.25, 0.25)])
        got = stable_direction(sysm, (1,) * 40)
        assert got.theta == math.pi / 2

    def test_diagonal_a_dominant_horizontal(self):
        sysm = triangular_system([(0.5, 0.0, 0.25), (0.6, 0.0, 0.2)])
        got = stable_direction(sysm, (1, 2, 1, 2) * 20)
        assert got.theta == pytest.approx(0.0, abs=1e-12)

    def test_forward_invariance_along_words(self):
        # A_{i_{-1}} e_s(past) = e_s(past + one more recent symbol)
        sysm, _, _ = phi_c(F(1, 4))
        rng = np.random.default_rng(23)
        tol = 1e-12
        for _ in range(20):
            w = tuple(int(x) for x in rng.integers(1, 7, size=130))
            j = int(rng.integers(1, 7))
            e_w = stable_direction(sysm, w, tol=tol)
            e_wj = stable_direction(sysm, w + (j,), tol=tol)
            assert proj_metric(proj_act(sysm.maps[j - 1].linear, e_w), e_wj) < 10 * tol

    def test_iterate_matches_series_a_dominant(self):
        rng = np.random.default_rng(29)
        for _ in range(30):
            rows = []
            for _ in range(3):
                a = rng.uniform(0.5, 0.85)
                c = rng.uniform(0.1, 0.9) * a * 0.8
                b = rng.uniform(-0.6, 0.6)
                rows.append((a, b, c))
            sysm = triangular_system(rows, norm_cap=0.9)
            w = tuple(int(x) for x in rng.integers(1, 4, size=400))
            tol = 1e-10
            s = stable_direction(sysm, w, tol=tol, method="series")
            it = stable_direction(sysm, w, tol=tol, method="iterate")
            assert proj_metric(s, it) < 10 * tol


class TestNuSsSampling:
    def test_a_dominant_all_vertical(self):
        sysm, w, _ = phi_c(F(1, 4))
        angles = sample_nu_ss_angles(sysm, w, None, 50, 3)
        assert all(t == math.pi / 2 for t in angles)

    def test_single_map_eigendirection(self):
        sysm = IfsSystem((AffineMap(Mat2.lower_triangular(0.125, 0.5, 0.25), (0, 0)),))
        angles = sample_nu_ss_angles(sysm, BernoulliWeights((1.0,)), None, 20, 11)
        want = ProjPoint.from_slope(-4.0).theta
        assert np.allclose(angles, want, atol=1e-9)

    def test_phi_c_04_support_in_direction_hull(self):
        from affdim.library import phi_c_direction_ifs

        sysm, w, _ = phi_c(F(2, 5))
        lo, hi = phi_c_direction_ifs(F(2, 5)).hull()
        angles = sample_nu_ss_angles(sysm, w, None, 2000, 7)
        slopes = np.tan(angles)
        assert slopes.min() >= lo - 1e-9
        assert slopes.max() <= hi + 1e-9

    def test_deterministic(self):
        sysm, w, _ = sec44()
        a = sample_nu_ss_angles(sysm, w, 60, 400, 5)
        b = sample_nu_ss_angles(sysm, w, 60, 400, 5)
        assert a.tobytes() == b.tobytes()

    def test_generic_route_matches_triangular(self):
        # force the generic inverse-product route by passing a split without
        # the triangular tag, then compare with the exact series
        sysm, w, _ = sec44()
        from affdim.splitting import SplitReport, triangular_forward_cone

        cone = triangular_forward_cone(sysm, "CDominant")
        split = SplitReport("Certified", method="MulticoneCheck", multicone=cone, margin=0.1)
        generic = sample_nu_ss_angles(sysm, w, 80, 200, 9, split=split)
        series = sample_nu_ss_angles(sysm, w, 80, 200, 9)
        assert np.max(np.abs(np.sin(generic - series))) < 1e-8


class TestMinSeparation:
    def test_diagonal_orthogonal(self):
        sysm = triangular_system([(0.5, 0.0, 0.25), (0.6, 0.0, 0.2)])
        sep = min_angle_separation(sysm, BernoulliWeights.uniform(2), None, 300, 13)
        assert sep == pytest.approx(1.0, abs=1e-12)

    def test_a_dominant_closed_form_bound(self):
        rows = [(0.6, 0.3, 0.2), (0.7, -0.2, 0.3)]
        sysm = triangular_system(rows)
        s_bound = max(abs(b / a) for a, b, c in rows) / (1 - max(abs(c / a) for a, b, c in rows))
        sep = min_angle_separation(sysm, BernoulliWeights.uniform(2), None, 500, 19)
        assert sep >= 1.0 / math.sqrt(1 + s_bound ** 2) - 1e-9

    def test_sec44_positive_regression(self):
        sysm, w, _ = sec44()
        sep = min_angle_separation(sysm, w, None, 10_000, 21)
        assert sep > 0.5  # e_ss slopes stay within [-27/19, 27/19], e_s vertical
        assert sep == pytest.approx(0.5746, abs=2e-2)


class TestMinCircularGap:
    @staticmethod
    def brute_force(a, b):
        best = math.pi
        for x in a:
            for y in b:
                d = abs(y - x)
                best = min(best, d, math.pi - d)
        return best

    def test_matches_double_loop(self):
        gen = np.random.default_rng(31)
        for _ in range(200):
            a = gen.uniform(0.0, math.pi, size=int(gen.integers(1, 30)))
            b = gen.uniform(0.0, math.pi, size=int(gen.integers(1, 30)))
            assert min_circular_gap(a, b) == self.brute_force(a, b)

    def test_wraps_at_pi(self):
        a = np.array([0.001, 1.5])
        b = np.array([math.pi - 0.002, 0.9])
        assert min_circular_gap(a, b) == self.brute_force(a, b)
        assert min_circular_gap(a, b) == pytest.approx(0.003, abs=1e-15)
        assert min_circular_gap(b, a) == pytest.approx(0.003, abs=1e-15)

    def test_min_angle_separation_is_sin_of_pair_minimum(self):
        sysm, w, _ = hl_demo()
        ss = sample_nu_ss_angles(sysm, w, None, 150, 3)
        es = sample_e_s_angles(sysm, w, None, 150, 3)
        want = math.sin(self.brute_force(ss, es))
        assert min_angle_separation(sysm, w, None, 150, 3) == want
        assert min_angle_separation(sysm, w, None, 150, 3, ss_angles=ss) == want


class TestSampleBlocks:
    @pytest.mark.parametrize("example, sampler", [
        ("hl-demo", "nu_ss"), ("hl-demo", "e_s"),  # generic product routes
        ("phi-c 2/5", "nu_ss"), ("phi-c 1/4", "e_s"),  # triangular slope series
    ])
    def test_blocks_do_not_change_the_angles(self, example, sampler, monkeypatch):
        import affdim.ifs

        if example == "hl-demo":
            sysm, w, _ = hl_demo()
        else:
            sysm, w, _ = phi_c(F(example.split()[1]))
        fn = sample_nu_ss_angles if sampler == "nu_ss" else sample_e_s_angles
        whole = fn(sysm, w, 12, 257, 8)
        monkeypatch.setattr(affdim.ifs, "SYMBOL_BLOCK", 40)
        assert np.array_equal(fn(sysm, w, 12, 257, 8), whole)


class TestSamplerArguments:
    @pytest.mark.parametrize("example", ["hl-demo", "sec44", "phi-c"])
    @pytest.mark.parametrize("sampler", [sample_nu_ss_angles, sample_e_s_angles],
                             ids=["nu_ss", "e_s"])
    @pytest.mark.parametrize("depth, count", [(None, 0), (5, -3), (0, 10), (-2, 10)])
    def test_count_and_depth_below_one_rejected(self, example, sampler, depth, count):
        # every route, the pinned vertical one included, checks both
        sysm, w, _ = {"hl-demo": hl_demo, "sec44": sec44}.get(example, lambda: phi_c(F(2, 5)))()
        with pytest.raises(ValueError, match="count|depth"):
            sampler(sysm, w, depth, count, 0)


class TestDominationProperties:
    def test_ratio_growth(self):
        sysm, _, _ = sec44()
        rng = np.random.default_rng(31)
        rates = []
        for n in (4, 8, 12, 16, 20):
            for _ in range(20):
                w = rng.integers(0, 3, size=n)
                m = Mat2.identity()
                for s in w:
                    m = sysm.maps[int(s)].linear.to_float() @ m
                a1, a2 = singular_values(m)
                rates.append(math.log(a1 / a2) / n)
        assert min(rates) > 0.1

    def test_stable_norm_comparability(self):
        # |log ||A_w restricted to e_s|| - log alpha1(A_w)| stays bounded in |w|
        sysm, w_uniform, _ = sec44()
        rng = np.random.default_rng(37)
        max_gap = {}
        for n in (5, 10, 15, 20):
            worst = 0.0
            for _ in range(30):
                past = tuple(int(x) for x in rng.integers(1, 4, size=80))
                word = [int(x) for x in rng.integers(1, 4, size=n)]
                e = stable_direction(sysm, past, tol=1e-12)
                vx, vy = e.to_vector()
                m = Mat2.identity()
                for s in word:
                    m = sysm.maps[s - 1].linear.to_float() @ m
                nx, ny = m.apply((vx, vy))
                gap = abs(math.log(math.hypot(nx, ny)) - math.log(singular_values(m).alpha1))
                worst = max(worst, gap)
            max_gap[n] = worst
        # bounded, no growth trend
        ns = sorted(max_gap)
        slope = (max_gap[ns[-1]] - max_gap[ns[0]]) / (ns[-1] - ns[0])
        assert slope < 0.02
        assert max(max_gap.values()) < 2.0


def _rotated_diagonal():
    from test_cli import PROPOSED_CONE_CONFIGS

    from affdim.ifs import parse_system

    return parse_system(PROPOSED_CONE_CONFIGS["rotated-diagonal"]).system


def _thin_rotated_pair():
    """diag(1/5, 1/100) and its conjugate by the rotation (3/5, 4/5): the
    proposal certifies it with a multi-arc cone."""
    d = Mat2.diagonal(F(1, 5), F(1, 100))
    r = Mat2(F(3, 5), F(-4, 5), F(4, 5), F(3, 5))
    rt = Mat2(F(3, 5), F(4, 5), F(-4, 5), F(3, 5))
    return IfsSystem((AffineMap(d, (F(0), F(0))), AffineMap(r @ (d @ rt), (F(1, 2), F(1, 2)))))


class TestSingleWordAgreesWithSampler:
    """strong_stable_direction and stable_direction on one word give the
    angle that the sampler gives for the row that holds that word."""

    @pytest.mark.parametrize("case", ["hl-demo", "sec44", "phi-c", "rotated-diagonal"])
    def test_rows_match(self, case):
        from affdim.ifs import rng

        if case == "rotated-diagonal":
            sysm = _rotated_diagonal()
            w = BernoulliWeights.uniform(sysm.n)
        else:
            sysm, w, _ = {"hl-demo": hl_demo, "sec44": sec44,
                          "phi-c": lambda: phi_c(F(1, 4))}[case]()
        depth, count, split = 80, 12, certify(sysm)
        for stream, sampler, single in ((0, sample_nu_ss_angles, strong_stable_direction),
                                        (1, sample_e_s_angles, stable_direction)):
            angles = sampler(sysm, w, depth, count, 5, split)
            rows = w.draw(rng(5, stream), (count, depth)) + 1
            for row, angle in zip(rows, angles):
                # the sampler's e_s rows run into the past; stable_direction
                # takes its word oldest symbol first
                word = tuple(int(s) for s in (row if stream == 0 else row[::-1]))
                got = single(sysm, word, tol=1e-6, split=split).theta
                gap = abs(got - angle)
                assert min(gap, math.pi - gap) <= 1e-14


class TestWholeConeBound:
    """``tol`` bounds the distance to the limit of every extension of the
    word, on a multi-arc cone where the first arc alone says too little."""

    @pytest.mark.parametrize("tol", [1e-3, 1e-6])
    def test_within_tol_of_every_extension(self, tol):
        sysm = _thin_rotated_pair()
        split = certify(sysm)
        assert len(split.multicone.arcs) > 1
        rng = np.random.default_rng(43)
        returned = 0
        for _ in range(30):
            w = tuple(int(x) for x in rng.integers(1, 3, size=int(rng.integers(2, 12))))
            # e_ss extends the future word and folds inverse maps on the
            # backward cone; e_s extends the past and folds forward maps on
            # the forward cone, most recent symbol first
            for single, extended, cone, inverse in (
                (strong_stable_direction, lambda e: w + e, split.backward_cone, True),
                (stable_direction, lambda e: (e + w)[::-1], split.multicone, False),
            ):
                try:
                    got = single(sysm, w, tol=tol, split=split)
                except PrefixTooShort:
                    continue
                returned += 1
                for _ in range(5):
                    ext = tuple(int(x) for x in rng.integers(1, 3, size=80))
                    limit = self.product_limit(sysm, extended(ext), cone, inverse)
                    assert proj_metric(got, limit) < tol
        assert returned > 20

    @staticmethod
    def product_limit(sysm, word, cone, inverse):
        """The cone's seed under M_{w_1} ... M_{w_n}, folded on Mat2: an
        independent reference for the limit of a long word."""
        prod = Mat2.identity()
        for s in word:
            m = sysm.maps[s - 1].linear.to_float()
            prod = prod @ (m.inverse() if inverse else m)
            prod = prod.scaled(1.0 / max(abs(e) for e in prod.entries()))
        return ProjPoint.from_vector(*prod.apply(cone.seed_point().to_vector()))


def test_certificate_is_computed_once_per_system(monkeypatch):
    # analyze, the T4.1 statuses and the direction routines called without a
    # split all read IfsSystem.certificate
    import affdim.splitting as splitting_mod
    from affdim.dimension import analyze_targets, hueter_lalley_check

    from conftest import count_calls

    sysm = _thin_rotated_pair()
    proposals = count_calls(monkeypatch, splitting_mod, "propose_multicone")
    analyze_targets(sysm, ("measure",), mc_n=50, mc_trials=10)
    hueter_lalley_check(sysm)
    first = strong_stable_direction(sysm, (1, 2) * 8, tol=1e-3)
    again = stable_direction(sysm, (2, 1) * 8, tol=1e-3)
    assert len(proposals) == 1
    assert first == strong_stable_direction(sysm, (1, 2) * 8, tol=1e-3, split=certify(sysm))
    assert again == stable_direction(sysm, (2, 1) * 8, tol=1e-3, split=certify(sysm))


def test_certified_split_needs_its_cone():
    from affdim.splitting import SplitReport

    with pytest.raises(ValueError, match="multicone"):
        SplitReport("Certified")
