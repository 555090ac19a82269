import math
from fractions import Fraction

import numpy as np
import pytest

from affdim.errors import BadSymbol, NonConvexPolygon, ParseError
from affdim.ifs import (
    AffineMap,
    BernoulliWeights,
    IfsSystem,
    Polygon,
    check_ssc,
    compose_word,
    format_number,
    natural_projection,
    parse_system,
    polygons_disjoint,
    rng,
    sample_measure,
    serialize_system,
    shared_columns,
)
from affdim.library import hl_demo, phi_c, sec44
from affdim.linalg2 import Mat2


def random_system(rng, n=3, norm_cap=0.2, corners=((0.1, 0.1), (0.8, 0.1), (0.45, 0.8))):
    """Small random maps placed at separated corners of the unit square."""
    maps = []
    for k in range(n):
        while True:
            e = rng.uniform(-1, 1, size=4)
            m = Mat2(*e)
            if abs(m.det) > 0.05:
                break
        from affdim.linalg2 import operator_norm

        scale = norm_cap * rng.uniform(0.5, 1.0) / operator_norm(m)
        maps.append(AffineMap(m.scaled(scale), corners[k % len(corners)]))
    return IfsSystem(tuple(maps))


UNIT_SQUARE = Polygon(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)))


class TestComposeWord:
    def test_empty_word_is_identity(self):
        sysm, _, _ = sec44()
        f = compose_word(sysm, ())
        assert f.linear.entries() == (1.0, 0.0, 0.0, 1.0)
        assert f.translation == (0.0, 0.0)

    def test_single_symbol(self):
        sysm, _, _ = sec44()
        assert compose_word(sysm, (2,)) == sysm.maps[1]

    def test_matches_nested_application(self):
        rng = np.random.default_rng(21)
        sysm = random_system(rng, n=2)
        f12 = compose_word(sysm, (1, 2))
        for _ in range(100):
            x = tuple(rng.uniform(-2, 2, size=2))
            direct = f12.apply(x)
            nested = sysm.maps[0].apply(sysm.maps[1].apply(x))
            assert abs(direct[0] - nested[0]) < 1e-12
            assert abs(direct[1] - nested[1]) < 1e-12

    def test_concatenation_homomorphism(self):
        rng = np.random.default_rng(22)
        sysm = random_system(rng)
        u, v = (1, 3, 2), (2, 2, 1, 3)
        full = compose_word(sysm, u + v)
        split = compose_word(sysm, u).compose(compose_word(sysm, v))
        for a, b in zip(full.linear.entries(), split.linear.entries()):
            assert abs(a - b) < 1e-12
        for a, b in zip(full.translation, split.translation):
            assert abs(a - b) < 1e-12

    def test_bad_symbol(self):
        sysm, _, _ = sec44()
        with pytest.raises(BadSymbol):
            compose_word(sysm, (1, 4))


class TestNaturalProjection:
    def test_constant_word_hits_fixed_point(self):
        # depth chosen so (2/3)^depth beats the 1e-12 tolerance
        sysm, _, _ = sec44()
        for i in (1, 2, 3):
            fp = sysm.maps[i - 1].fixed_point()
            pt, bound = natural_projection(sysm, (i,) * 90)
            assert abs(pt[0] - float(fp[0])) < 1e-12
            assert abs(pt[1] - float(fp[1])) < 1e-12
            assert bound < 1e-9

    def test_phi_c_first_map_fixed_point(self):
        sysm, _, _ = phi_c(Fraction(1, 4))
        fp = sysm.maps[0].fixed_point()
        assert fp == (Fraction(1, 2), Fraction(0))
        pt, _ = natural_projection(sysm, (1,) * 80)
        assert abs(pt[0] - 0.5) < 1e-12 and abs(pt[1]) < 1e-12

    def test_empty_word_rejected(self):
        sysm, _, _ = sec44()
        with pytest.raises(ValueError):
            natural_projection(sysm, ())

    def test_error_bound_dominates_truncation(self):
        sysm, _, _ = sec44()
        rng = np.random.default_rng(23)
        for _ in range(20):
            w = tuple(rng.integers(1, 4, size=12))
            pt, bound = natural_projection(sysm, w)
            # extending the word moves the point by less than the bound
            ext, _ = natural_projection(sysm, w + (1, 2, 3) * 10)
            dist = math.hypot(pt[0] - ext[0], pt[1] - ext[1])
            assert dist <= bound


class TestSampleMeasure:
    def test_preconditions(self):
        sysm, w, _ = sec44()
        with pytest.raises(ValueError):
            sample_measure(sysm, w, depth=0, count=10, rng_seed=1)
        with pytest.raises(ValueError):
            sample_measure(sysm, w, depth=5, count=0, rng_seed=1)

    def test_single_map_collapses_to_fixed_point(self):
        m = AffineMap(Mat2.diagonal(0.5, 0.25), (1.0, 2.0))
        sysm = IfsSystem((m,))
        pts = sample_measure(sysm, BernoulliWeights((1.0,)), depth=50, count=8, rng_seed=3)
        fp = m.fixed_point()
        assert np.allclose(pts, [float(fp[0]), float(fp[1])], atol=0.5 ** 50 * 10 + 1e-12)

    def test_mean_matches_closed_form(self):
        sysm, w, _ = sec44()
        count = 20_000
        pts = sample_measure(sysm, w, depth=40, count=count, rng_seed=7)
        A = np.stack(sysm.columns[:4], axis=-1).reshape(-1, 2, 2)
        t = np.stack(sysm.columns[4:], axis=-1)
        p = w.as_array
        mean_exact = np.linalg.solve(np.eye(2) - np.einsum("i,ijk->jk", p, A),
                                     np.einsum("i,ij->j", p, t))
        se = pts.std(axis=0, ddof=1) / math.sqrt(count)
        assert np.all(np.abs(pts.mean(axis=0) - mean_exact) < 3 * se + 1e-12)

    def test_bit_reproducible(self):
        sysm, w, _ = sec44()
        a = sample_measure(sysm, w, depth=12, count=500, rng_seed=99)
        b = sample_measure(sysm, w, depth=12, count=500, rng_seed=99)
        assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("block", [None, 50, 1])
    def test_blocks_equal_one_shot_draw(self, block, monkeypatch):
        """Symbols drawn a block of samples at a time give the points of one
        rng.choice draw of the whole (count, depth) array."""
        import affdim.ifs

        sysm, _, _ = sec44()
        w = BernoulliWeights((Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)))
        if block is not None:
            monkeypatch.setattr(affdim.ifs, "SYMBOL_BLOCK", block)
        got = sample_measure(sysm, w, depth=7, count=301, rng_seed=5, seed_point=(0.25, 0.5))
        syms = rng(5).choice(3, size=(301, 7), p=w.as_array)
        a11, a12, a21, a22, tx, ty = sysm.columns
        x, y = np.full(301, 0.25), np.full(301, 0.5)
        for k in range(6, -1, -1):
            i = syms[:, k]
            x, y = (a11[i] * x + a12[i] * y + tx[i],
                    a21[i] * x + a22[i] * y + ty[i])
        assert np.array_equal(got, np.column_stack([x, y]))


class TestBernoulliDraw:
    class _Words:
        """Stands in for a Generator whose raw Philox words are given."""

        def __init__(self, words):
            self.bit_generator = self
            self.words = np.asarray(words, dtype=np.uint64)

        def random_raw(self, shape):
            return self.words.reshape(shape)

    @pytest.mark.parametrize("p", [(Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)),
                                   (Fraction(1, 3), Fraction(2, 3))], ids=["quarters", "thirds"])
    def test_word_at_a_cut_counts_it(self, p):
        """A word equal to the cut word of a cdf value goes to the next
        symbol, as its uniform (w >> 11) 2^-53 does under the right-sided
        searchsorted of Generator.choice; the word one below it does not."""
        w = BernoulliWeights(p)
        cuts = [math.ceil(c * 2.0 ** 53) << 11 for c in w._cdf[:-1].tolist()]
        words = [0, 2 ** 64 - 1] + [c + d for c in cuts for d in (-1, 0)]
        got = w.draw(self._Words(words), len(words))
        assert got.dtype == np.intp
        assert got[2:].tolist() == [k + d for k in range(len(cuts)) for d in (0, 1)]
        u = (np.array(words, dtype=np.uint64) >> np.uint64(11)) * 2.0 ** -53
        assert np.array_equal(got, w._cdf.searchsorted(u, side="right"))

    def test_a_weight_below_the_last_cdf_step_is_never_drawn(self):
        """Weights (1, 1e-20) have the cdf [1.0, 1.0]: a cut at 1.0 would
        not fit 64 bits and no double below 1 reaches it."""
        w = BernoulliWeights((1, 10 ** -20))
        assert w._cdf.tolist() == [1.0, 1.0]
        assert w.draw(self._Words([0, 2 ** 63, 2 ** 64 - 1]), 3).tolist() == [0, 0, 0]
        assert not w.draw(rng(4), (50, 20)).any()

    def test_one_symbol_draw_advances_the_stream(self):
        w = BernoulliWeights((Fraction(1),))
        gen, ref = rng(3), rng(3)
        assert w.draw(gen, (4, 5)).tolist() == [[0] * 5] * 4
        ref.choice(1, size=(4, 5), p=w.as_array)
        assert gen.random() == ref.random()

    def test_shapes(self):
        w = BernoulliWeights.uniform(3)
        assert w.draw(rng(1), 5).shape == (5,)
        assert w.draw(rng(1), (4, 2)).shape == (4, 2)
        assert w.draw(rng(1), (0, 3)).shape == (0, 3)


class TestCheckSsc:
    def test_sec44_parallelogram_holds(self):
        sysm, _, poly = sec44()
        rep = check_ssc(sysm, poly)
        assert rep.holds and rep.kappa > 0 and rep.margin > 0

    def test_phi_c_square_fails_exactly(self):
        sysm, _, square = phi_c(Fraction(1, 4))
        rep = check_ssc(sysm, square)
        assert not rep.holds
        assert rep.kappa == 0.0 and rep.margin <= 0.0

    def test_far_apart_images_hold(self):
        sysm, _, square = hl_demo()
        rep = check_ssc(sysm, square)
        assert rep.holds and rep.kappa > 0.4

    def test_monotone_in_tolerance(self):
        # margin is about 0.0101, kappa about 0.0287: holds below the margin,
        # fails above it, and relaxing the tolerance can never break a pass.
        sysm, _, poly = sec44()
        assert not check_ssc(sysm, poly, tolerance=Fraction(1, 50)).holds
        assert check_ssc(sysm, poly, tolerance=Fraction(1, 200)).holds
        assert check_ssc(sysm, poly, tolerance=0).holds

    def test_cylinder_disjointness_to_depth_3(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            sysm = random_system(rng)
            rep = check_ssc(sysm, UNIT_SQUARE, tolerance=1e-9)
            if not rep.holds:
                continue
            polys = {}
            words = [(i,) for i in range(1, sysm.n + 1)]
            for depth in range(2, 4):
                words = [w + (i,) for w in words for i in range(1, sysm.n + 1)]
            for w in words:
                polys[w] = UNIT_SQUARE.transform(compose_word(sysm, w))
            ws = list(polys)
            for i in range(len(ws)):
                for j in range(i + 1, len(ws)):
                    assert polygons_disjoint(polys[ws[i]], polys[ws[j]])

    def test_witness_vertex_prints_like_every_number(self):
        # vertices through format_number; float entries are read exactly, so
        # the float-built system's image 3 pokes out of the square by 2^-55
        sysm, _, square = phi_c(Fraction(2, 5))
        assert check_ssc(sysm, square).witness == "image 1 vertex (1/3, 0) not interior to O"
        float_sys = IfsSystem(tuple(f.to_float() for f in sysm.maps))
        assert check_ssc(float_sys, square).witness == (
            "image 3 vertex (6004799503160661/18014398509481984, "
            "36028797018963969/36028797018963968) not interior to O")

    def test_nonconvex_rejected(self):
        with pytest.raises(NonConvexPolygon):
            Polygon(((0, 0), (2, 0), (1, 0.2), (2, 2), (0, 2)))

    def test_clockwise_input_canonicalized(self):
        p = Polygon(((0, 0), (0, 1), (1, 1), (1, 0)))  # clockwise
        assert len(p) == 4  # accepted; orientation normalized to ccw


class TestSharedColumns:
    def test_bitwise_equal_columns_become_floats(self):
        # hl-demo's a12 = a21 = 1/25 in both maps; a11, a22 and t differ
        sysm, _, _ = hl_demo()
        got = sysm.step_columns
        assert [type(c) is float for c in got] == [False, True, True, False, False, False]
        assert got[1] == got[2] == 0.04
        assert all(a is b for a, b in zip(got, sysm.columns) if type(a) is not float)

    def test_signed_zeros_stay_an_array(self):
        """-a12/det of lower-triangular maps whose dets differ in sign is
        -0.0 for one map and +0.0 for the other: multiplying by one shared
        zero would flip the sign of some products."""
        sysm = IfsSystem((AffineMap(Mat2(0.5, 0.0, 0.1, 0.25), (0.0, 0.0)),
                          AffineMap(Mat2(-0.5, 0.0, 0.1, 0.25), (0.5, 0.0))))
        a11, a12, a21, a22 = sysm.columns[:4]
        inv12 = -a12 / (a11 * a22 - a12 * a21)
        assert [math.copysign(1.0, x) for x in inv12.tolist()] == [-1.0, 1.0]
        got = shared_columns((inv12, a12, -a12))
        assert got[0] is inv12
        assert type(got[1]) is float and math.copysign(1.0, got[1]) == 1.0
        assert type(got[2]) is float and math.copysign(1.0, got[2]) == -1.0


class TestSystemTables:
    def test_symbols_and_columns(self):
        # phi-c: maps 1-2, 3-4 and 5-6 share their linear parts
        sysm, _, _ = phi_c(Fraction(2, 5))
        assert sysm.symbols == ((0, 1), (2, 3), (4, 5))
        assert [c.tolist() for c in sysm.columns] == \
            [[float(x) for x in col] for col in zip(*(f.linear.entries() + f.translation
                                                     for f in sysm.maps))]


class TestParseSerialize:
    def test_round_trip(self):
        sysm, w, poly = sec44()
        text = serialize_system(sysm, w, poly)
        back = parse_system(text)
        assert back.system.maps == sysm.maps
        assert back.system.label == "sec44"
        assert back.weights.p == w.p
        assert back.polygon.vertices == poly.vertices

    def test_sec44_rationals(self):
        sysm, _, _ = sec44()
        assert all(type(x) is Fraction for f in sysm.maps
                   for x in f.linear.entries() + f.translation)
        assert sysm.maps[0].linear.a11 == Fraction(16, 81)
        assert sysm.maps[2].translation == (Fraction(1721, 2187), Fraction(-38, 81))

    def test_missing_weights(self):
        text = "map 0.5 0 0 0.5 0 0\nmap 0.5 0 0 0.5 0.5 0.5\n"
        parsed = parse_system(text)
        assert parsed.weights is None and parsed.polygon is None

    def test_bad_number_diagnostic(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_system("map 0.5 0 0 0.5 0 0\nmap 0.5 0 zero 0.5 0 0\n")

    def test_weights_length_mismatch(self):
        with pytest.raises(ParseError, match="weights"):
            parse_system("map 0.5 0 0 0.5 0 0\nmap 0.5 0 0 0.5 1 1\nweights 1/2 1/4 1/4\n")

    def test_expansion_rejected(self):
        with pytest.raises(ParseError, match="contraction"):
            parse_system("map 2 0 0 0.5 0 0\nmap 0.5 0 0 0.5 1 1\n")

    def test_unknown_directive(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_system("bogus 1 2 3\n")


class TestFormatNumber:
    @pytest.mark.parametrize("value, text", [
        (0.1, "0.1"),
        (np.float64(0.1), "0.1"),
        (np.float32(0.5), "0.5"),
        (1e-17, "1e-17"),
        (float("inf"), "inf"),
        (7, "7"),
        (Fraction(3, 1), "3"),
        (Fraction(-1, 4), "-1/4"),
        ("inf", "inf"),
    ])
    def test_text(self, value, text):
        assert format_number(value) == text

    def test_serialized_numpy_floats_read_as_floats(self):
        m = Mat2(np.float64(0.5), 0, np.float64(0.25), 0.5)
        sysm = IfsSystem((AffineMap(m, (0, 0)), AffineMap(m, (np.float64(0.5), 0))))
        text = serialize_system(sysm)
        assert "np." not in text
        assert text.splitlines()[1] == "map 1/2 0 1/4 1/2 1/2 0"
        assert parse_system(text).system.maps == sysm.maps

    def test_float_system_round_trips_exactly(self):
        # 0.1 is stored as the binary rational nearest 1/10, and printed so
        m = Mat2(0.1, 0, 0, 0.1)
        sysm = IfsSystem((AffineMap(m, (0, 0)), AffineMap(m, (0.5, 0.5))))
        text = serialize_system(sysm)
        tenth = "3602879701896397/36028797018963968"
        assert text.splitlines()[0] == f"map {tenth} 0 0 {tenth} 0 0"
        assert parse_system(text).system.maps == sysm.maps
