import math
from fractions import Fraction as F
from collections import Counter
from itertools import product

import numpy as np
import pytest

from conftest import brute_force_delta, compose_line_word

from affdim.errors import EnumerationTooLarge
from affdim.hochman import LineIfs, _levels, delta_n, direction_line_ifs, hochman_rate
from affdim.ifs import BernoulliWeights
from affdim.library import phi_c


class TestDeltaN:
    def test_dyadic_exact(self):
        ifs = LineIfs(((F(1, 2), F(0)), (F(1, 2), F(1, 2))))
        assert delta_n(ifs, 3) == F(1, 8)
        for n in range(1, 11):
            assert delta_n(ifs, n) == F(1, 2 ** n)

    def test_identical_maps_overlap(self):
        ifs = LineIfs(((F(1, 2), F(0)), (F(1, 2), F(0))))
        assert delta_n(ifs, 1) == 0

    def test_triadic_gap(self):
        ifs = LineIfs(((F(1, 3), F(0)), (F(1, 3), F(2, 3))))
        assert delta_n(ifs, 2) == F(2, 9)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(71)
        for _ in range(20):
            n_maps = int(rng.integers(2, 4))
            maps = []
            for _ in range(n_maps):
                beta = F(int(rng.integers(1, 5)), int(rng.integers(5, 9)))
                if rng.random() < 0.3:
                    beta = -beta
                gamma = F(int(rng.integers(-4, 5)), int(rng.integers(1, 7)))
                maps.append((beta, gamma))
            ifs = LineIfs(tuple(maps))
            for n in range(1, 6):
                assert delta_n(ifs, n) == brute_force_delta(ifs, n)

    @staticmethod
    def level_pairs(classes):
        """The multiset of (P, T) pairs that a level's ratio classes hold."""
        return Counter((P, t) for P, ts in classes.items() for t in ts)

    def test_composition_translation_identity(self):
        # level n of the enumeration holds, as ratio classes {P: [T, ...]},
        # the integer pairs (P, T) with beta_w = P/q^n and gamma_w = T/q^n of
        # every depth-n word; and g_(uv)(0) = g_u(g_v(0)) exactly in
        # rational arithmetic
        ifs = LineIfs(((F(2, 5), F(1, 3)), (F(-1, 4), F(2, 7))))
        levels = list(_levels(ifs, 4, 10 ** 6))
        assert len(levels) == 4
        for n in (2, 3, 4):
            scale, classes = levels[n - 1]
            assert scale == 420 ** n  # q = lcm(5, 3, 4, 7)
            pairs = self.level_pairs(classes)
            assert all(type(p) is int and type(t) is int for p, t in pairs)
            words = Counter(compose_line_word(ifs, w) for w in product(range(ifs.n), repeat=n))
            assert Counter({(F(p, scale), F(t, scale)): k for (p, t), k in pairs.items()}) == words
        rng = np.random.default_rng(73)
        for _ in range(20):
            u = [int(x) for x in rng.integers(0, 2, size=3)]
            v = [int(x) for x in rng.integers(0, 2, size=3)]
            bu, gu = compose_line_word(ifs, u)
            bv, gv = compose_line_word(ifs, v)
            buv, guv = compose_line_word(ifs, u + v)
            assert guv == gu + bu * gv
            assert buv == bu * bv

    def test_equal_ratios_share_one_class(self):
        # every map of this system contracts by 1/3 = 5/15: one class per
        # level, holding every word
        ifs = LineIfs(((F(1, 3), F(0)), (F(1, 3), F(1, 5)), (F(1, 3), F(2, 3))))
        for n, (scale, classes) in enumerate(_levels(ifs, 5, 10 ** 6), 1):
            assert scale == 15 ** n
            assert list(classes) == [5 ** n]
            assert len(classes[5 ** n]) == 3 ** n

    def test_float_input_is_read_as_binary_fractions(self):
        # float entries are the binary rationals they are: q = lcm(2, 4, 8)
        maps = ((0.5, 0.0), (-0.5, 0.75), (0.5, 0.125))
        ifs = LineIfs(maps)
        assert ifs.maps == ((F(1, 2), 0), (F(-1, 2), F(3, 4)), (F(1, 2), F(1, 8)))
        for n in (1, 2, 3):
            *_, (scale, classes) = _levels(ifs, n, 10 ** 6)
            assert scale == 8 ** n
            words = Counter(compose_line_word(ifs, w) for w in product(range(3), repeat=n))
            assert Counter({(F(p, scale), F(t, scale)): k
                            for (p, t), k in self.level_pairs(classes).items()}) == words
        assert delta_n(ifs, 1) == F(1, 8)

    def test_phi_c_memory_is_the_translations(self):
        """Depth 10 of phi-c's direction system (c = 2/5) is one ratio class
        of 3^10 words.  tracemalloc's peak stays within the translations of
        the last two levels, one int and one list slot per word, with half
        again for list over-allocation, a comprehension's temporary list and
        the sort's merge buffer: no per-word ratio is kept."""
        import sys
        import tracemalloc

        sysm, w, _ = phi_c(F(2, 5))
        ifs, _ = direction_line_ifs(sysm, w or BernoulliWeights.uniform(sysm.n))
        n = 10
        *_, (_, classes) = _levels(ifs, n, 10 ** 6)
        int_bytes = max(sys.getsizeof(t) for ts in classes.values() for t in ts)
        del classes
        tracemalloc.start()
        try:
            rows = hochman_rate(ifs, n).rows
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rows) == n
        assert peak <= 1.5 * (ifs.n ** n + ifs.n ** (n - 1)) * (int_bytes + 8)

    def test_single_map_always_infinite(self):
        # every ratio class is a singleton only when there is a single word
        # per depth, so the all-distinct-products case is the one-map system
        ifs = LineIfs(((F(3, 7), F(1, 2)),))
        for n in range(1, 5):
            assert delta_n(ifs, n) == math.inf

    def test_enumeration_cap(self):
        ifs = LineIfs(((F(1, 2), F(0)), (F(1, 2), F(1, 2))))
        with pytest.raises(EnumerationTooLarge):
            delta_n(ifs, 40)
        assert delta_n(ifs, 3, cap=8) == F(1, 8)  # N^n exactly at the cap
        with pytest.raises(EnumerationTooLarge, match="2\\^4 = 16 exceeds cap 8"):
            delta_n(ifs, 4, cap=8)


class TestHochmanRate:
    def test_dyadic_trend(self):
        ifs = LineIfs(((F(1, 2), F(0)), (F(1, 2), F(1, 2))))
        rep = hochman_rate(ifs, 6)
        assert rep.verdict == "TrendBounded"
        for n, d, rate in rep.rows:
            assert d == F(1, 2 ** n)
            assert rate == pytest.approx(math.log(2), abs=1e-12)

    def test_repeated_map_overlap_at_one(self):
        ifs = LineIfs(((F(1, 3), F(0)), (F(1, 3), F(0)), (F(1, 3), F(1, 3))))
        rep = hochman_rate(ifs, 5)
        assert rep.verdict == "ExactOverlap"
        assert rep.rows[0] == (1, 0, math.inf)

    def test_separated_images_bounded(self):
        # images of [0,1] are [0,1/3] and [2/3,1]: first-level gap 1/3
        ifs = LineIfs(((F(1, 3), F(0)), (F(1, 3), F(2, 3))))
        rep = hochman_rate(ifs, 6)
        assert rep.verdict == "TrendBounded"
        for n, d, rate in rep.rows:
            assert d >= F(1, 3) * F(1, 3) ** n

    def test_rows_match_delta_n(self):
        for maps in (
            ((F(1, 3), F(0)), (F(-2, 7), F(1, 2)), (F(1, 3), F(3, 5))),
            ((0.3, 0.0), (-0.3, 0.5), (0.45, 0.25)),
        ):
            ifs = LineIfs(maps)
            rep = hochman_rate(ifs, 6)
            assert [d for _, d, _ in rep.rows] == [delta_n(ifs, n) for n in range(1, 7)]

    def test_cap_reached_only_past_an_overlap(self):
        # the rows stop at the first exact overlap, before the cap matters;
        # without one the first depth over the cap raises
        overlap = LineIfs(((F(1, 2), F(0)), (F(1, 2), F(0))))
        rep = hochman_rate(overlap, 30, cap=10)
        assert rep.verdict == "ExactOverlap" and len(rep.rows) == 1
        dyadic = LineIfs(((F(1, 2), F(0)), (F(1, 2), F(1, 2))))
        with pytest.raises(EnumerationTooLarge, match="2\\^4 = 16"):
            hochman_rate(dyadic, 6, cap=8)

    def test_float_rows_match_rational_on_mixed_signs(self):
        """Ratios of opposite sign never share a class: the dyadic maps give
        the same rows as floats as they do as rationals (inf, 1/16, 1/64, and
        the first exact overlap at n = 4)."""
        exact = LineIfs(((F(1, 2), F(0)), (F(-1, 2), F(3, 4)), (F(1, 4), F(1, 8))))
        floats = LineIfs(((0.5, 0.0), (-0.5, 0.75), (0.25, 0.125)))
        want, got = hochman_rate(exact, 6), hochman_rate(floats, 6)
        assert [d for _, d, _ in want.rows] == [math.inf, F(1, 16), F(1, 64), 0]
        assert [d for _, d, _ in got.rows] == [float(d) for _, d, _ in want.rows]
        assert got.verdict == want.verdict == "ExactOverlap"

    def test_float_input_equals_its_fractions(self):
        rep = hochman_rate(LineIfs(((0.5, 0.0), (0.5, 0.5))), 4)
        assert rep == hochman_rate(LineIfs(((F(1, 2), F(0)), (F(1, 2), F(1, 2)))), 4)
        assert rep.verdict == "TrendBounded"

    def test_sec44_direction_ifs(self):
        ifs = LineIfs(((F(8, 27), F(1)), (F(8, 27), F(0)), (F(8, 27), F(-1))))
        rep = hochman_rate(ifs, 6)
        assert rep.verdict == "TrendBounded"
        assert all(d > 0 for _, d, _ in rep.rows)


class TestMergedDuplicates:
    def test_merge_sums_weights(self):
        ifs = LineIfs(((F(1, 2), F(0)), (F(1, 2), F(0)), (F(1, 3), F(1))))
        merged, w = ifs.merged_duplicates((F(1, 4), F(1, 4), F(1, 2)))
        assert merged.n == 2
        assert w == (F(1, 2), F(1, 2))

    def test_hull_of_symmetric_family(self):
        ifs = LineIfs(((F(8, 27), F(1)), (F(8, 27), F(0)), (F(8, 27), F(-1))))
        lo, hi = ifs.hull()
        assert lo == pytest.approx(-27 / 19, abs=1e-12)
        assert hi == pytest.approx(27 / 19, abs=1e-12)

    @pytest.mark.parametrize("beta", [-0.95, -0.99])
    def test_hull_is_invariant_for_slow_reflections(self, beta):
        # the ends grow by a factor |beta| per round, so these need far more
        # rounds than the symmetric family to settle
        ifs = LineIfs(((beta, 0.0), (beta, 1.0)))
        lo, hi = ifs.hull()
        for b, g in ifs.maps:
            assert lo <= b * lo + g <= hi and lo <= b * hi + g <= hi
        # the true hull of x -> beta x + {0, 1} is [beta, 1] / (1 - beta^2)
        assert (lo, hi) == pytest.approx((beta / (1 - beta * beta), 1 / (1 - beta * beta)))


def test_moved_helpers_keep_their_old_import_paths():
    import affdim
    from affdim import dimension, hochman, ifs, splitting

    assert dimension.direction_line_ifs is hochman.direction_line_ifs
    assert dimension.x_axis_line_ifs is hochman.x_axis_line_ifs
    assert splitting.check_triangular_split is ifs.check_triangular_split
    assert affdim.check_triangular_split is ifs.check_triangular_split
    assert all(getattr(affdim, name) is not None for name in affdim.__all__)
