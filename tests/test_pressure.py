import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

import affdim.pressure as pressure_mod
from affdim.ergodic import entropy, lyapunov_triangular
from affdim.errors import EnumerationTooLarge, NoDomination, NoSignChange, NotTriangular
from affdim.ifs import AffineMap, BernoulliWeights, IfsSystem
from affdim.library import hl_demo, phi_c, sec44
from affdim.linalg2 import Mat2, phi_s, singular_values
from affdim.pressure import (
    ROOT_TOL,
    phi_log_values,
    pressure_n,
    pressure_root,
    triangular_pressure,
    triangular_pressure_root,
    triangular_roots,
    word_log_singulars,
)

SEC44_DIM = 1.0 + math.log(2.0) / math.log(81.0 / 16.0)


def similar_system(rho, n, angle=0.6):
    maps = tuple(
        AffineMap(Mat2.rotation(angle * k) @ Mat2.diagonal(rho, rho), (float(k), 0.0))
        for k in range(n)
    )
    return IfsSystem(maps)


from conftest import random_positive_system, random_triangular_system, six_distinct_maps_system


def phi_c_subsystem():
    """phi-c, c = 1/4, without maps 4 and 6: four maps, three linear parts."""
    sysm, _, _ = phi_c(F(1, 4))
    return IfsSystem(tuple(f for k, f in enumerate(sysm.maps, 1) if k not in (4, 6)))


def shared_linear_part_system():
    """Three maps; the first and last share a linear part but not a translation."""
    a = Mat2(0.5, 0.1, -0.05, 0.3)
    b = Mat2.lower_triangular(0.25, 0.2, 0.4)
    return IfsSystem((AffineMap(a, (0.0, 0.0)), AffineMap(b, (0.5, 0.0)),
                      AffineMap(a, (0.0, 0.6))))


def three_unequal_symbols_system():
    """shared_linear_part_system and a map with a third linear part: three
    symbols whose |det| and multiplicities both differ."""
    c = AffineMap(Mat2.lower_triangular(0.3, 0.1, 0.2), (0.2, 0.3))
    return IfsSystem(shared_linear_part_system().maps + (c,))


def root_above_two_system():
    """Six lower-triangular maps with a = 3/5 and c = 9/20: s1 = 3.5076 and
    s2 = 2.6042 both lie above 2, so the root solves 6 (ac)^(s/2) = 1."""
    shears = (F(1, 10), F(-1, 10), F(0), F(1, 5), F(-1, 5), F(1, 20))
    return IfsSystem(tuple(AffineMap(Mat2.lower_triangular(F(3, 5), b, F(9, 20)), (F(k, 6), F(0)))
                           for k, b in enumerate(shears)))


def brute_force_phi_sum(sysm, s, n):
    """sum over all N^n words of phi^s(A_w), one product per word, no merging."""
    products = [Mat2.identity()]
    for _ in range(n):
        products = [p @ f.linear for p in products for f in sysm.maps]
    return math.fsum(phi_s(p, s) for p in products)


def bisection_root(sysm, n, tol=ROOT_TOL):
    """Reference depth-n root: midpoint of a plain bisection bracket on [0, 4]."""
    log_a1, log_det, log_w = word_log_singulars(sysm, n)

    def p(s):
        v = np.asarray(phi_log_values(log_a1, log_det, s)(slice(None))) + log_w
        m = float(np.max(v))
        return m + math.log(float(np.sum(np.exp(v - m))))

    lo, hi = 0.0, 4.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if p(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestPressureN:
    def test_s_zero_gives_log_n(self):
        sysm, _, _ = sec44()
        for n in (1, 2, 5):
            assert pressure_n(sysm, 0.0, n) == pytest.approx(math.log(3), abs=1e-12)

    def test_n1_s1_is_log_sum_alpha1(self):
        sysm, _, _ = sec44()
        want = math.log(sum(singular_values(f.linear).alpha1 for f in sysm.maps))
        assert pressure_n(sysm, 1.0, 1) == pytest.approx(want, rel=1e-12)

    def test_equal_similarity_exact(self):
        rho, n_maps = 0.4, 3
        sysm = similar_system(rho, n_maps)
        for n in (1, 3, 6):
            for s in (0.0, 0.7, 1.3, 2.5):
                want = math.log(n_maps) + s * math.log(rho)
                assert pressure_n(sysm, s, n) == pytest.approx(want, abs=1e-10)

    def test_strictly_decreasing_in_s(self):
        sysm, _, _ = sec44()
        grid = np.linspace(0.0, 3.5, 15)
        vals = [pressure_n(sysm, float(s), 4) for s in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_subadditive_along_doubling(self):
        rng = np.random.default_rng(41)
        for _ in range(5):
            sysm = random_triangular_system(rng)
            for s in (0.3, 0.9, 1.4, 2.2):
                p4 = pressure_n(sysm, s, 4)
                p8 = pressure_n(sysm, s, 8)
                assert p8 <= p4 + 1e-12

    def test_enumeration_cap(self):
        sysm = six_distinct_maps_system()
        with pytest.raises(EnumerationTooLarge):
            pressure_n(sysm, 1.0, 10)


class TestPressureRoot:
    def test_moran_equation_at_every_depth(self):
        rho, n_maps = 0.45, 3
        sysm = similar_system(rho, n_maps)
        est = pressure_root(sysm, (1, 2, 4))
        want = math.log(n_maps) / -math.log(rho)
        for _, r in est.history:
            assert r == pytest.approx(want, abs=1e-9)
        assert est.converged

    def test_sec44_golden(self):
        sysm, _, _ = sec44()
        est = pressure_root(sysm, (2, 4, 8, 12))
        roots = [r for _, r in est.history]
        assert all(a >= b - 1e-10 for a, b in zip(roots, roots[1:]))
        assert est.s_upper >= SEC44_DIM  # certified upper bound
        assert est.s_upper == pytest.approx(SEC44_DIM, abs=1e-2)
        assert est.s_extrapolated == pytest.approx(SEC44_DIM, abs=1e-3)
        # raw gap shrinks monotonically in depth
        gaps = [r - SEC44_DIM for r in roots]
        assert all(g > 0 for g in gaps)
        assert all(a > b for a, b in zip(gaps, gaps[1:]))

    def test_phi_c_04_agrees_with_closed_form(self):
        sysm, _, _ = phi_c(F(2, 5))
        est = pressure_root(sysm, (2, 4, 8))
        want = 1.0 + math.log(2.4) / math.log(3.0)
        assert est.s_upper == pytest.approx(want, abs=5e-3)
        assert est.s_extrapolated == pytest.approx(want, abs=1e-3)

    def test_schedule_auto_adjusts_under_cap(self):
        sysm = six_distinct_maps_system()  # 6 linear parts: 6^12 blows the cap
        est = pressure_root(sysm)
        assert [n for n, _ in est.history] == [2, 4, 8]

    def test_dropped_depths_recorded(self):
        est = pressure_root(six_distinct_maps_system(), (2, 12))
        assert [n for n, _ in est.history] == [2]
        assert est.dropped == (12,)
        sysm, _, _ = sec44()
        assert pressure_root(sysm, (2, 4)).dropped == ()

    def test_schedule_falls_back_to_the_deepest_under_cap(self):
        # 6^12 and 6^14 both exceed the cap: the deepest depth under it stays
        assert pressure_mod.adjusted_schedule(root_above_two_system(), (12, 14), cap=1000) == (3,)

    def test_phi_c_merged_reaches_depth_12(self):
        sysm, _, _ = phi_c(F(1, 4))  # 6 maps, 3 linear parts: 3^12 words
        est = pressure_root(sysm)
        assert [n for n, _ in est.history] == [2, 4, 8, 12]
        assert est.dropped == ()

    def test_no_sign_change_for_weak_contraction(self):
        maps = tuple(
            AffineMap(Mat2.diagonal(0.9, 0.89), (float(k), 0.0)) for k in range(6)
        )
        sysm = IfsSystem(maps)
        with pytest.raises(NoSignChange):
            pressure_root(sysm, (1, 2))


def per_symbol_loop(sysm, n):
    """word_log_singulars written out, with every output per word: every
    level fills one block per leading symbol i with A_i times every word,
    then renormalises.  Returns log alpha1, log alpha2 = log |det| - log
    alpha1 as the enumeration computed it before it kept log alpha1 alone,
    log |det| and log multiplicity."""
    linears = [sysm.maps[g[0]].linear for g in sysm.symbols]
    A = np.array([[[m.a11, m.a12], [m.a21, m.a22]] for m in linears], dtype=float)
    mult = np.array([float(len(g)) for g in sysm.symbols])
    n_sym = A.shape[0]
    sym_logdet = np.log(np.abs(A[:, 0, 0] * A[:, 1, 1] - A[:, 0, 1] * A[:, 1, 0]))
    e11, e12, e21, e22 = (A[:, r, c].copy() for r in (0, 1) for c in (0, 1))
    logscale, logdet, logw = np.zeros(n_sym), sym_logdet.copy(), np.log(mult)
    for _ in range(n - 1):
        k = e11.shape[0]
        new = [np.empty(n_sym * k) for _ in range(6)]
        for i in range(n_sym):
            a11, a12, a21, a22 = A[i, 0, 0], A[i, 0, 1], A[i, 1, 0], A[i, 1, 1]
            sl = slice(i * k, (i + 1) * k)
            new[0][sl] = a11 * e11 + a12 * e21
            new[1][sl] = a11 * e12 + a12 * e22
            new[2][sl] = a21 * e11 + a22 * e21
            new[3][sl] = a21 * e12 + a22 * e22
            new[4][sl] = logscale
            new[5][sl] = logdet + sym_logdet[i]
        m = np.maximum(np.maximum(np.abs(new[0]), np.abs(new[1])),
                       np.maximum(np.abs(new[2]), np.abs(new[3])))
        e11, e12, e21, e22 = (x / m for x in new[:4])
        logscale, logdet = new[4] + np.log(m), new[5]
        logw = np.add.outer(np.log(mult), logw).ravel()
    t = e11 * e11 + e12 * e12 + e21 * e21 + e22 * e22
    dn = e11 * e22 - e12 * e21
    disc = np.maximum(t * t - 4.0 * dn * dn, 0.0)
    log_a1 = logscale + 0.5 * np.log((t + np.sqrt(disc)) / 2.0)
    return log_a1, logdet - log_a1, logdet, logw


array_words = pressure_mod._word_log_singulars_arrays


def assert_bit_identical(words, reference):
    """log alpha1, log |det| - log alpha1 and the broadcast log |det| and log
    multiplicity equal the per-word reference bit for bit."""
    log_a1, log_det, log_w = words
    ref_a1, ref_a2, ref_det, ref_w = reference
    assert np.array_equal(log_a1, ref_a1)
    assert np.array_equal(log_det - log_a1, ref_a2)
    assert np.array_equal(np.broadcast_to(log_det, ref_det.shape), ref_det)
    assert np.array_equal(np.broadcast_to(log_w, ref_w.shape), ref_w)


def full_array_pressure_with_slope(words, n, s):
    """The root evaluation as it ran on full-length arrays, before the words
    were read in blocks: the oracle for its bits."""
    log_a1, log_det, log_w = words
    if s <= 1:
        e = s * log_a1
    else:
        e = np.subtract(log_det, log_a1)  # log alpha2
        if s <= 2:
            e *= s - 1.0
            e += log_a1
        else:
            e += log_a1
            e *= s / 2.0
    e += log_w
    m = float(np.max(e))
    e -= m
    np.exp(e, out=e)
    total = float(np.sum(e))
    if s < 1.0:
        e *= log_a1
    else:
        slope = np.subtract(log_det, log_a1)
        if s >= 2.0:
            slope += log_a1
            slope *= 0.5
        e *= slope
    return (m + math.log(total)) / n, float(np.sum(e)) / (total * n)


class TestMergedSymbols:
    @pytest.mark.parametrize("make", [
        lambda: phi_c(F(1, 4))[0], phi_c_subsystem, shared_linear_part_system,
    ], ids=["phi-c", "phi-c-without-4-6", "shared-linear-part"])
    def test_matches_unmerged_brute_force(self, make):
        sysm = make()
        for n in (1, 2, 3, 4):
            for s in (0.0, 0.4, 1.0, 1.5, 2.0, 2.7):
                want = brute_force_phi_sum(sysm, s, n)
                got = math.exp(n * pressure_n(sysm, s, n))
                assert got == pytest.approx(want, rel=1e-12)

    BIT_SYSTEMS = pytest.mark.parametrize("make", [
        lambda: phi_c(F(2, 5))[0], phi_c_subsystem, lambda: hl_demo()[0],
        lambda: sec44()[0], lambda: random_triangular_system(np.random.default_rng(3)),
        three_unequal_symbols_system,
    ], ids=["phi-c", "phi-c-without-4-6", "hl-demo", "sec44", "random", "three-unequal"])

    # the array form: the per-symbol loop takes its logs from numpy, while
    # TestFloatForm checks the float form against this one
    @BIT_SYSTEMS
    def test_bit_identical_to_a_per_symbol_loop(self, make):
        sysm = make()
        for n in (1, 2, 3, 5):
            assert_bit_identical(array_words(sysm, n), per_symbol_loop(sysm, n))

    @BIT_SYSTEMS
    def test_depth_first_blocks_bit_identical(self, make, monkeypatch):
        # a 4-word block builds one or two levels breadth-first and walks
        # the rest depth first
        monkeypatch.setattr(pressure_mod, "WALK_BLOCK", 4)
        sysm = make()
        for n in (1, 2, 3, 5, 6, 7):
            assert_bit_identical(array_words(sysm, n), per_symbol_loop(sysm, n))

    @BIT_SYSTEMS
    @pytest.mark.parametrize("block", [None, 4, 100, 129, 1000])
    def test_evaluation_bit_identical_to_full_arrays(self, make, block, monkeypatch):
        # the default block splits 2^16 words or more into several leaves of
        # the pairwise tree; blocks under 128 leave the leaves at 128 words
        if block is None:
            least = 2 * pressure_mod.WORD_BLOCK
        else:
            monkeypatch.setattr(pressure_mod, "WORD_BLOCK", block)
            least = 2000
        sysm = make()
        n_sym = len({f.linear for f in sysm.maps})
        n = next(k for k in range(1, 40) if n_sym ** k >= least)
        words = word_log_singulars(sysm, n)
        for s in (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 4.0):
            got = pressure_mod._pressure_with_slope(words, n, s)
            assert got == full_array_pressure_with_slope(words, n, s)
            assert all(type(x) is float for x in got)

    @pytest.mark.parametrize("size", [1, 7, 8, 127, 128, 129, 3 ** 8, 3 ** 12,
                                      2 ** 15 - 1, 2 ** 15 + 1])
    @pytest.mark.parametrize("block", [4, 1000, pressure_mod.WORD_BLOCK])
    def test_pairwise_sums_match_np_sum(self, size, block):
        # numpy's pairwise summation is an implementation detail: if an
        # upgrade changes where it splits, this fails before any root moves
        x = np.exp(np.random.default_rng(size).normal(0.0, 8.0, size))
        leaf = lambda words: (float(np.sum(x[words])), float(np.sum(x[words] * x[words])))
        got = pressure_mod._pairwise_sums(leaf, 0, size, block)
        assert got == (float(np.sum(x)), float(np.sum(x * x)))

    @pytest.mark.parametrize("make, n_shared", [
        (lambda: phi_c(F(2, 5))[0], 2), (lambda: hl_demo()[0], 2), (lambda: sec44()[0], 2),
        (phi_c_subsystem, 1), (shared_linear_part_system, 0), (three_unequal_symbols_system, 0),
    ], ids=["phi-c", "hl-demo", "sec44", "phi-c-without-4-6", "shared-linear-part",
            "three-unequal"])
    def test_shared_det_and_multiplicity_are_one_float(self, make, n_shared):
        # phi-c without maps 4 and 6 keeps one |det| but multiplicities 2, 2, 1;
        # both forms keep the same shapes
        for form, kind in ((array_words, np.ndarray),
                           (pressure_mod._word_log_singulars_floats, list)):
            log_a1, *rest = form(make(), 4)
            assert isinstance(log_a1, kind)
            assert sum(isinstance(x, float) for x in rest) == n_shared
            assert sum(isinstance(x, kind) and len(x) == len(log_a1) for x in rest) == 2 - n_shared

    @staticmethod
    def peak_bytes(sysm, n):
        """tracemalloc's peak (it sees numpy's buffers) over the enumeration
        and one root evaluation on each branch, both kinks and the s >= 2
        slope included."""
        import tracemalloc

        tracemalloc.start()
        try:
            words = word_log_singulars(sysm, n)
            peaks = [tracemalloc.get_traced_memory()[1]]
            for s in (0.5, 1.0, 1.5, 2.0, 2.5):
                tracemalloc.reset_peak()
                pressure_mod._pressure_with_slope(words, n, s)
                peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        return max(peaks)

    @staticmethod
    def slack(sysm, n):
        """Bytes held beside the full-length outputs.  The depth-first walk
        builds the levels whose words fit in WALK_BLOCK breadth first, then
        holds one block of at most WALK_BLOCK words per level from there to
        the leaf.  The walk carries 5 floats per word (4 product entries and
        one log scale); the bound counts 7, two floats of headroom.  Two more
        blocks cover a prepend's and the leaf's temporaries.  A root
        evaluation holds two blocks of WORD_BLOCK words; the slack is the
        larger of the two."""
        n_sym = len(sysm.symbols)
        block = pressure_mod.WALK_BLOCK
        first = max(k for k in range(1, n + 1) if k == 1 or n_sym ** k <= block)
        levels = n - first + 1
        walk = 8 * 7 * block * (levels + 2)
        return max(walk, 2 * 8 * pressure_mod.WORD_BLOCK)

    def test_peak_memory_is_one_float_per_word_when_shared(self):
        """Only log alpha1 is full length when every symbol has the same
        |det| and multiplicity."""
        sysm, n = phi_c(F(2, 5))[0], 12
        assert self.peak_bytes(sysm, n) <= 8 * 3 ** n + self.slack(sysm, n)

    def test_peak_memory_is_three_floats_per_word_otherwise(self):
        """log alpha1, log |det| and log multiplicity when the symbols'
        |det| and multiplicities differ."""
        sysm, n = three_unequal_symbols_system(), 12
        assert self.peak_bytes(sysm, n) <= 3 * 8 * 3 ** n + self.slack(sysm, n)

    def test_enumerates_distinct_linear_parts(self):
        log_a1, _, log_w = word_log_singulars(phi_c_subsystem(), 3)
        assert len(log_a1) == 27  # 3^3, not 4^3
        assert math.fsum(np.exp(log_w)) == pytest.approx(4 ** 3, rel=1e-14)


def _root_systems():
    rng = np.random.default_rng(47)
    systems = [pytest.param(random_triangular_system(rng), id=f"random-{k}") for k in range(8)]
    return systems + [pytest.param(hl_demo()[0], id="hl-demo"),
                      pytest.param(sec44()[0], id="sec44")]


class TestDepthRootFinder:
    @pytest.mark.parametrize("sysm", _root_systems())
    def test_bounds_from_above_in_few_evaluations(self, sysm, monkeypatch):
        evals = []

        def counted(log_a1, log_det, s):
            evals.append(s)
            return phi_log_values(log_a1, log_det, s)

        monkeypatch.setattr(pressure_mod, "phi_log_values", counted)
        for n in (2, 4, 8):
            evals.clear()
            (_, r), = pressure_root(sysm, (n,)).history
            assert len(evals) <= 15
            assert pressure_n(sysm, r, n) <= 0.0
            assert abs(r - bisection_root(sysm, n)) <= 2 * ROOT_TOL

    def test_solve_sum_equals_one_bounds_from_above(self):
        a = np.array([0.5, 0.3, 0.2])
        r = pressure_mod._solve_sum_equals_one(lambda s: float(np.sum(a ** s)))
        assert float(np.sum(a ** r)) <= 1.0
        assert float(np.sum(a ** (r - 1e-12))) > 1.0


class TestTriangularClosedForms:
    def test_pressure_s0_and_s2(self):
        sysm, _, _ = sec44()
        assert triangular_pressure(sysm, 0.0) == pytest.approx(math.log(3), abs=1e-14)
        want2 = math.log(3 * (16.0 / 81.0) * (2.0 / 3.0))
        assert triangular_pressure(sysm, 2.0) == pytest.approx(want2, abs=1e-14)

    def test_sec44_root_annihilates_pressure(self):
        sysm, _, _ = sec44()
        assert abs(triangular_pressure(sysm, SEC44_DIM)) < 1e-12

    def test_sec44_roots(self):
        sysm, _, _ = sec44()
        s1, s2 = triangular_roots(sysm)
        assert s1 == pytest.approx(math.log(3) / math.log(1.5), abs=1e-9)
        assert s2 == pytest.approx(SEC44_DIM, abs=1e-9)
        assert triangular_pressure_root(sysm) == pytest.approx(SEC44_DIM, abs=1e-9)

    def test_phi_c_quarter_roots(self):
        sysm, _, _ = phi_c(F(1, 4))
        s1, s2 = triangular_roots(sysm)
        assert s1 == pytest.approx(math.log(6) / math.log(3), abs=1e-9)
        assert s2 == pytest.approx(1.5, abs=1e-9)
        assert triangular_pressure_root(sysm) == pytest.approx(1.5, abs=1e-9)

    def test_equal_similarity_roots_coincide(self):
        sysm = IfsSystem(tuple(
            AffineMap(Mat2.diagonal(0.4, 0.4 - 1e-13), (float(k), 0.0)) for k in range(3)
        ))
        s1, s2 = triangular_roots(sysm)
        want = math.log(3) / -math.log(0.4)
        assert s1 == pytest.approx(want, abs=1e-6)
        assert s2 == pytest.approx(want, abs=1e-6)

    def test_no_domination(self):
        sysm = IfsSystem((
            AffineMap(Mat2.lower_triangular(0.5, 0.0, 0.5), (0.0, 0.0)),
            AffineMap(Mat2.lower_triangular(0.3, 0.0, 0.6), (1.0, 0.0)),
        ))
        with pytest.raises(NoDomination):
            triangular_roots(sysm)

    def test_not_triangular(self):
        sysm = IfsSystem((
            AffineMap(Mat2(0.5, 0.1, 0.0, 0.4), (0.0, 0.0)),
            AffineMap(Mat2(0.5, 0.0, 0.0, 0.4), (1.0, 0.0)),
        ))
        with pytest.raises(NotTriangular):
            triangular_pressure(sysm, 1.0)

    def test_finite_depth_tracks_closed_form(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            sysm = random_triangular_system(rng, away_from_breakpoints=True)
            est = pressure_root(sysm, (2, 4, 8, 12))
            closed = triangular_pressure_root(sysm)
            assert est.s_upper >= closed - 1e-10
            assert abs(est.s_extrapolated - closed) < 1e-3
            gaps = [r - closed for _, r in est.history]
            assert all(a >= b - 1e-12 for a, b in zip(gaps, gaps[1:]))

    def test_root_above_two(self):
        """On [2, 4] phi^s is |det|^(s/2) whatever the shear, so every depth's
        root is the closed form's up to rounding.  The depth-6 root lands
        4e-13 below it: a float sign test decides the bracket (ROADMAP item 7)."""
        sysm = root_above_two_system()
        s1, s2 = triangular_roots(sysm)
        assert (round(s1, 4), round(s2, 4)) == (3.5076, 2.6042)
        closed = triangular_pressure_root(sysm)
        assert closed == 2.7369034941393693
        for n in (2, 4, 6):
            (_, r), = pressure_root(sysm, (n,)).history
            assert abs(r - closed) <= 1e-12


def random_rational_triangular_system(rng, n, dominant):
    """n lower-triangular rational maps, |a_i| > |c_i| (``dominant`` "a") or
    |c_i| > |a_i| ("c") for every i; some signs negative."""
    maps = []
    for k in range(n):
        big = F(rng.randint(30, 85), 100) * rng.choice((1, 1, 1, -1))
        small = big * F(rng.randint(10, 60), 100) * rng.choice((1, 1, 1, -1))
        a, c = (big, small) if dominant == "a" else (small, big)
        maps.append(AffineMap(Mat2(a, F(0), F(rng.randint(-15, 15), 100), c), (F(k, n), F(0))))
    return IfsSystem(tuple(maps))


class TestTriangularClosedFormsOnFloats:
    """The closed forms, the exact exponents and the entropy run on Python
    floats and libm; they agree with the numpy forms they replaced.  From 8
    terms on numpy's pairwise sum adds in another order than left to right."""

    @pytest.mark.parametrize("dominant", ["a", "c"])
    @pytest.mark.parametrize("n", range(2, 11))
    def test_agree_with_numpy(self, n, dominant):
        rng = random.Random(1000 * n + ord(dominant))
        u = 2.0 ** -52
        for _ in range(4):
            sysm = random_rational_triangular_system(rng, n, dominant)
            ws = [F(rng.randint(1, 9)) for _ in range(n)]
            w = BernoulliWeights(tuple(x / sum(ws) for x in ws))
            # the numpy oracle: the dominant diagonal first
            a, c = np.abs(sysm.columns[0]), np.abs(sysm.columns[3])
            if dominant == "c":
                a, c = c, a
            for s in (0.0, 0.37, 1.0, 1.61, 2.0, 2.9):
                if s < 1:
                    want = math.log(max(float(np.sum(a ** s)), float(np.sum(c ** s))))
                elif s < 2:
                    want = math.log(max(float(np.sum(a * c ** (s - 1))),
                                        float(np.sum(c * a ** (s - 1)))))
                else:
                    want = math.log(float(np.sum((a * c) ** (s / 2.0))))
                assert abs(triangular_pressure(sysm, s) - want) <= 4 * u  # 4 ulps of the sum

            p = w.as_array
            t = lyapunov_triangular(sysm, w)
            la, lc = float(-np.dot(p, np.log(a))), float(-np.dot(p, np.log(c)))
            for got, want in ((t.chi_s, min(la, lc)), (t.chi_ss, max(la, lc)),
                              (entropy(w), float(-np.sum(p * np.log(p))))):
                assert abs(got - want) <= 4 * math.ulp(want)

            s1, s2 = triangular_roots(sysm)
            solve = pressure_mod._solve_sum_equals_one
            assert abs(s1 - solve(lambda s: float(np.sum(a ** s)))) <= ROOT_TOL
            assert abs(s2 - solve(lambda s: float(np.sum(a * c ** (s - 1.0))))) <= ROOT_TOL
            root = triangular_pressure_root(sysm, (s1, s2))
            if root >= 2.0:
                want = solve(lambda s: float(np.sum((a * c) ** (s / 2.0))))
                assert abs(root - want) <= ROOT_TOL
            # each root is the upper end of a bracket: its sum evaluates <= 1
            da, dc = (tuple(float(x) for x in d) for d in (a, c))
            assert pressure_mod.ordered_sum(x ** s1 for x in da) <= 1.0
            assert pressure_mod.ordered_sum(x * y ** (s2 - 1.0) for x, y in zip(da, dc)) <= 1.0
            assert triangular_pressure(sysm, root) <= 0.0


def _random_dominated_systems():
    rng = np.random.default_rng(79)
    return [pytest.param(random_positive_system(rng, 2 + k % 2), id=f"{2 + k % 2}-maps-{k}")
            for k in range(6)]


class TestFloatForm:
    """Depths of at most WORD_BLOCK words run on Python floats and libm:
    the same word products as the array form, bit for bit, while the logs,
    exps and the two sums come from libm and math.fsum."""

    @pytest.mark.parametrize("sysm", _random_dominated_systems())
    def test_word_products_bit_identical(self, sysm):
        # 3^9 words walk depth first in both forms
        def whole(blocks):
            blocks = sorted(blocks, key=lambda b: b[0])
            e = [np.concatenate([np.asarray(b[1][0][k]) for b in blocks]) for k in range(4)]
            return e, np.concatenate([np.asarray(b[1][1]) for b in blocks])

        for n in (1, 2, 5, 9):
            e_f, scale_f = whole(pressure_mod._word_products_floats(sysm, n))
            e_a, scale_a = whole(pressure_mod._word_products_arrays(sysm, n))
            for x, y in zip(e_f, e_a):
                assert np.array_equal(x, y)
            np.testing.assert_allclose(scale_f, scale_a, rtol=0, atol=n * 1e-15)

    @pytest.mark.parametrize("sysm", _random_dominated_systems())
    def test_depth_roots_agree(self, sysm):
        for n in (1, 2, 4, 8):
            roots = []
            for words, evaluate in ((pressure_mod._word_log_singulars_floats(sysm, n),
                                     pressure_mod._pressure_with_slope_floats),
                                    (pressure_mod._word_log_singulars_arrays(sysm, n),
                                     pressure_mod._pressure_with_slope_arrays)):
                roots.append(pressure_mod._depth_root(lambda s: evaluate(words, n, s), ROOT_TOL))
            assert abs(roots[0] - roots[1]) <= 2 * ROOT_TOL

    def test_gate_edge(self):
        sysm = hl_demo()[0]  # two symbols
        assert pressure_mod.WORD_BLOCK == 2 ** 15
        assert isinstance(word_log_singulars(sysm, 15)[0], list)
        assert isinstance(word_log_singulars(sysm, 16)[0], np.ndarray)
