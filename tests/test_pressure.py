import math
from fractions import Fraction as F

import numpy as np
import pytest

import affdim.pressure as pressure_mod
from affdim.errors import EnumerationTooLarge, NoDomination, NoSignChange, NotTriangular
from affdim.ifs import AffineMap, IfsSystem
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


from conftest import random_triangular_system, six_distinct_maps_system


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


def brute_force_phi_sum(sysm, s, n):
    """sum over all N^n words of phi^s(A_w), one product per word, no merging."""
    products = [Mat2.identity()]
    for _ in range(n):
        products = [p @ f.linear for p in products for f in sysm.maps]
    return math.fsum(phi_s(p, s) for p in products)


def bisection_root(sysm, n, tol=ROOT_TOL):
    """Reference depth-n root: midpoint of a plain bisection bracket on [0, 4]."""
    log_a1, log_a2, log_w = word_log_singulars(sysm, n)

    def p(s):
        v = phi_log_values(log_a1, log_a2, s) + log_w
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

    def test_enumerates_distinct_linear_parts(self):
        log_a1, _, log_w = word_log_singulars(phi_c_subsystem(), 3)
        assert log_a1.shape == (27,)  # 3^3, not 4^3
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

        def counted(log_a1, log_a2, s):
            evals.append(s)
            return phi_log_values(log_a1, log_a2, s)

        monkeypatch.setattr(pressure_mod, "phi_log_values", counted)
        for n in (2, 4, 8):
            evals.clear()
            (_, r), = pressure_root(sysm, (n,)).history
            assert len(evals) <= 15
            assert pressure_n(sysm, r, n) <= 0.0
            assert abs(r - bisection_root(sysm, n)) <= 2 * ROOT_TOL

    def test_solve_sum_equals_one_bounds_from_above(self):
        a = np.array([0.5, 0.3, 0.2])
        r = pressure_mod._solve_sum_equals_one(lambda s: float(np.sum(a ** s)), tol=1e-12)
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
