import math
from fractions import Fraction as F

import numpy as np
import pytest

from conftest import random_triangular_system, six_distinct_maps_system

from affdim.dimension import (
    analyze,
    backward_non_overlapping,
    box_dimension_estimate,
    build_subsystem,
    correlation_dimension_estimate,
    hueter_lalley_check,
    lower_bound_iteration,
    ly_dimension_formula,
    one_bunched,
)
from affdim.errors import BadExponents, TooFewPoints
from affdim.ifs import AffineMap, BernoulliWeights, IfsSystem, sample_measure
from affdim.library import hl_demo, phi_c, sec44
from affdim.linalg2 import Mat2
from affdim.splitting import certify

SEC44_H = math.log(3.0)
SEC44_CHI_S = math.log(1.5)
SEC44_CHI_SS = math.log(81.0 / 16.0)
SEC44_DIM = 1.0 + math.log(2.0) / math.log(81.0 / 16.0)


class TestLyFormula:
    def test_sec44_with_saturated_transversal(self):
        got = ly_dimension_formula(SEC44_H, SEC44_CHI_S, SEC44_CHI_SS, 1.0)
        assert got == pytest.approx(SEC44_DIM, abs=1e-14)

    def test_dim_t_zero(self):
        assert ly_dimension_formula(1.0, 0.4, 0.8, 0.0) == pytest.approx(1.25, abs=1e-14)

    def test_conformal_collapse(self):
        for dim_t in (0.0, 0.5, 1.0):
            assert ly_dimension_formula(0.3, 0.5, 0.5, dim_t) == pytest.approx(0.6, abs=1e-14)

    def test_bad_inputs(self):
        with pytest.raises(BadExponents):
            ly_dimension_formula(1.0, 0.0, 1.0, 0.5)
        with pytest.raises(BadExponents):
            ly_dimension_formula(1.0, 1.0, 0.5, 0.5)
        with pytest.raises(BadExponents):
            ly_dimension_formula(1.0, 0.5, 1.0, 1.5)

    def test_proof_identity(self):
        # h/chi_ss + (1 - chi_s/chi_ss)(h - H)/chi_s == H/chi_ss + (h - H)/chi_s
        rng = np.random.default_rng(83)
        for _ in range(1000):
            chi_s = rng.uniform(0.05, 1.5)
            chi_ss = chi_s + rng.uniform(0.0, 1.5)
            h = rng.uniform(0.0, 2.0)
            big_h = rng.uniform(0.0, h)
            lhs = h / chi_ss + (1 - chi_s / chi_ss) * (h - big_h) / chi_s
            rhs = big_h / chi_ss + (h - big_h) / chi_s
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_matches_lyapunov_dimension_at_saturation(self):
        from affdim.ergodic import ExponentTriple, lyapunov_dimension

        rng = np.random.default_rng(89)
        for _ in range(500):
            chi_s = rng.uniform(0.1, 1.0)
            chi_ss = chi_s + rng.uniform(0.0, 1.0)
            h = rng.uniform(0.01, chi_s + chi_ss)  # keeps dim_Lyap <= 2
            t = ExponentTriple(h, chi_s, chi_ss)
            dim_t = min(1.0, h / chi_s)
            got = ly_dimension_formula(h, chi_s, chi_ss, dim_t)
            assert got == pytest.approx(lyapunov_dimension(t), abs=1e-12)


class TestLowerBoundIteration:
    def test_sec44_values(self):
        got = lower_bound_iteration(SEC44_H, SEC44_CHI_S, SEC44_CHI_SS)
        want = 2 * SEC44_H / SEC44_CHI_SS
        assert got == pytest.approx(want, abs=1e-12)
        assert got == pytest.approx(1.3548, abs=1e-4)

    def test_balanced_case(self):
        assert lower_bound_iteration(0.5, 0.5, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_closed_form_limit(self):
        rng = np.random.default_rng(97)
        for _ in range(2000):
            chi_s = rng.uniform(0.05, 1.5)
            chi_ss = chi_s * rng.uniform(1.0001, 4.0)
            h = rng.uniform(0.01, 2.5)
            got = lower_bound_iteration(h, chi_s, chi_ss)
            want = min(2 * h / chi_ss, h / chi_s)
            assert got == pytest.approx(want, abs=1e-12)

    def test_branch_selection(self):
        # h/chi_s branch wins exactly when chi_ss < 2 chi_s
        assert lower_bound_iteration(1.0, 0.6, 1.0) == pytest.approx(1.0 / 0.6, abs=1e-12)
        assert lower_bound_iteration(1.0, 0.4, 1.0) == pytest.approx(2.0, abs=1e-12)


class TestOneBunched:
    def test_exact_rational_cases(self):
        assert one_bunched(Mat2.diagonal(F(1, 2), F(1, 4)))  # equality case
        assert one_bunched(Mat2.diagonal(F(1, 3), F(1, 4)))
        assert not one_bunched(Mat2.diagonal(F(2, 3), F(16, 81)))  # sec44 map 2

    def test_hl_demo_maps(self):
        sysm, _, _ = hl_demo()
        assert all(one_bunched(f.linear) for f in sysm.maps)

    def test_float_agrees_with_rational(self):
        rng = np.random.default_rng(101)
        for _ in range(200):
            num = rng.integers(1, 40, size=4)
            den = rng.integers(40, 90, size=4)
            m = Mat2(*(F(int(a), int(b)) for a, b in zip(num, den)))
            if abs(m.det) < F(1, 1000):
                continue
            assert one_bunched(m) == one_bunched(m.to_float())


class TestHueterLalleyCheck:
    def test_hl_demo_all_verified(self):
        sysm, w, poly = hl_demo()
        st = hueter_lalley_check(sysm, w, polygon=poly)
        assert all(v == "Verified" for v in st.values())

    def test_bunching_violation_detected(self):
        sysm, w, poly = sec44()
        st = hueter_lalley_check(sysm, w, polygon=poly)
        assert st["one-bunched"] == "Failed"
        assert st["dominated-splitting"] == "Verified"
        assert st["backward-non-overlapping"] == "Verified"

    def test_overlapping_direction_images_fail(self):
        # c-dominant with weak ratio: slope-system images must overlap
        maps = (
            AffineMap(Mat2.lower_triangular(0.5, 0.1, 0.6), (0.0, 0.0)),
            AffineMap(Mat2.lower_triangular(0.5, -0.1, 0.6), (1.0, 0.0)),
        )
        sysm = IfsSystem(maps)
        st = hueter_lalley_check(sysm, BernoulliWeights.uniform(2))
        assert st["backward-non-overlapping"] == "Failed"

    def test_a_dominant_never_backward_separates(self):
        sysm, w, _ = phi_c(F(1, 4))
        split = certify(sysm)
        assert backward_non_overlapping(sysm, split) == "Failed"


class TestEstimators:
    def test_box_dimension_segment(self):
        rng = np.random.default_rng(103)
        t = rng.uniform(0, 1, size=20_000)
        pts = np.column_stack([t, 0.25 + 0.5 * t])
        series = box_dimension_estimate(pts, 3, 8)
        assert series.slope == pytest.approx(1.0, abs=0.05)

    def test_box_dimension_square(self):
        rng = np.random.default_rng(107)
        pts = rng.uniform(0, 1, size=(200_000, 2))
        series = box_dimension_estimate(pts, 2, 7)
        assert series.slope == pytest.approx(2.0, abs=0.05)

    def test_box_dimension_too_few(self):
        with pytest.raises(TooFewPoints):
            box_dimension_estimate(np.zeros((100, 2)), 2, 5)

    def test_correlation_uniform_line(self):
        rng = np.random.default_rng(109)
        vals = rng.uniform(0, 1, size=20_000)
        series = correlation_dimension_estimate(vals, [2.0 ** -k for k in range(3, 9)])
        assert series.slope == pytest.approx(1.0, abs=0.05)

    def test_correlation_atomic(self):
        vals = np.zeros(2000)
        series = correlation_dimension_estimate(vals, [0.1, 0.05, 0.025, 0.0125])
        assert series.slope == pytest.approx(0.0, abs=1e-12)

    def test_correlation_matches_direction_dimension(self):
        from affdim.splitting import sample_nu_ss_angles

        sysm, w, _ = sec44()
        angles = sample_nu_ss_angles(sysm, w, None, 10_000, 5)
        series = correlation_dimension_estimate(angles, [2.0 ** -k for k in range(3, 11)])
        want = SEC44_H / (SEC44_CHI_SS - SEC44_CHI_S)
        assert series.slope == pytest.approx(want, abs=0.1)


class TestAnalyze:
    def test_sec44_measure_certified(self):
        sysm, w, poly = sec44()
        rep = analyze(sysm, w, polygon=poly, target="measure")
        assert rep.fired_theorem == "T4.5-app"
        assert rep.certified_value == pytest.approx(SEC44_DIM, abs=1e-9)
        d = dict(rep.details)
        assert float(d["condition4-lhs"]) > 2.0
        assert float(d["condition4-lhs"]) == pytest.approx(2.258, abs=1e-3)
        assert dict(rep.hypotheses)["backward-non-overlapping"] == "Verified"
        assert not rep.assumptions

    def test_sec44_attractor_certified(self):
        sysm, w, poly = sec44()
        rep = analyze(sysm, w, polygon=poly, target="attractor")
        assert rep.certified_value == pytest.approx(SEC44_DIM, abs=1e-9)
        assert dict(rep.hypotheses)["pressure-sandwich"] == "Verified"

    def test_hl_demo_fires_named_theorem(self):
        sysm, w, poly = hl_demo()
        rep = analyze(sysm, w, polygon=poly, target="measure", rng_seed=3)
        assert rep.fired_theorem == "T4.1-HueterLalley"
        assert rep.certified_value is not None and rep.certified_value <= 1.0

    def test_phi_c_exits_at_pressure_bound(self):
        sysm, w, poly = phi_c(F(1, 4))
        rep = analyze(sysm, w, polygon=poly, target="measure")
        assert rep.fired_theorem == "PressureUpperBound"
        assert rep.certified_value is None
        assert dict(rep.hypotheses)["strong-separation"] == "Failed"
        assert rep.certified_interval[1] == pytest.approx(1.5, abs=1e-9)

    def test_no_polygon_is_unknown(self):
        sysm, w, _ = sec44()
        rep = analyze(sysm, w, polygon=None, target="measure")
        assert rep.fired_theorem == "PressureUpperBound"
        assert dict(rep.hypotheses)["strong-separation"] == "Unknown"

    def test_rotation_rich_system_interval_only(self):
        m = Mat2.rotation(1.0) @ Mat2.diagonal(0.5, 0.4)
        sysm = IfsSystem((AffineMap(m, (0.0, 0.0)), AffineMap(m, (2.0, 0.0))))
        rep = analyze(sysm, target="measure", rng_seed=1)
        assert rep.certified_value is None
        lo, hi = rep.certified_interval
        assert 0.0 <= lo <= hi <= 2.0

    def test_certified_never_exceeds_pressure_upper(self):
        rng = np.random.default_rng(113)
        for _ in range(5):
            sysm = random_triangular_system(rng)
            rep = analyze(sysm, target="measure")
            d = dict(rep.details)
            upper = float(d["pressure-root-upper"])
            if rep.certified_value is not None:
                assert rep.certified_value <= upper + 1e-9

    def test_dropped_depths_become_a_detail(self):
        sysm = six_distinct_maps_system()
        rep = analyze(sysm, pressure_schedule=(2, 12))
        assert dict(rep.details)["pressure-depths-dropped"] == "12"
        rep = analyze(sysm, pressure_schedule=(2,))
        assert "pressure-depths-dropped" not in dict(rep.details)

    def test_deterministic_reports(self):
        sysm, w, poly = sec44()
        a = analyze(sysm, w, polygon=poly, target="measure", rng_seed=7).render()
        b = analyze(sysm, w, polygon=poly, target="measure", rng_seed=7).render()
        assert a == b

    def test_box_dim_cross_check_sec44(self):
        sysm, w, poly = sec44()
        pts = sample_measure(sysm, w, depth=60, count=200_000, rng_seed=11,
                             seed_point=poly.centroid())
        series = box_dimension_estimate(pts, 3, 7)
        assert series.slope == pytest.approx(SEC44_DIM, abs=0.15)


class TestSubsystem:
    def test_phi_c_exclusion_count(self):
        sysm, _, _ = phi_c(F(1, 4))
        sub = build_subsystem(sysm, (4, 6), 2)
        assert sub.n == 36 - 4

    def test_subsystem_maps_are_compositions(self):
        sysm, _, _ = phi_c(F(1, 4))
        from affdim.ifs import compose_word

        sub = build_subsystem(sysm, (4, 6), 1)
        assert sub.n == 4
        assert sub.maps == tuple(compose_word(sysm, (i,)) for i in (1, 2, 3, 5))
