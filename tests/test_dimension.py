import hashlib
import math
from fractions import Fraction as F

import numpy as np
import pytest

from conftest import count_calls, random_triangular_system, six_distinct_maps_system

from affdim.cli import main
from affdim.dimension import (
    analyze,
    analyze_targets,
    backward_non_overlapping,
    build_subsystem,
    correlation_dimension_estimate,
    hueter_lalley_check,
    lower_bound_iteration,
    ly_dimension_formula,
    one_bunched,
)
from affdim.errors import BadExponents, TooFewPoints
from affdim.ifs import AffineMap, IfsSystem, box_dimension_estimate, check_ssc, sample_measure
from affdim.library import hl_demo, phi_c, sec44
from affdim.linalg2 import Mat2, ProjArc
from affdim.pressure import pressure_root
from affdim.splitting import Multicone, SplitReport, certify, nest

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
        sysm, _, poly = hl_demo()
        st = hueter_lalley_check(sysm, ssc=check_ssc(sysm, poly))
        assert all(v == "Verified" for v in st.values())

    def test_bunching_violation_detected(self):
        sysm, _, poly = sec44()
        st = hueter_lalley_check(sysm, ssc=check_ssc(sysm, poly))
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
        st = hueter_lalley_check(sysm)
        assert st["backward-non-overlapping"] == "Failed"

    def test_single_direction_map_fails(self):
        # c-dominant maps with one linear part derive one direction map, so
        # every inverse image of the backward cone is the same arc
        m = Mat2.lower_triangular(F(1, 4), F(1, 8), F(1, 2))
        sysm = IfsSystem((AffineMap(m, (F(0), F(0))), AffineMap(m, (F(3, 4), F(1, 2)))))
        split = certify(sysm)
        assert split.triangular == "CDominant"
        assert backward_non_overlapping(sysm, split) == "Failed"

    def test_a_dominant_never_backward_separates(self):
        sysm, w, _ = phi_c(F(1, 4))
        split = certify(sysm)
        assert backward_non_overlapping(sysm, split) == "Failed"


class TestBackwardNonOverlapping:
    """The multicone route on hand-made certificates: the backward cone is
    the complement of the forward multicone, and the inverse images of its
    arcs must nest in it and be pairwise disjoint."""

    QUADRANT = Multicone((ProjArc.from_angles(0.0, math.pi / 2),))

    def split(self, multicone=QUADRANT):
        return SplitReport("Certified", method="MulticoneCheck", multicone=multicone)

    # a failed arc check says nothing of other cones: Unknown, not Failed

    def test_image_starting_outside_the_backward_cone_is_unknown(self):
        # the inverse turns [pi/2, pi] clockwise by 0.3: its start leaves the cone
        sysm = IfsSystem((AffineMap(Mat2.rotation(0.3).scaled(0.5), (0, 0)),))
        assert backward_non_overlapping(sysm, self.split()) == "Unknown"

    def test_image_overflowing_its_host_is_unknown(self):
        # the inverse turns [pi/2, pi] counterclockwise by 0.3: it starts
        # inside the cone and runs past its end
        sysm = IfsSystem((AffineMap(Mat2.rotation(-0.3).scaled(0.5), (0, 0)),))
        assert backward_non_overlapping(sysm, self.split()) == "Unknown"

    # no slack: an image that leaves the cone, or two that overlap, by 1e-10 of
    # a radian

    EPS = F(1, 10 ** 10)

    @staticmethod
    def reflected(*ps):
        """Maps whose inverses are J p J, J = diag(-1, 1): each takes the
        backward cone [pi/2, pi] to the arc between p's columns reflected."""
        j = Mat2.diagonal(F(-1), F(1))
        return IfsSystem(tuple(AffineMap((j @ p @ j).inverse(), (F(k), F(0)))
                               for k, p in enumerate(ps)))

    def test_image_leaving_the_cone_by_1e_10_is_unknown(self):
        # a first column 1e-10 below the x-axis: the image runs 1e-10 past pi
        sysm = self.reflected(Mat2(F(10), F(10), -10 * self.EPS, F(20)))
        _, clearance = nest((f.linear.to_float().inverse() for f in sysm.maps),
                            self.split().backward_cone)
        assert -1e-9 < clearance < 0
        assert backward_non_overlapping(sysm, self.split()) == "Unknown"

    def test_images_overlapping_by_1e_10_are_unknown(self):
        # columns (2, 1), (1, 1) and (1, 1 - 2e-10), (1, 2): arcs inside the
        # cone that overlap by about 1e-10
        sysm = self.reflected(Mat2(F(20), F(10), F(10), F(10)),
                              Mat2(F(10), F(10), 10 - 20 * self.EPS, F(20)))
        (first,), (second,) = nest((f.linear.to_float().inverse() for f in sysm.maps),
                                   self.split().backward_cone)[0]
        assert 0 < first.overlap(second) < 1e-9
        assert backward_non_overlapping(sysm, self.split()) == "Unknown"

    def test_failed_proposed_complement_is_unknown(self):
        # diag(1/5, 1/100) and its conjugate by the rotation (3/5, 4/5): the
        # complement of the proposed multicone fails, while two arcs of
        # half-width 0.1 around the attracting directions pass
        rot = Mat2(F(3, 5), F(-4, 5), F(4, 5), F(3, 5))
        d = Mat2.diagonal(F(1, 5), F(1, 100))
        conj = rot @ d @ Mat2(F(3, 5), F(4, 5), F(-4, 5), F(3, 5))
        sysm = IfsSystem((AffineMap(d, (F(0), F(0))), AffineMap(conj, (F(1, 2), F(1, 2)))))
        split = certify(sysm)
        assert (split.certified, split.method) == (True, "MulticoneCheck")
        assert backward_non_overlapping(sysm, split) == "Unknown"

    def test_overlapping_images_fail(self):
        # two maps with one positive linear part: their inverse images
        # coincide under every cone, the one exact witness of failure
        m = Mat2(F(2, 25), F(1, 25), F(1, 25), F(1, 25))
        sysm = IfsSystem((AffineMap(m, (F(1, 10), F(1, 10))), AffineMap(m, (F(7, 10), F(7, 10)))))
        split = certify(sysm)
        assert split.method == "Positivity"
        assert backward_non_overlapping(sysm, split) == "Failed"
        # one of them alone is backward non-overlapping
        single = IfsSystem(sysm.maps[:1])
        assert backward_non_overlapping(single, certify(single)) == "Verified"


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

    @staticmethod
    def exact_counts(pts, ks):
        return [len({(math.floor(math.ldexp(x, k)), math.floor(math.ldexp(y, k)))
                     for x, y in pts.tolist()}) for k in ks]

    def test_box_counts_exact_on_every_grid(self):
        # packed keys on the coarse grids, complex keys on the fine ones
        pts = np.random.default_rng(113).uniform(-1.0, 1.0, size=(2000, 2))
        series = box_dimension_estimate(pts, 1, 70)
        assert list(series.counts) == self.exact_counts(pts, range(1, 71))
        assert series.counts[-1] == len(np.unique(pts, axis=0))

    def test_box_counts_merge_repeated_cells_and_signed_zeros(self):
        # the count of unequal sorted neighbours, on packed and complex keys,
        # where points repeat and cells are -0.0 on some points, +0.0 on others
        pts = np.random.default_rng(137).uniform(-1.0, 1.0, size=(600, 2))
        zeros = [[0.0, -0.0], [-0.0, 0.0], [-0.0, -0.0], [0.0, 0.0]] * 100
        pts = np.concatenate([pts, pts[:300], zeros])
        series = box_dimension_estimate(pts, 1, 70)
        assert list(series.counts) == self.exact_counts(pts, range(1, 71))
        assert series.counts[-1] == 601

    def test_box_counts_up_to_the_largest_finite_grid(self):
        pts = np.random.default_rng(127).uniform(-3.0, 3.0, size=(1000, 2))
        k = 1024 - math.frexp(float(np.abs(pts).max()))[1]  # |pts| * 2^k < 2^1024
        series = box_dimension_estimate(pts, k - 3, k)
        assert list(series.counts) == self.exact_counts(pts, range(k - 3, k + 1))
        with pytest.raises(ValueError, match="overflow"):
            box_dimension_estimate(pts, k - 3, k + 1)

    def test_box_dimension_needs_four_scales(self):
        pts = np.random.default_rng(131).uniform(0.0, 1.0, size=(1000, 2))
        with pytest.raises(ValueError, match="four scales"):
            box_dimension_estimate(pts, 3, 5)

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

    def test_correlation_takes_angles_only(self):
        # planar samples are refused rather than cut to a prefix
        rng = np.random.default_rng(113)
        with pytest.raises(ValueError, match="1-D"):
            correlation_dimension_estimate(rng.uniform(0, 1, size=(5000, 2)),
                                           [0.1, 0.05, 0.025, 0.0125])

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
        # h / chi_s lies in [0.3009239815138, 0.3009239815143]
        assert 0.3009239815138 <= rep.certified_value <= 0.3009239815143
        assert rep.assumptions == ()

    def test_hl_demo_wide_enclosure_gives_the_interval(self, monkeypatch):
        # 300 words reach depth 8 only, a 3e-6 wide enclosure: no certified
        # value, the interval, and Monte Carlo clamped into the enclosure
        import affdim.ergodic

        monkeypatch.setattr(affdim.ergodic, "ENCLOSURE_WORDS", 300)
        sysm, w, poly = hl_demo()
        rep = analyze(sysm, w, polygon=poly, target="measure", rng_seed=3,
                      mc_n=200, mc_trials=50)
        assert rep.fired_theorem == "T4.1-HueterLalley"
        assert rep.certified_value is None
        lo, hi = rep.certified_interval
        assert lo <= 0.3009239815138 <= 0.3009239815143 <= hi < lo + 1e-5
        details = dict(rep.details)
        assert details["chi-s-enclosure-depth"] == "8"
        assert "stderr-chi-s" in details
        assert rep.assumptions == ("exponents estimated by Monte Carlo",)

    def test_hl_demo_monte_carlo_exponents_are_an_assumption(self, monkeypatch):
        # without an enclosure the value is h / chi_s of the Monte-Carlo chi_s
        import affdim.ergodic

        monkeypatch.setattr(affdim.ergodic, "lyapunov_enclosure", lambda *args: None)
        sysm, w, poly = hl_demo()
        rep = analyze(sysm, w, polygon=poly, target="measure", rng_seed=3,
                      mc_n=200, mc_trials=50)
        assert rep.fired_theorem == "T4.1-HueterLalley"
        assert rep.certified_value is not None
        assert "chi-s-enclosure" not in dict(rep.details)
        assert rep.assumptions == ("exponents estimated by Monte Carlo",
                                   "certified value evaluated with Monte-Carlo exponents")

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

    def test_dropped_depths_become_a_detail(self, monkeypatch):
        import affdim.pressure

        # not triangular, so analyze runs the finite-depth schedule
        sysm = six_distinct_maps_system(upper_right=F(1, 100))
        assert not sysm.is_triangular()
        monkeypatch.setattr(affdim.pressure, "DEFAULT_SCHEDULE", (2, 12))
        rep = analyze(sysm, mc_n=200, mc_trials=50)
        assert dict(rep.details)["pressure-depths-dropped"] == "12"
        monkeypatch.setattr(affdim.pressure, "DEFAULT_SCHEDULE", (2,))
        rep = analyze(sysm, mc_n=200, mc_trials=50)
        assert "pressure-depths-dropped" not in dict(rep.details)

    @pytest.mark.parametrize("example", [sec44, hl_demo])
    def test_shared_context_matches_separate_runs(self, example):
        sysm, w, poly = example()
        both = analyze_targets(sysm, ("measure", "attractor"), w, polygon=poly, rng_seed=2)
        alone = [analyze(sysm, w, polygon=poly, target=t, rng_seed=2)
                 for t in ("measure", "attractor")]
        assert [r.render() for r in both] == [r.render() for r in alone]

    def test_unknown_target_rejected(self):
        sysm, w, poly = sec44()
        with pytest.raises(ValueError, match="target"):
            analyze_targets(sysm, ("measure", "both"), w, polygon=poly)

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


def _dominated_triangular_cases():
    rng = np.random.default_rng(505)
    randoms = [random_triangular_system(rng) for _ in range(8)]
    return [
        pytest.param(sec44, id="sec44"),
        pytest.param(lambda: phi_c(F(2, 5)), id="phi-c 2/5"),
        pytest.param(lambda: phi_c(F(1, 4)), id="phi-c 1/4"),
        pytest.param(lambda: (build_subsystem(phi_c(F(1, 4))[0], (4, 6), 1), None, None),
                     id="subsystem 4,6"),
    ] + [pytest.param(lambda s=s: (s, None, None), id=f"random {k}")
         for k, s in enumerate(randoms)]


class TestClosedFormPressure:
    """Dominated triangular systems take the pressure root from the closed
    form: no word enumeration, and a bound no weaker than the finite-depth
    root."""

    @pytest.mark.parametrize("example", _dominated_triangular_cases())
    def test_analyze_serves_the_closed_form(self, example, monkeypatch):
        import affdim.pressure

        sysm, w, poly = example()
        words = count_calls(monkeypatch, affdim.pressure, "word_log_singulars")
        reports = analyze_targets(sysm, ("measure", "attractor"), w, polygon=poly)
        monkeypatch.undo()
        assert words == []
        for rep in reports:
            d = dict(rep.details)
            assert d["split-triangular"] in ("ADominant", "CDominant")
            assert d["pressure-method"] == "closed-form"
            assert "pressure-history" not in d
            assert d["pressure-root-upper"] == d["triangular-pressure-root"]
            assert d["pressure-root-estimate"] == d["triangular-pressure-root"]
        d = dict(reports[1].details)
        assert d["attractor-upper-bound"] == repr(min(2.0, float(d["pressure-root-upper"])))
        assert float(d["pressure-root-upper"]) <= pressure_root(sysm).s_upper + 1e-12


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


UNIT_SQUARE = ("0 0", "1 0", "1 1", "0 1")
_BASE_HYPS = ("dominated-splitting", "strong-separation")
_DIRECTION_HYPS = _BASE_HYPS + ("backward-non-overlapping",)
_CONDITION4_HYPS = _DIRECTION_HYPS + ("one-bunched", "nu-ss-saturates", "condition4")
# One case per rule that can fire: the source (an example name or the map rows
# of a config on the unit square), the fired theorem, the hypothesis names in
# order, and the sha256 of the stdout of `analyze --target measure --seed 7`,
# recorded before the decision procedure became a list of rules (those of the
# three positive systems, hl-demo, Lemma4.9 and T2.9, once their exponents came
# from the Furstenberg enclosure).
RULE_CASES = [
    # re-pinned when chi-s became libm's log(3/2) (the triangular exponents
    # on Python floats and math.log)
    ("sec44", "T4.5-app", _CONDITION4_HYPS,
     "5e3db19af20bd1d917ddeb9f50837346f94e44c5cdcc9c31f7645636c7bc7668"),
    # re-pinned when the enclosure words moved to Python floats (the pad
    # counts eight word blocks: chi-s-enclosure's ends moved out by 1.2e-14)
    ("hl-demo", "T4.1-HueterLalley", _DIRECTION_HYPS + ("one-bunched",),
     "943f35988ca466ea468ce4bba6e45240f9de49c68fc445ee5e38b17446a1be58"),
    ("phi-c", "PressureUpperBound", _BASE_HYPS,
     "5de29bfa6473ba92bf930534180f0bc869f542f20ba843d6e5a9ec551ca5cc27"),
    (("-2/25 0 1/20 4/125 17/200 3/10", "-1/25 0 -1/40 4/125 71/200 2/5",
      "1/25 0 1/20 1/250 121/200 1/5", "3/25 0 1/20 3/125 163/200 1/2"),
     "T4.2-ADominant", _BASE_HYPS + ("hochman-x", "transversal-saturates"),
     "cc58651a65ba277c09bc84036c824c2e330c2870baf797669689776a161747d1"),
    (("3/20 0 1/40 1/6 1/6 1/10", "1/30 0 3/40 1/6 2/3 1/2"),
     "T4.2-CDominant", _DIRECTION_HYPS + ("hochman-direction",),
     "78b7df74487f481642b229690ba558b92979ab99c83d90b1ad053b600e2e0d70"),
    # re-pinned when the triangular cone bound became exact: split-margin
    # 0.0002087500908755091 -> 0.00020875009087528706, the float of 5/4 padded
    (("7/75 0 -1/20 2/15 11/60 3/10", "-2/75 0 -1/40 4/15 37/60 2/5"),
     "T2.8-projection", _DIRECTION_HYPS + ("one-bunched", "nu-ss-saturates"),
     "f522a56f67469330a9e24b42b019da6e0096a80e8e6c4b54a8b830b3213c660a"),
    # re-pinned when nu-ss-dimension got its cap at 1: 4.22002191296432 -> 1.0
    (("16/75 0 -1/20 4/15 7/60 1/2", "9/50 0 -1/20 1/5 13/20 2/5"),
     "T2.6-LY-formula", _DIRECTION_HYPS,
     "e055d867dc6ed81286e9dbffdfda702a1a5a89c09a0d55935c7300622c937599"),
    (("1/8 3/40 3/20 1/10 3/20 1/2", "1/48 1/48 1/30 1/40 13/20 7/10"),
     "Lemma4.9-LowerBound", _CONDITION4_HYPS,
     "ceee4a541286d879f9d253f60ae13222005cd87c7aedc993fa480f7eb178bd76"),
    # nine positive near-conformal maps on a 3x3 grid: dominated, strongly
    # separated, backward non-overlapping Unknown (re-pinned when a failed
    # arc check stopped meaning Failed), and an empirical direction dimension
    # large enough for the paired lower bound; re-pinned when analyze's
    # Monte-Carlo exponents moved to their own symbol stream, and when
    # nu-ss-dimension got its cap at 1 (11.728114598840405 -> 1.0)
    (("31/100 3/100 1/50 7/25 1/100 1/100", "29/100 3/100 1/25 13/50 1/100 103/300",
      "7/25 1/100 1/25 7/25 1/100 203/300", "29/100 1/25 1/50 29/100 103/300 1/100",
      "29/100 1/100 1/100 27/100 103/300 103/300", "29/100 1/25 1/100 13/50 103/300 203/300",
      "3/10 1/50 1/25 27/100 203/300 1/100", "7/25 1/50 1/25 7/25 203/300 103/300",
      "3/10 1/100 1/50 7/25 203/300 203/300"),
     "T2.9-Falconer-Kempton", _DIRECTION_HYPS + ("nu-ss-dimension-empirical",),
     "4b48132f8be84113de99b6d1c96f567432cc66ab3793d44ba96b1602fdc750c2"),
]


class TestRulePrecedence:
    """Each rule of the decision procedure fires on its case with the same
    hypotheses, in the same order, and the same report bytes."""

    def test_a_dominant_exact_overlap_gives_the_interval(self, capsys, tmp_path):
        # the projected x-axis system {x/2, x/2 + 1/4, x/2 + 1/2} overlaps
        # exactly, so the a-dominant rule fires T2.6 with the interval
        # [h / chi_ss, upper]; sha256 of the stdout recorded before this
        # exit was first tested, re-pinned when chi-ss (a sum of libm logs)
        # moved from ...8357 to ...8353 and h / chi_ss from ...7187 to ...7188
        cfg = tmp_path / "case.cfg"
        cfg.write_text("map 1/2 0 0 1/8 0 0\nmap 1/2 0 0 1/8 1/4 3/8\nmap 1/2 0 0 1/8 1/2 3/4\n"
                       "polygon -1/10 -1/10\npolygon 11/10 -1/10\npolygon 11/10 67/70\n"
                       "polygon -1/10 67/70\n")
        code = main(["analyze", "--config", str(cfg), "--target", "measure", "--seed", "7"])
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert code == 2
        for line in ("hochman-x-verdict: ExactOverlap", "hypothesis hochman-x: Failed",
                     "fired-theorem: T2.6-LY-formula",
                     "certified-interval: [0.5283208335737188, 1.1949875002403854]"):
            assert line in lines
        digest = "0b9482a37885334b1fee1817f96b5bb05758d8544d77608e13e15bea3c5d22f6"
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("source, fired, hyps, digest", RULE_CASES,
                             ids=[fired for _, fired, _, _ in RULE_CASES])
    def test_rule_fires_with_pinned_report(self, source, fired, hyps, digest, capsys,
                                           tmp_path):
        if source == "phi-c":
            argv = ["--example", "phi-c", "--param", "c=2/5"]
        elif isinstance(source, str):
            argv = ["--example", source]
        else:
            cfg = tmp_path / "case.cfg"
            cfg.write_text("".join(f"map {row}\n" for row in source)
                           + "".join(f"polygon {v}\n" for v in UNIT_SQUARE))
            argv = ["--config", str(cfg)]
        code = main(["analyze", *argv, "--target", "measure", "--seed", "7"])
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert code == (2 if fired in ("PressureUpperBound", "T2.6-LY-formula",
                                       "Lemma4.9-LowerBound") else 0)
        assert f"fired-theorem: {fired}" in lines
        assert tuple(l.split()[1][:-1] for l in lines if l.startswith("hypothesis ")) == hyps
        assert hashlib.sha256(out.encode()).hexdigest() == digest
