import math
from fractions import Fraction as F

import numpy as np
import pytest

from conftest import random_positive_system, random_triangular_system

from test_cli import PROPOSED_CONE_CONFIGS

from affdim.errors import BadExponents, NotTriangular
from affdim.ergodic import (
    ENCLOSURE_TOL,
    ExponentTriple,
    det_identity_value,
    entropy,
    exponent_bracket,
    lyapunov_dimension,
    lyapunov_enclosure,
    lyapunov_exponents,
    lyapunov_monte_carlo,
    lyapunov_triangular,
)
from affdim.ifs import AffineMap, BernoulliWeights, IfsSystem, parse_system
from affdim.library import hl_demo, phi_c, sec44
from affdim.linalg2 import Mat2, singular_values
from affdim.splitting import SplitReport, certify


class TestEntropy:
    def test_uniform(self):
        assert entropy(BernoulliWeights.uniform(3)) == pytest.approx(math.log(3), abs=1e-14)

    def test_near_degenerate(self):
        w = BernoulliWeights((1 - 1e-12, 5e-13, 5e-13))
        assert 0 <= entropy(w) < 1e-9

    def test_dyadic(self):
        w = BernoulliWeights((F(1, 2), F(1, 4), F(1, 4)))
        assert entropy(w) == pytest.approx(1.5 * math.log(2), abs=1e-14)


class TestTriangularExponents:
    def test_sec44_uniform(self):
        sysm, w, _ = sec44()
        t = lyapunov_triangular(sysm, w)
        assert t.entropy == pytest.approx(math.log(3), abs=1e-14)
        assert t.chi_s == pytest.approx(math.log(1.5), abs=1e-12)
        assert t.chi_ss == pytest.approx(math.log(81 / 16), abs=1e-12)
        assert t.stderr_s == 0.0

    def test_sec44_chi_s_is_libm_log_three_halves(self):
        # three terms (1/3) log(2/3) on Python floats and math.log give the
        # bits of log(3/2); np.dot of np.log gave 0.40546510810816444
        sysm, w, _ = sec44()
        assert lyapunov_triangular(sysm, w).chi_s == math.log(1.5) == 0.4054651081081644

    def test_equal_diagonal(self):
        sysm = IfsSystem((
            AffineMap(Mat2.diagonal(0.45, 0.45), (0.0, 0.0)),
            AffineMap(Mat2.diagonal(0.45, 0.45), (1.0, 0.0)),
        ))
        t = lyapunov_triangular(sysm, BernoulliWeights.uniform(2))
        assert t.chi_s == pytest.approx(-math.log(0.45), abs=1e-14)
        assert t.chi_ss == pytest.approx(-math.log(0.45), abs=1e-14)

    def test_phi_c_quarter(self):
        sysm, w, _ = phi_c(F(1, 4))
        t = lyapunov_triangular(sysm, w)
        assert t.chi_s == pytest.approx(math.log(3), abs=1e-12)
        assert t.chi_ss == pytest.approx(math.log(4), abs=1e-12)

    def test_determinant_identity_exact(self):
        rng = np.random.default_rng(53)
        for _ in range(20):
            sysm = random_triangular_system(rng)
            w = BernoulliWeights.uniform(sysm.n)
            t = lyapunov_triangular(sysm, w)
            assert t.chi_s + t.chi_ss == pytest.approx(det_identity_value(sysm, w), abs=1e-12)

    def test_not_triangular(self):
        sysm = IfsSystem((
            AffineMap(Mat2(0.5, 0.1, 0.0, 0.4), (0.0, 0.0)),
            AffineMap(Mat2(0.5, 0.0, 0.0, 0.4), (1.0, 0.0)),
        ))
        with pytest.raises(NotTriangular):
            lyapunov_triangular(sysm, BernoulliWeights.uniform(2))


class TestMonteCarlo:
    def test_single_map_zero_variance(self):
        # normal matrix: the product exponent equals -log alpha1 exactly
        m = Mat2.diagonal(0.3, 0.2)
        sysm = IfsSystem((AffineMap(m, (0.0, 0.0)),))
        t = lyapunov_monte_carlo(sysm, BernoulliWeights((1.0,)), n=64, trials=16, rng_seed=1)
        want = -math.log(singular_values(m).alpha1)
        assert t.stderr_s < 1e-12
        assert t.chi_s == pytest.approx(want, abs=1e-12)

    def test_equal_similarities_exact_per_trial(self):
        rho = 0.4
        maps = tuple(
            AffineMap(Mat2.rotation(0.5 * k) @ Mat2.diagonal(rho, rho), (float(k), 0.0))
            for k in range(3)
        )
        sysm = IfsSystem(maps)
        t = lyapunov_monte_carlo(sysm, BernoulliWeights.uniform(3), n=50, trials=20, rng_seed=5)
        assert t.chi_s == pytest.approx(-math.log(rho), abs=1e-10)
        assert t.stderr_s < 1e-9  # rotation round-off only

    def test_matches_triangular_within_3_stderr(self):
        rng = np.random.default_rng(59)
        hits = 0
        for _ in range(10):
            sysm = random_triangular_system(rng)
            w = BernoulliWeights.uniform(sysm.n)
            exact = lyapunov_triangular(sysm, w)
            mc = lyapunov_monte_carlo(sysm, w, n=1000, trials=400, rng_seed=7)
            if abs(mc.chi_s - exact.chi_s) <= 3 * mc.stderr_s:
                hits += 1
            assert mc.chi_s + mc.chi_ss == pytest.approx(det_identity_value(sysm, w), abs=1e-12)
        assert hits >= 8

    def test_second_iterate_invariance(self):
        sysm, w, _ = sec44()
        from affdim.ifs import compose_word

        maps2 = tuple(
            compose_word(sysm, (i, j)) for i in (1, 2, 3) for j in (1, 2, 3)
        )
        sys2 = IfsSystem(maps2)
        w2 = BernoulliWeights(tuple(float(a) * float(b) for a in w.p for b in w.p))
        t1 = lyapunov_monte_carlo(sysm, w, n=800, trials=300, rng_seed=11)
        t2 = lyapunov_monte_carlo(sys2, w2, n=400, trials=300, rng_seed=13)
        tol = 3 * math.hypot(t1.stderr_s, t2.stderr_s / 2) + 1e-9
        assert abs(t2.chi_s / 2 - t1.chi_s) <= tol

    def test_deterministic(self):
        sysm, w, _ = sec44()
        a = lyapunov_monte_carlo(sysm, w, n=100, trials=50, rng_seed=17)
        b = lyapunov_monte_carlo(sysm, w, n=100, trials=50, rng_seed=17)
        assert a == b

    def test_step_blocks_do_not_change_the_stream(self, monkeypatch):
        """Blocks of whole steps reproduce one (n, trials) draw, so the block
        size (1 step, 7, or all n at once) leaves every bit of the result."""
        import affdim.ifs

        sysm, w, _ = hl_demo()
        runs = []
        for symbols in (30, 7 * 30, 100 * 30):  # 1, 7 and 100 steps of 30 trials
            monkeypatch.setattr(affdim.ifs, "SYMBOL_BLOCK", symbols)
            runs.append(lyapunov_monte_carlo(sysm, w, n=100, trials=30, rng_seed=23))
        assert runs[0] == runs[1] == runs[2]


class TestLyapunovDimension:
    def test_sec44_value(self):
        sysm, w, _ = sec44()
        t = lyapunov_triangular(sysm, w)
        want = 1 + math.log(2) / math.log(81 / 16)
        assert lyapunov_dimension(t) == pytest.approx(want, abs=1e-12)

    def test_entropy_equal_chi_s(self):
        t = ExponentTriple(entropy=0.5, chi_s=0.5, chi_ss=0.8)
        assert lyapunov_dimension(t) == pytest.approx(1.0, abs=1e-14)

    def test_cap_at_two(self):
        t = ExponentTriple(entropy=2.0, chi_s=0.5, chi_ss=0.8)
        assert lyapunov_dimension(t) == 2.0

    def test_monotone_in_entropy(self):
        rng = np.random.default_rng(61)
        for _ in range(200):
            chi_s = rng.uniform(0.1, 1.0)
            chi_ss = chi_s + rng.uniform(0.0, 1.0)
            h1 = rng.uniform(0.0, 2.0)
            h2 = h1 + rng.uniform(0.0, 1.0)
            d1 = lyapunov_dimension(ExponentTriple(h1, chi_s, chi_ss))
            d2 = lyapunov_dimension(ExponentTriple(h2, chi_s, chi_ss))
            assert d2 >= d1 - 1e-14

    def test_bad_exponents(self):
        with pytest.raises(BadExponents):
            ExponentTriple(entropy=1.0, chi_s=0.0, chi_ss=1.0)
        with pytest.raises(BadExponents):
            ExponentTriple(entropy=1.0, chi_s=1.0, chi_ss=0.5)


def _positive_and_proposed_cases():
    """(system, weights): random positive systems with random weights, and
    the multi-arc proposed-cone configs with uniform ones."""
    rng = np.random.default_rng(67)
    cases = []
    for k in range(6):
        sysm = random_positive_system(rng, int(rng.integers(2, 4)))
        w = rng.uniform(0.2, 1.0, sysm.n)
        cases.append(pytest.param(sysm, BernoulliWeights(tuple(w / w.sum())), id=f"positive-{k}"))
    for name, text in PROPOSED_CONE_CONFIGS.items():
        sysm = parse_system(text).system
        cases.append(pytest.param(sysm, BernoulliWeights.uniform(sysm.n), id=name))
    return cases


class TestEnclosure:
    @pytest.mark.parametrize("make", [sec44, lambda: phi_c(F(1, 4))], ids=["sec44", "phi-c-1/4"])
    def test_contains_the_exact_triangular_chi_s(self, make):
        sysm, w, _ = make()
        exact = lyapunov_triangular(sysm, w)
        enc = lyapunov_enclosure(sysm, w, certify(sysm))
        assert enc.lo <= exact.chi_s <= enc.hi
        assert enc.hi - enc.lo < 0.1 * exact.chi_s

    @pytest.mark.parametrize("sysm, w", _positive_and_proposed_cases())
    def test_nests_and_contains_monte_carlo(self, sysm, w):
        split = certify(sysm)
        assert split.certified and split.method in ("Positivity", "MulticoneCheck")
        brackets = [exponent_bracket(sysm, w, split, n) for n in range(1, 9)]
        for (lo0, hi0), (lo1, hi1) in zip(brackets, brackets[1:]):
            # the rounding pad grows by about 1e-12 per level
            assert lo0 - 1e-11 <= lo1 <= hi1 <= hi0 + 1e-11
        mc = lyapunov_monte_carlo(sysm, w, n=1000, trials=200, rng_seed=29)
        lo, hi = brackets[-1]
        assert lo - 5 * mc.stderr_s <= mc.chi_s <= hi + 5 * mc.stderr_s

    def test_hl_demo_bracket_is_narrow(self):
        sysm, w, _ = hl_demo()
        enc = lyapunov_enclosure(sysm, w, certify(sysm))
        assert enc.hi - enc.lo <= ENCLOSURE_TOL
        # h / chi_s lies in [0.3009239815138, 0.3009239815143]
        h = entropy(w)
        assert h / enc.hi <= 0.3009239815138 <= 0.3009239815143 <= h / enc.lo
        t = lyapunov_exponents(sysm, w, split=certify(sysm))
        assert 0.3009239815138 <= h / t.chi_s <= 0.3009239815143

    def test_word_blocks_give_the_same_bracket(self, monkeypatch):
        # the block size moves only the block count in the rounding pad
        import affdim.ergodic

        sysm, w, _ = hl_demo()
        split = certify(sysm)
        whole = exponent_bracket(sysm, w, split, 10)
        monkeypatch.setattr(affdim.ergodic, "WORD_BLOCK", 4)
        blocked = exponent_bracket(sysm, w, split, 10)
        assert blocked == pytest.approx(whole, abs=1e-12)
        assert blocked[0] <= whole[0] and whole[1] <= blocked[1]

    def test_routes(self, monkeypatch):
        sysm, w, _ = hl_demo()
        split = certify(sysm)
        enclosed = lyapunov_exponents(sysm, w, split=split)
        assert enclosed.stderr_s == 0.0
        assert enclosed.enclosure.lo <= enclosed.chi_s <= enclosed.enclosure.hi
        assert enclosed.chi_s + enclosed.chi_ss == pytest.approx(det_identity_value(sysm, w),
                                                                 abs=1e-14)
        assert lyapunov_exponents(sysm, w, split=split) == enclosed  # deterministic
        # no certificate: Monte Carlo alone
        assert lyapunov_exponents(sysm, w, mc_n=50, mc_trials=20, rng_seed=3) == \
            lyapunov_monte_carlo(sysm, w, 50, 20, 3)
        # 300 words end at depth 8, wider than the tolerance: Monte Carlo
        # clamped into the enclosure
        import affdim.ergodic

        monkeypatch.setattr(affdim.ergodic, "ENCLOSURE_WORDS", 300)
        wide = lyapunov_exponents(sysm, w, mc_n=50, mc_trials=20, rng_seed=3, split=split)
        assert wide.stderr_s > 0.0 and wide.enclosure.depth == 8
        assert wide.enclosure.lo <= wide.chi_s <= wide.enclosure.hi

    def test_gives_up_when_the_rounding_argument_fails(self):
        # a clearance far below the rounding error leaves no enclosure
        sysm, w, _ = hl_demo()
        split = certify(sysm)
        thin = SplitReport("Certified", split.method, split.multicone, margin=1e-18)
        assert exponent_bracket(sysm, w, thin, 4) is None
        assert lyapunov_enclosure(sysm, w, thin) is None
        t = lyapunov_exponents(sysm, w, mc_n=50, mc_trials=20, rng_seed=3, split=thin)
        assert t == lyapunov_monte_carlo(sysm, w, 50, 20, 3)


class TestEnclosureForms:
    """The words of an enclosure depth run on Python floats and libm up to
    WORD_BLOCK words times arcs, on numpy blocks past it; both forms are
    valid brackets of the same chi_s."""

    @pytest.mark.parametrize("sysm, w", _positive_and_proposed_cases())
    def test_float_and_array_brackets_overlap(self, sysm, w):
        # random positive 2- and 3-symbol systems, and multi-arc cones
        import affdim.ergodic as ergodic_mod

        split = certify(sysm)
        arcs = len(split.multicone.arcs)
        for n in (k for k in (1, 3, 6, 9) if len(sysm.symbols) ** k * arcs <= 2 ** 15):
            lo_f, hi_f = ergodic_mod._bracket(sysm, w, split, n, ergodic_mod._bracket_sums_floats)
            lo_a, hi_a = ergodic_mod._bracket(sysm, w, split, n, ergodic_mod._bracket_sums_arrays)
            assert max(lo_f, lo_a) <= min(hi_f, hi_a)
            # the same words and set-up: the ends differ by the pad's block
            # count and the last bits of libm's and numpy's logs
            assert lo_f == pytest.approx(lo_a, abs=1e-12)
            assert hi_f == pytest.approx(hi_a, abs=1e-12)

    def test_gate_edge(self, monkeypatch):
        # hl-demo has two symbols and a one-arc cone: 2^15 words take the
        # float form, 2^16 the array form
        import affdim.ergodic as ergodic_mod

        sysm, w, _ = hl_demo()
        split = certify(sysm)
        assert len(split.multicone.arcs) == 1
        ran = []
        for name in ("_bracket_sums_floats", "_bracket_sums_arrays"):
            def recorded(*args, form=getattr(ergodic_mod, name), name=name):
                ran.append(name)
                return form(*args)

            monkeypatch.setattr(ergodic_mod, name, recorded)
        for n in (15, 16):
            assert exponent_bracket(sysm, w, split, n) is not None
        assert ran == ["_bracket_sums_floats", "_bracket_sums_arrays"]
