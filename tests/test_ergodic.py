import math
from fractions import Fraction as F

import numpy as np
import pytest

from conftest import random_triangular_system

from affdim.errors import BadExponents, NotTriangular
from affdim.ergodic import (
    ExponentTriple,
    det_identity_value,
    entropy,
    lyapunov_dimension,
    lyapunov_monte_carlo,
    lyapunov_triangular,
    lyapunov_via_directions,
)
from affdim.ifs import AffineMap, BernoulliWeights, IfsSystem
from affdim.library import hl_demo, phi_c, sec44
from affdim.linalg2 import Mat2, singular_values


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
        """Blocks of steps reproduce one (n, trials) draw, so the block size
        (1 step, 7, or all n at once) leaves every bit of the result."""
        import affdim.ergodic

        sysm, w, _ = hl_demo()
        runs = []
        for block in (1, 7, 100):
            monkeypatch.setattr(affdim.ergodic, "MC_BLOCK_STEPS", block)
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


class TestDirectionEstimator:
    def test_matches_chi_s_sec44(self):
        sysm, w, _ = sec44()
        exact = lyapunov_triangular(sysm, w)
        est, se = lyapunov_via_directions(sysm, w, count=20_000, rng_seed=19)
        assert abs(est - exact.chi_s) <= 3 * se + 1e-9

    def test_matches_chi_s_a_dominant(self):
        sysm, w, _ = phi_c(F(1, 4))
        exact = lyapunov_triangular(sysm, w)
        est, se = lyapunov_via_directions(sysm, w, count=20_000, rng_seed=23)
        assert abs(est - exact.chi_s) <= 3 * se + 1e-9
