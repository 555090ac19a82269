import math
from fractions import Fraction

import numpy as np
import pytest

from affdim.errors import NegativeExponent, SingularMatrix
from affdim.linalg2 import (
    Mat2,
    ProjArc,
    ProjPoint,
    arc_image,
    log_alpha1,
    mul4,
    numpy_ops,
    operator_norm,
    phi_s,
    proj_act,
    proj_metric,
    renormalise4,
    singular_values,
)


def random_mat(rng, scale=1.0):
    while True:
        e = rng.uniform(-scale, scale, size=4)
        m = Mat2(*e)
        if abs(m.det) > 1e-6:
            return m


def svd_oracle(m):
    """Independent check: eigen-decompose M M^T with numpy."""
    arr = np.array([[m.a11, m.a12], [m.a21, m.a22]], dtype=float)
    eig = np.linalg.eigvalsh(arr @ arr.T)
    eig = np.clip(eig, 0.0, None)
    return math.sqrt(eig[1]), math.sqrt(eig[0])


class TestSingularValues:
    def test_identity(self):
        assert singular_values(Mat2.identity()) == (1.0, 1.0)

    def test_diagonal_sorted(self):
        a1, a2 = singular_values(Mat2.diagonal(Fraction(16, 81), Fraction(2, 3)))
        assert a1 == pytest.approx(2 / 3, abs=1e-15)
        assert a2 == pytest.approx(16 / 81, abs=1e-15)

    def test_triangular_against_eigensolver(self):
        m = Mat2.lower_triangular(Fraction(16, 81), Fraction(-2, 3), Fraction(2, 3))
        a1, a2 = singular_values(m)
        o1, o2 = svd_oracle(m)
        assert a1 == pytest.approx(o1, rel=1e-12)
        assert a2 == pytest.approx(o2, rel=1e-12)

    def test_random_against_eigensolver(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            m = random_mat(rng)
            a1, a2 = singular_values(m)
            o1, o2 = svd_oracle(m)
            assert a1 == pytest.approx(o1, rel=1e-9)
            assert a2 == pytest.approx(o2, rel=1e-9)

    def test_product_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            m = random_mat(rng)
            a1, a2 = singular_values(m)
            assert a1 * a2 == pytest.approx(abs(float(m.det)), rel=1e-12)
            assert a1 >= a2 > 0

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrix):
            singular_values(Mat2(1.0, 2.0, 0.5, 1.0))


class TestPhiS:
    def test_s_zero_is_one(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            assert phi_s(random_mat(rng), 0.0) == 1.0

    def test_s_two_is_det(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            m = random_mat(rng)
            assert phi_s(m, 2.0) == pytest.approx(abs(float(m.det)), rel=1e-12)

    def test_piecewise_value(self):
        m = Mat2.diagonal(0.5, 1.0 / 3.0)
        expect = 0.5 * (1.0 / 3.0) ** 0.5
        assert phi_s(m, 1.5) == pytest.approx(expect, rel=1e-12)
        assert phi_s(m, 1.5) == pytest.approx(0.28868, abs=5e-6)
        # numeric SVD cross-check of the same branch
        o1, o2 = svd_oracle(m)
        assert phi_s(m, 1.5) == pytest.approx(o1 * o2 ** 0.5, rel=1e-12)

    def test_negative_exponent(self):
        with pytest.raises(NegativeExponent):
            phi_s(Mat2.identity(), -0.1)

    def test_submultiplicative(self):
        rng = np.random.default_rng(5)
        s_grid = np.linspace(0.0, 3.0, 13)
        for _ in range(10_000 // len(s_grid) + 1):
            m1, m2 = random_mat(rng), random_mat(rng)
            prod = m1 @ m2
            if abs(prod.det) < 1e-9:
                continue
            for s in s_grid:
                lhs = phi_s(prod, s)
                rhs = phi_s(m1, s) * phi_s(m2, s)
                assert lhs <= rhs * (1 + 1e-10)

    def test_continuity_at_breakpoints(self):
        rng = np.random.default_rng(6)
        eps = 1e-8
        for _ in range(50):
            m = random_mat(rng)
            for b in (1.0, 2.0):
                lo, hi = phi_s(m, b - eps), phi_s(m, b + eps)
                assert abs(lo - hi) < 1e-6 * max(lo, hi)


class TestProjective:
    def test_identity_action(self):
        p = ProjPoint(0.7)
        assert proj_act(Mat2.identity(), p).theta == pytest.approx(0.7, abs=1e-15)

    def test_rotation_action(self):
        p = ProjPoint(0.5)
        q = proj_act(Mat2.rotation(1.1), p)
        assert q.theta == pytest.approx((0.5 + 1.1) % math.pi, abs=1e-12)

    def test_stretch_action(self):
        q = proj_act(Mat2.diagonal(2.0, 1.0), ProjPoint(math.pi / 4))
        assert q.theta == pytest.approx(math.atan(0.5), abs=1e-12)
        assert q.theta == pytest.approx(0.46365, abs=5e-6)

    def test_representative_independent(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            m = random_mat(rng)
            theta = rng.uniform(0, math.pi)
            q1 = proj_act(m, ProjPoint(theta))
            q2 = proj_act(m, ProjPoint(theta + math.pi))  # other representative
            assert proj_metric(q1, q2) < 1e-12

    def test_group_action(self):
        rng = np.random.default_rng(9)
        for _ in range(10_000):
            m1, m2 = random_mat(rng), random_mat(rng)
            if abs((m1 @ m2).det) < 1e-9:
                continue
            p = ProjPoint(rng.uniform(0, math.pi))
            lhs = proj_act(m1 @ m2, p)
            rhs = proj_act(m1, proj_act(m2, p))
            assert proj_metric(lhs, rhs) < 1e-10

    def test_metric(self):
        assert proj_metric(ProjPoint(0.3), ProjPoint(0.3)) == 0.0
        assert proj_metric(ProjPoint(0.0), ProjPoint(math.pi / 2)) == pytest.approx(1.0)
        assert proj_metric(ProjPoint(0.0), ProjPoint(math.pi / 6)) == pytest.approx(0.5)


class TestArc:
    def test_identity_image(self):
        arc = ProjArc.from_angles(0.2, 0.9)
        img = arc_image(Mat2.identity(), arc)
        assert img.start.theta == pytest.approx(0.2, abs=1e-12)
        assert img.end.theta == pytest.approx(0.9, abs=1e-12)

    def test_rotation_image(self):
        arc = ProjArc.from_angles(0.2, 0.9)
        img = arc_image(Mat2.rotation(0.4), arc)
        assert img.start.theta == pytest.approx(0.6, abs=1e-12)
        assert img.end.theta == pytest.approx(1.3, abs=1e-12)
        assert img.length == pytest.approx(arc.length, abs=1e-12)

    def test_stretch_image_endpoints(self):
        arc = ProjArc.from_angles(math.pi / 6, math.pi / 3)
        img = arc_image(Mat2.diagonal(2.0, 1.0), arc)
        assert img.start.theta == pytest.approx(math.atan(math.tan(math.pi / 6) / 2), abs=1e-12)
        assert img.end.theta == pytest.approx(math.atan(math.tan(math.pi / 3) / 2), abs=1e-12)

    def test_image_midpoint_inside(self):
        rng = np.random.default_rng(10)
        for _ in range(300):
            m = random_mat(rng)
            start = rng.uniform(0, math.pi)
            length = rng.uniform(0.05, 2.5)
            arc = ProjArc.from_angles(start, start + length)
            img = arc_image(m, arc)
            # images of interior points are interior
            for frac in (0.25, 0.5, 0.75):
                p = ProjPoint(start + frac * length)
                assert img.contains(proj_act(m, p))

    def test_seam_wraparound(self):
        arc = ProjArc.from_angles(math.pi - 0.2, 0.3)  # crosses theta = 0
        assert arc.length == pytest.approx(0.5, abs=1e-12)
        assert arc.contains(ProjPoint(0.05))
        assert not arc.contains(ProjPoint(1.0))


def _kernel_fold(mats, word):
    """log alpha1 of mats[w_1] ... mats[w_n] through the batched kernel,
    renormalised every step, for a batch of one."""
    cols = tuple(np.array(c, dtype=float) for c in zip(*(m.entries() for m in mats)))
    e = (np.ones(1), np.zeros(1), np.zeros(1), np.ones(1))
    logscale = np.zeros(1)
    for s in word:
        e, scale = renormalise4(mul4(e, tuple(c[[s]] for c in cols)))
        logscale += np.log(scale)
    return float((logscale + log_alpha1(numpy_ops())(*e))[0])


def _near_rank_one(rng, ratio):
    """A contraction with alpha2 / alpha1 = ratio, in random singular directions."""
    s = rng.uniform(0.3, 0.9)
    return (Mat2.rotation(rng.uniform(0, math.pi)) @ Mat2.diagonal(s, s * ratio)
            @ Mat2.rotation(rng.uniform(0, math.pi)))


class TestBatchedKernel:
    @pytest.mark.parametrize("kind", ["generic", "near-rank-one"])
    @pytest.mark.parametrize("seed", range(4))
    def test_log_alpha1_matches_the_mat2_fold(self, kind, seed):
        rng = np.random.default_rng(seed)
        for depth in (1, 2, 5, 17, 40):
            # near rank one: every product keeps alpha2 / alpha1 >= 1e-12, so
            # the determinant that singular_values checks stays nonzero
            if kind == "near-rank-one":
                mats = [_near_rank_one(rng, 10.0 ** (-12 / depth)) for _ in range(3)]
            else:
                mats = [random_mat(rng, 0.6) for _ in range(3)]
            word = rng.integers(0, 3, size=depth).tolist()
            fold = Mat2.identity()
            for s in word:
                fold = fold @ mats[s]
            want = math.log(singular_values(fold).alpha1)
            assert _kernel_fold(mats, word) == pytest.approx(want, rel=1e-12)

    def test_broadcast_left_product_equals_a_per_symbol_loop(self):
        rng = np.random.default_rng(11)
        A = rng.uniform(-1.0, 1.0, size=(5, 2, 2))
        words = tuple(rng.uniform(-1.0, 1.0, size=(4, 97)))
        cols = A[:, 0, 0], A[:, 0, 1], A[:, 1, 0], A[:, 1, 1]
        batched = [x.ravel() for x in mul4(tuple(c[:, None] for c in cols), words)]
        looped = [np.concatenate(parts) for parts in zip(
            *(mul4(tuple(c[i] for c in cols), words) for i in range(len(A))))]
        for got, want in zip(batched, looped):
            assert np.array_equal(got, want)  # bit for bit, symbol i slowest

    def test_renormalise_and_operator_norm(self):
        rng = np.random.default_rng(5)
        mats = [random_mat(rng) for _ in range(20)]
        e = tuple(np.array(x) for x in zip(*(m.entries() for m in mats)))
        unit, scale = renormalise4(e)
        assert np.array_equal(scale, [max(abs(x) for x in m.entries()) for m in mats])
        assert np.array_equal(np.max(np.abs(np.array(unit)), axis=0), np.ones(len(mats)))
        for m, got in zip(mats, np.log(scale) + log_alpha1(numpy_ops())(*unit)):
            assert got == pytest.approx(math.log(operator_norm(m)), rel=1e-12, abs=1e-15)
