"""Acceptance suite: one test per criterion, one printed pass line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Randomized criteria use fixed seeds, so every run is bit-reproducible.
"""

import math
import os
import subprocess
import sys
import tempfile
import time
from fractions import Fraction as F
from itertools import product

import numpy as np

from conftest import random_triangular_system

from affdim.dimension import lower_bound_iteration
from affdim.hochman import LineIfs, delta_n, hochman_rate
from affdim.ifs import (
    AffineMap,
    BernoulliWeights,
    IfsSystem,
    Polygon,
    box_dimension_estimate,
    check_ssc,
    compose_word,
    polygons_disjoint,
    sample_measure,
)
from affdim.library import phi_c, phi_c_closed_form, sec44
from affdim.linalg2 import Mat2, ProjPoint, operator_norm, phi_s, proj_act, proj_metric
from affdim.ergodic import lyapunov_monte_carlo, lyapunov_triangular
from affdim.pressure import pressure_root, triangular_roots
from affdim.splitting import strong_stable_direction

SEC44_DIM = 1.0 + math.log(2.0) / math.log(81.0 / 16.0)
UNIT_SQUARE = Polygon(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)))


def _report(num, text):
    print(f"criterion {num}: PASS - {text}")


def _run_cli(args, env_threads=None):
    env = dict(os.environ)
    if env_threads is not None:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS"):
            env[var] = str(env_threads)
    return subprocess.run(
        [sys.executable, "-m", "affdim.cli", *args],
        capture_output=True, env=env,
    )


def test_criterion_01_sec44_golden():
    t0 = time.time()
    proc = _run_cli(["analyze", "--example", "sec44"])
    elapsed = time.time() - t0
    assert proc.returncode == 0, proc.stderr.decode()
    out = proc.stdout.decode()
    values = [float(l.split(":")[1]) for l in out.splitlines()
              if l.startswith("certified-value:")]
    assert len(values) == 2  # measure and attractor
    for v in values:
        assert abs(v - SEC44_DIM) < 1e-9
        assert abs(v - 1.4273) < 5e-4
    cond = [float(l.split(":")[1]) for l in out.splitlines()
            if l.startswith("condition4-lhs:")]
    assert cond and all(c > 2.0 for c in cond)
    assert elapsed < 5.0
    _report(1, f"sec44 certified {values[0]:.10f} (closed form {SEC44_DIM:.10f}), "
               f"condition4 {cond[0]:.4f} > 2, {elapsed:.2f}s")


def test_criterion_02_phi_c_branch_one():
    t0 = time.time()
    c = F(1, 4)
    closed = phi_c_closed_form(c)
    assert abs(closed - 1.5) < 1e-12  # 1 - log2/log(1/4) collapses exactly
    sysm, w, _ = phi_c(c)
    s1, s2 = triangular_roots(sysm)
    assert abs(min(s1, s2) - 1.5) < 1e-12
    est = pressure_root(sysm, (2, 4, 8))
    assert abs(est.s_extrapolated - 1.5) < 5e-3
    pts = sample_measure(sysm, w, depth=25, count=1_000_000, rng_seed=424242,
                         seed_point=(0.5, 0.5))
    series = box_dimension_estimate(pts, 4, 9)
    assert abs(series.slope - 1.5) < 0.15
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _report(2, f"phi-c c=1/4: closed form {closed!r}, pressure estimate "
               f"{est.s_extrapolated:.6f}, box slope {series.slope:.4f}, {elapsed:.1f}s")


def test_criterion_03_phi_c_branch_two():
    c = F(2, 5)
    want = 1.0 + math.log(2.4) / math.log(3.0)
    sysm, _, _ = phi_c(c)
    s1, s2 = triangular_roots(sysm)
    assert abs(min(s1, s2) - want) < 1e-9
    est = pressure_root(sysm, (2, 4, 8))
    assert abs(est.s_upper - want) < 5e-3
    assert abs(est.s_extrapolated - want) < 5e-3
    _report(3, f"phi-c c=0.4: min(s1,s2)={min(s1, s2):.9f} vs {want:.9f}, "
               f"pressure root n=8 gap {abs(est.s_upper - want):.2e}")


def test_criterion_04_pressure_consistency():
    rng = np.random.default_rng(314159)
    worst_gap = 0.0
    for _ in range(50):
        sysm = random_triangular_system(rng, away_from_breakpoints=True)
        est = pressure_root(sysm, (2, 4, 8, 12))
        s1, s2 = triangular_roots(sysm)
        gap = abs(est.s_extrapolated - min(s1, s2))
        worst_gap = max(worst_gap, gap)
        assert gap < 1e-3
        roots = [r for _, r in est.history]
        assert all(a >= b - 1e-10 for a, b in zip(roots, roots[1:]))
    _report(4, f"50 random triangular systems: worst |root(12) - closed| = {worst_gap:.2e}, "
               "roots non-increasing along 2,4,8,12")


def test_criterion_05_lyapunov_consistency():
    rng = np.random.default_rng(2024)
    hits = 0
    for k in range(50):
        sysm = random_triangular_system(rng, big_range=(0.2, 0.8))
        w = BernoulliWeights.uniform(sysm.n)
        exact = lyapunov_triangular(sysm, w)
        mc = lyapunov_monte_carlo(sysm, w, n=1000, trials=1000, rng_seed=10_000 + k)
        if abs(mc.chi_s - exact.chi_s) <= 3 * mc.stderr_s:
            hits += 1
        # determinant identity holds exactly by construction
        from affdim.ergodic import det_identity_value

        assert abs(mc.chi_s + mc.chi_ss - det_identity_value(sysm, w)) <= \
            3 * math.hypot(mc.stderr_s, mc.stderr_ss) + 1e-12
    assert hits >= 47
    _report(5, f"Monte-Carlo vs exact exponents: {hits}/50 within 3 stderr; "
               "determinant identity always holds")


def test_criterion_06_direction_field():
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(100):
        sysm = random_triangular_system(rng, dominant="c")
        word = tuple(int(x) for x in rng.integers(1, sysm.n + 1, size=300))
        s = strong_stable_direction(sysm, word, tol=1e-10, method="series")
        it = strong_stable_direction(sysm, word, tol=1e-10, method="iterate")
        worst = max(worst, proj_metric(s, it))
        assert proj_metric(s, it) < 1e-8
    # constant words hit the eigendirection -b/(c-a)
    for _ in range(20):
        sysm = random_triangular_system(rng, dominant="c")
        i = int(rng.integers(1, sysm.n + 1))
        f = sysm.maps[i - 1].linear
        want = ProjPoint.from_slope(-f.a21 / (f.a22 - f.a11))
        got = strong_stable_direction(sysm, (i,) * 300, tol=1e-12)
        assert proj_metric(got, want) < 1e-10
    _report(6, f"series vs inverse iteration on 100 c-dominant systems: "
               f"worst metric gap {worst:.2e}; constant words hit -b/(c-a)")


def test_criterion_07_hochman_exactness():
    dyadic = LineIfs(((F(1, 2), F(0)), (F(1, 2), F(1, 2))))
    for n in range(1, 11):
        assert delta_n(dyadic, n) == F(1, 2 ** n)
    repeated = LineIfs(((F(1, 3), F(0)), (F(1, 3), F(0))))
    rep = hochman_rate(repeated, 4)
    assert rep.verdict == "ExactOverlap" and rep.rows[0][0] == 1

    def oracle(ifs, n):
        def compose(word):
            beta, gamma = F(1), F(0)
            for s in word:
                b, g = ifs.maps[s]
                gamma = gamma + beta * g
                beta = beta * b
            return beta, gamma

        comps = [compose(w) for w in product(range(ifs.n), repeat=n)]
        best = None
        for i in range(len(comps)):
            for j in range(i + 1, len(comps)):
                if comps[i][0] != comps[j][0]:
                    continue
                gap = abs(comps[i][1] - comps[j][1])
                if best is None or gap < best:
                    best = gap
        return math.inf if best is None else best

    rng = np.random.default_rng(707)
    for _ in range(20):
        maps = []
        for _ in range(int(rng.integers(2, 4))):
            beta = F(int(rng.integers(1, 5)), int(rng.integers(5, 9)))
            if rng.random() < 0.3:
                beta = -beta
            gamma = F(int(rng.integers(-4, 5)), int(rng.integers(1, 7)))
            maps.append((beta, gamma))
        ifs = LineIfs(tuple(maps))
        for n in range(1, 6):
            assert delta_n(ifs, n) == oracle(ifs, n)
    _report(7, "delta_n exact: dyadic 2^-n for n<=10, repeated-map overlap at n=1, "
               "pairwise oracle equality to depth 5 on 20 systems")


def _random_ssc_system(rng):
    corners = ((0.12, 0.12), (0.78, 0.15), (0.45, 0.8))
    maps = []
    for k in range(3):
        while True:
            e = rng.uniform(-1, 1, size=4)
            m = Mat2(*e)
            if abs(m.det) > 0.05:
                break
        m = m.scaled(0.18 * rng.uniform(0.5, 1.0) / operator_norm(m))
        maps.append(AffineMap(m, corners[k]))
    return IfsSystem(tuple(maps))


def test_criterion_08_ssc_geometry():
    sysm, _, poly = sec44()
    rep = check_ssc(sysm, poly)
    assert rep.holds and rep.kappa > 0 and rep.margin > 0

    phic, _, square = phi_c(F(1, 4))
    assert not check_ssc(phic, square).holds

    rng = np.random.default_rng(808)
    checked = 0
    while checked < 20:
        sysm = _random_ssc_system(rng)
        rep = check_ssc(sysm, UNIT_SQUARE)
        if not rep.holds:
            continue
        checked += 1
        words = list(product(range(1, 4), repeat=3))
        polys = [UNIT_SQUARE.transform(compose_word(sysm, w)) for w in words]
        for i in range(len(polys)):
            for j in range(i + 1, len(polys)):
                assert polygons_disjoint(polys[i], polys[j])
    _report(8, "sec44 parallelogram holds (kappa, margin > 0); phi-c unit square "
               "fails; depth-3 cylinders disjoint on 20 random SSC systems")


def test_criterion_09_property_suites():
    rng = np.random.default_rng(909)
    s_grid = np.linspace(0.0, 3.0, 7)
    done = 0
    while done < 10_000:
        e = rng.uniform(-1, 1, size=8)
        m1, m2 = Mat2(*e[:4]), Mat2(*e[4:])
        prod = m1 @ m2
        if abs(m1.det) < 1e-6 or abs(m2.det) < 1e-6 or abs(prod.det) < 1e-9:
            continue
        s = float(s_grid[done % len(s_grid)])
        assert phi_s(prod, s) <= phi_s(m1, s) * phi_s(m2, s) * (1 + 1e-10)
        done += 1

    done = 0
    while done < 10_000:
        e = rng.uniform(-1, 1, size=8)
        m1, m2 = Mat2(*e[:4]), Mat2(*e[4:])
        if abs(m1.det) < 1e-6 or abs(m2.det) < 1e-6 or abs((m1 @ m2).det) < 1e-9:
            continue
        p = ProjPoint(rng.uniform(0, math.pi))
        assert proj_metric(proj_act(m1 @ m2, p), proj_act(m1, proj_act(m2, p))) < 1e-10
        done += 1

    for _ in range(10_000):
        chi_s = rng.uniform(0.05, 1.5)
        chi_ss = chi_s * rng.uniform(1.0001, 4.0)
        h = rng.uniform(0.01, 2.5)
        got = lower_bound_iteration(h, chi_s, chi_ss)
        assert abs(got - min(2 * h / chi_ss, h / chi_s)) < 1e-12

    for _ in range(10_000):
        chi_s = rng.uniform(0.05, 1.5)
        chi_ss = chi_s + rng.uniform(0.0, 1.5)
        h = rng.uniform(0.0, 2.0)
        big_h = rng.uniform(0.0, h)
        lhs = h / chi_ss + (1 - chi_s / chi_ss) * (h - big_h) / chi_s
        rhs = big_h / chi_ss + (h - big_h) / chi_s
        assert abs(lhs - rhs) < 1e-12
    _report(9, "property suites: phi^s submultiplicativity, projective action "
               "composition, lower-bound limit, dimension-formula identity "
               "(10^4 cases each)")


def test_criterion_10_thread_count_determinism():
    jobs = [
        ["analyze", "--example", "sec44", "--seed", "7"],
        ["lyapunov", "--example", "hl-demo", "--seed", "7", "--mc-n", "400",
         "--mc-trials", "200"],
        ["boxdim", "--example", "sec44", "--count", "50000", "--seed", "7"],
        ["directions", "--example", "hl-demo", "--count", "5000", "--seed", "7"],
        ["analyze", "--example", "phi-c", "--param", "c=2/5", "--seed", "7"],
        ["analyze", "--example", "phi-c", "--param", "c=1/4", "--target", "measure",
         "--subsystem-exclude", "4,6", "--seed", "7"],
    ]
    for args in jobs:
        one = _run_cli(args, env_threads=1)
        eight = _run_cli(args, env_threads=8)
        assert one.returncode == eight.returncode
        assert one.stdout == eight.stdout, f"thread-count dependent output: {args}"
    renders = [
        ["render", "--example", "sec44", "--depth", "6", "--width", "96", "--height", "64"],
        ["render", "--example", "phi-c", "--param", "c=1/4", "--mode", "chaos",
         "--count", "20000", "--width", "64", "--height", "64", "--seed", "7"],
    ]
    with tempfile.TemporaryDirectory() as tmp:
        for args in renders:
            images = []
            for threads in (1, 8):
                path = os.path.join(tmp, f"{args[3]}-{threads}.ppm")
                proc = _run_cli(args + ["--out", path], env_threads=threads)
                assert proc.returncode == 0, proc.stderr.decode()
                with open(path, "rb") as fh:
                    images.append(fh.read())
            assert images[0] == images[1], f"thread-count dependent image: {args}"
    _report(10, "analyze, lyapunov, boxdim, directions and both render modes "
                "byte-identical under 1-thread and 8-thread environments")
