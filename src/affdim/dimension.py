"""The theorem engine: evaluates the entropy/exponent dimension formulas,
checks each theorem's hypotheses, and combines them into a certified report.

Decision procedure (measure target), in precedence order:

1. exponents, Lyapunov dimension and the pressure root are always computed;
2. without certified dominated splitting and strong separation only the
   pressure/Lyapunov upper bounds are reported;
3. triangular a-dominant systems go through the projected x-axis system
   (exact-overlap aware) -- the transversal measure is self-similar there;
4. triangular c-dominant systems go through the strong-stable direction
   system: first the projection inequality with the closed-form direction
   dimension (exact when the direction system separates), then the
   separation-trend route, then the paired lower-bound condition;
5. general matrices run the invariant-cone checks (bunching for dimensions
   below one, otherwise the direction-dimension conditions), with the
   empirical direction estimate as a last trend-gated resort;
6. otherwise an interval is emitted, never silently: every downgrade is a
   hypothesis status in the report.

Certified values never exceed the pressure-root upper bound; trend-gated
hypotheses are listed under assumptions, exact ones as Verified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import BadExponents, TooFewPoints
from .ergodic import (
    ExponentTriple,
    lyapunov_dimension,
    lyapunov_monte_carlo,
    lyapunov_triangular,
)
from .hochman import DeltaReport, LineIfs, hochman_rate
from .ifs import BernoulliWeights, IfsSystem, Polygon, check_ssc, compose_word
from .linalg2 import Mat2, ProjArc, angle_gap, arc_image, singular_values
from .splitting import Multicone, SplitReport, certify, sample_nu_ss_angles

# fired-theorem labels
T_LY = "T2.6-LY-formula"
T_PROJECTION = "T2.8-projection"
T_FK = "T2.9-Falconer-Kempton"
T_HL = "T4.1-HueterLalley"
T_ADOM = "T4.2-ADominant"
T_CDOM = "T4.2-CDominant"
T_APP = "T4.5-app"
T_PRESSURE = "PressureUpperBound"
T_LOWER = "Lemma4.9-LowerBound"

VERIFIED = "Verified"
TREND = "AssumedFromTrend"
FAILED = "Failed"
UNKNOWN = "Unknown"

SANDWICH_TOL = 1e-9


@dataclass(frozen=True)
class DimensionReport:
    """Certified dimension data plus every hypothesis check that fed it."""

    target: str  # "measure" | "attractor"
    certified_value: Optional[float]
    certified_interval: Tuple[float, float]
    fired_theorem: str
    hypotheses: tuple  # ((name, status), ...)
    assumptions: tuple  # strings
    details: tuple = ()  # ((key, formatted value), ...) in print order

    def render(self) -> str:
        lines = [f"target: {self.target}"]
        lines.extend(f"{k}: {v}" for k, v in self.details)
        for name, status in self.hypotheses:
            lines.append(f"hypothesis {name}: {status}")
        lines.append(f"fired-theorem: {self.fired_theorem}")
        if self.certified_value is not None:
            lines.append(f"certified-value: {self.certified_value!r}")
        else:
            lines.append("certified-value: none")
        lo, hi = self.certified_interval
        lines.append(f"certified-interval: [{lo!r}, {hi!r}]")
        if self.assumptions:
            for a in self.assumptions:
                lines.append(f"assumption: {a}")
        else:
            lines.append("assumption: none")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Formula blocks
# ---------------------------------------------------------------------------


def ly_dimension_formula(h: float, chi_s: float, chi_ss: float, dim_t: float) -> float:
    """dim = h/chi_ss + (1 - chi_s/chi_ss) * dim_t for transversal dimension
    dim_t in [0, 1]."""
    if not (0 < chi_s <= chi_ss):
        raise BadExponents(f"need 0 < chi_s <= chi_ss, got {chi_s}, {chi_ss}")
    if not 0.0 <= dim_t <= 1.0:
        raise BadExponents(f"dim_t = {dim_t} outside [0, 1]")
    if h < 0:
        raise BadExponents("entropy must be nonnegative")
    return h / chi_ss + (1.0 - chi_s / chi_ss) * dim_t


def lower_bound_iteration(h: float, chi_s: float, chi_ss: float, tol: float = 1e-14) -> float:
    """Fixed-point iteration x -> h/chi_ss + (1 - chi_s/chi_ss) min{h/(chi_ss-chi_s), x}
    from x0 = h/chi_ss; the limit is min{2h/chi_ss, h/chi_s}."""
    if not (0 < chi_s <= chi_ss):
        raise BadExponents(f"need 0 < chi_s <= chi_ss, got {chi_s}, {chi_ss}")
    if chi_s == chi_ss:
        return h / chi_s
    cap = h / (chi_ss - chi_s)
    shrink = 1.0 - chi_s / chi_ss
    x = h / chi_ss
    for _ in range(1_000_000):
        nxt = h / chi_ss + shrink * min(cap, x)
        if abs(nxt - x) < tol:
            return nxt
        x = nxt
    return x


def one_bunched(m: Mat2) -> bool:
    """alpha1(m)^2 <= alpha2(m), exactly on rational entries.

    With alpha1^2 = (T + sqrt(T^2 - 4 D^2))/2 the inequality is equivalent to
    (3T^2 + Delta) sqrt(Delta) <= 8 D^2 - T^3 - 3 T Delta, which squares to a
    rational comparison.
    """
    if m.is_rational():
        a, b, c, d = (Fraction(e) for e in m.entries())
        t = a * a + b * b + c * c + d * d
        det2 = (a * d - b * c) ** 2
        delta = t * t - 4 * det2
        if delta < 0:
            delta = Fraction(0)
        rhs = 8 * det2 - t ** 3 - 3 * t * delta
        if rhs < 0:
            return False
        return delta * (3 * t * t + delta) ** 2 <= rhs * rhs
    a1, a2 = singular_values(m)
    return a1 * a1 <= a2 * (1 + 1e-12)


# ---------------------------------------------------------------------------
# Line-system extraction and the backward non-overlapping check
# ---------------------------------------------------------------------------


def x_axis_line_ifs(sys: IfsSystem, weights: BernoulliWeights):
    """Projected first-coordinate system {a_i x + t_i} of a triangular family,
    duplicates merged with summed weights."""
    maps = []
    for f in sys.maps:
        maps.append((f.linear.a11, f.translation[0]))
    return LineIfs(tuple(maps)).merged_duplicates(weights.p)


def direction_line_ifs(sys: IfsSystem, weights: BernoulliWeights):
    """Strong-stable slope system {(a_i/c_i) x - b_i/c_i} of a triangular
    family, duplicates merged with summed weights."""
    maps = []
    for f in sys.maps:
        a, b, c = f.linear.a11, f.linear.a21, f.linear.a22
        one = Fraction(1) if f.linear.is_rational() else 1.0
        maps.append(((a * one) / c, -(b * one) / c))
    return LineIfs(tuple(maps)).merged_duplicates(weights.p)


def _interval_images_disjoint(ifs: LineIfs, tol: float):
    """Backward non-overlapping certificate for a 1-D system: an invariant
    interval with pairwise disjoint open images.

    Exact on rational input (the float hull is padded and rationalized, then
    every inclusion is re-verified in exact arithmetic); float systems get
    the same test with tolerance.
    """
    lo_f, hi_f = ifs.hull()
    pad = max((hi_f - lo_f), 1.0) * 1e-6
    if ifs.is_rational():
        lo = Fraction(lo_f - pad).limit_denominator(10 ** 9)
        hi = Fraction(hi_f + pad).limit_denominator(10 ** 9)
        zero = Fraction(0)
    else:
        lo, hi = lo_f - pad, hi_f + pad
        zero = tol
    images = []
    for b, g in ifs.maps:
        e1, e2 = b * lo + g, b * hi + g
        img = (min(e1, e2), max(e1, e2))
        if img[0] < lo or img[1] > hi:  # not nested: certificate fails
            return False, float(lo), float(hi)
        images.append(img)
    images.sort()
    for (_a1, b1), (a2, _b2) in zip(images, images[1:]):
        if b1 - a2 > zero:  # open overlap; touching endpoints pass
            return False, float(lo), float(hi)
    return True, float(lo), float(hi)


def backward_non_overlapping(
    sys: IfsSystem,
    split: SplitReport,
    backward_cone: Optional[Multicone] = None,
    tol: float = 1e-9,
) -> str:
    """Status of the backward non-overlapping condition.

    Triangular c-dominant systems use the exact 1-D slope-system certificate;
    a-dominant systems always fail (every inverse image contains the vertical
    direction).  Otherwise inverse-image arcs of the backward multicone are
    checked for nesting and pairwise disjointness with tolerance.
    """
    if split.triangular == "ADominant":
        return FAILED
    if split.triangular == "CDominant":
        merged, _ = direction_line_ifs(sys, BernoulliWeights.uniform(sys.n))
        if merged.n == 1:
            return FAILED  # single direction map: all inverse images coincide
        ok, _, _ = _interval_images_disjoint(merged, tol)
        return VERIFIED if ok else FAILED
    if backward_cone is None:
        if split.multicone is None:
            return UNKNOWN
        backward_cone = split.multicone.complement()
    images = []
    for f in sys.maps:
        inv = f.linear.to_float().inverse()
        arcs = []
        for arc in backward_cone.arcs:
            img = arc_image(inv, arc)
            host = backward_cone.containing_arc(img.start)
            if host is None:
                return FAILED
            off = angle_gap(host.start.theta, img.start.theta)
            if off + img.length > host.length + tol:
                return FAILED
            arcs.append(img)
        images.append(arcs)
    for i in range(len(images)):
        for j in range(i + 1, len(images)):
            for a in images[i]:
                for b in images[j]:
                    if _arc_overlap(a, b) > tol:
                        return FAILED
    return VERIFIED


def _arc_overlap(a: ProjArc, b: ProjArc) -> float:
    """Length of the overlap of two arcs (0 when disjoint or just touching)."""
    off = angle_gap(a.start.theta, b.start.theta)
    best = 0.0
    if off <= a.length:
        best = max(best, min(a.length - off, b.length))
    off2 = angle_gap(b.start.theta, a.start.theta)
    if off2 <= b.length:
        best = max(best, min(b.length - off2, a.length))
    return best


def hueter_lalley_check(
    sys: IfsSystem,
    weights: BernoulliWeights,
    cones: Optional[Multicone] = None,
    polygon: Optional[Polygon] = None,
    split: Optional[SplitReport] = None,
    tol: float = 1e-9,
):
    """Statuses of the four projection-theorem hypotheses: dominated
    splitting, backward non-overlapping, the bunching inequality
    alpha1^2 <= alpha2 per generator, and strong separation."""
    if split is None:
        split = certify(sys)
    statuses = {}
    statuses["dominated-splitting"] = (
        VERIFIED if split.certified else (FAILED if split.verdict == "Refuted" else UNKNOWN)
    )
    if split.certified:
        statuses["backward-non-overlapping"] = backward_non_overlapping(
            sys, split, backward_cone=cones, tol=tol
        )
    else:
        statuses["backward-non-overlapping"] = UNKNOWN
    statuses["one-bunched"] = (
        VERIFIED if all(one_bunched(f.linear) for f in sys.maps) else FAILED
    )
    if polygon is None:
        statuses["strong-separation"] = UNKNOWN
    else:
        statuses["strong-separation"] = (
            VERIFIED if check_ssc(sys, polygon).holds else FAILED
        )
    return statuses


# ---------------------------------------------------------------------------
# Empirical estimators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EstimateSeries:
    """Log-log regression data of an empirical dimension estimator."""

    scales: tuple  # strictly decreasing
    counts: tuple  # box counts or correlation integrals per scale
    slope: float
    r2: float

    def __post_init__(self):
        if len(self.scales) < 4:
            raise ValueError("need at least 4 scales")
        if any(a <= b for a, b in zip(self.scales, self.scales[1:])):
            raise ValueError("scales must be strictly decreasing")


def _least_squares(x: np.ndarray, y: np.ndarray) -> Tuple[float, float]:
    xm, ym = x.mean(), y.mean()
    sxx = float(np.sum((x - xm) ** 2))
    sxy = float(np.sum((x - xm) * (y - ym)))
    if sxx == 0.0:
        return 0.0, 1.0
    slope = sxy / sxx
    pred = ym + slope * (x - xm)
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - ym) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else max(0.0, 1.0 - ss_res / ss_tot)
    return slope, r2


def box_dimension_estimate(points: np.ndarray, k_min: int, k_max: int) -> EstimateSeries:
    """Occupied-box counts on the dyadic grids 2^-k, k = k_min..k_max, and the
    least-squares slope of log count against k log 2."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must be an (n, 2) array")
    if pts.shape[0] < 1000:
        raise TooFewPoints(f"need >= 1000 points, got {pts.shape[0]}")
    if not 1 <= k_min < k_max:
        raise ValueError("need k_max > k_min >= 1")
    ks = list(range(k_min, k_max + 1))
    counts = []
    for k in ks:
        cell = np.floor(pts * float(2 ** k)).astype(np.int64)
        key = cell[:, 0] * (2 ** 32) + cell[:, 1]
        counts.append(int(np.unique(key).size))
    x = np.array([k * math.log(2.0) for k in ks])
    y = np.log(np.array(counts, dtype=float))
    slope, r2 = _least_squares(x, y)
    return EstimateSeries(
        scales=tuple(0.5 ** k for k in ks), counts=tuple(counts), slope=slope, r2=r2
    )


def correlation_dimension_estimate(values, radii: Sequence[float]) -> EstimateSeries:
    """Correlation integrals C(r) = fraction of pairs within r and the
    least-squares slope of log C against log r.

    1-D input uses exact sorted pair counting; planar input is capped at 4096
    points (deterministic prefix) with a dense distance matrix.
    """
    radii = sorted(float(r) for r in radii)
    if len(radii) < 4:
        raise ValueError("need at least 4 radii")
    vals = np.asarray(values, dtype=float)
    if vals.ndim == 1:
        n = vals.size
        if n < 1000:
            raise TooFewPoints(f"need >= 1000 samples, got {n}")
        s = np.sort(vals)
        total = n * (n - 1)
        cs = []
        for r in radii:
            within = np.searchsorted(s, s + r, side="right") - np.arange(1, n + 1)
            cs.append(2.0 * float(np.sum(within)) / total)
    elif vals.ndim == 2 and vals.shape[1] == 2:
        n = vals.shape[0]
        if n < 1000:
            raise TooFewPoints(f"need >= 1000 samples, got {n}")
        sub = vals[: min(n, 4096)]
        m = sub.shape[0]
        dx = sub[:, 0][:, None] - sub[:, 0][None, :]
        dy = sub[:, 1][:, None] - sub[:, 1][None, :]
        d2 = dx * dx + dy * dy
        iu = np.triu_indices(m, k=1)
        pair_d2 = d2[iu]
        total = pair_d2.size
        cs = [float(np.count_nonzero(pair_d2 <= r * r)) / total for r in radii]
    else:
        raise ValueError("values must be 1-D or an (n, 2) array")

    xs, ys = [], []
    for r, c in zip(radii, cs):
        if c > 0.0:
            xs.append(math.log(r))
            ys.append(math.log(c))
    if len(xs) >= 2:
        slope, r2 = _least_squares(np.array(xs), np.array(ys))
    else:
        slope, r2 = 0.0, 1.0
    scales = tuple(sorted(radii, reverse=True))
    counts = tuple(c for _, c in sorted(zip(radii, cs), reverse=True))
    return EstimateSeries(scales=scales, counts=counts, slope=slope, r2=r2)


# ---------------------------------------------------------------------------
# The orchestrator
# ---------------------------------------------------------------------------


def build_subsystem(
    sys: IfsSystem, exclude_symbols: Sequence[int], depth: int
) -> IfsSystem:
    """Depth-n composition system with the excluded-symbols word class
    removed: maps f_w for w in S^depth minus E^depth."""
    exclude = set(exclude_symbols)
    words = [()]
    for _ in range(depth):
        words = [w + (i,) for w in words for i in range(1, sys.n + 1)]
    kept = [w for w in words if not all(s in exclude for s in w)]
    label = (sys.label or "system") + f"-sub{depth}"
    return IfsSystem(tuple(compose_word(sys, w) for w in kept), label=label)


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


@dataclass
class _Ctx:
    """Shared per-system computations, weight-independent where possible."""

    sys: IfsSystem
    split: SplitReport
    ssc: Optional[object]
    pressure: object
    hochman_x: Optional[DeltaReport] = None
    hochman_dir: Optional[DeltaReport] = None
    details: list = field(default_factory=list)


def _hochman_depth_for(n_maps: int, requested: Optional[int]) -> int:
    cap_depth = max(2, int(math.log(1e5) / math.log(max(n_maps, 2))))
    if requested is None:
        return min(8, cap_depth)
    return max(2, min(requested, cap_depth))


def analyze(
    sys: IfsSystem,
    weights: Optional[BernoulliWeights] = None,
    polygon: Optional[Polygon] = None,
    forward_cone: Optional[Multicone] = None,
    backward_cone: Optional[Multicone] = None,
    hochman_depth: Optional[int] = None,
    mc_n: int = 1000,
    mc_trials: int = 1000,
    rng_seed: int = 0,
    pressure_schedule: Optional[Sequence[int]] = None,
    target: str = "measure",
    tol: float = 1e-9,
    family_closed_form: Optional[Tuple[str, float]] = None,
) -> DimensionReport:
    """Run the full decision procedure and assemble a DimensionReport.

    ``target`` "measure" certifies the self-affine measure for the given
    weights (uniform by default); "attractor" additionally tries the
    theorem-prescribed weight vectors and closes the pressure sandwich.
    """
    from .pressure import pressure_root, triangular_pressure_root, triangular_roots

    if target not in ("measure", "attractor"):
        raise ValueError("target must be 'measure' or 'attractor'")
    if weights is None:
        weights = BernoulliWeights.uniform(sys.n)

    split = certify(sys, multicone=forward_cone)
    ssc = check_ssc(sys, polygon) if polygon is not None else None
    pressure = pressure_root(sys, pressure_schedule)

    ctx = _Ctx(sys=sys, split=split, ssc=ssc, pressure=pressure)
    d = ctx.details
    if sys.label:
        d.append(("label", sys.label))
    d.append(("n-maps", str(sys.n)))
    d.append(("split-verdict", split.verdict))
    if split.method:
        d.append(("split-method", split.method))
    if split.triangular:
        d.append(("split-triangular", split.triangular))
    d.append(("split-margin", _fmt(split.margin)))
    if ssc is not None:
        d.append(("ssc-holds", "true" if ssc.holds else "false"))
        d.append(("ssc-kappa", _fmt(ssc.kappa)))
        d.append(("ssc-margin", _fmt(ssc.margin)))
    else:
        d.append(("ssc-holds", "unchecked (no polygon)"))
    d.append(("pressure-root-upper", _fmt(pressure.s_upper)))
    d.append(("pressure-root-estimate", _fmt(pressure.s_extrapolated)))
    d.append(
        ("pressure-history", " ".join(f"{n}:{_fmt(r)}" for n, r in pressure.history))
    )
    if pressure.dropped:
        d.append(("pressure-depths-dropped", " ".join(str(n) for n in pressure.dropped)))
    if split.triangular in ("ADominant", "CDominant"):
        s1, s2 = triangular_roots(sys)
        closed_root = triangular_pressure_root(sys)
        d.append(("triangular-s1", _fmt(s1)))
        d.append(("triangular-s2", _fmt(s2)))
        d.append(("triangular-pressure-root", _fmt(closed_root)))
    if family_closed_form is not None:
        name, value = family_closed_form
        d.append((name, _fmt(value)))

    if target == "measure":
        return _measure_report(
            ctx, weights, hochman_depth, mc_n, mc_trials, rng_seed, tol, backward_cone
        )
    return _attractor_report(
        ctx, weights, hochman_depth, mc_n, mc_trials, rng_seed, tol, backward_cone
    )


def _exponents(ctx: _Ctx, weights, mc_n, mc_trials, rng_seed) -> ExponentTriple:
    if ctx.sys.is_triangular():
        return lyapunov_triangular(ctx.sys, weights)
    return lyapunov_monte_carlo(ctx.sys, weights, mc_n, mc_trials, rng_seed)


def _measure_report(ctx, weights, hochman_depth, mc_n, mc_trials, rng_seed, tol,
                    backward_cone=None):
    sys = ctx.sys
    split, ssc, pressure = ctx.split, ctx.ssc, ctx.pressure
    details = list(ctx.details)
    hyps = []
    assumptions = []

    t = _exponents(ctx, weights, mc_n, mc_trials, rng_seed)
    dim_lyap = lyapunov_dimension(t)
    details.append(("weights", " ".join(_fmt(float(p)) for p in weights.p)))
    details.append(("entropy", _fmt(t.entropy)))
    details.append(("chi-s", _fmt(t.chi_s)))
    details.append(("chi-ss", _fmt(t.chi_ss)))
    if t.stderr_s:
        details.append(("stderr-chi-s", _fmt(t.stderr_s)))
        assumptions.append("exponents estimated by Monte Carlo")
    details.append(("lyapunov-dimension", _fmt(dim_lyap)))

    upper = min(2.0, dim_lyap, pressure.s_upper)

    split_status = (
        VERIFIED if split.certified else (FAILED if split.verdict == "Refuted" else UNKNOWN)
    )
    ssc_status = UNKNOWN if ssc is None else (VERIFIED if ssc.holds else FAILED)
    hyps.append(("dominated-splitting", split_status))
    hyps.append(("strong-separation", ssc_status))

    def report(fired, value, interval, extra_hyps=()):
        return DimensionReport(
            target="measure",
            certified_value=value,
            certified_interval=interval,
            fired_theorem=fired,
            hypotheses=tuple(hyps) + tuple(extra_hyps),
            assumptions=tuple(assumptions),
            details=tuple(details),
        )

    # step 2: both structural hypotheses needed for everything beyond bounds
    if split_status != VERIFIED or ssc_status != VERIFIED:
        return report(T_PRESSURE, None, (0.0, upper))

    # step 3: triangular a-dominant -- transversal measure is self-similar
    if split.triangular == "ADominant":
        merged_x, merged_wx = x_axis_line_ifs(sys, weights)
        depth = _hochman_depth_for(merged_x.n, hochman_depth)
        ctx.hochman_x = hochman_rate(merged_x, depth)
        details.append(("hochman-x-verdict", ctx.hochman_x.verdict))
        h_m = float(-sum(float(w) * math.log(float(w)) for w in merged_wx))
        details.append(("transversal-entropy", _fmt(h_m)))
        if ctx.hochman_x.verdict == "TrendBounded":
            hochman_status = TREND
            assumptions.append(
                f"separation trend of the projected line system certified to depth {depth} only"
            )
            dim_t = min(1.0, h_m / t.chi_s)
            details.append(("transversal-dimension", _fmt(dim_t)))
            value = ly_dimension_formula(t.entropy, t.chi_s, t.chi_ss, dim_t)
            hyps.append(("hochman-x", hochman_status))
            equal = min(1.0, dim_lyap) <= dim_t + 1e-12
            hyps.append(("transversal-saturates", VERIFIED if equal else FAILED))
            return report(T_ADOM, value, (value, value))
        hyps.append(
            ("hochman-x", FAILED if ctx.hochman_x.verdict == "ExactOverlap" else UNKNOWN)
        )
        lower = t.entropy / t.chi_ss
        return report(T_LY, None, (lower, upper))

    # steps 4-5: strong-stable direction routes
    bno_status = backward_non_overlapping(sys, split, backward_cone=backward_cone, tol=tol)
    hyps.append(("backward-non-overlapping", bno_status))

    nu_dim_closed = None
    h_dir = t.entropy
    if split.triangular == "CDominant":
        merged_dir, merged_wdir = direction_line_ifs(sys, weights)
        depth = _hochman_depth_for(merged_dir.n, hochman_depth)
        ctx.hochman_dir = hochman_rate(merged_dir, depth)
        details.append(("hochman-direction-verdict", ctx.hochman_dir.verdict))
        h_dir = float(-sum(float(w) * math.log(float(w)) for w in merged_wdir))
    if t.chi_ss > t.chi_s:
        nu_dim_closed = h_dir / (t.chi_ss - t.chi_s)
        details.append(("nu-ss-dimension", _fmt(nu_dim_closed)))

    # 5a: all four cone/bunching/separation hypotheses at once
    if bno_status == VERIFIED:
        bunched = all(one_bunched(f.linear) for f in sys.maps)
        hyps.append(("one-bunched", VERIFIED if bunched else FAILED))
        if bunched:
            value = min(t.entropy / t.chi_s, 1.0)
            if t.stderr_s:
                assumptions.append("certified value evaluated with Monte-Carlo exponents")
            return report(T_HL, value, (value, value))

    # 5b: closed-form direction dimension via separation of the inverse system
    if bno_status == VERIFIED and nu_dim_closed is not None:
        if min(1.0, nu_dim_closed) >= min(1.0, dim_lyap) - 1e-12:
            hyps.append(("nu-ss-saturates", VERIFIED))
            return report(T_PROJECTION, dim_lyap, (dim_lyap, dim_lyap))
        hyps.append(("nu-ss-saturates", FAILED))

    # 5c: paired lower-bound condition
    if bno_status == VERIFIED and nu_dim_closed is not None:
        lower_iter = lower_bound_iteration(t.entropy, t.chi_s, t.chi_ss)
        details.append(("lower-bound-iteration", _fmt(lower_iter)))
        cond4 = nu_dim_closed + lower_iter
        details.append(("condition4-lhs", _fmt(cond4)))
        details.append(("condition4-threshold", "2"))
        if cond4 > 2.0:
            hyps.append(("condition4", VERIFIED))
            value = min(2.0, 1.0 + (t.entropy - t.chi_s) / t.chi_ss)
            return report(T_APP, value, (value, value))
        hyps.append(("condition4", FAILED))

    # 5d: trend-gated direction dimension (triangular c-dominant)
    if (
        split.triangular == "CDominant"
        and ctx.hochman_dir is not None
        and ctx.hochman_dir.verdict == "TrendBounded"
        and nu_dim_closed is not None
        and bno_status != VERIFIED
    ):
        if min(1.0, nu_dim_closed) >= min(1.0, dim_lyap) - 1e-12:
            hyps.append(("hochman-direction", TREND))
            assumptions.append(
                "separation trend of the direction system certified to finite depth only"
            )
            return report(T_CDOM, dim_lyap, (dim_lyap, dim_lyap))

    # 5e: empirical direction dimension, trend-gated
    if bno_status != VERIFIED and split.certified:
        angles = sample_nu_ss_angles(sys, weights, None, 4000, rng_seed, split)
        radii = [2.0 ** -k for k in range(3, 11)]
        try:
            series = correlation_dimension_estimate(angles, radii)
            details.append(("nu-ss-empirical-slope", _fmt(series.slope)))
            lower_ly = t.entropy / t.chi_ss
            if series.slope + lower_ly > 2.0 and dim_lyap > 1.0:
                hyps.append(("nu-ss-dimension-empirical", TREND))
                assumptions.append("direction dimension estimated empirically")
                value = min(2.0, 1.0 + (t.entropy - t.chi_s) / t.chi_ss)
                return report(T_FK, value, (value, value))
        except TooFewPoints:
            pass

    # step 6: interval fallback
    lower = t.entropy / t.chi_ss
    fired = T_LY
    if bno_status == VERIFIED:
        lower_iter = lower_bound_iteration(t.entropy, t.chi_s, t.chi_ss)
        if lower_iter > lower:
            lower = lower_iter
            fired = T_LOWER
    return report(fired, None, (min(lower, upper), upper))


def _prescribed_weight_candidates(sys: IfsSystem, split: SplitReport):
    """Theorem-prescribed Bernoulli vectors for the attractor lower bound."""
    from .pressure import triangular_roots

    cands = []
    if split.triangular in ("ADominant", "CDominant"):
        s1, s2 = triangular_roots(sys)
        A = sys.linear_array
        a = np.abs(A[:, 0, 0])
        c = np.abs(A[:, 1, 1])
        if split.triangular == "CDominant":
            a, c = c, a
        w1 = a ** s1
        w2 = a * c ** (s2 - 1.0)
        for w in (w1, w2):
            w = w / w.sum()
            cands.append(BernoulliWeights(tuple(float(x) for x in w)))
    return cands


def _attractor_report(ctx, weights, hochman_depth, mc_n, mc_trials, rng_seed, tol,
                      backward_cone=None):
    from .pressure import triangular_pressure_root

    sys, split, pressure = ctx.sys, ctx.split, ctx.pressure
    if split.triangular in ("ADominant", "CDominant"):
        upper = min(2.0, triangular_pressure_root(sys))
        upper_exact = True
    else:
        upper = min(2.0, pressure.s_upper)
        upper_exact = False

    candidates = [weights] + _prescribed_weight_candidates(sys, split)
    best = None
    best_lower = -math.inf
    for w in candidates:
        rep = _measure_report(ctx, w, hochman_depth, mc_n, mc_trials, rng_seed, tol,
                              backward_cone)
        lo = rep.certified_value if rep.certified_value is not None else rep.certified_interval[0]
        if lo > best_lower:
            best_lower = lo
            best = rep
    best_lower = max(best_lower, 0.0)

    details = list(best.details)
    details.append(("attractor-upper-bound", _fmt(upper)))
    details.append(("attractor-upper-exact", "true" if upper_exact else "false"))
    details.append(("attractor-lower-bound", _fmt(best_lower)))
    hyps = list(best.hypotheses)
    assumptions = list(best.assumptions)

    certified = None
    fired = best.fired_theorem
    if best.certified_value is not None and abs(upper - best_lower) < SANDWICH_TOL:
        certified = best_lower
        if upper_exact:
            hyps.append(("pressure-sandwich", VERIFIED))
        else:
            hyps.append(("pressure-sandwich", TREND))
            assumptions.append("upper bound from finite-depth pressure root")
    lower = min(best_lower, upper)
    return DimensionReport(
        target="attractor",
        certified_value=certified,
        certified_interval=(lower, upper) if certified is None else (certified, certified),
        fired_theorem=fired,
        hypotheses=tuple(hyps),
        assumptions=tuple(assumptions),
        details=tuple(details),
    )
