"""The theorem engine: evaluates the entropy/exponent dimension formulas,
checks each theorem's hypotheses, and combines them into a certified report.

Every measure report starts from the exponents, the Lyapunov dimension and
the pressure root.  The exponents of a triangular system are exact, those of
any other certified system come from the Furstenberg enclosure over the
certificate's multicone (``chi-s-enclosure``), and the rest from Monte Carlo
(``ergodic.lyapunov_exponents``).  The root of a dominated triangular system
comes from the exact closed form (``pressure-method: closed-form``), that of
any other system from finite-depth roots along the schedule
(``pressure-history``).
The report is then that of the first rule of ``_RULES`` that fires, tried in
this order, with the theorem labels each rule can fire:

- bounds-only (PressureUpperBound): without certified dominated splitting
  and strong separation only the pressure/Lyapunov upper bounds are reported;
- a-dominant (T4.2-ADominant, T2.6-LY-formula): triangular a-dominant systems
  go through the projected x-axis system (exact-overlap aware), whose
  transversal measure is self-similar;
- direction data (none): states backward non-overlapping, and for triangular
  c-dominant systems the separation of the strong-stable direction system;
- Hueter-Lalley (T4.1-HueterLalley): backward non-overlapping and bunching,
  tried first for c-dominant systems too; with enclosed exponents the value
  h/chi_s is certified only when the enclosure pins it within
  ``SANDWICH_TOL``, else the report gives its interval;
- projection (T2.8-projection): the closed-form direction dimension
  saturates (exact when the direction system separates);
- condition4 (T4.5-app): the paired lower-bound condition;
- direction trend (T4.2-CDominant): the separation-trend route;
- empirical direction (T2.9-Falconer-Kempton): the empirical direction
  estimate as a last trend-gated resort;
- interval (T2.6-LY-formula, Lemma4.9-LowerBound): never silently: every
  downgrade is a hypothesis status in the report.

Certified values never exceed the pressure-root upper bound; trend-gated
hypotheses are listed under assumptions, exact ones as Verified.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence, Tuple

from ._numpy import np
from ._record import record
from .errors import BadExponents, TooFewPoints
from .ergodic import ExponentTriple, entropy, lyapunov_dimension, lyapunov_exponents
from .hochman import DeltaReport, LineIfs, direction_line_ifs, hochman_rate, x_axis_line_ifs
from .ifs import (BernoulliWeights, EstimateSeries, IfsSystem, Polygon, SscReport,
                  _least_squares, abs_diagonals, check_ssc, compose_word, format_number)
from .ifs import box_dimension_estimate  # noqa: F401  -- only for perfbench's span of this name
from .linalg2 import Mat2
from .pressure import (RootEstimate, ordered_sum, pressure_root, triangular_pressure_root,
                       triangular_roots)
from .splitting import SplitReport, certify, nest, sample_nu_ss_angles

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
# slack of the float backward non-overlapping tests: nesting and overlap
OVERLAP_TOL = 1e-9


@record
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
        value = self.certified_value
        lines.append(f"certified-value: {'none' if value is None else repr(value)}")
        lo, hi = self.certified_interval
        lines.append(f"certified-interval: [{lo!r}, {hi!r}]")
        lines.extend(f"assumption: {a}" for a in self.assumptions or ("none",))
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


def lower_bound_iteration(h: float, chi_s: float, chi_ss: float) -> float:
    """Limit min{2h/chi_ss, h/chi_s} of the fixed-point iteration
    x -> h/chi_ss + (1 - chi_s/chi_ss) min{h/(chi_ss-chi_s), x} from
    x0 = h/chi_ss: the fixed point h/chi_s when it lies below the cap
    h/(chi_ss-chi_s) (chi_ss <= 2 chi_s), else the capped value 2h/chi_ss."""
    if not (0 < chi_s <= chi_ss):
        raise BadExponents(f"need 0 < chi_s <= chi_ss, got {chi_s}, {chi_ss}")
    return min(2.0 * h / chi_ss, h / chi_s)


def one_bunched(m: Mat2) -> bool:
    """alpha1(m)^2 <= alpha2(m), exactly: float entries are read as the
    binary rationals they are.

    With alpha1^2 = (T + sqrt(T^2 - 4 D^2))/2 the inequality is equivalent to
    (3T^2 + Delta) sqrt(Delta) <= 8 D^2 - T^3 - 3 T Delta, which squares to a
    rational comparison.
    """
    a, b, c, d = (Fraction(e) for e in m.entries())
    t = a * a + b * b + c * c + d * d
    det2 = (a * d - b * c) ** 2
    delta = max(t * t - 4 * det2, 0)
    rhs = 8 * det2 - t ** 3 - 3 * t * delta
    return rhs >= 0 and delta * (3 * t * t + delta) ** 2 <= rhs * rhs


# ---------------------------------------------------------------------------
# The backward non-overlapping check
# ---------------------------------------------------------------------------


def _interval_images_disjoint(ifs: LineIfs) -> bool:
    """Backward non-overlapping certificate for a 1-D system: an invariant
    interval with pairwise disjoint open images.

    Exact: the float hull is padded and rationalized, then every inclusion
    is verified in the system's Fractions.
    """
    lo_f, hi_f = ifs.hull()
    pad = max((hi_f - lo_f), 1.0) * 1e-6
    lo = Fraction(lo_f - pad).limit_denominator(10 ** 9)
    hi = Fraction(hi_f + pad).limit_denominator(10 ** 9)
    images = []
    for b, g in ifs.maps:
        e1, e2 = b * lo + g, b * hi + g
        img = (min(e1, e2), max(e1, e2))
        if img[0] < lo or img[1] > hi:  # not nested: certificate fails
            return False
        images.append(img)
    images.sort()
    # an open overlap fails; touching endpoints pass
    return not any(b1 > a2 for (_a1, b1), (a2, _b2) in zip(images, images[1:]))


def backward_non_overlapping(sys: IfsSystem, split: SplitReport) -> str:
    """Status of the backward non-overlapping condition.

    Triangular c-dominant systems use the exact 1-D slope-system certificate;
    a-dominant systems always fail (every inverse image contains the vertical
    direction).  Otherwise two maps that share a linear part fail under every
    cone; else the inverse-image arcs of the certificate's backward cone must
    nest in it and be pairwise disjoint with slack ``OVERLAP_TOL``, or the
    status is Unknown, since another cone may pass.
    """
    if split.triangular == "ADominant":
        return FAILED
    if split.triangular == "CDominant":
        merged, _ = direction_line_ifs(sys, BernoulliWeights.uniform(sys.n))
        if merged.n == 1:
            return FAILED  # single direction map: all inverse images coincide
        return VERIFIED if _interval_images_disjoint(merged) else FAILED
    if len(sys.symbols) < sys.n:
        return FAILED
    images, clearance = nest((f.linear.to_float().inverse() for f in sys.maps),
                             split.backward_cone)
    if not clearance >= -OVERLAP_TOL:
        return UNKNOWN
    for arcs_i, arcs_j in combinations(images, 2):
        if any(a.overlap(b) > OVERLAP_TOL for a in arcs_i for b in arcs_j):
            return UNKNOWN
    return VERIFIED


def hueter_lalley_check(
    sys: IfsSystem,
    ssc: Optional[SscReport] = None,
    split: Optional[SplitReport] = None,
):
    """Statuses of the four projection-theorem hypotheses: dominated
    splitting, backward non-overlapping, the bunching inequality
    alpha1^2 <= alpha2 per generator, and strong separation (``ssc``, the
    report of ``check_ssc``; Unknown without one).  The only place that
    decides them: ``analyze`` reads its T4.1 statuses from here."""
    if split is None:
        split = certify(sys)
    return {
        "dominated-splitting": (VERIFIED if split.certified
                                else FAILED if split.verdict == "Refuted" else UNKNOWN),
        "backward-non-overlapping": (backward_non_overlapping(sys, split) if split.certified
                                     else UNKNOWN),
        "one-bunched": VERIFIED if all(one_bunched(f.linear) for f in sys.maps) else FAILED,
        "strong-separation": UNKNOWN if ssc is None else VERIFIED if ssc.holds else FAILED,
    }


# ---------------------------------------------------------------------------
# Empirical estimators
# ---------------------------------------------------------------------------


def correlation_dimension_estimate(values, radii: Sequence[float]) -> EstimateSeries:
    """Correlation integrals C(r) = fraction of pairs within r of 1-D
    samples (angles), by exact sorted pair counting, and the least-squares
    slope of log C against log r."""
    radii = sorted(float(r) for r in radii)
    if len(radii) < 4:
        raise ValueError("need at least 4 radii")
    vals = np.asarray(values, dtype=float)
    if vals.ndim != 1:
        raise ValueError("values must be a 1-D array")
    n = vals.shape[0]
    if n < 1000:
        raise TooFewPoints(f"need >= 1000 samples, got {n}")
    s = np.sort(vals)
    total = n * (n - 1)
    cs = []
    for r in radii:
        within = np.searchsorted(s, s + r, side="right") - np.arange(1, n + 1)
        cs.append(2.0 * float(np.sum(within)) / total)

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


@record
class _Ctx:
    """What one analyze command fixes and computes once: its options, the
    weight-independent certificates, hypothesis statuses, pressure data and
    detail lines, and every Delta_n table, exponent triple and measure report
    its targets ask for, each keyed by what varies (the line system and
    depth, or the weights)."""

    sys: IfsSystem
    split: SplitReport
    ssc: Optional[SscReport]
    pressure: RootEstimate
    triangular_roots: Optional[Tuple[float, float]]  # (s1, s2) when dominated
    statuses: dict  # the T4.1 statuses of ``hueter_lalley_check``
    hochman_depth: Optional[int]
    mc_n: int
    mc_trials: int
    rng_seed: int
    details: list  # the shared detail lines, appended to in order
    memo: dict  # (stage, *inputs) -> result

    def _once(self, key, build):
        if key not in self.memo:
            self.memo[key] = build()
        return self.memo[key]

    def delta_report(self, ifs: LineIfs, depth: int) -> DeltaReport:
        return self._once(("delta", ifs.maps, depth), lambda: hochman_rate(ifs, depth))

    def exponents(self, weights) -> ExponentTriple:
        # symbol stream 2: _empirical_direction samples e_ss from stream 0
        return self._once(("exponents", weights.p), lambda: lyapunov_exponents(
            self.sys, weights, self.mc_n, self.mc_trials, self.rng_seed, self.split, stream=2))

    def measure_report(self, weights) -> DimensionReport:
        return self._once(("measure", weights.p), lambda: _measure_report(self, weights))


def analyze(sys: IfsSystem, weights: Optional[BernoulliWeights] = None, *,
            target: str = "measure", **options) -> DimensionReport:
    """Run the full decision procedure and assemble a DimensionReport.

    ``target`` "measure" certifies the self-affine measure for the given
    weights (uniform by default); "attractor" additionally tries the
    theorem-prescribed weight vectors and closes the pressure sandwich.
    ``options`` are the keywords of ``analyze_targets``.
    """
    (report,) = analyze_targets(sys, (target,), weights, **options)
    return report


def analyze_targets(
    sys: IfsSystem,
    targets: Sequence[str],
    weights: Optional[BernoulliWeights] = None,
    polygon: Optional[Polygon] = None,
    hochman_depth: Optional[int] = None,
    mc_n: int = 1000,
    mc_trials: int = 1000,
    rng_seed: int = 0,
    pressure_schedule: Optional[Sequence[int]] = None,
    family_closed_form: Optional[Tuple[str, float]] = None,
) -> tuple:
    """One report per target, in order, as ``analyze`` would give each.

    The splitting certificate, the SSC check, the pressure root, the shared
    detail lines, every Delta_n table, every exponent triple and every
    measure report are computed once and shared by all targets.

    Dominated triangular systems take the pressure root from the exact
    closed form (``pressure-method: closed-form``); every other system runs
    ``pressure_root`` along ``pressure_schedule`` (``pressure-history``).
    """
    for target in targets:
        if target not in ("measure", "attractor"):
            raise ValueError("target must be 'measure' or 'attractor'")
    if weights is None:
        weights = BernoulliWeights.uniform(sys.n)

    split = certify(sys)
    ssc = check_ssc(sys, polygon) if polygon is not None else None
    roots = None
    if split.triangular in ("ADominant", "CDominant"):
        roots = triangular_roots(sys)
        pressure = RootEstimate.closed_form(triangular_pressure_root(sys, roots))
    else:
        pressure = pressure_root(sys, pressure_schedule)

    ctx = _Ctx(sys=sys, split=split, ssc=ssc, pressure=pressure, triangular_roots=roots,
               statuses=hueter_lalley_check(sys, ssc, split),
               hochman_depth=hochman_depth, mc_n=mc_n, mc_trials=mc_trials,
               rng_seed=rng_seed, details=[], memo={})
    d = ctx.details
    if sys.label:
        d.append(("label", sys.label))
    d.append(("n-maps", str(sys.n)))
    d.append(("split-verdict", split.verdict))
    if split.method:
        d.append(("split-method", split.method))
    if split.triangular:
        d.append(("split-triangular", split.triangular))
    d.append(("split-margin", format_number(split.margin)))
    if ssc is not None:
        d.append(("ssc-holds", "true" if ssc.holds else "false"))
        d.append(("ssc-kappa", format_number(ssc.kappa)))
        d.append(("ssc-margin", format_number(ssc.margin)))
    else:
        d.append(("ssc-holds", "unchecked (no polygon)"))
    d.append(("pressure-root-upper", format_number(pressure.s_upper)))
    d.append(("pressure-root-estimate", format_number(pressure.s_extrapolated)))
    if pressure.method == "closed-form":
        d.append(("pressure-method", pressure.method))
    else:
        history = " ".join(f"{n}:{format_number(r)}" for n, r in pressure.history)
        d.append(("pressure-history", history))
    if pressure.dropped:
        d.append(("pressure-depths-dropped", " ".join(str(n) for n in pressure.dropped)))
    if roots is not None:
        d.append(("triangular-s1", format_number(roots[0])))
        d.append(("triangular-s2", format_number(roots[1])))
        d.append(("triangular-pressure-root", format_number(pressure.s_upper)))
    if family_closed_form is not None:
        name, value = family_closed_form
        d.append((name, format_number(value)))

    return tuple(
        ctx.measure_report(weights) if target == "measure"
        else _attractor_report(ctx, weights)
        for target in targets
    )


class _ReportState:
    """One measure report in the making: every rule reads it and appends its
    detail lines, hypotheses and assumptions to it, and the rule that fires
    builds the report from it.  A plain class: nothing compares or prints it."""

    def __init__(self, ctx: _Ctx, weights: BernoulliWeights, t: ExponentTriple, details: list):
        self.ctx, self.weights, self.t, self.details = ctx, weights, t, details
        self.dim_lyap = lyapunov_dimension(t)
        self.hyps, self.assumptions = [], []
        self.nu_dim = None  # closed-form direction dimension
        self.hochman_dir = None  # c-dominant direction system separation

    @property
    def upper(self) -> float:
        return min(2.0, self.dim_lyap, self.ctx.pressure.s_upper)

    @property
    def h_over_chi_ss(self) -> float:
        return self.t.entropy / self.t.chi_ss

    @property
    def paired_value(self) -> float:
        """min{2, 1 + (h - chi_s)/chi_ss}, the value of the paired theorems."""
        return min(2.0, 1.0 + (self.t.entropy - self.t.chi_s) / self.t.chi_ss)

    @property
    def separated(self) -> bool:
        return self.ctx.statuses["backward-non-overlapping"] == VERIFIED

    def saturates(self, dim: float) -> bool:
        """Does a transversal or direction dimension reach min(1, dim_Lyap)?"""
        return min(1.0, dim) >= min(1.0, self.dim_lyap) - 1e-12

    def status(self, name: str) -> str:
        """Append the T4.1 status ``name`` as a hypothesis and return it."""
        status = self.ctx.statuses[name]
        self.hyps.append((name, status))
        return status

    def check(self, name: str, ok: bool) -> bool:
        self.hyps.append((name, VERIFIED if ok else FAILED))
        return ok

    def line_separation(self, line_ifs, verdict_key: str):
        """(depth, Delta_n report, merged entropy) of the line system that
        ``line_ifs`` derives, duplicates merged, at a depth whose N^n stays
        near 1e5 words; the verdict becomes the detail ``verdict_key`` and a
        clipped explicit depth request is named."""
        merged, merged_w = line_ifs(self.ctx.sys, self.weights)
        requested = self.ctx.hochman_depth
        cap_depth = max(2, int(math.log(1e5) / math.log(max(merged.n, 2))))
        depth = min(8, cap_depth) if requested is None else max(2, min(requested, cap_depth))
        if requested is not None and depth != requested:
            self.details.append(("hochman-depth-clipped", f"{requested} -> {depth}"))
        report = self.ctx.delta_report(merged, depth)
        self.details.append((verdict_key, report.verdict))
        return depth, report, entropy(BernoulliWeights(merged_w))

    def fire(self, theorem: str, value: Optional[float], interval=None) -> DimensionReport:
        return DimensionReport(
            target="measure",
            certified_value=value,
            certified_interval=(value, value) if interval is None else interval,
            fired_theorem=theorem,
            hypotheses=tuple(self.hyps),
            assumptions=tuple(self.assumptions),
            details=tuple(self.details),
        )


def _measure_report(ctx: _Ctx, weights: BernoulliWeights) -> DimensionReport:
    """The report of the first rule of ``_RULES`` that fires."""
    t = ctx.exponents(weights)
    st = _ReportState(ctx, weights, t, list(ctx.details))
    st.details.append(("weights", " ".join(format_number(float(p)) for p in weights.p)))
    st.details.append(("entropy", format_number(t.entropy)))
    st.details.append(("chi-s", format_number(t.chi_s)))
    st.details.append(("chi-ss", format_number(t.chi_ss)))
    if t.stderr_s:
        st.details.append(("stderr-chi-s", format_number(t.stderr_s)))
        st.assumptions.append("exponents estimated by Monte Carlo")
    if t.enclosure is not None:
        st.details.append(("chi-s-enclosure", f"[{t.enclosure.lo!r}, {t.enclosure.hi!r}]"))
        st.details.append(("chi-s-enclosure-depth", str(t.enclosure.depth)))
    st.details.append(("lyapunov-dimension", format_number(st.dim_lyap)))
    for rule in _RULES:
        report = rule(st)
        if report is not None:
            return report


def _bounds_only(st: _ReportState):
    split = st.status("dominated-splitting")
    ssc = st.status("strong-separation")
    if split != VERIFIED or ssc != VERIFIED:
        return st.fire(T_PRESSURE, None, (0.0, st.upper))


def _a_dominant(st: _ReportState):
    if st.ctx.split.triangular != "ADominant":
        return None
    depth, hochman_x, h_x = st.line_separation(x_axis_line_ifs, "hochman-x-verdict")
    st.details.append(("transversal-entropy", format_number(h_x)))
    if hochman_x.verdict != "TrendBounded":
        st.hyps.append(("hochman-x", FAILED if hochman_x.verdict == "ExactOverlap" else UNKNOWN))
        return st.fire(T_LY, None, (st.h_over_chi_ss, st.upper))
    st.assumptions.append(
        f"separation trend of the projected line system certified to depth {depth} only"
    )
    t = st.t
    dim_t = min(1.0, h_x / t.chi_s)
    st.details.append(("transversal-dimension", format_number(dim_t)))
    st.hyps.append(("hochman-x", TREND))
    st.check("transversal-saturates", st.saturates(dim_t))
    return st.fire(T_ADOM, ly_dimension_formula(t.entropy, t.chi_s, t.chi_ss, dim_t))


def _direction_data(st: _ReportState):
    """Decides nothing: states the backward non-overlapping status and sets
    the direction data that the rules after it read."""
    st.status("backward-non-overlapping")
    h_dir = st.t.entropy
    if st.ctx.split.triangular == "CDominant":
        _, st.hochman_dir, h_dir = st.line_separation(direction_line_ifs,
                                                      "hochman-direction-verdict")
    if st.t.chi_ss > st.t.chi_s:  # a measure on the projective line: at most 1
        st.nu_dim = min(1.0, h_dir / (st.t.chi_ss - st.t.chi_s))
        st.details.append(("nu-ss-dimension", format_number(st.nu_dim)))


def _hueter_lalley(st: _ReportState):
    if st.separated and st.status("one-bunched") == VERIFIED:
        t = st.t
        if t.enclosure is not None:  # a value only when the enclosure pins h/chi_s
            lo, hi = (min(t.entropy / c, 1.0) for c in (t.enclosure.hi, t.enclosure.lo))
            if not hi - lo < SANDWICH_TOL:
                return st.fire(T_HL, None, (lo, hi))
        elif t.stderr_s:
            st.assumptions.append("certified value evaluated with Monte-Carlo exponents")
        return st.fire(T_HL, min(t.entropy / t.chi_s, 1.0))


def _projection(st: _ReportState):
    if st.separated and st.nu_dim is not None:
        if st.check("nu-ss-saturates", st.saturates(st.nu_dim)):
            return st.fire(T_PROJECTION, st.dim_lyap)


def _condition4(st: _ReportState):
    if st.separated and st.nu_dim is not None:
        lower_iter = lower_bound_iteration(st.t.entropy, st.t.chi_s, st.t.chi_ss)
        cond4 = st.nu_dim + lower_iter
        st.details.append(("lower-bound-iteration", format_number(lower_iter)))
        st.details.append(("condition4-lhs", format_number(cond4)))
        st.details.append(("condition4-threshold", "2"))
        if st.check("condition4", cond4 > 2.0):
            return st.fire(T_APP, st.paired_value)


def _direction_trend(st: _ReportState):
    """Backward non-overlapping needs no check: with it, the projection rule
    has already fired on a saturating direction dimension."""
    trend = st.hochman_dir is not None and st.hochman_dir.verdict == "TrendBounded"
    if trend and st.nu_dim is not None and st.saturates(st.nu_dim):
        st.hyps.append(("hochman-direction", TREND))
        st.assumptions.append(
            "separation trend of the direction system certified to finite depth only"
        )
        return st.fire(T_CDOM, st.dim_lyap)


def _empirical_direction(st: _ReportState):
    if st.separated:
        return None
    ctx = st.ctx
    angles = sample_nu_ss_angles(ctx.sys, st.weights, None, 4000, ctx.rng_seed, ctx.split)
    series = correlation_dimension_estimate(angles, [2.0 ** -k for k in range(3, 11)])
    st.details.append(("nu-ss-empirical-slope", format_number(series.slope)))
    if series.slope + st.h_over_chi_ss > 2.0 and st.dim_lyap > 1.0:
        st.hyps.append(("nu-ss-dimension-empirical", TREND))
        st.assumptions.append("direction dimension estimated empirically")
        return st.fire(T_FK, st.paired_value)


def _interval(st: _ReportState):
    lower, fired = st.h_over_chi_ss, T_LY
    if st.separated:
        lower_iter = lower_bound_iteration(st.t.entropy, st.t.chi_s, st.t.chi_ss)
        if lower_iter > lower:
            lower, fired = lower_iter, T_LOWER
    return st.fire(fired, None, (min(lower, st.upper), st.upper))


# the precedence list of the module docstring
_RULES = (_bounds_only, _a_dominant, _direction_data, _hueter_lalley, _projection,
          _condition4, _direction_trend, _empirical_direction, _interval)


def _prescribed_weight_candidates(ctx: _Ctx):
    """Theorem-prescribed Bernoulli vectors for the attractor lower bound."""
    cands = []
    if ctx.triangular_roots is not None:
        s1, s2 = ctx.triangular_roots
        a, c = abs_diagonals(ctx.sys)  # the dominant diagonal first
        for w in ([x ** s1 for x in a], [x * y ** (s2 - 1.0) for x, y in zip(a, c)]):
            total = ordered_sum(w)
            cands.append(BernoulliWeights(tuple(x / total for x in w)))
    return cands


def _attractor_report(ctx, weights):
    upper = min(2.0, ctx.pressure.s_upper)
    upper_exact = ctx.pressure.method == "closed-form"

    # the first measure report with the largest lower end (a certified value
    # is both ends of its interval)
    reports = [ctx.measure_report(w) for w in [weights] + _prescribed_weight_candidates(ctx)]
    best = max(reports, key=lambda rep: rep.certified_interval[0])
    best_lower = max(best.certified_interval[0], 0.0)

    details = list(best.details)
    details.append(("attractor-upper-bound", format_number(upper)))
    details.append(("attractor-upper-exact", "true" if upper_exact else "false"))
    details.append(("attractor-lower-bound", format_number(best_lower)))
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
