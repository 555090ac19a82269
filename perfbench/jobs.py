"""The benchmark's workloads: the CLI jobs each one runs, and the checks that
decide whether a job's output is correct.

Checks read values, exit codes and statuses, never stdout hashes, so a later
change that adds a detail line still passes.  Every comparison uses a
tolerance: sec44's printed finite-depth roots already sit a few 1e-13 away
from the closed forms they approximate.  The references below are closed
forms (or exact rationals) committed with the benchmark, not outputs of the
program under test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

# Closed-form pressure roots of the triangular systems the workloads run.
ROOT_SEC44 = 1.0 + math.log(2.0) / math.log(81.0 / 16.0)  # also its dimension
ROOT_PHI_C_2_5 = 1.0 + math.log(12.0 / 5.0) / math.log(3.0)  # phi-c, c = 2/5
ROOT_SUBSYSTEM = 1.0 + math.log(4.0 / 3.0) / math.log(4.0)  # phi-c c = 1/4, 4,6 excluded

# hl-demo: both maps have |det| = (1/25)^2, so chi_s + chi_ss = 2 log 25.
HL_DEMO_DET_DRIFT = 2.0 * math.log(25.0)

# Exact Delta_n, n = 1..10, of the direction line system of phi-c c = 2/5.
PHI_C_2_5_DELTA = (
    "1/4", "1/24", "1/144", "1/432", "1/1296",
    "1/31104", "1/186624", "1/1119744", "5/6718464", "7/40310784",
)
PHI_C_2_5_VERDICT = "Inconclusive"

CERT_TOL = 1e-9  # certified values and intervals against closed forms
BOUND_TOL = 1e-12  # a printed upper bound may sit this far under the truth
# The 2^-3..2^-8 box-count slope of 200k sec44 samples reads 1.386-1.388 on
# seeds 0-9 (a finite-scale bias of about 0.04 below the dimension).
BOXDIM_TOL = 0.06
BOXDIM_MIN_R2 = 0.99
# 4000 x 4000 Monte-Carlo products on hl-demo give stderr 0.99e-5-1.02e-5.
LYAP_STDERR_CEILING = 2e-5
# hl-demo's cone arcs keep the sampled directions 0.894 apart (sin of gap).
DIRECTIONS_MIN_SEPARATION = 0.5
DIRECTIONS_COUNT = 100_000

IMAGE_SIZE = 512  # render's default width and height
P6_HEADER = f"P6\n{IMAGE_SIZE} {IMAGE_SIZE}\n255\n".encode("ascii")


@dataclass(frozen=True)
class Output:
    """What one job left behind."""

    code: Optional[int]  # exit code; None when the job raised in-process
    stdout: str
    stderr: str
    image: Optional[bytes] = None  # the P6 file of a render job


@dataclass(frozen=True)
class Job:
    """One CLI invocation.  ``check`` returns (problems, pressure gap or None)."""

    name: str
    args: tuple  # after "affdim"; --seed and, for images, --out are appended
    check: Callable[[Output], tuple]
    image: bool = False

    def argv(self, seed: int, out_dir: str) -> list:
        argv = list(self.args) + ["--seed", str(seed)]
        if self.image:
            argv += ["--out", self.image_path(out_dir)]
        return argv

    def image_path(self, out_dir: str) -> str:
        return f"{out_dir}/{self.name}.ppm"


# ---------------------------------------------------------------------------
# Parsing the CLI's output formats
# ---------------------------------------------------------------------------


def parse_report(text: str) -> list:
    """The key/value blocks of an analyze report, one dict per target."""
    return [dict(line.partition(": ")[::2] for line in chunk.splitlines())
            for chunk in text.strip().split("\n\n")]


def parse_table(text: str):
    """(header, rows, comments) of a tab-delimited table."""
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty table")
    rows, comments = [], {}
    for line in lines[1:]:
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            comments[key] = value
        else:
            rows.append(line.split("\t"))
    return lines[0].split("\t"), rows, comments


def _interval(value: str):
    lo, hi = value.strip("[]").split(",")
    return float(lo), float(hi)


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def _exit_problems(out: Output, expected: int) -> list:
    problems = []
    if out.code != expected:
        problems.append(f"exit code {out.code}, expected {expected}")
    if "Traceback" in out.stderr:
        problems.append("traceback on stderr")
    return problems


def _bound_problems(what: str, bound: float, root: float) -> list:
    if bound < root - BOUND_TOL:
        return [f"{what} {bound!r} is below the closed-form root {root!r}"]
    return []


def _checked(expected_code: int, body: Callable[[Output], tuple]):
    """Exit-code and traceback checks, then ``body``.  A parse error or a
    missing field is a failure of the job, never an exception out of the
    benchmark."""

    def check(out: Output):
        problems = _exit_problems(out, expected_code)
        try:
            more, gap = body(out)
        except (ValueError, KeyError, IndexError) as e:
            return problems + [f"unreadable output: {type(e).__name__}: {e}"], None
        return problems + more, gap

    return check


def _report_blocks(out: Output, targets: tuple) -> list:
    blocks = parse_report(out.stdout)
    got = tuple(b.get("target") for b in blocks)
    if got != targets:
        raise ValueError(f"report targets {got}, expected {targets}")
    return blocks


def _pressure_upper(blocks: list, root: float):
    problems = []
    uppers = [float(b["pressure-root-upper"]) for b in blocks]
    for u in uppers:
        problems += _bound_problems("pressure-root-upper", u, root)
    return problems, max(uppers) - root


def _certified(block: dict) -> Optional[float]:
    value = block["certified-value"]
    return None if value == "none" else float(value)


def check_analyze_sec44(out: Output):
    blocks = _report_blocks(out, ("measure", "attractor"))
    problems, gap = _pressure_upper(blocks, ROOT_SEC44)
    for b in blocks:
        value = _certified(b)
        if value is None or abs(value - ROOT_SEC44) > CERT_TOL:
            problems.append(f"{b['target']}: certified-value {value!r}, expected {ROOT_SEC44!r}")
    return problems, gap


def check_analyze_phi_c(out: Output):
    blocks = _report_blocks(out, ("measure", "attractor"))
    problems, gap = _pressure_upper(blocks, ROOT_PHI_C_2_5)
    for b in blocks:
        lo, hi = _interval(b["certified-interval"])
        if not lo - CERT_TOL <= ROOT_PHI_C_2_5 <= hi + CERT_TOL:
            problems.append(f"{b['target']}: interval [{lo!r}, {hi!r}] misses {ROOT_PHI_C_2_5!r}")
    return problems, gap


def check_analyze_hl_demo(out: Output):
    measure, attractor = _report_blocks(out, ("measure", "attractor"))
    problems = []
    value = _certified(measure)
    if value is None or not 0.0 < value < 1.0:
        problems.append(f"measure: certified-value {value!r}, expected one in (0, 1)")
    elif value > float(measure["pressure-root-upper"]) + CERT_TOL:
        problems.append("measure: certified-value above the pressure upper bound")
    if _certified(attractor) is not None:
        problems.append("attractor: certified although the pressure sandwich is open")
    return problems, None


def check_analyze_subsystem(out: Output):
    (block,) = _report_blocks(out, ("measure",))
    problems, gap = _pressure_upper([block], ROOT_SUBSYSTEM)
    closed = float(block["triangular-pressure-root"])
    if abs(closed - ROOT_SUBSYSTEM) > CERT_TOL:
        problems.append(f"triangular-pressure-root {closed!r}, expected {ROOT_SUBSYSTEM!r}")
    lo, hi = _interval(block["certified-interval"])
    if abs(hi - ROOT_SUBSYSTEM) > CERT_TOL or lo > hi:
        problems.append(f"interval [{lo!r}, {hi!r}] should end at {ROOT_SUBSYSTEM!r}")
    return problems, gap


def pressure_table_check(root: float):
    def body(out: Output):
        header, rows, comments = parse_table(out.stdout)
        if header != ["n", "root"] or not rows:
            raise ValueError(f"bad pressure table header {header}")
        problems = []
        for n, r in rows:
            problems += _bound_problems(f"depth-{n} root", float(r), root)
        upper = float(comments["upper-bound"])
        problems += _bound_problems("upper-bound", upper, root)
        return problems, upper - root

    return body


def check_hochman_phi_c(out: Output):
    header, rows, comments = parse_table(out.stdout)
    if header != ["n", "delta_n", "rate"]:
        raise ValueError(f"bad hochman header {header}")
    problems = []
    got = tuple(d for _, d, _ in rows)
    if tuple(int(n) for n, _, _ in rows) != tuple(range(1, len(PHI_C_2_5_DELTA) + 1)):
        problems.append("rows are not n = 1..10")
    if got != PHI_C_2_5_DELTA:
        problems.append(f"delta_n rows {got} differ from the exact references")
    for n, d, rate in rows:
        num, _, den = d.partition("/")
        expected = -math.log(int(num) / int(den or 1)) / int(n)
        if abs(float(rate) - expected) > 1e-12 * abs(expected):
            problems.append(f"n={n}: rate {rate} is not -log(delta_n)/n")
    if comments.get("verdict") != PHI_C_2_5_VERDICT:
        problems.append(f"verdict {comments.get('verdict')!r}, expected {PHI_C_2_5_VERDICT!r}")
    return problems, None


def check_boxdim(out: Output):
    header, rows, comments = parse_table(out.stdout)
    if header != ["k", "scale", "count"]:
        raise ValueError(f"bad boxdim header {header}")
    problems = []
    if [int(r[0]) for r in rows] != list(range(3, 9)):
        problems.append("rows are not k = 3..8")
    slope, r2 = float(comments["slope"]), float(comments["r2"])
    if abs(slope - ROOT_SEC44) > BOXDIM_TOL:
        problems.append(f"slope {slope!r} is not within {BOXDIM_TOL} of {ROOT_SEC44!r}")
    if r2 < BOXDIM_MIN_R2:
        problems.append(f"r2 {r2!r} below {BOXDIM_MIN_R2}")
    return problems, None


def check_lyapunov(out: Output):
    header, rows, _ = parse_table(out.stdout)
    if header != ["chi_s", "chi_ss", "entropy", "dim_lyap", "stderr"] or len(rows) != 1:
        raise ValueError("bad lyapunov table")
    chi_s, chi_ss, h, dim, stderr = (float(x) for x in rows[0])
    problems = []
    if abs(chi_s + chi_ss - HL_DEMO_DET_DRIFT) > 1e-9:
        problems.append(f"chi_s + chi_ss = {chi_s + chi_ss!r}, expected {HL_DEMO_DET_DRIFT!r}")
    if abs(h - math.log(2.0)) > 1e-12:
        problems.append(f"entropy {h!r}, expected log 2")
    if not 0.0 < chi_s <= chi_ss:
        problems.append("exponents out of order")
    if not 0.0 < dim < 1.0:
        problems.append(f"dim_lyap {dim!r} outside (0, 1)")
    if not 0.0 < stderr <= LYAP_STDERR_CEILING:
        problems.append(f"stderr {stderr!r} above the ceiling {LYAP_STDERR_CEILING}")
    return problems, None


def check_directions(out: Output):
    header, rows, comments = parse_table(out.stdout)
    if header != ["i", "theta"]:
        raise ValueError(f"bad directions header {header}")
    problems = []
    if len(rows) != DIRECTIONS_COUNT or rows[-1][0] != str(DIRECTIONS_COUNT - 1):
        problems.append(f"{len(rows)} rows, expected {DIRECTIONS_COUNT}")
    if not all(0.0 <= float(t) <= math.pi for _, t in rows):
        problems.append("an angle lies outside [0, pi]")
    sep = float(comments["min-separation"])
    if not DIRECTIONS_MIN_SEPARATION <= sep <= 1.0:
        problems.append(f"min-separation {sep!r} below {DIRECTIONS_MIN_SEPARATION}")
    return problems, None


def check_image(out: Output):
    img = out.image
    if img is None:
        return ["no image written"], None
    problems = []
    if not img.startswith(P6_HEADER):
        problems.append(f"P6 header {img[:len(P6_HEADER)]!r}, expected {P6_HEADER!r}")
    if len(img) != len(P6_HEADER) + IMAGE_SIZE * IMAGE_SIZE * 3:
        problems.append(f"image is {len(img)} bytes")
    elif not img[len(P6_HEADER):].strip(b"\xff"):
        problems.append("image is blank (all background)")
    return problems, None


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

WORKLOADS = {
    # Many small calls that repeat weight-independent work (Hochman rows,
    # pressure roots): the workload where caching or compute-once shows.
    "certify": (
        Job("analyze-sec44", ("analyze", "--example", "sec44"), _checked(0, check_analyze_sec44)),
        Job("analyze-phi-c", ("analyze", "--example", "phi-c", "--param", "c=2/5"),
            _checked(2, check_analyze_phi_c)),
        Job("analyze-hl-demo", ("analyze", "--example", "hl-demo"),
            _checked(2, check_analyze_hl_demo)),
    ),
    # A few huge single-call enumerations with no reuse: enumeration,
    # root-finding and exact arithmetic show here, caching does not.
    "deep": (
        Job("analyze-subsystem",
            ("analyze", "--example", "phi-c", "--param", "c=1/4", "--target", "measure",
             "--subsystem-exclude", "4,6"),
            _checked(2, check_analyze_subsystem)),
        Job("hochman-phi-c", ("hochman", "--example", "phi-c", "--param", "c=2/5", "--n", "10"),
            _checked(0, check_hochman_phi_c)),
        Job("pressure-phi-c", ("pressure", "--example", "phi-c", "--param", "c=2/5"),
            _checked(0, pressure_table_check(ROOT_PHI_C_2_5))),
    ),
    # Monte-Carlo, direction-sampling and raster kernels.  The one pressure
    # job is tiny (3^8 words) and only defines pressure_gap here.
    "sample": (
        Job("boxdim-sec44", ("boxdim", "--example", "sec44", "--count", "200000"),
            _checked(0, check_boxdim)),
        Job("lyapunov-hl-demo",
            ("lyapunov", "--example", "hl-demo", "--mc-n", "4000", "--mc-trials", "4000"),
            _checked(0, check_lyapunov)),
        Job("directions-hl-demo",
            ("directions", "--example", "hl-demo", "--count", str(DIRECTIONS_COUNT)),
            _checked(0, check_directions)),
        Job("render-sec44", ("render", "--example", "sec44", "--depth", "8"),
            _checked(0, check_image), image=True),
        Job("render-chaos-phi-c",
            ("render", "--example", "phi-c", "--param", "c=1/4", "--mode", "chaos",
             "--count", "200000", "--viewport", "0,0,1,1"),
            _checked(0, check_image), image=True),
        Job("pressure-sec44", ("pressure", "--example", "sec44", "--n", "8"),
            _checked(0, pressure_table_check(ROOT_SEC44))),
    ),
}
