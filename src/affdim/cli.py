"""Command-line front end: one handler per command, registered with its
flags and their bounds in ``COMMANDS``."""

from __future__ import annotations

import argparse
import sys as _sys
from fractions import Fraction

from ._numpy import _lazy
from .errors import AffdimError
from .hochman import LineIfs, direction_line_ifs, hochman_rate, x_axis_line_ifs

# each layer executes on a command's first use of it: hochman, pressure and
# boxdim never execute dimension, ergodic or splitting, lyapunov never
# dimension or splitting, and analyze every layer but render (the _numpy
# docstring lists each command's layers; perfbench/spans.py reads all seven
# layers from sys.modules after importing this module, and wraps hochman_rate
# and the line-system builders here)
dimension, ergodic, ifs, library, pressure, render, splitting = (
    _lazy(f"affdim.{name}")
    for name in ("dimension", "ergodic", "ifs", "library", "pressure", "render", "splitting"))


# the top-level --help text (argparse refills it)
DESCRIPTION = """Command-line front end.  Grammar: affdim <command> [--example NAME |
--config PATH] [--param k=v]* [--seed N] [--out PATH] plus command-specific flags.  Tables
are tab-delimited with a header row, reports are key/value blocks, images are binary P6.
Exit codes: 0 certified/success, 2 interval-only analysis, 1 input or processing error."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # input errors are exit code 1, not argparse's 2
        self.exit(1, f"{self.prog}: error: {message}\n")


def _params_dict(args):
    out = {}
    for item in args.param:
        if "=" not in item:
            raise AffdimError(f"bad --param {item!r}; expected K=V")
        k, v = item.split("=", 1)
        out[k.strip()] = v.strip()
    return out


def _load(args) -> ifs.ParsedSystem:
    if args.example and args.config:
        raise AffdimError("give either --example or --config, not both")
    if args.example:
        try:
            return library.get_example(args.example, _params_dict(args))
        except (ValueError, ZeroDivisionError, KeyError) as e:
            raise AffdimError(str(e)) from None
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            return ifs.parse_system(fh.read())
    raise AffdimError("a system is required: --example NAME or --config PATH")


def _weights_for(parsed: ifs.ParsedSystem) -> ifs.BernoulliWeights:
    return parsed.weights or ifs.BernoulliWeights.uniform(parsed.system.n)


def _emit(text, out):
    """Write ``text`` to the ``--out`` file, if any, and to stdout."""
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    _sys.stdout.write(text)


def _emit_table(header, rows, comments=(), out=None):
    _emit_lines(header, ("\t".join(map(ifs.format_number, row)) for row in rows), comments, out)


def _emit_lines(header, lines, comments, out):
    """A table whose rows are already formatted lines."""
    _emit("\n".join(["\t".join(header), *lines, *(f"# {c}" for c in comments)]) + "\n", out)


def _check_flags(args, flags):
    """Name the first flag, in help order, outside its bound: a least value,
    an inclusive (lo, hi) range, or a function of ``args`` giving one of
    these or None (unchecked).  An unset flag passes."""
    for flag, _, bound in flags:
        if callable(bound):
            bound = bound(args)
        value = getattr(args, flag[2:].replace("-", "_"))
        if bound is None or value is None:
            continue
        lo, hi = bound if isinstance(bound, tuple) else (bound, None)
        if value < lo or hi is not None and value > hi:
            need = f">= {lo}" if hi is None else f"{lo}..{hi}"
            raise AffdimError(f"bad {flag} {value}; need {need}")


def _family_closed_form(args):
    if args.example == "phi-c":
        c = Fraction(str(_params_dict(args)["c"]))
        return ("family-closed-form", library.phi_c_closed_form(c))
    return None


def cmd_analyze(args) -> int:
    parsed = _load(args)
    weights = _weights_for(parsed)
    system = parsed.system
    if args.subsystem_exclude:
        exclude = _parse_int_list(args.subsystem_exclude, "--subsystem-exclude", "SYM,SYM,...")
        if not all(1 <= k <= system.n for k in exclude) or len(set(exclude)) == system.n:
            raise AffdimError(f"bad --subsystem-exclude {args.subsystem_exclude!r}; "
                              f"need symbols in 1..{system.n}, not all of them")
        system = dimension.build_subsystem(system, exclude, args.subsystem_depth)
        weights = ifs.BernoulliWeights.uniform(system.n)
    targets = ("measure", "attractor") if args.target == "both" else (args.target,)
    reports = dimension.analyze_targets(
        system,
        targets,
        weights,
        polygon=parsed.polygon,
        hochman_depth=args.hochman_depth,
        mc_n=args.mc_n,
        mc_trials=args.mc_trials,
        rng_seed=args.seed,
        family_closed_form=_family_closed_form(args),
    )
    if args.json:
        import json

        # json writes the tuples of the other fields as lists
        doc = [dict({f: getattr(r, f) for f in r._record_fields}, hypotheses=dict(r.hypotheses),
                    details=dict(r.details)) for r in reports]
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    _emit("\n\n".join(rep.render() for rep in reports) + "\n", args.out)
    return 0 if all(rep.certified_value is not None for rep in reports) else 2


def _parse_int_list(text: str, flag: str, form: str) -> tuple:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise AffdimError(f"bad {flag} {text!r}; expected {form}") from None


def cmd_pressure(args) -> int:
    parsed = _load(args)
    schedule = None
    if args.n:
        schedule = _parse_int_list(args.n, "--n", "N,N,... (e.g. 2,4,8)")
        if schedule[0] < 1 or any(b <= a for a, b in zip(schedule, schedule[1:])):
            raise AffdimError(f"bad --n {args.n!r}; need increasing depths >= 1")
    est = pressure.pressure_root(parsed.system, schedule)
    comments = [
        f"upper-bound: {est.s_upper!r}",
        f"extrapolated-estimate: {est.s_extrapolated!r} (heuristic, Richardson)",
        f"converged: {'true' if est.converged else 'false'}",
    ]
    if est.dropped:
        comments.append(f"dropped-depths: {' '.join(str(n) for n in est.dropped)}")
    _emit_table(("n", "root"), est.history, comments, args.out)
    return 0


def cmd_lyapunov(args) -> int:
    parsed = _load(args)
    weights = _weights_for(parsed)
    t = ergodic.lyapunov_exponents(
        parsed.system, weights, mc_n=args.mc_n, mc_trials=args.mc_trials, rng_seed=args.seed
    )
    dim = ergodic.lyapunov_dimension(t)
    scale = 1.0 / __import__("math").log(2.0) if args.bits else 1.0
    unit = "bits" if args.bits else "nats"
    rows = [(t.chi_s * scale, t.chi_ss * scale, t.entropy * scale, dim, t.stderr_s * scale)]
    _emit_table(
        ("chi_s", "chi_ss", "entropy", "dim_lyap", "stderr"),
        rows,
        (f"units: {unit} (dimension is unitless)",),
        args.out,
    )
    return 0


def cmd_directions(args) -> int:
    parsed = _load(args)
    weights = _weights_for(parsed)
    split = splitting.certify(parsed.system)
    angles = splitting.sample_nu_ss_angles(
        parsed.system, weights, args.depth, args.count, args.seed, split
    )
    sep = splitting.min_angle_separation(
        parsed.system, weights, args.depth, args.count, args.seed, split, ss_angles=angles
    )
    # format_number of an int is str and of a float repr: one C-level pass
    rows = map("\t".join, zip(map(str, range(len(angles))), map(repr, angles.tolist())))
    _emit_lines(("i", "theta"), rows, (f"min-separation: {sep!r}",), args.out)
    return 0


def _parse_line_maps(text: str) -> LineIfs:
    maps = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        bits = part.split(",")
        if len(bits) != 2:
            raise AffdimError(f"bad map {part!r}; expected beta,gamma")
        try:
            maps.append((Fraction(bits[0]), Fraction(bits[1])))
        except (ValueError, ZeroDivisionError) as e:
            raise AffdimError(f"bad map {part!r}: {e}") from None
    return LineIfs(tuple(maps))  # main reports its ValueError like an AffdimError


def _parse_depth_range(text: str):
    """(lo, hi) of a depth argument "HI" (rows 1..HI) or "LO..HI"."""
    lo, sep, hi = text.partition("..")
    try:
        lo, hi = (int(lo), int(hi)) if sep else (1, int(lo))
    except ValueError:
        raise AffdimError(f"bad --n {text!r}; expected N or LO..HI") from None
    if not 1 <= lo <= hi:
        raise AffdimError(f"bad --n {text!r}; need 1 <= LO <= HI")
    if hi < 2:
        raise AffdimError(f"bad --n {text!r}; the largest depth must be >= 2")
    return lo, hi


def cmd_hochman(args) -> int:
    if args.maps:
        line_ifs = _parse_line_maps(args.maps)
    else:
        parsed = _load(args)
        weights = _weights_for(parsed)
        if args.derive == "x":
            line_ifs, _ = x_axis_line_ifs(parsed.system, weights)
        else:
            line_ifs, _ = direction_line_ifs(parsed.system, weights)
    lo, hi = _parse_depth_range(args.n)
    rep = hochman_rate(line_ifs, hi)
    rows = [row for row in rep.rows if row[0] >= lo]
    _emit_table(("n", "delta_n", "rate"), rows, (f"verdict: {rep.verdict}",), args.out)
    return 0


def cmd_boxdim(args) -> int:
    parsed = _load(args)
    weights = _weights_for(parsed)
    seed_point = parsed.polygon.centroid() if parsed.polygon else (0.0, 0.0)
    pts = ifs.sample_measure(
        parsed.system, weights, depth=args.depth, count=args.count,
        rng_seed=args.seed, seed_point=seed_point,
    )
    try:
        series = ifs.box_dimension_estimate(pts, args.k_min, args.k_max)
    except ValueError as e:  # the flags are checked: only k_max can be too fine
        raise AffdimError(f"bad --k-max {args.k_max}; {e}") from None
    rows = list(zip(range(args.k_min, args.k_max + 1), series.scales, series.counts))
    comments = (f"slope: {series.slope!r}", f"r2: {series.r2!r}")
    _emit_table(("k", "scale", "count"), rows, comments, args.out)
    return 0


def cmd_ssc(args) -> int:
    parsed = _load(args)
    if parsed.polygon is None:
        raise AffdimError("ssc needs a polygon (in the config or the example)")
    rep = ifs.check_ssc(parsed.system, parsed.polygon)
    lines = [
        f"holds: {'true' if rep.holds else 'false'}",
        f"kappa: {rep.kappa!r}",
        f"margin: {rep.margin!r}",
    ]
    if rep.witness:
        lines.append(f"witness: {rep.witness}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_render(args) -> int:
    parsed = _load(args)
    if args.viewport:
        try:
            vp = tuple(float(x) for x in args.viewport.split(","))
        except ValueError:
            vp = ()
        if len(vp) != 4:
            raise AffdimError(f"bad --viewport {args.viewport!r}; expected x0,y0,x1,y1")
    else:
        vp = render.default_viewport(parsed.polygon, parsed.system)
    spec = render.RenderSpec(
        width=args.width, height=args.height, viewport=vp, mode=args.mode,
        depth=args.depth, count=args.count, seed=args.seed,
    )
    if not args.out:
        raise AffdimError("render needs --out PATH for the P6 image")
    render.render_to_file(
        parsed.system, spec, args.out, polygon=parsed.polygon,
        weights=_weights_for(parsed),
    )
    return 0


def _source_flags():
    """The flags every command takes first: a function, so that only the
    parser of a named command reads the example names."""
    return (
        ("--example", dict(choices=library.example_names(), help="built-in example system"),
         None),
        ("--config", dict(help="path to an IFS config file"), None),
        ("--param", dict(action="append", default=[], metavar="K=V",
                         help="example parameter, e.g. c=0.4 for phi-c"), None),
        ("--seed", dict(type=int, default=0, help="RNG seed threaded everywhere"), None),
    )


_OUT = ("--out", {}, None)
_MONTE_CARLO = (("--mc-n", dict(type=int, default=1000), 1),
                ("--mc-trials", dict(type=int, default=1000), 2))


# name -> (help, handler, flags after the source flags).  Each flag is one
# row (flag, add_argument keywords, bound), in --help order; main checks every
# bound before the handler runs (see _check_flags).
COMMANDS = {
    "analyze": ("certified dimension report", cmd_analyze, (
        ("--target", dict(choices=("measure", "attractor", "both"), default="both"), None),
        ("--out", dict(help="also write the report to a file"), None),
        ("--json", dict(metavar="PATH", help="also write a JSON document"), None),
        ("--hochman-depth", dict(type=int, default=None), None),
        *_MONTE_CARLO,
        ("--subsystem-exclude", dict(metavar="SYMS",
                                     help="analyze the depth-n subsystem dropping this word "
                                          "class, e.g. 4,6 (lower bound for the full system)"),
         None),
        ("--subsystem-depth", dict(type=int, default=1),
         lambda args: 1 if args.subsystem_exclude else None),
    )),
    "pressure": ("finite-depth pressure roots", cmd_pressure, (
        ("--n", dict(help="comma-separated depth schedule, e.g. 2,4,8"), None),
        _OUT,
    )),
    "lyapunov": ("entropy, exponents and Lyapunov dimension", cmd_lyapunov, (
        *_MONTE_CARLO,
        ("--bits", dict(action="store_true", help="display in bits instead of nats"), None),
        _OUT,
    )),
    "directions": ("sample the strong-stable direction field", cmd_directions, (
        ("--count", dict(type=int, default=1000), 1),
        ("--depth", dict(type=int, default=None), 1),
        _OUT,
    )),
    "hochman": ("separation quantities of a line system", cmd_hochman, (
        ("--maps", dict(help='line maps "beta,gamma;beta,gamma;..." (rationals)'), None),
        ("--derive", dict(choices=("x", "direction"), default="direction",
                          help="derive the line system from a planar config"), None),
        ("--n", dict(default="6", help="max depth or depth range, e.g. 6 or 3..6"), None),
        _OUT,
    )),
    "boxdim": ("box-counting estimate on sampled points", cmd_boxdim, (
        ("--count", dict(type=int, default=200_000), 1000),
        ("--depth", dict(type=int, default=40), 1),
        ("--k-min", dict(type=int, default=3), 1),
        ("--k-max", dict(type=int, default=8), lambda args: args.k_min + 3),  # four scales
        _OUT,
    )),
    "ssc": ("strong separation check against the polygon", cmd_ssc, (_OUT,)),
    "render": ("write a P6 image of the attractor", cmd_render, (
        _OUT,
        ("--width", dict(type=int, default=512), lambda args: render.SIZES),
        ("--height", dict(type=int, default=512), lambda args: render.SIZES),
        ("--mode", dict(choices=("cylinders", "chaos"), default="cylinders"), None),
        # chaos mode draws no cylinders, and cylinders mode no orbit
        ("--depth", dict(type=int, default=5), lambda a: 1 if a.mode == "cylinders" else None),
        ("--count", dict(type=int, default=100_000), lambda a: 1 if a.mode == "chaos" else None),
        ("--viewport", dict(help="x0,y0,x1,y1 in plane coordinates"), None),
    )),
}


def build_parser(argv=()) -> argparse.ArgumentParser:
    """The parser for ``argv``: every command is registered, but only the
    first one named in ``argv`` gets its flags, since argparse parses no
    other.  The top-level help and errors list the commands alone either way.
    """
    p = _Parser(prog="affdim", description=DESCRIPTION)
    sub = p.add_subparsers(dest="command", required=True)
    chosen = next((a for a in argv if a in COMMANDS), None)
    for name, (help_text, _, flags) in COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        if name == chosen:
            for flag, keywords, _ in _source_flags() + flags:
                sp.add_argument(flag, **keywords)
    return p


def main(argv=None) -> int:
    argv = _sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    _, handler, flags = COMMANDS[args.command]
    try:
        _check_flags(args, flags)
        return handler(args)
    except (AffdimError, OSError, ValueError) as e:  # bad input: a message, not a traceback
        print(f"affdim: error: {e}", file=_sys.stderr)
        return 1


if __name__ == "__main__":
    _sys.exit(main())
