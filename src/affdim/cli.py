"""Command-line front end.

Grammar: affdim <command> [--example NAME | --config PATH] [--param k=v]*
[--seed N] [--out PATH] [--exact] plus command-specific flags.  Tables are
tab-delimited with a header row, reports are key/value blocks, images are
binary P6.  Exit codes: 0 certified/success, 2 interval-only analysis,
1 input or processing error.
"""

from __future__ import annotations

import argparse
import sys as _sys
from fractions import Fraction

from . import dimension, ergodic, pressure, render, splitting
from .errors import AffdimError
from .hochman import LineIfs, hochman_rate
from .ifs import BernoulliWeights, ParsedSystem, check_ssc, parse_system, sample_measure
from .library import example_names, get_example, phi_c_closed_form


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # input errors are exit code 1, not argparse's 2
        self.exit(1, f"{self.prog}: error: {message}\n")


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    if isinstance(x, Fraction):
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    return str(x)


def _add_source_flags(p):
    p.add_argument("--example", choices=example_names(), help="built-in example system")
    p.add_argument("--config", help="path to an IFS config file")
    p.add_argument("--param", action="append", default=[], metavar="K=V",
                   help="example parameter, e.g. c=0.4 for phi-c")
    p.add_argument("--seed", type=int, default=0, help="RNG seed threaded everywhere")
    p.add_argument("--exact", action="store_true",
                   help="force exact rational geometry predicates")


def _params_dict(args):
    out = {}
    for item in args.param:
        if "=" not in item:
            raise AffdimError(f"bad --param {item!r}; expected K=V")
        k, v = item.split("=", 1)
        out[k.strip()] = v.strip()
    return out


def _load(args) -> ParsedSystem:
    if args.example and args.config:
        raise AffdimError("give either --example or --config, not both")
    if args.example:
        try:
            return get_example(args.example, _params_dict(args))
        except (ValueError, ZeroDivisionError, KeyError) as e:
            raise AffdimError(str(e)) from None
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            return parse_system(fh.read())
    raise AffdimError("a system is required: --example NAME or --config PATH")


def _weights_for(parsed: ParsedSystem) -> BernoulliWeights:
    return parsed.weights or BernoulliWeights.uniform(parsed.system.n)


def _emit_table(header, rows, comments=(), out=None):
    lines = ["\t".join(header)]
    for row in rows:
        lines.append("\t".join(_fmt(c) for c in row))
    lines.extend(f"# {c}" for c in comments)
    text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    _sys.stdout.write(text)


def _family_closed_form(args):
    if args.example == "phi-c":
        c = Fraction(str(_params_dict(args)["c"]))
        return ("family-closed-form", phi_c_closed_form(c))
    return None


def cmd_analyze(args) -> int:
    parsed = _load(args)
    weights = _weights_for(parsed)
    system = parsed.system
    if args.subsystem_exclude:
        exclude = tuple(int(x) for x in args.subsystem_exclude.split(","))
        system = dimension.build_subsystem(system, exclude, args.subsystem_depth)
        weights = BernoulliWeights.uniform(system.n)
    blocks = []
    reports = []
    certified = True
    targets = ("measure", "attractor") if args.target == "both" else (args.target,)
    for target in targets:
        rep = dimension.analyze(
            system,
            weights,
            polygon=parsed.polygon,
            hochman_depth=args.hochman_depth,
            mc_n=args.mc_n,
            mc_trials=args.mc_trials,
            rng_seed=args.seed,
            target=target,
            family_closed_form=_family_closed_form(args),
        )
        blocks.append(rep.render())
        reports.append(rep)
        certified = certified and rep.certified_value is not None
    text = "\n\n".join(blocks) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    if args.json:
        import json

        doc = [
            {
                "target": r.target,
                "certified_value": r.certified_value,
                "certified_interval": list(r.certified_interval),
                "fired_theorem": r.fired_theorem,
                "hypotheses": {k: v for k, v in r.hypotheses},
                "assumptions": list(r.assumptions),
                "details": {k: v for k, v in r.details},
            }
            for r in reports
        ]
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    _sys.stdout.write(text)
    return 0 if certified else 2


def cmd_pressure(args) -> int:
    parsed = _load(args)
    schedule = tuple(int(x) for x in args.n.split(",")) if args.n else None
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
        parsed.system, weights, args.depth, args.count, args.seed, split
    )
    rows = [(i, float(a)) for i, a in enumerate(angles)]
    _emit_table(("i", "theta"), rows, (f"min-separation: {sep!r}",), args.out)
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
    try:
        return LineIfs(tuple(maps))
    except ValueError as e:
        raise AffdimError(str(e)) from None


def _parse_depth_range(text: str) -> int:
    if ".." in text:
        _lo, hi = text.split("..", 1)
        return int(hi)
    return int(text)


def cmd_hochman(args) -> int:
    if args.maps:
        ifs = _parse_line_maps(args.maps)
    else:
        parsed = _load(args)
        weights = _weights_for(parsed)
        if args.derive == "x":
            ifs, _ = dimension.x_axis_line_ifs(parsed.system, weights)
        else:
            ifs, _ = dimension.direction_line_ifs(parsed.system, weights)
    rep = hochman_rate(ifs, _parse_depth_range(args.n))
    rows = [
        (n, "inf" if d == float("inf") else _fmt(d), rate) for n, d, rate in rep.rows
    ]
    _emit_table(("n", "delta_n", "rate"), rows, (f"verdict: {rep.verdict}",), args.out)
    return 0


def cmd_boxdim(args) -> int:
    parsed = _load(args)
    weights = _weights_for(parsed)
    seed_point = parsed.polygon.centroid() if parsed.polygon else (0.0, 0.0)
    pts = sample_measure(
        parsed.system, weights, depth=args.depth, count=args.count,
        rng_seed=args.seed, seed_point=seed_point,
    )
    series = dimension.box_dimension_estimate(pts, args.k_min, args.k_max)
    rows = list(zip(range(args.k_min, args.k_max + 1), series.scales, series.counts))
    comments = (f"slope: {series.slope!r}", f"r2: {series.r2!r}")
    _emit_table(("k", "scale", "count"), rows, comments, args.out)
    return 0


def cmd_ssc(args) -> int:
    parsed = _load(args)
    if parsed.polygon is None:
        raise AffdimError("ssc needs a polygon (in the config or the example)")
    exact = True if args.exact else None
    rep = check_ssc(parsed.system, parsed.polygon, exact=exact)
    lines = [
        f"holds: {'true' if rep.holds else 'false'}",
        f"kappa: {rep.kappa!r}",
        f"margin: {rep.margin!r}",
    ]
    if rep.witness:
        lines.append(f"witness: {rep.witness}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    _sys.stdout.write(text)
    return 0


def cmd_render(args) -> int:
    parsed = _load(args)
    if args.viewport:
        vp = tuple(float(x) for x in args.viewport.split(","))
        if len(vp) != 4:
            raise AffdimError("viewport must be x0,y0,x1,y1")
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


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="affdim", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="certified dimension report")
    _add_source_flags(pa)
    pa.add_argument("--target", choices=("measure", "attractor", "both"), default="both")
    pa.add_argument("--out", help="also write the report to a file")
    pa.add_argument("--json", metavar="PATH", help="also write a JSON document")
    pa.add_argument("--hochman-depth", type=int, default=None)
    pa.add_argument("--mc-n", type=int, default=1000)
    pa.add_argument("--mc-trials", type=int, default=1000)
    pa.add_argument("--subsystem-exclude", metavar="SYMS",
                    help="analyze the depth-n subsystem dropping this word "
                         "class, e.g. 4,6 (lower bound for the full system)")
    pa.add_argument("--subsystem-depth", type=int, default=1)
    pa.set_defaults(fn=cmd_analyze)

    pp = sub.add_parser("pressure", help="finite-depth pressure roots")
    _add_source_flags(pp)
    pp.add_argument("--n", help="comma-separated depth schedule, e.g. 2,4,8")
    pp.add_argument("--out")
    pp.set_defaults(fn=cmd_pressure)

    pl = sub.add_parser("lyapunov", help="entropy, exponents and Lyapunov dimension")
    _add_source_flags(pl)
    pl.add_argument("--mc-n", type=int, default=1000)
    pl.add_argument("--mc-trials", type=int, default=1000)
    pl.add_argument("--bits", action="store_true", help="display in bits instead of nats")
    pl.add_argument("--out")
    pl.set_defaults(fn=cmd_lyapunov)

    pd = sub.add_parser("directions", help="sample the strong-stable direction field")
    _add_source_flags(pd)
    pd.add_argument("--count", type=int, default=1000)
    pd.add_argument("--depth", type=int, default=None)
    pd.add_argument("--out")
    pd.set_defaults(fn=cmd_directions)

    ph = sub.add_parser("hochman", help="separation quantities of a line system")
    _add_source_flags(ph)
    ph.add_argument("--maps", help='line maps "beta,gamma;beta,gamma;..." (rationals)')
    ph.add_argument("--derive", choices=("x", "direction"), default="direction",
                    help="derive the line system from a planar config")
    ph.add_argument("--n", default="6", help="max depth, e.g. 6 or 1..6")
    ph.add_argument("--out")
    ph.set_defaults(fn=cmd_hochman)

    pb = sub.add_parser("boxdim", help="box-counting estimate on sampled points")
    _add_source_flags(pb)
    pb.add_argument("--count", type=int, default=200_000)
    pb.add_argument("--depth", type=int, default=40)
    pb.add_argument("--k-min", type=int, default=3)
    pb.add_argument("--k-max", type=int, default=8)
    pb.add_argument("--out")
    pb.set_defaults(fn=cmd_boxdim)

    ps = sub.add_parser("ssc", help="strong separation check against the polygon")
    _add_source_flags(ps)
    ps.add_argument("--out")
    ps.set_defaults(fn=cmd_ssc)

    pr = sub.add_parser("render", help="write a P6 image of the attractor")
    _add_source_flags(pr)
    pr.add_argument("--out", required=False)
    pr.add_argument("--width", type=int, default=512)
    pr.add_argument("--height", type=int, default=512)
    pr.add_argument("--mode", choices=("cylinders", "chaos"), default="cylinders")
    pr.add_argument("--depth", type=int, default=5)
    pr.add_argument("--count", type=int, default=100_000)
    pr.add_argument("--viewport", help="x0,y0,x1,y1 in plane coordinates")
    pr.set_defaults(fn=cmd_render)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except AffdimError as e:
        print(f"affdim: error: {e}", file=_sys.stderr)
        return 1
    except OSError as e:
        print(f"affdim: error: {e}", file=_sys.stderr)
        return 1


if __name__ == "__main__":
    _sys.exit(main())
