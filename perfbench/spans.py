"""Outside-in tracing of affdim's layers.

The benchmark wraps layer functions from outside, at every module namespace
that binds them (``hochman_rate`` lives in ``affdim.hochman`` but is also
bound in ``affdim.dimension`` and ``affdim.cli``), so nothing under
``src/affdim`` changes.  A span's self time is its duration minus the
durations of the spans it directly encloses.  Counters are exact: they are
computed from the arguments of the wrapped calls, never from timings.

Only boundary functions get spans.  Helpers that the layers call per element
from Python loops (``compose_word``, ``linalg2``) stay unwrapped: a wrapper
there would cost more than the call, and their time belongs to the caller's
self time.  ``phi_log_values`` is wrapped for its counter only.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# layer -> functions that get a span, named "<layer>.<function>"
SPANS = {
    "dimension": ("analyze", "build_subsystem", "x_axis_line_ifs", "direction_line_ifs",
                  "backward_non_overlapping", "box_dimension_estimate",
                  "correlation_dimension_estimate"),
    "pressure": ("pressure_root", "word_log_singulars", "triangular_roots",
                 "triangular_pressure_root"),
    "hochman": ("hochman_rate", "delta_n"),
    "ergodic": ("lyapunov_exponents", "lyapunov_monte_carlo", "lyapunov_triangular"),
    "splitting": ("certify", "sample_nu_ss_angles", "sample_e_s_angles",
                  "min_angle_separation"),
    "ifs": ("check_ssc", "sample_measure", "parse_system"),
    "render": ("render_to_file", "render_cylinders", "render_chaos"),
}
SPAN_NAMES = {f"{layer}.{f}" for layer, fns in SPANS.items() for f in fns}


def _pressure_root_counts(a):
    from affdim import pressure

    requested = a["n_schedule"] or pressure.DEFAULT_SCHEDULE
    kept = pressure.adjusted_schedule(a["sys"], requested, a["cap"])
    return {"pressure.depths_dropped": len(set(requested) - set(kept))}


# "<layer>.<function>" -> counters added per call, from its bound arguments
COUNTERS = {
    "pressure.word_log_singulars": lambda a: {"pressure.words": a["sys"].n ** a["n"]},
    "pressure.phi_log_values": lambda a: {"pressure.root_evals": 1},
    "pressure.pressure_root": _pressure_root_counts,
    "hochman.delta_n": lambda a: {"hochman.words": a["ifs"].n ** a["n"]},
    "ergodic.lyapunov_monte_carlo": lambda a: {"ergodic.mc_steps": a["n"] * a["trials"]},
    "splitting.sample_nu_ss_angles": lambda a: {"splitting.direction_samples": a["count"]},
    "splitting.sample_e_s_angles": lambda a: {"splitting.direction_samples": a["count"]},
    "ifs.sample_measure": lambda a: {"ifs.sample_steps": a["depth"] * a["count"]},
    "render.render_cylinders": lambda a: {"render.polygons": a["sys"].n ** a["spec"].depth},
    "render.render_chaos": lambda a: {"render.chaos_points": a["spec"].count},
}

# counters that keep the largest value seen instead of a sum
MAXIMA = {"pressure.word_log_singulars": lambda a: {"pressure.depth_max": a["n"]}}


class Tracer:
    """Span self times, span call counts and exact counters, kept in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.top_level_s = 0.0  # summed durations of spans with no parent
        self._open = []  # per open span: time covered by its child spans

    def span(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        start = self.clock()
        self._open.append(0.0)
        try:
            return fn(*args, **kwargs)
        finally:
            duration = self.clock() - start
            self.self_s[name] += duration - self._open.pop()
            self.calls[name] += 1
            if self._open:
                self._open[-1] += duration
            else:
                self.top_level_s += duration

    def add(self, counts: dict):
        self.counts.update(counts)

    def high(self, counts: dict):
        for k, v in counts.items():
            self.counts[k] = max(self.counts[k], v)


def _wrapper(tracer, name, fn):
    counter, maximum = COUNTERS.get(name), MAXIMA.get(name)
    sig = inspect.signature(fn) if counter or maximum else None
    traced = name in SPAN_NAMES

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if sig is not None:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
        result = tracer.span(name, fn, *args, **kwargs) if traced else fn(*args, **kwargs)
        if counter:
            tracer.add(counter(a))
        if maximum:
            tracer.high(maximum(a))
        return result

    return wrapper


@contextmanager
def instrumented(tracer: Tracer):
    """Wrap the layer functions in every loaded ``affdim`` module; undo on exit.

    Yields the names that were not found, so a renamed function shows up in
    the output instead of silently dropping out of the trace.
    """
    import affdim.cli  # noqa: F401  -- loads every layer module

    targets, missing = {}, []
    for name in SPAN_NAMES | set(COUNTERS):
        layer, func = name.split(".")
        module = sys.modules[f"affdim.{layer}"]
        fn = getattr(module, func, None)
        if fn is None:
            missing.append(name)
        else:
            targets[id(fn)] = (fn, _wrapper(tracer, name, fn))
    patched = []
    for modname, module in list(sys.modules.items()):
        if modname != "affdim" and not modname.startswith("affdim."):
            continue
        for attr, value in list(vars(module).items()):
            hit = targets.get(id(value))
            if hit is not None and hit[0] is value:
                patched.append((module, attr, value))
                setattr(module, attr, hit[1])
    try:
        yield sorted(missing)
    finally:
        for module, attr, value in patched:
            setattr(module, attr, value)
