"""Dimension computation and certification for planar self-affine sets and
measures: singular value pressure, Lyapunov exponents, dominated-splitting
and separation certificates, and the theorem engine combining them.

Every name below, and every submodule, loads on first access (PEP 562), so
``import affdim`` executes none of the layers.  It does import the numpy
helper, so a missing numpy fails it at once."""

import importlib

from . import _numpy  # noqa: F401  -- fails at once without numpy

_EXPORTS = {
    "dimension": ("DimensionReport", "analyze", "analyze_targets",
                  "correlation_dimension_estimate", "hueter_lalley_check",
                  "lower_bound_iteration", "ly_dimension_formula"),
    "ergodic": ("ExponentTriple", "entropy", "lyapunov_dimension", "lyapunov_enclosure",
                "lyapunov_monte_carlo", "lyapunov_triangular"),
    "hochman": ("DeltaReport", "LineIfs", "delta_n", "hochman_rate"),
    "ifs": ("AffineMap", "BernoulliWeights", "EstimateSeries", "IfsSystem", "Polygon", "SscReport",
            "box_dimension_estimate", "check_ssc", "check_triangular_split", "compose_word",
            "natural_projection", "parse_system", "sample_measure", "serialize_system"),
    "linalg2": ("Mat2", "ProjArc", "ProjPoint", "SingularPair", "arc_image", "phi_s",
                "proj_act", "proj_metric", "singular_values"),
    "pressure": ("RootEstimate", "pressure_n", "pressure_root", "triangular_pressure",
                 "triangular_roots"),
    "splitting": ("Multicone", "SplitReport", "certify", "check_multicone_invariance",
                  "min_angle_separation", "stable_direction", "strong_stable_direction"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "errors", "library", "render"}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_HOME) | _SUBMODULES)
