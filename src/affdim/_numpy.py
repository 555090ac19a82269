"""numpy, executed on first attribute access, and the lazy import behind it.

``ssc``, ``hochman``, ``--help`` and input errors run on Fractions alone, and
``analyze`` and ``lyapunov`` on lower-triangular input on Fractions, Python
floats and ``math``, and certifying a dominated splitting executes no numpy
on any system.  Each word-walk formula runs as its list instance, on Python
floats and libm, while the walk stays within ``pressure.WORD_BLOCK`` (2^15)
words (times arcs, for an enclosure depth), so ``analyze`` on hl-demo and
``pressure --example hl-demo --n 15`` never execute numpy either; the array
instance binds its numpy ops on first use (``linalg2.numpy_ops``).  Every
module takes ``np`` from here and only a process that calls into numpy pays
its ~115 ms import.  ``LazyLoader`` turns the module into a plain one on first
use; a missing numpy still fails ``import affdim`` at once.

``cli`` takes its layer modules from :func:`_lazy` as well, so a command
executes only the layers it uses.  ``--help`` executes ``hochman`` (with
``errors`` and ``_record``, as every command does).  ``ssc``, ``boxdim`` and
``hochman`` add ``library``, ``ifs`` and ``linalg2``: the box-count estimator
lives in ``ifs``, the line system of a planar config in ``hochman``.  On top
of those, ``pressure`` executes ``pressure``, ``lyapunov`` ``ergodic`` and
``pressure``, ``directions`` ``splitting``, and ``render`` ``render``.  Only
``analyze`` executes ``dimension`` and, through it, every layer but
``render``.  The layers stay in ``sys.modules`` from the import of ``cli``
on, where the benchmark's tracer (``perfbench/spans.py``) reads every layer
it wraps.
"""

import importlib.util
import sys


def _lazy(name):
    """The module ``name``, executed on its first attribute access.  A module
    already in ``sys.modules`` (imported, or lazy) is returned untouched, and
    a submodule is bound on its package, as an import would bind it, so
    ``from . import name`` does not execute it either."""
    module = sys.modules.get(name)
    if module is not None:  # never execute a module twice
        return module
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    package, _, child = name.rpartition(".")
    if package:
        setattr(sys.modules[package], child, module)
    return module


np = _lazy("numpy")
