"""numpy, executed on first attribute access, and the lazy import behind it.

``ssc``, ``hochman``, ``--help`` and input errors run on Fractions alone, and
``analyze`` and ``lyapunov`` on lower-triangular input on Fractions, Python
floats and ``math``, and certifying a dominated splitting executes no numpy
on any system.  A word enumeration runs on Python floats and libm too while
it stays within ``pressure.WORD_BLOCK`` (2^15) words: a pressure depth of at
most that many words, or an enclosure depth of at most that many words times
arcs, so ``analyze`` on hl-demo and ``pressure --example sec44 --n 8`` never
execute numpy either.  Every module takes ``np`` from here and only a
process that calls into numpy pays its ~115 ms import.  ``LazyLoader`` turns
the module into a plain one on first use; a missing numpy still fails
``import affdim`` at once.

``cli`` takes its layer modules from :func:`_lazy` as well, so a command
executes only the layers it uses.  They stay in ``sys.modules`` from the
import of ``cli`` on, where the benchmark's tracer (``perfbench/spans.py``)
reads every layer it wraps.
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
