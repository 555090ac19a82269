"""numpy, executed on first attribute access.

``ssc``, ``hochman``, ``--help`` and input errors run on Fractions alone, so
every module takes ``np`` from here and only a process that calls into numpy
pays its ~170 ms import.  ``LazyLoader`` turns the module into a plain one on
first use; a missing numpy still fails ``import affdim`` at once.

Only numpy is deferred: the benchmark's tracer (``perfbench/spans.py``)
imports ``affdim.cli`` and then reads ``sys.modules["affdim.<layer>"]`` for
every layer it wraps, so each layer module stays an eager import.
"""

import importlib.util
import sys


def _lazy(name):
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    if name in sys.modules:  # imported before affdim: never execute it twice
        return sys.modules[name]
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


np = _lazy("numpy")
