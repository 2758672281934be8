"""Exact arithmetic for groupoid-graded rings and their structure theory.

The layers above groupoids and fields are registered lazily: each is in
``sys.modules`` and an attribute of the package from the start, but its
code is compiled and run on the first attribute access.  A command-line
process then pays only for the layers its verb uses.  Modules that bind
one of them for later use write ``from . import structure`` and call
``structure.classify(...)``; ``from .structure import classify`` loads it
at once.
"""

import importlib.util
import sys

__version__ = "0.1.0"

_LAZY = ("division", "matrices", "elimination", "matrix_ring", "modules", "structure", "categories")


def _register_lazy(name):
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    loader.exec_module(module)
    return module


for _name in _LAZY:
    globals()[_name] = _register_lazy(_name)
del _name
