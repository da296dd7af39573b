"""Variational discriminant analysis with per-variable selection.

Two classifiers over independent Gaussian variables: a linear variant with a
shared group variance (VLDA) and a quadratic variant with group-specific
variances (VQDA).  Each variable carries a selection probability w_j updated
by fast collapsed variational cycles; prediction plugs the trained w into a
diagonal discriminant rule.  An exact enumeration oracle, a simulation
generator, evaluation harness, CSV/JSON I/O, and a CLI round out the package.
"""

__version__ = "0.1.0"

from . import core, dataio, evalharness, oracle, rcvb, simgen
from .core import *
from .dataio import *
from .evalharness import *
from .oracle import *
from .rcvb import *
from .simgen import *

__all__ = [
    *core.__all__,
    *rcvb.__all__,
    *oracle.__all__,
    *simgen.__all__,
    *evalharness.__all__,
    *dataio.__all__,
]
