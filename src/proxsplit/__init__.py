"""Proximal splitting solvers for multi-block composite convex problems
min f(x) + g(x) + sum_i h_i(B_i x), with a CT reconstruction harness."""

from . import ct, errors, linops, product, prox, solvers
from .errors import *
from .linops import *
from .prox import *
from .product import *
from .solvers import *
from .ct import *

__all__ = [name for m in (errors, linops, prox, product, solvers, ct)
           for name in m.__all__]
__version__ = "0.1.0"
