"""Proximal splitting solvers for multi-block composite convex problems
min f(x) + g(x) + sum_i h_i(B_i x), with a CT reconstruction harness."""

from .errors import (DimensionError, DivergenceError, ParameterError,
                     ProxsplitError)
from .linops import (LinearOperator, atv, dense, first_difference, identity,
                     itv, op_norm_sq, safe_norm_sq, sparse, tv_gradient, zero)
from .prox import (BoxIndicator, GroupL21, L1Norm, L1Pair, ProxTerm,
                   Scaled, Translated, ZeroTerm, prox_conjugate)
from .product import BlockStack
from .solvers import (CompositeProblem, PiccsProblem, SmoothTerm,
                      SolverConfig, SolveReport, objective,
                      quadratic_data_term, solve_admm, solve_dfb,
                      solve_pdfb, validate_params)
from .ct import (PiccsInstance, Scene, add_gaussian_noise, build_instance,
                 build_projector, nmsd, run_experiment, shepp_logan, snr)

__version__ = "0.1.0"
