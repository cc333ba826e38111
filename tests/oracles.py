"""Independent brute-force oracles used only by the tests.

These never call the closed-form prox implementations they check: the prox
oracle minimizes 0.5||x-u||^2 + t f(x) by coarse grid search over
[-10, 10]^dim followed by local refinement, and the problem oracle does the
same for full composite objectives in dimension <= 4.  ``CountingOperator``
counts the products a solver or a stack makes with an operator.
"""

import itertools

import numpy as np
from scipy.optimize import minimize

from proxsplit import linops


class CountingOperator(linops.LinearOperator):
    """A LinearOperator that counts its apply and adjoint_apply calls."""

    def __init__(self, op):
        super().__init__(op.matrix)
        self.applies = self.adjoints = 0

    def apply(self, x):
        self.applies += 1
        return super().apply(x)

    def adjoint_apply(self, y):
        self.adjoints += 1
        return super().adjoint_apply(y)

    def counts(self):
        return self.applies, self.adjoints


def prox_objective(value_fn, u, t):
    u = np.asarray(u, dtype=float)

    def obj(x):
        x = np.asarray(x, dtype=float)
        return 0.5 * float((x - u) @ (x - u)) + t * value_fn(x)

    return obj


def grid_argmin(obj, dim, lo=-10.0, hi=10.0, points=81):
    """Best point of a uniform grid over [lo, hi]^dim."""
    axis = np.linspace(lo, hi, points)
    best, best_val = None, np.inf
    for combo in itertools.product(axis, repeat=dim):
        x = np.array(combo)
        v = obj(x)
        if v < best_val:
            best, best_val = x, v
    return best


def refine(obj, x0, rounds=4):
    """Nelder-Mead polish of a grid minimizer (robust to kinks)."""
    x = np.asarray(x0, dtype=float)
    for _ in range(rounds):
        res = minimize(obj, x, method="Nelder-Mead",
                       options={"xatol": 1e-10, "fatol": 1e-14,
                                "maxiter": 20_000})
        x = res.x
    return x


def prox_oracle(value_fn, u, t, lo=-10.0, hi=10.0):
    """argmin 0.5||x-u||^2 + t f(x) for dim <= 3, by grid + refinement."""
    u = np.asarray(u, dtype=float).ravel()
    obj = prox_objective(value_fn, u, t)
    points = {1: 201, 2: 61, 3: 21}[u.size]
    start = grid_argmin(obj, u.size, lo, hi, points)
    cands = [refine(obj, start), refine(obj, u)]
    return min(cands, key=obj)


def box_prox_oracle(value_fn, u, t, lo, hi):
    """Constrained variant for terms that are +inf outside [lo, hi]^dim."""
    u = np.asarray(u, dtype=float).ravel()
    obj = prox_objective(value_fn, u, t)
    res = minimize(obj, np.clip(u, lo, hi), method="L-BFGS-B",
                   bounds=[(lo, hi)] * u.size,
                   options={"ftol": 1e-15, "gtol": 1e-12})
    return res.x


def problem_oracle(obj, dim, lo=-10.0, hi=10.0, points=41):
    """argmin of a composite objective in dim <= 4 by grid + refinement."""
    start = grid_argmin(obj, dim, lo, hi, points)
    return refine(obj, start, rounds=6)


def golden_min(fn, lo, hi, tol=1e-12):
    """Golden-section minimizer of a unimodal scalar function."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
    return (a + b) / 2.0
