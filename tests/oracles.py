"""Independent brute-force oracles used only by the tests.

These never call the closed-form prox implementations they check: the prox
oracle minimizes 0.5||x-u||^2 + t f(x) by coarse grid search over
[-10, 10]^dim followed by local refinement, and the problem oracle does the
same for full composite objectives in dimension <= 4.  ``CountingOperator``
counts the products a solver or a stack makes with an operator.
``siddon_projector_oracle`` builds the CT system matrix one ray at a time.
``stacked_conjugate_prox`` is a stack's conjugate prox by Moreau's
identity, the reference for the scaled duals dfb and pdfb carry;
``prox_weighted_conjugate`` is the closed form of one block's conjugate
prox under a w-weighted inner product, its reference on weighted stacks.
"""

import itertools
import math

import numpy as np
import scipy.sparse as sp
from scipy.optimize import minimize

from proxsplit import linops
from proxsplit.ct import SOURCE_RADIUS
from proxsplit.errors import ParameterError, as_vector, check_real
from proxsplit.prox import prox_conjugate


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


def stacked_conjugate_prox(stack, y, t):
    """Prox of t sum_i h_i* under the stack's inner product at a dual y.

    Moreau's identity in that space gives it from ``stack.stacked_prox``:
    y - t p with p = stacked_prox(y / t, 1 / t).
    """
    check_real("prox step", t)
    y = as_vector(y)
    return y - t * stack.stacked_prox(y / t, 1.0 / t)


def prox_weighted_conjugate(f, w, u, t):
    """Block conjugate prox under a w-weighted inner product.

    Returns (1/w) prox_{w t f*}(w u); with w = 1 this is the plain
    conjugate prox.
    """
    if not 0 < w <= 1:
        raise ParameterError(f"weight must lie in (0, 1], got {w}")
    check_real("prox step", t)
    u = as_vector(u)
    return prox_conjugate(f, w * u, w * t) / w


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


def _ray_row(n, p0, d):
    """Siddon traversal: pixel indices and intersection lengths of the ray
    p0 + t*d (t in R) with the n x n grid on [-1, 1]^2."""
    tmin, tmax = -np.inf, np.inf
    for axis in range(2):
        if d[axis] != 0.0:
            t1 = (-1.0 - p0[axis]) / d[axis]
            t2 = (1.0 - p0[axis]) / d[axis]
            tmin = max(tmin, min(t1, t2))
            tmax = min(tmax, max(t1, t2))
        elif not -1.0 <= p0[axis] <= 1.0:
            return np.empty(0, dtype=int), np.empty(0)
    if not tmin < tmax:
        return np.empty(0, dtype=int), np.empty(0)
    planes = np.linspace(-1.0, 1.0, n + 1)
    ts = [np.array([tmin, tmax])]
    for axis in range(2):
        if d[axis] != 0.0:
            cand = (planes - p0[axis]) / d[axis]
            ts.append(cand[(cand > tmin) & (cand < tmax)])
    ts = np.unique(np.concatenate(ts))
    seg = np.diff(ts)
    speed = math.hypot(d[0], d[1])
    mid_t = (ts[:-1] + ts[1:]) / 2.0
    mx = p0[0] + mid_t * d[0]
    my = p0[1] + mid_t * d[1]
    cols = np.clip(((mx + 1.0) / 2.0 * n).astype(int), 0, n - 1)
    rows = np.clip(((1.0 - my) / 2.0 * n).astype(int), 0, n - 1)
    keep = seg > 0
    idx = rows[keep] + cols[keep] * n       # column-major pixel index
    return idx, seg[keep] * speed


def siddon_projector_oracle(scene):
    """The CT system matrix of ``scene`` (a ``scipy.sparse`` CSR matrix),
    built by Siddon's traversal one ray at a time."""
    n = scene.n
    offsets = -1.0 + (np.arange(scene.n_rays) + 0.5) * 2.0 / scene.n_rays
    if scene.geometry == "fan":
        angles = np.arange(scene.n_views) * 2.0 * math.pi / scene.n_views
    else:
        angles = np.arange(scene.n_views) * math.pi / scene.n_views
    data, indices, indptr = [], [], [0]
    for theta in angles:
        axis = np.array([math.cos(theta), math.sin(theta)])
        perp = np.array([-math.sin(theta), math.cos(theta)])
        for t in offsets:
            if scene.geometry == "fan":
                p0 = SOURCE_RADIUS * axis
                d = t * perp - p0
                nd = math.hypot(d[0], d[1])
                d = d / nd
            else:
                p0 = t * perp
                d = axis
            idx, lengths = _ray_row(n, p0, d)
            indices.extend(idx.tolist())
            data.extend(lengths.tolist())
            indptr.append(len(data))
    return sp.csr_matrix(
        (np.array(data), np.array(indices, dtype=int), np.array(indptr)),
        shape=(scene.n_views * scene.n_rays, n * n))
