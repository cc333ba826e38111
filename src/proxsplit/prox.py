"""Proximity operators: closed forms plus the conjugate/translation/scaling
calculus used by the solvers.

Conjugate proxes are never evaluated from an explicit conjugate function;
they go through the Moreau decomposition
``prox_{t f*}(u) = u - t prox_{f/t}(u/t)``.
"""

import numpy as np

from .errors import DimensionError, ParameterError

__all__ = [
    "ProxTerm", "L1Norm", "GroupL21", "BoxIndicator", "ZeroTerm",
    "Translated", "Scaled", "prox_conjugate",
]


def _vec(u):
    return np.asarray(u, dtype=float).ravel()


def _check_step(t):
    if not t > 0:
        raise ParameterError(f"prox step must be positive, got {t}")


class ProxTerm:
    """A convex function known through its value and its prox.

    ``prox(u, t)`` returns the minimizer of ``0.5 ||x - u||^2 + t f(x)``;
    ``value(x)`` may be +inf for indicators.
    """

    def __init__(self, dim):
        if dim < 1:
            raise DimensionError("ProxTerm needs dim >= 1")
        self.dim = dim

    def _check(self, x):
        x = _vec(x)
        if x.size != self.dim:
            raise DimensionError(
                f"expected length {self.dim}, got {x.size}")
        return x

    def value(self, x):
        raise NotImplementedError

    def prox(self, u, t):
        raise NotImplementedError


class L1Norm(ProxTerm):
    def value(self, x):
        return float(np.abs(self._check(x)).sum())

    def prox(self, u, t):
        """Soft threshold each component at level t."""
        u = self._check(u)
        _check_step(t)
        return u - np.clip(u, -t, t)


class GroupL21(ProxTerm):
    """||.||_{2,1} with the pairing (x_i, x_{p+i}), dim = 2p."""

    def __init__(self, dim):
        if dim % 2:
            raise DimensionError("GroupL21 needs even dim")
        super().__init__(dim)

    def value(self, x):
        x = self._check(x)
        p = self.dim // 2
        return float(np.hypot(x[:p], x[p:]).sum())

    def prox(self, u, t):
        """Group soft threshold of each pair (u_i, u_{p+i})."""
        u = self._check(u)
        _check_step(t)
        p = self.dim // 2
        a, b = u[:p], u[p:]
        norms = np.hypot(a, b)
        scale = np.zeros(p)
        pos = norms > 0
        scale[pos] = np.maximum(1.0 - t / norms[pos], 0.0)
        return np.concatenate([a * scale, b * scale])


class BoxIndicator(ProxTerm):
    """Indicator of the box [lo, hi]^dim; prox is the clamp for every t."""

    def __init__(self, dim, lo=0.0, hi=np.inf):
        super().__init__(dim)
        if lo > hi:
            raise ParameterError(f"empty box: lo={lo} > hi={hi}")
        self.lo = lo
        self.hi = hi

    def value(self, x):
        x = self._check(x)
        # two reductions, no temporaries; a NaN fails both comparisons
        if self.lo <= x.min() and x.max() <= self.hi:
            return 0.0
        return np.inf

    def prox(self, u, t):
        _check_step(t)
        return np.clip(self._check(u), self.lo, self.hi)


class ZeroTerm(ProxTerm):
    """The zero function; its prox is the identity."""

    def value(self, x):
        self._check(x)
        return 0.0

    def prox(self, u, t):
        _check_step(t)
        return self._check(u).copy()


class Translated(ProxTerm):
    """x -> f(x - c)."""

    def __init__(self, inner, c):
        super().__init__(inner.dim)
        c = _vec(c)
        if c.size != inner.dim:
            raise DimensionError(
                f"shift length {c.size} != term dim {inner.dim}")
        self.inner = inner
        self.c = c

    def value(self, x):
        return self.inner.value(self._check(x) - self.c)

    def prox(self, u, t):
        return self.c + self.inner.prox(self._check(u) - self.c, t)


class Scaled(ProxTerm):
    """x -> s f(x) for s > 0."""

    def __init__(self, inner, s):
        if not s > 0:
            raise ParameterError(f"scale must be positive, got {s}")
        super().__init__(inner.dim)
        self.inner = inner
        self.s = float(s)

    def value(self, x):
        return self.s * self.inner.value(x)

    def prox(self, u, t):
        _check_step(t)
        return self.inner.prox(u, self.s * t)


def prox_conjugate(f, u, t):
    """prox of t f* at u, via the Moreau decomposition."""
    _check_step(t)
    u = _vec(u)
    return u - t * f.prox(u / t, 1.0 / t)

