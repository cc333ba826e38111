"""Proximity operators: closed forms plus the conjugate/translation/scaling
calculus used by the solvers.

Conjugate proxes are never evaluated from an explicit conjugate function;
they go through the Moreau decomposition
``prox_{t f*}(u) = u - t prox_{f/t}(u/t)``.
"""

import numbers

import numpy as np

from .errors import (DimensionError, ParameterError, as_vector, check_count,
                     check_real)

__all__ = [
    "ProxTerm", "L1Norm", "L1Pair", "GroupL21", "BoxIndicator", "ZeroTerm",
    "Translated", "Scaled", "prox_conjugate",
]


class ProxTerm:
    """A convex function known through its value and its prox.

    ``prox(u, t)`` returns the minimizer of ``0.5 ||x - u||^2 + t f(x)``;
    ``value(x)`` may be +inf for indicators.  These two check each call once
    and pass a float vector of length ``dim`` (and a step t > 0) to the
    closed forms ``_value(x)`` and ``_prox(u, t)`` that each term writes.
    """

    def __init__(self, dim):
        self.dim = check_count("dim", dim, error=DimensionError)

    def value(self, x):
        return self._value(as_vector(x, self.dim))

    def prox(self, u, t):
        return self._prox(as_vector(u, self.dim), check_real("prox step", t))


class L1Norm(ProxTerm):
    def _value(self, x):
        return float(np.abs(x).sum())

    def _prox(self, u, t):
        """Soft threshold each component at level t."""
        return u - np.clip(u, -t, t)


class L1Pair(ProxTerm):
    """x -> a ||x - c||_1 + b ||x||_1 with reals a, b >= 0 and a finite c."""

    def __init__(self, a, b, c):
        c = as_vector(c, what="shift", finite=True)
        super().__init__(c.size)
        self.a = check_real("a", a, positive=False)
        self.b = check_real("b", b, positive=False)
        self.c, self.k1, self.k2 = c, np.minimum(c, 0.0), np.maximum(c, 0.0)
        self.m = np.where(c > 0, b - a, a - b)

    def _value(self, x):
        # a weight of 0 adds 0, also where x is infinite (0 * inf is NaN)
        return float((self.a and self.a * np.abs(x - self.c).sum())
                     + (self.b and self.b * np.abs(x).sum()))

    def _prox(self, u, t):
        """Componentwise u - s above k2, u - t m between, u + s below k1."""
        s = t * (self.a + self.b)
        # four clamps in two arrays, operands in order for signs of zero
        x, y = np.multiply(t, self.m), np.subtract(u, s)
        np.minimum(np.subtract(u, x, out=x), np.maximum(self.k2, y, out=y),
                   out=x)
        np.maximum(self.k1, x, out=x)
        return np.minimum(np.add(u, s, out=y), x, out=x)


class GroupL21(ProxTerm):
    """||.||_{2,1} with the pairing (x_i, x_{p+i}), dim = 2p."""

    def __init__(self, dim):
        super().__init__(dim)
        if dim % 2:
            raise DimensionError("GroupL21 needs even dim")

    def _value(self, x):
        p = self.dim // 2
        return float(np.hypot(x[:p], x[p:]).sum())

    def _prox(self, u, t):
        """Group soft threshold of each pair (u_i, u_{p+i}); a pair whose
        norm is at most t, or NaN, is scaled by 0."""
        p = self.dim // 2
        a, b = u[:p], u[p:]
        scale = np.maximum(1.0 - t / np.fmax(np.hypot(a, b), t), 0.0)
        return np.concatenate([a * scale, b * scale])


class BoxIndicator(ProxTerm):
    """Indicator of the box [lo, hi]^dim; prox is the clamp for every t."""

    def __init__(self, dim, lo=0.0, hi=np.inf):
        super().__init__(dim)
        try:        # a bound may be inf, but not a finite one no float holds
            ok = all(isinstance(v, numbers.Real) and not isinstance(v, bool)
                     and (abs(v) == np.inf or abs(float(v)) < np.inf)
                     for v in (lo, hi)) and lo <= hi
        except OverflowError:
            ok = False
        if not ok:
            raise ParameterError(f"box needs reals lo <= hi, each inf or "
                                 f"held by a float: {lo!r}, {hi!r}")
        self.lo, self.hi = lo, hi

    def _value(self, x):
        # two reductions, no temporaries; a NaN fails both comparisons
        if self.lo <= x.min() and x.max() <= self.hi:
            return 0.0
        return np.inf

    def _prox(self, u, t):
        return np.clip(u, self.lo, self.hi)


class ZeroTerm(ProxTerm):
    """The zero function; its prox is the identity."""

    def _value(self, x):
        return 0.0

    def _prox(self, u, t):
        return u.copy()


class Translated(ProxTerm):
    """x -> f(x - c)."""

    def __init__(self, inner, c):
        super().__init__(inner.dim)
        self.inner = inner
        self.c = as_vector(c, inner.dim, "shift", finite=True)

    def _value(self, x):
        return self.inner._value(x - self.c)

    def _prox(self, u, t):
        return self.c + self.inner._prox(u - self.c, t)


class Scaled(ProxTerm):
    """x -> s f(x) for s > 0."""

    def __init__(self, inner, s):
        super().__init__(inner.dim)
        self.inner = inner
        self.s = check_real("scale", s)

    def _value(self, x):
        return self.s * self.inner._value(x)

    def _prox(self, u, t):
        return self.inner._prox(u, check_real("prox step", self.s * t))


def prox_conjugate(f, u, t):
    """prox of t f* at u, via the Moreau decomposition."""
    check_real("prox step", t)
    u = as_vector(u)
    return u - t * f.prox(u / t, 1.0 / t)

