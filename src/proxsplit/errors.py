"""Exception types shared across the package, and its one rule for each
kind of argument: a count (:func:`check_count`), a real (:func:`check_real`),
an array of reals (:func:`check_reals`) and a vector (:func:`as_vector`).
A bool is no count, real or vector.  Only the exceptions are exported.
"""

import math
import numbers
import operator

import numpy as np
import scipy.sparse as sp

__all__ = ["ProxsplitError", "DimensionError", "ParameterError",
           "DivergenceError"]


class ProxsplitError(Exception):
    """Base class for all package errors."""


class DimensionError(ProxsplitError):
    """A vector or operator was used with mismatched dimensions."""


class ParameterError(ProxsplitError):
    """A scalar parameter violates its admissible range."""


class DivergenceError(ProxsplitError):
    """An iterate became non-finite during a solve."""

    def __init__(self, message, iteration=None):
        super().__init__(message)
        self.iteration = iteration


def check_count(name, value, least=1, error=ParameterError):
    """``value`` as an int, if it is an integer >= ``least`` (any integer
    when ``least`` is None) and not a bool; otherwise raise ``error``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) \
            or least is not None and value < least:
        bound = "" if least is None else f" >= {least}"
        raise error(f"{name} must be an integer{bound}, got {value!r}")
    return operator.index(value)


def check_real(name, value, positive=True):
    """``value`` as a float, if it is a real that is not a bool, whose
    float is finite (so not inf, nor an integer beyond float range) and
    > 0, or >= 0 when ``positive`` is false; otherwise raise
    ParameterError."""
    # float first: isinstance against the numbers.Real ABC alone costs
    # about ten times as much, and prox steps are checked every iteration.
    if isinstance(value, (float, numbers.Real)) \
            and not isinstance(value, bool):
        try:
            real = float(value)
        except OverflowError:       # an integer beyond float range
            real = math.nan
        if (0 < real if positive else 0 <= real) and real < math.inf:
            return real
    rule = "positive and finite" if positive else "finite and >= 0"
    raise ParameterError(f"{name} must be {rule}, got {value!r}")


def check_reals(u, what="vector", sparse=False):
    """``u`` as a numpy array, or as it is if ``sparse`` and it is a
    scipy.sparse array, when its entries are reals: an integer or float
    dtype, or objects that are all reals and no bools, made floats here.
    DimensionError for a ragged input, an integer beyond float range, or a
    bool, complex, string or other entry, which numpy would cast or parse."""
    try:
        u = u if sparse and sp.issparse(u) else np.asarray(u)
        if u.dtype.kind == "O" and all(
                isinstance(v, numbers.Real) and not isinstance(v, bool)
                for v in u.flat):
            u = u.astype(float)
    except (TypeError, ValueError, OverflowError) as err:
        raise DimensionError(f"{what} is no array of reals: {err}") from err
    if u.dtype.kind in "iuf":
        return u
    raise DimensionError(
        f"{what} is no array of reals: its {u.dtype} entries are not all "
        "reals")


def as_vector(u, size=None, what="vector", finite=False):
    """``u`` as a flat float array, not copied when it already is one;
    DimensionError unless it is an array of reals (see :func:`check_reals`)
    with ``size`` entries, when ``size`` is given; ParameterError if
    ``finite`` and an entry is not."""
    u = check_reals(u, what).astype(float, copy=False).ravel()
    if size is not None and u.size != size:
        raise DimensionError(f"{what} has length {u.size}, expected {size}")
    if finite and not np.isfinite(u).all():
        raise ParameterError(f"{what} has non-finite entries")
    return u
