"""The package's number rules: a real is a float or what a float holds,
and an integer that no float holds is refused with a typed error where it
is read, before any solve starts."""

import sys

import numpy as np
import pytest

from proxsplit import ct, linops, prox, solvers
from proxsplit.errors import ParameterError, check_real

BIG = 10**400

# Each entry point that reads a real, given an integer beyond float range.
ENTRY_POINTS = {
    "Scaled": lambda: prox.Scaled(prox.L1Norm(2), BIG),
    "L1Pair.a": lambda: prox.L1Pair(BIG, 0.5, np.zeros(2)),
    "L1Pair.b": lambda: prox.L1Pair(0.5, BIG, np.zeros(2)),
    "BoxIndicator.lo": lambda: prox.BoxIndicator(2, lo=-BIG),
    "BoxIndicator.hi": lambda: prox.BoxIndicator(2, hi=BIG),
    "ProxTerm.prox": lambda: prox.L1Norm(2).prox(np.ones(2), BIG),
    "Scene.noise_var_b": lambda: ct.Scene(noise_var_b=BIG),
    "Scene.noise_var_prior": lambda: ct.Scene(noise_var_prior=BIG),
    "Scene.lambda1": lambda: ct.Scene(lambda1=BIG),
    "Scene.lambda2": lambda: ct.Scene(lambda2=BIG),
    "add_gaussian_noise": lambda: ct.add_gaussian_noise(np.ones(2), BIG, 0),
    "LinearOperator.norm_sq": lambda: linops.LinearOperator(
        np.eye(2), norm_sq=BIG),
    "op_norm_sq.tol": lambda: linops.op_norm_sq(linops.identity(2), BIG),
    "SmoothTerm.lipschitz": lambda: solvers.SmoothTerm(
        lambda x: 0.0, lambda x: x, BIG),
    "SolverConfig.rho": lambda: solvers.SolverConfig("admm", rho=BIG),
    "SolverConfig.eps": lambda: solvers.SolverConfig("dfb", eps=BIG),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_an_integer_no_float_holds_is_refused(entry):
    with pytest.raises(ParameterError):
        ENTRY_POINTS[entry]()


def test_check_real_returns_the_float_it_accepts():
    top = sys.float_info.max
    for value, want in ((2, 2.0), (np.float32(0.5), 0.5), (np.int64(3), 3.0),
                        (top, top), (int(top), top)):
        got = check_real("value", value)
        assert type(got) is float and got == want
    for bad in (np.inf, 2 * int(top), np.nan, True):
        with pytest.raises(ParameterError):
            check_real("value", bad, positive=False)
