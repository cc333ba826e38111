import numpy as np
import pytest

from proxsplit import prox
from proxsplit.errors import DimensionError, ParameterError

from oracles import (box_prox_oracle, prox_oracle,
                     prox_weighted_conjugate)


def sample_terms():
    """One instance of every prox term, at small dimension."""
    return [
        prox.L1Norm(3),
        prox.GroupL21(2),
        prox.BoxIndicator(3, 0.0, 1.0),
        prox.ZeroTerm(3),
        prox.Translated(prox.L1Norm(3), np.array([1.0, -0.5, 0.0])),
        prox.Scaled(prox.L1Norm(3), 0.7),
    ]


# ------------------------------------------------------------ L1Norm.prox


def test_prox_l1_zero_fixed_point():
    assert np.array_equal(prox.L1Norm(2).prox([0.0, 0.0], 1.0), [0.0, 0.0])


def test_prox_l1_soft_threshold():
    assert np.array_equal(prox.L1Norm(2).prox([2.0, -0.5], 1.0),
                          [1.0, 0.0])


def test_prox_l1_matches_oracle():
    got = prox.L1Norm(2).prox([2.0, -0.5], 1.0)
    want = prox_oracle(lambda x: np.abs(x).sum(), [2.0, -0.5], 1.0)
    assert np.allclose(got, want, atol=1e-4)


def test_prox_l1_small_step_is_identity_limit():
    u = np.array([1.5, -2.0])
    assert np.allclose(prox.L1Norm(2).prox(u, 1e-12), u, atol=1e-11)


def test_prox_l1_matches_sign_max_formula():
    # u - clip(u, -t, t) equals sign(u) max(|u| - t, 0) bit for bit (up to
    # the sign of zero), including at |u| = t, 0, +-inf and NaN
    rng = np.random.default_rng(11)
    t = 0.3
    u = np.concatenate([rng.standard_normal(2000) * rng.choice(
        [1e-3, 1.0, 1e3], 2000), [t, -t, 0.0, -0.0, np.inf, -np.inf, np.nan]])
    for step in (t, 1.7, 1e-9):
        want = np.sign(u) * np.maximum(np.abs(u) - step, 0.0)
        got = prox.L1Norm(u.size).prox(u, step)
        assert np.array_equal(got, want, equal_nan=True)


def test_prox_l1_rejects_nonpositive_step():
    with pytest.raises(ParameterError):
        prox.L1Norm(1).prox([1.0], 0.0)


# ---------------------------------------------------------- GroupL21.prox


def test_prox_l21_zero_fixed_point():
    assert np.array_equal(prox.GroupL21(4).prox(np.zeros(4), 1.0),
                          np.zeros(4))


def test_prox_l21_pair_scaling():
    # pairs (3, 4) and (0, 0): norms 5 and 0
    got = prox.GroupL21(4).prox([3.0, 0.0, 4.0, 0.0], 1.0)
    assert np.allclose(got, [3.0 * 0.8, 0.0, 4.0 * 0.8, 0.0])


def test_prox_l21_matches_oracle_per_pair():
    u = np.array([1.2, -0.7])
    got = prox.GroupL21(2).prox(u, 0.5)
    want = prox_oracle(lambda x: np.hypot(x[0], x[1]), u, 0.5)
    assert np.allclose(got, want, atol=1e-4)


def test_prox_l21_threshold_boundary():
    # pair with norm exactly t collapses to zero
    got = prox.GroupL21(2).prox([0.6, 0.8], 1.0)
    assert np.array_equal(got, [0.0, 0.0])


def test_prox_l21_rejects_odd_length():
    with pytest.raises(DimensionError):
        prox.GroupL21(3)


# ------------------------------------------------------ BoxIndicator.prox


def test_project_box_nonnegative():
    assert np.array_equal(
        prox.BoxIndicator(2, 0.0, np.inf).prox([-1.0, 2.0], 1.0), [0.0, 2.0])


def test_project_box_fixes_members():
    u = np.array([0.2, 0.9])
    assert np.array_equal(prox.BoxIndicator(2, 0.0, 1.0).prox(u, 1.0), u)


def test_project_box_clamps():
    assert np.array_equal(prox.BoxIndicator(1, 0.0, 1.0).prox([5.0], 1.0),
                          [1.0])


def test_project_box_rejects_empty_box():
    with pytest.raises(ParameterError):
        prox.BoxIndicator(1, 2.0, 1.0)


def test_box_indicator_value_at_bounds_outside_and_nan():
    f = prox.BoxIndicator(3, -1.0, 2.0)
    assert f.value([-1.0, 0.5, 2.0]) == 0.0
    assert f.value([-1.0, 0.5, 2.0 + 1e-15]) == np.inf
    assert f.value([-1.0 - 1e-15, 0.5, 2.0]) == np.inf
    assert f.value([0.0, np.nan, 1.0]) == np.inf
    assert prox.BoxIndicator(2, -np.inf, np.inf).value([np.nan, 0.0]) == np.inf
    assert prox.BoxIndicator(2).value([0.0, np.inf]) == 0.0


def test_box_indicator_prox_independent_of_step():
    f = prox.BoxIndicator(2, 0.0, 1.0)
    u = np.array([-0.5, 3.0])
    assert np.array_equal(f.prox(u, 0.01), f.prox(u, 100.0))


# ----------------------------------------------------------- prox_conjugate


def test_prox_conjugate_l1_clamps():
    f = prox.L1Norm(1)
    assert np.array_equal(prox.prox_conjugate(f, [2.0], 1.0), [1.0])


def test_moreau_identity_all_terms():
    rng = np.random.default_rng(7)
    count = 0
    for f in sample_terms():
        for t in (0.1, 1.0, 10.0):
            for _ in range(30):
                u = rng.standard_normal(f.dim) * 3
                resid = np.linalg.norm(
                    f.prox(u, t)
                    + t * prox.prox_conjugate(f, u / t, 1.0 / t) - u)
                assert resid <= 1e-12 * (1 + np.linalg.norm(u))
                count += 1
    assert count >= 500


def test_prox_conjugate_of_origin_indicator_is_identity():
    class OriginIndicator(prox.ProxTerm):
        def value(self, x):
            return 0.0 if not np.any(self._check(x)) else np.inf

        def prox(self, u, t):
            return np.zeros(self.dim)

    u = np.array([3.0, -1.0])
    got = prox.prox_conjugate(OriginIndicator(2), u, 2.0)
    assert np.array_equal(got, u)


# ---------------------------------------------------- Translated (x - c)


def test_prox_translated_zero_shift():
    f = prox.L1Norm(2)
    u = np.array([2.0, -3.0])
    assert np.array_equal(prox.Translated(f, np.zeros(2)).prox(u, 1.0),
                          f.prox(u, 1.0))


def test_prox_translated_l1_example():
    got = prox.Translated(prox.L1Norm(1), [1.0]).prox([3.0], 1.0)
    want = prox_oracle(lambda x: abs(x[0] - 1.0), [3.0], 1.0)
    assert np.allclose(got, [2.0])
    assert np.allclose(got, want, atol=1e-4)


def test_prox_translated_fixed_point_at_shift():
    got = prox.Translated(prox.L1Norm(2), [1.0, 2.0]).prox([1.0, 2.0], 1.0)
    assert np.array_equal(got, [1.0, 2.0])


def test_prox_translated_dimension_mismatch():
    with pytest.raises(DimensionError):
        prox.Translated(prox.L1Norm(2), [1.0])
    with pytest.raises(DimensionError):
        prox.Translated(prox.L1Norm(2), [1.0, 2.0]).prox([1.0], 1.0)


# ------------------------------------------------------------ Scaled (s f)


def test_prox_scaled_unit_scale():
    f = prox.L1Norm(2)
    u = np.array([2.0, -3.0])
    assert np.array_equal(prox.Scaled(f, 1.0).prox(u, 1.0), f.prox(u, 1.0))


def test_prox_scaled_l1_example():
    got = prox.Scaled(prox.L1Norm(1), 0.5).prox([2.0], 2.0)
    want = prox_oracle(lambda x: 2.0 * 0.5 * abs(x[0]), [2.0], 1.0)
    assert np.allclose(got, [1.0])
    assert np.allclose(got, want, atol=1e-4)


def test_prox_scaled_vanishing_step():
    u = np.array([4.0, -1.0])
    got = prox.Scaled(prox.L1Norm(2), 1e-9).prox(u, 1e-6)
    assert np.allclose(got, u, atol=1e-11)


def test_prox_scaled_rejects_nonpositive_scale():
    for s in (0.0, -1.0):
        with pytest.raises(ParameterError):
            prox.Scaled(prox.L1Norm(1), s)


# ----------------------------------------------- prox_weighted_conjugate


def test_weighted_conjugate_reduces_to_plain_at_weight_one():
    f = prox.L1Norm(2)
    u = np.array([0.4, -2.0])
    assert np.allclose(prox_weighted_conjugate(f, 1.0, u, 1.3),
                       prox.prox_conjugate(f, u, 1.3))


def test_weighted_conjugate_l1_example():
    # the conjugate of the l1 norm is the indicator of [-1, 1], whose prox
    # is the clamp: (1/w) clamp(w u) with w = 0.5, u = 4 gives 2
    got = prox_weighted_conjugate(prox.L1Norm(1), 0.5, [4.0], 1.0)
    assert np.allclose(got, [2.0])


def test_weighted_conjugate_zero_input():
    for f in [prox.L1Norm(2), prox.GroupL21(2)]:
        got = prox_weighted_conjugate(f, 0.5, np.zeros(2), 1.0)
        assert np.array_equal(got, np.zeros(2))


def test_weighted_conjugate_rejects_bad_weight():
    with pytest.raises(ParameterError):
        prox_weighted_conjugate(prox.L1Norm(1), 1.5, [1.0], 1.0)
    with pytest.raises(ParameterError):
        prox_weighted_conjugate(prox.L1Norm(1), 0.0, [1.0], 1.0)


def test_weighted_conjugate_solves_weighted_fixed_point():
    # y = prox_{w t f*}^w (u) in the w-weighted inner product satisfies the
    # Moreau identity of that space: w-weighted prox of f at u/t recovers it
    f = prox.L1Norm(2)
    w, t = 0.5, 0.8
    u = np.array([3.0, -0.2])
    y = prox_weighted_conjugate(f, w, u, t)
    # unweighted restatement: y* = prox_{(wt) f*}(w u) / w
    direct = prox.prox_conjugate(f, w * u, w * t) / w
    assert np.allclose(y, direct, atol=1e-14)


# ---------------------------------------------------------- term invariants


def test_prox_matches_oracle_all_terms():
    rng = np.random.default_rng(17)
    for f in sample_terms():
        for t in (0.3, 1.0, 2.5):
            for _ in range(5):
                u = rng.standard_normal(f.dim) * 2
                got = f.prox(u, t)
                if isinstance(f, prox.BoxIndicator):
                    want = box_prox_oracle(f.value, u, t, f.lo, f.hi)
                else:
                    want = prox_oracle(f.value, u, t)
                assert np.allclose(got, want, atol=1e-4), (f, u, t)


def test_firm_nonexpansiveness():
    rng = np.random.default_rng(19)
    for f in sample_terms():
        for _ in range(500):
            t = float(rng.uniform(0.1, 5.0))
            x = rng.standard_normal(f.dim) * 3
            y = rng.standard_normal(f.dim) * 3
            px, py = f.prox(x, t), f.prox(y, t)
            lhs = np.sum((px - py) ** 2)
            rhs = np.sum((x - y) ** 2) - np.sum(
                ((x - px) - (y - py)) ** 2)
            assert lhs <= rhs + 1e-10


def test_subgradient_characterization():
    rng = np.random.default_rng(23)
    for f in sample_terms():
        for _ in range(50):
            t = float(rng.uniform(0.1, 5.0))
            u = rng.standard_normal(f.dim) * 2
            x = f.prox(u, t)
            y = rng.standard_normal(f.dim)
            if isinstance(f, prox.BoxIndicator):
                y = np.clip(y, f.lo, f.hi)
            inner = float((x - u) @ (y - x))
            assert inner >= t * (f.value(x) - f.value(y)) - 1e-9


def test_scaled_translated_composition_matches_oracle():
    # prox of x -> s f(x - c) two ways: the composition against a
    # translated prox with step s*t, and against a direct oracle
    s, c, t = 0.6, np.array([0.5, -1.0]), 1.2
    base = prox.L1Norm(2)
    term = prox.Scaled(prox.Translated(base, c), s)
    u = np.array([2.0, 0.3])
    got = term.prox(u, t)
    helper = prox.Translated(base, c).prox(u, s * t)
    want = prox_oracle(lambda x: s * np.abs(x - c).sum(), u, t)
    assert np.allclose(got, helper, atol=1e-14)
    assert np.allclose(got, want, atol=1e-4)


def test_indicator_values_are_exact():
    f = prox.BoxIndicator(2, 0.0, 1.0)
    assert f.value([0.5, 1.0]) == 0.0
    assert f.value([-0.1, 0.5]) == np.inf
