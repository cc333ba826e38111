import numpy as np
import pytest

from proxsplit import linops, prox
from proxsplit.errors import DimensionError, ParameterError
from proxsplit.product import BlockStack

from oracles import (CountingOperator, prox_weighted_conjugate,
                     stacked_conjugate_prox)
from test_acceptance import sample_terms


def two_identity_stack(weights=None):
    return BlockStack([(linops.identity(3), prox.L1Norm(3)),
                       (linops.identity(3), prox.L1Norm(3))],
                      weights=weights)


# ------------------------------------------------------------ construction


def test_rejects_mismatched_primal_dims():
    with pytest.raises(DimensionError):
        BlockStack([(linops.identity(3), prox.L1Norm(3)),
                    (linops.identity(4), prox.L1Norm(4))])


def test_rejects_operator_term_mismatch():
    with pytest.raises(DimensionError):
        BlockStack([(linops.first_difference(3), prox.L1Norm(4))])


def test_rejects_bad_weights():
    blocks = [(linops.identity(2), prox.L1Norm(2)),
              (linops.identity(2), prox.L1Norm(2))]
    with pytest.raises(DimensionError):
        BlockStack(blocks, weights=[0.5])
    with pytest.raises(DimensionError):
        BlockStack(blocks, weights=[0.7, 0.7])
    with pytest.raises(DimensionError):
        BlockStack(blocks, weights=[1.2, -0.2])


def test_single_block_weight_one_allowed():
    stack = BlockStack([(linops.identity(2), prox.L1Norm(2))], weights=[1.0])
    assert stack.m == 1


# ------------------------------------------------ blocks sharing an operator


def shared_and_distinct_stacks(weights):
    shared_op = linops.tv_gradient(5, 4)
    copies = [linops.tv_gradient(5, 4), linops.tv_gradient(5, 4)]
    terms = [prox.L1Norm(40), prox.Scaled(prox.L1Norm(40), 0.5)]
    shared = BlockStack([(shared_op, t) for t in terms], weights=weights)
    distinct = BlockStack(list(zip(copies, terms)), weights=weights)
    return shared, distinct


@pytest.mark.parametrize("weights", [None, [0.3, 0.7]])
def test_shared_operator_matches_distinct_copies(weights):
    rng = np.random.default_rng(44)
    shared, distinct = shared_and_distinct_stacks(weights)
    for _ in range(10):
        x = rng.standard_normal(20)
        ys = [rng.standard_normal(40), rng.standard_normal(40)]
        for got, want in zip(shared.apply_blocks(x),
                             distinct.apply_blocks(x)):
            assert np.linalg.norm(got - want) \
                <= 1e-12 * (1 + np.linalg.norm(want))
        got = shared.combined_adjoint(ys)
        want = distinct.combined_adjoint(ys)
        assert np.linalg.norm(got - want) <= 1e-12 * (1 + np.linalg.norm(want))


@pytest.mark.parametrize("weights", [None, [0.2, 0.3, 0.5]])
def test_one_product_per_distinct_operator(weights):
    rng = np.random.default_rng(45)
    D = CountingOperator(linops.first_difference(6))
    E = CountingOperator(linops.dense(rng.standard_normal((4, 6))))
    stack = BlockStack([(D, prox.L1Norm(6)), (E, prox.L1Norm(4)),
                        (D, prox.ZeroTerm(6))], weights=weights)
    x = rng.standard_normal(6)
    bx = stack.apply_blocks(x)
    assert (D.counts(), E.counts()) == ((1, 0), (1, 0))
    assert np.array_equal(bx[0], D.matrix @ x)
    assert np.array_equal(bx[2], D.matrix @ x)
    stack.combined_adjoint(bx)
    assert (D.counts(), E.counts()) == ((1, 1), (1, 1))


def test_combined_adjoint_leaves_duals_unchanged():
    op = linops.first_difference(4)
    stack = BlockStack([(op, prox.L1Norm(4)), (op, prox.L1Norm(4))],
                       weights=[0.5, 0.5])
    ys = [np.array([1.0, -2.0, 0.5, 3.0]), np.array([0.0, 1.0, 2.0, 0.0])]
    kept = [y.copy() for y in ys]
    stack.combined_adjoint(ys)
    assert all(np.array_equal(y, k) for y, k in zip(ys, kept))


# -------------------------------------------------------- combined_adjoint


def test_combined_adjoint_weighted_average():
    stack = two_identity_stack(weights=[0.5, 0.5])
    a, b = np.array([2.0, 0.0, 4.0]), np.array([0.0, 6.0, 2.0])
    assert np.allclose(stack.combined_adjoint([a, b]), (a + b) / 2)


def test_combined_adjoint_single_block_reduction():
    op = linops.first_difference(4)
    stack = BlockStack([(op, prox.L1Norm(4))], weights=[1.0])
    y = np.array([1.0, -2.0, 0.5, 3.0])
    assert np.allclose(stack.combined_adjoint([y]), op.adjoint_apply(y))


def test_combined_adjoint_zero_duals():
    stack = two_identity_stack()
    got = stack.combined_adjoint([np.zeros(3), np.zeros(3)])
    assert np.array_equal(got, np.zeros(3))


def test_combined_adjoint_rejects_wrong_block_count():
    stack = two_identity_stack()
    with pytest.raises(DimensionError):
        stack.combined_adjoint([np.zeros(3)])
    with pytest.raises(DimensionError):
        stack.combined_adjoint([np.zeros(3), np.zeros(4)])


def test_product_space_adjoint_identity():
    # <Bx, y>_G = <x, B*y> under both inner products; the weighted inner
    # product is sum_i w_i <.,.>, the unweighted one takes w_i = 1
    rng = np.random.default_rng(41)
    ops = [linops.first_difference(5),
           linops.dense(rng.standard_normal((3, 5)))]
    blocks = [(op, prox.ZeroTerm(op.rows)) for op in ops]
    for weights in (None, [0.3, 0.7]):
        stack = BlockStack(blocks, weights=weights)
        w = weights or [1.0, 1.0]
        for _ in range(50):
            x = rng.standard_normal(5)
            ys = [rng.standard_normal(op.rows) for op in ops]
            lhs = sum(wi * float(op.apply(x) @ y)
                      for wi, op, y in zip(w, ops, ys))
            rhs = float(x @ stack.combined_adjoint(ys))
            assert abs(lhs - rhs) <= 1e-10 * (1 + abs(lhs))


# ------------------------------------------------------------ stacked_prox


def test_stacked_prox_single_block_is_plain_prox():
    stack = BlockStack([(linops.identity(3), prox.L1Norm(3))], weights=[1.0])
    u = np.array([2.0, -0.5, 0.1])
    assert np.allclose(stack.stacked_prox([u], 1.0)[0],
                       prox.L1Norm(3).prox(u, 1.0))


def test_stacked_prox_weighted_inflates_step():
    # with w = (1/2, 1/2) and t = 1 each block soft-thresholds at level 2
    stack = two_identity_stack(weights=[0.5, 0.5])
    u = np.array([3.0, -1.0, 2.5])
    got = stack.stacked_prox([u, u], 1.0)
    want = prox.L1Norm(3).prox(u, 2.0)
    assert np.allclose(got[0], want)
    assert np.allclose(got[1], want)


def test_stacked_prox_weighted_matches_weighted_objective_oracle():
    # blockwise grid check of argmin over y of
    #   sum_i w_i (0.5 ||y_i - u_i||^2) + t h_i(y_i)
    # which separates into prox steps t / w_i
    from oracles import prox_oracle
    stack = BlockStack([(linops.identity(1), prox.L1Norm(1)),
                        (linops.identity(1), prox.L1Norm(1))],
                       weights=[0.25, 0.75])
    us = [np.array([3.0]), np.array([3.0])]
    got = stack.stacked_prox(us, 0.5)
    for w, g, u in zip([0.25, 0.75], got, us):
        want = prox_oracle(lambda x: abs(x[0]), u, 0.5 / w)
        assert np.allclose(g, want, atol=1e-4)


def test_stacked_prox_zero_input():
    stack = two_identity_stack(weights=[0.5, 0.5])
    got = stack.stacked_prox([np.zeros(3), np.zeros(3)], 1.0)
    assert all(np.array_equal(g, np.zeros(3)) for g in got)


# ------------------------------------ stacked_conjugate_prox (the oracle)


def test_unweighted_conjugate_prox_is_blockwise_plain():
    stack = two_identity_stack()
    ys = [np.array([2.0, -0.4, 0.0]), np.array([1.5, 0.2, -3.0])]
    got = stacked_conjugate_prox(stack, ys, 0.7)
    for g, y in zip(got, ys):
        assert np.array_equal(g, prox.prox_conjugate(prox.L1Norm(3), y, 0.7))
    # every term, bit for bit, with blocks on distinct operators
    rng = np.random.default_rng(45)
    for term in sample_terms():
        stack = BlockStack([(linops.identity(term.dim), term),
                            (linops.first_difference(term.dim), term)])
        for t in (0.05, 1.0, 40.0):
            ys = [rng.standard_normal(term.dim) for _ in range(2)]
            got = stacked_conjugate_prox(stack, ys, t)
            for g, y in zip(got, ys):
                assert np.array_equal(g, prox.prox_conjugate(term, y, t))


@pytest.mark.parametrize("weights", [(0.3, 0.7), (0.5, 0.5)])
def test_weighted_conjugate_prox_matches_closed_form_oracle(weights):
    # Moreau's identity in the weighted space against the per-block closed
    # form (1/w) prox_{w t h*}(w y).  The error is taken relative to the
    # larger of ||y|| and the result, which can cancel to about 1e-16.
    rng = np.random.default_rng(44)
    for term in sample_terms():
        op = linops.identity(term.dim)
        stack = BlockStack([(op, term), (op, term)], weights=weights)
        for t in (0.05, 0.3, 1.0, 2.5, 40.0):
            for _ in range(10):
                ys = [3.0 * rng.standard_normal(term.dim) for _ in weights]
                got = stacked_conjugate_prox(stack, ys, t)
                for g, w, y in zip(got, weights, ys):
                    want = prox_weighted_conjugate(term, w, y, t)
                    scale = max(np.linalg.norm(want), np.linalg.norm(y))
                    assert np.linalg.norm(g - want) <= 1e-14 * scale


@pytest.mark.parametrize("weights", [None, (0.3, 0.7)])
def test_conjugate_prox_rejects_nonpositive_step(weights):
    stack = two_identity_stack(weights=weights)
    for t in (0.0, -1.0, float("nan")):
        with pytest.raises(ParameterError):
            stacked_conjugate_prox(stack, [np.ones(3), np.ones(3)], t)


def test_weighted_single_block_weight_one_equals_unweighted():
    op = linops.first_difference(3)
    weighted = BlockStack([(op, prox.L1Norm(3))], weights=[1.0])
    unweighted = BlockStack([(op, prox.L1Norm(3))])
    y = np.array([0.3, -2.0, 1.1])
    assert np.allclose(stacked_conjugate_prox(weighted, [y], 0.9)[0],
                       stacked_conjugate_prox(unweighted, [y], 0.9)[0])


def test_equal_weight_rescaling_equivalence():
    # equal weights w with step t on duals y equal the unweighted update
    # with step w*t on rescaled duals w*y, after mapping back
    rng = np.random.default_rng(43)
    w, t = 0.5, 0.8
    weighted = two_identity_stack(weights=[w, w])
    unweighted = two_identity_stack()
    ys = [rng.standard_normal(3), rng.standard_normal(3)]
    got_w = stacked_conjugate_prox(weighted, ys, t)
    got_u = stacked_conjugate_prox(unweighted, [w * y for y in ys], w * t)
    for gw, gu in zip(got_w, got_u):
        assert np.allclose(w * gw, gu, atol=1e-12)


# ---------------------------------------------------------- norm_sq_bound


def test_norm_bound_single_identity():
    stack = BlockStack([(linops.identity(4), prox.L1Norm(4))], weights=[1.0])
    assert stack.norm_sq_bound() == pytest.approx(1.0, rel=1e-6)


def test_norm_bound_unweighted_identity_pair():
    stack = two_identity_stack()
    est = stack.norm_sq_bound()
    assert est == pytest.approx(2.0, rel=1e-6)
    # cross-check against power iteration on the stacked 6x3 operator
    stacked = linops.dense(np.vstack([np.eye(3), np.eye(3)]))
    assert est == pytest.approx(linops.op_norm_sq(stacked), rel=1e-6)


def test_norm_bound_weighted_identity_pair():
    stack = two_identity_stack(weights=[0.5, 0.5])
    assert stack.norm_sq_bound() == pytest.approx(1.0, rel=1e-6)


def test_norm_bound_dominates_dense_eigen_oracle():
    rng = np.random.default_rng(47)
    ops = [linops.dense(rng.standard_normal((40, 30))),
           linops.first_difference(30),
           linops.dense(rng.standard_normal((60, 30)))]
    blocks = [(op, prox.ZeroTerm(op.rows)) for op in ops]
    for weights in (None, [0.2, 0.3, 0.5]):
        stack = BlockStack(blocks, weights=weights)
        w = weights or [1.0] * 3
        M = sum(wi * op.to_dense().T @ op.to_dense()
                for wi, op in zip(w, ops))
        top = float(np.linalg.eigvalsh(M).max())
        assert stack.norm_sq_bound() >= top
