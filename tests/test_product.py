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
    with pytest.raises(DimensionError):
        BlockStack([])


def test_rejects_operator_term_mismatch():
    with pytest.raises(DimensionError):
        BlockStack([(linops.first_difference(3), prox.L1Norm(4))])


def test_rejects_bad_weights():
    blocks = [(linops.identity(2), prox.L1Norm(2)),
              (linops.identity(2), prox.L1Norm(2))]
    with pytest.raises(DimensionError):
        BlockStack(blocks, weights=[0.5])
    # weights that do not sum to 1 are bad reals, as is a weight outside
    # (0, 1] whichever block has it
    for weights in ([0.7, 0.7], [0.3, 0.3], [1.2, -0.2], [-0.2, 1.2]):
        with pytest.raises(ParameterError):
            BlockStack(blocks, weights=weights)
    with pytest.raises(ParameterError):
        BlockStack(blocks, weights=["0.5", 0.5])
    with pytest.raises(ParameterError):
        BlockStack(blocks[:1], weights=[True])
    # a lone weight just above 1 sums to 1 within rounding, but is no
    # weight in (0, 1]
    with pytest.raises(ParameterError, match=r"lie in \(0, 1\]"):
        BlockStack(blocks[:1], weights=[1 + 4e-13])


def test_single_block_weight_one_allowed():
    stack = BlockStack([(linops.identity(2), prox.L1Norm(2))], weights=[1.0])
    assert len(stack.blocks) == 1


# ---------------------------------------------- one operator, one dual vector


def three_block_stack():
    """Three weighted blocks on distinct operators, each with its own term."""
    rng = np.random.default_rng(45)
    ops = [linops.first_difference(6),
           linops.dense(rng.standard_normal((4, 6))),
           linops.tv_gradient(3, 2)]
    terms = [prox.L1Norm(6), prox.Scaled(prox.L1Norm(4), 0.5),
             prox.GroupL21(12)]
    return BlockStack(list(zip(ops, terms)), weights=[0.2, 0.3, 0.5])


def test_blocks_are_slices_of_one_dual():
    # slice i of B x is B_i x, and slice i of the stacked prox is h_i's prox
    # with the step t / w_i, bit for bit
    rng = np.random.default_rng(46)
    stack = three_block_stack()
    assert stack.op.rows == 22
    assert [(s.start, s.stop) for s in stack.slices] == [(0, 6), (6, 10),
                                                         (10, 22)]
    for _ in range(5):
        x, y = rng.standard_normal(6), rng.standard_normal(22)
        bx = stack.op.apply(x)
        for t in (0.05, 0.7, 4.0):
            p = stack.stacked_prox(y, t)
            for (op, term), w, s in zip(stack.blocks, stack.weights,
                                        stack.slices):
                assert np.array_equal(bx[s], op.apply(x))
                assert np.array_equal(p[s], term.prox(y[s], t / w))
        assert stack.value(y) == sum(term.value(y[s]) for (_, term), s
                                     in zip(stack.blocks, stack.slices))


def test_single_block_stack_is_its_block():
    op = linops.first_difference(4)
    stack = BlockStack([(op, prox.L1Norm(4))])
    assert stack.op is op and stack.dual_weights is None
    assert BlockStack([(op, prox.L1Norm(4))], weights=[1.0]).dual_weights \
        is None
    assert np.array_equal(three_block_stack().dual_weights,
                          np.repeat([0.2, 0.3, 0.5], [6, 4, 12]))


def test_combined_adjoint_leaves_duals_unchanged():
    op = linops.first_difference(4)
    stack = BlockStack([(op, prox.L1Norm(4)), (op, prox.L1Norm(4))],
                       weights=[0.5, 0.5])
    y = np.array([1.0, -2.0, 0.5, 3.0, 0.0, 1.0, 2.0, 0.0])
    kept = y.copy()
    stack.combined_adjoint(y)
    assert np.array_equal(y, kept)


# -------------------------------------------------------- combined_adjoint


def test_combined_adjoint_weighted_average():
    stack = two_identity_stack(weights=[0.5, 0.5])
    a, b = np.array([2.0, 0.0, 4.0]), np.array([0.0, 6.0, 2.0])
    assert np.allclose(stack.combined_adjoint(np.concatenate([a, b])),
                       (a + b) / 2)


def test_combined_adjoint_single_block_reduction():
    op = linops.first_difference(4)
    stack = BlockStack([(op, prox.L1Norm(4))], weights=[1.0])
    y = np.array([1.0, -2.0, 0.5, 3.0])
    assert np.array_equal(stack.combined_adjoint(y), op.adjoint_apply(y))


def test_combined_adjoint_zero_duals():
    stack = two_identity_stack()
    assert np.array_equal(stack.combined_adjoint(np.zeros(6)), np.zeros(3))


def test_combined_adjoint_rejects_wrong_dual_length():
    stack = two_identity_stack()
    for y in (np.zeros(3), np.zeros(7), [np.zeros(3), np.zeros(4)]):
        with pytest.raises(DimensionError):
            stack.combined_adjoint(y)


def test_product_space_adjoint_identity():
    # <Bx, y>_H = <x, B*y> under both inner products; the weighted inner
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
            y = rng.standard_normal(8)
            lhs = sum(wi * float(op.apply(x) @ y[s])
                      for wi, op, s in zip(w, ops, stack.slices))
            rhs = float(x @ stack.combined_adjoint(y))
            assert abs(lhs - rhs) <= 1e-10 * (1 + abs(lhs))


# ------------------------------------------------------------ stacked_prox


def test_stacked_prox_single_block_is_plain_prox():
    stack = BlockStack([(linops.identity(3), prox.L1Norm(3))], weights=[1.0])
    u = np.array([2.0, -0.5, 0.1])
    assert np.array_equal(stack.stacked_prox(u, 1.0),
                          prox.L1Norm(3).prox(u, 1.0))


def test_stacked_prox_weighted_inflates_step():
    # with w = (1/2, 1/2) and t = 1 each block soft-thresholds at level 2
    stack = two_identity_stack(weights=[0.5, 0.5])
    u = np.array([3.0, -1.0, 2.5])
    got = stack.stacked_prox(np.concatenate([u, u]), 1.0)
    want = prox.L1Norm(3).prox(u, 2.0)
    assert np.allclose(got, np.concatenate([want, want]))


def test_stacked_prox_weighted_matches_weighted_objective_oracle():
    # blockwise grid check of argmin over y of
    #   sum_i w_i (0.5 ||y_i - u_i||^2) + t h_i(y_i)
    # which separates into prox steps t / w_i
    from oracles import prox_oracle
    stack = BlockStack([(linops.identity(1), prox.L1Norm(1)),
                        (linops.identity(1), prox.L1Norm(1))],
                       weights=[0.25, 0.75])
    u = np.array([3.0, 3.0])
    got = stack.stacked_prox(u, 0.5)
    for w, g, ui in zip([0.25, 0.75], got, u):
        want = prox_oracle(lambda x: abs(x[0]), [ui], 0.5 / w)
        assert np.allclose(g, want, atol=1e-4)


def test_stacked_prox_zero_input():
    stack = two_identity_stack(weights=[0.5, 0.5])
    assert np.array_equal(stack.stacked_prox(np.zeros(6), 1.0), np.zeros(6))


# ------------------------------------ stacked_conjugate_prox (the oracle)


def test_unweighted_conjugate_prox_is_blockwise_plain():
    stack = two_identity_stack()
    y = np.array([2.0, -0.4, 0.0, 1.5, 0.2, -3.0])
    got = stacked_conjugate_prox(stack, y, 0.7)
    for s in stack.slices:
        assert np.array_equal(got[s],
                              prox.prox_conjugate(prox.L1Norm(3), y[s], 0.7))
    # every term, bit for bit, with blocks on distinct operators
    rng = np.random.default_rng(45)
    for term in sample_terms():
        stack = BlockStack([(linops.identity(term.dim), term),
                            (linops.first_difference(term.dim), term)])
        for t in (0.05, 1.0, 40.0):
            y = rng.standard_normal(2 * term.dim)
            got = stacked_conjugate_prox(stack, y, t)
            for s in stack.slices:
                assert np.array_equal(got[s],
                                      prox.prox_conjugate(term, y[s], t))


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
                y = 3.0 * rng.standard_normal(2 * term.dim)
                got = stacked_conjugate_prox(stack, y, t)
                for w, s in zip(weights, stack.slices):
                    want = prox_weighted_conjugate(term, w, y[s], t)
                    scale = max(np.linalg.norm(want), np.linalg.norm(y[s]))
                    assert np.linalg.norm(got[s] - want) <= 1e-14 * scale


@pytest.mark.parametrize("weights", [None, (0.3, 0.7)])
def test_conjugate_prox_rejects_nonpositive_step(weights):
    stack = two_identity_stack(weights=weights)
    for t in (0.0, -1.0, float("nan")):
        with pytest.raises(ParameterError):
            stacked_conjugate_prox(stack, np.ones(6), t)


def test_weighted_single_block_weight_one_equals_unweighted():
    op = linops.first_difference(3)
    weighted = BlockStack([(op, prox.L1Norm(3))], weights=[1.0])
    unweighted = BlockStack([(op, prox.L1Norm(3))])
    y = np.array([0.3, -2.0, 1.1])
    assert np.allclose(stacked_conjugate_prox(weighted, y, 0.9),
                       stacked_conjugate_prox(unweighted, y, 0.9))


def test_equal_weight_rescaling_equivalence():
    # equal weights w with step t on duals y equal the unweighted update
    # with step w*t on rescaled duals w*y, after mapping back
    rng = np.random.default_rng(43)
    w, t = 0.5, 0.8
    weighted = two_identity_stack(weights=[w, w])
    unweighted = two_identity_stack()
    y = rng.standard_normal(6)
    got_w = stacked_conjugate_prox(weighted, y, t)
    got_u = stacked_conjugate_prox(unweighted, w * y, w * t)
    assert np.allclose(w * got_w, got_u, atol=1e-12)


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


def test_norm_bound_reuses_block_norms():
    # each ||B_i||^2 is kept on B_i, so a second bound makes no product
    rng = np.random.default_rng(48)
    ops = [CountingOperator(linops.dense(rng.standard_normal((4, 3))))
           for _ in range(2)]
    stack = BlockStack([(op, prox.ZeroTerm(4)) for op in ops],
                       weights=[0.4, 0.6])
    first = stack.norm_sq_bound()
    assert all(op.applies > 0 for op in ops)
    counts = [op.counts() for op in ops]
    assert stack.norm_sq_bound() == first
    assert [op.counts() for op in ops] == counts


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
