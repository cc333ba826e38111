import numpy as np
import pytest
import scipy.sparse as sp

from proxsplit import linops
from proxsplit.errors import DimensionError, ParameterError

from oracles import CountingOperator


def dense_of(op):
    return op.to_dense()


# ---------------------------------------------------------------- apply


def test_identity_apply():
    op = linops.identity(3)
    assert np.array_equal(op.apply([1, 2, 3]), [1, 2, 3])
    assert np.array_equal(op.adjoint_apply([1, 2, 3]), [1, 2, 3])


def test_first_difference_apply_matches_dense_multiply():
    op = linops.first_difference(3)
    expected = dense_of(op) @ np.array([1.0, 2.0, 4.0])
    assert np.array_equal(op.apply([1, 2, 4]), expected)
    assert np.array_equal(op.apply([1, 2, 4]), [1, 2, 0])


def test_apply_zero_vector_gives_zero():
    for op in [linops.identity(4), linops.first_difference(5),
               linops.tv_gradient(3, 4),
               linops.dense(np.arange(6.0).reshape(2, 3))]:
        assert np.array_equal(op.apply(np.zeros(op.cols)), np.zeros(op.rows))


# np.matrix is deprecated, but a caller may still pass one
@pytest.mark.filterwarnings("ignore::PendingDeprecationWarning")
def test_dense_input_is_stored_as_float_csr():
    # every input kind gives float CSR, and products that are flat float64
    # arrays of the operator's lengths
    rows = [[1, 0, 2], [0, 3, 0]]
    for mat in (rows, np.array(rows), np.matrix(rows), sp.coo_matrix(rows),
                sp.csr_array(rows), sp.csc_array(rows)):
        op = linops.dense(mat)
        assert op.matrix.format == "csr" and op.matrix.dtype == float
        assert op.matrix.nnz == 3
        assert np.array_equal(op.to_dense(), rows)
        for got, want in ((op.apply([1, 1, 1]), [3, 3]),
                          (op.adjoint_apply([1, 1]), [1, 3, 2])):
            assert type(got) is np.ndarray and got.dtype == np.float64
            assert got.ndim == 1 and np.array_equal(got, want)
    # bool, complex and string entries are refused, not cast or parsed:
    # the rule of as_vector, read from a sparse input's dtype
    for bad in ([[True, False]], [[1 + 2j, 0]]):
        for given in (bad, np.array(bad), sp.csr_matrix(bad)):
            with pytest.raises(DimensionError, match="reals"):
                linops.dense(given)
    for bad in ([["1", "2"]], np.array([[1, True]], dtype=object),
                np.array([[1, 2j]], dtype=object)):
        with pytest.raises(DimensionError, match="reals"):
            linops.LinearOperator(bad)


def test_rejects_non_finite_entries():
    for bad in (np.nan, np.inf, -np.inf):
        mat = np.array([[1.0, 0.0], [bad, 2.0]])
        for make in (linops.dense, linops.sparse):
            for given in (mat, sp.csr_matrix(mat)):
                with pytest.raises(ParameterError, match="non-finite"):
                    make(given)
    # a closed-form ||B||^2 is read by the step gates as it is given
    for bad in (np.nan, np.inf, -1.0, "1", True):
        with pytest.raises(ParameterError, match="norm_sq"):
            linops.LinearOperator(np.eye(2), norm_sq=bad)


def test_rejects_input_that_is_not_2d():
    for make in (linops.LinearOperator, linops.dense, linops.sparse):
        for bad in (np.ones(3), [1.0, 2.0], np.ones((2, 2, 2)), 4.0):
            with pytest.raises(DimensionError):
                make(bad)


def test_apply_dimension_mismatch():
    op = linops.first_difference(3)
    with pytest.raises(DimensionError):
        op.apply([1, 2])
    with pytest.raises(DimensionError):
        op.adjoint_apply([1, 2, 3, 4])


# --------------------------------------------------------- adjoint_apply


def test_first_difference_adjoint_is_transpose():
    op = linops.first_difference(3)
    expected = dense_of(op).T @ np.array([1.0, 0.0, 0.0])
    assert np.array_equal(op.adjoint_apply([1, 0, 0]), expected)
    assert np.array_equal(op.adjoint_apply([1, 0, 0]), [-1, 1, 0])


def test_dense_adjoint_is_explicit_transpose():
    rng = np.random.default_rng(3)
    M = rng.standard_normal((2, 3))
    op = linops.dense(M)
    y = rng.standard_normal(2)
    assert np.allclose(op.adjoint_apply(y), M.T @ y, rtol=0, atol=1e-15)


def test_adjoint_identity_random_pairs():
    rng = np.random.default_rng(11)
    ops = [
        linops.identity(7),
        linops.first_difference(9),
        linops.tv_gradient(6, 5),
        linops.dense(rng.standard_normal((6, 8))),
        linops.sparse(rng.standard_normal((5, 7))),
        linops.sparse(linops.first_difference(6).matrix * -2.5),
        linops.sparse(linops.first_difference(6).matrix
                      @ linops.identity(6).matrix),
        linops.zero(4, 6),
    ]
    for op in ops:
        for _ in range(200):
            x = rng.standard_normal(op.cols)
            y = rng.standard_normal(op.rows)
            lhs = float(op.apply(x) @ y)
            rhs = float(x @ op.adjoint_apply(y))
            assert abs(lhs - rhs) <= 1e-10 * (1 + abs(lhs))


def test_linearity():
    rng = np.random.default_rng(12)
    for op in [linops.first_difference(8), linops.tv_gradient(4, 5),
               linops.dense(rng.standard_normal((3, 6)))]:
        x = rng.standard_normal(op.cols)
        y = rng.standard_normal(op.cols)
        a, b = 1.7, -0.3
        lhs = op.apply(a * x + b * y)
        rhs = a * op.apply(x) + b * op.apply(y)
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * (1 + np.linalg.norm(lhs))


# ------------------------------------------------------ first_difference


def test_first_difference_structure():
    mat = dense_of(linops.first_difference(4))
    expected = np.array([
        [-1.0, 1.0, 0.0, 0.0],
        [0.0, -1.0, 1.0, 0.0],
        [0.0, 0.0, -1.0, 1.0],
        [0.0, 0.0, 0.0, 0.0],
    ])
    assert np.array_equal(mat, expected)


def test_first_difference_n1_is_zero():
    op = linops.first_difference(1)
    assert op.rows == op.cols == 1
    assert np.array_equal(op.apply([5.0]), [0.0])


def test_first_difference_kills_constants():
    op = linops.first_difference(4)
    assert np.array_equal(op.apply([3.3] * 4), np.zeros(4))


def test_first_difference_rejects_zero_size():
    for n in (0, 3.5):
        with pytest.raises(DimensionError):
            linops.first_difference(n)


def test_identity_zero_and_sparse_reject_zero_size():
    for make in (lambda: linops.identity(0), lambda: linops.zero(0, 3),
                 lambda: linops.sparse(sp.csr_matrix((0, 3))),
                 lambda: linops.identity(2.5)):
        with pytest.raises(DimensionError):
            make()


# ----------------------------------------------------------- tv_gradient


def test_tv_gradient_shape_and_constant_image():
    op = linops.tv_gradient(3, 5)
    assert (op.rows, op.cols) == (30, 15)
    assert np.array_equal(op.apply(np.full(15, 2.0)), np.zeros(30))


def test_tv_gradient_2x2_step_image():
    # image [[0, 1], [0, 1]] in column-major order -> [0, 0, 1, 1]
    op = linops.tv_gradient(2, 2)
    u = np.array([0.0, 0.0, 1.0, 1.0])
    du = op.apply(u)
    # one constant-within-column block: vertical differences vanish
    assert np.array_equal(du[:4], np.zeros(4))
    # horizontal block: exactly two unit entries
    assert sorted(du[4:].tolist()) == [0.0, 0.0, 1.0, 1.0]
    assert np.abs(du).sum() == linops.atv(u, 2, 2) == 2.0


def test_tv_gradient_1x1_is_zero():
    op = linops.tv_gradient(1, 1)
    assert (op.rows, op.cols) == (2, 1)
    assert np.array_equal(op.apply([7.0]), [0.0, 0.0])


def test_tv_gradient_matches_kron_construction():
    n, m = 4, 3
    bn = dense_of(linops.first_difference(n))
    bm = dense_of(linops.first_difference(m))
    expected = np.vstack([np.kron(np.eye(m), bn), np.kron(bm, np.eye(n))])
    assert np.array_equal(dense_of(linops.tv_gradient(n, m)), expected)


def test_tv_gradient_rejects_zero_dimension():
    for n, m in ((0, 3), (2.0, 3)):
        with pytest.raises(DimensionError):
            linops.tv_gradient(n, m)


# ------------------------------------------------------------ op_norm_sq


def dense_top_eig(op):
    M = dense_of(op)
    return float(np.linalg.eigvalsh(M.T @ M).max())


def test_op_norm_sq_identity():
    assert linops.op_norm_sq(linops.identity(5)) == pytest.approx(1.0,
                                                                  abs=1e-9)


def test_op_norm_sq_first_difference_vs_dense_eig():
    op = linops.first_difference(64)
    est = linops.op_norm_sq(op, tol=1e-10)
    exact = dense_top_eig(op)
    assert 0 < est <= 4.0
    assert est == pytest.approx(exact, rel=1e-8)


def test_op_norm_sq_tv_gradient_vs_svd():
    op = linops.tv_gradient(8, 8)
    est = linops.op_norm_sq(op, tol=1e-10)
    exact = float(np.linalg.svd(dense_of(op), compute_uv=False).max() ** 2)
    assert 0 < est <= 8.0
    assert est == pytest.approx(exact, rel=1e-8)


def test_op_norm_sq_random_ops_up_to_dim_200():
    rng = np.random.default_rng(21)
    ops = [
        linops.dense(rng.standard_normal((200, 150))),
        linops.dense(rng.standard_normal((30, 200))),
        linops.first_difference(200),
        linops.tv_gradient(10, 14),
    ]
    for op in ops:
        est = linops.op_norm_sq(op, tol=1e-9)
        assert est == pytest.approx(dense_top_eig(op), rel=1e-6)


def test_op_norm_sq_zero_operator():
    assert linops.op_norm_sq(linops.zero(4, 3)) == 0.0


def test_op_norm_sq_finds_top_eigenvalue_of_small_first_differences():
    # the all-ones vector lies in B^T B's null space here and the ramp
    # 1 + i/n has no component along the top eigenvector, so power
    # iteration from either converges to a lower eigenvalue (1.0 against
    # 3.0 for n = 3); a start with too little of it stops early
    tol = 1e-9
    for n in (3, 5, 65):
        op = linops.first_difference(n)
        exact = dense_top_eig(op)
        assert abs(linops.op_norm_sq(op, tol=tol) - exact) \
            <= 10 * tol * exact, n
        assert linops.safe_norm_sq(op, tol=tol) >= exact, n


def test_safe_norm_sq_upper_bounds_dense_eig():
    # op_norm_sq ends 3.2e-9 low on first_difference(200) at tol 1e-9;
    # safe_norm_sq's 1 + 10 tol inflation must still cover it
    for op in [linops.first_difference(50), linops.tv_gradient(7, 9),
               linops.first_difference(200)]:
        assert linops.safe_norm_sq(op) >= dense_top_eig(op)


TV_SHAPES = [(1, 5), (5, 1), (2, 2), (5, 4), (10, 14)]


def test_tv_gradient_closed_form_norm_matches_eigvalsh():
    for n, m in TV_SHAPES:
        op = linops.tv_gradient(n, m)
        top = dense_top_eig(op)
        assert linops.op_norm_sq(op) == pytest.approx(top, rel=1e-12), (n, m)
        assert linops.safe_norm_sq(op) >= top


def test_op_norm_sq_is_computed_once_per_operator():
    rng = np.random.default_rng(22)
    op = CountingOperator(linops.dense(rng.standard_normal((30, 20))))
    first = linops.op_norm_sq(op)
    assert op.applies > 0
    before = op.counts()
    assert linops.op_norm_sq(op) == first
    assert linops.safe_norm_sq(op) == first * (1.0 + 10.0 * 1e-9)
    assert op.counts() == before
    # a different tolerance is a different estimate
    linops.op_norm_sq(op, tol=1e-6)
    assert op.applies > before[0]


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf"),
                                 "x", True])
def test_norm_tolerance_must_be_finite_and_positive(tol):
    # checked before the closed-form norm of tv_gradient is returned too
    for op in (linops.first_difference(5), linops.tv_gradient(3, 3)):
        for norm_sq in (linops.op_norm_sq, linops.safe_norm_sq):
            with pytest.raises(ParameterError, match="tol"):
                norm_sq(op, tol=tol)


# --------------------------------------------------------------- atv/itv


def test_atv_constant_zero():
    assert linops.atv(np.full(12, 3.0), 4, 3) == 0.0
    assert linops.itv(np.full(12, 3.0), 4, 3) == 0.0


def test_atv_2x2_step():
    u = np.array([0.0, 0.0, 1.0, 1.0])
    assert linops.atv(u, 2, 2) == 2.0
    assert linops.itv(u, 2, 2) == 2.0


def test_itv_le_atv_on_two_direction_step():
    # single pixel raised: steps in both directions
    u = np.zeros(9)
    u[4] = 1.0
    assert linops.itv(u, 3, 3) <= linops.atv(u, 3, 3)


def test_atv_dimension_mismatch():
    with pytest.raises(DimensionError):
        linops.atv(np.zeros(5), 2, 3)
