"""Linear operators with explicit adjoints, plus discrete TV machinery.

Images of shape (n, m) are handled as column-major vectorizations (columns
stacked), so the Kronecker block I (x) B differentiates along the row
index within each column.
"""

import math

import numpy as np
import scipy.sparse as sp

from .errors import (DimensionError, ParameterError, as_vector, check_count,
                     check_real, check_reals)
from .rng import Stream

__all__ = [
    "LinearOperator", "identity", "dense", "sparse", "zero",
    "first_difference", "tv_gradient", "op_norm_sq", "safe_norm_sq",
    "atv", "itv",
]


class LinearOperator:
    """A bounded linear map stored as a CSR matrix.

    Any finite 2-D array of reals, dense or sparse, is converted to float
    CSR once; bool, complex and string entries are refused, not cast.
    Immutable after construction; ``apply``/``adjoint_apply`` are pure.
    ``norm_sq`` gives ||B||^2 exactly when it is known in closed form;
    otherwise :func:`op_norm_sq` estimates it once per ``tol`` and keeps the
    estimate on the operator.
    """

    def __init__(self, mat, norm_sq=None):
        if not sp.issparse(mat):
            mat = np.asarray(mat)
        if check_reals(mat, "matrix").ndim != 2:
            raise DimensionError("matrix must be 2-dimensional")
        mat = sp.csr_matrix(mat, dtype=float)
        if not np.isfinite(mat.data).all():
            raise ParameterError("matrix has non-finite entries")
        self._mat, self._matT = mat, mat.T.tocsr()
        self.rows, self.cols = mat.shape
        if self.rows < 1 or self.cols < 1:
            raise DimensionError(
                f"operator dimensions must be positive, got {mat.shape}")
        self._exact_norm_sq = None if norm_sq is None else float(
            check_real("norm_sq", norm_sq, positive=False))
        self._norm_sq_cache = {}

    def apply(self, x):
        x = as_vector(x, self.cols, "apply input")
        return self._mat @ x

    def adjoint_apply(self, y):
        y = as_vector(y, self.rows, "adjoint_apply input")
        return self._matT @ y

    @property
    def matrix(self):
        """Backing matrix, a ``scipy.sparse.csr_matrix`` of floats."""
        return self._mat

    def to_dense(self):
        return self._mat.toarray()

    def __repr__(self):
        return f"LinearOperator({self.rows}x{self.cols})"


def identity(n):
    check_count("n", n, error=DimensionError)
    return LinearOperator(sp.identity(n, format="csr"))


def dense(mat):
    return LinearOperator(mat)


def sparse(mat):
    return LinearOperator(mat)


def zero(rows, cols):
    check_count("rows", rows, error=DimensionError)
    check_count("cols", cols, error=DimensionError)
    return LinearOperator(sp.csr_matrix((rows, cols)))


def first_difference(n):
    """n x n forward difference with a reflexive (all-zero) last row."""
    check_count("n", n, error=DimensionError)
    rows = np.repeat(np.arange(n - 1), 2)
    cols = np.empty(2 * (n - 1), dtype=int)
    cols[0::2] = np.arange(n - 1)
    cols[1::2] = np.arange(1, n)
    data = np.tile([-1.0, 1.0], n - 1)
    mat = sp.csr_matrix((data, (rows, cols)), shape=(n, n))
    return LinearOperator(mat)


def tv_gradient(n, m):
    """Discrete gradient of an n x m image, stacked (2nm) x (nm).

    The first nm output rows are within-column (row-index) differences,
    the second nm are across-column differences.  D^T D is the Kronecker
    sum of two path-graph Laplacians with eigenvalues 4 sin^2(k pi / 2n),
    k < n, so ||D||^2 = 4 sin^2((n-1)pi/2n) + 4 sin^2((m-1)pi/2m) exactly.
    """
    check_count("n", n, error=DimensionError)
    check_count("m", m, error=DimensionError)
    bn = first_difference(n).matrix
    bm = first_difference(m).matrix
    top = sp.kron(sp.identity(m), bn, format="csr")
    bottom = sp.kron(bm, sp.identity(n), format="csr")
    norm_sq = sum(4.0 * math.sin((d - 1) * math.pi / (2 * d)) ** 2
                  for d in (n, m))
    return LinearOperator(sp.vstack([top, bottom], format="csr"),
                          norm_sq=norm_sq)


# Seed of the power-iteration start vector, fixed so that every estimate
# is reproducible, and the iteration cap of power iteration.
_START_SEED = 1
_MAX_ITER = 100_000


def op_norm_sq(op, tol=1e-9):
    """||B||^2 = lambda_max(B^T B): exact if the operator carries it,
    otherwise a power-iteration estimate made once per ``tol`` (finite,
    > 0) and kept on the operator.

    Power iteration starts from a fixed-seed Gaussian vector, which has a
    component along every eigenvector of B^T B with probability one (a
    structured start such as the all-ones vector can be orthogonal to the
    top one and converge to a lower eigenvalue).  It stops when the
    geometric tail bound on the Rayleigh-quotient error drops below ``tol``
    relative.  That bound is an estimate, not a guarantee: on slowly
    converging operators the estimate can end a few ``tol`` low
    (``first_difference(200)`` at ``tol = 1e-9`` is 3.2e-9 low).  The step
    gates use :func:`safe_norm_sq`, whose ``1 + 10 tol`` inflation covers
    this.
    """
    check_real("tol", tol)
    if op._exact_norm_sq is not None:
        return op._exact_norm_sq
    if tol not in op._norm_sq_cache:
        op._norm_sq_cache[tol] = _power_iteration(op, tol)
    return op._norm_sq_cache[tol]


def _power_iteration(op, tol):
    v = Stream(_START_SEED).gaussians(op.cols)
    v /= np.linalg.norm(v)
    w = op.adjoint_apply(op.apply(v))
    lam = float(v @ w)
    diff_prev = np.inf
    for _ in range(_MAX_ITER):
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        v = w / nw
        w = op.adjoint_apply(op.apply(v))
        lam_new = float(v @ w)
        diff = abs(lam_new - lam)
        lam = lam_new
        if diff == 0.0:
            break
        if np.isfinite(diff_prev) and diff_prev > 0.0:
            r = diff / diff_prev
            if r < 1.0 and diff * r / (1.0 - r) <= tol * max(lam, 1e-300):
                break
        diff_prev = diff
    return max(lam, 0.0)


def safe_norm_sq(op, tol=1e-9):
    """Upper-bound flavor of :func:`op_norm_sq` for step-size formulas.

    Power iteration approaches the top eigenvalue from below; the strict
    step-size inequalities need an upper bound, hence the (1 + 10 tol)
    inflation.
    """
    return op_norm_sq(op, tol=tol) * (1.0 + 10.0 * tol)


def _image(u, n, m):
    return as_vector(u, n * m, "image").reshape((n, m), order="F")


def atv(u, n, m):
    """Anisotropic total variation of a column-major n x m image."""
    img = _image(u, n, m)
    dx = img[:, 1:] - img[:, :-1]
    dy = img[1:, :] - img[:-1, :]
    return float(np.abs(dx).sum() + np.abs(dy).sum())


def itv(u, n, m):
    """Isotropic total variation of a column-major n x m image."""
    img = _image(u, n, m)
    dx = np.zeros((n, m))
    dx[:, :-1] = img[:, 1:] - img[:, :-1]
    dy = np.zeros((n, m))
    dy[:-1, :] = img[1:, :] - img[:-1, :]
    return float(np.sqrt(dx * dx + dy * dy).sum())
