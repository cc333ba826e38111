"""Product-space machinery for stacks of (operator, prox term) blocks.

A stack represents the composite penalty sum_i h_i(B_i x) as one operator
B = [B_1; ...; B_m] into the product space H = R^{m_1} x ... x R^{m_m}
with the inner product sum_i w_i <y_i, z_i>: optional positive weights
summing to 1, or unit weights for an unweighted stack (which therefore is
not the same as equal weights).  A dual is one vector of H, its blocks in
stack order, as in Condat (2013).
"""

import numpy as np
import scipy.sparse as sp

from .errors import DimensionError, ParameterError, as_vector, check_real
from .linops import LinearOperator, safe_norm_sq

__all__ = ["BlockStack"]


class BlockStack:
    """Ordered blocks (B_i, h_i) over a common primal space; ``weights``
    holds the w_i of the dual inner product, all 1.0 when none are given.

    ``op`` is B (B x is ``op.apply(x)``, on ``op.cols`` entries): the one
    block's own operator, or the rows of every B_i stacked.  Block i of a
    dual of length ``op.rows`` is its ``slices[i]``; ``dual_weights``
    repeats w_i over block i's rows, and is None when every weight is 1.
    """

    def __init__(self, blocks, weights=None):
        self.blocks = blocks = tuple(blocks)
        if not blocks:
            raise DimensionError("BlockStack needs at least one block")
        dims = {op.cols for op, _ in blocks}
        if len(dims) != 1:
            raise DimensionError(
                f"blocks disagree on primal dimension: {sorted(dims)}")
        for op, term in blocks:
            if op.rows != term.dim:
                raise DimensionError(
                    f"operator output {op.rows} != term dim {term.dim}")
        if weights is None:
            weights = (1.0,) * len(blocks)
        else:
            weights = tuple(weights)
            if len(weights) != len(blocks):
                raise DimensionError(
                    f"{len(weights)} weights for {len(blocks)} blocks")
            weights = tuple(check_real("weight", w) for w in weights)
            if max(weights) > 1:
                raise ParameterError("weights must lie in (0, 1]")
            if abs(sum(weights) - 1.0) > 1e-12:
                raise ParameterError(
                    f"weights must sum to 1, got {sum(weights)}")
        self.weights = weights
        ops = [op for op, _ in blocks]
        self.op = ops[0] if len(ops) == 1 else LinearOperator(
            sp.vstack([op.matrix for op in ops], format="csr"))
        rows = [op.rows for op in ops]
        ends = np.cumsum(rows).tolist()
        self.slices = tuple(map(slice, [0] + ends[:-1], ends))
        self.dual_weights = None if set(weights) == {1.0} \
            else np.repeat(weights, rows)

    def combined_adjoint(self, y):
        """B^T (w * y) = sum_i w_i B_i^T y_i, with one adjoint product."""
        y = as_vector(y, self.op.rows, "dual")
        return self.op.adjoint_apply(
            y if self.dual_weights is None else self.dual_weights * y)

    def stacked_prox(self, y, t):
        """Blockwise prox of t h_i with the step t / w_i, for each block i."""
        y = as_vector(y, self.op.rows, "dual")
        ps = [term.prox(y[s], t / w) for (_, term), w, s
              in zip(self.blocks, self.weights, self.slices)]
        return ps[0] if len(ps) == 1 else np.concatenate(ps)

    def value(self, y):
        """sum_i h_i(y_i) at a dual-space point y."""
        y = as_vector(y, self.op.rows, "dual")
        return sum(term.value(y[s])
                   for (_, term), s in zip(self.blocks, self.slices))

    def norm_sq_bound(self):
        """Safety-factored bound on sum_i w_i ||B_i||^2, the squared norm of
        B into the weighted product space; each B_i keeps its ||B_i||^2."""
        return sum(w * safe_norm_sq(op) for (op, _), w
                   in zip(self.blocks, self.weights))
