"""Product-space machinery for stacks of (operator, prox term) blocks.

A stack represents the composite penalty sum_i h_i(B_i x).  It can carry
optional positive weights summing to 1, which changes the inner product on
the dual product space and therefore the blockwise prox formulas; the
unweighted mode is a distinct flag, not equal weights.
"""

import numpy as np

from .errors import DimensionError
from .linops import safe_norm_sq
from .prox import prox_conjugate, prox_weighted_conjugate

__all__ = ["BlockStack"]


class BlockStack:
    """Ordered blocks (B_i, h_i) over a common primal space."""

    def __init__(self, blocks, weights=None):
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
        self.blocks = tuple(blocks)
        if weights is not None:
            weights = tuple(float(w) for w in weights)
            if len(weights) != len(blocks):
                raise DimensionError(
                    f"{len(weights)} weights for {len(blocks)} blocks")
            if any(not 0 < w <= 1 for w in weights):
                raise DimensionError("weights must lie in (0, 1]")
            if abs(sum(weights) - 1.0) > 1e-12:
                raise DimensionError(
                    f"weights must sum to 1, got {sum(weights)}")
        self.weights = weights
        groups = {}
        for i, (op, _) in enumerate(self.blocks):
            groups.setdefault(id(op), (op, []))[1].append(i)
        self._groups = tuple(groups.values())
        self._norm_sq = None

    @property
    def m(self):
        return len(self.blocks)

    @property
    def primal_dim(self):
        return self.blocks[0][0].cols

    def _check_ys(self, ys):
        if len(ys) != self.m:
            raise DimensionError(
                f"expected {self.m} dual blocks, got {len(ys)}")
        out = []
        for (op, _), y in zip(self.blocks, ys):
            y = np.asarray(y, dtype=float).ravel()
            if y.size != op.rows:
                raise DimensionError(
                    f"dual block length {y.size} != operator rows {op.rows}")
            out.append(y)
        return out

    def apply_blocks(self, x):
        """[B_1 x, ..., B_m x], one product per distinct operator.

        Blocks that share an operator share the returned array; callers
        must not modify it in place.
        """
        out = [None] * self.m
        for op, idx in self._groups:
            bx = op.apply(x)
            for i in idx:
                out[i] = bx
        return out

    def combined_adjoint(self, ys):
        """sum_i w_i B_i^T y_i (weights 1 when unweighted).

        Within a group of blocks sharing B, forms B^T (sum w_i y_i) with one
        adjoint product; groups are summed in order of first appearance.
        """
        ys = self._check_ys(ys)
        out = None
        for op, idx in self._groups:
            z = None
            for i in idx:
                wy = ys[i] if self.weights is None else self.weights[i] * ys[i]
                z = wy if z is None else z + wy
            bz = op.adjoint_apply(z)
            out = bz if out is None else out + bz
        return out

    def stacked_prox(self, ys, t):
        """Blockwise prox of sum_i h_i under the stack's inner product."""
        ys = self._check_ys(ys)
        out = []
        for i, ((_, term), y) in enumerate(zip(self.blocks, ys)):
            step = t / self.weights[i] if self.weights is not None else t
            out.append(term.prox(y, step))
        return out

    def stacked_conjugate_prox(self, ys, t):
        """Blockwise conjugate prox under the stack's inner product."""
        ys = self._check_ys(ys)
        if self.weights is None:
            return [prox_conjugate(term, y, t)
                    for (_, term), y in zip(self.blocks, ys)]
        return [prox_weighted_conjugate(term, w, y, t)
                for (_, term), w, y in zip(self.blocks, self.weights, ys)]

    def norm_sq_bound(self):
        """Safety-factored bound on ||(B_1, ..., B_m)||^2.

        Under the weighted product this is sum_i w_i ||B_i||^2, otherwise
        sum_i ||B_i||^2.  Cached after the first call.
        """
        if self._norm_sq is None:
            total = 0.0
            for i, (op, _) in enumerate(self.blocks):
                w = self.weights[i] if self.weights is not None else 1.0
                total += w * safe_norm_sq(op)
            self._norm_sq = total
        return self._norm_sq
