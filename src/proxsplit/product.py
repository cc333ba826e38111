"""Product-space machinery for stacks of (operator, prox term) blocks.

A stack represents the composite penalty sum_i h_i(B_i x).  Its dual
product space carries the inner product sum_i w_i <y_i, z_i>: optional
positive weights summing to 1, or unit weights for an unweighted stack
(which therefore is not the same as equal weights).
"""

import numpy as np

from .errors import DimensionError
from .linops import safe_norm_sq

__all__ = ["BlockStack"]


class BlockStack:
    """Ordered blocks (B_i, h_i) over a common primal space; ``weights``
    holds the w_i of the dual inner product, all 1.0 when none are given."""

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
        if weights is None:
            weights = (1.0,) * len(blocks)
        else:
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
        """sum_i w_i B_i^T y_i.

        Within a group of blocks sharing B, forms B^T (sum w_i y_i) with one
        adjoint product; groups are summed in order of first appearance.
        """
        ys = self._check_ys(ys)
        out = None
        for op, idx in self._groups:
            z = None
            for i in idx:
                w = self.weights[i]
                wy = ys[i] if w == 1.0 else w * ys[i]
                z = wy if z is None else z + wy
            bz = op.adjoint_apply(z)
            out = bz if out is None else out + bz
        return out

    def stacked_prox(self, ys, t):
        """Blockwise prox of t h_i with the step t / w_i, for each block i."""
        ys = self._check_ys(ys)
        return [term.prox(y, t / w)
                for (_, term), w, y in zip(self.blocks, self.weights, ys)]

    def norm_sq_bound(self):
        """Safety-factored bound on sum_i w_i ||B_i||^2, the squared norm of
        (B_1, ..., B_m) into the weighted product space.  Cached after the
        first call.
        """
        if self._norm_sq is None:
            self._norm_sq = sum(w * safe_norm_sq(op) for (op, _), w
                                in zip(self.blocks, self.weights))
        return self._norm_sq
