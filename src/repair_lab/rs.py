"""Reed-Solomon evaluation codes over a FieldContext.

A codeword is the value vector (f(alpha_1), ..., f(alpha_n)) of a message
polynomial f with deg f < k.  The canonical full-length code evaluates at every
field element, ordered alpha_1 = 0 followed by the remaining elements in
ascending integer encoding; node indices are 1-based throughout.  Each code keeps
the fieldmath.poly_evaluator its first encode builds, power-plane tables included.
"""
from __future__ import annotations

import random
from functools import cached_property, reduce

from .fieldmath import FieldContext, poly_deg, poly_evaluator


class RSCode:
    """RS(eval_points, k) over ctx; immutable."""

    def __init__(self, ctx: FieldContext, eval_points, k: int):
        points = tuple(eval_points)
        ctx._check_elements(points)
        if len(set(points)) != len(points):
            raise ValueError("evaluation points must be distinct")
        if not 1 <= k < len(points):
            raise ValueError(f"need 1 <= k < n, got k={k}, n={len(points)}")
        self.ctx = ctx
        self.eval_points = points
        self.k = k

    @classmethod
    def full_length(cls, ctx: FieldContext, k: int) -> "RSCode":
        return cls(ctx, range(ctx.order), k)

    @property
    def n(self) -> int:
        return len(self.eval_points)

    @property
    def is_full_length(self) -> bool:
        return self.n == self.ctx.order

    def encode(self, message) -> list[int]:
        """Evaluate the message polynomial (coefficients ascending) at every node.

        Raises ValueError for a coefficient outside the field or a degree >= k.
        """
        message = list(message)
        self.ctx._check_elements(message)
        if poly_deg(message) >= self.k:
            raise ValueError(f"message degree {poly_deg(message)} >= k={self.k}")
        return self._evaluate(message)

    @cached_property
    def _evaluate(self):
        return poly_evaluator(self.ctx, self.eval_points)

    @cached_property
    def dual_multipliers(self) -> tuple[int, ...]:
        """v_i = prod_{j != i} (alpha_i - alpha_j)^-1, in O(n^2): the dual code is
        {(v_i * g(alpha_i))_i : deg g < n - k} (MacWilliams-Sloane, ch. 10)."""
        ctx, points = self.ctx, self.eval_points
        minus = {b: ctx.neg(b) for b in points}  # once each: the n^2 differences are additions
        return tuple(ctx.inv(reduce(ctx.mul, [ctx.add(a, minus[b]) for b in points if b != a], 1))
                     for a in points)

    def random_message(self, seed: int) -> list[int]:
        rng = random.Random(seed)
        return [rng.randrange(self.ctx.order) for _ in range(self.k)]

    def random_codeword(self, seed: int) -> list[int]:
        return self.encode(self.random_message(seed))

    def __repr__(self) -> str:
        return f"RSCode(q={self.ctx.q}, ell={self.ctx.ell}, n={self.n}, k={self.k})"
