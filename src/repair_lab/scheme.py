"""Linear repair schemes for one erased Reed-Solomon symbol, and their costs.

A scheme for node i* is a list of ell dual codewords, given as polynomials of
degree < n - k.  Each helper node i stores its symbol as ell subsymbols (the
working-basis coordinates); the scheme induces an ell x ell I/O matrix over B at
every node whose rows are the dual-basis coordinate vectors of the dual codeword
values there.  Repairing reads, at helper i, exactly the subsymbols under the
nonzero columns of that matrix:

- bandwidth (subsymbols transmitted) sums the matrix ranks over the helpers;
- I/O cost (subsymbols read) sums the nonzero-column counts over the helpers.

The I/O cost is also computed by a second, independent route: the total Hamming
weight of the row space of all per-node matrices stacked side by side, divided by
q^(ell-1) * (q-1), minus ell.  Keeping both routes separate is the point of this
module; nothing may shortcut one through the other.  Both start from the same
coordinate expansion, computed once per scheme on first use: the direct route
reads its per-node nonzero columns, the formula route only the stacked matrix.

Node indices, subsymbol indices, and dual-codeword indices are 1-based in every
public interface, matching the storage convention (node 1 holds the evaluation
at zero for full-length codes).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from . import linalg
from .fieldmath import (
    FieldContext,
    _is_int,
    coset_weight,
    poly_deg,
    poly_eval,
    poly_shift,
    poly_trim,
)
from .rs import RSCode


@dataclass
class CostReport:
    """Everything one repair costs: per-helper matrix summaries plus the totals
    by both routes.  `per_node` rows are dicts {"i", "rank", "nz", "cols"} with
    1-based node and column indices, helpers only."""

    q: int
    ell: int
    n: int
    k: int
    node: int
    bandwidth: int
    io_cost: int
    io_cost_formula: int
    per_node: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "q": self.q,
            "ell": self.ell,
            "n": self.n,
            "k": self.k,
            "node": self.node,
            "bandwidth": self.bandwidth,
            "io_cost": self.io_cost,
            "io_cost_formula": self.io_cost_formula,
            "per_node": [dict(row) for row in self.per_node],
        }


class RepairScheme:
    """ell dual codewords targeting one node of an RS code; immutable."""

    def __init__(self, code: RSCode, star: int, duals):
        ctx = code.ctx
        self.code = code
        self._check_node(star)
        duals = [poly_trim(g) for g in duals]
        if len(duals) != ctx.ell:
            raise ValueError(f"need exactly ell={ctx.ell} dual codewords, got {len(duals)}")
        for g in duals:
            for c in g:
                ctx._check_element(c)
        self.ctx = ctx
        self.star = star
        self.duals = [tuple(g) for g in duals]

    @cached_property
    def evals(self) -> list[tuple[int, ...]]:
        """Every dual codeword's values at every node, computed on first use."""
        points = self.code.eval_points
        return [tuple(poly_eval(self.ctx, g, a) for a in points) for g in self.duals]

    def _check_node(self, i: int) -> None:
        if not _is_int(i) or not 1 <= i <= self.code.n:
            raise ValueError(f"node index must be an integer in 1..{self.code.n}, got {i!r}")

    # ---- validity ------------------------------------------------------------

    def validate(self) -> str | None:
        """None if the scheme is well formed, else the first violation found."""
        bound = self.code.n - self.code.k - 1
        for j, g in enumerate(self.duals, start=1):
            if poly_deg(g) > bound:
                return (
                    f"dual codeword {j} has degree {poly_deg(g)}, "
                    f"outside the dual code (max {bound})"
                )
        alpha = self.code.eval_points[self.star - 1]
        coords = [list(self.ctx.digits(poly_eval(self.ctx, g, alpha))) for g in self.duals]
        r = linalg.rank(coords, self.ctx.q)
        if r != self.ctx.ell:
            return (
                f"dual codeword values at node {self.star} span dimension "
                f"{r} < {self.ctx.ell}; the erased symbol is not recoverable"
            )
        return None

    def require_valid(self) -> None:
        violation = self.validate()
        if violation is not None:
            raise ValueError(violation)

    # ---- per-node I/O matrices -------------------------------------------------

    @cached_property
    def _table(self) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
        # The coordinate expansion, done once: the stacked ell x n*ell matrix
        # (node i's I/O matrix in columns (i-1)*ell .. i*ell - 1) and every
        # node's nonzero columns, 0-based within the node.
        ell, dual_coords = self.ctx.ell, self.ctx.dual_coords
        stacked = [[] for _ in range(ell)]
        columns = []
        for values in zip(*self.evals):
            w = [dual_coords(a) for a in values]
            columns.append(tuple(linalg.nonzero_columns(w)))
            for row, coords in zip(stacked, w):
                row.extend(coords)
        return [tuple(row) for row in stacked], columns

    def io_matrix(self, i: int) -> list[list[int]]:
        """ell x ell matrix over B at node i: row j holds the dual-basis
        coordinates of the j-th dual codeword's value there."""
        self._check_node(i)
        ell = self.ctx.ell
        stacked, _ = self._table
        return [list(row[(i - 1) * ell : i * ell]) for row in stacked]

    def accessed_subsymbols(self, i: int) -> list[int]:
        """1-based indices of the subsymbols repair reads at helper i."""
        self._check_node(i)
        if i == self.star:
            raise ValueError("the failed node is not read")
        _, columns = self._table
        return [c + 1 for c in columns[i - 1]]

    def helpers(self) -> list[int]:
        return [i for i in range(1, self.code.n + 1) if i != self.star]

    @cached_property
    def _ranks(self) -> list[int]:
        # every helper's I/O matrix rank, in helpers() order
        ell, q = self.ctx.ell, self.ctx.q
        stacked, _ = self._table
        return [
            linalg.rank([row[(i - 1) * ell : i * ell] for row in stacked], q)
            for i in self.helpers()
        ]

    def bandwidth(self) -> int:
        """Subsymbols transmitted: sum of I/O matrix ranks over the helpers."""
        return sum(self._ranks)

    def io_cost_direct(self) -> int:
        """Subsymbols read: sum of nonzero-column counts over the helpers."""
        _, columns = self._table
        return sum(len(columns[i - 1]) for i in self.helpers())

    # ---- the weight-formula route ----------------------------------------------

    def stacked_io_matrix(self) -> list[list[int]]:
        """All per-node matrices side by side: ell rows, n*ell columns over B.
        Row j is the full subsymbol-coordinate vector of the j-th dual codeword."""
        stacked, _ = self._table
        return [list(row) for row in stacked]

    def io_cost_formula(self) -> int:
        """I/O cost via the row-space weight of the stacked matrix.

        total weight / (q^(ell-1) * (q-1)) counts the nonzero columns; the
        failed node always contributes exactly ell of them.  The division must
        be exact — a remainder means the implementation is inconsistent."""
        self.require_valid()
        q, ell = self.ctx.q, self.ctx.ell
        _, total = coset_weight(self.stacked_io_matrix(), None, q)
        denom = q ** (ell - 1) * (q - 1)
        if total % denom:
            raise ArithmeticError(
                f"row-space weight {total} not divisible by {denom}"
            )
        return total // denom - ell

    # ---- repair ------------------------------------------------------------------

    @cached_property
    def _recon(self) -> list[int]:
        # mu_j with Tr(g_j(alpha_star) * mu_j') = 1 iff j == j': the columns of
        # the inverse of the failed node's I/O matrix, read in the working basis.
        ctx = self.ctx
        inv = linalg.inverse(self.io_matrix(self.star), ctx.q)
        return [
            ctx.from_basis_coords(inv[t][j] for t in range(ctx.ell))
            for j in range(ctx.ell)
        ]

    def repair_transcript(self, symbols) -> tuple[int, dict[int, list[int]]]:
        """Repair the erased symbol, returning (value, subsymbols read per helper).

        `symbols` is the codeword with None at the failed position.  Each helper's
        stored subsymbols are its symbol's working-basis coordinates; only those
        under nonzero I/O matrix columns are touched, and the transcript records
        exactly which (1-based, per helper node index)."""
        self.require_valid()
        ctx, n, q, ell = self.ctx, self.code.n, self.ctx.q, self.ctx.ell
        symbols = list(symbols)
        if len(symbols) != n:
            raise ValueError(f"expected {n} symbols, got {len(symbols)}")
        if symbols[self.star - 1] is not None:
            raise ValueError(f"node {self.star} must be erased (None)")
        stacked, columns = self._table
        reads: dict[int, list[int]] = {}
        totals = [0] * ell
        for i in self.helpers():
            if symbols[i - 1] is None:
                raise ValueError(f"helper {i} is erased; only node {self.star} may be")
            cols = columns[i - 1]
            if not cols:
                continue
            stored = ctx.basis_coords(symbols[i - 1])
            reads[i] = [c + 1 for c in cols]
            base = (i - 1) * ell
            for j in range(ell):
                row = stacked[j]
                totals[j] += sum(row[base + t] * stored[t] for t in cols)
        value = 0
        for j, mu in enumerate(self._recon):
            value = ctx.add(value, ctx.mul((-totals[j]) % q, mu))
        return value, reads

    # ---- translation to another node ------------------------------------------------

    def translate(self, target: int) -> "RepairScheme":
        """The same scheme moved to repair `target` by substituting x - alpha_target
        into every dual codeword.  Requires a full-length code and a scheme for
        node 1 (the zero evaluation point); degrees are preserved."""
        if not self.code.is_full_length:
            raise ValueError("translation requires the full-length code")
        if self.star != 1:
            raise ValueError("translation starts from a scheme for node 1")
        self._check_node(target)
        alpha = self.code.eval_points[target - 1]
        shift = self.ctx.neg(alpha)
        duals = [poly_shift(self.ctx, g, shift) for g in self.duals]
        return RepairScheme(self.code, target, duals)

    # ---- reporting ---------------------------------------------------------------------

    def cost_report(self) -> CostReport:
        q, ell = self.ctx.q, self.ctx.ell
        per_node = []
        for i, rank in zip(self.helpers(), self._ranks):
            cols = self.accessed_subsymbols(i)
            per_node.append({"i": i, "rank": rank, "nz": len(cols), "cols": cols})
        return CostReport(
            q=q,
            ell=ell,
            n=self.code.n,
            k=self.code.k,
            node=self.star,
            bandwidth=sum(row["rank"] for row in per_node),
            io_cost=sum(row["nz"] for row in per_node),
            io_cost_formula=self.io_cost_formula(),
            per_node=per_node,
        )

    # ---- serialization -----------------------------------------------------------------

    def to_dict(self) -> dict:
        if not self.code.is_full_length:
            raise ValueError("only full-length schemes serialize")
        return {
            "q": self.ctx.q,
            "ell": self.ctx.ell,
            "modulus": list(self.ctx.modulus),
            "basis": list(self.ctx.basis),
            "n": self.code.n,
            "k": self.code.k,
            "star": self.star,
            "duals": [list(g) for g in self.duals],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RepairScheme":
        """Inverse of to_dict; raises ValueError on any malformed input."""

        def is_int_list(x) -> bool:
            return isinstance(x, list) and all(_is_int(v) for v in x)

        if not isinstance(data, dict):
            raise ValueError("a scheme must be a JSON object")
        for key in ("q", "ell", "k", "star"):
            if not _is_int(data.get(key)):
                raise ValueError(f"scheme field {key!r} must be an integer")
        for key in ("modulus", "basis"):
            if data.get(key) is not None and not is_int_list(data[key]):
                raise ValueError(f"scheme field {key!r} must be a list of integers")
        duals = data.get("duals")
        if not isinstance(duals, list) or not all(is_int_list(g) for g in duals):
            raise ValueError("scheme field 'duals' must be a list of integer lists")
        ctx = FieldContext(
            data["q"], data["ell"], data.get("modulus"), data.get("basis")
        )
        n = data.get("n", ctx.order)
        if not _is_int(n) or n != ctx.order:
            raise ValueError(f"scheme field 'n' must be q^ell = {ctx.order}, got {n!r}")
        code = RSCode.full_length(ctx, data["k"])
        return cls(code, data["star"], data["duals"])

    def __repr__(self) -> str:
        return (
            f"RepairScheme(q={self.ctx.q}, ell={self.ctx.ell}, n={self.code.n}, "
            f"k={self.code.k}, node={self.star})"
        )
