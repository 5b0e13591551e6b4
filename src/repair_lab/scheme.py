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
module; nothing may shortcut one through the other.

Both read one packed I/O table (_table), built once per scheme on first use from
FieldContext.dual_rows: the ell stacked rows, every node's ell rows (its rank is one
linalg.echelon run) and every node's read columns, the nonzero fields of the OR of
its rows.  The direct route reads those columns; the formula route only the stacked
rows: their rank by echelon and the count of their nonzero fields.

Repair runs on bit-sliced packed lanes (FieldContext.coord_planes): plane R_{j,b}
holds bit b of row j of the I/O matrices, one lane per node (the failed node's is
zero), the read mask M is their union, and per call S_b holds bit b of the helpers'
stored subsymbols, masked by M, so the value depends only on the reads reported.
The trace repair's sum of row_j * stored over the read positions is then
sum_{b,b'} 2^(b+b') * popcount(R_{j,b} & S_b') mod q: one popcount per row at q = 2.

Node indices, subsymbol indices, and dual-codeword indices are 1-based in every
public interface, matching the storage convention (node 1 holds the evaluation
at zero for full-length codes).
"""
from __future__ import annotations

from functools import cached_property, reduce
from itertools import chain
from operator import or_

from . import linalg
from .fieldmath import (
    _is_int,
    field_context,
    poly_deg,
    poly_eval,
    poly_eval_lanes,
    poly_shift,
    poly_trim,
)
from .rs import RSCode


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
        return [tuple(poly_eval_lanes(self.ctx, g, points)) for g in self.duals]

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
    def _table(self) -> tuple[list[int], list[tuple[int, ...]], list[tuple[int, ...]]]:
        # the packed I/O table (module docstring): stacked rows, node rows, read columns
        ell, pk = self.ctx.ell, linalg.Packing(self.ctx.q, self.ctx.ell)
        rows, texts = self.ctx.dual_rows(chain.from_iterable(self.evals))
        stacked = [int("".join(map(texts.__getitem__, ev)), 2) for ev in self.evals]
        nodes = list(zip(*(map(rows.__getitem__, ev) for ev in self.evals)))
        masks = [pk.nonzero(reduce(or_, r)) for r in nodes]  # column t: bit (ell-t+1)*b - 1
        cols = {m: tuple(t for t in range(1, ell + 1) if m >> (ell - t + 1) * pk.b - 1 & 1)
                for m in set(masks)}
        return stacked, nodes, [cols[m] for m in masks]

    def io_matrix(self, i: int) -> list[list[int]]:
        """ell x ell matrix over B at node i: row j holds the dual-basis
        coordinates of the j-th dual codeword's value there."""
        self._check_node(i)
        pk = linalg.Packing(self.ctx.q, self.ctx.ell)
        return [pk.unpack(row) for row in self._table[1][i - 1]]

    def accessed_subsymbols(self, i: int) -> list[int]:
        """1-based indices of the subsymbols repair reads at helper i."""
        self._check_node(i)
        if i == self.star:
            raise ValueError("the failed node is not read")
        return list(self._table[2][i - 1])

    def helpers(self) -> list[int]:
        return [i for i in range(1, self.code.n + 1) if i != self.star]

    @cached_property
    def _ranks(self) -> list[int]:
        # every helper's I/O matrix rank, in helpers() order (module docstring)
        pk, star = linalg.Packing(self.ctx.q, self.ctx.ell), self.star
        return [len(linalg.echelon(pk, r)) for i, r in enumerate(self._table[1], 1) if i != star]

    def bandwidth(self) -> int:
        """Subsymbols transmitted: sum of I/O matrix ranks over the helpers."""
        return sum(self._ranks)

    def io_cost_direct(self) -> int:
        """Subsymbols read: sum of nonzero-column counts over the helpers."""
        columns = self._table[2]
        return sum(map(len, columns)) - len(columns[self.star - 1])

    # ---- the weight-formula route ----------------------------------------------

    def stacked_io_matrix(self) -> list[list[int]]:
        """All per-node matrices side by side: ell rows, n*ell columns over B.
        Row j is the full subsymbol-coordinate vector of the j-th dual codeword."""
        pk = linalg.Packing(self.ctx.q, self.code.n * self.ctx.ell)
        return [pk.unpack(row) for row in self._table[0]]

    def io_cost_formula(self) -> int:
        """I/O cost via the row-space weight of the stacked matrix, from its packed
        rows alone: k independent rows with s nonzero columns weigh s * q^(k-1) * (q-1)
        in all, so the weight / (q^(ell-1) * (q-1)) counts the nonzero columns; the
        failed node always contributes exactly ell of them.  The division must be
        exact — a remainder means the implementation is inconsistent."""
        self.require_valid()
        q, ell, stacked = self.ctx.q, self.ctx.ell, self._table[0]
        pk = linalg.Packing(q, self.code.n * ell)
        k = len(linalg.echelon(pk, stacked))
        if k != len(stacked):
            raise ValueError("rows are not linearly independent")
        total = pk.nonzero(reduce(or_, stacked)).bit_count() * q ** (k - 1) * (q - 1)
        denom = q ** (ell - 1) * (q - 1)
        if total % denom:
            raise ArithmeticError(f"row-space weight {total} not divisible by {denom}")
        return total // denom - ell

    # ---- repair ------------------------------------------------------------------

    @cached_property
    def _recon(self) -> list[int]:
        # mu_j with Tr(g_j(alpha_star) * mu_j') = 1 iff j == j': the columns of
        # the inverse of the failed node's I/O matrix, read in the working basis.
        ctx = self.ctx
        inv = linalg.inverse(self.io_matrix(self.star), ctx.q)
        return [ctx.from_basis_coords(row[j] for row in inv) for j in range(ctx.ell)]

    @cached_property
    def _lanes(self) -> tuple[list[tuple[int, int, int]], int, dict[int, tuple]]:
        # the packed repair's per-scheme data (module docstring): each plane
        # R_{j,b} as (j, b, R), the read mask M, and each read helper's columns
        star, columns = self.star, self._table[2]
        zeroed = [ev[: star - 1] + (0,) + ev[star:] for ev in self.evals]  # failed lane: 0
        planes = [(j, b, plane) for j, ev in enumerate(zeroed)
                  for b, plane in enumerate(self.ctx.coord_planes(ev, dual=True))]
        reads = {i: cols for i, cols in enumerate(columns, 1) if cols and i != star}
        return planes, reduce(or_, [plane for *_, plane in planes], 0), reads

    def repair_transcript(self, symbols) -> tuple[int, dict[int, list[int]]]:
        """Repair the erased symbol, returning (value, subsymbols read per helper).

        `symbols` is the codeword with None at the failed position and a field
        element at every helper.  Each helper's stored subsymbols are its symbol's
        working-basis coordinates; only those under nonzero I/O matrix columns are
        touched, and the transcript records exactly which (1-based, per helper
        node index)."""
        self.require_valid()
        ctx, n, q, star = self.ctx, self.code.n, self.ctx.q, self.star
        symbols = list(symbols)
        if len(symbols) != n:
            raise ValueError(f"expected {n} symbols, got {len(symbols)}")
        if symbols[star - 1] is not None:
            raise ValueError(f"node {star} must be erased (None)")
        held = symbols[: star - 1] + symbols[star:]
        if set(map(type, held)) != {int} or min(held) < 0 or max(held) >= ctx.order:
            for i, a in zip(self.helpers(), held):
                if a is None:
                    raise ValueError(f"helper {i} is erased; only node {star} may be")
                if not _is_int(a) or not 0 <= a < ctx.order:
                    raise ValueError(f"helper {i} holds {a!r}, not a field element")
        planes, mask, reads = self._lanes
        symbols[star - 1] = 0  # basis_coords(0) = 0: the failed lane of every S_b is zero
        stored = [s & mask for s in ctx.coord_planes(symbols)]
        totals = [0] * ctx.ell
        for j, shift, plane in planes:
            for b, s in enumerate(stored):
                totals[j] += (plane & s).bit_count() << (shift + b)
        value = 0
        for j, mu in enumerate(self._recon):
            value = ctx.add(value, ctx.mul((-totals[j]) % q, mu))
        return value, {i: list(cols) for i, cols in reads.items()}

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
        shift = self.ctx.neg(self.code.eval_points[target - 1])
        duals = [poly_shift(self.ctx, g, shift) for g in self.duals]
        return RepairScheme(self.code, target, duals)

    # ---- reporting ---------------------------------------------------------------------

    def cost_report(self) -> dict:
        """Everything one repair costs: per-helper matrix summaries plus the
        totals by both routes.  `per_node` rows are dicts {"i", "rank", "nz",
        "cols"} with 1-based node and column indices, helpers only."""
        per_node, columns = [], self._table[2]
        for i, rank in zip(self.helpers(), self._ranks):
            cols = list(columns[i - 1])
            per_node.append({"i": i, "rank": rank, "nz": len(cols), "cols": cols})
        return {
            "q": self.ctx.q,
            "ell": self.ctx.ell,
            "n": self.code.n,
            "k": self.code.k,
            "node": self.star,
            "bandwidth": sum(row["rank"] for row in per_node),
            "io_cost": sum(row["nz"] for row in per_node),
            "io_cost_formula": self.io_cost_formula(),
            "per_node": per_node,
        }

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
        ctx = field_context(data["q"], data["ell"], data.get("modulus"), data.get("basis"))
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
