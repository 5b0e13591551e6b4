"""Slow, independent reference implementations the tests check the library against.

Nothing here is used by the package itself.  Each oracle takes the plainest
route to its answer: enumerate, expand, or solve by the textbook formula.
"""
from __future__ import annotations

from itertools import combinations, product

from repair_lab import linalg
from repair_lab.fieldmath import FieldContext, _is_prime, poly_deg, poly_eval, poly_trim
from repair_lab.qpoly import canonical_subspace_basis, qp_eval
from repair_lab.rs import RSCode
from repair_lab.scheme import RepairScheme
from repair_lab.search import _free_cells, _rows_to_scheme

# ---- field and polynomials ---------------------------------------------------------


def field_tables_oracle(ctx: FieldContext) -> tuple[list[int], list[int], list[int]]:
    """The antilog, log and trace tables built element by element: the smallest
    primitive element g, its powers by repeated multiplication, and each
    element's trace as the sum of its Frobenius orbit, all in raw polynomial
    arithmetic."""
    n = ctx.order - 1
    factors = [p for p in range(2, n + 1) if n % p == 0 and _is_prime(p)]
    g = next(
        (c for c in range(2, ctx.order) if all(ctx._pow_raw(c, n // p) != 1 for p in factors)),
        1,
    )
    exp, log = [0] * (2 * n), [0] * ctx.order
    acc = 1
    for i in range(n):
        exp[i] = exp[i + n] = acc
        log[acc] = i
        acc = ctx._mul_raw(acc, g)
    assert acc == 1, "g is not primitive"
    trace = []
    for a in range(ctx.order):
        t, b = a, a
        for _ in range(ctx.ell - 1):
            b = ctx._pow_raw(b, ctx.q)
            t = ctx._add_raw(t, b)
        trace.append(t)
    return exp, log, trace


def coords_oracle(ctx: FieldContext, trace: list[int], a: int, elements) -> tuple[int, ...]:
    """(Tr(a * e) for e in elements), with a trace table from field_tables_oracle."""
    return tuple(trace[ctx._mul_raw(a, e)] for e in elements)


def poly_mul(ctx: FieldContext, a, b) -> list[int]:
    a, b = poly_trim(a), poly_trim(b)
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = ctx.add(out[i + j], ctx.mul(x, y))
    return out


def subspace_elements(ctx: FieldContext, basis) -> list[int]:
    """All q^dim elements of the span (small subspaces only)."""
    out = []
    for coeffs in product(range(ctx.q), repeat=len(basis)):
        a = 0
        for c, b in zip(coeffs, basis):
            a = ctx.add(a, ctx.mul(c, b))
        out.append(a)
    return sorted(set(out))


def qp_kernel(ctx: FieldContext, thetas) -> tuple[int, ...]:
    """Canonical basis of the kernel subspace ker(L)."""
    cols = [ctx.digits(qp_eval(ctx, thetas, b)) for b in ctx.basis]
    a = [[cols[i][t] for i in range(ctx.ell)] for t in range(ctx.ell)]
    null = linalg.nullspace(a, ctx.q)
    return canonical_subspace_basis(ctx, (ctx.from_basis_coords(v) for v in null))


# ---- Reed-Solomon codes --------------------------------------------------------------


def interpolate(code: RSCode, symbols) -> list[int]:
    """Coefficients of the unique degree < n polynomial through all n symbols."""
    ctx = code.ctx
    symbols = list(symbols)
    if len(symbols) != code.n:
        raise ValueError(f"expected {code.n} symbols, got {len(symbols)}")
    master = [1]
    for a in code.eval_points:
        master = poly_mul(ctx, master, [ctx.neg(a), 1])
    out = [0] * code.n
    for a, y in zip(code.eval_points, symbols):
        if y == 0:
            continue
        # quotient master / (x - a) by synthetic division, then scale
        quot = [0] * code.n
        carry = master[code.n]
        for d in range(code.n - 1, -1, -1):
            quot[d] = carry
            carry = ctx.add(master[d], ctx.mul(a, carry))
        scale = ctx.mul(y, ctx.inv(poly_eval(ctx, quot, a)))
        for d in range(code.n):
            out[d] = ctx.add(out[d], ctx.mul(scale, quot[d]))
    return poly_trim(out)


def is_codeword(code: RSCode, symbols) -> bool:
    return poly_deg(interpolate(code, symbols)) < code.k


# ---- repair schemes --------------------------------------------------------------------


def io_matrix_oracle(scheme: RepairScheme, i: int) -> list[list[int]]:
    """Node i's I/O matrix expanded straight from the dual codeword values."""
    return [list(scheme.ctx.dual_coords(ev[i - 1])) for ev in scheme.evals]


def iter_echelon_bases(m: int, k: int, q: int):
    """Every k x m reduced-echelon basis matrix over GF(q), one per subspace,
    as tuples of row tuples."""
    for pivots in combinations(range(m), k):
        cells = _free_cells(pivots, m)
        base = [[0] * m for _ in range(k)]
        for r, p in enumerate(pivots):
            base[r][p] = 1
        for assignment in product(range(q), repeat=len(cells)):
            rows = [row[:] for row in base]
            for (r, c), v in zip(cells, assignment):
                rows[r][c] = v
            yield tuple(tuple(row) for row in rows)


def iter_valid_schemes(ctx: FieldContext, r: int, star: int = 1):
    """All distinct valid schemes (one per dual-codeword span) — small spaces only."""
    for rows in iter_echelon_bases(r * ctx.ell, ctx.ell, ctx.q):
        scheme = _rows_to_scheme(ctx, rows, r, star)
        if scheme.validate() is None:
            yield scheme


def diagonal_zero_counts(scheme: RepairScheme, s: int) -> list[int]:
    """For each of the first s+1 subsymbol columns, how many nodes' I/O matrices
    have a zero diagonal entry there (the failed node never does)."""
    return [
        sum(
            1
            for i in range(1, scheme.code.n + 1)
            if io_matrix_oracle(scheme, i)[j][j] == 0
        )
        for j in range(s + 1)
    ]
