"""Slow, independent reference implementations the tests check the library against.

Nothing here is used by the package itself.  Each oracle takes the plainest
route to its answer: enumerate, expand, or solve by the textbook formula.
"""
from __future__ import annotations

from functools import reduce
from itertools import accumulate, combinations, product
from operator import or_

from repair_lab import linalg
from repair_lab.fieldmath import (
    FieldContext, _is_prime, poly_deg, poly_eval, poly_shift, poly_trim,
)
from repair_lab.qpoly import canonical_subspace_basis, qp_eval
from repair_lab.rs import RSCode
from repair_lab.scheme import RepairScheme
from repair_lab.search import _graph_rows, _rows_to_scheme

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


# ---- linear algebra ------------------------------------------------------------------


def solve(a: list[list[int]], b: list[int], p: int) -> list[int] | None:
    """One solution x of a·x = b over Z_p, or None if the system is inconsistent."""
    aug = [row + [bv] for row, bv in zip(a, b)]
    red, pivots = linalg.rref(aug, p)
    ncols = len(a[0]) if a else 0
    if ncols in pivots:  # pivot in the constant column
        return None
    x = [0] * ncols
    for row, c in zip(red, pivots):
        x[c] = row[-1]
    return x


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


def _free_cells(pivots: tuple[int, ...], m: int) -> list[tuple[int, int]]:
    """Unconstrained matrix positions for a pivot pattern, row-major order."""
    pivset = set(pivots)
    return [
        (r, c)
        for r, p in enumerate(pivots)
        for c in range(p + 1, m)
        if c not in pivset
    ]


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


# ---- exhaustive search over every subspace ------------------------------------------


def _dual_space_data(ctx: FieldContext, r: int, star: int):
    """Per B-basis-vector data for the dual code: the stacked subsymbol-coordinate
    row (length n*ell over B) and the value at the failed node.  Basis vector
    d*ell + t is the polynomial basis[t] * x^d."""
    n = ctx.order
    alpha_star = star - 1  # full-length points are 0..n-1 in order
    rows = []
    vals = []
    for d in range(r):
        powers = [ctx.power(a, d) for a in range(n)]
        for t in range(ctx.ell):
            b = ctx.basis[t]
            values = [ctx.mul(b, p) for p in powers]
            rows.append(tuple(c for v in values for c in ctx.dual_coords(v)))
            vals.append(values[alpha_star])
    return rows, vals


def pattern_scan(ctx: FieldContext, r: int, star: int):
    """(count, best) over every ell-dimensional subspace of the dual code, one
    reduced-echelon basis per subspace, where best is the least (cost, flattened
    echelon basis over the basis[t] * x^d) among the bases that repair the node.

    Each pivot pattern's free cells are walked in modular q-ary Gray order on
    packed integers, one row addition per subspace, and each basis whose cost
    can still win gets the exact rank test: the node values of rows 1.. span
    q^(ell-1) points and row 0's value lies outside them.
    """
    q, ell, m = ctx.q, ctx.ell, r * ctx.ell
    rows_data, vals_data = _dual_space_data(ctx, r, star)
    b = 1 if q == 2 else (2 * q - 1).bit_length() + 1
    shift, full = b - 1, q ** (ell - 1)

    def pack(digits) -> int:
        return sum(d << (j * b) for j, d in enumerate(digits))

    P = [pack(row) for row in rows_data]
    V = [pack(ctx.digits(v)) for v in vals_data]
    ones = pack([1] * len(rows_data[0]))
    high = ones << shift
    over, nonzero = ((1 << shift) - q) * ones, ((1 << shift) - 1) * ones

    def add(x: int, y: int) -> int:
        if q == 2:
            return x ^ y
        s = x + y
        return s - (((s + over) & high) >> shift) * q

    count, best = 0, None
    for pivots in combinations(range(m), ell):
        cells = _free_cells(pivots, m)
        a = [0] * (len(cells) + 1)
        rows, vals = [P[p] for p in pivots], [V[p] for p in pivots]
        t, stop, i = 0, q ** len(cells), 1
        while True:
            if i:  # a row other than row 0 moved (or this pattern just began)
                rest, lower = reduce(or_, rows[1:], 0), None
            cost = (((rest | rows[0]) + nonzero) & high).bit_count() - ell
            if best is None or cost <= best[0]:
                if lower is None:
                    lower = {0}
                    for v in vals[1:]:
                        multiples = list(accumulate([v] * (q - 1), add, initial=0))
                        lower = {add(x, w) for x in lower for w in multiples}
                if len(lower) == full and vals[0] not in lower:
                    key = [0] * (ell * m)
                    for row, p in enumerate(pivots):
                        key[row * m + p] = 1
                    for k, (row, c) in enumerate(cells):
                        key[row * m + c] = (a[k] - a[k + 1]) % q
                    if best is None or (cost, tuple(key)) < best:
                        best = (cost, tuple(key))
            t += 1
            if t == stop:
                break
            j = 0
            while a[j] == q - 1:
                a[j] = 0
                j += 1
            a[j] += 1
            i, c = cells[j]
            rows[i], vals[i] = add(rows[i], P[c]), add(vals[i], V[c])
        count += stop
    return count, best


def orbit_keys(ctx: FieldContext, r: int, star: int, s: int, counter: int):
    """Flattened reduced-echelon bases, over the basis[t] * x^d, of slice s's
    scheme at a Gray counter and, outside the A_1 = 0 slice, of all its q^ell - 1
    scalings A_d -> c^d A_d (the A_1 = 0 slice is scanned whole).  Each image is
    built as polynomials and reduced by linalg.rref."""
    ell, shift = ctx.ell, ctx.neg(star - 1)
    graph = [
        [ctx.from_basis_coords(row[d * ell : (d + 1) * ell]) for d in range(r)]
        for row in _graph_rows(ctx, r, s, counter)
    ]
    for c in range(1, ctx.order) if s < ell else (1,):
        scale = [ctx.power(c, d) for d in range(r)]
        rows = []
        for coeffs in graph:
            # b_t + sum_d c^d A_d(b_t) y^d at y = x - alpha*
            g = poly_shift(ctx, [ctx.mul(f, a) for f, a in zip(scale, coeffs)], shift)
            g += [0] * (r - len(g))
            rows.append([x for a in g for x in ctx.basis_coords(a)])
        yield tuple(x for row in linalg.rref(rows, ctx.q)[0] for x in row)
