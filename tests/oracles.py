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
from repair_lab.linalg import Packing, back_substitute, echelon
from repair_lab.qpoly import canonical_subspace_basis, qp_eval
from repair_lab.rs import RSCode
from repair_lab.scheme import RepairScheme
from repair_lab.search import _cells, _rows_to_scheme

# ---- field and polynomials ---------------------------------------------------------

# The modulus table the library shipped before it derived its default moduli:
# the first monic irreducible per (q, degree) in encoding order, coefficients
# ascending, computed once by trial division and frozen.
DEFAULT_MODULI: dict[tuple[int, int], tuple[int, ...]] = {
    (2, 1): (0, 1),
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (2, 5): (1, 0, 1, 0, 0, 1),
    (2, 6): (1, 1, 0, 0, 0, 0, 1),
    (2, 7): (1, 1, 0, 0, 0, 0, 0, 1),
    (2, 8): (1, 1, 0, 1, 1, 0, 0, 0, 1),
    (2, 9): (1, 1, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 10): (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1),
    (2, 11): (1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 12): (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (3, 1): (0, 1),
    (3, 2): (1, 0, 1),
    (3, 3): (1, 2, 0, 1),
    (3, 4): (2, 1, 0, 0, 1),
    (3, 5): (1, 2, 0, 0, 0, 1),
    (3, 6): (2, 1, 0, 0, 0, 0, 1),
    (3, 7): (2, 0, 1, 0, 0, 0, 0, 1),
    (3, 8): (2, 0, 1, 0, 0, 0, 0, 0, 1),
    (3, 9): (1, 0, 1, 2, 0, 0, 0, 0, 0, 1),
    (3, 10): (1, 0, 2, 0, 0, 0, 0, 0, 0, 0, 1),
    (3, 11): (2, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (3, 12): (2, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (5, 1): (0, 1),
    (5, 2): (2, 0, 1),
    (5, 3): (1, 1, 0, 1),
    (5, 4): (2, 0, 0, 0, 1),
    (5, 5): (1, 4, 0, 0, 0, 1),
    (5, 6): (2, 1, 0, 0, 0, 0, 1),
    (5, 7): (1, 1, 0, 0, 0, 0, 0, 1),
    (5, 8): (2, 0, 0, 0, 0, 0, 0, 0, 1),
    (5, 9): (3, 2, 1, 0, 0, 0, 0, 0, 0, 1),
    (5, 10): (3, 1, 1, 0, 0, 0, 0, 0, 0, 0, 1),
    (5, 11): (1, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (5, 12): (4, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
}


def first_irreducible(q: int, ell: int) -> tuple[int, ...]:
    """The first monic polynomial of degree ell in encoding order (ascending
    coefficients as base-q digits) that is not a product of two monic
    polynomials of lower degree, found by enumerating every such product."""
    monic = {
        d: [tuple(c) + (1,) for c in product(range(q), repeat=d)] for d in range(1, ell)
    }
    products = set()
    for d in range(1, ell // 2 + 1):
        for f in monic[d]:
            for g in monic[ell - d]:
                out = [0] * (ell + 1)
                for i, x in enumerate(f):
                    for j, y in enumerate(g):
                        out[i + j] = (out[i + j] + x * y) % q
                products.add(tuple(out))
    for low in product(range(q), repeat=ell):
        candidate = tuple(reversed(low)) + (1,)
        if candidate not in products:
            return candidate
    raise AssertionError("every monic polynomial factors")



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
    return exp, log, [orbit_trace(ctx, a) for a in range(ctx.order)]


def orbit_trace(ctx: FieldContext, a: int) -> int:
    """Tr(a) as the sum of a's Frobenius orbit, in raw polynomial arithmetic."""
    t, b = a, a
    for _ in range(ctx.ell - 1):
        b = ctx._pow_raw(b, ctx.q)
        t = ctx._add_raw(t, b)
    return t


def coords_oracle(ctx: FieldContext, trace: list[int] | None, a: int, elements) -> tuple[int, ...]:
    """(Tr(a * e) for e in elements), with a trace table from field_tables_oracle,
    or each trace by orbit_trace where `trace` is None (fields past the table limit)."""
    traced = trace.__getitem__ if trace is not None else lambda x: orbit_trace(ctx, x)
    return tuple(traced(ctx._mul_raw(a, e)) for e in elements)


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


def nonzero_columns(rows: list[list[int]]) -> list[int]:
    """Indices of columns holding at least one nonzero entry."""
    return [c for c, nz in enumerate(map(any, zip(*rows))) if nz]


def rref(rows: list[list[int]], p: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form over Z_p by Gauss-Jordan on lists of rows, the
    reference for the library's packed elimination.  Returns (nonzero rows,
    pivot column indices)."""
    a = [[x % p for x in row] for row in rows]
    if not a:
        return [], []
    ncols = len(a[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = pow(a[r][c], p - 2, p)
        a[r] = [(x * inv) % p for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == len(a):
            break
    return a[:r], pivots


def solve(a: list[list[int]], b: list[int], p: int) -> list[int] | None:
    """One solution x of a·x = b over Z_p, or None if the system is inconsistent."""
    aug = [row + [bv] for row, bv in zip(a, b)]
    red, pivots = rref(aug, p)
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
    """Node i's I/O matrix expanded straight from the dual codewords, each
    evaluated point by point (not read from scheme.evals).  On a punctured code
    each value is scaled by the column multiplier prod_{j != i} (alpha_i - alpha_j)^-1,
    multiplied out here; at full length it is -1 at every node and left out."""
    ctx, points = scheme.ctx, scheme.code.eval_points
    alpha, v = points[i - 1], 1
    if not scheme.code.is_full_length:
        for beta in points:
            if beta != alpha:
                v = ctx._mul_raw(v, ctx.sub(alpha, beta))
        v = ctx._pow_raw(v, ctx.order - 2)
    return [list(ctx.dual_coords(ctx._mul_raw(v, poly_eval(ctx, g, alpha)))) for g in scheme.duals]


def repair_transcript_oracle(self: RepairScheme, symbols) -> tuple[int, dict[int, tuple[int, ...]]]:
    """The per-helper trace repair the library ran before its packed rows: a
    loop over every helper, I/O matrix row and read column.  Every matrix comes
    from io_matrix_oracle and the failed node's inverse from the list rref, so
    nothing is read from the scheme's own tables."""
    self.require_valid()
    ctx, n, q, ell = self.ctx, self.code.n, self.ctx.q, self.ctx.ell
    symbols = list(symbols)
    if len(symbols) != n:
        raise ValueError(f"expected {n} symbols, got {len(symbols)}")
    if symbols[self.star - 1] is not None:
        raise ValueError(f"node {self.star} must be erased (None)")
    reads: dict[int, tuple[int, ...]] = {}
    totals = [0] * ell
    for i in self.helpers():
        if symbols[i - 1] is None:
            raise ValueError(f"helper {i} is erased; only node {self.star} may be")
        w = io_matrix_oracle(self, i)
        cols = [t for t in range(ell) if any(row[t] for row in w)]
        if not cols:
            continue
        stored = ctx.basis_coords(symbols[i - 1])
        reads[i] = tuple(c + 1 for c in cols)
        for j in range(ell):
            totals[j] += sum(w[j][t] * stored[t] for t in cols)
    # mu_j with Tr(g_j(alpha_star) * mu_j') = 1 iff j == j': the columns of the
    # inverse of the failed node's I/O matrix, read in the working basis
    w = io_matrix_oracle(self, self.star)
    red, _ = rref([row + [int(t == j) for j in range(ell)] for t, row in enumerate(w)], q)
    value = 0
    for j in range(ell):
        mu = ctx.from_basis_coords(row[ell + j] for row in red)
        value = ctx.add(value, ctx.mul((-totals[j]) % q, mu))
    return value, reads


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


def _graph_rows(ctx: FieldContext, r: int, s: int, counter: int) -> list[list[int]]:
    """Slice s's scheme at a counter, whose base-q digit j is the value of free
    cell j, as dense rows over the e_{d,u} (index d*ell + u)."""
    q, ell = ctx.q, ctx.ell
    rows = [[int(c == t) for c in range(r * ell)] for t in range(ell)]
    if s < ell:
        rows[s][ell : 2 * ell] = coords_oracle(ctx, None, 1, ctx.dual_basis)
    for j, (t, c) in enumerate(_cells(s, ell, r)):
        rows[t][c] = counter // q**j % q
    return rows


def _shifted_coords(ctx: FieldContext, r: int, star: int) -> list[tuple[int, ...]]:
    """The stacked dual-basis coordinates (length n*ell over B) of every
    e_{d,t} = basis[t] * (x - alpha*)^d, at index d*ell + t: its coefficients by
    poly_shift, its values by poly_eval and their traces by coords_oracle."""
    rows = []
    for d in range(r):
        power = poly_shift(ctx, [0] * d + [1], ctx.neg(star - 1))  # (x - alpha*)^d
        for b in ctx.basis:
            g = [ctx._mul_raw(b, c) for c in power]
            rows.append(tuple(
                x for a in range(ctx.order)
                for x in coords_oracle(ctx, None, poly_eval(ctx, g, a), ctx.basis)
            ))
    return rows


def plain_scan(ctx: FieldContext, r: int, star: int, items):
    """(count, cost, ties) over (slice, start, stop) counter ranges: the least
    cost among the visited schemes and every (slice, counter) reaching it.  The
    orbit scan with no pruning: every visited scheme is costed.

    Counter digit j is the value of free cell j, walked as an odometer: t -> t+1
    wraps the digits below some j to 0 and adds 1 to digit j.  Each of those
    digits adds its dual-space row to its scheme row once, since q times a row
    is 0.  Rows (n*ell subsymbol coordinates) are packed by linalg.Packing.  The
    cost counts the nonzero fields of the rows' OR, less the ell columns of the
    failed node; the OR of the slow rows is rebuilt only when one of them moves.
    """
    q, ell = ctx.q, ctx.ell
    pk = Packing(q, ctx.order * ell)
    P = [pk.pack(row) for row in _shifted_coords(ctx, r, star)]
    high, over, shift, nonzero = pk.high, pk.over, pk.b - 1, pk.high - pk.ones

    fast = ell - 1
    count, best, ties = 0, ctx.order * ell, []  # every cost is below n*ell
    for s, start, stop in items:
        cells = _cells(s, ell, r)
        a = [start // q**j % q for j in range(len(cells))]
        rows = [
            reduce(pk.add, [P[c] for c, g in enumerate(coords) for _ in range(g)], 0)
            for coords in _graph_rows(ctx, r, s, start)
        ]
        t, i = start, None
        while True:
            if i != fast:  # a slow row moved (or this range just began)
                rest = reduce(or_, rows[:fast], 0)
            cost = (((rest | rows[fast]) + nonzero) & high).bit_count() - ell
            if cost <= best:
                if cost < best:
                    best, ties = cost, []
                ties.append((s, t))
            t += 1
            if t == stop:
                break
            j = 0
            while a[j] == q - 1:
                a[j] = 0
                j += 1
            a[j] += 1
            for i, c in cells[: j + 1]:  # i ends at digit j's row, the slowest moved
                if q == 2:  # pk.add inlined: this is the hot loop
                    rows[i] ^= P[c]
                else:
                    v = rows[i] + P[c]
                    rows[i] = v - (((v + over) & high) >> shift) * q
        count += t - start
    return count, best, ties


def orbit_keys(ctx: FieldContext, r: int, star: int, s: int, counter: int):
    """Flattened reduced-echelon bases, over the basis[t] * x^d, of slice s's
    scheme at a counter and, outside the A_1 = 0 slice, of all its q^ell - 1
    scalings A_d -> c^d A_d (the A_1 = 0 slice is scanned whole).  Each image is
    built as polynomials and reduced by the list Gauss-Jordan `rref`."""
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
        yield tuple(x for row in rref(rows, ctx.q)[0] for x in row)


def packed_orbit_keys(ctx: FieldContext, r: int, star: int, ties, pk: Packing, reduce_=True):
    """Reduced-echelon bases, packed by pk (width r*ell) over the basis[t] * x^d,
    of each tie (slice, counter) and, outside the A_1 = 0 slice, of all its
    q^ell - 1 scalings A_d -> c^d A_d (the A_1 = 0 slice is scanned whole): the
    witness's candidates, every image reduced (or, without `reduce_`, as built).
    The library's tables, built the same way, but each image is summed on its
    own, from the tie's dense rows, and none is skipped."""
    q, ell, shift = ctx.q, ctx.ell, ctx.neg(star - 1)
    # (x - alpha*)^d as x^j coefficients, j < r, times each monomial q^i
    powers = [poly_shift(ctx, [0] * d + [1], shift) + [0] * (r - 1 - d) for d in range(r)]
    images = [[[ctx.mul(q**i, p) for p in ps] for i in range(ell)] for ps in powers]
    texts = ctx.coord_rows([a for image in images for row in image for a in row])[1]
    # psi[d][a]: a * (x - alpha*)^d packed over the basis[t] * x^j, B-linear in a
    psi = [
        ctx._linear_table([int("".join(map(texts.__getitem__, row)), 2) for row in image], pk.add)
        for image in images
    ]
    tables = {}  # per c, g * c^d e_{d,u} packed, at index (d*ell + u)*q + g
    for c in range(1, ctx.order) if any(s < ell for s, _ in ties) else (1,):
        tables[c] = [
            psi_d[ctx.mul(g, cb)]
            for d, psi_d in enumerate(psi)
            for cb in [ctx.mul(ctx.power(c, d), b) for b in ctx.basis]
            for g in range(q)
        ]
    for s, counter in ties:
        rows = _graph_rows(ctx, r, s, counter)
        graph = [[c * q + g for c, g in enumerate(row) if g] for row in rows]
        for c in tables if s < ell else (1,):
            entry = tables[c].__getitem__
            image = [reduce(pk.add, map(entry, row)) for row in graph]
            yield back_substitute(pk, echelon(pk, image)) if reduce_ else image
