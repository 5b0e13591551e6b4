"""Exhaustive minimum-I/O search over all linear repair schemes, plus bound checks.

A scheme's cost depends only on the B-span W of its ell dual codewords, an
ell-dimensional subspace of the dual code (polynomials of degree < r = n - k,
an (r*ell)-dimensional space over B).  Write that space in the basis
e_{d,t} = b_t * (x - alpha*)^d, where b is the working basis and alpha* the
failed node's point.  W repairs the node iff it meets the polynomials that
vanish at alpha* (the span of the e_{d,t} with d >= 1) only in 0, so every valid
W is, uniquely, a graph over the constants: the span of the rows
e_{0,t} + sum_{d>=1} A_d(b_t), one per t, where each A_d(b_t) is any element of
F written in b-coordinates.  No candidate is invalid, and no rank test is needed.

The maps x -> alpha* + c(x - alpha*), c in F*, fix the failed node and permute
the others, so they keep the cost; on the graph they multiply A_d by c^d.  An
orbit with A_1 != 0 has q^ell - 1 members and exactly one whose first nonzero
A_1(b_t) is the field's 1, so slice t0 (t0 = 0..ell-1) fixes A_1(b_t) = 0 for
t < t0 and A_1(b_t0) = 1; one more slice holds A_1 = 0 whole (its orbits stay
in it).  The scan visits q^(ell^2 (r-2)) * ((q^(ell^2) - 1)/(q^ell - 1) + 1)
schemes, one packed modular q-ary Gray walk over each slice's free cells, one
row addition per scheme.  The slices' Gray-counter ranges, laid end to end,
are cut into equal contiguous loads for the worker processes
(REPAIR_LAB_THREADS caps them); each keeps its least cost and every
(slice, counter) reaching it.  The witness, whatever the worker count, is the
lexicographically smallest reduced-echelon basis (over the basis[t] * x^d)
among the tied orbits' members.  A scaling is B-linear in the e_{d,u}
coordinates, so each c gives one table per search, the packed multiples of
c^d e_{d,u}: an image row is a sum of entries, reduced by packed elimination
(column 0 most significant, so integer order is tuple order).

A hard cap (default 10^7 visited schemes) refuses searches that cannot finish
at interactive scale.
"""
from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from functools import reduce
from itertools import repeat
from operator import or_, xor

from .construction import build_low_io_scheme, largest_valid_s, predicted_cost
from .fieldmath import FieldContext, poly_shift
from .rs import RSCode
from .scheme import RepairScheme

SUBSPACE_CAP = 10_000_000
_PARALLEL_THRESHOLD = 50_000


class VerificationError(Exception):
    """A certified bound or cross-check failed; nothing should ever raise this."""


def gaussian_binomial(m: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of an m-dimensional space over GF(q)."""
    if not 0 <= k <= m:
        return 0
    num = den = 1
    for i in range(k):
        num *= q**m - q**i
        den *= q**k - q**i
    assert num % den == 0
    return num // den


def visit_count(q: int, ell: int, r: int) -> int:
    """Schemes the search visits: one per scaling orbit with A_1 != 0, plus
    the A_1 = 0 slice whole."""
    return q ** (ell * ell * (r - 2)) * ((q ** (ell * ell) - 1) // (q**ell - 1) + 1)


# ---- the graph form ----------------------------------------------------------------


class _Packing:
    """Vectors of `width` digits mod q packed into b-bit fields, column 0 most
    significant, so integer order is the vectors' tuple order.  A field sum >= q
    shows in its high bit once 2^(b-1) - q is added (`over`); for q = 2 fields
    are bits and addition is XOR."""

    def __init__(self, q: int, width: int):
        self.q, self.width = q, width
        self.b = 1 if q == 2 else (2 * q - 1).bit_length() + 1
        self.mask = (1 << self.b) - 1
        self.ones = self.pack([1] * width)
        self.high = self.ones << (self.b - 1)
        self.over = ((1 << (self.b - 1)) - q) * self.ones
        if q == 2:
            self.add = xor  # shadows the method below; reduce() runs it in C

    def pack(self, digits) -> int:
        return reduce(lambda v, d: v << self.b | d, digits, 0)

    def unpack(self, v: int) -> tuple[int, ...]:
        return tuple(v >> j * self.b & self.mask for j in reversed(range(self.width)))

    def add(self, x: int, y: int) -> int:
        s = x + y
        return s - (((s + self.over) & self.high) >> (self.b - 1)) * self.q

    def multiples(self, v: int) -> list[int]:
        """[0, v, 2v, ..., (q-1)v]."""
        out = [0, v]
        for _ in range(self.q - 2):
            out.append(self.add(out[-1], v))
        return out


def _cells(s: int, ell: int, r: int) -> list[tuple[int, int]]:
    """Free cells (row t, dual-space index d*ell + u) of slice s, fast row first.
    Slice s < ell fixes A_1(b_t) = 0 for t < s and A_1(b_s) = 1, so only rows
    t > s have free e_1 cells; slice ell is A_1 = 0.  Row ell-1 has the most
    cells and moves fastest."""
    return [
        (t, d * ell + u)
        for t in reversed(range(ell))
        for d in range(1 if t > s else 2, r)
        for u in range(ell)
    ]


def _slices(ell: int, r: int, q: int) -> list[tuple[int, int, int]]:
    """Every slice's whole Gray-counter range, (slice, 0, q^(free cells))."""
    return [(s, 0, q ** len(_cells(s, ell, r))) for s in range(ell + 1)]


def _graph_rows(ctx: FieldContext, r: int, s: int, counter: int) -> list[list[int]]:
    """Slice s's scheme at a Gray counter, as rows over the e_{d,u} (index d*ell + u)."""
    q, ell = ctx.q, ctx.ell
    cells = _cells(s, ell, r)
    digits = [counter // q**j % q for j in range(len(cells))] + [0]
    rows = [[int(c == t) for c in range(r * ell)] for t in range(ell)]
    if s < ell:
        rows[s][ell : 2 * ell] = ctx.basis_coords(1)
    for j, (t, c) in enumerate(cells):
        rows[t][c] = (digits[j] - digits[j + 1]) % q
    return rows


def _shifted_rows(ctx: FieldContext, r: int, star: int) -> list[tuple[int, ...]]:
    """The stacked subsymbol coordinates (length n*ell over B) of every
    e_{d,t} = basis[t] * (x - alpha*)^d, at index d*ell + t."""
    alpha = star - 1  # full-length points are 0..n-1 in order
    rows = []
    for d in range(r):
        powers = [ctx.power(ctx.sub(a, alpha), d) for a in range(ctx.order)]
        for b in ctx.basis:
            rows.append(tuple(c for p in powers for c in ctx.dual_coords(ctx.mul(b, p))))
    return rows


def _rows_to_scheme(ctx: FieldContext, rows, r: int, star: int) -> RepairScheme:
    """The scheme whose dual codewords have the rows' coordinates over the
    basis[t] * x^d (index d*ell + t)."""
    code = RSCode.full_length(ctx, ctx.order - r)
    duals = []
    for row in rows:
        coeffs = [
            ctx.from_basis_coords(row[d * ctx.ell : (d + 1) * ctx.ell])
            for d in range(r)
        ]
        duals.append(coeffs)
    return RepairScheme(code, star, duals)


def _orbit_keys(ctx: FieldContext, r: int, star: int, ties, pk: _Packing):
    """Reduced-echelon bases, packed by pk (width r*ell) over the basis[t] * x^d,
    of each tie (slice, counter) and, outside the A_1 = 0 slice, of all its
    q^ell - 1 scalings A_d -> c^d A_d (the A_1 = 0 slice is scanned whole)."""
    q, ell, shift = ctx.q, ctx.ell, ctx.neg(star - 1)
    # (x - alpha*)^d as x^j coefficients, j < r
    powers = [poly_shift(ctx, [0] * d + [1], shift) + [0] * (r - 1 - d) for d in range(r)]
    tables = {}  # per c, g * c^d e_{d,u} packed, at index (d*ell + u)*q + g
    for c in range(1, ctx.order) if any(s < ell for s, _ in ties) else (1,):
        table = tables[c] = []
        for d in range(r):
            for b in ctx.basis:
                cb = ctx.mul(ctx.power(c, d), b)
                coords = (x for a in powers[d] for x in ctx.basis_coords(ctx.mul(cb, a)))
                table += pk.multiples(pk.pack(coords))
    for s, counter in ties:
        rows = _graph_rows(ctx, r, s, counter)
        graph = [[k * q + g for k, g in enumerate(row) if g] for row in rows]
        for c in tables if s < ell else (1,):
            entry = tables[c].__getitem__
            yield _echelon(pk, [reduce(pk.add, map(entry, row)) for row in graph])


def _echelon(pk: _Packing, rows: list[int]) -> list[int]:
    """Reduced echelon form of independent packed rows, pivot columns ascending."""
    q, b, mask, add = pk.q, pk.b, pk.mask, pk.add
    rest, done = list(rows), []
    while rest:
        v = max(rest)  # the leftmost pivot is the highest nonzero field
        rest.remove(v)
        f = (v.bit_length() - 1) // b * b
        mult = pk.multiples(v)
        inv = pow(v >> f & mask, q - 2, q)  # the pivot row is mult[inv]
        clear = [mult[-g * inv % q] for g in range(q)]  # -g * pivot row
        rest = [add(w, clear[w >> f & mask]) for w in rest]
        done = [add(w, clear[w >> f & mask]) for w in done]
        done.append(mult[inv])
    return done


# ---- the scan ----------------------------------------------------------------------


def _split(items, workers: int) -> list[list[tuple[int, int, int]]]:
    """Cut the items, laid end to end, into at most `workers` contiguous loads
    of at most ceil(total / workers) visits; a cut splits a counter range."""
    total = sum(stop - start for _, start, stop in items)
    share = -(-total // workers)
    loads, load, room = [], [], share
    for s, start, stop in items:
        while start < stop:
            end = min(stop, start + room)
            load.append((s, start, end))
            room -= end - start
            start = end
            if not room:
                loads.append(load)
                load, room = [], share
    if load:
        loads.append(load)
    return loads


def _scan(ctx: FieldContext, r: int, star: int, items):
    """(count, cost, ties) over (slice, start, stop) Gray-counter ranges: the
    least cost among the visited schemes and every (slice, counter) reaching it.

    Counter t visits the free-cell digits g_j = (a_j - a_{j+1}) mod q of its
    base-q digits a_j (modular q-ary Gray order, Knuth TAOCP 4A 7.2.1.1), so
    t -> t+1 adds 1 to the digit at the base-q trailing-zero count of t+1: one
    dual-space row is added to one scheme row.  Rows (n*ell subsymbol
    coordinates) are packed by _Packing.  The cost counts the nonzero fields of
    the rows' OR, less the ell columns of the failed node; the OR of the slow
    rows is rebuilt only when one of them moves.
    """
    q, ell = ctx.q, ctx.ell
    data = _shifted_rows(ctx, r, star)
    pk = _Packing(q, len(data[0]))
    P = [pk.pack(row) for row in data]
    high, over, shift, nonzero = pk.high, pk.over, pk.b - 1, pk.high - pk.ones

    fast = ell - 1
    count, best, ties = 0, ctx.order * ell, []  # every cost is below n*ell
    for s, start, stop in items:
        cells = _cells(s, ell, r)
        a = [start // q**j % q for j in range(len(cells))] + [0]
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
            i, c = cells[j]
            if q == 2:  # pk.add inlined: this is the hot loop
                rows[i] ^= P[c]
            else:
                v = rows[i] + P[c]
                rows[i] = v - (((v + over) & high) >> shift) * q
        count += t - start
    return count, best, ties


def _check_workers(workers: int | None) -> None:
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")


def _resolve_workers(workers: int | None, nitems: int) -> int:
    if workers is None:
        workers = os.cpu_count() or 1
    env = os.environ.get("REPAIR_LAB_THREADS")
    if env:
        workers = min(workers, max(1, int(env)))
    return max(1, min(workers, nitems))


def min_io_exhaustive(
    ctx: FieldContext,
    r: int,
    star: int = 1,
    workers: int | None = None,
    cap: int = SUBSPACE_CAP,
) -> tuple[int, RepairScheme]:
    """Certified minimum I/O cost over every linear repair scheme for the
    full-length code with n - k = r parities, plus a witness scheme achieving it
    (the one with lexicographically smallest echelon basis).

    Raises ValueError when the visit count exceeds the cap or workers < 1
    (None means one per CPU).
    """
    _check_workers(workers)
    n, ell, q = ctx.order, ctx.ell, ctx.q
    if not 2 <= r <= n - 1:
        raise ValueError(f"need 2 <= r <= n-1, got r={r}")
    if not 1 <= star <= n:
        raise ValueError(f"node index must be in 1..{n}, got {star}")
    expected = visit_count(q, ell, r)
    if expected > cap:
        raise ValueError(
            f"search would visit {expected} schemes, over the cap of {cap}"
        )
    items = _slices(ell, r, q)
    workers = _resolve_workers(workers, expected)
    if workers > 1 and expected >= _PARALLEL_THRESHOLD:
        loads = _split(items, workers)
        with ProcessPoolExecutor(max_workers=len(loads)) as pool:
            results = list(pool.map(_scan, repeat(ctx), repeat(r), repeat(star), loads))
    else:
        results = [_scan(ctx, r, star, items)]
    total = sum(count for count, _, _ in results)
    if total != expected:
        raise VerificationError(f"visited {total} schemes, expected {expected}")
    cost = min(best for _, best, _ in results)
    ties = [tie for _, best, found in results if best == cost for tie in found]
    pk = _Packing(q, r * ell)
    key = min(_orbit_keys(ctx, r, star, ties, pk))
    scheme = _rows_to_scheme(ctx, [pk.unpack(v) for v in key], r, star)
    if scheme.validate() is not None or scheme.io_cost_direct() != cost:
        raise VerificationError("witness scheme does not reproduce the minimum")
    return cost, scheme


def verify_bound(
    ctx: FieldContext,
    r: int,
    workers: int | None = None,
    cap: int = SUBSPACE_CAP,
) -> dict:
    """Check a certified lower bound against the construction and, when the
    search visits at most `cap` schemes, the exhaustive minimum.

    Bounds: r=2 for any q; r=3 for q=2 (and ell >= 3).  Raises
    VerificationError if the exhaustive minimum ever undercuts the bound or the
    construction undercuts the minimum.  Raises ValueError for workers < 1.
    """
    _check_workers(workers)
    n, ell, q = ctx.order, ctx.ell, ctx.q
    if r == 2:
        bound = (n - 1) * ell - q ** (ell - 1)
    elif r == 3:
        if q != 2:
            raise ValueError("the r=3 bound is only certified for q=2")
        if ell < 3:
            raise ValueError("the r=3 bound needs ell >= 3")
        bound = (n - 1) * ell - n - 2 ** (ell - 3)
    else:
        raise ValueError(f"no certified bound for r={r}")
    s = largest_valid_s(q, ell, r)
    scheme = build_low_io_scheme(ctx, n - r, s)
    construction = scheme.io_cost_direct()
    if construction != predicted_cost(q, ell, s):
        raise VerificationError(
            f"construction cost {construction} != predicted {predicted_cost(q, ell, s)}"
        )
    report = {
        "q": q,
        "ell": ell,
        "r": r,
        "n": n,
        "bound": bound,
        "construction": construction,
        "subspaces": gaussian_binomial(r * ell, ell, q),
        "searched": visit_count(q, ell, r) <= cap,
        "min": None,
    }
    if report["searched"]:
        minimum, _ = min_io_exhaustive(ctx, r, workers=workers, cap=cap)
        if minimum < bound:
            raise VerificationError(
                f"exhaustive minimum {minimum} beats the certified bound {bound}"
            )
        if construction < minimum:
            raise VerificationError(
                f"construction cost {construction} beats the exhaustive minimum {minimum}"
            )
        report["min"] = minimum
        report["gap"] = minimum - bound
    else:
        report["gap"] = construction - bound
    return report
