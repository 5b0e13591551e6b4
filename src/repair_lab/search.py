"""Exhaustive minimum-I/O search over all linear repair schemes, plus bound checks.

A scheme's cost depends only on the B-span of its ell dual codewords, so the
search enumerates ell-dimensional subspaces of the dual code (an (r*ell)-dimensional
space over B, where r = n - k), one reduced-echelon basis per subspace.  Candidates
whose span projects rank-deficiently onto the failed node cannot repair and
never win.  One scanner serves every q: it walks each echelon pivot pattern's
free cells in modular q-ary Gray order on packed integers, one row addition per
subspace.  The patterns' Gray-counter ranges, laid end to end and weighted by
q^(free cells), are cut into equal contiguous loads for the worker processes,
and the loads' results are merged by (cost, canonical basis), so the result is
deterministic regardless of scheduling; REPAIR_LAB_THREADS caps the workers.

A hard cap (default 10^7 subspaces, pre-checked with the Gaussian binomial
coefficient) refuses searches that cannot finish at interactive scale.
"""
from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from functools import reduce
from itertools import accumulate, combinations, repeat
from operator import or_

from .construction import build_low_io_scheme, largest_valid_s, predicted_cost
from .fieldmath import FieldContext
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


# ---- reduced-echelon enumeration ------------------------------------------------


def _free_cells(pivots: tuple[int, ...], m: int) -> list[tuple[int, int]]:
    """Unconstrained matrix positions for a pivot pattern, row-major order."""
    pivset = set(pivots)
    return [
        (r, c)
        for r, p in enumerate(pivots)
        for c in range(p + 1, m)
        if c not in pivset
    ]


# ---- candidate spaces -------------------------------------------------------------


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


def _rows_to_scheme(ctx: FieldContext, rows, r: int, star: int) -> RepairScheme:
    code = RSCode.full_length(ctx, ctx.order - r)
    duals = []
    for row in rows:
        coeffs = [
            ctx.from_basis_coords(row[d * ctx.ell : (d + 1) * ctx.ell])
            for d in range(r)
        ]
        duals.append(coeffs)
    return RepairScheme(code, star, duals)


def _split(items, workers: int) -> list[list[tuple[tuple[int, ...], int, int]]]:
    """Cut the items, laid end to end, into at most `workers` contiguous loads
    of at most ceil(total / workers) subspaces; a cut splits a counter range."""
    total = sum(stop - start for _, start, stop in items)
    share = -(-total // workers)
    loads, load, room = [], [], share
    for pivots, start, stop in items:
        while start < stop:
            end = min(stop, start + room)
            load.append((pivots, start, end))
            room -= end - start
            start = end
            if not room:
                loads.append(load)
                load, room = [], share
    if load:
        loads.append(load)
    return loads


def _scan(ctx: FieldContext, r: int, star: int, items):
    """(count, best) over (pivots, start, stop) Gray-counter ranges, where best
    is the least (cost, flattened echelon basis) among valid bases, or None.

    Counter t visits the free-cell digits g_j = (a_j - a_{j+1}) mod q of its
    base-q digits a_j (modular q-ary Gray order, Knuth TAOCP 4A 7.2.1.1), so
    t -> t+1 adds 1 to the digit at the base-q trailing-zero count of t+1: one
    dual-space row is added to one basis row.  Rows (n*ell subsymbol
    coordinates) and node values (ell digits) are packed into b-bit fields; a
    field sum >= q shows in its high bit once 2^(b-1) - q is added (for q = 2
    fields are bits and addition is XOR).  The cost counts the nonzero fields
    of the rows' OR; only a basis whose cost can still win gets the exact rank
    test.  Cells run row-major, so the fast digits are row 0's and the OR and
    node-value span of rows 1.. are rebuilt only when one of those rows moves.
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
    for pivots, start, stop in items:
        cells = _free_cells(pivots, m)
        a = [start // q**j % q for j in range(len(cells))] + [0]
        rows, vals = [P[p] for p in pivots], [V[p] for p in pivots]
        for j, (i, c) in enumerate(cells):
            for _ in range((a[j] - a[j + 1]) % q):
                rows[i], vals[i] = add(rows[i], P[c]), add(vals[i], V[c])
        t, i = start, 1
        while True:
            if i:  # a row other than row 0 moved (or this range just began)
                rest, lower = reduce(or_, rows[1:], 0), None
            cost = (((rest | rows[0]) + nonzero) & high).bit_count() - ell
            if best is None or cost <= best[0]:
                # rank ell iff values 1.. span q^(ell-1) points and value 0 is outside
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
            if q == 2:  # add() inlined: this is the hot loop
                rows[i] ^= P[c]
                vals[i] ^= V[c]
            else:
                s, u = rows[i] + P[c], vals[i] + V[c]
                rows[i] = s - (((s + over) & high) >> shift) * q
                vals[i] = u - (((u + over) & high) >> shift) * q
        count += t - start
    return count, best


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

    Raises ValueError when the subspace count exceeds the cap or workers < 1
    (None means one per CPU).
    """
    _check_workers(workers)
    n, ell, q = ctx.order, ctx.ell, ctx.q
    if not 2 <= r <= n - 1:
        raise ValueError(f"need 2 <= r <= n-1, got r={r}")
    if not 1 <= star <= n:
        raise ValueError(f"node index must be in 1..{n}, got {star}")
    m = r * ell
    expected = gaussian_binomial(m, ell, q)
    if expected > cap:
        raise ValueError(
            f"search space has {expected} subspaces, over the cap of {cap}"
        )
    patterns = combinations(range(m), ell)
    items = [(p, 0, q ** len(_free_cells(p, m))) for p in patterns]
    workers = _resolve_workers(workers, expected)
    if workers > 1 and expected >= _PARALLEL_THRESHOLD:
        loads = _split(items, workers)
        with ProcessPoolExecutor(max_workers=len(loads)) as pool:
            results = list(pool.map(_scan, repeat(ctx), repeat(r), repeat(star), loads))
    else:
        results = [_scan(ctx, r, star, items)]
    total = sum(count for count, _ in results)
    if total != expected:
        raise VerificationError(
            f"enumerated {total} subspaces, expected {expected}"
        )
    candidates = [best for _, best in results if best is not None]
    if not candidates:
        raise VerificationError("no valid scheme found; the dual code spans F")
    cost, key = min(candidates)
    rows = [key[i * m : (i + 1) * m] for i in range(ell)]
    scheme = _rows_to_scheme(ctx, rows, r, star)
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
    space is small enough, the exhaustive minimum.

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
    subspaces = gaussian_binomial(r * ell, ell, q)
    report = {
        "q": q,
        "ell": ell,
        "r": r,
        "n": n,
        "bound": bound,
        "construction": construction,
        "subspaces": subspaces,
        "searched": subspaces <= cap,
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
