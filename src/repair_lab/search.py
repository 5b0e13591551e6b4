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
schemes, a packed modular q-ary Gray walk over each slice's free cells; a
per-slice table of the fast row's low part lets one comprehension cost a whole
aligned block of counters, so only the digits above it are walked in Python.
The walk is an exact branch and bound: a scheme's cost is the nonzero-field
count of its rows' OR, less ell, and an OR only gains weight, so the slow rows
alone bound every scheme in a block of fast-row counters; a block whose bound
exceeds the best cost so far (strictly, so every tie is still scored) is
skipped but counted as visited.  The slices' Gray-counter ranges, laid end to
end, are cut into equal contiguous loads for the worker processes (the CPU
count and REPAIR_LAB_THREADS cap them); each keeps its least cost and every
(slice, counter) reaching it.  The witness, whatever the worker count, is the
lexicographically smallest reduced-echelon basis (over the basis[t] * x^d)
among the tied orbits' members.  A tie's rows are read off its counter digits;
a scaling is B-linear in the e_{d,u} coordinates, and psi_d, the table of
a -> a * (x - alpha*)^d in linalg's row format (column 0 most significant, so
integer order is tuple order), gives each c's table g * c^d e_{d,u} =
psi_d[g c^d b_u]: an image row is a sum of entries.  Row 0 of an image's basis
leads at its largest row's leading field (not bit: an odd-q digit spans bits),
so an image leading above the best so far is dropped.  At alpha* = 0 each
image's constant-term fields are the identity (every A_d(b_t) term carries x^d,
d >= 1), so it is already reduced, its own key; elsewhere linalg reduces it.

A hard cap (default 10^7 visited schemes) refuses searches that cannot finish
at interactive scale.
"""
from __future__ import annotations

import os
from functools import reduce
from itertools import accumulate, chain, repeat
from operator import or_

from .construction import build_low_io_scheme, largest_valid_s, predicted_cost
from .fieldmath import FieldContext, poly_shift
from .linalg import Packing, back_substitute, echelon
from .rs import RSCode
from .scheme import RepairScheme

SUBSPACE_CAP = 10_000_000
_PARALLEL_THRESHOLD = 50_000
_BLOCK_BUDGET = 1 << 14  # entries of _scan's table of fast-row values, q^(w+1)


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


def _graph(ctx: FieldContext, cells, s: int, counter: int, one) -> list[list[tuple[int, int]]]:
    """Slice s's scheme at a Gray counter, over its `cells`: each row's nonzero
    entries, as (e_{d,u} index d*ell + u, digit) pairs; `one` is ctx.basis_coords(1)."""
    q, ell = ctx.q, ctx.ell
    rows = [[(t, 1)] for t in range(ell)]
    if s < ell:
        rows[s] += [(ell + u, g) for u, g in enumerate(one) if g]
    digit = counter % q
    for t, c in cells:  # a digit past the last cell is 0
        counter //= q
        if g := (digit - counter % q) % q:
            rows[t].append((c, g))
        digit = counter % q
    return rows


def _shifted_rows(ctx: FieldContext, r: int, star: int) -> list[int]:
    """The stacked subsymbol coordinates of every e_{d,t} = basis[t] * (x - alpha*)^d,
    at index d*ell + t: its values' dual_coords, packed by linalg.Packing(q, n*ell)."""
    alpha = star - 1  # full-length points are 0..n-1 in order
    shifted, values = [ctx.sub(a, alpha) for a in range(ctx.order)], []
    for d in range(r):
        powers = [ctx.power(x, d) for x in shifted]
        values += [[ctx.mul(b, p) for p in powers] for b in ctx.basis]
    texts = ctx.coord_rows(chain.from_iterable(values), dual=True)[1]
    return [int("".join(map(texts.__getitem__, row)), 2) for row in values]


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


def _witness_key(ctx: FieldContext, r: int, star: int, ties, pk: Packing) -> list[int]:
    """The least reduced-echelon basis, packed by pk (width r*ell) over the basis[t] * x^d,
    among the ties' images: each tie (slice, counter) and, outside the A_1 = 0 slice, its
    q^ell - 1 scalings A_d -> c^d A_d (which are reduced: see the module docstring)."""
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
    one, full = ctx.basis_coords(1), r * ell * pk.b
    cells = [_cells(s, ell, r) for s in range(ell + 1)]
    best, limit = [1 << full], full  # best is above every key, limit the bits to its lead
    for s, counter in ties:
        graph = [[c * q + g for c, g in row] for row in _graph(ctx, cells[s], s, counter, one)]
        for c in tables if s < ell else (1,):
            entry = tables[c].__getitem__
            image = [reduce(pk.add, map(entry, row)) for row in graph]
            if limit < full and max(image) >> limit:  # leads above best
                continue
            if shift:  # at alpha* = 0 every image is already reduced
                image = back_substitute(pk, echelon(pk, image))
            if image < best:
                best, limit = image, -(-image[0].bit_length() // pk.b) * pk.b
    return best


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
    """(count, scored, cost, ties) over (slice, start, stop) Gray-counter
    ranges: the schemes visited and costed, the least cost among them and every
    (slice, counter) reaching it.

    Counter t visits the free-cell digits g_j = (a_j - a_{j+1}) mod q of its
    base-q digits a_j (modular q-ary Gray order, Knuth TAOCP 4A 7.2.1.1), so
    t -> t+1 adds 1 to the digit at the base-q trailing-zero count of t+1: one
    dual-space row is added to one scheme row.  Rows (n*ell subsymbol
    coordinates) are packed by linalg.Packing.  The cost counts the nonzero
    fields of the rows' OR, less the ell columns of the failed node.

    The fast row's m cells are digits 0..m-1: within an aligned block of q^m
    counters the slow rows are fixed and the fast row is base + sum_{j<m}
    g_j P[c_j].  Its part below digit w (the largest w <= m with q^(w+1) <=
    _BLOCK_BUDGET) depends only on digits 0..w, so L holds it at every
    a_w * q^w + k, one packed add each in Gray order, and hi the rest (base is
    folded into L when w = m).  One comprehension over L costs each aligned
    segment of q^w counters; only digits w and up are carried here.  A fast
    cell adds to hi, a slow cell to its row, after which hi is the fast row at
    a_0..a_{m-1} = 0, where only g_{m-1} = -a_m is nonzero.

    The scan is an exact branch and bound.  An OR only gains nonzero fields, so
    when a slow row has moved (or the range begins) the slow rows' cost bounds
    the rest of the block; if it exceeds the best cost so far, strictly, the
    walk jumps to the block's end (or the range's stop).  No skipped scheme
    could tie, and the best cost is read only at these checks, between
    segments, so the prunes, the scored schemes and the ties in order are
    those of a walk costing one scheme at a time.  Skipped schemes still count
    as visited.
    """
    q, ell = ctx.q, ctx.ell
    P, one = _shifted_rows(ctx, r, star), ctx.basis_coords(1)
    pk = Packing(q, ctx.order * ell)
    add, high, over, shift, nonzero = pk.add, pk.high, pk.over, pk.b - 1, pk.high - pk.ones

    def pack(row, total=0) -> int:
        return reduce(add, [P[c] for c, g in row for _ in range(g)], total)

    fast = ell - 1
    count, skipped, best, ties = 0, 0, ctx.order * ell, []  # every cost is below n*ell
    for s, start, stop in items:
        cells = _cells(s, ell, r)
        m = sum(row == fast for row, _ in cells)  # no pruning without fast cells
        w = max([0] + [v for v in range(1, m + 1) if q ** (v + 1) <= _BLOCK_BUDGET])
        width, block, fold = q**w, q**m, w == m
        a = [start // q**j % q for j in range(len(cells))] + [0]
        rows = [pack(row) for row in _graph(ctx, cells, s, start, one)]
        base = pack(_graph(ctx, cells, s, 0, one)[fast])
        hi = pack([(c, (a[j] - a[j + 1]) % q) for j, (_, c) in enumerate(cells[w:m], w)],
                  0 if fold else base)
        resets = [0] * q if fold else list(
            accumulate(repeat(P[cells[m - 1][1]], q - 1), add, initial=base))
        steps = []  # Gray steps below digit w + 1; a carry into digit w adds nothing
        for j in range(w + 1):
            steps = (steps + [P[cells[j][1]] if j < w else 0]) * (q - 1) + steps
        L = list(accumulate(steps, add, initial=base if fold else 0))
        t, moved = start, True
        while True:
            if moved:  # a slow row moved (or this range just began)
                rest = reduce(or_, rows[:fast], 0)
            if moved and m and ((rest + nonzero) & high).bit_count() - ell > best:
                end = min(t - t % block + block, stop)
                skipped += end - t
                t = end
                a[w:m] = [q - 1] * (m - w)  # as at the block's last counter
            else:
                lo = a[w] * width + t % width
                seg = L[lo : lo + min(width - t % width, stop - t)]
                if q == 2:
                    costs = [(rest | hi ^ v).bit_count() for v in seg]
                elif fold:  # hi is 0
                    costs = [(((rest | v) + nonzero) & high).bit_count() for v in seg]
                else:  # pk.add inlined
                    costs = [(((rest | (u := hi + v) - (((u + over) & high) >> shift) * q)
                               + nonzero) & high).bit_count() for v in seg]
                low = min(costs)
                if low - ell <= best:
                    if low - ell < best:
                        best, ties = low - ell, []
                    ties += [(s, t + k) for k, cost in enumerate(costs) if cost == low]
                t += len(seg)
            if t == stop:
                break
            j = w  # the digits below w are all q-1 here
            while a[j] == q - 1:
                a[j] = 0
                j += 1
            a[j] += 1
            i, c = cells[j]
            moved = i != fast
            if moved:
                rows[i] = add(rows[i], P[c])
                hi = resets[-a[m] % q]
            else:
                hi = add(hi, P[c])
        count += t - start
    return count, count - skipped, best, ties


def _check_workers(workers: int | None) -> None:
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")


def _resolve_workers(workers: int | None, nitems: int) -> int:
    cpus = os.cpu_count() or 1
    workers = cpus if workers is None else min(workers, cpus)
    env = os.environ.get("REPAIR_LAB_THREADS")
    if env:
        try:
            cap = int(env)
        except ValueError:
            raise ValueError(f"REPAIR_LAB_THREADS must be an integer, got {env!r}") from None
        workers = min(workers, max(1, cap))
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
    (None means one per CPU, and more than that are not started).
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
        from concurrent.futures import ProcessPoolExecutor  # imported only where a pool starts

        loads = _split(items, workers)
        with ProcessPoolExecutor(max_workers=len(loads)) as pool:
            results = list(pool.map(_scan, repeat(ctx), repeat(r), repeat(star), loads))
    else:
        results = [_scan(ctx, r, star, items)]
    total = sum(count for count, _, _, _ in results)
    if total != expected:
        raise VerificationError(f"visited {total} schemes, expected {expected}")
    cost = min(best for _, _, best, _ in results)
    ties = [tie for _, _, best, found in results if best == cost for tie in found]
    pk = Packing(q, r * ell)
    key = _witness_key(ctx, r, star, ties, pk)
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
    if not 2 <= r <= n - 1:
        raise ValueError(f"need 2 <= r <= n-1, got r={r}")
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
