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
The shift y = x - alpha* permutes the n points and sends alpha* to 0, so every
node's costs are node 1's: the scan reads no node, and only the witness is taken
at the failed node.

The maps x -> alpha* + c(x - alpha*), c in F*, fix the failed node and permute
the others, so they keep the cost; on the graph they multiply A_d by c^d.  An
orbit with A_1 != 0 has q^ell - 1 members and exactly one whose first nonzero
A_1(b_t) is the field's 1, so slice t0 (t0 = 0..ell-1) fixes A_1(b_t) = 0 for
t < t0 and A_1(b_t0) = 1; one more slice holds A_1 = 0 whole (its orbits stay
in it).  The scan visits q^(ell^2 (r-2)) * ((q^(ell^2) - 1)/(q^ell - 1) + 1)
schemes, a plain base-q counter over each slice's free cells, walked depth first
from row 0 down to the fast row ell-1 over a table of each row's values (a row
past _BLOCK_BUDGET bytes tabulates only its low digits).  The
walk is an exact branch and bound: a scheme's cost is the nonzero-field count of
its rows' OR, less ell, and an OR only gains weight, so the rows above a subtree
bound every scheme in it; a subtree whose bound exceeds the best cost so far
(strictly, so every tie is still scored) is skipped but counted as visited.
Worker i of W (at most the CPU count) walks every slice but costs only the
fast-row values whose index in the row is i mod W, a cyclic share that spreads
each surviving subtree over every worker; each keeps its least cost and every
(slice, counter) reaching it.  The witness, whatever the worker count, is the
lexicographically smallest reduced-echelon basis (over the basis[t] * x^d) among the
tied orbits' members.  A tie's rows are read off its counter digits; a scaling is
B-linear in the e_{d,u} coordinates, so an image row is a sum of entries c^d e_{d,u}
times digits.  With kappa_{d,j} the x^j coefficient of (x - alpha*)^d, entry c^d
e_{d,u} is FieldContext.pack_values of its coefficients c^d b_u kappa_{d,j}, j < r,
in linalg's row format (column 0 most significant, so integer order is tuple order),
and with every c's entry side by side in one integer, one sum per row gives that row
of every image.  Row 0 of an image's basis leads at its largest row's leading field
(not bit: an odd-q digit spans bits), so an image leading above the best so far is
dropped.  At alpha* = 0 each image's constant-term fields are the identity (every
A_d(b_t) term carries x^d, d >= 1), so it is already reduced, its own key; elsewhere
linalg reduces it.

A hard cap (default 10^7 visited schemes) refuses searches that cannot finish
at interactive scale.
"""
from __future__ import annotations

import os
import sys
from functools import partial, reduce
from itertools import accumulate, count
from operator import or_

from .construction import build_low_io_scheme, largest_valid_s, predicted_cost
from .fieldmath import FieldContext, poly_shift
from .linalg import Packing, back_substitute, echelon
from .rs import RSCode
from .scheme import RepairScheme, check_order

SUBSPACE_CAP = 10_000_000
_PARALLEL_THRESHOLD = 50_000
_BLOCK_BUDGET = 1 << 24  # bytes of any one of _scan's row tables, q^w packed rows


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


def _graph(ctx: FieldContext, cells, s: int, counter: int, one) -> list[list[tuple[int, int]]]:
    """Slice s's scheme at a counter, whose base-q digit j is the value of cell j
    of its `cells`: each row's nonzero entries, as (e_{d,u} index d*ell + u,
    digit) pairs; `one` is ctx.basis_coords(1)."""
    q, ell = ctx.q, ctx.ell
    rows = [[(t, 1)] for t in range(ell)]
    if s < ell:
        rows[s] += [(ell + u, g) for u, g in enumerate(one) if g]
    for t, c in cells:
        counter, g = divmod(counter, q)
        if g:
            rows[t].append((c, g))
    return rows


def _shifted_rows(ctx: FieldContext, r: int) -> list[int]:
    """The stacked subsymbol coordinates of every e_{d,t} = basis[t] * y^d over the
    points y = x - alpha* in order (node 1's), at index d*ell + t: its values'
    dual_coords, packed by linalg.Packing(q, n*ell)."""
    return [ctx.pack_values([ctx.mul(b, ctx.power(y, d)) for y in range(ctx.order)], dual=True)
            for d in range(r) for b in ctx.basis]


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
    q^ell - 1 scalings A_d -> c^d A_d (which are reduced: see the module docstring).  A
    tie's rows for every scaling come from one sum per row, under
    Packing(q, r*ell*(q^ell - 1)): entry d*ell + u packs every c's c^d e_{d,u} side by
    side, so a digit g scales it in every lane at once."""
    ell, shift = ctx.ell, ctx.neg(star - 1)
    # kappa[d][j]: the x^j coefficient of (x - alpha*)^d, j < r
    kappa = [poly_shift(ctx, [0] * d + [1], shift) + [0] * (r - 1 - d) for d in range(r)]
    scalings = range(1, ctx.order) if any(s < ell for s, _ in ties) else (1,)
    full, lanes = r * ell * pk.b, len(scalings)
    wide = Packing(ctx.q, r * ell * lanes)
    # c^d e_{d,u} = sum_j c^d b_u kappa_{d,j} x^j, c = 1 first: one sum gives every image's row
    entry = [ctx.pack_values([ctx.mul(ctx.power(c, d), ctx.mul(b, k))
                              for c in scalings for k in ks])
             for d, ks in enumerate(kappa) for b in ctx.basis]  # at index d*ell + u
    one, mask = ctx.basis_coords(1), (1 << full) - 1
    cells = [_cells(s, ell, r) for s in range(ell + 1)]
    best, above = [1 << full], 0  # best is above every key; `above`, the bits above its lead
    for s, counter in ties:
        graph = _graph(ctx, cells[s], s, counter, one)
        rows = [reduce(wide.add, [wide.scale(entry[c], g) for c, g in row]) for row in graph]
        union = reduce(or_, rows)
        for lane in reversed(range(lanes)) if s < ell else (lanes - 1,):
            if union >> lane * full & above:  # leads above best
                continue
            image = [v >> lane * full & mask for v in rows]
            if shift:  # at alpha* = 0 every image is already reduced
                image = back_substitute(pk, echelon(pk, image))
            if image < best:
                lead = -(-image[0].bit_length() // pk.b) * pk.b  # the bits up to its leading field
                best, above = image, mask >> lead << lead
    return best


# ---- the scan ----------------------------------------------------------------------


def _table_digits(ctx: FieldContext) -> int:
    """The most digits w of a row that one of _scan's tables holds: q^w packed rows
    of n*ell*b bits, each an int in a list slot, fit in _BLOCK_BUDGET bytes."""
    entry = sys.getsizeof(Packing(ctx.q, ctx.order * ctx.ell).high) + 8  # the int and its slot
    return next(v for v in count() if ctx.q ** (v + 1) * entry > _BLOCK_BUDGET)


def _scan(ctx: FieldContext, r: int, slices, i: int = 0, W: int = 1):
    """(count, scored, cost, ties) over whole slices, share i of W: the schemes
    visited and costed, the least cost among them and every (slice, counter)
    reaching it, at any failed node (see the module docstring).  The share
    costs the fast-row values whose index in the row is i mod W, so the W
    shares partition every slice; serial is share 0 of 1.

    Counter digit j is g_j, the value of the slice's free cell j; `_cells` puts
    the fast row ell-1 in the lowest digits and row 0 in the highest.  Rows
    (n*ell subsymbol coordinates) are packed by linalg.Packing, and row t's table
    holds base_t + sum_j g_j P[c_j] at every base-q index of its digits, so a
    depth-first walk from row 0 down to the fast row visits the counters in
    order.  The cost counts the nonzero fields of the rows' OR, less the ell
    columns of the failed node.  A whole row's table holds each value's
    nonzero-field mask (at q = 2 the value itself), and the prefix is the OR of
    its rows' masks, so an entry costs one OR and one bit count.

    The walk is an exact branch and bound.  An OR only gains nonzero fields, so
    the OR of rows 0..t bounds every scheme below it: at a slow row t one
    comprehension costs each entry ORed into the prefix, and a subtree whose
    bound exceeds the best cost so far, strictly, is skipped, so no scheme that
    could tie is.  At the fast row one comprehension costs the share's entries.
    The count adds the costed schemes and each skipped subtree's share: its
    size / F fast rows of F values hold len(range(i, F, W)) of the share each.
    A table holds q^w entries, w = _table_digits(ctx), at most _BLOCK_BUDGET
    bytes: a row with more digits has a table of its w low digits' values, and
    the walk adds each value of its high digits to it, one chunk at a time.
    That value is a running sum: from one chunk to the next, the high digits
    that wrap from q-1 to 0 and the one above them each gain their image once
    (q of an image sum to 0), so one of the row's d - w prefix sums of high
    images is added.
    """
    q, ell = ctx.q, ctx.ell
    P, one = _shifted_rows(ctx, r), ctx.basis_coords(1)
    pk = Packing(q, ctx.order * ell)
    add, nonzero, high, over, shift = pk.add, pk.nonzero, pk.high, pk.over, pk.b - 1
    bias = high - pk.ones
    w = _table_digits(ctx)

    def walk(t, acc, base):  # row t's subtrees from counter base, under the prefix mask acc
        nonlocal skipped, scored, best, ties
        size, unit, (table, highs, steps) = spans[t], units[t], tables[t]
        m, top = len(table), 0
        for h in range(counts[t] // m):  # a value of the high digits each, one if whole
            if h:  # from h - 1, digits 0..c gain 1, c the lowest nonzero digit of h
                top = add(top, steps[next(j for j in count() if h // q**j % q)])
            # at the fast row, the share's entries: row index i mod W
            part = table[(i - h * m) % W :: W] if t == fast and W > 1 else table
            if not highs:  # a whole row's table holds masks
                costs = [(acc | v).bit_count() for v in part]
            elif q == 2:
                costs = [(acc | top ^ v).bit_count() for v in part]
            else:  # pk.add inlined, then each field's nonzero bit: summed at every visit
                costs = [(((u := top + v) - (((u + over) & high) >> shift) * q + bias | acc)
                          & high).bit_count() for v in part]
            if t == fast:
                scored += len(costs)
                low = min(costs, default=best + 1)
                if low <= best:
                    if low < best:
                        best, ties = low, []
                    ks = count(base + h * m + (i - h * m) % W, W)  # the share's counters
                    ties += [(s, k) for k, cost in zip(ks, costs) if cost == low]
                continue
            first = base + h * m * size  # every subtree counted; a walked one gives it back
            skipped += len(costs) * unit
            for k in [k for k, bound in enumerate(costs) if bound <= best]:
                if costs[k] <= best:  # best may have fallen since
                    skipped -= unit
                    v = nonzero(add(top, part[k])) if highs else part[k]
                    walk(t + 1, acc | v, first + k * size)

    fast = ell - 1
    # best: the least nonzero-field count so far, the cost plus ell (every cost is below n*ell)
    skipped, scored, best, ties = 0, 0, (ctx.order + 1) * ell, []
    for s in slices:
        cells = _cells(s, ell, r)
        tables, spans, counts = [], [], []
        for t, row in enumerate(_graph(ctx, cells, s, 0, one)):
            images = [P[c] for u, c in cells if u == t]  # lowest digit first
            fixed = reduce(add, [P[c] for c, g in row for _ in range(g)])
            table, highs = ctx._linear_table(images[:w], add, fixed), images[w:]
            if q > 2 and not highs:  # a whole row keeps its values' masks
                table = list(map(nonzero, table))
            # steps[c]: high digits 0..c each up by one
            tables.append((table, highs, list(accumulate(highs, add))))
            spans.append(q ** sum(u > t for u, _ in cells))
            counts.append(q ** len(images))
        units = [span // counts[fast] * len(range(i, counts[fast], W)) for span in spans]
        walk(0, 0, 0)
    return scored + skipped, scored, best - ell, ties


def _workers(workers: int | None) -> int:
    """A search's processes: workers, capped at the CPU count (None means the CPU count)."""
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    cpus = os.cpu_count() or 1
    return cpus if workers is None else min(workers, cpus)


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

    Raises ValueError for workers < 1 (None means one per CPU, more are not started),
    a field over scheme.MAX_ORDER or a visit count over the cap.
    """
    W = _workers(workers)
    check_order(ctx.q, ctx.ell)
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
    slices = range(ell + 1)
    if W > 1 and expected >= _PARALLEL_THRESHOLD:
        from concurrent.futures import ProcessPoolExecutor  # imported only where a pool starts

        with ProcessPoolExecutor(max_workers=W) as pool:
            results = list(pool.map(partial(_scan, ctx, r, slices, W=W), range(W)))
    else:
        results = [_scan(ctx, r, slices)]
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
    _workers(workers)
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
