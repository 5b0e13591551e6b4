import random
import subprocess
import sys
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repair_lab.fieldmath import FieldContext, poly_shift
from repair_lab.linalg import Packing
from repair_lab import search
from repair_lab.rs import RSCode
from repair_lab.scheme import RepairScheme
from repair_lab.search import (
    VerificationError,
    gaussian_binomial,
    min_io_exhaustive,
    verify_bound,
    visit_count,
)

from oracles import (
    iter_echelon_bases, iter_valid_schemes, orbit_keys, packed_orbit_keys, pattern_scan,
    plain_scan,
)

GF4 = FieldContext(2, 2)
GF8 = FieldContext(2, 3)
GF9 = FieldContext(3, 2)


def test_gaussian_binomial_values():
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(6, 3, 2) == 1395
    assert gaussian_binomial(4, 2, 3) == 130
    assert gaussian_binomial(3, 1, 5) == 31
    assert gaussian_binomial(5, 0, 2) == 1
    assert gaussian_binomial(5, 5, 2) == 1
    assert gaussian_binomial(3, 4, 2) == 0


@pytest.mark.parametrize(
    "m,k,q",
    [(4, 2, 2), (6, 3, 2), (4, 2, 3), (3, 1, 5), (4, 1, 2), (4, 4, 2)],
)
def test_enumerator_count_is_the_gaussian_binomial(m, k, q):
    bases = list(iter_echelon_bases(m, k, q))
    assert len(bases) == gaussian_binomial(m, k, q)
    # canonical forms, so no two bases can coincide
    as_tuples = {tuple(tuple(row) for row in b) for b in bases}
    assert len(as_tuples) == len(bases)


def test_echelon_bases_are_reduced():
    from repair_lab import linalg

    for rows in iter_echelon_bases(5, 2, 3):
        reduced, _ = linalg.rref([list(row) for row in rows], 3)
        assert [tuple(row) for row in reduced] == [tuple(row) for row in rows]


def test_iter_valid_schemes_all_validate():
    schemes = list(iter_valid_schemes(GF4, r=2))
    assert 0 < len(schemes) < gaussian_binomial(4, 2, 2)
    for scheme in schemes:
        assert scheme.validate() is None
        assert scheme.star == 1


def test_min_io_gf4_two_parities():
    cost, witness = min_io_exhaustive(GF4, 2)
    assert cost == 4
    assert witness.validate() is None
    assert witness.io_cost_direct() == 4


def test_min_io_gf8_two_parities():
    cost, witness = min_io_exhaustive(GF8, 2)
    assert cost == 17
    assert witness.io_cost_formula() == 17


def test_min_io_gf9_two_parities():
    cost, _ = min_io_exhaustive(GF9, 2)
    assert cost == 13


def test_three_parity_minimum_at_q2_ell4():
    # 286 392 320 visits, past the default cap: the paper's r=3 bound (42) is not
    # tight here, and the construction's 44 is the minimum
    cost, witness = min_io_exhaustive(FieldContext(2, 4), 3, workers=1, cap=10**9)
    assert cost == 44
    assert witness.validate() is None
    assert witness.io_cost_formula() == witness.io_cost_direct() == 44


def test_min_io_respects_the_cap():
    assert visit_count(2, 3, 2) == 74
    with pytest.raises(ValueError, match=r"visit 74 schemes, over the cap of 73"):
        min_io_exhaustive(GF8, 2, cap=73)
    assert min_io_exhaustive(GF8, 2, cap=74)[0] == 17


@pytest.mark.parametrize(
    "q,ell,r,visited",
    [(2, 3, 3, 37_888), (3, 3, 2, 758), (5, 2, 3, 16_875), (2, 5, 2, 1_082_402),
     (2, 3, 4, 19_398_656), (2, 1, 3, 4), (5, 1, 2, 2)],
)
def test_visit_count_is_the_sum_of_the_slices(q, ell, r, visited):
    assert visit_count(q, ell, r) == visited
    assert sum(stop for _, _, stop in _whole(ell, r, q)) == visited


def test_min_io_bad_parameters():
    with pytest.raises(ValueError, match="r="):
        min_io_exhaustive(GF4, 1)
    with pytest.raises(ValueError, match="node"):
        min_io_exhaustive(GF4, 2, star=0)


def test_min_io_other_node_same_value():
    # full-length symmetry: the certified minimum cannot depend on the node
    for star in (1, 3):
        cost, witness = min_io_exhaustive(GF4, 2, star=star)
        assert cost == 4
        assert witness.star == star


def test_parallel_scan_matches_serial(monkeypatch):
    for ctx, r, star, expect in ((GF8, 2, 1, 17), (GF9, 3, 4, 10)):
        serial_cost, serial_witness = min_io_exhaustive(ctx, r, star=star, workers=1)
        with monkeypatch.context() as patch:
            patch.setattr(search, "_PARALLEL_THRESHOLD", 1)
            patch.setattr(search.os, "cpu_count", lambda: 4)
            for workers in (2, 3):
                cost, witness = min_io_exhaustive(ctx, r, star=star, workers=workers)
                assert cost == serial_cost == expect
                assert witness.to_dict() == serial_witness.to_dict()


# ---- the orbit scanner against slow oracles, and its split ----------------------------


def _whole(ell, r, q):
    """Every slice's whole counter range, (slice, 0, q^(free cells)): plain_scan's items."""
    return [(s, 0, q ** len(search._cells(s, ell, r))) for s in range(ell + 1)]


def _oracle(ctx, r, star):
    """(count, valid, minimum, witness) by costing every echelon basis as a scheme."""
    m, ell = r * ctx.ell, ctx.ell
    count, valid, best = 0, 0, None
    for rows in iter_echelon_bases(m, ell, ctx.q):
        count += 1
        scheme = search._rows_to_scheme(ctx, rows, r, star)
        if scheme.validate() is None:
            valid += 1
            candidate = (scheme.io_cost_direct(), sum(rows, ()))
            best = candidate if best is None or candidate < best else best
    cost, key = best
    return count, valid, cost, _key_to_scheme(ctx, r, star, key)


def _key_to_scheme(ctx, r, star, key):
    m = r * ctx.ell
    rows = [key[i * m : (i + 1) * m] for i in range(ctx.ell)]
    return search._rows_to_scheme(ctx, rows, r, star)


# (q, ell, r) with at most 2000 subspaces
_SMALL_CASES = [
    (2, 2, 2), (2, 2, 3), (2, 3, 2), (3, 1, 2), (3, 2, 2),
    (5, 1, 2), (5, 1, 3), (5, 1, 4), (5, 2, 2),
]


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_scanner_matches_oracle(data):
    q, ell, r = data.draw(st.sampled_from(_SMALL_CASES))
    order = q**ell
    basis = data.draw(st.lists(st.integers(1, order - 1), min_size=ell, max_size=ell))
    try:
        ctx = FieldContext(q, ell, None, basis)
    except ValueError:
        assume(False)
    star = data.draw(st.integers(1, order))
    assert gaussian_binomial(r * ell, ell, q) <= 2000
    count, valid, cost, witness = _oracle(ctx, r, star)
    assert count == gaussian_binomial(r * ell, ell, q)
    # the valid schemes are exactly the graphs A: C -> K
    assert valid == q ** ((r - 1) * ell * ell)
    visited, _, least, _ = search._scan(ctx, r, range(ell + 1))
    assert (visited, least) == (visit_count(q, ell, r), cost)
    found, scheme = min_io_exhaustive(ctx, r, star=star, workers=1)
    assert found == cost
    assert scheme.to_dict() == witness.to_dict()


@pytest.mark.parametrize(
    "ctx,r",
    [
        pytest.param(GF4, 2, id="gf4-r2"),
        pytest.param(GF4, 3, id="gf4-r3"),
        pytest.param(GF8, 2, id="gf8-r2"),
        pytest.param(GF9, 2, id="gf9-r2"),
        pytest.param(FieldContext(5, 2), 2, id="gf25-r2"),
        pytest.param(FieldContext(3, 1), 2, id="gf3-r2"),
        pytest.param(FieldContext(5, 1), 3, id="gf5-r3"),
        pytest.param(FieldContext(5, 1), 4, id="gf5-r4"),
        pytest.param(FieldContext(2, 3, [1, 0, 1, 1]), 2, id="gf8-modulus-r2"),
        pytest.param(FieldContext(2, 3, [1, 0, 1, 1], [3, 5, 7]), 2, id="gf8-modulus-basis-r2"),
        pytest.param(FieldContext(3, 2, None, [2, 4]), 3, id="gf9-basis-r3"),
    ],
)
def test_min_io_matches_the_subspace_oracle_at_every_node(monkeypatch, ctx, r):
    monkeypatch.setattr(search, "_PARALLEL_THRESHOLD", 1)
    monkeypatch.setattr(search.os, "cpu_count", lambda: 4)
    for star in range(1, ctx.order + 1):
        count, (cost, key) = pattern_scan(ctx, r, star)
        assert count == gaussian_binomial(r * ctx.ell, ctx.ell, ctx.q)
        witness = _key_to_scheme(ctx, r, star, key).to_dict()
        for workers in (1, 2, 3):
            found, scheme = min_io_exhaustive(ctx, r, star=star, workers=workers)
            assert (found, scheme.to_dict()) == (cost, witness)


@pytest.mark.parametrize("q,ell,r,ties", [(2, 3, 3, 75), (2, 4, 2, 88), (7, 2, 2, 2)])
def test_tie_heavy_minimum_matches_the_subspace_oracle(monkeypatch, q, ell, r, ties):
    # the witness is chosen among every tied orbit's q^ell - 1 images
    monkeypatch.setattr(search, "_PARALLEL_THRESHOLD", 1)
    ctx = FieldContext(q, ell)
    _, _, least, tied = search._scan(ctx, r, range(ell + 1))
    for star in (1, 2, ctx.order):
        count, (cost, key) = pattern_scan(ctx, r, star)
        assert count == gaussian_binomial(r * ell, ell, q)
        witness = _key_to_scheme(ctx, r, star, key).to_dict()
        assert (least, len(tied)) == (cost, ties)  # the scan is every node's
        for workers in (1, 2):
            found, scheme = min_io_exhaustive(ctx, r, star=star, workers=workers)
            assert (found, scheme.to_dict()) == (cost, witness)


@pytest.mark.parametrize("ctx,r,star", [(GF4, 3, 2), (GF8, 2, 5), (GF9, 2, 7),
                                        (FieldContext(3, 2, None, [2, 4]), 2, 3)])
def test_visited_orbits_cover_every_valid_scheme_once(ctx, r, star):
    pk = Packing(ctx.q, r * ctx.ell)
    visited = [
        (s, counter)
        for s, start, stop in _whole(ctx.ell, r, ctx.q)
        for counter in range(start, stop)
    ]
    images = Counter(
        tuple(x for v in key for x in pk.unpack(v))
        for key in packed_orbit_keys(ctx, r, star, visited, pk)
    )
    valid = {
        sum(rows, ())
        for rows in iter_echelon_bases(r * ctx.ell, ctx.ell, ctx.q)
        if search._rows_to_scheme(ctx, rows, r, star).validate() is None
    }
    assert set(images) == valid
    assert set(images.values()) == {1}


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_packed_orbit_keys_match_the_polynomial_oracle(data):
    # the packed images read the basis coordinates through coord_rows, so bases
    # without 1, with 1 elsewhere than first, and of an ell = 1 field are drawn too
    ctx = data.draw(st.sampled_from([
        GF4, GF8, GF9, FieldContext(5, 2), FieldContext(2, 3, [1, 0, 1, 1], [3, 5, 7]),
        FieldContext(3, 2, None, [2, 4]), FieldContext(3, 2, None, [6, 5]),
        FieldContext(2, 3, None, [3, 2, 4]), FieldContext(5, 2, None, [7, 3]),
        FieldContext(2, 2, None, [2, 3]), FieldContext(7, 1, None, [3]),
    ]))
    r = data.draw(st.integers(2, 3))
    star = data.draw(st.integers(1, ctx.order))
    slices = _whole(ctx.ell, r, ctx.q)
    ties = data.draw(st.lists(
        st.sampled_from(slices).flatmap(
            lambda item: st.tuples(st.just(item[0]), st.integers(0, item[2] - 1))
        ),
        min_size=1, max_size=4,
    ))
    pk = Packing(ctx.q, r * ctx.ell)
    key = search._witness_key(ctx, r, star, ties, pk)
    assert tuple(x for v in key for x in pk.unpack(v)) == min(
        k for tie in ties for k in orbit_keys(ctx, r, star, *tie)
    )


@pytest.mark.parametrize(
    "ctx,r",
    [
        pytest.param(GF8, 3, id="q2-ell3-r3"),
        pytest.param(FieldContext(3, 3), 2, id="q3-ell3-r2"),
        pytest.param(FieldContext(2, 4), 2, id="q2-ell4-r2"),
        pytest.param(FieldContext(7, 2), 3, id="q7-ell2-r3"),
        pytest.param(FieldContext(2, 3, [1, 0, 1, 1], [3, 5, 7]), 3, id="gf8-modulus-basis-r3"),
        pytest.param(FieldContext(3, 2, None, [2, 4]), 3, id="gf9-basis-r3"),
    ],
)
def test_witness_key_is_the_least_of_every_image(ctx, r):
    # images leading at a later field go unreduced, and at node 1 none is reduced;
    # the key must still be the least over every tie's every image, at every node
    pk = Packing(ctx.q, r * ctx.ell)
    ties = search._scan(ctx, r, range(ctx.ell + 1))[3]  # every node's
    for star in range(1, ctx.order + 1):
        assert search._witness_key(ctx, r, star, ties, pk) == min(
            packed_orbit_keys(ctx, r, star, ties, pk)
        )


@pytest.mark.parametrize("ctx,r", [(GF4, 3), (GF8, 2), (GF9, 2), (FieldContext(3, 2, None, [2, 4]), 2),
                                   (FieldContext(2, 3, [1, 0, 1, 1], [3, 5, 7]), 2)])
def test_witness_key_over_every_visited_orbit(ctx, r):
    # every visited scheme as a tie, so images leading at every field compete
    pk = Packing(ctx.q, r * ctx.ell)
    visited = [(s, t) for s, start, stop in _whole(ctx.ell, r, ctx.q)
               for t in range(start, stop)]
    for star in range(1, ctx.order + 1):
        assert search._witness_key(ctx, r, star, visited, pk) == min(
            packed_orbit_keys(ctx, r, star, visited, pk)
        )


@pytest.mark.parametrize("star", [1, 2, 961])
def test_witness_key_across_960_lanes(star):
    # GF(31^2) at r = 2: a tie outside the A_1 = 0 slice has 960 scalings, one lane
    # each in the witness's wide rows; the scan's ties and a few drawn ones
    ctx, r = FieldContext(31, 2), 2
    pk, rng = Packing(ctx.q, r * ctx.ell), random.Random(star)
    drawn = [(0, k) for k in rng.sample(range(ctx.q**2), 6)] + [(1, 0), (2, 0)]
    for ties in (search._scan(ctx, r, range(ctx.ell + 1))[3], drawn):
        assert search._witness_key(ctx, r, star, ties, pk) == min(
            packed_orbit_keys(ctx, r, star, ties, pk)
        )


@pytest.mark.parametrize("ctx,r", [(GF4, 3), (GF8, 2), (GF9, 2), (FieldContext(5, 2), 2),
                                   (FieldContext(3, 2, None, [2, 4]), 3),
                                   (FieldContext(2, 3, [1, 0, 1, 1], [3, 5, 7]), 2)])
def test_every_image_is_already_reduced_at_node_1(ctx, r):
    # at alpha* = 0 the witness takes each image as built, unreduced
    pk = Packing(ctx.q, r * ctx.ell)
    visited = [(s, t) for s, start, stop in _whole(ctx.ell, r, ctx.q)
               for t in range(start, stop)]
    for star, reduced in [(1, True), (2, False)]:
        built = list(packed_orbit_keys(ctx, r, star, visited, pk, reduce_=False))
        assert (built == list(packed_orbit_keys(ctx, r, star, visited, pk))) == reduced


def _substitute(scheme, c):
    """The scheme after x -> alpha* + c (x - alpha*), which fixes the failed node."""
    ctx = scheme.ctx
    alpha = scheme.code.eval_points[scheme.star - 1]
    duals = []
    for g in scheme.duals:
        h = poly_shift(ctx, g, alpha)  # h(y) = g(alpha* + y)
        h = [ctx.mul(ctx.power(c, d), a) for d, a in enumerate(h)]  # h(c y)
        duals.append(poly_shift(ctx, h, ctx.neg(alpha)))  # at y = x - alpha*
    return RepairScheme(scheme.code, scheme.star, duals)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_scaling_about_the_failed_node_keeps_every_cost(data):
    ctx = data.draw(st.sampled_from(
        [GF4, GF8, GF9, FieldContext(5, 1), FieldContext(2, 3, [1, 0, 1, 1], [3, 5, 7])]
    ))
    r = data.draw(st.integers(2, min(4, ctx.order - 1)))
    star = data.draw(st.integers(1, ctx.order))
    coeff = st.integers(0, ctx.order - 1)
    duals = data.draw(st.lists(st.lists(coeff, min_size=r, max_size=r),
                               min_size=ctx.ell, max_size=ctx.ell))
    scheme = RepairScheme(RSCode.full_length(ctx, ctx.order - r), star, duals)
    assume(scheme.validate() is None)
    costs = (scheme.io_cost_direct(), scheme.io_cost_formula(), scheme.bandwidth())
    for c in range(1, ctx.order):
        image = _substitute(scheme, c)
        assert image.validate() is None
        assert (image.io_cost_direct(), image.io_cost_formula(), image.bandwidth()) == costs


def _merge(results):
    """Results of disjoint shares merged as min_io_exhaustive merges them."""
    cost = min(best for _, _, best, _ in results)
    ties = sorted(t for _, _, best, found in results if best == cost for t in found)
    return sum(count for count, *_ in results), cost, ties


def _shares(ctx, r, slices, W):
    """_scan's W shares of the slices, each scanned on its own."""
    return [search._scan(ctx, r, slices, i, W) for i in range(W)]


# ---- the pruned scan against the unpruned walk -----------------------------------


def _plain(ctx, r, star, items):
    """plain_scan's result in _scan's shape: the unpruned walk scores every visit."""
    count, best, ties = plain_scan(ctx, r, star, items)
    return count, count, best, ties


# table budgets in bytes, room for 2^14, 8 and 2 of q=2 ell=3's packed rows: slice 0
# at q=2 ell=3 r=3 (rows of 3, 6 and 6 cells) builds every row whole, splits the two
# 6-cell rows (w = 3), and splits every row (w = 1); the last gives odd q w = 0
_ROWS = [1 << 14, 8, 2]
_GF8_ROW = sys.getsizeof(Packing(2, 8 * 3).high) + 8  # a packed row and its list slot
_BUDGETS = [rows * _GF8_ROW for rows in _ROWS]

# (q, ell, r): fast rows with and without free cells, one to three slow rows
_PRUNE_CASES = [
    (2, 2, 3), (2, 3, 2), (2, 3, 3), (3, 2, 2), (3, 2, 3), (3, 3, 2),
    (5, 2, 2), (5, 2, 3), (5, 1, 4),
]


def test_table_budgets_force_their_shapes(monkeypatch):
    # at q=2 ell=3: w = 14 (every row whole), w = 3, w = 1 and, for the hypothesis
    # draw's 30 rows, w = 4; every case is whole at the first budget, and every odd
    # q has w = 0 at the last
    fields = {(q, ell): FieldContext(q, ell) for q, ell, _ in _PRUNE_CASES}
    shapes = []
    for budget in _BUDGETS + [30 * _GF8_ROW]:
        monkeypatch.setattr(search, "_BLOCK_BUDGET", budget)
        shapes.append({key: search._table_digits(ctx) for key, ctx in fields.items()})
    assert [w[2, 3] for w in shapes] == [14, 3, 1, 4]
    for q, ell, r in _PRUNE_CASES:
        digits = Counter((s, t) for s in range(ell + 1) for t, _ in search._cells(s, ell, r))
        assert max(digits.values()) <= shapes[0][q, ell]  # every row's digits
    assert {w for (q, _), w in shapes[2].items() if q > 2} == {0}


def test_row_tables_are_sized_in_bytes():
    # read, not built: a q=127 ell=2 row is 16 129 * 2 9-bit fields, about 36 KB,
    # so r=2's 2-cell fast row keeps a table of its low digit, 127 rows (4 MiB), and
    # sums its high digit; a q=191 row (10-bit fields) is about 97 KB and 191 of
    # them pass 2^24 bytes, so w = 0 and both digits are summed; a q=13 ell=2 row
    # is about 300 bytes, so r=3's 4-cell fast row, 28 561 rows, is one table
    # (8 MiB).  Beside its table a row keeps its high images and their prefix sums.
    for q, r, w, mib in ((127, 2, 1, 4), (191, 2, 0, 0), (13, 3, 4, 8)):
        ctx = FieldContext(q, 2)
        entry = sys.getsizeof(Packing(q, ctx.order * 2).high) + 8
        assert search._table_digits(ctx) == w
        assert q**w * entry <= search._BLOCK_BUDGET < q ** (w + 1) * entry
        assert q**w * entry >> 20 == mib
        assert sum(t == 1 for t, _ in search._cells(0, 2, r)) == 2 * (r - 1)
        for s in range(3):
            for d in Counter(t for t, _ in search._cells(s, 2, r)).values():
                assert (q ** min(w, d) + 2 * max(d - w, 0)) * entry <= search._BLOCK_BUDGET


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_pruned_scan_matches_the_unpruned_walk(data):
    q, ell, r = data.draw(st.sampled_from(_PRUNE_CASES))
    ctx = FieldContext(q, ell)
    star = data.draw(st.integers(1, ctx.order))
    # each row table holds q^w entries in at most budget bytes: every case builds its
    # rows whole at the first budget, and at 30, 8 and 2 GF(8) rows some split slow
    # and fast rows, down to w = 0 at odd q
    budget = data.draw(st.sampled_from(_BUDGETS + [30 * _GF8_ROW]))
    items = data.draw(st.lists(st.sampled_from(_whole(ell, r, q)), min_size=1, max_size=3,
                               unique=True))
    W = data.draw(st.integers(1, 5))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(search, "_BLOCK_BUDGET", budget)
        shares = _shares(ctx, r, [s for s, _, _ in items], W)
    plain = _plain(ctx, r, star, items)
    assert sum(count for count, *_ in shares) == sum(stop for _, _, stop in items)
    assert 0 < sum(scored for _, scored, _, _ in shares) <= plain[0]
    assert _merge(shares) == _merge([plain])


@pytest.mark.parametrize("q,ell,r,ties", [(2, 3, 3, 75), (2, 5, 2, 305)])
def test_pruning_keeps_every_tie(q, ell, r, ties):
    # a prune at >= would skip the tied schemes whose fast row adds no weight
    # to the slow rows: 214 of the 305 at q=2 ell=5 r=2
    ctx = FieldContext(q, ell)
    pruned = search._scan(ctx, r, range(ell + 1))
    assert (pruned[0], len(pruned[3])) == (visit_count(q, ell, r), ties)
    assert _merge([pruned]) == _merge([_plain(ctx, r, 1, _whole(ell, r, q))])


def test_pruned_scan_matches_on_split_loads(monkeypatch):
    # W shares of 64-value fast rows (and of their chunks of 8 or 2 at the smaller
    # budgets): each share's walk prunes the subtrees its own entries let it, and
    # the shares' merge is the serial scan's and the unpruned walk's
    slices, items = range(4), _whole(3, 3, 2)
    plains = [_merge([_plain(GF8, 3, star, items)]) for star in (1, 5)]
    for budget in _BUDGETS:
        monkeypatch.setattr(search, "_BLOCK_BUDGET", budget)
        serial = _merge([search._scan(GF8, 3, slices)])
        assert [serial] * 2 == plains  # the node-free scan is both nodes'
        for W in (2, 3, 5):
            assert _merge(_shares(GF8, 3, slices, W)) == serial


@pytest.mark.parametrize("budget", _BUDGETS, ids=map(str, _ROWS))
@pytest.mark.parametrize("q,ell,r,stars,scan", [
    (2, 3, 3, range(1, 9), (37_888, 13_680, 13, 75)),
    (3, 3, 2, range(1, 28), (758, 758, 69, 3)),
    (5, 2, 3, (1, 17), (16_875, 15_025, 39, 4)),
])
def test_scored_is_pinned_at_every_node(monkeypatch, budget, q, ell, r, stars, scan):
    # full-length translations keep every cost, so each node walks the same
    # subtrees; a changed prune decision changes the count of scored schemes,
    # and a split table, which only chunks a row's values, must not change it
    monkeypatch.setattr(search, "_BLOCK_BUDGET", budget)
    ctx = FieldContext(q, ell)
    result = search._scan(ctx, r, range(ell + 1))
    visited, scored, cost, ties = result
    assert (visited, scored, cost, len(ties)) == scan
    for star in stars:  # the node-free scan is every node's unpruned walk
        assert _merge([result]) == _merge([_plain(ctx, r, star, _whole(ell, r, q))])


def test_pruning_fires_and_the_count_check_reads_visits(monkeypatch):
    visited, scored, cost, ties = search._scan(GF8, 3, range(4))
    assert (visited, scored, cost, len(ties)) == (37_888, 13_680, 13, 75)
    # the check passes on visits, though only 13 680 schemes were scored
    assert min_io_exhaustive(GF8, 3, workers=1)[0] == 13
    scan = search._scan

    def one_visit_short(*args):
        count, scored, best, found = scan(*args)
        return count - 1, scored, best, found

    monkeypatch.setattr(search, "_scan", one_visit_short)
    with pytest.raises(VerificationError, match="visited 37887 schemes, expected 37888"):
        min_io_exhaustive(GF8, 3, workers=1)


@pytest.mark.parametrize("q,ell,r", [(2, 3, 3), (3, 3, 2), (5, 2, 3), (2, 2, 2), (3, 1, 2)])
@pytest.mark.parametrize("workers", [1, 2, 3, 5])
def test_split_is_exact_and_balanced(q, ell, r, workers):
    # share i counts len(range(i, F, W)) of each of a slice's size / F fast rows
    # of F values, so the shares sum to the visit count and differ by at most one
    # value per fast row
    ctx = FieldContext(q, ell)
    shares = _shares(ctx, r, range(ell + 1), workers)
    assert sum(count for count, *_ in shares) == visit_count(q, ell, r)
    for i, (count, scored, _, _) in enumerate(shares):
        assert scored <= count == sum(
            size // F * len(range(i, F, workers))
            for s, _, size in _whole(ell, r, q)
            for F in [q ** sum(t == ell - 1 for t, _ in search._cells(s, ell, r))]
        )


def test_split_loads_scan_to_the_serial_result():
    ctx, r, star = GF9, 3, 4
    serial = search._scan(ctx, r, range(ctx.ell + 1))
    assert serial[0] == visit_count(3, 2, 3)
    assert _merge([serial]) == _merge([_plain(ctx, r, star, _whole(ctx.ell, r, ctx.q))])
    for workers in (2, 3, 7):
        assert _merge(_shares(ctx, r, range(ctx.ell + 1), workers)) == _merge([serial])


def test_worker_count_is_capped_at_the_cpu_count(monkeypatch):
    # a huge worker count must not fork one process per requested worker
    sizes = []

    class SerialPool:
        """Stands in for ProcessPoolExecutor: records max_workers, maps in process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return list(map(fn, *iterables))

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(search, "_PARALLEL_THRESHOLD", 1)
    monkeypatch.setattr(search.os, "cpu_count", lambda: 2)
    ctx = FieldContext(2, 4)
    serial_cost, serial_witness = min_io_exhaustive(ctx, 2, workers=1)
    cost, witness = min_io_exhaustive(ctx, 2, workers=10**6)
    assert sizes == [2]
    assert cost == serial_cost == 52
    assert witness.to_dict() == serial_witness.to_dict()
    assert search._workers(None) == 2
    assert search._workers(1) == 1  # under the CPU count: kept
    assert search._workers(3) == 2  # above it: capped


@pytest.mark.parametrize("call", [
    lambda: verify_bound(GF8, 2, workers=0, cap=10),  # the search is skipped
    lambda: min_io_exhaustive(GF8, 2, workers=0, cap=1),  # the search is over the cap
], ids=["verify-skips-the-search", "search-over-the-cap"])
def test_nonpositive_workers_raise_before_anything_else(call):
    with pytest.raises(ValueError, match=r"^workers must be >= 1, got 0$"):
        call()


def test_importing_the_cli_leaves_the_process_pool_unloaded():
    # concurrent.futures.process (and multiprocessing) load only where a pool starts
    code = "import sys, repair_lab.cli; print('concurrent.futures.process' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_verify_bound_two_parities():
    report = verify_bound(GF4, 2)
    assert report["bound"] == 4
    assert report["construction"] == 4
    assert report["min"] == 4
    assert report["gap"] == 0
    assert report["searched"]
    assert report["subspaces"] == 35
    # fields with derived moduli: min = bound = construction at ell = 2
    for q, cost in ((7, 89), (11, 229), (13, 323)):
        report = verify_bound(FieldContext(q, 2), 2)
        assert report["searched"]
        assert (report["min"], report["bound"], report["construction"]) == (cost,) * 3


def test_verify_bound_gf9():
    report = verify_bound(GF9, 2)
    assert report["bound"] == 13
    assert report["construction"] == 13
    assert report["min"] == 13
    assert report["gap"] == 0


def test_verify_bound_skips_oversized_searches():
    report = verify_bound(GF8, 2, cap=10)
    assert not report["searched"]
    assert report["min"] is None
    assert report["bound"] == 17
    assert report["construction"] == 17
    assert report["gap"] == 0


def test_verify_bound_unsupported_cases():
    with pytest.raises(ValueError, match="r=4"):
        verify_bound(GF4, 4)
    with pytest.raises(ValueError, match="q=2"):
        verify_bound(GF9, 3)
    with pytest.raises(ValueError, match="ell"):
        verify_bound(GF4, 3)


def test_witness_minimum_is_reproducible():
    a_cost, a = min_io_exhaustive(GF4, 2)
    b_cost, b = min_io_exhaustive(GF4, 2)
    assert a_cost == b_cost
    assert a.duals == b.duals
