from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repair_lab.fieldmath import FieldContext, poly_shift
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

from oracles import iter_echelon_bases, iter_valid_schemes, orbit_keys, pattern_scan

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
    assert sum(stop for _, _, stop in search._slices(ell, r, q)) == visited


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
            for workers in (2, 3):
                cost, witness = min_io_exhaustive(ctx, r, star=star, workers=workers)
                assert cost == serial_cost == expect
                assert witness.to_dict() == serial_witness.to_dict()


# ---- the orbit scanner against slow oracles, and its split ----------------------------


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
    visited, least, _ = search._scan(ctx, r, star, search._slices(ell, r, q))
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
    for star in range(1, ctx.order + 1):
        count, (cost, key) = pattern_scan(ctx, r, star)
        assert count == gaussian_binomial(r * ctx.ell, ctx.ell, ctx.q)
        witness = _key_to_scheme(ctx, r, star, key).to_dict()
        for workers in (1, 2, 3):
            found, scheme = min_io_exhaustive(ctx, r, star=star, workers=workers)
            assert (found, scheme.to_dict()) == (cost, witness)


@pytest.mark.parametrize("q,ell,r,ties", [(2, 3, 3, 75), (2, 4, 2, 88)])
def test_tie_heavy_minimum_matches_the_subspace_oracle(monkeypatch, q, ell, r, ties):
    # the witness is chosen among every tied orbit's q^ell - 1 images
    monkeypatch.setattr(search, "_PARALLEL_THRESHOLD", 1)
    ctx = FieldContext(q, ell)
    for star in (1, 2, ctx.order):
        count, (cost, key) = pattern_scan(ctx, r, star)
        assert count == gaussian_binomial(r * ell, ell, q)
        witness = _key_to_scheme(ctx, r, star, key).to_dict()
        _, least, found = search._scan(ctx, r, star, search._slices(ell, r, q))
        assert (least, len(found)) == (cost, ties)
        for workers in (1, 2):
            found, scheme = min_io_exhaustive(ctx, r, star=star, workers=workers)
            assert (found, scheme.to_dict()) == (cost, witness)


@pytest.mark.parametrize("ctx,r,star", [(GF4, 3, 2), (GF8, 2, 5), (GF9, 2, 7),
                                        (FieldContext(3, 2, None, [2, 4]), 2, 3)])
def test_visited_orbits_cover_every_valid_scheme_once(ctx, r, star):
    pk = search._Packing(ctx.q, r * ctx.ell)
    visited = [
        (s, counter)
        for s, start, stop in search._slices(ctx.ell, r, ctx.q)
        for counter in range(start, stop)
    ]
    images = Counter(
        sum(map(pk.unpack, key), ())
        for key in search._orbit_keys(ctx, r, star, visited, pk)
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
    ctx = data.draw(st.sampled_from([
        GF4, GF8, GF9, FieldContext(5, 2), FieldContext(2, 3, [1, 0, 1, 1], [3, 5, 7]),
        FieldContext(3, 2, None, [2, 4]),
    ]))
    r = data.draw(st.integers(2, 3))
    star = data.draw(st.integers(1, ctx.order))
    slices = search._slices(ctx.ell, r, ctx.q)
    ties = data.draw(st.lists(
        st.sampled_from(slices).flatmap(
            lambda item: st.tuples(st.just(item[0]), st.integers(0, item[2] - 1))
        ),
        min_size=1, max_size=4,
    ))
    pk = search._Packing(ctx.q, r * ctx.ell)
    key = min(search._orbit_keys(ctx, r, star, ties, pk))
    assert sum(map(pk.unpack, key), ()) == min(
        k for tie in ties for k in orbit_keys(ctx, r, star, *tie)
    )


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
    """Results of disjoint ranges merged as min_io_exhaustive merges them."""
    cost = min(best for _, best, _ in results)
    ties = sorted(t for _, best, found in results if best == cost for t in found)
    return sum(count for count, _, _ in results), cost, ties


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_scan_cut_into_two_gray_ranges_matches_whole(data):
    q, ell, r = data.draw(st.sampled_from([(2, 3, 2), (3, 2, 2), (3, 2, 3), (5, 2, 2)]))
    ctx = FieldContext(q, ell)
    star = data.draw(st.integers(1, ctx.order))
    s, _, size = data.draw(st.sampled_from(
        [item for item in search._slices(ell, r, q) if item[2] > 1]
    ))
    cut = data.draw(st.integers(1, size - 1))
    whole = search._scan(ctx, r, star, [(s, 0, size)])
    halves = [
        search._scan(ctx, r, star, [(s, 0, cut)]),
        search._scan(ctx, r, star, [(s, cut, size)]),
    ]
    assert whole[0] == size
    assert _merge(halves) == _merge([whole])


@pytest.mark.parametrize("q,ell,r", [(2, 3, 3), (3, 3, 2), (5, 2, 3), (2, 2, 2), (3, 1, 2)])
@pytest.mark.parametrize("workers", [1, 2, 3, 5])
def test_split_is_exact_and_balanced(q, ell, r, workers):
    items = search._slices(ell, r, q)
    total = visit_count(q, ell, r)
    loads = search._split(items, workers)
    weights = [sum(stop - start for _, start, stop in load) for load in loads]
    assert sum(weights) == total
    assert len(loads) <= workers
    assert max(weights) <= -(-total // workers)
    # every slice's counter range is covered exactly once, in order
    pieces = {}
    for load in loads:
        for s, start, stop in load:
            assert 0 <= start < stop
            pieces.setdefault(s, []).append((start, stop))
    for s, _, size in items:
        spans = pieces[s]
        assert spans[0][0] == 0 and spans[-1][1] == size
        assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))


def test_split_loads_scan_to_the_serial_result():
    ctx, r, star = GF9, 3, 4
    items = search._slices(ctx.ell, r, ctx.q)
    serial = search._scan(ctx, r, star, items)
    assert serial[0] == visit_count(3, 2, 3)
    for workers in (2, 3, 7):
        loads = search._split(items, workers)
        assert _merge([search._scan(ctx, r, star, load) for load in loads]) == _merge([serial])


def test_worker_env_cap(monkeypatch):
    monkeypatch.setenv("REPAIR_LAB_THREADS", "1")
    assert search._resolve_workers(None, 100) == 1
    assert search._resolve_workers(8, 100) == 1
    monkeypatch.delenv("REPAIR_LAB_THREADS")
    assert search._resolve_workers(3, 100) == 3
    assert search._resolve_workers(3, 2) == 2


def test_verify_bound_two_parities():
    report = verify_bound(GF4, 2)
    assert report["bound"] == 4
    assert report["construction"] == 4
    assert report["min"] == 4
    assert report["gap"] == 0
    assert report["searched"]
    assert report["subspaces"] == 35


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
