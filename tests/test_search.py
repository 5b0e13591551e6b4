from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repair_lab.fieldmath import FieldContext
from repair_lab import search
from repair_lab.search import (
    VerificationError,
    gaussian_binomial,
    min_io_exhaustive,
    verify_bound,
)

from oracles import iter_echelon_bases, iter_valid_schemes

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
    with pytest.raises(ValueError, match="1395"):
        min_io_exhaustive(GF8, 2, cap=100)


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


# ---- the Gray scanner against a slow oracle, and its split --------------------------


def _oracle(ctx, r, star):
    """(count, minimum, witness) by costing every echelon basis as a scheme."""
    m, ell = r * ctx.ell, ctx.ell
    count, best = 0, None
    for rows in iter_echelon_bases(m, ell, ctx.q):
        count += 1
        scheme = search._rows_to_scheme(ctx, rows, r, star)
        if scheme.validate() is None:
            candidate = (scheme.io_cost_direct(), sum(rows, ()))
            best = candidate if best is None else min(best, candidate)
    cost, key = best
    witness = search._rows_to_scheme(ctx, [key[i * m : (i + 1) * m] for i in range(ell)], r, star)
    return count, cost, witness


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
    count, cost, witness = _oracle(ctx, r, star)
    assert count == gaussian_binomial(r * ell, ell, q)
    found, scheme = min_io_exhaustive(ctx, r, star=star, workers=1)
    assert found == cost
    assert scheme.to_dict() == witness.to_dict()


def _merge(results):
    bests = [best for _, best in results if best is not None]
    return sum(count for count, _ in results), min(bests) if bests else None


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_scan_cut_into_two_gray_ranges_matches_whole(data):
    q, ell, r = data.draw(st.sampled_from([(2, 3, 2), (3, 2, 2), (3, 2, 3), (5, 2, 2)]))
    ctx = FieldContext(q, ell)
    star = data.draw(st.integers(1, ctx.order))
    m = r * ell
    pivots = data.draw(st.sampled_from([p for p in combinations(range(m), ell)
                                        if search._free_cells(p, m)]))
    size = q ** len(search._free_cells(pivots, m))
    cut = data.draw(st.integers(1, size - 1))
    whole = search._scan(ctx, r, star, [(pivots, 0, size)])
    halves = [
        search._scan(ctx, r, star, [(pivots, 0, cut)]),
        search._scan(ctx, r, star, [(pivots, cut, size)]),
    ]
    assert whole[0] == size
    assert _merge(halves) == whole


@pytest.mark.parametrize("q,ell,r", [(2, 3, 3), (3, 3, 2), (5, 2, 3), (2, 2, 2), (3, 1, 2)])
@pytest.mark.parametrize("workers", [1, 2, 3, 5])
def test_split_is_exact_and_balanced(q, ell, r, workers):
    m = r * ell
    items = [(p, 0, q ** len(search._free_cells(p, m))) for p in combinations(range(m), ell)]
    total = gaussian_binomial(m, ell, q)
    loads = search._split(items, workers)
    weights = [sum(stop - start for _, start, stop in load) for load in loads]
    assert sum(weights) == total
    assert len(loads) <= workers
    assert max(weights) <= -(-total // workers)
    # every pattern's counter range is covered exactly once, in order
    pieces = {}
    for load in loads:
        for pivots, start, stop in load:
            assert 0 <= start < stop
            pieces.setdefault(pivots, []).append((start, stop))
    for pivots, _, size in items:
        spans = pieces[pivots]
        assert spans[0][0] == 0 and spans[-1][1] == size
        assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))


def test_split_loads_scan_to_the_serial_result():
    ctx, r, star = GF9, 3, 4
    m = r * ctx.ell
    items = [(p, 0, 3 ** len(search._free_cells(p, m))) for p in combinations(range(m), 2)]
    serial = search._scan(ctx, r, star, items)
    assert serial[0] == gaussian_binomial(m, 2, 3)
    for workers in (2, 3, 7):
        loads = search._split(items, workers)
        assert _merge([search._scan(ctx, r, star, load) for load in loads]) == serial


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
