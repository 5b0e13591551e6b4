import functools
import json
import random
import time
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repair_lab import linalg
from repair_lab.construction import build_low_io_scheme
from repair_lab.fieldmath import FieldContext, poly_shift
from repair_lab.rs import RSCode
from repair_lab.scheme import RepairScheme

from oracles import (
    io_matrix_oracle, iter_valid_schemes, nonzero_columns, repair_transcript_oracle,
)
from oracles import rref as list_rref

GF4 = FieldContext(2, 2)
GF8 = FieldContext(2, 3)
GF9 = FieldContext(3, 2)


def _trivial_scheme(ctx, k, star=1):
    # one constant dual codeword per subsymbol; always valid, reads everything
    code = RSCode.full_length(ctx, k)
    return RepairScheme(code, star, [[g] for g in ctx.dual_basis])


def _random_valid_schemes(ctx, r, count, seed):
    code = RSCode.full_length(ctx, ctx.order - r)
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        duals = [
            [rng.randrange(ctx.order) for _ in range(r)] for _ in range(ctx.ell)
        ]
        scheme = RepairScheme(code, 1, duals)
        if scheme.validate() is None:
            out.append(scheme)
    return out


# ---- construction and validation ------------------------------------------------


def test_constructor_checks():
    code = RSCode.full_length(GF8, 5)
    with pytest.raises(ValueError, match="node"):
        RepairScheme(code, 0, [[g] for g in GF8.dual_basis])
    with pytest.raises(ValueError, match="ell"):
        RepairScheme(code, 1, [[1], [2]])
    with pytest.raises(ValueError, match="element"):
        RepairScheme(code, 1, [[99], [1], [2]])
    with pytest.raises(ValueError, match="element"):
        RepairScheme(code, 1, [[True], [2], [4]])
    for star in (True, 1.0, 2.5, "1"):
        with pytest.raises(ValueError, match="node"):
            RepairScheme(code, star, [[g] for g in GF8.dual_basis])
    scheme = _trivial_scheme(GF8, 5)
    with pytest.raises(ValueError, match="node"):
        scheme.io_matrix(True)


def test_trivial_scheme_is_valid():
    scheme = _trivial_scheme(GF8, 5)
    assert scheme.validate() is None
    scheme.require_valid()


def test_degree_violation_detected():
    code = RSCode.full_length(GF8, 5)  # dual degree must stay below 3
    duals = [[0, 0, 0, 1], [2], [4]]
    scheme = RepairScheme(code, 1, duals)
    violation = scheme.validate()
    assert violation is not None and "degree" in violation
    with pytest.raises(ValueError, match="degree"):
        scheme.require_valid()


def test_rank_violation_detected():
    # x * gamma_j vanishes at the zero evaluation point, so node 1 sees nothing
    code = RSCode.full_length(GF8, 5)
    duals = [[0, g] for g in GF8.dual_basis]
    scheme = RepairScheme(code, 1, duals)
    violation = scheme.validate()
    assert violation is not None and "span" in violation
    # the same polynomials do repair any nonzero node
    assert RepairScheme(code, 2, duals).validate() is None


# ---- I/O matrices ------------------------------------------------------------


def test_trivial_scheme_io_matrices_are_identity():
    scheme = _trivial_scheme(GF8, 5)
    eye = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    for i in range(1, 9):
        assert scheme.io_matrix(i) == eye


def test_io_matrix_index_range():
    scheme = _trivial_scheme(GF4, 2)
    with pytest.raises(ValueError):
        scheme.io_matrix(0)
    with pytest.raises(ValueError):
        scheme.io_matrix(5)


def test_io_matrix_full_rank_at_failed_node():
    for scheme in _random_valid_schemes(GF8, 3, 10, seed=21):
        w = scheme.io_matrix(scheme.star)
        assert linalg.rank(w, 2) == 3
        assert len(nonzero_columns(w)) == 3


def test_accessed_subsymbols():
    scheme = _trivial_scheme(GF8, 5)
    for i in scheme.helpers():
        assert scheme.accessed_subsymbols(i) == (1, 2, 3)
    with pytest.raises(ValueError, match="failed"):
        scheme.accessed_subsymbols(scheme.star)


def test_io_table_matches_the_direct_expansion():
    schemes = [
        *_random_valid_schemes(GF8, 2, 5, seed=27),
        *_random_valid_schemes(GF8, 3, 5, seed=28),
        *_random_valid_schemes(GF9, 2, 5, seed=29),
        *_random_valid_schemes(GF9, 3, 5, seed=30),
        build_low_io_scheme(FieldContext(2, 4), 11, 2).translate(6),
        # q = 2 where an element's bits are not its subsymbols (a non-polynomial
        # basis, a custom modulus), q = 5, and full length at n = 1024
        *_random_valid_schemes(FieldContext(2, 4, basis=[3, 2, 4, 8]), 3, 3, seed=31),
        *_random_valid_schemes(FieldContext(2, 4, [1, 0, 0, 1, 1]), 3, 3, seed=32),
        *_random_valid_schemes(FieldContext(2, 4, [1, 0, 0, 1, 1], [7, 2, 4, 9]), 2, 3, seed=33),
        *_random_valid_schemes(FieldContext(5, 2), 2, 3, seed=34),
        *_random_valid_schemes(FieldContext(5, 2), 3, 3, seed=35),
        *(
            build_low_io_scheme(FieldContext(2, 10, basis=basis), 1020, 1).translate(517)
            for basis in (None, [3, 2, 4, 8, 16, 32, 64, 128, 256, 512])
        ),
    ]
    for scheme in schemes:
        q, n = scheme.ctx.q, scheme.code.n
        oracle = {i: io_matrix_oracle(scheme, i) for i in range(1, n + 1)}
        for i in range(1, n + 1):
            assert scheme.io_matrix(i) == oracle[i]
        helpers = scheme.helpers()
        ranks = [len(list_rref(oracle[i], q)[0]) for i in helpers]
        cols = [[c + 1 for c in nonzero_columns(oracle[i])] for i in helpers]
        assert scheme.bandwidth() == sum(ranks)
        assert scheme.io_cost_direct() == sum(len(c) for c in cols)
        report = scheme.cost_report()
        assert report["per_node"] == [
            {"i": i, "rank": rank, "nz": len(c), "cols": c}
            for i, rank, c in zip(helpers, ranks, cols)
        ]
        if n == 1024:
            assert scheme.io_cost_formula() == report["bandwidth"] == report["io_cost"] == 9206


def _check_helper_ranks_once(monkeypatch, scheme, bandwidth):
    n, ell = scheme.code.n, scheme.ctx.ell
    sizes, shapes, rrefs = [], [], []
    echelon, rank, rref = linalg.echelon, linalg.rank, linalg.rref

    def counting_echelon(pk, rows):
        rows = list(rows)
        sizes.append((len(rows), pk.width))
        return echelon(pk, rows)

    def counting_rank(rows, p):
        shapes.append((len(rows), len(rows[0])))
        return rank(rows, p)

    def counting_rref(rows, p):
        rrefs.append((len(rows), len(rows[0])))
        return rref(rows, p)

    # every elimination, rank()'s and rref()'s included, goes through echelon
    monkeypatch.setattr(linalg, "echelon", counting_echelon)
    monkeypatch.setattr(linalg, "rank", counting_rank)
    monkeypatch.setattr(linalg, "rref", counting_rref)
    assert scheme.bandwidth() == bandwidth
    # one elimination per helper, on its ell packed rows, and no list rref
    assert sizes == [(ell, ell)] * (n - 1)
    assert shapes == rrefs == []
    del sizes[:]
    assert scheme.bandwidth() == bandwidth
    assert sizes == []
    report = scheme.cost_report()
    assert report["bandwidth"] == report["io_cost"] == bandwidth
    # only validate()'s ell x ell elimination of the failed node's packed rows, and
    # the formula route's one elimination of the ell packed stacked rows
    assert shapes == []
    assert sizes == [(ell, ell), (ell, n * ell)]
    assert rrefs == []


def test_helper_ranks_are_computed_once(monkeypatch):
    scheme = build_low_io_scheme(FieldContext(2, 4), 11, 2).translate(6)
    _check_helper_ranks_once(monkeypatch, scheme, 36)


def test_odd_q_helper_ranks_are_one_packed_elimination_each(monkeypatch):
    scheme = build_low_io_scheme(FieldContext(3, 3), 23, 1).translate(7)
    _check_helper_ranks_once(monkeypatch, scheme, 60)


def test_dual_values_are_evaluated_on_first_use():
    scheme = build_low_io_scheme(GF8, 5, 1).translate(3)
    assert scheme.validate() is None
    assert "evals" not in vars(scheme)
    copy = RepairScheme.from_dict(json.loads(json.dumps(scheme.to_dict())))
    assert copy.validate() is None
    assert "evals" not in vars(copy)
    assert copy.io_cost_direct() == 13
    assert copy.evals == scheme.evals
    assert len(copy.evals) == 3 and all(len(ev) == 8 for ev in copy.evals)


def test_io_matrix_copies_cannot_corrupt_the_scheme():
    scheme = build_low_io_scheme(GF8, 5, 1)
    word = scheme.code.random_codeword(5)
    erased = word[0]
    word[0] = None
    before = (scheme.cost_report(), scheme.repair_transcript(word))
    for i in range(1, scheme.code.n + 1):
        w = scheme.io_matrix(i)
        for row in w:
            row[:] = [1] * len(row)
        w.append([0] * len(w[0]))
    scheme.stacked_io_matrix()[0][0] ^= 1
    after = (scheme.cost_report(), scheme.repair_transcript(word))
    assert after == before
    assert after[1][0] == erased


# ---- the two cost routes -----------------------------------------------------


def test_trivial_scheme_costs():
    for ctx, k in ((GF4, 2), (GF8, 5), (GF9, 4)):
        scheme = _trivial_scheme(ctx, k)
        full = (ctx.order - 1) * ctx.ell
        assert scheme.bandwidth() == full
        assert scheme.io_cost_direct() == full
        assert scheme.io_cost_formula() == full


def test_formula_equals_direct_exhaustively_tiny():
    # every valid scheme on the 2-parity code over GF(4): one per dual subspace
    count = 0
    for scheme in iter_valid_schemes(GF4, r=2):
        count += 1
        assert scheme.io_cost_formula() == scheme.io_cost_direct()
    assert count > 0


def test_formula_equals_direct_exhaustively_gf9():
    for scheme in iter_valid_schemes(GF9, r=2):
        assert scheme.io_cost_formula() == scheme.io_cost_direct()


def test_formula_equals_direct_random_three_parity():
    for scheme in _random_valid_schemes(GF8, 3, 50, seed=22):
        assert scheme.io_cost_formula() == scheme.io_cost_direct()


def test_bandwidth_never_exceeds_io_cost():
    for scheme in _random_valid_schemes(GF8, 3, 50, seed=23):
        assert scheme.bandwidth() <= scheme.io_cost_direct()


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_formula_equals_direct_on_random_odd_q_schemes(data):
    ctx = data.draw(st.sampled_from([FieldContext(5, 1), GF9, FieldContext(5, 2), FieldContext(3, 3)]))
    r = data.draw(st.integers(2, min(4, ctx.order - 1)))
    star = data.draw(st.integers(1, ctx.order))
    coeff = st.integers(0, ctx.order - 1)
    duals = data.draw(st.lists(st.lists(coeff, min_size=r, max_size=r),
                               min_size=ctx.ell, max_size=ctx.ell))
    scheme = RepairScheme(RSCode.full_length(ctx, ctx.order - r), star, duals)
    assume(scheme.validate() is None)
    assert scheme.io_cost_formula() == scheme.io_cost_direct()
    assert scheme.bandwidth() <= scheme.io_cost_direct()


def test_stacked_matrix_bookkeeping():
    for scheme in _random_valid_schemes(GF8, 2, 20, seed=24):
        stacked = scheme.stacked_io_matrix()
        assert len(stacked) == 3 and len(stacked[0]) == 8 * 3
        nz = len(nonzero_columns(stacked))
        assert nz == scheme.ctx.ell + scheme.io_cost_direct()


def test_rowspace_weight_matches_enumeration():
    # the closed-form weight the formula route relies on, checked the slow way
    for scheme in _random_valid_schemes(GF4, 2, 10, seed=25):
        stacked = scheme.stacked_io_matrix()
        q, ell = 2, 2
        total = 0
        for coeffs in product(range(q), repeat=ell):
            v = [
                sum(c * stacked[j][t] for j, c in enumerate(coeffs)) % q
                for t in range(len(stacked[0]))
            ]
            total += sum(1 for x in v if x)
        pk = linalg.Packing(q, len(stacked[0]))
        assert total == linalg.coset_weight(pk, [pk.pack(row) for row in stacked])[1]
        assert scheme.io_cost_formula() == total // (q ** (ell - 1) * (q - 1)) - ell


def test_formula_reads_only_the_stacked_rows():
    # the formula route ignores every node's rows and read columns; the direct
    # route reads nothing else
    for scheme in [*_random_valid_schemes(GF8, 2, 3, seed=26), *_random_valid_schemes(GF9, 3, 3, seed=26)]:
        stacked, nodes, columns = scheme._table
        cost = scheme.io_cost_direct()
        scheme._table = (stacked, [(0,) * scheme.ctx.ell] * len(nodes), [(1,)] * len(columns))
        assert scheme.io_cost_formula() == cost
        assert scheme.io_cost_direct() == scheme.code.n - 1 != cost
        scheme._table = ([0] * len(stacked), nodes, columns)
        assert scheme.io_cost_direct() == cost
        with pytest.raises(ValueError, match="independent"):
            scheme.io_cost_formula()


def test_formula_requires_a_valid_scheme():
    code = RSCode.full_length(GF8, 5)
    scheme = RepairScheme(code, 1, [[0, g] for g in GF8.dual_basis])
    with pytest.raises(ValueError):
        scheme.io_cost_formula()


# ---- repair execution ------------------------------------------------------------


def test_repair_zero_codeword():
    scheme = _trivial_scheme(GF8, 5)
    word = [0] * 8
    word[0] = None
    assert scheme.repair_transcript(word)[0] == 0


def test_repair_exhaustive_small_code():
    # every message of the dimension-2 code over GF(4), every node
    base = build_low_io_scheme(GF4, 2, 0)
    for target in range(1, 5):
        scheme = base.translate(target)
        for msg in product(range(4), repeat=2):
            word = scheme.code.encode(list(msg))
            erased = word[target - 1]
            word[target - 1] = None
            assert scheme.repair_transcript(word)[0] == erased


def test_repair_exhaustive_all_messages_gf8():
    # the full message space of RS(8, 5) with the low-I/O scheme at node 1
    scheme = build_low_io_scheme(GF8, 5, 1)
    code = scheme.code
    for msg in product(range(8), repeat=5):
        word = code.encode(list(msg))
        erased = word[0]
        word[0] = None
        assert scheme.repair_transcript(word)[0] == erased


def test_repair_reads_match_reported_columns():
    for scheme in _random_valid_schemes(GF8, 3, 20, seed=26):
        word = scheme.code.random_codeword(3)
        erased = word[0]
        word[0] = None
        value, reads = scheme.repair_transcript(word)
        assert value == erased
        for i in scheme.helpers():
            cols = scheme.accessed_subsymbols(i)
            if cols:
                assert reads[i] == cols
            else:
                assert i not in reads
        assert sum(len(c) for c in reads.values()) == scheme.io_cost_direct()


def test_repair_input_validation():
    scheme = _trivial_scheme(GF8, 5)
    word = scheme.code.random_codeword(1)
    with pytest.raises(ValueError, match="erased"):
        scheme.repair_transcript(word)  # nothing erased
    short = [None] + [0] * 5
    with pytest.raises(ValueError, match="symbols"):
        scheme.repair_transcript(short)
    two_gone = list(word)
    two_gone[0] = None
    two_gone[3] = None
    with pytest.raises(ValueError, match="helper"):
        scheme.repair_transcript(two_gone)


@pytest.mark.parametrize("bad", [-1, 8, 2.5, True, "x"], ids=repr)
def test_repair_rejects_a_helper_symbol_outside_the_field(bad):
    # -1 used to index the coordinate table from the end and "recover" 3, not 2
    scheme = build_low_io_scheme(FieldContext(2, 3), 5, 1)
    word = scheme.code.random_codeword(1)
    assert word[0] == 2
    word[0] = None
    word[3] = bad
    with pytest.raises(ValueError, match=r"helper 4 holds .*not a field element"):
        scheme.repair_transcript(word)


@functools.cache
def _gf2_17():
    return FieldContext(2, 17)  # beyond the table limit: every coordinate is computed


@st.composite
def _repair_cases(draw):
    """(scheme, codeword with the failed node erased, erased value) over fields
    with default or custom moduli and bases, full-length or punctured codes, a
    lane wider than one byte (GF(2^9)) and a table-free field."""
    q, ell, modulus = draw(st.sampled_from([
        (2, 3, None), (2, 4, (1, 0, 0, 1, 1)), (2, 9, None), (3, 2, None),
        (3, 3, (1, 2, 0, 1)), (5, 2, (2, 1, 1)), (7, 2, None), (2, 17, None),
    ]), label="field")
    if ell == 17:
        ctx = _gf2_17()
    else:
        ctx = FieldContext(q, ell, modulus)
        if draw(st.booleans(), label="custom basis"):
            basis = draw(st.lists(st.integers(1, ctx.order - 1), min_size=ell, max_size=ell))
            try:
                ctx = FieldContext(q, ell, modulus, basis)
            except ValueError:  # dependent basis
                assume(False)
    if ctx.order <= 512 and draw(st.booleans(), label="full length"):
        points = list(range(ctx.order))
    else:
        points = draw(st.lists(st.integers(0, ctx.order - 1), min_size=2, max_size=12, unique=True))
    n = len(points)
    r = draw(st.integers(1, min(4, n - 1)), label="r")
    code = RSCode(ctx, points, n - r)
    star = draw(st.integers(1, n), label="failed node")
    # in y = x - alpha*, the constant terms are a scaled dual basis, so the
    # values at the failed node are independent and every draw is valid
    scale = draw(st.integers(1, ctx.order - 1), label="scale")
    element = st.integers(0, ctx.order - 1)
    duals = [
        poly_shift(ctx, [ctx.mul(scale, b)] + draw(st.lists(element, min_size=r - 1, max_size=r - 1)),
                   ctx.neg(points[star - 1]))
        for b in ctx.dual_basis
    ]
    scheme = RepairScheme(code, star, duals)
    message = draw(st.lists(element, min_size=code.k, max_size=code.k), label="message")
    word = code.encode(message)
    erased, word[star - 1] = word[star - 1], None
    return scheme, word, erased


@settings(max_examples=150, deadline=None)
@given(_repair_cases())
def test_packed_repair_matches_the_per_helper_oracle(case):
    scheme, word, erased = case
    value, reads = scheme.repair_transcript(word)
    expected_value, expected_reads = repair_transcript_oracle(scheme, word)
    assert value == expected_value == erased
    assert list(reads.items()) == list(expected_reads.items())  # same helpers, same order
    # the mask the helpers' symbols pass through is exactly the reported reads: node i's
    # column c is the whole field (n - i) * ell + ell - c of the packed stacked rows
    ctx, n = scheme.ctx, scheme.code.n
    pk = linalg.Packing(ctx.q, n * ctx.ell)
    _, mask, _ = scheme._planes
    assert mask == sum(pk.mask << ((n - i) * ctx.ell + ctx.ell - c) * pk.b
                       for i, cols in reads.items() for c in cols)


def test_punctured_code_repairs_exactly_through_the_column_multipliers():
    # the dual of a punctured RS code is a generalized RS code: its codewords are
    # v_i * g(alpha_i), v_i = prod_{j != i} (alpha_i - alpha_j)^-1; without the
    # multipliers these schemes still validate, but repair wrongly
    ctx = FieldContext(2, 3)
    code = RSCode(ctx, [0, 1, 2, 4], 2)
    assert code.dual_multipliers == (6, 7, 5, 4)
    for star in range(1, 5):
        for scale in range(1, 8):
            duals = [poly_shift(ctx, [ctx.mul(scale, b), c], ctx.neg(code.eval_points[star - 1]))
                     for b, c in zip(ctx.dual_basis, (scale, 0, 3))]
            scheme = RepairScheme(code, star, duals)
            assert scheme.validate() is None
            for message in product(range(8), repeat=2):
                word = code.encode(list(message))
                erased, word[star - 1] = word[star - 1], None
                assert scheme.repair_transcript(word) == (erased, repair_transcript_oracle(scheme, word)[1])


@settings(max_examples=80, deadline=None)
@given(_repair_cases(), st.randoms(use_true_random=False))
def test_packed_repair_reads_only_what_it_reports(case, rng):
    scheme, word, _ = case
    ctx = scheme.ctx
    value, reads = scheme.repair_transcript(word)
    for i in scheme.helpers():
        coords = list(ctx.basis_coords(word[i - 1]))
        for t in set(range(ctx.ell)) - {c - 1 for c in reads.get(i, [])}:
            coords[t] = rng.randrange(ctx.q)
        word[i - 1] = ctx.from_basis_coords(coords)
    assert scheme.repair_transcript(word) == (value, reads)


@pytest.mark.parametrize(
    "q, ell, modulus", [(31, 3, None), (251, 2, None), (65537, 2, (65534, 0, 1))]
)
def test_large_q_repair_matches_the_oracle(q, ell, modulus):
    # 5 to 17 bit planes per coordinate, GF(65537^2) (x^2 - 3) past the table limit;
    # the first repair builds the context's basis-coordinate rows, one per element
    ctx = FieldContext(q, ell, modulus)
    rng = random.Random(q)
    points = rng.sample(range(ctx.order), 24)
    code = RSCode(ctx, points, 20)
    star = rng.randrange(1, 25)
    duals = [
        poly_shift(ctx, [b] + [rng.randrange(ctx.order) for _ in range(3)], ctx.neg(points[star - 1]))
        for b in ctx.dual_basis
    ]
    scheme = RepairScheme(code, star, duals)
    for seed in range(3):
        word = code.random_codeword(seed)
        word[star - 1] = None
        start = time.perf_counter()
        got = scheme.repair_transcript(word)
        assert time.perf_counter() - start < 5
        assert got == repair_transcript_oracle(scheme, word)


def test_repair_returns_fresh_read_lists():
    # a fresh dict of the scheme's own column tuples: clearing it leaves the scheme whole
    scheme = build_low_io_scheme(GF8, 5, 1)
    word = scheme.code.random_codeword(3)
    erased, word[0] = word[0], None
    first = scheme.repair_transcript(word)[1]
    assert first and all(type(cols) is tuple for cols in first.values())
    expected = dict(first)
    first.clear()
    assert scheme.repair_transcript(word) == (erased, expected)


def test_costing_builds_no_repair_tables(monkeypatch):
    from repair_lab import fieldmath

    monkeypatch.setattr(fieldmath, "_SHARED", {})  # from_dict's context: unshared so far
    ctx = FieldContext(2, 4)
    scheme = build_low_io_scheme(ctx, 13, 1).translate(5)
    copy = RepairScheme.from_dict(json.loads(json.dumps(scheme.to_dict())))
    for s in (scheme, copy):
        s.cost_report()
        assert "_planes" not in vars(s) and "_recon" not in vars(s)
        assert list(s.ctx._rows) == [True]  # the dual-coordinate rows alone
    word = copy.code.random_codeword(2)
    erased, word[4] = word[4], None
    assert copy.repair_transcript(word)[0] == erased
    assert "_planes" in vars(copy) and "_recon" in vars(copy)
    assert list(copy.ctx._rows) == [True, False]  # repair adds the basis-coordinate rows


# ---- translation -----------------------------------------------------------------


def test_translate_to_node_one_is_identity():
    scheme = build_low_io_scheme(GF8, 5, 1)
    moved = scheme.translate(1)
    assert moved.duals == scheme.duals
    assert moved.star == 1


def test_translate_preserves_costs_and_multiset():
    scheme = build_low_io_scheme(GF8, 5, 1)
    base_nz = sorted(
        len(scheme.accessed_subsymbols(i)) for i in scheme.helpers()
    )
    for target in range(1, 9):
        moved = scheme.translate(target)
        assert moved.validate() is None
        assert moved.star == target
        assert moved.io_cost_direct() == scheme.io_cost_direct()
        assert moved.bandwidth() == scheme.bandwidth()
        moved_nz = sorted(
            len(moved.accessed_subsymbols(i)) for i in moved.helpers()
        )
        assert moved_nz == base_nz


def test_translate_then_repair():
    scheme = build_low_io_scheme(GF9, 4, 0)
    for target in (2, 5, 9):
        moved = scheme.translate(target)
        word = moved.code.random_codeword(target)
        erased = word[target - 1]
        word[target - 1] = None
        assert moved.repair_transcript(word)[0] == erased


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_random_scheme_translates_to_every_node(data):
    ctx = data.draw(st.sampled_from([GF8, GF9, FieldContext(2, 4)]), label="field")
    r = data.draw(st.sampled_from([2, 3]), label="r")
    coeff = st.integers(0, ctx.order - 1)
    duals = data.draw(st.lists(st.lists(coeff, min_size=r, max_size=r),
                               min_size=ctx.ell, max_size=ctx.ell), label="duals")
    code = RSCode.full_length(ctx, ctx.order - r)
    base = RepairScheme(code, 1, duals)
    assume(base.validate() is None)
    moved = [base.translate(target) for target in range(1, ctx.order + 1)]
    assert all(m.validate() is None for m in moved)
    costs = {(m.io_cost_direct(), m.io_cost_formula(), m.bandwidth()) for m in moved}
    assert len(costs) == 1
    direct, formula, _ = costs.pop()
    assert direct == formula == base.io_cost_direct()
    word = code.random_codeword(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    targets = data.draw(st.lists(st.integers(1, ctx.order), min_size=3, max_size=3), label="targets")
    for target in targets:
        punctured = list(word)
        punctured[target - 1] = None
        assert moved[target - 1].repair_transcript(punctured)[0] == word[target - 1]


def test_translate_requirements():
    short = RepairScheme(
        RSCode(GF8, [0, 1, 2, 3], 2), 1, [[g] for g in GF8.dual_basis]
    )
    with pytest.raises(ValueError, match="full-length"):
        short.translate(2)
    moved = _trivial_scheme(GF8, 5).translate(3)
    with pytest.raises(ValueError, match="node 1"):
        moved.translate(2)


# ---- reporting and serialization ------------------------------------------------


def test_cost_report_totals():
    scheme = build_low_io_scheme(GF8, 5, 1)
    report = scheme.cost_report()
    assert report["node"] == 1
    assert report["n"] == 8 and report["k"] == 5
    assert report["bandwidth"] == scheme.bandwidth()
    assert report["io_cost"] == scheme.io_cost_direct()
    assert report["io_cost_formula"] == report["io_cost"]
    assert len(report["per_node"]) == 7
    for row in report["per_node"]:
        assert row["nz"] == len(row["cols"])
        assert row["rank"] <= row["nz"]
    assert sum(row["nz"] for row in report["per_node"]) == report["io_cost"]


def test_cost_report_serializes_to_json():
    scheme = _trivial_scheme(GF9, 4)
    report = scheme.cost_report()
    assert list(report) == [
        "q", "ell", "n", "k", "node", "bandwidth", "io_cost", "io_cost_formula", "per_node",
    ]
    report["per_node"][0]["cols"].append(99)
    assert scheme.cost_report()["per_node"][0]["cols"] != report["per_node"][0]["cols"]
    parsed = json.loads(json.dumps(report))
    assert parsed["q"] == 3 and parsed["ell"] == 2
    assert parsed["bandwidth"] == parsed["io_cost"] == 16
    assert {"i", "rank", "nz", "cols"} <= set(parsed["per_node"][0])


def test_scheme_roundtrip_through_dict():
    scheme = build_low_io_scheme(GF8, 5, 1)
    data = json.loads(json.dumps(scheme.to_dict()))
    back = RepairScheme.from_dict(data)
    assert back.duals == scheme.duals
    assert back.star == scheme.star
    assert back.io_cost_direct() == scheme.io_cost_direct()
    assert back.ctx.modulus == scheme.ctx.modulus
    assert back.ctx.basis == scheme.ctx.basis


@pytest.mark.parametrize("n", [99, 4, "abc", None, True])
def test_from_dict_checks_n(n):
    data = build_low_io_scheme(GF8, 5, 1).to_dict()
    data["n"] = n
    with pytest.raises(ValueError, match="'n'"):
        RepairScheme.from_dict(data)
    del data["n"]
    assert RepairScheme.from_dict(data).code.n == 8


def test_from_dict_bounds_the_order():
    from repair_lab.scheme import MAX_ORDER

    doc = {"q": 2, "ell": 16, "k": MAX_ORDER - 2, "star": 1, "duals": [[1 << i] for i in range(16)]}
    assert RepairScheme.from_dict(doc).code.n == MAX_ORDER == 1 << 16
    for q in (MAX_ORDER + 1, 100000007):  # both prime
        with pytest.raises(ValueError, match=f"field order {q} is over the limit of 65536"):
            RepairScheme.from_dict({"q": q, "ell": 1, "k": 2, "star": 1, "duals": [[1]]})


def test_from_dict_refuses_an_oversized_field_before_building_it(monkeypatch):
    # checking an explicit modulus is exponential in ell: x^60 + x + 1 must not be tried
    from repair_lab import scheme

    def unbuilt(*args):
        raise AssertionError("field_context called for an oversized field")

    monkeypatch.setattr(scheme, "field_context", unbuilt)
    modulus = [1, 1] + [0] * 58 + [1]
    for q, ell, order in ((3, 11, "3^11"), (2, 17, "2^17"), (2, 60, "2^60"), (2, 10**12, f"2^{10**12}")):
        doc = {"q": q, "ell": ell, "modulus": modulus, "k": 2, "star": 1, "duals": [[1]]}
        with pytest.raises(ValueError) as refused:
            RepairScheme.from_dict(doc)
        assert str(refused.value) == f"field order {order} is over the limit of 65536"


def test_short_code_scheme_does_not_serialize():
    scheme = RepairScheme(
        RSCode(GF8, [0, 1, 2, 3], 2), 1, [[g] for g in GF8.dual_basis]
    )
    with pytest.raises(ValueError, match="full-length"):
        scheme.to_dict()
