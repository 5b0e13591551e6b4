import random
import tracemalloc
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repair_lab import fieldmath, linalg
from repair_lab.fieldmath import (
    _BLOCK,
    _PLANE_BUDGET,
    FieldContext,
    _default_modulus,
    _is_prime,
    field_context,
    poly_deg,
    poly_eval,
    poly_eval_lanes,
    poly_evaluator,
    poly_shift,
    poly_trim,
)

from oracles import (
    DEFAULT_MODULI, coords_oracle, field_tables_oracle, first_irreducible, poly_mul,
)

GF4 = FieldContext(2, 2)  # x^2 + x + 1; 2 encodes the modulus root w
GF8 = FieldContext(2, 3)  # x^3 + x + 1
GF9 = FieldContext(3, 2)


# ---- construction and validation ------------------------------------------------


def test_default_modulus_gf4():
    assert GF4.modulus == (1, 1, 1)
    assert GF4.order == 4
    assert GF4.basis == (1, 2)


def test_dual_basis_gf4():
    # working basis {1, w} pairs with {w^2, 1} under the trace form
    assert GF4.dual_basis == (3, 1)


def test_degree_one_extension_is_trivial():
    ctx = FieldContext(2, 1)
    assert ctx.basis == (1,)
    assert ctx.dual_basis == (1,)
    assert ctx.trace(1) == 1


def test_reducible_modulus_rejected():
    with pytest.raises(ValueError, match="irreducible"):
        FieldContext(2, 2, modulus=[1, 0, 1])  # (x+1)^2


def test_nonprime_q_rejected():
    with pytest.raises(ValueError):
        FieldContext(4, 2)
    with pytest.raises(ValueError):
        FieldContext(6, 2)


def _is_prime_by_trial_division(n):
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def test_primality_matches_trial_division_below_1e5():
    assert [n for n in range(-3, 10**5) if _is_prime(n)] == [
        n for n in range(-3, 10**5) if _is_prime_by_trial_division(n)
    ]


def test_primality_rejects_strong_pseudoprimes():
    # strong pseudoprimes to every prime base up to 7 and up to 31 respectively
    assert 151 * 751 * 28351 == 3_215_031_751
    assert 149491 * 747451 * 34233211 == 3_825_123_056_546_413_051
    assert not _is_prime(3_215_031_751)
    assert not _is_prime(3_825_123_056_546_413_051)
    assert _is_prime(2**61 - 1)
    assert not _is_prime(2**61 + 1) and not _is_prime((2**13 - 1) * (2**61 - 1))


def test_primality_refuses_numbers_beyond_its_exact_range():
    # the largest prime below the limit, and the odd numbers between it and the limit
    assert _is_prime(3_317_044_064_679_887_385_961_813)
    assert not any(_is_prime(3_317_044_064_679_887_385_961_815 + 2 * j) for j in range(83))
    with pytest.raises(ValueError, match="too large"):
        _is_prime(3_317_044_064_679_887_385_961_981)
    with pytest.raises(ValueError, match="too large"):
        FieldContext(2**127 - 1, 1, [0, 1])


def test_bad_ell_rejected():
    with pytest.raises(ValueError):
        FieldContext(2, 0)


def test_missing_builtin_modulus():
    with pytest.raises(ValueError, match="supply"):
        FieldContext(5, 13)


@pytest.mark.parametrize("q,ell", sorted(DEFAULT_MODULI))
def test_derived_modulus_matches_the_frozen_table(q, ell):
    assert _default_modulus(q, ell) == DEFAULT_MODULI[(q, ell)]


_SMALL_FIELDS = [
    (q, ell) for q in (2, 3, 5, 7, 11, 13) for ell in range(1, 12) if q**ell <= 2000
]


@pytest.mark.parametrize("q,ell", _SMALL_FIELDS)
def test_derived_modulus_is_the_first_non_product(q, ell):
    assert FieldContext(q, ell).modulus == first_irreducible(q, ell)


def test_derived_moduli_stop_at_five_to_the_twelfth():
    # the largest derived fields for q = 7 and 13 sit just under 5^12
    assert _default_modulus(7, 9) == (2, 0, 0, 0, 0, 0, 0, 0, 0, 1)
    assert _default_modulus(13, 7) == (2, 3, 0, 0, 0, 0, 0, 1)
    for q, ell in ((2, 28), (3, 18), (7, 10), (13, 8), (17, 7), (2, 10**12)):
        with pytest.raises(ValueError, match="supply one explicitly"):
            FieldContext(q, ell)


def test_modulus_shape_checks():
    with pytest.raises(ValueError, match="degree"):
        FieldContext(2, 3, modulus=[1, 1, 1])
    with pytest.raises(ValueError, match="monic"):
        FieldContext(3, 2, modulus=[1, 0, 2])


def test_dependent_basis_rejected():
    with pytest.raises(ValueError, match="dependent"):
        FieldContext(2, 3, basis=[1, 2, 3])  # 3 = 1 + 2


def test_non_integer_basis_and_modulus_rejected():
    # int() would turn True into 1 and truncate 1.9 to 1
    with pytest.raises(ValueError, match="element"):
        FieldContext(2, 3, basis=[True, 2, 4])
    with pytest.raises(ValueError, match="element"):
        FieldContext(2, 3, basis=[1.9, 2, 4])
    with pytest.raises(ValueError, match="integers"):
        FieldContext(2, 3, modulus=[1.7, 1, 0, True])
    with pytest.raises(ValueError, match="integers"):
        FieldContext(2, 3, modulus=[1, 1, 0, True])
    with pytest.raises(ValueError, match="prime"):
        FieldContext(2.0, 3)
    with pytest.raises(ValueError, match="ell"):
        FieldContext(2, True)


def test_describe_format():
    assert FieldContext(2, 3).describe() == "q=2 ell=3 modulus=[1,1,0,1]"


# ---- arithmetic --------------------------------------------------------------


def test_gf4_multiplication_table_row():
    # w * w = w + 1
    assert GF4.mul(2, 2) == 3
    assert GF4.mul(2, 3) == 1
    assert GF4.mul(3, 3) == 2


@pytest.mark.parametrize("ctx", [GF4, GF8, GF9], ids=["gf4", "gf8", "gf9"])
def test_inverse_everywhere(ctx):
    for a in range(1, ctx.order):
        assert ctx.mul(a, ctx.inv(a)) == 1


def test_zero_has_no_inverse():
    with pytest.raises(ZeroDivisionError):
        GF8.inv(0)
    with pytest.raises(ZeroDivisionError):
        GF8.div(3, 0)


@pytest.mark.parametrize(
    "ctx",
    [GF8, GF9, FieldContext(7, 2), FieldContext(3, 11)],
    ids=["gf8", "gf9", "gf49", "gf3-11"],
)
def test_field_axioms_spot(ctx):
    rng = random.Random(2)
    for _ in range(50):
        a, b, c = (rng.randrange(ctx.order) for _ in range(3))
        assert ctx.add(a, b) == ctx.add(b, a)
        assert ctx.mul(a, b) == ctx.mul(b, a)
        assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))
        assert ctx.sub(a, b) == ctx.add(a, ctx.neg(b))
        assert ctx.add(a, ctx.neg(a)) == 0


@pytest.mark.parametrize(
    "q, ell, draws",
    [(2, 3, None), (3, 2, None), (5, 2, None), (3, 3, None), (7, 2, None), (2, 17, 50), (5, 8, 50)],
)
def test_derived_operations_match_the_raw_routes(q, ell, draws):
    # inv, frobenius, neg, sub and power are derived from mul, power and add; the
    # raw routes are polynomial powers and digit-wise negation
    ctx, rng = FieldContext(q, ell), random.Random(29)
    n = ctx.order - 1
    elements = range(ctx.order) if draws is None else [rng.randrange(ctx.order) for _ in range(draws)]
    for a in elements:
        negated, b = ctx.from_digits(-d for d in ctx.digits(a)), rng.randrange(ctx.order)
        assert ctx.neg(a) == negated and ctx.sub(b, a) == ctx.add(b, negated)
        orbit = [a]  # a^(q^i), i < ell
        for _ in range(ell - 1):
            orbit.append(ctx._pow_raw(orbit[-1], q))
        assert [ctx.frobenius(a, i) for i in range(-ell, 2 * ell + 1)] == orbit * 3 + [a]
        for e in (0, 1, 2, q, n - 1, n, n + 1, 3 * n + 2):
            assert ctx.power(a, e) == ctx._pow_raw(a, e)
        if a:
            inverse = ctx._pow_raw(a, ctx.order - 2)
            assert ctx.inv(a) == inverse
            for e in (1, 2, q, n, n + 1, 3 * n + 2):
                assert ctx.power(a, -e) == ctx._pow_raw(inverse, e)
    for bad in (lambda: ctx.inv(0), lambda: ctx.power(0, -1)):
        with pytest.raises(ZeroDivisionError, match="no multiplicative inverse"):
            bad()


# Zech addition: every pair against the digit route on small odd fields, the x^2+x+2
# modulus over GF(3) included
_ZECH_FIELDS = [(3, 1, None), (3, 2, None), (3, 2, (2, 1, 1)), (3, 3, None), (5, 2, None), (7, 2, None)]


@pytest.mark.parametrize(
    "q, ell, modulus", _ZECH_FIELDS,
    ids=[f"{q}-{ell}" + (f"-{''.join(map(str, m))}" if m else "") for q, ell, m in _ZECH_FIELDS],
)
def test_zech_add_matches_the_digit_route_on_every_pair(q, ell, modulus):
    ctx = FieldContext(q, ell, modulus)
    assert ctx._zech is not None
    for a, b in product(range(ctx.order), repeat=2):
        assert ctx.add(a, b) == ctx._add_raw(a, b), (a, b)


@pytest.mark.parametrize("q, ell", [(3, 10), (251, 2), (65521, 1)])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_zech_add_on_the_largest_tabulated_fields(q, ell, data):
    # zero operands and a + (-a) = 0, the one sum Z leaves empty, drawn often
    ctx = field_context(q, ell)
    element = st.one_of(st.just(0), st.integers(1, ctx.order - 1))
    a, b = data.draw(element), data.draw(element)
    minus_a = ctx.from_digits(-d for d in ctx.digits(a))
    assert ctx.add(a, b) == ctx._add_raw(a, b)
    assert ctx.add(a, 0) == ctx.add(0, a) == a
    assert ctx.add(a, minus_a) == ctx.add(minus_a, a) == 0


def test_table_free_odd_field_adds_digit_by_digit(monkeypatch):
    ctx, calls = FieldContext(5, 8), []
    assert ctx._zech is None and ctx._exp is None
    raw = ctx._add_raw
    monkeypatch.setattr(ctx, "_add_raw", lambda a, b: calls.append((a, b)) or raw(a, b))
    rng = random.Random(41)
    pairs = [(rng.randrange(1, ctx.order), rng.randrange(1, ctx.order)) for _ in range(20)]
    assert [ctx.add(a, b) for a, b in pairs] == [raw(a, b) for a, b in pairs]
    assert calls == pairs


def test_power_and_order():
    for a in range(1, GF8.order):
        assert GF8.power(a, GF8.order - 1) == 1
    assert GF9.power(0, 0) == 1
    assert GF9.power(5, 1) == 5


def test_frobenius_is_identity_at_full_power():
    for a in range(GF8.order):
        assert GF8.frobenius(a, 3) == a


def test_frobenius_is_additive():
    rng = random.Random(3)
    for _ in range(40):
        a, b = rng.randrange(GF9.order), rng.randrange(GF9.order)
        assert GF9.frobenius(GF9.add(a, b)) == GF9.add(
            GF9.frobenius(a), GF9.frobenius(b)
        )
        assert GF9.frobenius(GF9.mul(a, b)) == GF9.mul(
            GF9.frobenius(a), GF9.frobenius(b)
        )


def test_digits_roundtrip():
    for ctx in (GF8, GF9):
        for a in range(ctx.order):
            d = ctx.digits(a)
            assert len(d) == ctx.ell
            assert all(0 <= x < ctx.q for x in d)
            assert ctx.from_digits(d) == a


# ---- trace ------------------------------------------------------------------


def test_trace_frozen_values():
    assert GF4.trace(2) == 1  # w + w^2 = 1
    assert GF4.trace(0) == 0
    assert GF8.trace(1) == 1  # three copies of 1 over GF(2)


@pytest.mark.parametrize("ctx", [GF4, GF8, GF9], ids=["gf4", "gf8", "gf9"])
def test_trace_lands_in_subfield_and_is_linear(ctx):
    for a in range(ctx.order):
        assert 0 <= ctx.trace(a) < ctx.q
        assert ctx.trace(ctx.frobenius(a)) == ctx.trace(a)
    rng = random.Random(4)
    for _ in range(30):
        a, b = rng.randrange(ctx.order), rng.randrange(ctx.order)
        c = rng.randrange(ctx.q)
        assert ctx.trace(ctx.add(a, b)) == (ctx.trace(a) + ctx.trace(b)) % ctx.q
        assert ctx.trace(ctx.mul(c, a)) == (c * ctx.trace(a)) % ctx.q


# ---- bases and coordinates ---------------------------------------------------


@pytest.mark.parametrize(
    "ctx",
    [GF4, GF8, GF9, FieldContext(5, 2), FieldContext(2, 3, basis=[1, 2, 6])],
    ids=["gf4", "gf8", "gf9", "gf25", "gf8-custom-basis"],
)
def test_dual_basis_pairing(ctx):
    for i, b in enumerate(ctx.basis):
        for j, g in enumerate(ctx.dual_basis):
            assert ctx.trace(ctx.mul(b, g)) == (1 if i == j else 0)


def test_basis_coords_of_basis_elements():
    for ctx in (GF8, GF9):
        for i, b in enumerate(ctx.basis):
            coords = ctx.basis_coords(b)
            assert coords == tuple(1 if t == i else 0 for t in range(ctx.ell))
        for j, g in enumerate(ctx.dual_basis):
            coords = ctx.dual_coords(g)
            assert coords == tuple(1 if t == j else 0 for t in range(ctx.ell))


def test_basis_coords_frozen_gf4():
    # w^2 = 1 + w in the working basis {1, w}
    assert GF4.basis_coords(3) == (1, 1)


@pytest.mark.parametrize(
    "ctx",
    [FieldContext(2, 4), FieldContext(3, 3), FieldContext(2, 3, basis=[1, 2, 6])],
    ids=["gf16", "gf27", "gf8-custom-basis"],
)
def test_coordinate_map_is_a_bijection(ctx):
    seen = set()
    for a in range(ctx.order):
        coords = ctx.basis_coords(a)
        assert ctx.from_basis_coords(coords) == a
        seen.add(coords)
    assert len(seen) == ctx.order


def test_coordinate_map_is_linear():
    rng = random.Random(5)
    ctx = GF9
    for _ in range(40):
        a, b = rng.randrange(ctx.order), rng.randrange(ctx.order)
        c = rng.randrange(ctx.q)
        pa, pb = ctx.basis_coords(a), ctx.basis_coords(b)
        assert ctx.basis_coords(ctx.add(a, b)) == tuple(
            (x + y) % ctx.q for x, y in zip(pa, pb)
        )
        assert ctx.basis_coords(ctx.mul(c, a)) == tuple((c * x) % ctx.q for x in pa)


# Every table against the element-by-element builders: q in {2, 3, 5, 7, 11},
# degree one, a modulus whose root x is not primitive, and non-polynomial bases.
TABLE_FIELDS = [
    FieldContext(2, 1),
    FieldContext(2, 2),
    FieldContext(2, 3),
    FieldContext(2, 5),
    FieldContext(2, 8),
    FieldContext(2, 4, modulus=[1, 0, 0, 1, 1]),  # x^4 + x^3 + 1
    FieldContext(2, 4, modulus=[1, 1, 1, 1, 1]),  # x has order 5
    FieldContext(2, 3, basis=[3, 6, 7]),
    FieldContext(3, 1),
    FieldContext(3, 2, modulus=[2, 1, 1]),  # x^2 + x + 2
    FieldContext(3, 3),
    FieldContext(3, 4),
    FieldContext(3, 2, basis=[2, 4]),
    FieldContext(5, 1),
    FieldContext(5, 2),
    FieldContext(5, 3),
    FieldContext(5, 2, basis=[3, 7]),
    FieldContext(7, 2),
    FieldContext(11, 2),
]


@pytest.mark.parametrize("ctx", TABLE_FIELDS, ids=lambda c: f"{c.describe()} basis={list(c.basis)}")
def test_tables_match_the_element_by_element_builders(ctx):
    exp, log, trace = field_tables_oracle(ctx)
    assert ctx._exp == exp
    assert ctx._log == log
    assert [ctx.trace(a) for a in range(ctx.order)] == trace
    # dual_coords and basis_coords read coord_rows' table of their flavour, each
    # built on first use
    fresh = FieldContext(ctx.q, ctx.ell, ctx.modulus, ctx.basis)
    assert fresh._rows == {}
    for a in range(ctx.order):
        assert fresh.dual_coords(a) == coords_oracle(ctx, trace, a, ctx.basis)
    assert list(fresh._rows) == [True] and len(fresh._rows[True][0]) == ctx.order
    for a in range(ctx.order):
        assert fresh.basis_coords(a) == coords_oracle(ctx, trace, a, ctx.dual_basis)
    assert list(fresh._rows) == [True, False] and len(fresh._rows[False][0]) == ctx.order
    # the packed rows: one B-linear table per flavour, each built on first use
    fresh = FieldContext(ctx.q, ctx.ell, ctx.modulus, ctx.basis)
    assert fresh._rows == {}
    pk = linalg.Packing(ctx.q, ctx.ell)
    for dual, against in ((True, ctx.basis), (False, ctx.dual_basis)):
        rows, texts = fresh.coord_rows((), dual=dual)
        assert fresh.coord_rows((), dual=dual) is fresh._rows[dual]
        for a in range(ctx.order):
            row = pk.pack(coords_oracle(ctx, trace, a, against))
            assert rows[a] == row and texts[a] == format(row, f"0{ctx.ell * pk.b}b")
    assert list(fresh._rows) == [True, False]


@pytest.mark.parametrize(
    "ctx", [c for c in TABLE_FIELDS if c.q != 2], ids=lambda c: f"{c.describe()} basis={list(c.basis)}"
)
def test_zech_table_has_one_empty_entry_at_minus_one(ctx):
    # Z[k] = log(1 + g^k), by the digit route; 1 + g^k = 0 only where g^k = -1
    n = ctx.order - 1
    assert len(ctx._zech) == n
    assert [k for k, z in enumerate(ctx._zech) if z is None] == [n // 2]
    for k, z in enumerate(ctx._zech):
        s = ctx._add_raw(1, ctx._exp[k])
        assert (s == 0) == (k == n // 2) and (z is None or ctx._log[s] == z)


@pytest.mark.parametrize("q, ell, modulus", [(3, 4, None), (5, 3, None), (3, 2, (2, 1, 1)), (2, 5, None)])
def test_tables_are_built_without_field_addition(q, ell, modulus, monkeypatch):
    def refuse(self, a, b):
        raise AssertionError("a table was built with a field addition")

    built = FieldContext(q, ell, modulus)
    monkeypatch.setattr(FieldContext, "add", refuse)
    monkeypatch.setattr(FieldContext, "_add_raw", refuse)
    ctx = FieldContext(q, ell, modulus)
    assert (ctx._exp, ctx._log, ctx._zech) == (built._exp, built._log, built._zech)


def test_large_field_without_tables():
    # past the table limit everything falls back to direct polynomial arithmetic
    ctx = FieldContext(5, 8)
    assert ctx.order == 5**8
    rng = random.Random(6)
    for _ in range(5):
        a = rng.randrange(1, ctx.order)
        assert ctx.mul(a, ctx.inv(a)) == 1
        assert ctx.trace(ctx.frobenius(a)) == ctx.trace(a)
        assert ctx.from_basis_coords(ctx.basis_coords(a)) == a
        assert ctx.basis_coords(a) == coords_oracle(ctx, None, a, ctx.dual_basis)
        assert ctx.dual_coords(a) == coords_oracle(ctx, None, a, ctx.basis)
    # duality spot-checked on a corner of the pairing matrix
    assert ctx.trace(ctx.mul(ctx.basis[0], ctx.dual_basis[0])) == 1
    assert ctx.trace(ctx.mul(ctx.basis[0], ctx.dual_basis[7])) == 0
    assert ctx.dual_coords(ctx.basis[2]) == tuple(
        ctx.trace(ctx.mul(ctx.basis[2], b)) for b in ctx.basis
    )
    assert ctx._rows == {}  # no table of either flavour is built
    # packed rows are computed for the values asked for, and kept nowhere
    pk, values = linalg.Packing(5, 8), [0, 1, 2, 390624, 77777, 1]
    for dual, against in ((True, ctx.basis), (False, ctx.dual_basis)):
        rows, texts = ctx.coord_rows(values, dual=dual)
        assert sorted(rows) == sorted(texts) == sorted(set(values))
        for a in values:
            assert pk.unpack(rows[a]) == list(coords_oracle(ctx, None, a, against))
            assert int(texts[a], 2) == rows[a] and len(texts[a]) == 8 * pk.b
    assert ctx._rows == {}


_PACK_FIELDS = [GF8, GF9, FieldContext(2, 10), FieldContext(5, 2, None, [7, 3]), FieldContext(2, 17)]


@pytest.mark.parametrize("ctx", _PACK_FIELDS, ids=lambda c: f"{c.describe()} basis={list(c.basis)}")
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_pack_values_joins_the_coordinate_rows(ctx, data):
    # the first value most significant, repeats and single values included; GF(2^17)
    # builds no table, so its rows come from coord_rows' per-call route
    values = data.draw(st.lists(st.integers(0, ctx.order - 1), min_size=1, max_size=9))
    values += data.draw(st.lists(st.sampled_from(values), max_size=3))
    for dual, coords in ((False, ctx.basis_coords), (True, ctx.dual_coords)):
        pk = linalg.Packing(ctx.q, len(values) * ctx.ell)
        assert ctx.pack_values(values, dual) == pk.pack([x for a in values for x in coords(a)])
        assert ctx.pack_values(values[:1], dual) == linalg.Packing(ctx.q, ctx.ell).pack(
            coords(values[0]))
        assert ctx.pack_values((), dual) == 0


_TRACE_CASES = [(2, 17, None), (5, 7, None), (2, 4, None), (3, 3, None), (5, 2, None),
                (2, 1, None), (7, 1, None), (2, 3, (1, 0, 1, 1)), (3, 2, (2, 1, 1))]


@pytest.mark.parametrize(
    "q, ell, modulus", _TRACE_CASES,
    ids=[f"{q}-{ell}" + (f"-{''.join(map(str, m))}" if m else "") for q, ell, m in _TRACE_CASES],
)
def test_table_free_trace_is_the_frobenius_orbit_sum(q, ell, modulus):
    # with or without tables, at ell = 1 and under non-default moduli (x^3+x^2+1 over
    # GF(2), x^2+x+2 over GF(3)), the trace read off the modulus by Newton's identities
    # is the sum of the Frobenius orbit, summed by the digit route alone
    ctx = FieldContext(q, ell, modulus)
    rng = random.Random(17)
    for a in [0, 1, q % ctx.order, *(rng.randrange(ctx.order) for _ in range(20))]:
        orbit, b = 0, a
        for _ in range(ell):
            orbit, b = ctx._add_raw(orbit, b), ctx._pow_raw(b, q)
        assert ctx.trace(a) == orbit


# ---- shared contexts ---------------------------------------------------------------


@pytest.fixture
def shared(monkeypatch):
    # an empty store of shared contexts for one test, whatever ran before it
    store = {}
    monkeypatch.setattr(fieldmath, "_SHARED", store)
    return store


def test_equal_fields_share_one_context(shared):
    ctx = field_context(2, 3)
    assert field_context(2, 3) is ctx
    # the same field spelled out, as RepairScheme.to_dict writes it
    assert field_context(2, 3, [1, 1, 0, 1], (1, 2, 4)) is ctx
    assert field_context(2, 3, (1, 1, 0, 1)) is ctx and field_context(2, 3, None, [1, 2, 4]) is ctx
    assert (ctx.modulus, ctx.basis) == ((1, 1, 0, 1), (1, 2, 4))
    # a different basis or modulus is a different context
    basis, modulus = field_context(2, 3, None, [1, 2, 6]), field_context(2, 3, [1, 0, 1, 1])
    assert len({id(ctx), id(basis), id(modulus)}) == 3
    assert basis.basis == (1, 2, 6) and modulus.modulus == (1, 0, 1, 1)
    assert field_context(2, 3, [1, 0, 1, 1], [1, 2, 4]) is modulus
    # direct construction stays fresh
    assert FieldContext(2, 3) is not ctx


@pytest.mark.parametrize(
    "args",
    [
        (4, 2), (2, 0), (2, True), (2.0, 3), (True, 3), (2, 3, [1, 1, 0, 0]),
        (2, 3, [1, True, 0, 1]), (2, 3, [1, 1.0, 0, 1]), (2, 3, [1, 1, 1]),
        (2, 3, None, [1, 2, 2]), (2, 3, None, [1, 2, True]), (2, 3, None, [1, 2, 8]),
        (2, 10**9, [0, 1]),
    ],
)
def test_malformed_fields_raise_and_are_never_kept(shared, args):
    # their well-formed neighbours are shared first, so no lookup may serve them
    for good in [(2, 1), (2, 2), (2, 3), (2, 3, [1, 1, 0, 1]), (2, 3, None, [1, 2, 4])]:
        field_context(*good)
    before = dict(shared)
    for _ in range(2):
        with pytest.raises(ValueError):
            field_context(*args)
    assert shared == before


def test_shared_contexts_are_bounded(shared):
    first = field_context(2, 1)
    others = [field_context(2, ell) for ell in range(2, 12)]
    assert len(shared) <= 16
    assert field_context(2, 1) is not first  # dropped, oldest first, and rebuilt
    assert field_context(2, 11) is others[-1]


# ---- subfield vectors and coset weight ------------------------------------------


def _coset_brute_force(rows, y, q):
    k = len(rows)
    m = len(rows[0])
    y = y or [0] * m
    total = 0
    for coeffs in product(range(q), repeat=k):
        v = [
            (y[j] + sum(c * rows[i][j] for i, c in enumerate(coeffs))) % q
            for j in range(m)
        ]
        total += sum(1 for x in v if x)
    return total


def _weight(rows, y, q):
    # coset_weight on list rows and a list offset (or None), packed first
    pk = linalg.Packing(q, len(rows[0]))
    return linalg.coset_weight(pk, [pk.pack(row) for row in rows], None if y is None else pk.pack(y))


def test_coset_weight_frozen_examples():
    assert _weight([[1, 1, 0]], None, 2) == (2, 2)
    assert _weight([[1, 1, 0]], [0, 0, 1], 2) == (2, 4)
    # full space of dimension ell: every coordinate nonzero in q^(ell-1)(q-1) vectors
    eye4 = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    assert _weight(eye4, None, 2) == (4, 4 * 2**3)
    eye3 = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    assert _weight(eye3, None, 3) == (3, 3 * 9 * 2)


def test_coset_weight_none_equals_zero_vector():
    rows = [[1, 0, 2, 0], [0, 1, 1, 0]]
    assert _weight(rows, None, 3) == _weight(rows, [0, 0, 0, 0], 3)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_coset_weight_matches_enumeration(q):
    rng = random.Random(q * 17)
    done = 0
    while done < 40:
        k = rng.randrange(1, 5)
        m = rng.randrange(k, 9)
        rows = [[rng.randrange(q) for _ in range(m)] for _ in range(k)]
        try:
            y = [rng.randrange(q) for _ in range(m)]
            supp, total = _weight(rows, y, q)
        except ValueError:
            continue  # dependent rows; draw again
        done += 1
        assert supp == len({j for row in rows for j, v in enumerate(row) if v})
        assert total == _coset_brute_force(rows, y, q)


def test_coset_weight_rejects_dependent_rows():
    with pytest.raises(ValueError, match="independent"):
        _weight([[1, 1, 0], [1, 1, 0]], None, 2)


# ---- polynomial helpers ------------------------------------------------------


def test_poly_trim_and_deg():
    assert poly_trim([1, 0, 2, 0, 0]) == [1, 0, 2]
    assert poly_trim([0, 0]) == []
    assert poly_deg([]) == -1
    assert poly_deg([0]) == -1
    assert poly_deg([5]) == 0
    assert poly_deg([0, 0, 3]) == 2


def test_poly_eval_matches_power_sum():
    rng = random.Random(8)
    for _ in range(20):
        coeffs = [rng.randrange(GF8.order) for _ in range(5)]
        x = rng.randrange(GF8.order)
        direct = 0
        for d, c in enumerate(coeffs):
            direct = GF8.add(direct, GF8.mul(c, GF8.power(x, d)))
        assert poly_eval(GF8, coeffs, x) == direct


# GF(2^ell) for ell = 1..12, two non-default moduli, and GF(2^17), which has no
# tables; the sliced evaluator reads only the modulus, so all of them take it
_SLICED_FIELDS = [FieldContext(2, ell) for ell in range(1, 13)] + [
    FieldContext(2, 3, [1, 0, 1, 1]),
    FieldContext(2, 4, [1, 0, 0, 1, 1]),
    FieldContext(2, 17, [1, 0, 0, 1] + [0] * 13 + [1]),
]
GF2_17 = _SLICED_FIELDS[-1]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_poly_eval_all_matches_pointwise(data):
    ctx = data.draw(st.sampled_from(_SLICED_FIELDS), label="field")
    # random subsets in random order, whole fields included up to 2^8;
    # the table-free GF(2^17) multiplies slowly, so it gets short lists
    cap = 40 if ctx is GF2_17 else min(ctx.order, 256)
    size = data.draw(st.integers(0, cap), label="n")
    points = data.draw(st.randoms(use_true_random=False)).sample(range(ctx.order), size)
    # messages up to three blocks and one coefficient long, so the steps by a^m
    # between blocks run (on these point lists a block is _BLOCK long), with
    # trailing zeros up to the zero polynomial
    m = _BLOCK
    edges = st.sampled_from([0, 1, m - 1, m, m + 1, 2 * m, 2 * m + 1, 3 * m, 3 * m + 1])
    length = data.draw(edges | st.integers(0, 3 * m + 1), label="length")
    element = st.integers(0, ctx.order - 1)
    coeffs = data.draw(st.lists(element, min_size=length, max_size=length), label="coeffs")
    zeros = data.draw(st.just(0) | st.integers(0, length), label="trailing zeros")
    coeffs[length - zeros :] = [0] * zeros
    assert poly_evaluator(ctx, points)(coeffs) == [poly_eval(ctx, coeffs, a) for a in points]


def test_evaluator_tables_stay_within_their_budget():
    # full length at ell = 14 would take 12.8 MB of tables at _BLOCK rows; fewer
    # rows keep them near the budget, and messages spanning several blocks of the
    # shorter length still evaluate exactly
    ctx = FieldContext(2, 14)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        evaluate = poly_evaluator(ctx, range(ctx.order))
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept <= 1.25 * _PLANE_BUDGET / 8, kept
    message = random.Random(14).choices(range(ctx.order), k=3 * _BLOCK + 1)
    word = evaluate(message)
    for a in random.Random(3).sample(range(ctx.order), 40):
        assert word[a] == poly_eval(ctx, message, a)


@pytest.mark.parametrize(
    "coeffs", [[], [0, 0, 0], [5], [6, 0, 3, 0, 0], [0, 0, 7]],
    ids=["empty", "zero", "k1", "trailing-zeros", "monomial"],
)
@pytest.mark.parametrize(
    "ctx",
    [GF8, FieldContext(2, 3, [1, 0, 1, 1]), GF9, FieldContext(5, 2), FieldContext(2, 10)],
    ids=["gf8", "gf8-custom", "gf9", "gf25", "gf1024"],
)
def test_poly_eval_all_edge_messages(ctx, coeffs):
    for points in (range(ctx.order), [7, 0, 3, 5], []):
        expected = [poly_eval(ctx, coeffs, a) for a in points]
        assert poly_evaluator(ctx, points)(coeffs) == expected
        assert poly_eval_lanes(ctx, coeffs, points) == expected


# the point-list route (lane-wise Horner) on q in {2, 3, 5}, custom moduli and the
# table-free GF(2^17), whose short point lists keep the slow multiplication cheap
_LANE_FIELDS = [
    GF8, FieldContext(2, 4, [1, 0, 0, 1, 1]), FieldContext(2, 10), GF9,
    FieldContext(3, 2, [2, 2, 1]), FieldContext(3, 3), FieldContext(5, 2), GF2_17,
]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_poly_eval_lanes_matches_pointwise(data):
    ctx = data.draw(st.sampled_from(_LANE_FIELDS), label="field")
    cap = 12 if ctx is GF2_17 else min(ctx.order, 200)
    element = st.integers(0, ctx.order - 1)
    # repeated points, the zero polynomial, constants and trailing zeros included
    points = data.draw(st.lists(element, max_size=cap), label="points")
    r = data.draw(st.integers(0, 6), label="r")
    coeffs = data.draw(st.lists(element, max_size=r + 1), label="coeffs")
    expected = [poly_eval(ctx, coeffs, a) for a in points]
    assert poly_eval_lanes(ctx, coeffs, points) == expected
    assert poly_eval_lanes(ctx, coeffs, tuple(points)) == expected


def test_poly_ring_operations():
    rng = random.Random(9)
    for _ in range(20):
        a = [rng.randrange(GF9.order) for _ in range(rng.randrange(1, 5))]
        b = [rng.randrange(GF9.order) for _ in range(rng.randrange(1, 5))]
        x = rng.randrange(GF9.order)
        assert poly_eval(GF9, poly_mul(GF9, a, b), x) == GF9.mul(
            poly_eval(GF9, a, x), poly_eval(GF9, b, x)
        )


def test_poly_mul_degrees():
    assert poly_mul(GF8, [], [1, 2]) == []
    out = poly_mul(GF8, [0, 1], [0, 1])  # x * x
    assert out == [0, 0, 1]


def test_poly_shift_is_substitution():
    rng = random.Random(10)
    for ctx in (GF8, GF9):
        for _ in range(20):
            coeffs = [rng.randrange(ctx.order) for _ in range(rng.randrange(1, 6))]
            c = rng.randrange(ctx.order)
            shifted = poly_shift(ctx, coeffs, c)
            assert poly_deg(shifted) == poly_deg(coeffs)
            for _ in range(5):
                x = rng.randrange(ctx.order)
                assert poly_eval(ctx, shifted, x) == poly_eval(
                    ctx, coeffs, ctx.add(x, c)
                )


def test_poly_shift_by_zero_is_identity():
    assert poly_shift(GF8, [3, 1, 4], 0) == [3, 1, 4]
