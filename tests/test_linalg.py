import random
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repair_lab import linalg

from oracles import nonzero_columns, solve
from oracles import rref as list_rref


def _mat_vec(a, x, p):
    return [sum(r * v for r, v in zip(row, x)) % p for row in a]


def _random_matrix(rng, rows, cols, p):
    return [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]


def test_rref_known_gf2():
    rows, pivots = linalg.rref([[1, 1, 0], [0, 1, 1]], 2)
    assert rows == [[1, 0, 1], [0, 1, 1]]
    assert pivots == [0, 1]


def test_rref_known_gf3():
    # a lone row comes back scaled to a leading 1
    assert linalg.rref([[2, 1, 0]], 3) == ([[1, 2, 0]], [0])
    # the rows agree on the first two columns up to scale, so the second pivot
    # lands in the last column
    rows, pivots = linalg.rref([[2, 1, 0], [1, 2, 1]], 3)
    assert pivots == [0, 2]
    assert rows == [[1, 2, 0], [0, 0, 1]]
    for j, piv in enumerate(pivots):
        assert rows[j][piv] == 1
        for i in range(len(rows)):
            if i != j:
                assert rows[i][piv] == 0


def test_rref_drops_dependent_rows():
    rows, pivots = linalg.rref([[1, 1], [1, 1], [0, 0]], 2)
    assert rows == [[1, 1]]
    assert pivots == [0]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_rref_is_idempotent(p):
    rng = random.Random(11 * p)
    for _ in range(20):
        a = _random_matrix(rng, 4, 6, p)
        once, piv1 = linalg.rref(a, p)
        twice, piv2 = linalg.rref([row[:] for row in once], p)
        assert once == twice
        assert piv1 == piv2


@pytest.mark.parametrize("p", [2, 3])
def test_rank_matches_span_enumeration(p):
    # rank r means the row span has exactly p^r distinct vectors
    rng = random.Random(7)
    for _ in range(25):
        a = _random_matrix(rng, 3, 4, p)
        span = set()
        for coeffs in product(range(p), repeat=3):
            v = tuple(
                sum(c * a[i][j] for i, c in enumerate(coeffs)) % p for j in range(4)
            )
            span.add(v)
        r = linalg.rank(a, p)
        assert p**r == len(span)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_solve_roundtrip(p):
    rng = random.Random(23 * p)
    for _ in range(30):
        a = _random_matrix(rng, 4, 4, p)
        x = [rng.randrange(p) for _ in range(4)]
        b = _mat_vec(a, x, p)
        got = solve(a, b, p)
        assert got is not None
        assert _mat_vec(a, got, p) == b


def test_solve_inconsistent_returns_none():
    # rows force x0 + x1 to equal both 0 and 1
    a = [[1, 1], [1, 1]]
    assert solve(a, [0, 1], 2) is None


def test_solve_underdetermined_still_solves():
    a = [[1, 0, 1]]
    got = solve(a, [1], 2)
    assert got is not None
    assert _mat_vec(a, got, 2) == [1]


@pytest.mark.parametrize("p", [2, 3, 5, 65537, 2**61 - 1])
def test_inverse_roundtrip(p):
    rng = random.Random(5 * p)
    built = 0
    while built < 10:
        a = _random_matrix(rng, 3, 3, p)
        if linalg.rank(a, p) < 3:
            continue
        built += 1
        inv = linalg.inverse(a, p)
        prod = [
            [sum(a[i][t] * inv[t][j] for t in range(3)) % p for j in range(3)]
            for i in range(3)
        ]
        assert prod == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_inverse_singular_raises():
    with pytest.raises(ValueError):
        linalg.inverse([[1, 1], [1, 1]], 2)


@pytest.mark.parametrize("p", [2, 3])
def test_nullspace_vectors_annihilate(p):
    rng = random.Random(31 * p)
    for _ in range(20):
        a = _random_matrix(rng, 3, 5, p)
        null = linalg.nullspace(a, p)
        assert len(null) == 5 - linalg.rank(a, p)
        for v in null:
            assert _mat_vec(a, v, p) == [0, 0, 0]
        # basis vectors are independent
        assert linalg.rank(null, p) == len(null) if null else True


def test_nullspace_of_identity_is_empty():
    assert linalg.nullspace([[1, 0], [0, 1]], 2) == []


def test_nonzero_columns():
    assert nonzero_columns([[0, 1, 0], [0, 2, 0]]) == [1]
    assert nonzero_columns([[0, 0], [0, 0]]) == []
    assert nonzero_columns([[1, 0, 2]]) == [0, 2]
    assert nonzero_columns([]) == []
    assert nonzero_columns([[], []]) == []


# ---- the packed elimination against the list Gauss-Jordan ------------------------


def _rref_rank(rows, p):
    return len(list_rref(rows, p)[0])


def _check_against_the_oracle(rows, p):
    assert linalg.rank(rows, p) == _rref_rank(rows, p)
    assert linalg.rref(rows, p) == list_rref(rows, p)


@st.composite
def _matrices(draw, primes=(2, 3, 5, 7), max_rows=10, max_cols=70):
    """(p, rows): rows are combinations of a few drawn rows, so dependent and
    zero rows are common."""
    p = draw(st.sampled_from(primes))
    nrows, ncols = draw(st.integers(0, max_rows)), draw(st.integers(0, max_cols))
    digit = st.integers(0, p - 1)
    base = draw(st.lists(st.lists(digit, min_size=ncols, max_size=ncols), max_size=nrows))
    rows = []
    for _ in range(nrows):
        coeffs = draw(st.lists(digit, min_size=len(base), max_size=len(base)))
        rows.append([sum(c * row[j] for c, row in zip(coeffs, base)) % p for j in range(ncols)])
    return p, rows


def _low_rank(rng, p, nrows, ncols, rank):
    # nrows combinations of `rank` random rows
    base = [[rng.randrange(p) for _ in range(ncols)] for _ in range(rank)]
    return [
        [sum(c * row[j] for c, row in zip(coeffs, base)) % p for j in range(ncols)]
        for coeffs in ([rng.randrange(p) for _ in base] for _ in range(nrows))
    ]


_RNG = random.Random(2017)


@settings(max_examples=300, deadline=None)
@given(_matrices())
@example((2, []))
@example((3, []))
@example((2, [[]]))
@example((7, [[]]))
@example((5, [[], [], []]))
@example((2, [[0] * 10240]))
@example((2, [[_RNG.randrange(2) for _ in range(10240)]]))
@example((2, [[_RNG.randrange(2) for _ in range(10240)] for _ in range(10)]))
@example((2, _low_rank(_RNG, 2, 10, 10240, 6)))
@example((2, [[1] * 10240 for _ in range(10)]))
@example((3, _low_rank(_RNG, 3, 6, 10240, 4)))
@example((7, [[_RNG.randrange(7) for _ in range(10240)] for _ in range(3)]))
def test_packed_rank_and_rref_match_the_list_oracle(case):
    p, rows = case
    _check_against_the_oracle(rows, p)


@st.composite
def _int_matrices(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    nrows, ncols = draw(st.integers(0, 8)), draw(st.integers(0, 12))
    entries = draw(st.sampled_from([st.integers(0, 255), st.integers(-600, 600)]))
    flat = draw(st.lists(entries, min_size=nrows * ncols, max_size=nrows * ncols))
    return p, [flat[i * ncols : (i + 1) * ncols] for i in range(nrows)]


@settings(max_examples=100, deadline=None)
@given(_int_matrices())
@example((2, [[256, 257, -1], [2, 3, 1]]))
@example((2, [[2, 3, 254], [4, 5, 255]]))
@example((3, [[2**70, -(2**70), 5], [3, 4, 255]]))
def test_packed_rank_and_rref_reduce_any_integer_mod_p(case):
    p, rows = case
    _check_against_the_oracle(rows, p)


@settings(max_examples=60, deadline=None)
@given(_matrices(primes=(65537, 2**61 - 1), max_rows=5, max_cols=5))
@example((2**61 - 1, [[2**61 - 2, 1, 3], [1, 2**60, 2**61 - 2], [2**61 - 3, 2, 5]]))
def test_packed_elimination_at_large_primes(case):
    # fields of 18 and 63 bits: packed like any other, and scaled by doubling
    p, rows = case
    _check_against_the_oracle(rows, p)


@pytest.mark.parametrize("p", [3, 5, 7, 65537])
def test_a_broken_add_fails_the_elimination_at_once(monkeypatch, p):
    # fieldwise subtraction in place of addition never clears a leading field,
    # which looped for ever before each clearing pass was checked
    def subtract(pk, x, y):
        s = x + pk.q * pk.ones - y
        return s - (((s + pk.over) & pk.high) >> (pk.b - 1)) * pk.q

    rows = [[1, 0, 2], [1, 1, 0], [2, 1, 1]]
    assert linalg.rank(rows, p) == 3
    monkeypatch.setattr(linalg.Packing, "add", subtract)
    with pytest.raises(ArithmeticError, match="did not lower the row's leading field"):
        linalg.rank(rows, p)
