import random
import re
from itertools import combinations

import pytest

from repair_lab import rs
from repair_lab.fieldmath import FieldContext, poly_eval, poly_trim
from repair_lab.rs import RSCode

from oracles import interpolate, is_codeword, poly_mul

GF4 = FieldContext(2, 2)
GF8 = FieldContext(2, 3)
GF9 = FieldContext(3, 2)


def test_constructor_validation():
    with pytest.raises(ValueError, match="distinct"):
        RSCode(GF8, [0, 1, 1], 1)
    with pytest.raises(ValueError, match="k"):
        RSCode(GF8, [0, 1, 2], 3)
    with pytest.raises(ValueError, match="k"):
        RSCode(GF8, [0, 1, 2], 0)
    with pytest.raises(ValueError, match="element"):
        RSCode(GF8, [False, True, 2], 1)


@pytest.mark.parametrize(
    "points,bad",
    [([0, 1, 8], 8), ([0, -1, 2], -1), ([0, True, 2], True), ([3, 2.0, 9], 2.0), ([1, None], None),
     ([9, 1, 2], 9)],
    ids=["over", "negative", "bool", "float-before-9", "none", "first"],
)
def test_constructor_names_the_first_bad_point(points, bad):
    with pytest.raises(ValueError, match=f"^not a field element: {re.escape(repr(bad))}$"):
        RSCode(GF8, points, 1)


def test_constructor_accepts_int_subclass_points():
    class Point(int):
        pass

    code = RSCode(GF8, [Point(0), 1, Point(7)], 1)
    assert code.eval_points == (0, 1, 7)
    assert code.encode([5]) == [5] * 3


def test_full_length_layout():
    code = RSCode.full_length(GF8, 5)
    assert code.n == 8
    assert code.is_full_length
    assert code.eval_points[0] == 0
    assert list(code.eval_points) == sorted(code.eval_points)
    assert not RSCode(GF8, [0, 1, 2, 3], 2).is_full_length


def test_encode_constant_messages():
    code = RSCode.full_length(GF8, 3)
    assert code.encode([0]) == [0] * 8
    assert code.encode([1]) == [1] * 8


def test_encode_identity_message_gf4():
    # f = x evaluated over the whole field in canonical order
    code = RSCode.full_length(GF4, 2)
    assert code.encode([0, 1]) == [0, 1, 2, 3]


@pytest.mark.parametrize(
    "ctx,message,bad",
    [
        (GF8, [9], 9), (GF8, [-1], -1), (GF8, [1, 8], 8), (GF8, [True, 1], True),
        (GF9, [9], 9), (GF8, [1, 2, 3, 8], 8), (GF8, [1, 2.0], 2.0), (GF8, [3, 1.5, 9], 1.5),
        (GF8, [1, None], None),
    ],
    ids=[
        "gf8-9", "gf8-neg", "gf8-8", "gf8-bool", "gf9-9", "gf8-8-over-degree", "gf8-float",
        "gf8-float-before-9", "gf8-none",
    ],
)
def test_encode_rejects_non_elements(ctx, message, bad):
    # checked before the degree, so the over-degree message names its bad
    # coefficient too; the first bad coefficient is the one named
    code = RSCode.full_length(ctx, 2)
    with pytest.raises(ValueError, match=f"^not a field element: {re.escape(repr(bad))}$"):
        code.encode(message)


def test_encode_accepts_int_subclasses():
    class Symbol(int):
        pass

    code = RSCode.full_length(GF8, 3)
    assert code.encode([Symbol(3), 1, Symbol(7)]) == code.encode([3, 1, 7])


def test_encode_degree_check():
    code = RSCode.full_length(GF8, 2)
    with pytest.raises(ValueError, match="degree"):
        code.encode([1, 2, 3])
    # trailing zeros do not count toward the degree
    assert code.encode([1, 2, 0, 0]) == code.encode([1, 2])


@pytest.mark.parametrize("ctx,k", [(GF8, 5), (GF9, 4)], ids=["gf8-k5", "gf9-k4"])
def test_interpolate_inverts_encode(ctx, k):
    code = RSCode.full_length(ctx, k)
    for seed in range(10):
        msg = code.random_message(seed)
        assert interpolate(code, code.encode(msg)) == poly_trim(msg)


def test_interpolate_arbitrary_vector_roundtrip():
    code = RSCode.full_length(GF8, 5)
    rng = random.Random(1)
    symbols = [rng.randrange(8) for _ in range(8)]
    f = interpolate(code, symbols)
    assert [poly_eval(GF8, f, a) for a in code.eval_points] == symbols


def test_is_codeword():
    code = RSCode.full_length(GF8, 6)  # n - k = 2
    assert is_codeword(code, [0] * 8)
    assert is_codeword(code, code.random_codeword(3))
    e1 = [1] + [0] * 7
    assert not is_codeword(code, e1)


def test_dual_codewords_are_orthogonal():
    ctx = GF8
    code = RSCode.full_length(ctx, 5)
    dual = RSCode(ctx, code.eval_points, code.n - code.k)
    for seed in range(100):
        c = code.random_codeword(seed)
        d = dual.random_codeword(seed + 1000)
        acc = 0
        for a, b in zip(c, d):
            acc = ctx.add(acc, ctx.mul(a, b))
        assert acc == 0


def _lagrange(ctx, points, values):
    # interpolating polynomial through the given (point, value) pairs
    out = [0] * len(points)
    for a, y in zip(points, values):
        if y == 0:
            continue
        num = [1]
        denom = 1
        for b in points:
            if b != a:
                num = poly_mul(ctx, num, [ctx.neg(b), 1])
                denom = ctx.mul(denom, ctx.sub(a, b))
        scale = ctx.mul(y, ctx.inv(denom))
        for d, c in enumerate(num):
            out[d] = ctx.add(out[d], ctx.mul(scale, c))
    return poly_trim(out)


@pytest.mark.parametrize(
    "ctx,k",
    [(GF4, 2), (GF8, 2), (GF8, 5), (FieldContext(2, 4), 13)],
    ids=["gf4-k2", "gf8-k2", "gf8-k5", "gf16-k13"],
)
def test_any_k_symbols_determine_the_codeword(ctx, k):
    # erase every possible set of n-k positions; the survivors interpolate back
    code = RSCode.full_length(ctx, k)
    msg = poly_trim(code.random_message(7))
    word = code.encode(msg)
    for erased in combinations(range(code.n), code.n - k):
        keep = [i for i in range(code.n) if i not in erased]
        pts = [code.eval_points[i] for i in keep]
        vals = [word[i] for i in keep]
        assert _lagrange(ctx, pts, vals) == msg


@pytest.mark.parametrize("seed", [7, 2017])
def test_full_length_n1024_codeword_matches_pointwise_oracle(seed):
    ctx = FieldContext(2, 10)
    code = RSCode.full_length(ctx, 1020)
    word = code.random_codeword(seed)
    message = code.random_message(seed)
    assert word == [poly_eval(ctx, message, a) for a in code.eval_points]
    assert is_codeword(code, word)


def test_encode_builds_its_tables_once_per_code(monkeypatch):
    evaluator, built = rs.poly_evaluator, []

    def counting(ctx, points):
        built.append(tuple(points))
        return evaluator(ctx, points)

    monkeypatch.setattr(rs, "poly_evaluator", counting)
    ctx = FieldContext(2, 6)
    code = RSCode.full_length(ctx, 60)
    words = [code.random_codeword(seed) for seed in (1, 2)]
    assert built == [code.eval_points]
    assert code._evaluate is code._evaluate
    for seed, word in zip((1, 2), words):
        assert word == [poly_eval(ctx, code.random_message(seed), a) for a in code.eval_points]
    # two codes over one context, on different points, keep separate tables
    evens, odds = RSCode(ctx, range(0, 64, 2), 30), RSCode(ctx, range(63, 0, -3), 20)
    for seed in range(3):
        for other in (evens, odds):
            message = other.random_message(seed)
            word = other.encode(message)
            assert word == [poly_eval(ctx, message, a) for a in other.eval_points]
    assert built == [code.eval_points, evens.eval_points, odds.eval_points]


def test_random_codeword_reproducible():
    code = RSCode.full_length(GF9, 4)
    assert code.random_codeword(42) == code.random_codeword(42)
    words = {tuple(code.random_codeword(seed)) for seed in range(3)}
    assert len(words) == 3
    for w in words:
        assert is_codeword(code, list(w))
