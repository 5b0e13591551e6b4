import pytest

from repair_lab.construction import (
    build_low_io_scheme,
    compare_baselines,
    has_block_shape,
    largest_valid_s,
    predicted_cost,
)
from repair_lab.fieldmath import FieldContext
from repair_lab.rs import RSCode

from oracles import diagonal_zero_counts

GF4 = FieldContext(2, 2)
GF8 = FieldContext(2, 3)
GF9 = FieldContext(3, 2)


def test_predicted_cost_values():
    assert predicted_cost(2, 2, 0) == 4
    assert predicted_cost(2, 3, 0) == 17
    assert predicted_cost(2, 3, 1) == 13
    assert predicted_cost(2, 4, 0) == 52
    assert predicted_cost(2, 4, 1) == 44
    assert predicted_cost(3, 2, 0) == 13


def test_largest_valid_s():
    assert largest_valid_s(2, 3, 2) == 0
    assert largest_valid_s(2, 3, 3) == 1
    assert largest_valid_s(2, 4, 3) == 1
    assert largest_valid_s(2, 4, 5) == 2
    assert largest_valid_s(3, 2, 4) == 1
    # s never reaches ell even when the redundancy would allow it
    assert largest_valid_s(2, 2, 4) == 1
    with pytest.raises(ValueError):
        largest_valid_s(2, 3, 1)


@pytest.mark.parametrize(
    "ctx,k,s,cost",
    [
        (GF4, 2, 0, 4),
        (GF8, 6, 0, 17),
        (GF8, 5, 1, 13),
        (GF9, 7, 0, 13),
        (FieldContext(2, 4), 13, 1, 44),
    ],
    ids=["gf4", "gf8-s0", "gf8-s1", "gf9", "gf16-s1"],
)
def test_measured_cost_matches_prediction(ctx, k, s, cost):
    scheme = build_low_io_scheme(ctx, k, s)
    assert scheme.star == 1
    assert scheme.validate() is None
    assert scheme.io_cost_direct() == cost
    assert scheme.io_cost_formula() == cost
    assert scheme.bandwidth() == cost
    assert predicted_cost(ctx.q, ctx.ell, s) == cost


def test_parameter_validation():
    with pytest.raises(ValueError, match="ell"):
        build_low_io_scheme(GF8, 5, 3)
    with pytest.raises(ValueError, match="ell"):
        build_low_io_scheme(GF8, 5, -1)
    with pytest.raises(ValueError, match="n - k"):
        build_low_io_scheme(GF4, 3, 1)  # needs n - k >= q + 1 = 3
    with pytest.raises(ValueError, match="k >= 1"):
        build_low_io_scheme(GF8, 0, 0)


def test_an_oversized_field_is_refused_before_any_point_is_built(monkeypatch):
    def build(*args):
        raise AssertionError("a code was built")

    monkeypatch.setattr(RSCode, "__init__", build)
    with pytest.raises(ValueError, match=r"^field order 2\^17 is over the limit of 65536$"):
        build_low_io_scheme(FieldContext(2, 17), 2**17 - 4, 1)
    with pytest.raises(ValueError, match=r"^field order 257\^2 is over the limit of 65536$"):
        build_low_io_scheme(FieldContext(257, 2, [3, 0, 1]), 257**2 - 4, 1)


def test_tail_dual_codewords_are_constants():
    scheme = build_low_io_scheme(GF8, 5, 1)  # s + 1 = 2 of 3 carry a linear part
    assert len(scheme.duals[2]) == 1
    assert scheme.duals[2][0] == GF8.dual_basis[2]
    for j in range(2):
        assert len(scheme.duals[j]) > 1
        assert scheme.duals[j][0] == GF8.dual_basis[j]


def test_block_shape_at_every_helper():
    for ctx, k, s in ((GF8, 5, 1), (GF8, 6, 0), (GF9, 7, 0), (FieldContext(2, 4), 11, 2)):
        scheme = build_low_io_scheme(ctx, k, s)
        for i in range(1, ctx.order + 1):
            assert has_block_shape(scheme, s, i)


def test_block_shape_rejects_the_trivial_pattern():
    # the s=1 scheme's matrices are not plain identities anywhere off the diagonal block
    scheme = build_low_io_scheme(GF8, 5, 1)
    assert not all(
        scheme.io_matrix(i) == [[1 if a == b else 0 for b in range(3)] for a in range(3)]
        for i in scheme.helpers()
    )


@pytest.mark.parametrize(
    "ctx,k,s",
    [(GF4, 2, 0), (GF8, 6, 0), (GF8, 5, 1), (GF9, 7, 0), (FieldContext(2, 4), 11, 2)],
    ids=["gf4", "gf8-s0", "gf8-s1", "gf9", "gf16-s2"],
)
def test_each_leading_column_rests_at_q_to_ell_minus_one_nodes(ctx, k, s):
    scheme = build_low_io_scheme(ctx, k, s)
    counts = diagonal_zero_counts(scheme, s)
    assert counts == [ctx.q ** (ctx.ell - 1)] * (s + 1)


def test_bandwidth_equals_io_witness():
    scheme = build_low_io_scheme(GF8, 5, 1)
    report = scheme.cost_report()
    assert report["bandwidth"] == report["io_cost"] == 13
    assert len(report["per_node"]) == 7
    for row in report["per_node"]:
        assert row["rank"] == row["nz"]
        assert has_block_shape(scheme, 1, row["i"])


def test_bandwidth_equals_io_gf16():
    scheme = build_low_io_scheme(FieldContext(2, 4), 13, 0)
    report = scheme.cost_report()
    assert report["bandwidth"] == report["io_cost"] == 52
    assert all(has_block_shape(scheme, 0, i) for i in scheme.helpers())


def test_compare_baselines_reference_row():
    table = compare_baselines(2, 4, 1, 13)
    assert table["prior_bandwidth"] == 45
    assert table["prior_io"] == 56
    assert table["trivial_io"] == 52
    assert table["ours"] == 44
    assert table["below_trivial"]
    assert table["bound_condition"]


def test_compare_baselines_second_row():
    # here the sufficient condition fails even though the raw comparison holds:
    # 17 < 18 but 3 * 2 > 1 * 4
    table = compare_baselines(2, 3, 0, 6)
    assert table["prior_bandwidth"] == 21
    assert table["prior_io"] == 21
    assert table["trivial_io"] == 18
    assert table["ours"] == 17
    assert table["below_trivial"]
    assert not table["bound_condition"]


def test_compare_baselines_condition_is_sufficient():
    for q, ell in ((2, 3), (2, 4), (2, 5), (3, 2), (3, 3)):
        n = q**ell
        for s in range(0, min(3, ell)):
            for k in range(1, n - q**s):
                table = compare_baselines(q, ell, s, k)
                assert table["bound_condition"] == (
                    ell * (n - k) <= (s + 1) * q ** (ell - 1)
                )
                if table["bound_condition"]:
                    assert table["below_trivial"]


def test_prior_work_sum_identity():
    # closed-form identity relating the two prior-work columns to ours at q=2
    for ell in (3, 4, 5, 6):
        for s in (0, 1, 2):
            if s >= ell or ell > 2 ** (ell - s):
                continue
            n = 2**ell
            table = compare_baselines(2, ell, s, n - 2**s - 1)
            lhs = table["prior_bandwidth"] + table["prior_io"] - 2 * table["ours"]
            assert lhs == ell + s + (2 ** (ell - s) - ell) * 2**s
