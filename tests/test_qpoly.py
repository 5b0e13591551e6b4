import random
from itertools import combinations

import pytest

from repair_lab.fieldmath import FieldContext
from repair_lab.linalg import rank
from repair_lab.qpoly import (
    canonical_subspace_basis,
    qp_eval,
    qp_image,
    qp_to_poly,
    solve_annihilator,
    subspace_intersect_kernels,
)

from oracles import qp_kernel, subspace_elements

GF8 = FieldContext(2, 3)
GF27 = FieldContext(3, 3)
# odd q at ell = 2, a non-polynomial basis, and a field with no tables (order > 2^16)
MORE = (FieldContext(5, 2), FieldContext(7, 2), FieldContext(2, 3, basis=[3, 2, 4]), FieldContext(2, 17))


def _random_independent_betas(rng, ctx, t):
    while True:
        betas = [rng.randrange(1, ctx.order) for _ in range(t)]
        if rank([list(ctx.digits(b)) for b in betas], ctx.q) == t:
            return betas


# ---- evaluation -------------------------------------------------------------


def test_qp_eval_identity():
    for a in range(GF8.order):
        assert qp_eval(GF8, [1], a) == a


def test_qp_eval_x2_plus_x_kills_subfield():
    # thetas [1, 1] is x + x^2, zero exactly on GF(2)
    for a in (0, 1):
        assert qp_eval(GF8, [1, 1], a) == 0
    assert sum(1 for a in range(8) if qp_eval(GF8, [1, 1], a) == 0) == 2


@pytest.mark.parametrize("ctx", [GF8, GF27], ids=["gf8", "gf27"])
def test_qp_eval_is_additive(ctx):
    rng = random.Random(13)
    thetas = [rng.randrange(ctx.order) for _ in range(ctx.ell)]
    for _ in range(100):
        a, b = rng.randrange(ctx.order), rng.randrange(ctx.order)
        assert qp_eval(ctx, thetas, ctx.add(a, b)) == ctx.add(
            qp_eval(ctx, thetas, a), qp_eval(ctx, thetas, b)
        )


def test_qp_to_poly_places_coefficients_at_q_powers():
    out = qp_to_poly(GF27, [4, 5, 6])
    assert len(out) == 10
    assert out[1] == 4 and out[3] == 5 and out[9] == 6
    assert all(c == 0 for i, c in enumerate(out) if i not in (1, 3, 9))
    rng = random.Random(14)
    for _ in range(10):
        x = rng.randrange(27)
        from repair_lab.fieldmath import poly_eval

        assert poly_eval(GF27, out, x) == qp_eval(GF27, [4, 5, 6], x)


# ---- subspace plumbing ----------------------------------------------------------


def test_canonical_basis_identifies_equal_spans():
    # {1, 2} and {3, 2} span the same plane of GF(8)
    a = canonical_subspace_basis(GF8, [1, 2])
    b = canonical_subspace_basis(GF8, [3, 2])
    assert a == b
    assert len(a) == 2
    assert canonical_subspace_basis(GF8, [0]) == ()


def test_subspace_elements_size():
    basis = canonical_subspace_basis(GF8, [1, 2])
    elems = subspace_elements(GF8, basis)
    assert len(elems) == 4
    assert 0 in elems


# ---- image and kernel ------------------------------------------------------------


def test_image_and_kernel_of_identity():
    assert len(qp_image(GF8, [1])) == 3
    assert qp_kernel(GF8, [1]) == ()


def test_image_and_kernel_of_trace_map():
    # summing all Frobenius powers lands in the subfield; its kernel is a hyperplane
    thetas = [1] * GF8.ell
    assert qp_image(GF8, thetas) == (1,)
    assert len(qp_kernel(GF8, thetas)) == GF8.ell - 1


def test_kernel_of_x2_plus_x():
    assert subspace_elements(GF8, qp_kernel(GF8, [1, 1])) == [0, 1]
    assert len(qp_image(GF8, [1, 1])) == 2


@pytest.mark.parametrize("ctx", [GF8, FieldContext(2, 4), GF27], ids=["gf8", "gf16", "gf27"])
def test_rank_nullity(ctx):
    rng = random.Random(15)
    for _ in range(25):
        t = rng.randrange(1, ctx.ell)
        thetas = [rng.randrange(ctx.order) for _ in range(t)] + [
            rng.randrange(1, ctx.order)
        ]
        dim_im = len(qp_image(ctx, thetas))
        dim_ker = len(qp_kernel(ctx, thetas))
        assert dim_im + dim_ker == ctx.ell
        assert dim_im >= ctx.ell - t
        # the image really is the set of values
        values = {qp_eval(ctx, thetas, a) for a in range(ctx.order)}
        assert values == set(subspace_elements(ctx, qp_image(ctx, thetas)))


# ---- the trace-orthogonal solver ------------------------------------------------


def test_solver_frozen_gf8():
    # single constraint beta = 1: the monic answer is x + x^2
    assert solve_annihilator(GF8, [1]) == [1, 1]
    trace_kernel = qp_kernel(GF8, [1] * GF8.ell)
    assert qp_image(GF8, [1, 1]) == trace_kernel


def test_solver_no_constraints_gives_identity():
    assert solve_annihilator(GF8, []) == [1]


def test_solver_is_monic():
    rng = random.Random(16)
    for t in (1, 2):
        betas = _random_independent_betas(rng, GF8, t)
        thetas = solve_annihilator(GF8, betas)
        assert len(thetas) == t + 1
        assert thetas[-1] == 1


def test_solver_rejects_bad_input():
    with pytest.raises(ValueError, match="ell"):
        solve_annihilator(GF8, [1, 2, 4])  # as many constraints as ell
    with pytest.raises(ValueError, match="dependent"):
        solve_annihilator(GF8, [5, 5])
    with pytest.raises(ValueError, match="dependent"):
        solve_annihilator(GF27, [1, 2])  # 2 = 2 * 1 over GF(3)
    gf81 = FieldContext(3, 4)  # three constraints need ell >= 4
    with pytest.raises(ValueError, match="dependent"):  # beta_3 = beta_1 + 2 beta_2
        solve_annihilator(gf81, [5, 9, gf81.add(5, gf81.mul(2, 9))])
    rng = random.Random(19)
    for ctx in MORE:
        with pytest.raises(ValueError, match="ell"):
            solve_annihilator(ctx, _random_independent_betas(rng, ctx, ctx.ell))
        with pytest.raises(ValueError, match="dependent"):
            solve_annihilator(ctx, [0])
        if ctx.ell > 2:
            b = _random_independent_betas(rng, ctx, 1)[0]
            with pytest.raises(ValueError, match="dependent"):
                solve_annihilator(ctx, [b, ctx.mul(ctx.q - 1, b)])


def test_solver_values_are_trace_orthogonal():
    rng = random.Random(17)
    for ctx in (GF8, GF27, *MORE):
        # L is B-linear: past the tables, its values at the basis settle every value
        points = range(ctx.order) if ctx.order <= 1 << 16 else ctx.basis
        for t in range(1, ctx.ell):
            betas = _random_independent_betas(rng, ctx, t)
            thetas = solve_annihilator(ctx, betas)
            for a in points:
                v = qp_eval(ctx, thetas, a)
                for b in betas:
                    assert ctx.trace(ctx.mul(b, v)) == 0


@pytest.mark.parametrize("ell", [3, 4, 5])
def test_solver_image_is_the_kernel_intersection(ell):
    ctx = FieldContext(2, ell)
    rng = random.Random(18 + ell)
    for t in range(1, ell):
        for _ in range(10):
            betas = _random_independent_betas(rng, ctx, t)
            image = qp_image(ctx, solve_annihilator(ctx, betas))
            assert image == subspace_intersect_kernels(ctx, betas)
            assert len(image) == ell - t


# ---- intersection of trace hyperplanes -----------------------------------------


def test_intersect_single_hyperplane_is_trace_kernel():
    got = subspace_intersect_kernels(GF8, [1])
    assert got == qp_kernel(GF8, [1] * GF8.ell)
    assert len(got) == GF8.ell - 1


def test_intersect_two_hyperplanes_gf8():
    got = subspace_intersect_kernels(GF8, [GF8.basis[0], GF8.basis[1]])
    assert len(got) == 1
    for v in subspace_elements(GF8, got):
        assert GF8.trace(GF8.mul(GF8.basis[0], v)) == 0
        assert GF8.trace(GF8.mul(GF8.basis[1], v)) == 0


def test_intersect_membership_is_exact():
    # every field element is in the intersection iff it passes all trace tests
    rng = random.Random(19)
    for _ in range(10):
        t = rng.randrange(1, GF8.ell)
        betas = _random_independent_betas(rng, GF8, t)
        space = set(subspace_elements(GF8, subspace_intersect_kernels(GF8, betas)))
        for v in range(GF8.order):
            member = all(GF8.trace(GF8.mul(b, v)) == 0 for b in betas)
            assert (v in space) == member


def test_intersections_shrink_with_more_constraints():
    for t in range(1, GF8.ell):
        for betas in combinations([1, 2, 4], t):
            space = subspace_intersect_kernels(GF8, list(betas))
            assert len(space) == GF8.ell - t
