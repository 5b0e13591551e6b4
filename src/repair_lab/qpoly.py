"""Linearized polynomials: B-linear maps on F of the form sum theta_d x^(q^d).

A linearized polynomial is stored as its list of q-power coefficients
[theta_0, theta_1, ..., theta_t] (field elements, ascending power).  The central
construction: given t independent field elements beta_1..beta_t, produce a monic
linearized polynomial whose image is exactly the intersection of the trace-kernel
hyperplanes beta_i^{-1} * ker(Tr), i.e. Tr(beta_i * L(x)) vanishes identically.

Subspaces of F over B are represented by canonical bases: the reduced-echelon
rows of the elements' digit vectors, mapped back to elements.  Two subspaces are
equal iff their canonical bases are equal tuples.
"""
from __future__ import annotations

from . import linalg
from .fieldmath import FieldContext


def qp_eval(ctx: FieldContext, thetas, x: int) -> int:
    acc, p = 0, x
    for theta in thetas:
        acc = ctx.add(acc, ctx.mul(theta, p))
        p = ctx.frobenius(p)
    return acc


def qp_to_poly(ctx: FieldContext, thetas) -> list[int]:
    """Ordinary coefficient list of the linearized polynomial (degree q^t)."""
    thetas = list(thetas)
    out = [0] * (ctx.q ** (len(thetas) - 1) + 1)
    for d, theta in enumerate(thetas):
        out[ctx.q**d] = ctx.add(out[ctx.q**d], theta)
    return out


def canonical_subspace_basis(ctx: FieldContext, elements) -> tuple[int, ...]:
    """Reduced-echelon basis (as field elements) of the B-span of the inputs."""
    rows = [list(ctx.digits(a)) for a in elements]
    red, _ = linalg.rref(rows, ctx.q)
    return tuple(ctx.from_digits(row) for row in red)


def qp_image(ctx: FieldContext, thetas) -> tuple[int, ...]:
    """Canonical basis of the image subspace L(F)."""
    return canonical_subspace_basis(ctx, (qp_eval(ctx, thetas, b) for b in ctx.basis))


def _solve_square_field(ctx: FieldContext, m: list[list[int]], rhs: list[int]) -> list[int]:
    """z with m z = rhs over F, m square and invertible, solved over B: unknown
    (j, u) is coordinate u of z_j, and equation (i, d) is digit d of row i."""
    t, ell = len(m), ctx.ell
    rows = []
    for row, r in zip(m, rhs):
        columns = [ctx.digits(ctx.mul(a, b)) for a in row for b in ctx.basis]
        rows += map(list, zip(*columns, ctx.digits(r)))
    red, pivots = linalg.rref(rows, ctx.q)
    if pivots != list(range(t * ell)):
        raise ValueError("singular system")
    z = [row[-1] for row in red]
    return [ctx.from_basis_coords(z[j * ell : (j + 1) * ell]) for j in range(t)]


def solve_annihilator(ctx: FieldContext, betas) -> list[int]:
    """Monic linearized polynomial L of q-degree t = len(betas) whose values are
    trace-orthogonal to every beta: Tr(beta_i * L(x)) = 0 for all x, so that the
    image of L is the intersection of the hyperplanes beta_i^{-1} ker(Tr).

    The condition is one q-power equation per beta.  It is solved in the
    substituted unknowns z_j = theta_{t-j}^(q^j) with z_0 = theta_t fixed to 1
    (the remaining square system is a Moore matrix of the beta^q, hence
    invertible for independent betas); the substitution is undone with inverse
    Frobenius powers.  With no betas the identity map x is returned.
    """
    betas = list(betas)
    t = len(betas)
    if t >= ctx.ell:
        raise ValueError(f"at most ell-1={ctx.ell - 1} constraints are solvable")
    if t == 0:
        return [1]
    coords = [list(ctx.digits(b)) for b in betas]
    if linalg.rank(coords, ctx.q) != t:
        raise ValueError("betas are linearly dependent over the subfield")
    # row i: [beta_i^(q^0), ..., beta_i^(q^t)] . (z_0, ..., z_t) = 0
    rows = [[ctx.frobenius(b, j) for j in range(t + 1)] for b in betas]
    rhs = [ctx.neg(row[0]) for row in rows]
    sub = [[row[j] for j in range(1, t + 1)] for row in rows]
    z = _solve_square_field(ctx, sub, rhs)  # z_1..z_t
    thetas = [0] * (t + 1)
    thetas[t] = 1
    for j in range(1, t + 1):
        thetas[t - j] = ctx.frobenius(z[j - 1], ctx.ell - j)
    for e in ctx.basis:
        val = qp_eval(ctx, thetas, e)
        for b in betas:
            if ctx.trace(ctx.mul(b, val)) != 0:
                raise AssertionError("solved polynomial violates a trace constraint")
    return thetas


def subspace_intersect_kernels(ctx: FieldContext, betas) -> tuple[int, ...]:
    """Canonical basis of {v in F : Tr(beta_i * v) = 0 for every beta_i}.

    Each constraint is one B-linear equation on the working-basis coordinates
    of v, so the intersection is the nullspace of a len(betas) x ell system.
    """
    a = [
        [ctx.trace(ctx.mul(beta, b)) for b in ctx.basis]
        for beta in betas
    ]
    null = linalg.nullspace(a, ctx.q)
    return canonical_subspace_basis(ctx, (ctx.from_basis_coords(v) for v in null))
