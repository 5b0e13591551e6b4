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


def solve_annihilator(ctx: FieldContext, betas) -> list[int]:
    """Monic linearized polynomial L of q-degree t = len(betas) whose values are
    trace-orthogonal to every beta: Tr(beta_i * L(x)) = 0 for all x, so that the
    image of L is the intersection of the hyperplanes beta_i^{-1} ker(Tr).

    In the substituted coefficients z_j = theta_{t-j}^(q^j) the condition reads
    Z(beta_i) = 0 for Z(y) = sum_j z_j y^(q^j): Z, scaled to z_0 = theta_t = 1, is
    the subspace polynomial of span(beta) (Lidl-Niederreiter, Finite Fields, ch. 3),
    built by P <- P^q - P(beta)^(q-1) * P from P = y, one beta at a time (P(beta) = 0
    means beta is in the span of the earlier ones).  Inverse Frobenius powers undo
    the substitution.  With no betas the identity map x is returned.
    """
    betas = list(betas)
    if len(betas) >= ctx.ell:
        raise ValueError(f"at most ell-1={ctx.ell - 1} constraints are solvable")
    p = [1]  # q-power coefficients of P, ascending
    for b in betas:
        v = qp_eval(ctx, p, b)
        if v == 0:
            raise ValueError("betas are linearly dependent over the subfield")
        c = ctx.power(v, ctx.q - 1)
        p = [ctx.sub(ctx.frobenius(hi), ctx.mul(c, lo)) for hi, lo in zip([0] + p, p + [0])]
    thetas = [ctx.frobenius(ctx.div(z, p[0]), ctx.ell - j) for j, z in enumerate(p)][::-1]
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
