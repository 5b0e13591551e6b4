"""Low-I/O repair schemes built from trace-orthogonal linearized polynomials.

For a shape parameter s (0 <= s < ell, feasible when n - k > q^s), the first
s+1 dual codewords are g_j = L_j + gamma_j where gamma_j is the j-th dual basis
element and L_j is the monic linearized polynomial of q-degree s whose image is
trace-orthogonal to every working-basis element beta_i with i in 1..s+1 except
beta_j; the remaining ell - s - 1 dual codewords are the constants gamma_j.  The
scheme repairs node 1 (evaluation point zero) and reads

    (n - 1) * ell - (s + 1) * q^(ell - 1)

subsymbols, which also equals its bandwidth: each helper's I/O matrix has a
diagonal-plus-identity block shape that makes rank and nonzero-column count agree.
s = 0 degenerates to the known bandwidth-optimal scheme; larger s trades
bandwidth for strictly less I/O.
"""
from __future__ import annotations

from .fieldmath import FieldContext, _is_prime
from .qpoly import qp_image, qp_to_poly, solve_annihilator
from .rs import RSCode
from .scheme import RepairScheme


def predicted_cost(q: int, ell: int, s: int) -> int:
    """Closed-form I/O cost (= bandwidth) of the construction."""
    return (q**ell - 1) * ell - (s + 1) * q ** (ell - 1)


def largest_valid_s(q: int, ell: int, n_minus_k: int) -> int:
    """The deepest feasible shape parameter: max s < ell with q^s < n - k."""
    s = 0
    while s + 1 < ell and q ** (s + 1) < n_minus_k:
        s += 1
    if q**s >= n_minus_k:
        raise ValueError(f"no feasible s: need n - k > q^0 = 1, got n - k = {n_minus_k}")
    return s


def check_feasible(q: int, ell: int, s: int, k: int) -> None:
    """Raise ValueError unless the construction exists for the full-length code
    of dimension k over GF(q^ell): q prime, 0 <= s < ell, k >= 1 and
    n - k >= q^s + 1 (the dual codewords have degree q^s, which must stay
    below n - k)."""
    if not _is_prime(q):
        raise ValueError(f"q must be prime, got {q}")
    if not 0 <= s < ell:
        raise ValueError(f"need 0 <= s < ell={ell}, got s={s}")
    if k < 1:
        raise ValueError(f"need k >= 1, got k={k}")
    if q**ell - k < q**s + 1:
        raise ValueError(
            f"need n - k >= q^s + 1 = {q ** s + 1}, got n - k = {q ** ell - k}"
        )


def build_low_io_scheme(ctx: FieldContext, k: int, s: int) -> RepairScheme:
    """Construct the scheme for the full-length code of dimension k at node 1;
    see check_feasible for the parameters it accepts."""
    check_feasible(ctx.q, ctx.ell, s, k)
    code = RSCode.full_length(ctx, k)
    duals = []
    for j in range(1, s + 2):
        betas = [ctx.basis[i - 1] for i in range(1, s + 2) if i != j]
        thetas = solve_annihilator(ctx, betas)
        # the value map must actually touch subsymbol j, otherwise the per-node
        # diagonal entry would be constant and the cost claim collapses
        image = qp_image(ctx, thetas)
        if not any(ctx.dual_coords(v)[j - 1] for v in image):
            raise AssertionError(
                f"image of dual codeword {j}'s linear part misses subsymbol {j}"
            )
        g = qp_to_poly(ctx, thetas)
        g[0] = ctx.add(g[0], ctx.dual_basis[j - 1])
        duals.append(g)
    for j in range(s + 2, ctx.ell + 1):
        duals.append([ctx.dual_basis[j - 1]])
    scheme = RepairScheme(code, 1, duals)
    violation = scheme.validate()
    if violation is not None:
        raise AssertionError(f"construction produced an invalid scheme: {violation}")
    return scheme


def has_block_shape(scheme: RepairScheme, s: int, i: int) -> bool:
    """Whether helper i's I/O matrix has the construction's block shape:
    diagonal (s+1) x (s+1) top-left, zero bottom-left, identity bottom-right."""
    w, top = scheme.io_matrix(i), s + 1
    eye = [[int(j == t) for t in range(len(w))] for j in range(len(w))]
    off_diagonal = (w[j][t] for j in range(top) for t in range(top) if j != t)
    return w[top:] == eye[top:] and not any(off_diagonal)


def compare_baselines(q: int, ell: int, s: int, k: int) -> dict:
    """Closed-form comparison table for the full-length code of dimension k.

    `bound_condition` is the headline test n - k <= (s+1) * q^(ell-1) / ell,
    evaluated exactly over the integers; whenever it holds, the construction
    reads fewer subsymbols than trivially decoding k symbols (`below_trivial`
    reports that raw comparison directly).
    """
    check_feasible(q, ell, s, k)
    n = q**ell
    ours = predicted_cost(q, ell, s)
    return {
        "q": q,
        "ell": ell,
        "s": s,
        "k": k,
        "n": n,
        "prior_bandwidth": (n - 1) * (ell - s),
        "prior_io": (n - q**s) * ell,
        "trivial_io": k * ell,
        "ours": ours,
        "below_trivial": ours < k * ell,
        "bound_condition": ell * (n - k) <= (s + 1) * q ** (ell - 1),
    }
