"""Exact Gaussian elimination over the prime field Z_p.

Matrices are lists of row lists with integer entries in [0, p).  Everything here
is exact integer arithmetic; there is no floating point anywhere in this package.
"""
from __future__ import annotations


def rref(rows: list[list[int]], p: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form.  Returns (nonzero rows, pivot column indices)."""
    a = [[x % p for x in row] for row in rows]
    if not a:
        return [], []
    ncols = len(a[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = pow(a[r][c], p - 2, p)
        a[r] = [(x * inv) % p for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == len(a):
            break
    return a[:r], pivots


def rank(rows: list[list[int]], p: int) -> int:
    if p != 2:
        return len(rref(rows, p)[0])
    # GF(2): one byte per entry packed into an int, keeping each byte's low bit
    if not rows:
        return 0
    ones = int.from_bytes(b"\x01" * len(rows[0]), "little")
    try:
        packed = [int.from_bytes(bytes(row), "little") & ones for row in rows]
    except ValueError:  # an entry outside 0..255
        packed = [int.from_bytes(bytes(x & 1 for x in row), "little") for row in rows]
    return gf2_rank(packed)


def gf2_rank(packed) -> int:
    """Rank over GF(2) of vectors packed into ints, one bit per coordinate: each
    is reduced by the pivot owning its lowest set bit until it owns a new one."""
    pivots: dict[int, int] = {}
    for v in packed:
        while v and (low := v & -v) in pivots:
            v ^= pivots[low]
        if v:
            pivots[low] = v
    return len(pivots)


def inverse(a: list[list[int]], p: int) -> list[list[int]]:
    """Matrix inverse over Z_p; raises ValueError if singular."""
    n = len(a)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    red, pivots = rref(aug, p)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in red]


def nullspace(a: list[list[int]], p: int) -> list[list[int]]:
    """Basis of the right null space of a over Z_p (one vector per free column)."""
    red, pivots = rref(a, p)
    ncols = len(a[0]) if a else 0
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [0] * ncols
        v[f] = 1
        for row, c in zip(red, pivots):
            v[c] = (-row[f]) % p
        basis.append(v)
    return basis


def nonzero_columns(rows: list[list[int]]) -> list[int]:
    """Indices of columns holding at least one nonzero entry."""
    return [c for c, nz in enumerate(map(any, zip(*rows))) if nz]
