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
    # GF(2): one byte per entry packed into an int, keeping each byte's low
    # bit, then elimination by XOR on the lowest set bit of each pivot row
    if not rows:
        return 0
    ones = int.from_bytes(b"\x01" * len(rows[0]), "little")
    try:
        packed = [int.from_bytes(bytes(row), "little") & ones for row in rows]
    except ValueError:  # an entry outside 0..255
        packed = [int.from_bytes(bytes(x & 1 for x in row), "little") for row in rows]
    r = 0
    while packed:
        v = packed.pop()
        if v:
            low = v & -v
            packed = [w ^ v if w & low else w for w in packed]
            r += 1
    return r


def solve(a: list[list[int]], b: list[int], p: int) -> list[int] | None:
    """One solution x of a·x = b over Z_p, or None if the system is inconsistent."""
    aug = [row + [bv] for row, bv in zip(a, b)]
    red, pivots = rref(aug, p)
    ncols = len(a[0]) if a else 0
    if ncols in pivots:  # pivot in the constant column
        return None
    x = [0] * ncols
    for row, c in zip(red, pivots):
        x[c] = row[-1]
    return x


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
    return [c for c, column in enumerate(zip(*rows)) if any(column)]
