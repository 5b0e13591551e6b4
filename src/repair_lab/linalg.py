"""Exact Gaussian elimination over the prime field Z_p, on packed rows.

A row of digits mod p is one int (Packing): b-bit fields, column 0 most
significant, so integer order is tuple order and the leading column is read off
the bit length.  The one elimination is `echelon`, a forward pass keeping a pivot
per leading field, and `back_substitute`, its reduced form; rank, rref, inverse
and nullspace pack their list rows and run it, and the search and the scheme
costing hand it rows they packed; `coset_weight` weighs a coset of their row space
in closed form.  No floating point anywhere in this package.
"""
from __future__ import annotations

from functools import reduce
from operator import or_, xor


class Packing:
    """Rows of `width` digits mod q in b-bit fields.  A field sum >= q shows in
    its high bit once 2^(b-1) - q is added (`over`); for q = 2 fields are bits
    and addition is XOR.  No table of size q is built, so any prime q serves."""

    def __init__(self, q: int, width: int):
        self.q, self.width = q, width
        self.b = b = 1 if q == 2 else (2 * q - 1).bit_length() + 1
        self.mask = (1 << b) - 1
        self.ones = ((1 << b * width) - 1) // self.mask
        self.high = self.ones << (b - 1)
        self.over = ((1 << (b - 1)) - q) * self.ones
        if q == 2:
            self.add = xor  # shadows the method below; reduce() runs it in C

    def pack(self, digits) -> int:
        """The packed row of a sequence of integers, read mod q, one field at a time."""
        q, b = self.q, self.b
        return reduce(lambda v, d: v << b | d % q, digits, 0)

    def unpack(self, v: int) -> list[int]:
        b, size = self.b, self.width * self.b
        bits = format(v, f"0{size}b")
        return [int(bits[i : i + b], 2) for i in range(0, size, b)]

    def add(self, x: int, y: int) -> int:
        s = x + y
        return s - (((s + self.over) & self.high) >> (self.b - 1)) * self.q

    def nonzero(self, v: int) -> int:
        """The high bit of every nonzero field of v: v itself when q = 2."""
        return (v + self.high - self.ones) & self.high

    def scale(self, v: int, g: int) -> int:
        """g * v for 0 <= g < q, by doubling."""
        out = v if g & 1 else 0
        while g := g >> 1:
            v = self.add(v, v)
            if g & 1:
                out = self.add(out, v)
        return out


def echelon(pk: Packing, rows) -> dict[int, int]:
    """Forward pass: {field f: pivot row}, one pivot per leading field (column
    width-1-f), leading digit 1.  A row is cleared by the pivot owning its leading
    field until it owns a new one or vanishes; the pivot count is the rank.  Each
    clearing must lower the leading field, or ArithmeticError is raised."""
    q, b, add, scale = pk.q, pk.b, pk.add, pk.scale
    pivots: dict[int, int] = {}
    for v in rows:
        if q == 2:  # fields are bits and clearing is one XOR: the hot case, inlined
            while v and (f := v.bit_length() - 1) in pivots:
                v ^= pivots[f]
            if v:
                pivots[f] = v
            continue
        while v and (f := (v.bit_length() - 1) // b) in pivots:
            v = add(v, scale(pivots[f], q - (v >> f * b)))
            if v >> f * b:  # a broken add would loop here for ever
                raise ArithmeticError(f"clearing field {f} did not lower the row's leading field")
        if v:
            pivots[f] = scale(v, pow(v >> f * b, -1, q))
    return pivots


def back_substitute(pk: Packing, pivots: dict[int, int]) -> list[int]:
    """Reduced echelon form of echelon()'s pivots, pivot columns ascending: each
    pivot, lowest field first, is cleared at every lower pivot's field."""
    q, b, mask, add, scale = pk.q, pk.b, pk.mask, pk.add, pk.scale
    done: dict[int, int] = {}
    for f in sorted(pivots):
        v = pivots[f]
        for g, w in done.items():
            if d := v >> g * b & mask:
                v = add(v, scale(w, q - d))
        done[f] = v
    return sorted(done.values(), reverse=True)


def coset_weight(pk: Packing, rows: list[int], y: int | None = None) -> tuple[int, int]:
    """Support size and total Hamming weight of the coset y + rowspace(rows), rows
    and y packed by pk.  k rows independent over Z_q (ValueError otherwise) with s
    nonzero columns weigh s * q^(k-1) * (q-1) in all, and each further column
    where y is nonzero adds q^k: a closed form, no vector is enumerated."""
    k, q = len(rows), pk.q
    if len(echelon(pk, rows)) != k:
        raise ValueError("rows are not linearly independent")
    supp = pk.nonzero(reduce(or_, rows, 0))
    extra = 0 if y is None else (pk.nonzero(y) & ~supp).bit_count()
    s = supp.bit_count()
    return s, s * q**k // q * (q - 1) + extra * q**k


def _pivots(rows: list[list[int]], p: int) -> tuple[Packing, dict[int, int]]:
    pk = Packing(p, len(rows[0]) if rows else 0)
    return pk, echelon(pk, [pk.pack(row) for row in rows])


def rref(rows: list[list[int]], p: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form.  Returns (nonzero rows, pivot column indices)."""
    pk, pivots = _pivots(rows, p)
    red = back_substitute(pk, pivots)
    columns = [pk.width - 1 - (v.bit_length() - 1) // pk.b for v in red]
    return [pk.unpack(v) for v in red], columns


def rank(rows: list[list[int]], p: int) -> int:
    return len(_pivots(rows, p)[1])


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
