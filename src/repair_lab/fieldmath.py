"""Arithmetic for the extension field F = GF(q^ell) over its prime subfield B = GF(q).

Elements of F are residues of B[x] modulo a monic irreducible polynomial of degree
ell.  An element with polynomial coordinates (d_0, ..., d_{ell-1}) is encoded as the
plain integer sum(d_i * q**i), so 0 and 1 are the field's zero and one, the integers
0..q-1 are exactly the subfield B, and for q=2 the encoding is the usual bit packing.

A FieldContext fixes q, ell, the modulus (default: the monic irreducible of degree
ell with the smallest encoding, for fields up to 5^12), and a working basis of F
over B (default: the polynomial basis 1, x, ..., x^{ell-1}).  When the field is
small enough mul and power read discrete log/antilog tables, else they run direct
polynomial arithmetic.  add is XOR at q = 2; at odd q with tables it reads Zech's
logarithms Z[k] = log(1 + g^k) as a + b = g^(log a + Z[log b - log a]), and sums
digits without tables.  Every other operation is derived from these three.  The
trace, B-linear, is the dot product of a's digits with the monomials' traces,
which Newton's identities read off the modulus.  All arithmetic is exact.

Every table is filled by linearity over B.  Multiplication by the generator g and
both coordinate expansions are B-linear maps f, so f is fixed by its ell values at
the monomials q^j, and the rest follows in integer order, one addition of values
per element: f(d*q^h + a) = f(a) + d*f(q^h) for a < q^h.  At odd q the values of
g * . are linalg.Packing digit rows, read back through every element's row, so no
field addition is made.  The antilog table walks g^(i+1) = (g * .)(g^i), and Z
reads 1 + g^k off g^k by raising its lowest digit.

Coordinate expansions come in two flavours that are easy to mix up:

- basis_coords(a): coefficients of a in the working basis, computed as traces of a
  against the *dual* basis.  These are the subsymbols a storage node holds.
- dual_coords(a): traces of a against the working basis itself, i.e. the
  coefficients of a in the dual basis.

coord_rows(values, dual) packs either flavour as one linalg.Packing(q, ell) row and
its binary text, the one row format of the scheme's I/O table, its repair and the
search; tabulated fields build it for every element on first use, one table per
flavour.  basis_coords and dual_coords are views of it: a's row, unpacked, and
pack_values(values, dual) joins the texts of a sequence of values into one wide row.

Contexts are immutable after construction and safe to share across threads;
field_context() hands equal arguments one shared context.

poly_evaluator(ctx, points) evaluates polynomials at fixed points, all at once
when q = 2.  The values at the n points are one int of ell planes: bit b*w + j,
w = 8*ceil(n/8), is digit b of the value at point j.  For d < m (32, fewer past a
4 MiB budget) it tabulates the planes of x^t * a^d, t < ell; c * a^d is their sum
over c's set bits t, so a block of m coefficients costs one XOR per set bit.
Between blocks Horner multiplies by a^m digit by digit from the top,
R <- x * R + acc * (digit u of a^m), where x * R moves every plane up one and XORs
the old top plane into each plane b with modulus[b] = 1.  Only the modulus is
read, so it serves every GF(2^ell), with or without tables, and any points.
"""
from __future__ import annotations

from functools import reduce
from itertools import accumulate
from operator import add, mul, xor

from . import linalg

# Largest field for which log/exp tables are precomputed.
_TABLE_LIMIT = 1 << 16

# Largest field whose default modulus is derived: the first monic irreducible
# of degree ell in encoding order (Lidl-Niederreiter, Finite Fields, ch. 3).
_DERIVE_LIMIT = 5**12

_BLOCK, _PLANE_BUDGET = 32, 1 << 25  # poly_evaluator's rows, fewer past 4 MiB of tables


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n: int) -> bool:
    """Miller-Rabin on the prime bases up to 41, which is exact below 3.3 * 10^24
    (Sorenson-Webster, Math. Comp. 2017); larger n raise ValueError."""
    if n >= 3_317_044_064_679_887_385_961_981:
        raise ValueError(f"q={n} is too large: primality is decided only below 3.3e24")
    if n < 2 or any(n % p == 0 for p in _PRIME_BASES):
        return n in _PRIME_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    d = (n - 1) >> s
    return all(
        pow(a, d, n) == 1 or n - 1 in (pow(a, d << j, n) for j in range(s))
        for a in _PRIME_BASES
    )


def _poly_rem(a: list[int], b: tuple[int, ...], q: int) -> list[int]:
    """Remainder of a modulo the monic polynomial b, coefficients ascending."""
    a, db = list(a), len(b) - 1
    terms = [(i - db, m) for i, m in enumerate(b[:db]) if m]  # b's nonzero lower terms
    for da in range(len(a) - 1, db - 1, -1):
        if c := a[da]:
            for i, m in terms:
                a[da + i] = (a[da + i] - c * m) % q
    return a[:db]


def _divisor(modulus: tuple[int, ...], q: int) -> list[int] | None:
    """A monic divisor of degree 1..deg(modulus)/2 found by trial division, or
    None when the modulus is irreducible."""
    deg = len(modulus) - 1
    for d in range(1, deg // 2 + 1):
        for enc in range(q**d):
            g = [enc // q**i % q for i in range(d)] + [1]
            if not any(_poly_rem(modulus, tuple(g), q)):
                return g
    return None


def _default_modulus(q: int, ell: int) -> tuple[int, ...]:
    """The monic irreducible of degree ell with the smallest encoding, for
    fields up to _DERIVE_LIMIT; ell is bounded before q**ell is formed."""
    if ell >= _DERIVE_LIMIT.bit_length() or q**ell > _DERIVE_LIMIT:
        raise ValueError(f"no built-in modulus for q={q}, ell={ell}; supply one explicitly")
    for enc in range(q**ell):
        modulus = tuple(enc // q**i % q for i in range(ell)) + (1,)
        if _divisor(modulus, q) is None:
            return modulus
    raise AssertionError(f"no irreducible of degree {ell} over GF({q})")


class FieldContext:
    """GF(q^ell) with a fixed modulus and working basis.

    Raises ValueError for a non-prime q, a missing default modulus, a reducible or
    non-monic modulus, or a dependent basis.
    """

    def __init__(
        self,
        q: int,
        ell: int,
        modulus: list[int] | tuple[int, ...] | None = None,
        basis: list[int] | tuple[int, ...] | None = None,
    ):
        if not _is_int(q) or not _is_prime(q):
            raise ValueError(f"q must be prime, got {q!r}")
        if not _is_int(ell) or ell < 1:
            raise ValueError(f"ell must be an integer >= 1, got {ell!r}")
        # the modulus is resolved and length-checked before q**ell is formed, so
        # a huge ell fails fast instead of exhausting memory
        if modulus is None:
            modulus = _default_modulus(q, ell)  # irreducible by construction
        else:
            if not all(_is_int(c) for c in modulus):
                raise ValueError(f"modulus coefficients must be integers, got {list(modulus)!r}")
            modulus = tuple(c % q for c in modulus)
            if len(modulus) != ell + 1:
                raise ValueError(f"modulus must have degree {ell}")
            if modulus[-1] != 1:
                raise ValueError("modulus must be monic")
            g = _divisor(modulus, q)
            if g is not None:
                raise ValueError(f"modulus {list(modulus)} is divisible by {g}, not irreducible")
        self.q = q
        self.ell = ell
        self.order = q**ell
        self.modulus = modulus

        self._exp = self._log = self._zech = None  # tables: log/antilog; at odd q, Zech's
        self._pk = linalg.Packing(q, ell)  # coord_rows' row format
        self._rows: dict[bool, tuple[list[int], list[str]]] = {}  # coord_rows', by flavour
        if self.order <= _TABLE_LIMIT:
            self._build_tables()
        self._digit_traces = self._monomial_traces()

        if basis is None:
            basis = tuple(q**i for i in range(ell))
        else:
            basis = tuple(basis)
            if len(basis) != ell:
                raise ValueError(f"basis must have {ell} elements")
            for b in basis:
                self._check_element(b)
            coords = [list(self.digits(b)) for b in basis]
            if linalg.rank(coords, q) != ell:
                raise ValueError("basis elements are linearly dependent over the subfield")
        self.basis = basis
        self.dual_basis = self._compute_dual_basis()

    # ---- element encoding -------------------------------------------------

    def _check_element(self, a: int) -> None:
        if not _is_int(a) or not 0 <= a < self.order:
            raise ValueError(f"not a field element: {a!r}")

    def _check_elements(self, values) -> None:
        """_check_element on every one of a sequence of values, in one pass while all are
        exact ints in range; otherwise element by element, to name the first bad one."""
        if {*map(type, values)} != {int} or min(values) < 0 or max(values) >= self.order:
            for a in values:
                self._check_element(a)

    def digits(self, a: int) -> tuple[int, ...]:
        """Polynomial coordinates of a, little-endian base-q digits."""
        out = []
        for _ in range(self.ell):
            out.append(a % self.q)
            a //= self.q
        return tuple(out)

    def from_digits(self, digits) -> int:
        a = 0
        for d in reversed(list(digits)):
            a = a * self.q + d % self.q
        return a

    # ---- raw polynomial arithmetic (table-free path) ----------------------

    def _add_raw(self, a: int, b: int) -> int:
        da, db = self.digits(a), self.digits(b)
        return self.from_digits((x + y) % self.q for x, y in zip(da, db))

    def _mul_raw(self, a: int, b: int) -> int:
        da, db = self.digits(a), self.digits(b)
        conv = [0] * (2 * self.ell - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    conv[i + j] += x * y
        rem = _poly_rem([c % self.q for c in conv], self.modulus, self.q)
        return self.from_digits(rem)

    def _pow_raw(self, a: int, e: int) -> int:
        r = 1
        while e:
            if e & 1:
                r = self._mul_raw(r, a)
            a = self._mul_raw(a, a)
            e >>= 1
        return r

    # ---- tables ------------------------------------------------------------

    def _linear_table(self, images, add, start=0) -> list[int]:
        """Values at every element of the B-linear map f with values `images` at the
        monomials q^0 .. q^(ell-1), given the addition of its values, each plus
        `start`: the block [d*q^h, (d+1)*q^h) is the block [0, q^h) plus d*f(q^h)."""
        table = [start]
        for image in images:
            multiples = accumulate([image] * (self.q - 2), add, initial=image)  # d*f(q^h), d > 0
            table += [add(v, m) for m in multiples for v in table]
        return table

    def _build_tables(self) -> None:
        q, n, pk = self.q, self.order - 1, self._pk
        factors = [p for p in range(2, n + 1) if n % p == 0 and _is_prime(p)]
        g = next(c for c in range(1, self.order)  # a generator: 1 when n = 1, else c > 1
                 if all(self._pow_raw(c, n // p) != 1 for p in factors))
        images = [self._mul_raw(g, q**j) for j in range(self.ell)]
        if q == 2:
            times_g = self._linear_table(images, xor)
        else:  # on packed digit rows, read back through every element's row; a monomial's
            # row has one nonzero digit, so int addition builds every element's
            rows = [self._linear_table([pk.pack(self.digits(v)) for v in vs], plus)
                    for vs, plus in (([q**j for j in range(self.ell)], add), (images, pk.add))]
            times_g = list(map(dict(zip(rows[0], range(self.order))).__getitem__, rows[1]))
        exp = list(accumulate(range(n - 1), lambda v, _: times_g[v], initial=1))  # g^0..g^(n-1)
        if times_g[exp[-1]] != 1:
            raise AssertionError("generator search failed")
        log = [0] * self.order
        for i, v in enumerate(exp):
            log[v] = i
        self._exp, self._log = exp * 2, log
        if q != 2:  # Z[k] = log(1 + g^k), None where 1 + g^k = 0; 1 + v raises v's lowest digit
            self._zech = [log[w] if (w := v - v % q + (v + 1) % q) else None for v in exp]

    def _monomial_traces(self) -> list[int]:
        """Tr(x^j) for j < ell, the power sums p_j of the modulus's roots (x and its
        conjugates) by Newton's identities, with no field operation: a the modulus,
        ascending, p_0 = ell and p_k = -(sum_{0<i<k} a[ell-i] p_{k-i} + k a[ell-k]) mod q.
        The trace is B-linear, so these fix it everywhere."""
        a, ell, q = self.modulus, self.ell, self.q
        p = [ell % q]
        for k in range(1, ell):
            p.append(-(sum(a[ell - i] * p[k - i] for i in range(1, k)) + k * a[ell - k]) % q)
        return p

    # ---- field operations ---------------------------------------------------

    def add(self, a: int, b: int) -> int:
        """XOR at q = 2; with tables a + b = g^(log a + Z[log b - log a]); else digit-wise."""
        if self.q == 2:
            return a ^ b
        if not a or not b:
            return a or b
        if self._zech is None:
            return self._add_raw(a, b)
        la = self._log[a]
        z = self._zech[self._log[b] - la]  # a negative index wraps mod q^ell - 1
        return 0 if z is None else self._exp[la + z]

    def neg(self, a: int) -> int:
        return self.mul(self.q - 1, a)  # -1 = q - 1 lies in B

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        if self._exp is not None:
            return self._exp[self._log[a] + self._log[b]]
        return self._mul_raw(a, b)

    def inv(self, a: int) -> int:
        return self.power(a, -1)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def power(self, a: int, e: int) -> int:
        """a^e for any integer e, read mod order - 1; 0 has no negative powers."""
        if a == 0:
            if e < 0:
                raise ZeroDivisionError("0 has no multiplicative inverse")
            return 0 if e else 1
        n = self.order - 1
        if self._exp is not None:
            return self._exp[self._log[a] * e % n]
        return self._pow_raw(a, e % n)

    def frobenius(self, a: int, i: int = 1) -> int:
        """a raised to the q^i power (the i-fold Frobenius automorphism)."""
        return self.power(a, self.q ** (i % self.ell))

    def trace(self, a: int) -> int:
        """Field trace of F down to B, returned as an integer in [0, q)."""
        return sum(map(mul, self.digits(a), self._digit_traces)) % self.q

    # ---- basis expansions ----------------------------------------------------

    def _compute_dual_basis(self) -> tuple[int, ...]:
        # Tr(basis[i] * x^t) over all i, t; the inverse matrix columns give the
        # dual elements' polynomial coordinates.
        m = [
            [self.trace(self.mul(b, self.q**t)) for t in range(self.ell)]
            for b in self.basis
        ]
        c = linalg.inverse(m, self.q)
        dual = tuple(
            self.from_digits(c[t][j] for t in range(self.ell)) for j in range(self.ell)
        )
        for i, b in enumerate(self.basis):
            for j, g in enumerate(dual):
                if self.trace(self.mul(b, g)) != (1 if i == j else 0):
                    raise AssertionError("dual basis construction failed")
        return dual

    def basis_coords(self, a: int) -> tuple[int, ...]:
        """Coefficients of a in the working basis (a node's stored subsymbols)."""
        return tuple(self._pk.unpack(self.coord_rows((a,))[0][a]))

    def dual_coords(self, a: int) -> tuple[int, ...]:
        """Traces of a against the working basis = coefficients in the dual basis."""
        return tuple(self._pk.unpack(self.coord_rows((a,), dual=True)[0][a]))

    def coord_rows(self, values, dual: bool = False) -> tuple:
        """(rows, texts) by element: a's traces against the dual basis (its working-basis
        coordinates), or against the working basis if `dual`, as one linalg.Packing(q, ell)
        row and as fixed-width binary text; tabulated fields build both for every element
        on first use, one B-linear table per flavour."""
        if dual not in self._rows:
            pk, against = self._pk, self.basis if dual else self.dual_basis
            spec = f"0{self.ell * pk.b}b"

            def row(a):  # (Tr(a * e) for e in against), packed
                return pk.pack([self.trace(self.mul(a, e)) for e in against])

            if self._exp is None:  # a row per distinct value
                rows = {a: row(a) for a in set(values)}
                return rows, {a: format(v, spec) for a, v in rows.items()}
            rows = self._linear_table([row(self.q**j) for j in range(self.ell)], pk.add)
            self._rows[dual] = rows, [format(v, spec) for v in rows]
        return self._rows[dual]

    def pack_values(self, values, dual: bool = False) -> int:
        """The coord_rows rows of a sequence of values side by side, the first most
        significant, as one linalg.Packing(q, len(values) * ell) row."""
        texts = self.coord_rows(values, dual)[1]
        return int("".join(map(texts.__getitem__, values)) or "0", 2)

    def from_basis_coords(self, coords) -> int:
        a = 0
        for c, b in zip(coords, self.basis):
            a = self.add(a, self.mul(c % self.q, b))
        return a

    def describe(self) -> str:
        """One-line description of the field, e.g. ``q=2 ell=3 modulus=[1,1,0,1]``."""
        coeffs = ",".join(str(c) for c in self.modulus)
        return f"q={self.q} ell={self.ell} modulus=[{coeffs}]"

    def __repr__(self) -> str:
        return f"FieldContext(q={self.q}, ell={self.ell})"


_SHARED: dict[tuple, FieldContext] = {}  # field_context's, by arguments and by field


def field_context(q, ell, modulus=None, basis=None) -> FieldContext:
    """FieldContext(q, ell, modulus, basis), shared by equal arguments and by the same
    field however spelled, so equal fields build their tables once; the store is
    bounded.  Arguments not all plain ints go to FieldContext alone: it rejects them."""
    if any(type(x) is not int for x in (q, ell, *(modulus or ()), *(basis or ()))):
        return FieldContext(q, ell, modulus, basis)
    key = (q, ell, *(None if v is None else tuple(v) for v in (modulus, basis)))
    if key not in _SHARED:
        ctx = FieldContext(*key)
        _SHARED[key] = _SHARED.setdefault((q, ell, ctx.modulus, ctx.basis), ctx)
        while len(_SHARED) > 16:  # at most two keys per field; the oldest go first
            del _SHARED[next(iter(_SHARED))]
    return _SHARED[key]


# ---- polynomials over F (coefficient lists, ascending) -------------------------


def poly_trim(coeffs) -> list[int]:
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return c


def poly_deg(coeffs) -> int:
    """Degree, with the zero polynomial at -1."""
    return len(poly_trim(coeffs)) - 1


def poly_eval(ctx: FieldContext, coeffs, x: int) -> int:
    acc = 0
    for c in reversed(list(coeffs)):
        acc = ctx.add(ctx.mul(acc, x), c)
    return acc


def poly_eval_lanes(ctx: FieldContext, coeffs, points) -> list[int]:
    """[poly_eval(ctx, coeffs, a) for a in points], one Horner step on every
    point at a time from the top coefficient, so a constant multiplies nothing."""
    coeffs, add, mul = poly_trim(coeffs) or [0], ctx.add, ctx.mul
    acc = [coeffs[-1]] * len(points)
    for c in reversed(coeffs[:-1]):
        acc = [add(mul(a, x), c) for a, x in zip(acc, points)]
    return acc


def poly_evaluator(ctx: FieldContext, points):
    """coeffs -> [poly_eval(ctx, coeffs, a) for a in points]: when q = 2, XORs of power
    planes built here once (see the module docstring), and poly_eval_lanes otherwise."""
    points = list(points)
    if ctx.q != 2:
        return lambda coeffs: poly_eval_lanes(ctx, coeffs, points)
    n, ell = len(points), ctx.ell
    w = -(-n // 8) * 8 or 8  # plane stride; one byte when there are no points
    m = max(1, min(_BLOCK, _PLANE_BUDGET // (ell * ell * w)))
    ones, keep, every_plane = (1 << n) - 1, (1 << ell * w) - 1, int(f"{1:0{w}b}" * ell, 2)
    folds = [b * w for b in range(ell) if ctx.modulus[b]]

    def xtimes(v):  # x * v: each plane up one, the top one folded back by the modulus
        top = v >> (ell - 1) * w
        return reduce(xor, [top << shift for shift in folds], v << w & keep)

    def times(v, digits):  # v * a at every point; digits[u]: digit u of the a's, in every plane
        return reduce(lambda r, d: xtimes(r) ^ (v & d), reversed(digits), 0)

    rows = [format(a, f"0{ell}b") for a in reversed(points)]  # column i: digit ell-1-i
    digits = [int("".join(col), 2) * every_plane for col in zip(*rows)][::-1]
    powers = list(accumulate(range(m), lambda v, _: times(v, digits), initial=ones))  # a^0..a^m
    table = [list(accumulate(range(1, ell), lambda v, _: xtimes(v), initial=p)) for p in powers[:m]]
    giant = [(powers[m] >> u * w & ones) * every_plane for u in range(ell)]

    def evaluate(coeffs) -> list[int]:
        coeffs, acc = list(coeffs), 0
        for start in range((len(coeffs) - 1) // m * m, -1, -m):
            acc = times(acc, giant)
            for row, c in zip(table, coeffs[start : start + m]):
                while c:
                    acc ^= row[(c & -c).bit_length() - 1]
                    c &= c - 1
        bits = format(acc, f"0{ell * w}b")  # plane ell-1-i at [i*w, i*w + w), point n-1 first
        planes = [bits[(i + 1) * w - n : (i + 1) * w] for i in range(ell)]
        return [int("".join(col), 2) for col in zip(*planes)][::-1]

    return evaluate


def poly_shift(ctx: FieldContext, coeffs, c: int) -> list[int]:
    """Coefficients of p(x + c); degree is preserved."""
    out: list[int] = []
    for co in reversed(poly_trim(coeffs)):
        # out <- out * (x + c) + co
        shifted = [0] + out
        for i in range(len(out)):
            shifted[i] = ctx.add(shifted[i], ctx.mul(c, out[i]))
        out = shifted
        out[0] = ctx.add(out[0], co)
    return out
