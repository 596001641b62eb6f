"""Truncated unramified local rings O/pi^N, the residue field among them.

For f = 1 this is Z/p^N; for f > 1 it is the Galois ring
Z/p^N [x]/(poly), where poly is the fixed integer lift of the canonical
defining polynomial of the residue field.  Since the extension is
unramified, pi = p, and dividing by pi^k is exact coefficient-wise
division by p^k.

Elements are encoded as integers: sum(c_i * (p^N)**i) with coefficients
c_i in [0, p^N).  For f = 1 the encoding is the representative itself.
For f > 1 addition, negation, pi-power shifts and precision moves are
coefficient-wise, so each reads the base-p^N digits off the encoding in
one divmod pass and builds the result integer as it goes; products and
powers multiply polynomials, and the inverse of a unit a solves
M_a x = e_0 over Z/p^N, for M_a the matrix of multiplication by a.
The residue field F_q = O/pi is the ring at N = 1: fields.FieldCtx is a
RingCtx that serves as its own field, inherits the encoding, addition
and valuation, and multiplies, powers and inverts through its tables.
ring_make(field, 1) returns the field context itself; LocalField.ring
caches the rings at other precisions, each of which memoizes its zeta_n.
"""

from __future__ import annotations

from operator import mul
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .fields import FieldCtx


def _check_n(field: FieldCtx, n: int):
    """mu_n lies in F_q^x exactly when n divides its order q - 1."""
    if n < 1 or (field.q - 1) % n != 0:
        raise ValueError(f"n = {n} does not divide q - 1 = {field.q - 1}")


def _vp(n: int, p: int) -> int:
    """The p-adic valuation of a nonzero integer."""
    if n == 0:
        raise ValueError("valuation of 0")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


# ---------------------------------------------------------------------------
# polynomials over Z/m; lists of coefficients, lowest degree first


def _poly_mulmod(a, b, mod, m):
    """a * b reduced by the monic polynomial mod, coefficients in [0, m).

    a and b have len(mod) - 1 coefficients each; the product is reduced
    in place, and only the remainder is taken mod m coefficient-wise.
    """
    d = len(mod) - 1
    res = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b, i):
                res[j] += ai * bj
    for k in range(len(res) - 1, d - 1, -1):
        c = res[k] % m
        if c:
            for i in range(d):
                res[k - d + i] -= c * mod[i]
    return [c % m for c in res[:d]]


def _poly_powmod(a, e, mod, m):
    """a^e for e >= 0 by square-and-multiply, reduced as in _poly_mulmod."""
    acc = [1] + [0] * (len(mod) - 2)
    while e:
        if e & 1:
            acc = _poly_mulmod(acc, a, mod, m)
        e >>= 1
        if e:
            a = _poly_mulmod(a, a, mod, m)
    return acc


class RingCtx:
    """The ring O/pi^N over a fixed residue field context."""

    __slots__ = ("field", "p", "f", "N", "pN", "poly", "_zeta")

    def __init__(self, field: FieldCtx, N: int):
        if N < 1:
            raise ValueError("precision must be >= 1")
        self.field = field
        self.p = field.p
        self.f = field.f
        self.N = N
        self.pN = field.p**N
        # integer lift of the defining polynomial, coefficients in [0, p)
        self.poly = tuple(field.poly) if field.f > 1 else None
        self._zeta: dict[int, int] = {}

    def __repr__(self):
        return f"{type(self).__name__}(p={self.p}, f={self.f}, N={self.N})"

    @property
    def size(self) -> int:
        return self.pN**self.f

    # encoding ------------------------------------------------------------

    def decode(self, a: int) -> list[int]:
        pN, coeffs = self.pN, []
        for _ in range(self.f):
            a, c = divmod(a, pN)
            coeffs.append(c)
        return coeffs

    def encode(self, coeffs) -> int:
        pN, a = self.pN, 0
        for c in reversed(coeffs):
            a = a * pN + c % pN
        return a

    # arithmetic ----------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.f == 1:
            return (a + b) % self.pN
        pN, out, scale = self.pN, 0, 1
        while a or b:
            a, x = divmod(a, pN)
            b, y = divmod(b, pN)
            out += (x + y) % pN * scale
            scale *= pN
        return out

    def neg(self, a: int) -> int:
        if self.f == 1:
            return (-a) % self.pN
        pN, out, scale = self.pN, 0, 1
        while a:
            a, x = divmod(a, pN)
            if x:
                out += (pN - x) * scale
            scale *= pN
        return out

    def sub(self, a: int, b: int) -> int:
        if self.f == 1:
            return self.add(a, self.neg(b))
        pN, out, scale = self.pN, 0, 1
        while a or b:
            a, x = divmod(a, pN)
            b, y = divmod(b, pN)
            out += (x - y) % pN * scale
            scale *= pN
        return out

    def mul(self, a: int, b: int) -> int:
        if self.f == 1:
            return (a * b) % self.pN
        return self.encode(_poly_mulmod(self.decode(a), self.decode(b), self.poly, self.pN))

    def mul_table(self, a: int) -> list[int]:
        """a * c for every encoding c, in encoding order."""
        if self.f == 1:
            pN = self.pN
            return [a * c % pN for c in range(pN)]
        return [self.mul(a, c) for c in range(self.size)]

    def matmul(self, a, ring_a: RingCtx, b, ring_b: RingCtx) -> list[list[int]]:
        """Rows of a @ b encoded here, for the rows a and b of encodings in
        ring_a and ring_b, both at precision >= N."""
        cols = list(zip(*b))
        if self.f == 1:
            # reducing mod p^N commutes with sums of products: one reduction per entry
            pN = self.pN
            return [[sum(map(mul, row, col)) % pN for col in cols] for row in a]
        # a Galois-ring encoding depends on the precision
        if ring_a is not self:
            a = [[ring_a.reduce_to(x, self) for x in row] for row in a]
        if ring_b is not self:
            cols = [[ring_b.reduce_to(y, self) for y in col] for col in cols]
        out = []
        for row in a:
            out_row = []
            for col in cols:
                acc = 0
                for x, y in zip(row, col):
                    if x and y:
                        acc = self.add(acc, self.mul(x, y))
                out_row.append(acc)
            out.append(out_row)
        return out

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            a, e = self.inv(a), -e
        if self.f == 1:
            return pow(a, e, self.pN)
        return self.encode(_poly_powmod(self.decode(a), e, self.poly, self.pN))

    def inv(self, a: int) -> int:
        """Inverse of a unit.  At f > 1, the solution x of M_a x = e_0 over
        Z/p^N, for M_a the matrix of multiplication by a (columns a * x^j),
        by Gauss-Jordan elimination with unit pivots: a is a unit, so M_a
        is invertible mod p and every column has a unit below the diagonal."""
        if self.val(a) != 0:
            raise ZeroDivisionError("not a unit in O/pi^N")
        if self.f == 1:
            return pow(a, -1, self.pN)
        p, f, pN, poly = self.p, self.f, self.pN, self.poly
        col, x = self.decode(a), [0, 1] + [0] * (f - 2)
        cols = [col]
        for _ in range(f - 1):
            col = _poly_mulmod(col, x, poly, pN)
            cols.append(col)
        rows = [[*row, int(i == 0)] for i, row in enumerate(zip(*cols))]
        for k in range(f):
            piv = next((i for i in range(k, f) if rows[i][k] % p), None)
            if piv is None:
                raise ArithmeticError("no unit pivot: the multiplication matrix is singular mod p")
            rows[k], rows[piv] = rows[piv], rows[k]
            s = pow(rows[k][k], -1, pN)
            rk = rows[k] = [c * s % pN for c in rows[k]]
            for i, row in enumerate(rows):
                t = row[k]
                if t and i != k:
                    rows[i] = [(c - t * d) % pN for c, d in zip(row, rk)]
        out = 0
        for row in reversed(rows):
            out = out * pN + row[f]
        return out

    # valuation and pi-powers ----------------------------------------------

    def val(self, a: int) -> int:
        """pi-adic valuation, capped at N (val(0) = N).  At f > 1 the least
        p-adic valuation of the base-p^N digits, read in one divmod pass
        that stops at a unit digit."""
        if a == 0:
            return self.N
        p = self.p
        if a % p:
            return 0  # a = c_0 mod p, so the constant coefficient is a unit
        if self.f == 1:
            return _vp(a, p)
        pN, v = self.pN, self.N
        while a:
            a, x = divmod(a, pN)
            if x:
                w = 0
                while w < v and x % p == 0:
                    x //= p
                    w += 1
                if w == 0:
                    return 0
                v = w
        return v

    def mul_pk(self, a: int, k: int) -> int:
        """Multiply by pi^k = p^k (k >= 0)."""
        if self.f == 1:
            return (a * self.p**k) % self.pN
        pN, pk, out, scale = self.pN, self.p**k, 0, 1
        while a:
            a, x = divmod(a, pN)
            out += x * pk % pN * scale
            scale *= pN
        return out

    def div_pk(self, a: int, k: int) -> int:
        """Exact division by pi^k; the result is valid mod pi^(N-k)."""
        if k == 0:
            return a
        pk = self.p**k
        if self.f == 1:
            if a % pk:
                raise ValueError("not divisible by pi^k")
            return a // pk
        pN, out, scale = self.pN, 0, 1
        while a:
            a, x = divmod(a, pN)
            x, r = divmod(x, pk)
            if r:
                raise ValueError("not divisible by pi^k")
            out += x * scale
            scale *= pN
        return out

    # precision moves -------------------------------------------------------

    def reduce_to(self, a: int, other: RingCtx) -> int:
        """Reduce mod pi^M for M = other.N <= N: lift_naive, one way only."""
        if other.N > self.N:
            raise ValueError("cannot reduce to higher precision")
        if self.f == 1:
            return a % other.pN
        return self.lift_naive(a, other)

    def lift_naive(self, a: int, other: RingCtx) -> int:
        """Re-encode with the same integer coefficients at precision
        M = other.N, each taken mod p^M: for M <= N this reduces."""
        if self.f == 1:
            return a % other.pN
        pN, pM, out, scale = self.pN, other.pN, 0, 1
        while a:
            a, x = divmod(a, pN)
            out += x % pM * scale
            scale *= pM
        return out

    # Teichmueller section ---------------------------------------------------

    def teichmuller(self, x: int) -> int:
        """The unique lift of x in F_q^x of multiplicative order dividing q-1.

        Computed as lift(x)^(q^(N-1)): raising to q^(N-1) kills the
        1 + pi O part of the unit group and fixes the prime-to-p part.
        """
        if x == 0:
            return 0
        return self.pow(self.field.lift_naive(x, self), self.field.q ** (self.N - 1))

    def zeta(self, n: int) -> int:
        """Teichmueller lift of the canonical zeta_n of the residue field."""
        hit = self._zeta.get(n)
        if hit is not None:
            return hit
        _check_n(self.field, n)
        z = self.teichmuller(self.field.pow(self.field.g, (self.field.q - 1) // n))
        if self.pow(z, n) != 1:
            raise ArithmeticError("Teichmueller lift is not an n-th root of 1")
        self._zeta[n] = z
        return z


def ring_make(field: FieldCtx, N: int) -> RingCtx:
    """A new context of O/pi^N; at the field's own precision, the field."""
    if N == field.N:
        return field
    return RingCtx(field, N)


def _det_rows(ring, rows) -> int:
    """Determinant of square rows of ring encodings, by expansion along
    the first row; fine at desk scale (m <= 4)."""
    if len(rows) == 1:
        return rows[0][0]
    if len(rows) == 2:
        (a, b), (c, d) = rows
        return ring.sub(ring.mul(a, d), ring.mul(b, c))
    total = 0
    rest = rows[1:]
    for j, x in enumerate(rows[0]):
        if x:
            t = ring.mul(x, _det_rows(ring, [r[:j] + r[j + 1:] for r in rest]))
            total = ring.sub(total, t) if j % 2 else ring.add(total, t)
    return total
