"""Truncated unramified local rings O/pi^N.

For f = 1 this is Z/p^N; for f > 1 it is the Galois ring
Z/p^N [x]/(poly), where poly is the fixed integer lift of the canonical
defining polynomial of the residue field.  Since the extension is
unramified, pi = p, and dividing by pi^k is exact coefficient-wise
division by p^k.

Elements are encoded as integers: sum(c_i * (p^N)**i) with coefficients
c_i in [0, p^N).  For f = 1 the encoding is the representative itself;
at N = 1 it is the F_q encoding, so O/pi multiplies, powers and inverts
through the residue field's tables.
"""

from __future__ import annotations

from .fields import FieldCtx


class RingCtx:
    """The ring O/pi^N over a fixed residue field context."""

    __slots__ = ("field", "p", "f", "N", "pN", "poly", "_zeta", "_teich")

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
        self._teich: dict[int, int] = {}

    def __repr__(self):
        return f"RingCtx(p={self.p}, f={self.f}, N={self.N})"

    @property
    def size(self) -> int:
        return self.pN**self.f

    # encoding ------------------------------------------------------------

    def decode(self, a: int) -> list[int]:
        pN = self.pN
        return [(a // pN**i) % pN for i in range(self.f)]

    def encode(self, coeffs) -> int:
        pN = self.pN
        return sum((c % pN) * pN**i for i, c in enumerate(coeffs))

    def one(self) -> int:
        return 1

    # arithmetic ----------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.f == 1:
            return (a + b) % self.pN
        return self.encode([x + y for x, y in zip(self.decode(a), self.decode(b))])

    def neg(self, a: int) -> int:
        if self.f == 1:
            return (-a) % self.pN
        return self.encode([-x for x in self.decode(a)])

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.f == 1:
            return (a * b) % self.pN
        if self.N == 1:
            return self.field.mul(a, b)
        A, B = self.decode(a), self.decode(b)
        pN, f = self.pN, self.f
        res = [0] * (2 * f - 1)
        for i, ai in enumerate(A):
            if ai:
                for j, bj in enumerate(B):
                    if bj:
                        res[i + j] = (res[i + j] + ai * bj) % pN
        # reduce by the monic defining polynomial
        for k in range(2 * f - 2, f - 1, -1):
            c = res[k]
            if c:
                res[k] = 0
                for i in range(f):
                    res[k - f + i] = (res[k - f + i] - c * self.poly[i]) % pN
        return self.encode(res[:f])

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            a, e = self.inv(a), -e
        if self.f == 1:
            return pow(a, e, self.pN)
        if self.N == 1:
            return self.field.pow(a, e)
        acc, base = 1, a
        while e:
            if e & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            e >>= 1
        return acc

    def inv(self, a: int) -> int:
        """Inverse of a unit, by Newton lifting from the residue field."""
        if self.val(a) != 0:
            raise ZeroDivisionError("not a unit in O/pi^N")
        if self.f == 1:
            return pow(a, -1, self.pN)
        if self.N == 1:
            return self.field.inv(a)
        x = self.lift_field(self.field.inv(self.reduce_to_field(a)))
        for _ in range(max(1, (self.N - 1).bit_length())):
            x = self.mul(x, self.sub(2, self.mul(a, x)))
        if self.mul(a, x) != 1:
            raise ArithmeticError("Newton inversion failed")
        return x

    # valuation and pi-powers ----------------------------------------------

    def val(self, a: int) -> int:
        """pi-adic valuation, capped at N (val(0) = N)."""
        if a == 0:
            return self.N
        if self.f == 1:
            v, p = 0, self.p
            while a % p == 0:
                a //= p
                v += 1
            return v
        best = self.N
        p = self.p
        for c in self.decode(a):
            if c:
                v = 0
                while c % p == 0:
                    c //= p
                    v += 1
                if v < best:
                    best = v
                    if best == 0:
                        return 0
        return best

    def mul_pk(self, a: int, k: int) -> int:
        """Multiply by pi^k = p^k (k >= 0)."""
        if self.f == 1:
            return (a * self.p**k) % self.pN
        pk = self.p**k
        return self.encode([c * pk for c in self.decode(a)])

    def div_pk(self, a: int, k: int) -> int:
        """Exact division by pi^k; the result is valid mod pi^(N-k)."""
        if k == 0:
            return a
        pk = self.p**k
        if self.f == 1:
            if a % pk:
                raise ValueError("not divisible by pi^k")
            return a // pk
        coeffs = self.decode(a)
        if any(c % pk for c in coeffs):
            raise ValueError("not divisible by pi^k")
        return self.encode([c // pk for c in coeffs])

    # precision moves -------------------------------------------------------

    def reduce_to(self, a: int, other: "RingCtx") -> int:
        """Reduce mod pi^M for M = other.N <= N."""
        if other.N > self.N:
            raise ValueError("cannot reduce to higher precision")
        if self.f == 1:
            return a % other.pN
        return other.encode([c % other.pN for c in self.decode(a)])

    def lift_naive(self, a: int, other: "RingCtx") -> int:
        """Re-encode with the same integer coefficients at precision other.N."""
        if self.f == 1:
            return a % other.pN
        return other.encode(self.decode(a))

    def reduce_to_field(self, a: int) -> int:
        if self.f == 1:
            return a % self.p
        return self.field.encode([c % self.p for c in self.decode(a)])

    def lift_field(self, x: int) -> int:
        if self.f == 1:
            return x % self.pN
        return self.encode(self.field.decode(x))

    # Teichmueller section ---------------------------------------------------

    def teichmuller(self, x: int) -> int:
        """The unique lift of x in F_q^x of multiplicative order dividing q-1.

        Computed as lift(x)^(q^(N-1)): raising to q^(N-1) kills the
        1 + pi O part of the unit group and fixes the prime-to-p part.
        """
        if x == 0:
            return 0
        hit = self._teich.get(x)
        if hit is not None:
            return hit
        t = self.pow(self.lift_field(x), self.field.q ** (self.N - 1))
        self._teich[x] = t
        return t

    def zeta(self, n: int) -> int:
        """Teichmueller lift of the canonical zeta_n of the residue field."""
        hit = self._zeta.get(n)
        if hit is not None:
            return hit
        q = self.field.q
        if n < 1 or (q - 1) % n != 0:
            raise ValueError(f"n = {n} does not divide q - 1")
        z = self.teichmuller(self.field.pow(self.field.g, (q - 1) // n))
        if self.pow(z, n) != 1:
            raise ArithmeticError("Teichmueller lift is not an n-th root of 1")
        self._zeta[n] = z
        return z


_RING_CACHE: dict[tuple[int, int, int], RingCtx] = {}


def ring_make(field: FieldCtx, N: int) -> RingCtx:
    key = (field.p, field.f, N)
    ctx = _RING_CACHE.get(key)
    if ctx is None:
        ctx = RingCtx(field, N)
        _RING_CACHE[key] = ctx
    return ctx
