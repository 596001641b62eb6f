"""Exact arithmetic for finite residue fields F_q, q = p^f.

Elements are encoded as integers in [0, q): the integer sum(c_i * p**i)
stands for the class of sum(c_i * x**i) in F_p[x]/(poly).  For prime
fields (f = 1) this is the usual representative in [0, p).

Every context fixes a canonical defining polynomial (the first monic
irreducible of degree f in encoding order) and a canonical generator of
the multiplicative group (the least encoding of order q - 1).  Discrete
logarithms, and with them the exponent encoding of roots of unity, are
therefore reproducible across runs.

F_q is O/pi, so FieldCtx is the rings.RingCtx at N = 1 (this encoding
is the ring's at p^N = p) and serves as its own field; it inherits the
encoding, addition and valuation.  For f = 1 products are modular
integers.  For f > 1 multiplication, powers and inverses are lookups in
log/antilog tables of the canonical generator, built once per context
(Lidl-Niederreiter, Finite Fields, ch. 9); addition stays
coefficient-wise on the encodings.  field_make keeps no context; each
LocalField owns the one it builds.  q is capped at MAX_Q because the
log/antilog tables and the Zolotarev sign enumerate F_q.

power_residue_char, the direct route's character, keeps chi(x) by n and
x on the context (FieldCtx._chars), at most q - 1 values per n; its
values are the n MuScalars per n that mu_dlog's table shares.

The package's small value classes are plain __slots__ classes on two
bases defined here, not dataclasses, so that importing the package does
not load dataclasses and inspect.  Record gives field equality for the
exact class and the dataclass repr, and is unhashable; Frozen adds
immutability, a hash of the field tuple, and __reduce__ for copy and
pickle.  MuScalar, musets.MuSet and musets.MuSetAut are Frozen;
symbols.SymbolReport is a Record.
"""

from __future__ import annotations

from array import array
from itertools import islice, product

from .errors import EnumerationBound
from .rings import RingCtx, _check_n, _det_rows, _poly_mulmod, _poly_powmod


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def distinct_prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# polynomial helpers over F_p; polynomials are lists, lowest degree first;
# products and powers are rings._poly_mulmod and rings._poly_powmod at m = p


def _poly_gcd(a, b, p):
    a, b = list(a), list(b)

    def trim(u):
        while u and u[-1] == 0:
            u.pop()
        return u

    a, b = trim(a), trim(b)
    while b:
        inv = pow(b[-1], p - 2, p) if p > 2 else b[-1]
        # reduce a mod b
        while len(a) >= len(b) and a:
            c = (a[-1] * inv) % p
            off = len(a) - len(b)
            for i, bi in enumerate(b):
                a[off + i] = (a[off + i] - c * bi) % p
            a = trim(a)
        a, b = b, a
    return a


def _is_irreducible(poly: tuple[int, ...], p: int) -> bool:
    # Rabin's test for a monic polynomial of degree f over F_p.
    f = len(poly) - 1
    if f == 1:
        return True
    x = [0, 1] + [0] * (f - 2)
    xq = _poly_powmod(x, p**f, poly, p)
    if xq != x:
        return False
    for ell in distinct_prime_factors(f):
        t = _poly_powmod(x, p**(f // ell), poly, p)
        diff = [(ti - xi) % p for ti, xi in zip(t, x)]
        g = _poly_gcd(diff, list(poly), p)
        if len(g) != 1:
            return False
    return True


def canonical_defining_poly(p: int, f: int) -> tuple[int, ...]:
    """First monic irreducible of degree f in encoding order.

    Candidate m encodes the non-leading coefficients in base p, constant
    term least significant; the polynomial is x^f + sum(c_i x^i).
    """
    for m in range(p**f):
        coeffs = []
        t = m
        for _ in range(f):
            coeffs.append(t % p)
            t //= p
        poly = tuple(coeffs) + (1,)
        if _is_irreducible(poly, p):
            return poly
    raise ArithmeticError("no irreducible polynomial found")  # unreachable


def perm_sign_of_map(images: list[int]) -> int:
    """Sign of the permutation i -> images[i] via cycle parity."""
    n = len(images)
    seen = [False] * n
    sign = 1
    for i in range(n):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = images[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


# ---------------------------------------------------------------------------


class FieldCtx(RingCtx):
    """The field F_q = O/pi = F_p[x]/(poly) with a fixed generator g of F_q^x.

    As a ring it is O/pi^N at N = 1 and serves as its own field: the
    encoding, addition and valuation are those of RingCtx.  For f > 1,
    _log[a] is the exponent of a != 0 to base g and _exp[k] = g^k for
    0 <= k < 2(q - 1); the antilog table is doubled so that a sum of two
    logs indexes it directly.  _dlog and _chars are mu_dlog's and
    power_residue_char's memos, by n.
    """

    __slots__ = ("q", "g", "_log", "_exp", "_dlog", "_chars")

    def __init__(self, p: int, f: int, poly, g: int):
        # RingCtx.__init__ reads p, f and poly from the field, which is self
        self.p, self.f, self.poly = p, f, poly  # poly is None for f == 1
        super().__init__(self, 1)
        self.q = p**f
        self.g = g
        self._log = self._exp = None
        if f > 1:
            self._log, self._exp = _power_tables(self)
        self._dlog: dict[int, dict[int, MuScalar]] = {}
        self._chars: dict[int, dict[int, MuScalar]] = {}   # power_residue_char, by n and x

    # arithmetic ----------------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        if self.f == 1:
            return (a * b) % self.p
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def mul_table(self, a: int) -> list[int]:
        """a * c for every encoding c; for f > 1 read off the log tables."""
        if self.f == 1 or a == 0:
            return super().mul_table(a)
        exp, la = self._exp, self._log[a]
        return [0] + [exp[la + k] for k in islice(self._log, 1, None)]

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            a = self.inv(a)
            e = -e
        if self.f == 1:
            return pow(a, e, self.p)
        if a == 0:
            return 0 if e else 1
        return self._exp[self._log[a] * e % (self.q - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in F_q")
        if self.f == 1:
            return pow(a, -1, self.p)
        return self._exp[self.q - 1 - self._log[a]]

    def signed_monomial(self, x: int, i: int, y: int, j: int, s: int) -> int:
        """(-1)^s * x^i * y^j for units x, y and any integers i, j, s, in one step.

        For f = 1 it is two modular powers, negated as p - r; at p = 2,
        -1 = 1 and p - 1 = 1.  For f > 1 it is one antilog lookup: for odd
        q, -1 = g^((q-1)/2), so the logs of x^i, y^j and (-1)^s add mod
        q - 1; for even q, -1 = 1 and s is ignored.  A zero x or y is not
        checked for f > 1.
        """
        if self.f == 1:
            p = self.p
            r = pow(x, i, p) * pow(y, j, p) % p
            return p - r if s % 2 else r
        q1 = self.q - 1
        k = self._log[x] * i + self._log[y] * j
        if self.p != 2:
            k += s * (q1 // 2)
        return self._exp[k % q1]


def _least_generator(p: int, f: int, poly) -> int:
    """The least encoding of multiplicative order q - 1."""
    q = p**f
    if q == 2:
        return 1
    mod = poly if f > 1 else (0, 1)  # F_p = F_p[x]/(x)
    one = [1] + [0] * (f - 1)
    factors = distinct_prime_factors(q - 1)
    for cand in range(2, q):
        c = [(cand // p**i) % p for i in range(f)]
        if all(_poly_powmod(c, (q - 1) // ell, mod, p) != one for ell in factors):
            return cand
    raise ArithmeticError("no generator found")  # unreachable


def _power_tables(ctx: FieldCtx) -> tuple[array, array]:
    """The log table and the doubled antilog table of ctx.g (f > 1).

    Multiplication by g is F_p-linear, so g*y is g*(low half of y) plus
    g*(high half of y), and both are read from tables of at most
    p^ceil(f/2) products made with _poly_mulmod.  The walk over the powers of g keeps
    y packed, one coefficient per w-bit lane with a spare top bit: one
    integer addition then adds all coefficients, and the lanes that
    reach p are found together from their top bits and reduced.
    """
    p, f, q, poly = ctx.p, ctx.f, ctx.q, ctx.poly
    g = ctx.decode(ctx.g)
    top = p.bit_length()              # 2^top > p, and a lane sum is < 2^(top+1)
    w = top + 1
    ones = sum(1 << (w * i) for i in range(f))
    bias = ones * ((1 << top) - p)    # a lane sum s reaches 2^top iff s >= p
    h = (f + 1) // 2
    shift, low = w * h, (1 << w * h) - 1
    halves = []                       # packed half of y -> (its encoding, packed g*it)
    for start, size in ((0, h), (h, f - h)):
        table = {}
        for digits in product(range(p), repeat=size):
            y = [0] * start + list(digits) + [0] * (f - start - size)
            gy = _poly_mulmod(y, g, poly, p)
            table[sum(c << (w * i) for i, c in enumerate(digits))] = (
                ctx.encode(y), sum(c << (w * i) for i, c in enumerate(gy)))
        halves.append(table)
    lo_half, hi_half = halves
    log = array("i", [-1]) * q
    exp = array("i", [0]) * (q - 1)
    y = 1
    for k in range(q - 1):
        a_lo, gy_lo = lo_half[y & low]
        a_hi, gy_hi = hi_half[y >> shift]
        a = a_lo + a_hi
        if a == 0 or log[a] != -1:
            raise ArithmeticError(f"the powers of g = {ctx.g} are not q - 1 distinct units")
        log[a] = k
        exp[k] = a
        s = gy_lo + gy_hi
        y = s - (((s + bias) >> top) & ones) * p
    if y != 1:
        raise ArithmeticError(f"g = {ctx.g} does not have order q - 1")
    return log, exp + exp


MAX_Q = 1_000_000


def field_make(p: int, f: int = 1) -> FieldCtx:
    """Build a new canonical context for F_{p^f}; each LocalField keeps its own."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if f < 1:
        raise ValueError("extension degree must be >= 1")
    if p**f > MAX_Q:
        raise EnumerationBound(f"q = {p}^{f} exceeds the bound {MAX_Q}")
    poly = canonical_defining_poly(p, f) if f > 1 else None
    return FieldCtx(p, f, poly, _least_generator(p, f, poly))


# ---------------------------------------------------------------------------
# roots of unity


class Record:
    """Base of the package's small value classes.  A subclass lists its
    fields, in constructor order, as __slots__; _names collects them, its
    bases' first.  A record is equal to another of the exact same class
    with the same field tuple, prints as Name(field=value, ...) and is
    unhashable, as a mutable dataclass is."""

    __slots__ = ()
    __hash__ = None
    _names = ()

    def __init_subclass__(cls):
        cls._names += cls.__dict__.get("__slots__", ())

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self._names)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._names)
        return f"{self.__class__.__qualname__}({body})"


class Frozen(Record):
    """A Record whose fields __init__ sets once, past the raising
    __setattr__ (through object.__setattr__ or the slots' descriptors);
    after that no attribute can be set or deleted.  Hashed by the field
    tuple; copy, deepcopy and pickle rebuild it through the constructor."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self):
        return hash(self._fields())

    def __reduce__(self):
        return self.__class__, self._fields()


class MuScalar(Frozen):
    """A root of unity written as an exponent: (n, e) stands for zeta_n**e.

    Immutable, equal and hashed by (n, exp), with exp reduced mod n.
    """

    __slots__ = ("n", "exp")

    def __init__(self, n: int, exp: int):
        if n < 1:
            raise ValueError("n must be positive")
        _set_n(self, n)
        _set_exp(self, exp % n)

    def __mul__(self, other: "MuScalar") -> "MuScalar":
        if self.n != other.n:
            raise ValueError("mismatched root-of-unity orders")
        return MuScalar(self.n, self.exp + other.exp)

    def inverse(self) -> "MuScalar":
        return MuScalar(self.n, -self.exp)

    @property
    def is_identity(self) -> bool:
        return self.exp == 0

    def __repr__(self):
        return f"zeta_{self.n}^{self.exp}"


# __init__ writes the slots through their descriptors, past the raising __setattr__
_set_n, _set_exp = MuScalar.n.__set__, MuScalar.exp.__set__


def mu_embed(ctx: FieldCtx, s: MuScalar) -> int:
    """The field element zeta_n**exp, zeta_n = g^((q-1)/n)."""
    return ctx.pow(ctx.zeta(s.n), s.exp)


def mu_dlog(ctx: FieldCtx, x: int, n: int) -> MuScalar:
    """Inverse of mu_embed on the n-torsion of F_q^x.  The table maps each
    n-th root of unity to one shared MuScalar, so the values that
    power_residue_char keeps are n objects per n, not one per unit."""
    table = ctx._dlog.get(n)
    if table is None:
        zeta = ctx.zeta(n)   # checks n
        table = {}
        y = 1
        for e in range(n):
            table[y] = MuScalar(n, e)
            y = ctx.mul(y, zeta)
        ctx._dlog[n] = table
    try:
        return table[x]
    except KeyError:
        raise ValueError(f"{x} is not an n-th root of unity (n = {n})") from None


def power_residue_char(ctx: FieldCtx, x: int, n: int) -> MuScalar:
    """x -> x^((q-1)/n), the surjection F_q^x -> mu_n.

    Memoized on ctx by n and x (ctx._chars), at most q - 1 values per n.
    An n that does not divide q - 1, and an x outside 1..q-1, raise on
    every call and are never stored.
    """
    chars = ctx._chars.get(n)
    if chars is None:
        _check_n(ctx, n)
        chars = ctx._chars[n] = {}
    s = chars.get(x)
    if s is None:
        if not 0 < x < ctx.q:
            raise ValueError(f"power residue character of {x}, not a unit of F_{ctx.q}")
        s = chars[x] = mu_dlog(ctx, ctx.pow(x, (ctx.q - 1) // n), n)
    return s


def zolotarev_sign(ctx: FieldCtx, a: int) -> int:
    """Sign of the permutation x -> a*x of F_q."""
    if a == 0:
        raise ValueError("multiplication by 0 is not a permutation")
    return perm_sign_of_map([ctx.mul(a, x) for x in range(ctx.q)])


def field_det(ctx: FieldCtx, rows: list[list[int]]) -> int:
    """Determinant over F_q of a square matrix of at least one row."""
    return _det_rows(ctx, rows)
