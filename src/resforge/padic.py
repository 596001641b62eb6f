"""Elements of K^x for K the unramified extension of Q_p of degree f.

A nonzero element is stored as pi^val * unit with the unit kept in
O/pi^N; the precision N is tracked explicitly and operations fail loudly
when cancellation exhausts it, rather than truncating silently.  Each
element reduces its unit mod pi once, when it is built, and keeps the
residue: the rank-one routes read only v and that residue, so a warm
symbol reduces no unit again.  symbols.tame_symbol, shared by the direct
and muset routes, reads it through unit_part().reduce_mod_pi() and forms
the tame unit from the two residues in one F_q step
(FieldCtx.signed_monomial); the extension route's _cocycle_m1 reads it
off _res.

Input grammar (shared with the command line):
    "42", "-3", "9/35"            rationals; the valuation is extracted
    "pi", "pi^3", "pi^-2"         powers of the uniformiser
    "pi^2*5", "pi^-1*3/4"         pi-power times a rational
    "[c0,c1,...]"                 for f > 1: unit with the given residue
                                  coefficients (integers, lifted exactly)
    "pi^2*[1,2]"                  combined form

local_field(p, f) keeps every field it builds for the life of the
process; the registry is not bounded.  A field's per-q state is flat
arrays (the F_q tables for f > 1, and the coset walks of O/pi that the
muset and extension routes build once per n), beside the rank-one
routes' per-residue memos (chi(u) on the F_q context, delta(u) in
LocalField._deltas, S(u) on each engine), each at most q - 1 entries
per n, and the lattice layer's memos of quotients, intersections and
images f(A), each at most lattices.MEMO_CAP entries, with a weak table
of the lattices that some caller or memo holds.  After one
rank-one crosscheck at n = 2, tracemalloc counts 1.1 MB on a field at
q = 90,001, 12.8 MB at q = 3^12 and 22.2 MB at q = 31^4, near MAX_Q.  One crosscheck on each of the 8 primes from
90,001 to 90,053 raises peak RSS from 16.9 to 29.6 MB.  A memo filled
over every unit holds about 90 to 115 bytes per unit (8.1 MB for chi
and 10.3 MB for delta at q = 90,001, n = 1000).  Evicting a field
would cost more than it saves: elements are checked by field identity,
so a field built again for the same (p, f) would reject the evicted
one's elements.  LocalField(p, f) builds a private field that is freed
with everything on it when dropped.
"""

from __future__ import annotations

import re
import weakref
from fractions import Fraction

from .errors import PrecisionError
from .fields import FieldCtx, field_make
from .rings import RingCtx, _vp, ring_make


class KElem:
    """pi^val * unit at precision N; the unit is invertible mod pi.

    _res is the unit's residue in F_q, read once when the element is built:
    it is the unit check (the unit is invertible exactly when _res != 0)
    and what reduce_mod_pi returns, so the routes, which read only the
    valuation and the residue, never reduce a unit again.
    """

    __slots__ = ("lf", "val", "unit", "prec", "_res")

    def __init__(self, lf: "LocalField", val: int, unit: int, prec: int):
        res = lf.ring(prec).reduce_to(unit, lf.field)
        if not res:
            raise PrecisionError("unit part is divisible by pi (or 0) at this precision")
        self.lf = lf
        self.val = val
        self.unit = unit
        self.prec = prec
        self._res = res

    # group operations ------------------------------------------------------

    def __mul__(self, other: "KElem") -> "KElem":
        self._same_field(other)
        prec = min(self.prec, other.prec)
        ring = self.lf.ring(prec)
        u = ring.mul(self._unit_at(prec), other._unit_at(prec))
        return KElem(self.lf, self.val + other.val, u, prec)

    def inverse(self) -> "KElem":
        ring = self.lf.ring(self.prec)
        return KElem(self.lf, -self.val, ring.inv(self.unit), self.prec)

    def __pow__(self, e: int) -> "KElem":
        if e == 0:
            return self.lf.one(self.prec)
        base = self if e > 0 else self.inverse()
        e = abs(e)
        ring = self.lf.ring(base.prec)
        return KElem(self.lf, base.val * e, ring.pow(base.unit, e), base.prec)

    def __neg__(self) -> "KElem":
        ring = self.lf.ring(self.prec)
        return KElem(self.lf, self.val, ring.neg(self.unit), self.prec)

    def unit_part(self) -> "KElem":
        """The unit u with self = pi^val * u, at the same precision.

        self.unit was checked and its residue kept when self was built,
        so __init__'s ring lookup and reduction are skipped.
        """
        u = KElem.__new__(KElem)
        u.lf, u.val, u.unit, u.prec, u._res = self.lf, 0, self.unit, self.prec, self._res
        return u

    def reduce_mod_pi(self) -> int:
        """Residue of a unit, kept since construction; valuation must be zero."""
        if self.val != 0:
            raise ValueError(f"cannot reduce mod pi: valuation is {self.val}")
        return self._res

    # helpers ----------------------------------------------------------------

    def _same_field(self, other: "KElem"):
        if self.lf is not other.lf:
            raise ValueError("elements of different fields")

    def _unit_at(self, prec: int) -> int:
        if prec == self.prec:
            return self.unit
        if prec > self.prec:
            raise PrecisionError("requested precision exceeds what is known")
        return self.lf.ring(self.prec).reduce_to(self.unit, self.lf.ring(prec))

    def __eq__(self, other):
        if not isinstance(other, KElem) or self.lf is not other.lf:
            return NotImplemented
        if self.val != other.val:
            return False
        prec = min(self.prec, other.prec)
        return self._unit_at(prec) == other._unit_at(prec)

    def __hash__(self):
        raise TypeError("KElem is not hashable (precision-dependent equality)")

    def as_str(self) -> str:
        ring = self.lf.ring(self.prec)
        u = str(self.unit) if self.lf.f == 1 else "[" + ",".join(map(str, ring.decode(self.unit))) + "]"
        if self.val == 0:
            return u
        return f"pi^{self.val}*{u}"

    def __repr__(self):
        return f"KElem({self.as_str()} : O(pi^{self.val + self.prec}))"


class LocalField:
    """The unramified extension of Q_p with residue field F_{p^f}; it owns
    its F_q context, rings, engines, module views, O/pi walks, the
    muset route's delta memo, the lattice layer's quotient, intersection
    and image memos, which go with it, and a weak table of its live
    lattices, which holds none of them alive.  Copy and pickle rebuild
    it, empty, from (p, f, default_precision, enum_bound)."""

    def __init__(self, p: int, f: int = 1, default_precision: int = 24,
                 enum_bound: int = 100_000):
        if default_precision < 1:
            raise ValueError("precision must be >= 1")
        self.field: FieldCtx = field_make(p, f)
        self.p = p
        self.f = f
        self.q = p**f
        self.default_precision = default_precision
        self.enum_bound = enum_bound
        self._rings: dict[int, RingCtx] = {}
        self._engines: dict = {}
        self._views: dict = {}   # FiniteModule.view, by (exps, n, rule)
        self._walks: dict = {}   # musets.residue_walk, by n
        self._deltas: dict = {}  # symbols._orbit_delta, by n and residue
        # lattices._lattice's one Lattice per (shift, rows), held weakly
        self._lattices = weakref.WeakValueDictionary()
        self._quotients: dict = {}      # lattices.quotient_struct, by (A, B)
        self._intersections: dict = {}  # lattices.lat_intersect, by (A, B) for both orders
        self._images: dict = {}         # lattices.lat_apply, by (f's known data, A)

    def __repr__(self):
        return f"LocalField(p={self.p}, f={self.f})"

    def __reduce__(self):
        return LocalField, (self.p, self.f, self.default_precision, self.enum_bound)

    def ring(self, N: int) -> RingCtx:
        ctx = self._rings.get(N)
        if ctx is None:
            ctx = ring_make(self.field, N)
            self._rings[N] = ctx
        return ctx

    def precision(self, prec: int | None) -> int:
        """prec, or the default precision for None; below 1 is an error."""
        if prec is None:
            return self.default_precision
        if prec < 1:
            raise ValueError("precision must be >= 1")
        return prec

    # constructors -----------------------------------------------------------

    def one(self, prec: int | None = None) -> KElem:
        return KElem(self, 0, 1, self.precision(prec))

    def pi(self, k: int = 1, prec: int | None = None) -> KElem:
        return KElem(self, k, 1, self.precision(prec))

    def as_kelem(self, x, prec: int | None = None) -> KElem:
        """x as an element of K^x: a KElem of this field, an int, a Fraction or a string."""
        if isinstance(x, KElem):
            if x.lf is not self:
                raise ValueError("element of a different field")
            return x
        if isinstance(x, str):
            return self.parse(x, prec)
        if isinstance(x, (int, Fraction)):
            return self.from_rational(x, prec)
        raise TypeError(f"cannot interpret {x!r} as an element of K^x")

    def from_rational(self, r, prec: int | None = None) -> KElem:
        r = Fraction(r)
        if r == 0:
            raise ValueError("0 is not in K^x")
        prec = self.precision(prec)
        ring = self.ring(prec)
        vn = _vp(r.numerator, self.p)
        vd = _vp(r.denominator, self.p)
        num = abs(r.numerator) // self.p**vn
        den = r.denominator // self.p**vd
        u = ring.mul(num % ring.pN, ring.inv(den % ring.pN))
        if r.numerator < 0:
            u = ring.neg(u)
        return KElem(self, vn - vd, u, prec)

    def from_coeffs(self, coeffs, prec: int | None = None) -> KElem:
        """Element with the given integer polynomial coefficients, exactly:
        the valuation is read off the integers, as from_rational does, so
        digits past pi^prec are kept."""
        prec = self.precision(prec)
        v = min((_vp(c, self.p) for c in coeffs if c), default=None)
        if v is None:
            raise PrecisionError("coefficient vector vanishes")
        return KElem(self, v, self.ring(prec).encode([c // self.p**v for c in coeffs]), prec)

    _PI_RE = re.compile(r"^pi(?:\^(-?\d+))?$")
    _FRAC_RE = re.compile(r"^(-?\d+)(?:/(-?\d+))?$")
    _LIST_RE = re.compile(r"^\[\s*(-?\d+(?:\s*,\s*-?\d+)*)\s*\]$")

    def parse(self, text: str, prec: int | None = None) -> KElem:
        """Parse the element grammar described in the module docstring."""
        prec = self.precision(prec)
        s = text.strip().replace(" ", "")
        vshift = 0
        if s.startswith("pi"):
            head, star, rest = s.partition("*")
            m = self._PI_RE.match(head)
            if not m:
                raise ValueError(f"cannot parse {text!r}")
            vshift = int(m.group(1)) if m.group(1) else 1
            if not star:
                return self.pi(vshift, prec)
            s = rest
        m = self._FRAC_RE.match(s)
        if m:
            num = int(m.group(1))
            den = int(m.group(2)) if m.group(2) else 1
            if den == 0:
                raise ValueError("zero denominator")
            elem = self.from_rational(Fraction(num, den), prec)
        else:
            m = self._LIST_RE.match(s)
            if m:
                if self.f == 1:
                    raise ValueError("coefficient lists need an extension field (f > 1)")
                coeffs = [int(t) for t in m.group(1).split(",")]
                if len(coeffs) > self.f:
                    raise ValueError(f"at most {self.f} coefficients expected")
                elem = self.from_coeffs(coeffs, prec)
            else:
                raise ValueError(f"cannot parse {text!r}")
        # elem was built by this call and is held nowhere else: shift it in
        # place, keeping the residue its construction read
        elem.val += vshift
        return elem


_LF_CACHE: dict[tuple[int, int], LocalField] = {}


def local_field(p: int, f: int = 1) -> LocalField:
    """One LocalField per (p, f) for the life of the process, so that its
    tables, engines and views are shared; LocalField(p, f) builds its own."""
    key = (p, f)
    lf = _LF_CACHE.get(key)
    if lf is None:
        lf = _LF_CACHE[key] = LocalField(p, f)
    return lf


# free-function forms of the group operations ----------------------------------


def k_add(a: KElem, b: KElem) -> KElem:
    """Sum in K; fails with PrecisionError if cancellation eats all digits."""
    a._same_field(b)
    v = min(a.val, b.val)
    avail = min(a.val + a.prec, b.val + b.prec) - v
    ring = a.lf.ring(avail)

    def term(x: KElem) -> int:
        # pi^(x.val - v) * unit, valid mod pi^avail since shift + prec >= avail
        u = a.lf.ring(x.prec).lift_naive(x.unit, ring)
        return ring.mul_pk(u, x.val - v)

    s = ring.add(term(a), term(b))
    w = ring.val(s)
    if w >= avail:
        raise PrecisionError("sum is 0 at the available precision")
    return KElem(a.lf, v + w, ring.div_pk(s, w), avail - w)


def k_sub(a: KElem, b: KElem) -> KElem:
    return k_add(a, -b)


def k_one_minus(a: KElem) -> KElem:
    """1 - a, used by Steinberg checks."""
    return k_sub(a.lf.one(a.prec + abs(a.val)), a)
