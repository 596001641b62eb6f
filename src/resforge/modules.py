"""Finite O-modules as direct sums of O/pi^e, and O-linear maps.

A module is the list of its elementary divisor exponents (ascending);
elements are tuples of ring encodings, component i living in
O/pi^(e_i), and an element's position is its mixed-radix index in
elements() order (index, label).  The group mu_n acts componentwise by
the Teichmueller lift of the canonical zeta_n, which is compatible with
every reduction map between precisions, so quotient maps between modules
are automatically equivariant.

Homomorphisms are stored by the images of the standard generators; the
entry condition v(a_jk) >= e_j - e_k makes the map well defined.

Counting orbits needs no enumeration (module_as_muset); element views
(OrbitView, kept by the module's LocalField) pin representatives for
maps read as (sigma, mu) data.  Views and maps meet on positions only:
zeta_n's action, the digit rule's keys and a map's images
(ModuleHom.images) are built from one table per component, with no
per-element tuple, and a view reads a map off its images.  The value
lists of a map's components come from one builder, component_values,
which torsor's exact-sequence walk uses as well; positions combines
them by the mixed radix.  index and label turn a map written on labels
into positions.
"""

from __future__ import annotations

from itertools import product

from .errors import EnumerationBound
from .fields import _check_n
from .musets import MuSet, MuSetAut, OrbitView


class FiniteModule:
    """Direct sum of O/pi^(e_i) over the ring of integers of lf."""

    __slots__ = ("lf", "exps", "rings", "radix", "size")

    def __init__(self, lf, exps):
        exps = tuple(exps)
        if any(e < 1 for e in exps):
            raise ValueError("exponents must be >= 1")
        if list(exps) != sorted(exps):
            raise ValueError("exponents must be ascending")
        self.lf = lf
        self.exps = exps
        self.rings = tuple(lf.ring(e) for e in exps)
        self.radix = tuple(r.size for r in self.rings)   # |O/pi^e_i|
        self.size = lf.q ** sum(exps)

    @property
    def rank(self) -> int:
        return len(self.exps)

    @property
    def key(self):
        return (self.lf.p, self.lf.f, self.exps)

    @property
    def zero(self) -> tuple:
        return (0,) * len(self.exps)

    def __repr__(self):
        body = " + ".join(f"O/pi^{e}" for e in self.exps) or "0"
        return f"FiniteModule({body} over {self.lf!r})"

    def __eq__(self, other):
        return isinstance(other, FiniteModule) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def _check_bound(self):
        if self.size > self.lf.enum_bound:
            raise EnumerationBound(
                f"module of size {self.size} exceeds bound {self.lf.enum_bound}")

    def elements(self):
        self._check_bound()
        return product(*(range(self.lf.q**e) for e in self.exps))

    def index(self, x: tuple) -> int:
        """Position of x in elements() order: mixed radix, first component
        most significant."""
        i = 0
        for s, c in zip(self.radix, x):
            i = i * s + c
        return i

    def label(self, i: int) -> tuple:
        """The element at position i of elements() order; inverse of index."""
        out = []
        for s in reversed(self.radix):
            i, c = divmod(i, s)
            out.append(c)
        return tuple(reversed(out))

    def positions(self, values, count: int) -> list:
        """The positions of the elements whose component j runs through
        values[j], all lists of length count: the mixed radix of index."""
        if not values:
            return [0] * count
        pos = values[0]
        for size, vals in zip(self.radix[1:], values[1:]):
            pos = [a * size + b for a, b in zip(pos, vals)]
        return pos

    def dim(self, n: int) -> int:
        """Number of mu_n orbits off zero: (|T| - 1) / n."""
        _check_n(self.lf.field, n)
        return (self.size - 1) // n

    def view(self, n: int, rule: str = "least") -> OrbitView:
        """The mu_n-set of the elements on positions, memoized in the field's _views.

        zeta_n acts componentwise by its Teichmueller lift, so its action on
        positions combines one table per component by the mixed radix of
        index.  The digit rule ranks the elements of an orbit by their
        lowest nonzero pi-adic digit, read from the first coordinate of
        least valuation; zeta_n keeps that valuation and that coordinate,
        so ranking by _lead_codes ranks by the digit.
        """
        key = (self.exps, n, rule)
        v = self.lf._views.get(key)
        if v is None:
            self._check_bound()
            act = [0]
            for r in self.rings:
                size, tab = r.size, r.mul_table(r.zeta(n))
                act = [a * size + b for a in act for b in tab]
            digit = self._lead_codes() if rule == "digit" else None
            v = OrbitView(n, act, rule, digit)
            self.lf._views[key] = v
        return v

    def _lead_codes(self) -> list:
        """Per position x != 0, (v * rank + k) * q + d for x's lowest nonzero
        pi-adic digit d in F_q, read at the first coordinate k of least
        valuation v: the least code over the coordinates.  Zero coordinates
        get a code above every other, so they never lead.

        At f = 1 the elements of valuation v of O/p^e are the multiples
        p^v * u, whose digit is u mod p: each level fills the codes of all
        multiples of p^v by one strided slice, levels ascending, so that
        every multiple of p^(v+1) is overwritten by a higher level."""
        field, q, rank = self.lf.field, self.lf.q, self.rank
        none = rank * max(self.exps, default=0) * q
        acc = [none]
        for k, (e, r) in enumerate(zip(self.exps, self.rings)):
            if self.lf.f == 1:
                codes = [none] * r.size
                for v in range(e):
                    step, base = q**v, (v * rank + k) * q
                    codes[step::step] = (list(range(base, base + q)) * q**(e - v - 1))[1:]
            else:
                codes = [none]
                for c in range(1, r.size):
                    v = r.val(c)
                    codes.append((v * rank + k) * q + r.reduce_to(r.div_pk(c, v), field))
            acc = [a if a < b else b for a in acc for b in codes]
        return acc


class ModuleHom:
    """O-linear map between finite modules, stored by generator images."""

    __slots__ = ("src", "dst", "cols")

    def __init__(self, src: FiniteModule, dst: FiniteModule, cols):
        cols = tuple(tuple(c) for c in cols)
        if len(cols) != src.rank or any(len(c) != dst.rank for c in cols):
            raise ValueError("wrong matrix shape")
        for k, col in enumerate(cols):
            ek = src.exps[k]
            for j, a in enumerate(col):
                need = dst.exps[j] - ek
                if need > 0 and dst.rings[j].val(a) < need:
                    raise ValueError(
                        f"entry ({j},{k}) has valuation < e_j - e_k; map not well defined")
        self.src = src
        self.dst = dst
        self.cols = cols

    def apply(self, x: tuple) -> tuple:
        dst, src = self.dst, self.src
        out = []
        for j in range(dst.rank):
            rj = dst.rings[j]
            acc = 0
            for k in range(src.rank):
                xk = x[k]
                if xk:
                    lifted = src.rings[k].lift_naive(xk, rj)
                    acc = rj.add(acc, rj.mul(lifted, self.cols[k][j]))
            out.append(acc)
        return tuple(out)

    def images(self) -> list:
        """The position of self.apply(x) in dst, for every x in
        src.elements() order: component_values on self.cols, combined
        by dst's mixed radix."""
        src, dst = self.src, self.dst
        return dst.positions(component_values(src, dst, self.cols), src.size)

    def compose(self, other: "ModuleHom") -> "ModuleHom":
        """self after other."""
        if other.dst != self.src:
            raise ValueError("maps do not compose")
        return ModuleHom(other.src, self.dst,
                         [self.apply(c) for c in other.cols])

    def __repr__(self):
        return f"ModuleHom({self.src!r} -> {self.dst!r})"


def sums(ring, parts) -> list:
    """The sum in ring of one entry of each list in parts, for every
    choice, the first list most significant; [0] for no lists.

    The fold runs from the last list, so the accumulated list is the
    inner loop of each comprehension; a caller puts its longest list
    last.
    """
    if not parts:
        return [0]
    acc = parts[-1]
    if ring.f == 1:
        pN = ring.pN
        for vals in reversed(parts[:-1]):
            acc = [(a + b) % pN for a in vals for b in acc]
    else:
        add = ring.add
        for vals in reversed(parts[:-1]):
            acc = [add(a, b) for a in vals for b in acc]
    return acc


def component_values(src: FiniteModule, dst: FiniteModule, cols) -> list:
    """Per component j of dst, the list of sum_k x_k * cols[k][j] over
    every x in src.elements() order, x_k lifted naively into dst's ring j.

    The value is additive in x, so each list is the sums of the
    per-coordinate multiples t * cols[k][j].  cols need not define a
    ModuleHom: a section of a surjection, read on labels, is such a
    list of columns too.
    """
    src._check_bound()
    out = []
    for j, rj in enumerate(dst.rings):
        parts = []
        for rk, col in zip(src.rings, cols):
            c, size = col[j], rk.size
            if rj.f == 1:
                pN = rj.pN
                parts.append([t * c % pN for t in range(size)])
            else:
                parts.append([rj.mul(rk.lift_naive(t, rj), c) for t in range(size)])
        out.append(sums(rj, parts))
    return out


def scalar_hom(M: FiniteModule, u, from_ring=None) -> ModuleHom:
    """Multiplication by u; u is an integer, or an encoding in from_ring."""
    cols = []
    for k in range(M.rank):
        col = [0] * M.rank
        if from_ring is None:
            col[k] = M.rings[k].encode([u])
        else:
            col[k] = from_ring.lift_naive(u, M.rings[k])
        cols.append(tuple(col))
    return ModuleHom(M, M, cols)


# mu_n-set views of modules ------------------------------------------------------


def module_as_muset(T: FiniteModule, n: int) -> MuSet:
    """The underlying finite free pointed mu_n-set: mu_n acts freely off zero."""
    return MuSet(n, T.dim(n))


def _check_endo(g: ModuleHom) -> FiniteModule:
    """The module of which g is an endomorphism."""
    if g.src != g.dst:
        raise ValueError("map is not an endomorphism")
    return g.src


def module_aut_as_musetaut(g: ModuleHom, n: int, rule: str = "least") -> MuSetAut:
    """Express an O-linear automorphism as (sigma, mu) data, read off the
    positions of its images."""
    return _check_endo(g).view(n, rule).as_aut(g.images())
