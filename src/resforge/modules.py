"""Finite O-modules as direct sums of O/pi^e, and O-linear maps.

A module is the list of its elementary divisor exponents (ascending);
elements are tuples of ring encodings, component i living in
O/pi^(e_i).  The group mu_n acts componentwise by the Teichmueller lift
of the canonical zeta_n, which is compatible with every reduction map
between precisions, so quotient maps between modules are automatically
equivariant.

Homomorphisms are stored by the images of the standard generators; the
entry condition v(a_jk) >= e_j - e_k makes the map well defined.

Counting orbits needs no enumeration (module_as_muset); element views
(OrbitView, kept by the module's LocalField) pin representatives for
maps read as (sigma, mu) data.
"""

from __future__ import annotations

from itertools import product, repeat

from .errors import EnumerationBound
from .fields import _check_n
from .musets import MuSet, MuSetAut, OrbitView


class FiniteModule:
    """Direct sum of O/pi^(e_i) over the ring of integers of lf."""

    __slots__ = ("lf", "exps", "rings", "size")

    def __init__(self, lf, exps):
        exps = tuple(exps)
        if any(e < 1 for e in exps):
            raise ValueError("exponents must be >= 1")
        if list(exps) != sorted(exps):
            raise ValueError("exponents must be ascending")
        self.lf = lf
        self.exps = exps
        self.rings = tuple(lf.ring(e) for e in exps)
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
        """Position of x in elements() order."""
        i = 0
        for r, c in zip(self.rings, x):
            i = i * r.size + c
        return i

    def dim(self, n: int) -> int:
        """Number of mu_n orbits off zero: (|T| - 1) / n."""
        return (self.size - 1) // n

    def mu_act(self, n: int):
        zetas = [r.zeta(n) for r in self.rings]
        rings = self.rings
        if self.lf.f == 1:
            pairs = [(z, r.pN) for r, z in zip(rings, zetas)]

            def act(x):
                return tuple(z * c % pN for (z, pN), c in zip(pairs, x))

            return act

        def act(x):
            return tuple(r.mul(z, c) for r, z, c in zip(rings, zetas, x))

        return act

    def lead_digit(self, x: tuple) -> int:
        """The lowest nonzero pi-adic digit of x != 0, in F_q.

        It is read from the first coordinate of least valuation.  Zero
        coordinates are skipped: their valuation is capped at the
        component's exponent and would tie with a nonzero one.
        """
        best = None
        for r, c in zip(self.rings, x):
            if c:
                v = r.val(c)
                if best is None or v < best[0]:
                    best = (v, r, c)
        v, r, c = best
        return r.reduce_to(r.div_pk(c, v), self.lf.field)

    def view(self, n: int, rule: str = "least") -> OrbitView:
        """The mu_n-set of the elements, memoized in the field's _views."""
        key = (self.exps, n, rule)
        v = self.lf._views.get(key)
        if v is None:
            elems = [x for x in self.elements() if x != self.zero]
            v = OrbitView(n, elems, self.mu_act(n), rule, self.lead_digit)
            self.lf._views[key] = v
        return v


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

    def images(self):
        """self.apply(x) for every x, in src.elements() order.

        apply is additive, so each output component is a sum over the
        same product as elements() of per-coordinate multiples
        t * cols[k][j]; one flat list per component is built by adding
        those multiples, and the components are zipped lazily.
        """
        src, dst = self.src, self.dst
        src._check_bound()
        if not dst.rank:
            return repeat((), src.size)
        comps = []
        for j, rj in enumerate(dst.rings):
            acc = [0]
            for k, rk in enumerate(src.rings):
                c = self.cols[k][j]
                if rj.f == 1:
                    pj = rj.pN
                    mults = [t * c % pj for t in range(rk.size)]
                    acc = [(a + b) % pj for a in acc for b in mults]
                else:
                    mults = [rj.mul(rk.lift_naive(t, rj), c) for t in range(rk.size)]
                    acc = [rj.add(a, b) for a in acc for b in mults]
            comps.append(acc)
        return zip(*comps)

    def compose(self, other: "ModuleHom") -> "ModuleHom":
        """self after other."""
        if other.dst != self.src:
            raise ValueError("maps do not compose")
        return ModuleHom(other.src, self.dst,
                         [self.apply(c) for c in other.cols])

    def __repr__(self):
        return f"ModuleHom({self.src!r} -> {self.dst!r})"


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
    _check_n(T.lf.field, n)
    return MuSet(n, T.dim(n))


def module_aut_as_musetaut(T: FiniteModule, g: ModuleHom, n: int,
                           rule: str = "least") -> MuSetAut:
    """Express an O-linear automorphism as (sigma, mu) data."""
    if g.src != T or g.dst != T:
        raise ValueError("not an endomorphism of T")
    return T.view(n, rule).as_aut(g.apply)
