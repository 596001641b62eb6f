"""Finite free pointed mu_n-sets and their automorphisms.

An abstract set with t orbits has elements None (the marked point) and
pairs (i, e) meaning zeta^e * x_i for orbit representatives x_0..x_{t-1}.
An automorphism is the pair (sigma, mu): it sends x_i to
zeta^(mu[i]) * x_{sigma[i]}.

OrbitView wraps a concrete pointed set (module elements, cartesian
products, ...) and pins down orbit representatives by a deterministic
rule, so that expressing concrete maps as (sigma, mu) data is
reproducible.  Three rules exist:

least         the least element of each orbit in the container's order;
second_least  the second least, which exists whenever n >= 2;
digit         for module views: the element whose lowest nonzero pi-adic
              digit is least in F_q encoding order.  zeta_n scales that
              digit by the residue of zeta_n, so the n digits of an
              orbit are distinct and the choice is unique.  This is the
              default rule of the extension route, whose rank-one
              scalars have closed forms under it.

residue_walk is the muset route's own view of k = O/pi = F_q: flat
arrays, not labels, and bounded by q <= fields.MAX_Q rather than by the
enumeration bound.  On k the least and digit rules pin the same element.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

from .fields import MuScalar, perm_sign_of_map

RULES = ("least", "second_least", "digit")


@dataclass(frozen=True)
class MuSet:
    """Abstract finite free pointed mu_n-set with t orbits (nt + 1 points)."""

    n: int
    t: int

    def __post_init__(self):
        if self.n < 1 or self.t < 0:
            raise ValueError("bad mu_n-set parameters")

    @property
    def size(self) -> int:
        return self.n * self.t + 1

    def elements(self):
        yield None
        for i in range(self.t):
            for e in range(self.n):
                yield (i, e)

    def index(self, elt) -> int:
        if elt is None:
            return 0
        i, e = elt
        return 1 + i * self.n + e

    def act(self, elt, k: int = 1):
        if elt is None:
            return None
        i, e = elt
        return (i, (e + k) % self.n)


@dataclass(frozen=True)
class MuSetAut:
    """Automorphism (sigma, mu) of a MuSet: x_i -> zeta^mu[i] * x_sigma[i]."""

    X: MuSet
    sigma: tuple
    mu: tuple

    def __post_init__(self):
        t, n = self.X.t, self.X.n
        if len(self.sigma) != t or len(self.mu) != t:
            raise ValueError("wrong data length")
        if sorted(self.sigma) != list(range(t)):
            raise ValueError("sigma is not a permutation")
        object.__setattr__(self, "mu", tuple(m % n for m in self.mu))

    def apply(self, elt):
        if elt is None:
            return None
        i, e = elt
        return (self.sigma[i], (e + self.mu[i]) % self.X.n)


def aut_compose(f: MuSetAut, g: MuSetAut) -> MuSetAut:
    """f after g.  (sigma_f sigma_g, i -> mu_g[i] + mu_f[sigma_g[i]])."""
    if f.X != g.X:
        raise ValueError("automorphisms of different sets")
    sigma = tuple(f.sigma[g.sigma[i]] for i in range(f.X.t))
    mu = tuple(g.mu[i] + f.mu[g.sigma[i]] for i in range(f.X.t))
    return MuSetAut(f.X, sigma, mu)


def aut_delta(f: MuSetAut) -> MuScalar:
    """Product of the orbit twists; independent of representative choice."""
    return MuScalar(f.X.n, sum(f.mu))


def aut_abelianize(f: MuSetAut) -> tuple[MuScalar, int]:
    """(delta, sign of the orbit permutation); conjugation invariant."""
    return aut_delta(f), perm_sign_of_map(list(f.sigma))


def aut_to_permutation(f: MuSetAut) -> tuple:
    """The underlying permutation of all n*t + 1 points, as an index map."""
    X = f.X
    images = [0] * X.size
    for elt in X.elements():
        images[X.index(elt)] = X.index(f.apply(elt))
    return tuple(images)


def perm_sign(f: MuSetAut) -> int:
    return perm_sign_of_map(list(aut_to_permutation(f)))


# ---------------------------------------------------------------------------
# concrete pointed mu_n-sets


class OrbitView:
    """A concrete finite free pointed mu_n-set with pinned representatives.

    elements: the non-marked labels, which must be sortable; act: the
    action of the fixed zeta_n; digit: the leading-digit map the digit
    rule ranks elements by.  Freeness (orbit length exactly n) is checked
    during construction.
    """

    __slots__ = ("n", "reps", "table", "muset")

    def __init__(self, n: int, elements, act, rule: str = "least", digit=None):
        if rule not in RULES:
            raise ValueError(f"unknown representative rule {rule!r}")
        if rule == "digit" and digit is None:
            raise ValueError("the digit rule needs the leading digit of each element")
        self.n = n
        table: dict = {}
        reps: list = []
        for x in sorted(elements):
            if x in table:
                continue
            orbit = [x]
            y = act(x)
            while y != x:
                orbit.append(y)
                y = act(y)
            if len(orbit) != n:
                raise ValueError(f"orbit of {x!r} has length {len(orbit)}, not {n}")
            idx = len(reps)
            if rule == "least" or n == 1:
                rep_pos = 0
            elif rule == "digit":
                rep_pos = min(range(n), key=lambda i: digit(orbit[i]))
            else:
                second = sorted(orbit)[1]
                rep_pos = orbit.index(second)
            reps.append(orbit[rep_pos])
            for pos, y in enumerate(orbit):
                table[y] = (idx, (pos - rep_pos) % n)
        self.reps = reps
        self.table = table
        self.muset = MuSet(n, len(reps))

    @property
    def t(self) -> int:
        return len(self.reps)

    def as_aut(self, fn) -> MuSetAut:
        """Express an equivariant pointed bijection as (sigma, mu) data."""
        sigma, mu = [], []
        for r in self.reps:
            try:
                j, e = self.table[fn(r)]
            except KeyError:
                raise ValueError("map does not preserve the nonzero part") from None
            sigma.append(j)
            mu.append(e)
        return MuSetAut(self.muset, tuple(sigma), tuple(mu))


def residue_walk(lf, n: int) -> tuple[array, array]:
    """k = O/pi of lf as a pointed mu_n-set: (pos, least), built once per n
    in O(q) and kept on the field.

    zeta, the residue of the canonical zeta_n, acts by multiplication.
    least lists the least element of each coset of mu_n in F_q^x, in
    increasing order; pos[y] = e with y = zeta^e * c for c the least
    element of y's coset (pos[0] = -1: the marked point has no coset).
    Walking zeta-orbits from each unit not yet reached, in encoding
    order, starts every walk at the least element of its coset; freeness
    (every orbit of length exactly n) is checked on the way.
    """
    walk = lf._walks.get(n)
    if walk is None:
        field = lf.field
        zeta, q, mul = field.zeta(n), field.q, field.mul   # zeta checks n
        pos = array("i", [-1]) * q
        least = array("i")
        for c in range(1, q):
            if pos[c] >= 0:
                continue
            least.append(c)
            y = c
            for e in range(n):
                pos[y] = e
                y = mul(zeta, y)
            if y != c:
                raise ArithmeticError("the residue of zeta_n is not an n-th root of unity")
        if len(least) * n != q - 1:
            raise ArithmeticError("the residue of zeta_n has order below n")
        walk = lf._walks[n] = (pos, least)
    return walk


def iso_scalar(src: OrbitView, dst: OrbitView, fn) -> int:
    """Exponent c with (tensor of fn(reps of src)) = zeta^c * (tensor of reps of dst).

    fn must be an equivariant bijection between the underlying sets.
    """
    if src.n != dst.n:
        raise ValueError("mismatched n")
    if src.t != dst.t:
        raise ValueError("sources of different dimension")
    total = 0
    seen = set()
    for r in src.reps:
        try:
            j, e = dst.table[fn(r)]
        except KeyError:
            raise ValueError("map does not preserve the nonzero part") from None
        total += e
        if j in seen:
            raise ValueError("map is not bijective on orbits")
        seen.add(j)
    return total % src.n


# ---------------------------------------------------------------------------
# monoidal product


def muset_product(X: MuSet, Y: MuSet) -> MuSet:
    """Pointed cartesian product; t_X + t_Y + n * t_X * t_Y orbits."""
    if X.n != Y.n:
        raise ValueError("mismatched n")
    return MuSet(X.n, X.t + Y.t + X.n * X.t * Y.t)


def _product_view(X: MuSet, Y: MuSet) -> OrbitView:
    n = X.n
    elems = []
    for a in X.elements():
        for b in Y.elements():
            if a is None and b is None:
                continue
            elems.append((X.index(a), Y.index(b), a, b))
    # sort key is the pair of indices; keep labels alongside

    def act(lbl):
        _, _, a, b = lbl
        a2, b2 = X.act(a), Y.act(b)
        return (X.index(a2), Y.index(b2), a2, b2)

    return OrbitView(n, elems, act)


def aut_extend(f: MuSetAut, Y: MuSet) -> MuSetAut:
    """f x Id acting on the pointed cartesian product of f's set with Y."""
    X = f.X
    if X.n != Y.n:
        raise ValueError("mismatched n")
    view = _product_view(X, Y)

    def fn(lbl):
        _, _, a, b = lbl
        a2 = f.apply(a)
        return (X.index(a2), Y.index(b), a2, b)

    return view.as_aut(fn)
