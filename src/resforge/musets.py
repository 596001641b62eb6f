"""Finite free pointed mu_n-sets and their automorphisms.

An abstract set with t orbits has elements None (the marked point) and
pairs (i, e) meaning zeta^e * x_i for orbit representatives x_0..x_{t-1}.
An automorphism is the pair (sigma, mu): it sends x_i to
zeta^(mu[i]) * x_{sigma[i]}.

OrbitView is a concrete pointed set (module elements, cartesian
products, ...) on positions 0..S-1: 0 is the marked point and position
order is the owner's label order.  It takes zeta_n's action as an array
of positions, keeps each position's orbit and twist in two flat
array('i'), and pins down orbit representatives by a deterministic
rule, so that expressing concrete maps as (sigma, mu) data is
reproducible; maps of labels are read through the owner's index and
label.  Three rules exist:

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
    """A concrete finite free pointed mu_n-set on positions 0..S-1, with
    pinned representatives.

    Position 0 is the marked point, and position order is the owner's
    label order.  act[x] is the position of zeta_n times x (act[0] = 0);
    under the digit rule digit[x] is a key that ranks the elements of x's
    orbit, distinct on each orbit.  Orbits are walked in position order,
    so each walk starts at the least element of its orbit.  Freeness
    (orbit length exactly n) is checked during construction.

    reps holds the representatives' positions; orbit[x] and twist[x] say
    that x = zeta^twist[x] * reps[orbit[x]] (orbit[0] = -1).  index maps
    a label to its position and label a position to its label, so maps
    of labels (as_aut, iso_scalar) are read through them.
    """

    __slots__ = ("n", "reps", "orbit", "twist", "muset", "index", "label")

    def __init__(self, n: int, act, index, label, rule: str = "least", digit=None):
        if rule not in RULES:
            raise ValueError(f"unknown representative rule {rule!r}")
        if rule == "digit" and digit is None:
            raise ValueError("the digit rule needs the leading digit of each element")
        size = len(act)
        orbit = array("i", [-1]) * size
        twist = array("i", [0]) * size
        reps = array("i")
        for x in range(1, size):
            if orbit[x] >= 0:
                continue
            cyc = [x]
            y = act[x]
            while y != x:
                cyc.append(y)
                y = act[y]
            if len(cyc) != n:
                raise ValueError(f"orbit of {label(x)!r} has length {len(cyc)}, not {n}")
            if rule == "least" or n == 1:
                rep_pos = 0
            elif rule == "digit":
                keys = [digit[y] for y in cyc]
                rep_pos = keys.index(min(keys))
            else:
                rep_pos = cyc.index(sorted(cyc)[1])
            if rep_pos:
                cyc = cyc[rep_pos:] + cyc[:rep_pos]
            idx = len(reps)
            reps.append(cyc[0])
            for e, y in enumerate(cyc):
                orbit[y] = idx
                twist[y] = e
        self.n = n
        self.reps = reps
        self.orbit = orbit
        self.twist = twist
        self.muset = MuSet(n, len(reps))
        self.index = index
        self.label = label

    @property
    def t(self) -> int:
        return len(self.reps)

    def as_aut(self, fn) -> MuSetAut:
        """Express an equivariant pointed bijection of labels as (sigma, mu) data."""
        ys = [self.index(fn(self.label(r))) for r in self.reps]
        if not all(0 < y < len(self.orbit) for y in ys):
            raise ValueError("map does not preserve the nonzero part")
        return MuSetAut(self.muset, tuple(self.orbit[y] for y in ys),
                        tuple(self.twist[y] for y in ys))


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

    fn must be an equivariant bijection between the underlying sets,
    given on labels.
    """
    if src.n != dst.n:
        raise ValueError("mismatched n")
    if src.t != dst.t:
        raise ValueError("sources of different dimension")
    index, label, orbit, twist = dst.index, src.label, dst.orbit, dst.twist
    total, seen = 0, set()
    for r in src.reps:
        y = index(fn(label(r)))
        if not 0 < y < len(orbit):
            raise ValueError("map does not preserve the nonzero part")
        j = orbit[y]
        if j in seen:
            raise ValueError("map is not bijective on orbits")
        seen.add(j)
        total += twist[y]
    return total % src.n


# ---------------------------------------------------------------------------
# monoidal product


def muset_product(X: MuSet, Y: MuSet) -> MuSet:
    """Pointed cartesian product; t_X + t_Y + n * t_X * t_Y orbits."""
    if X.n != Y.n:
        raise ValueError("mismatched n")
    return MuSet(X.n, X.t + Y.t + X.n * X.t * Y.t)


def _product_view(X: MuSet, Y: MuSet) -> OrbitView:
    """The pointed cartesian product; (a, b) sits at X.index(a) * |Y| + Y.index(b)."""
    elems_x, elems_y, sy = list(X.elements()), list(Y.elements()), Y.size
    act_x = [X.index(X.act(a)) for a in elems_x]
    act_y = [Y.index(Y.act(b)) for b in elems_y]

    def index(lbl):
        a, b = lbl
        return X.index(a) * sy + Y.index(b)

    def label(i):
        ia, ib = divmod(i, sy)
        return elems_x[ia], elems_y[ib]

    return OrbitView(X.n, [a * sy + b for a in act_x for b in act_y], index, label)


def aut_extend(f: MuSetAut, Y: MuSet) -> MuSetAut:
    """f x Id acting on the pointed cartesian product of f's set with Y."""
    X = f.X
    if X.n != Y.n:
        raise ValueError("mismatched n")
    return _product_view(X, Y).as_aut(lambda lbl: (f.apply(lbl[0]), lbl[1]))
