"""Finite free pointed mu_n-sets and their automorphisms.

An abstract set with t orbits has elements None (the marked point) and
pairs (i, e) meaning zeta^e * x_i for orbit representatives x_0..x_{t-1}.
An automorphism is the pair (sigma, mu): it sends x_i to
zeta^(mu[i]) * x_{sigma[i]}.  MuSet and MuSetAut are immutable values on
fields.Frozen: __slots__ fields set once in __init__, which checks them
and reduces mu mod n; equal and hashed by the field tuple, printed as
MuSet(n=2, t=1), and copied and pickled through the constructor.

OrbitView is a concrete pointed set (module elements, cartesian
products, ...) on positions 0..S-1: 0 is the marked point and position
order is the owner's label order.  It is the pointed product of one or
more factors, each given by zeta_n's action as an array of its
positions, the product of X and Y sitting on positions a * |Y| + b.  It
keeps each position's orbit and twist in two flat array('i'), and pins
down orbit representatives by a deterministic rule, so that expressing
concrete maps as (sigma, mu) data is reproducible.  It walks each
factor once (_walk) and folds the walks by the mixed radix (_fold), so
a product costs a walk of each factor plus one comprehension per block
of positions, never a walk of all S positions; orbits are numbered by
their least positions, as a walk of the whole product would number
them.  The fold keeps orbits and twists only: x = zeta^twist[x] *
reps[orbit[x]], so a product's representatives are its positions of
twist 0, read once after the last fold, and the rule's choice of
representative lives in the twists alone.  A map of the view to itself
is given on positions too, as the position of the image of every
position (ModuleHom.images for module maps), so a view needs nothing of
its owner's labels.  Three rules exist:

least         the least element of each orbit in the container's order;
second_least  the second least, which exists whenever n >= 2;
digit         for module views: the element whose lowest nonzero pi-adic
              digit is least in F_q encoding order.  zeta_n scales that
              digit by the residue of zeta_n, so the n digits of an
              orbit are distinct and the choice is unique.  This is the
              default rule of the extension route, whose rank-one
              scalars have closed forms under it.

residue_walk is the muset route's own view of k = O/pi = F_q: the same
orbit walk (_walk) under the least rule, kept as two flat arrays with
no OrbitView, and bounded by q <= fields.MAX_Q rather than by the
enumeration bound.  On k the least and digit rules pin the same element.
aut_extend builds the view of a product of two abstract sets from their
factors and reads f x Id off aut_to_permutation.
"""

from __future__ import annotations

from array import array
from itertools import compress
from operator import not_

from .fields import Frozen, MuScalar, perm_sign_of_map

RULES = ("least", "second_least", "digit")


class MuSet(Frozen):
    """Abstract finite free pointed mu_n-set with t orbits (nt + 1 points)."""

    __slots__ = ("n", "t")

    def __init__(self, n: int, t: int):
        if n < 1 or t < 0:
            raise ValueError("bad mu_n-set parameters")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "t", t)

    @property
    def size(self) -> int:
        return self.n * self.t + 1


class MuSetAut(Frozen):
    """Automorphism (sigma, mu) of a MuSet: x_i -> zeta^mu[i] * x_sigma[i]."""

    __slots__ = ("X", "sigma", "mu")

    def __init__(self, X: MuSet, sigma: tuple, mu: tuple):
        t, n = X.t, X.n
        if len(sigma) != t or len(mu) != t:
            raise ValueError("wrong data length")
        if sorted(sigma) != list(range(t)):
            raise ValueError("sigma is not a permutation")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "mu", tuple(m % n for m in mu))


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
    """The underlying permutation of all n*t + 1 points, as an index map:
    point 1 + i*n + e goes to 1 + sigma[i]*n + (e + mu[i]) mod n."""
    n = f.X.n
    return (0, *(1 + s * n + (e + mu) % n for s, mu in zip(f.sigma, f.mu) for e in range(n)))


def perm_sign(f: MuSetAut) -> int:
    return perm_sign_of_map(list(aut_to_permutation(f)))


# ---------------------------------------------------------------------------
# concrete pointed mu_n-sets


def _walk(act, n: int, rule: str = "least", digit=None) -> tuple[array, array, array, list]:
    """(reps, orbit, twist, lift) of the zeta_n-action act on positions 0..S-1.

    act[x] is the position of zeta_n times x, and act[0] must be 0.
    Orbits are walked in position order, so each walk starts at the least
    element of its orbit, and rule pins the representative; under the
    digit rule digit[x] is a key that ranks the elements of x's orbit,
    distinct on each orbit.  x = zeta^twist[x] * reps[orbit[x]], with
    orbit[0] = -1 and twist[0] = 0, and reps[i] = zeta^lift[i] * (the
    least element of orbit i).  Freeness (orbit length exactly n) is
    checked on the way; a walk stops one step past n, so an action that
    is no permutation is refused too.
    """
    size = len(act)
    if act[0] != 0:
        raise ValueError("zeta_n moves the marked point")
    orbit = array("i", [-1]) * size
    twist = array("i", [0]) * size
    reps, lift = array("i"), []
    for x in range(1, size):
        if orbit[x] >= 0:
            continue
        cyc = [x]
        y = act[x]
        while y != x and len(cyc) <= n:
            cyc.append(y)
            y = act[y]
        if y != x or len(cyc) != n:
            length = len(cyc) if y == x else f"over {n}"
            raise ValueError(f"orbit of position {x} has length {length}, not {n}")
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
        lift.append(rep_pos)
        for e, y in enumerate(cyc):
            orbit[y] = idx
            twist[y] = e
    return reps, orbit, twist, lift


def _fold(n: int, rule: str, vals, walk, inner) -> tuple[array, array]:
    """(orbit, twist) of the pointed product R x M on positions
    a * |M| + b, from R's walk (walk: the orbit, twist and lift of _walk
    under rule; vals is R's valuations under the digit rule) and M's
    (inner: orbit, twist, its action and, under the digit rule, the
    valuation of each position).

    Off {0} x M, the first coordinates of an orbit of R x M are the n
    elements of one orbit of R, so the least element of the orbit of
    (a, b) is (a0, zeta^-k * b), for a0 the least element of a's orbit
    and a = zeta^k * a0 (k = twist_R(a) + lift_R(orbit_R(a)) mod n).
    Orbits are numbered by their least elements, so {0} x M keeps M's
    view, and (a, b) lies in orbit t(M) + orbit_R(a) * |M| +
    pos(zeta^-k * b), with t(M) = (|M| - 1)/n.  Its twist is a's under
    the least and second_least rules, which read the first coordinate
    first; under the digit rule the first coordinate of least valuation
    leads, so it is a's when v(a) <= v(b) and b's otherwise.  Each block
    of |M| positions is one comprehension or one cached block, written
    into arrays of the exact size; the loops run over R's positions only.
    """
    m_orbit, m_twist, m_act, m_vals = inner
    r_orbit, r_twist, r_lift = walk
    size, digit = len(m_act), rule == "digit"
    t = (size - 1) // n
    powers = [range(size)]   # powers[e][j]: the position of zeta^e * j in M
    for _ in range(n - 1):
        powers.append([m_act[y] for y in powers[-1]])
    total = len(r_orbit) * size
    orbit, twist = array("i", [0]) * total, array("i", [0]) * total
    orbit[:size], twist[:size], blocks = m_orbit, m_twist, {}
    for a in range(1, len(r_orbit)):
        o, e, lo = r_orbit[a], r_twist[a], a * size
        base = t + o * size
        orbit[lo:lo + size] = array("i", [base + y for y in powers[-(e + r_lift[o]) % n]])
        v = vals[a] if digit else None
        if (v, e) not in blocks:
            blocks[v, e] = (
                array("i", [e if vb >= v else tb for vb, tb in zip(m_vals, m_twist)])
                if digit else array("i", [e]) * size)
        twist[lo:lo + size] = blocks[v, e]
    return orbit, twist


def _product_walk(n: int, acts, rule: str, leads) -> tuple[array, array, array]:
    """(reps, orbit, twist) of the pointed product of the factors acts,
    the first most significant: the last factor's walk, onto which each
    factor before it is folded (_fold).  Under the digit rule leads[i] is
    (vals, keys) for factor i: each position's valuation, with every
    factor's vals[0] above every valuation, and the key of its lowest
    nonzero digit.  A single factor keeps its walk's reps; a product's
    are read off its twists once, after the last fold: each orbit's
    representative is its one position of twist 0."""
    if not acts:
        return array("i"), array("i", [-1]), array("i", [0])
    leads = leads or [(None, None)] * len(acts)
    act, (vals, keys) = acts[-1], leads[-1]
    reps, orbit, twist, _ = _walk(act, n, rule, keys)
    for i in range(len(acts) - 2, -1, -1):
        r_act, (r_vals, r_keys) = acts[i], leads[i]
        _, *walk = _walk(r_act, n, rule, r_keys)
        orbit, twist = _fold(n, rule, r_vals, walk, (orbit, twist, act, vals))
        if i:   # the product is the inner factor of the next fold
            size = len(act)
            act = [a * size + b for a in r_act for b in act]
            if vals is not None:
                vals = [va if va < vb else vb for va in r_vals for vb in vals]
    if len(acts) > 1:
        reps = array("i", [0]) * ((len(orbit) - 1) // n)
        for x in compress(range(1, len(twist)), map(not_, twist[1:])):
            reps[orbit[x]] = x
    return reps, orbit, twist


class OrbitView:
    """A concrete finite free pointed mu_n-set on positions 0..S-1, with
    pinned representatives: the pointed product of one or more factors,
    each given by zeta_n's action on its positions, the first factor most
    significant (positions a * |Y| + b).  rule is _walk's; the digit rule
    needs leads, each factor's valuations and digit keys (_product_walk).

    reps holds the representatives' positions, and orbit[x] and twist[x]
    say that x = zeta^twist[x] * reps[orbit[x]] (orbit[0] = -1).  A map
    into the view is given on positions as well: images[x] is the
    position of the image of x.
    """

    __slots__ = ("n", "reps", "orbit", "twist", "muset")

    def __init__(self, n: int, acts, rule: str = "least", leads=None):
        if rule not in RULES:
            raise ValueError(f"unknown representative rule {rule!r}")
        if rule == "digit" and leads is None:
            raise ValueError("the digit rule needs the leading digit of each element")
        self.n = n
        self.reps, self.orbit, self.twist = _product_walk(n, acts, rule, leads)
        self.muset = MuSet(n, len(self.reps))

    @property
    def t(self) -> int:
        return len(self.reps)

    def as_aut(self, images) -> MuSetAut:
        """Express an equivariant pointed bijection, given by the position of
        the image of every position, as (sigma, mu) data."""
        return MuSetAut(self.muset, *_orbit_images(self, images))


def _orbit_images(view: OrbitView, images) -> tuple[tuple, tuple]:
    """(sigma, mu) with images[reps][i] = zeta^mu[i] * reps[sigma[i]]."""
    ys = [images[r] for r in view.reps]
    if not all(0 < y < len(view.orbit) for y in ys):
        raise ValueError("map does not preserve the nonzero part")
    sigma = tuple(view.orbit[y] for y in ys)
    if len(set(sigma)) != len(sigma):
        raise ValueError("map is not bijective on orbits")
    return sigma, tuple(view.twist[y] for y in ys)


def residue_walk(lf, n: int) -> tuple[array, array]:
    """k = O/pi of lf as a pointed mu_n-set: (pos, least), built once per n
    in O(q) and kept on the field.

    zeta, the residue of the canonical zeta_n, acts by multiplication on
    positions, the encodings of F_q, and _walk walks it under the least
    rule: least lists the least element of each coset of mu_n in F_q^x,
    in increasing order, and pos[y] = e with y = zeta^e * c for c the
    least element of y's coset (pos[0] = 0 at the marked point).  No
    OrbitView is kept, and q <= fields.MAX_Q, not the enumeration bound,
    limits the walk.
    """
    walk = lf._walks.get(n)
    if walk is None:
        field = lf.field
        least, _, pos, _ = _walk(array("i", field.mul_table(field.zeta(n))), n)   # zeta checks n
        walk = lf._walks[n] = (pos, least)
    return walk


def iso_scalar(view: OrbitView, images) -> int:
    """Exponent c with (tensor of images of reps) = zeta^c * (tensor of reps).

    images must be an equivariant bijection of the view's underlying set,
    given by the position of the image of every position.
    """
    return sum(_orbit_images(view, images)[1]) % view.n


# ---------------------------------------------------------------------------
# monoidal product


def muset_product(X: MuSet, Y: MuSet) -> MuSet:
    """Pointed cartesian product; t_X + t_Y + n * t_X * t_Y orbits."""
    if X.n != Y.n:
        raise ValueError("mismatched n")
    return MuSet(X.n, X.t + Y.t + X.n * X.t * Y.t)


def aut_extend(f: MuSetAut, Y: MuSet) -> MuSetAut:
    """f x Id acting on the pointed cartesian product of f's set with Y.

    The product sits on positions ia * |Y| + ib, and zeta_n acts on each
    factor as the automorphism (id, 1, ..., 1).
    """
    X = f.X
    if X.n != Y.n:
        raise ValueError("mismatched n")
    sy = Y.size
    zx, zy = (aut_to_permutation(MuSetAut(Z, tuple(range(Z.t)), (1,) * Z.t)) for Z in (X, Y))
    view = OrbitView(X.n, (zx, zy))
    return view.as_aut([a * sy + b for a in aut_to_permutation(f) for b in range(sy)])
