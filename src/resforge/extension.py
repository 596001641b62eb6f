"""Functoriality, the contraction isomorphism, and the central extension
of GL_m(K) by mu_n.

For commensurable lattices A, B the relative determinant
(A|B) = det(A / A cap B) (x) det(B / A cap B)^dual is trivialized by the
canonical base points of the two quotient presentations, so it is never
built: functoriality rho_f and the contraction kappa are computed as
exponents on those bases (rho_exp, kappa_exp).  The cocycle

    c(f, g):   iota(base (x) base) = zeta^c(f,g) * base

with iota = kappa(V+, fV+, fgV+) after (id (x) rho_f) presents the
extension: lifts multiply as (f, s)(g, t) = (fg, zeta^c(f,g) * s t), so
the group law is cocycle_exp and no element type is built.  The
commutator of commuting lifts is c(f,g) - c(g,f), independent of all
trivialization choices.

The contraction is one chain: kappa_exp composes the connecting exact
sequences of the standard eight-line chain through the pairwise and
triple intersections and skips each link whose lattices coincide.  A
nested triple is a chain of one link and the pairing A = C a chain of
none, so neither has a case of its own.

c(f, g) has one body, in cocycle_exp: it applies g to V and f to V and
gV, and adds rho_exp(f, V, gV) and kappa_exp(V, fV, fgV).  Each piece
takes lattices only and asks for every image, intersection and quotient
it reads; what the pieces share, the memos share.  The field keeps every
image f(A), intersection and quotient, and the engine every rho exponent
and link's value, keyed by canonical lattices and f's known data, at
most lattices.MEMO_CAP of each.  f is invertible, so rho's f(V cap gV)
is fV cap fgV, kappa's B cap C, and rho's fV/f(V cap gV) and
fgV/f(V cap gV) are kappa's B/(B cap C) and C/(B cap C).  A cocycle so
builds at most 5 intersections (rho's 2 and kappa's A cap B, A cap C
and D3; a nested one is one of its operands) and 14 quotients (rho's 4,
kappa's 6 over D3, and its A/AB, B/AB, A/AC and C/AC); a skipped link
asks for nothing.  When fV and fgV nest, one link runs and
the larger over the smaller is one of rho's quotients, so a nested
cocycle builds 6: rho's 4 and the link's other two.  A warm cocycle
runs no elimination: its three images, every intersection, nested or
not, rho's exponent and kappa's links are memo hits, so it asks for no
quotient, runs no Hermite form, no solve and no Smith form, and walks
no exact sequence.

A SymbolEngine fixes the field, n, and the representative rule.  Its
default rule is digit (see musets), under which the rank-one building
blocks have closed forms and the route enumerates nothing at m = 1: for
f = u * pi^v and g of valuation w,

    kappa(O, fO, fgO) = 0,
    rho_f on (O | pi^w O) = w * S(u mod pi)  (mod n),
    rel_dim(O, pi^w O) = sign(w) * (q^|w| - 1)/n,

where S(u) sums, over the least elements c of the cosets of mu_n in
F_q^x, the position of u*c in its coset counted in powers of the residue
of zeta_n.  corrected_symbol needs only the parity of rel_dim, which
_rel_dim_parity reads off q^|w| mod 2n.  Under the digit rule the
symbols read a K^x argument as its valuation v and the residue of its
unit, with no matrix (_cocycle_m1).  The engine walks k = O/pi once,
when it is built, and memoizes S(u) by residue; the sign term of
corrected_symbol is S(-1), read off the same walk.

Every iso exponent in rho_exp goes between quotients with the same
exponents, which carry the same pinned representatives under every
rule, so it is the exponent of an automorphism of one module: the mu_n
character of the product of the residue determinants along the
pi-filtration (torsor._graded_det), one d x d determinant per level,
not the size of the module.  _iso_exp reads that character as S off
the engine's walk, so the route does not call the direct route's
power_residue_char at any m.  Under the digit rule the sum of
pos[lead(A_j v)] over the leading vectors v of each graded piece gives
the same value.  kappa_exp still walks the middle module of each
connecting exact sequence, over the fibers of Z's representatives only
(torsor._exact_seq_exp), once per lattice triple and engine (_seq_exp).
Under the least and second_least rules c(f, g) at m = 1 runs
cocycle_exp's body on the 1 x 1 matrices f and g = pi^w, walking each
link the first time it meets it.  Those rules, and
torsor._det_exp_brute (orbit enumeration, whose value no rule changes),
serve the closed forms as their oracle; torsor keeps no memo, so each
oracle call there enumerates.
"""

from __future__ import annotations

from array import array

from .errors import EnumerationBound
from .fields import MuScalar, _check_n
from .lattices import (KMat, Lattice, LatticeQuotient, _kmat_key, _memo_put, induced_hom,
                       lat_apply, lat_intersect, quotient_struct, standard_lattice)
from .musets import RULES
from .padic import KElem
from .torsor import _exact_seq_exp, _graded_det


class SymbolEngine:
    """Fixes (K, n, representative rule); memoizes V = O^m, S(u) by residue,
    rho's exponents, by f's known data and two lattices, and the kappa
    links, by lattice triple."""

    def __init__(self, lf, n: int, rule: str = "digit"):
        _check_n(lf.field, n)
        if rule not in RULES:
            raise ValueError(f"unknown representative rule {rule!r}")
        self.lf = lf
        self.n = n
        self.rule = rule
        self._std: dict[int, Lattice] = {}
        self._rhos: dict = {}    # rho_exp, by (f's known data, A, B)
        self._links: dict = {}   # _seq_exp, by (X, Y, Z)
        # digit rule: the coset walk of k = O/pi, and S(u) by residue u read off it
        self._cosets = _coset_walk(lf.field, lf.field.zeta(n), n)
        self._digit_sums: dict[int, int] = {}
        # the sign term of corrected_symbol, chi(-1) (see corrected_symbol)
        self._sign_exp = _digit_sum(self, lf.field.neg(1))

    # lattice helpers --------------------------------------------------------

    def standard(self, m: int) -> Lattice:
        L = self._std.get(m)
        if L is None:
            L = standard_lattice(self.lf, m)
            self._std[m] = L
        return L

    def as_kmat(self, x) -> KMat:
        if isinstance(x, KMat):
            return x
        x = self.lf.as_kelem(x)
        return KMat.from_rows(self.lf, [[x]], x.prec)


def get_engine(lf, n: int, rule: str = "digit") -> SymbolEngine:
    key = (n, rule)
    eng = lf._engines.get(key)
    if eng is None:
        eng = SymbolEngine(lf, n, rule)
        lf._engines[key] = eng
    return eng


# ---------------------------------------------------------------------------
# functoriality


def _iso_exp(srcQ: LatticeQuotient, dstQ: LatticeQuotient, f: KMat | None,
             engine: SymbolEngine) -> int:
    """Exponent of the determinant scalar of lift-(f)-project on quotients:
    S of its graded residue determinant, read off the engine's own walk."""
    return _digit_sum(engine, _graded_det(induced_hom(srcQ, dstQ, f))) % engine.n


def rho_exp(f: KMat, A: Lattice, B: Lattice, engine: SymbolEngine) -> int:
    """Exponent of rho_f : (A|B) -> (fA|fB) on canonical bases.

    f is invertible, so f(A cap B) = fA cap fB.  rho_f acts on the right
    factor through f^-1, whose iso exponent is minus that of f: if
    f(r) = zeta^e * r' for representatives r, r', then
    f^-1(r') = zeta^-e * r.  The exponent is kept on the engine, keyed by
    f's known data, A and B; fA and fB come from the field's images.
    """
    key = (_kmat_key(f), A, B)
    e = engine._rhos.get(key)
    if e is None:
        fA, fB = lat_apply(f, A), lat_apply(f, B)
        I, fI = lat_intersect(A, B), lat_intersect(fA, fB)
        tau = _iso_exp(quotient_struct(A, I), quotient_struct(fA, fI), f, engine)
        psi = _iso_exp(quotient_struct(B, I), quotient_struct(fB, fI), f, engine)
        e = (tau - psi) % engine.n
        _memo_put(engine._rhos, key, e)
    return e


# ---------------------------------------------------------------------------
# the contraction isomorphism


def _seq_exp(X: Lattice, Y: Lattice, Z: Lattice, engine: SymbolEngine) -> int:
    """kappa for X >= Y >= Z: the connecting sequence of X/Z, Y/Z and X/Y,
    memoized on the engine by (X, Y, Z).  |X/Z| = q^(det_val Z - det_val X)
    is held to the field's enum_bound before the lookup, so a link kept
    under a larger bound raises as the walk would; the quotients and maps
    are built only on a miss."""
    size = engine.lf.q ** (Z.det_val - X.det_val)
    if size > engine.lf.enum_bound:
        raise EnumerationBound(f"middle module of size {size} exceeds the bound")
    key = (X, Y, Z)
    e = engine._links.get(key)
    if e is None:
        QXZ, QYZ, QXY = quotient_struct(X, Z), quotient_struct(Y, Z), quotient_struct(X, Y)
        e = _exact_seq_exp(QYZ.module, QXZ.module, QXY.module, induced_hom(QYZ, QXZ),
                           induced_hom(QXZ, QXY), engine.n, engine.rule)
        _memo_put(engine._links, key, e)
    return e


def kappa_exp(A: Lattice, B: Lattice, C: Lattice, engine: SymbolEngine) -> int:
    """Exponent of kappa : (A|B) (x) (B|C) -> (A|C) on canonical bases, along
    the chain through the pairwise and triple intersections.

    Each of the six links is the connecting sequence of some
    X >= Y >= D3 = A cap B cap C, and nests by construction, so equal
    det_val is equality: Y = D3 when det_val(Y) = det_val(D3), X = Y when
    det_val(X) = det_val(Y).  Then the link's other two quotients, X/D3
    and X/Y or Y/D3 and X/D3, present one lattice pair on one canonical
    basis, so the map between them is the identity of one presentation:
    it takes each representative to itself, and the exponent is 0 under
    every rule.  Such a link is skipped; the others go to _seq_exp.

    The nested triples and the pairing need no case of their own.  For
    A >= B >= C, AB = B and BC = AC = D3 = C, so only the link (A, B, C)
    runs, with sign +1: the connecting sequence of B/C -> A/C -> A/B.  For
    C >= B >= A, AB = AC = D3 = A and BC = B, so only (C, B, A) runs, with
    sign -1: minus that of B/A -> C/A -> C/B.  For A = C, AC = A and
    D3 = AB = BC, so every link has X = Y or Y = D3, and kappa is the
    duality pairing, 0 on canonical bases.
    """
    AB, BC, AC = lat_intersect(A, B), lat_intersect(B, C), lat_intersect(A, C)
    D3 = lat_intersect(AB, C)
    # D3 <= AB <= B and D3 <= BC <= C ascend, and the last two links are
    # inverses of a descending one and an ascending one
    links = ((1, A, AB), (-1, B, AB), (1, B, BC), (-1, C, BC), (-1, A, AC), (1, C, AC))
    total = 0
    for sign, X, Y in links:
        if X.det_val < Y.det_val < D3.det_val:   # else X = Y or Y = D3
            total += sign * _seq_exp(X, Y, D3, engine)
    return total % engine.n


# ---------------------------------------------------------------------------
# the walk of k = O/pi and S(u), for the digit rule


def _coset_walk(field, zbar: int, n: int) -> tuple[array, array]:
    """pos[y] = e with zbar^e * c = y, for c the least element of y's coset
    of mu_n in F_q^x (pos[0] = -1); and the array of those least elements.

    Walking zbar-orbits from each unit not yet reached, in encoding
    order, starts every walk at the least element of its coset.  It is
    kept apart from musets.residue_walk, so that a bug in one route's
    walk cannot reach the other route's value.
    """
    times = field.mul_table(zbar)
    pos = array("i", [-1]) * field.q
    least = array("i")
    for c in range(1, field.q):
        if pos[c] >= 0:
            continue
        least.append(c)
        y = c
        for e in range(n):
            pos[y] = e
            y = times[y]
        if y != c:
            raise ArithmeticError("the residue of zeta_n does not have order n")
    return pos, least


def _digit_sum(engine: SymbolEngine, u: int) -> int:
    """S(u): over the least elements c of the cosets, the position of u*c."""
    s = engine._digit_sums.get(u)
    if s is None:
        pos, least = engine._cosets
        field = engine.lf.field
        s = sum(pos[field.mul(u, c)] for c in least)
        engine._digit_sums[u] = s
    return s


# ---------------------------------------------------------------------------
# the cocycle


def _cocycle_m1(x: KElem, w: int, engine: SymbolEngine) -> int:
    """c(f, g) at m = 1, for f = x = pi^v * u and g of valuation w.

    The enumerating rules run cocycle_exp's lattice body on f = x and
    g = pi^w.  Under the digit rule kappa is 0 and c is rho_f on
    (O | pi^w O).  On O/pi^k, k = |w|, f acts as multiplication by u:
    the pi-power moves digit-rule representatives onto representatives.
    An orbit is fixed by its valuation j < k, the coset of its leading
    digit, and the q^(k-1-j) choices of the digits above; multiplying by
    u adds the position of u*c to its twist, for c the least element of
    the coset.  So rho is (q^k - 1)/(q - 1) * S(u) =
    (1 + q + ... + q^(k-1)) * S(u), and q = 1 mod n makes that
    k * S(u) mod n.  For w < 0 the quotient is the right factor of
    (O | pi^w O), on which rho acts through f^-1.  The residue of u is
    the one x keeps from its construction, so the digit rule reduces
    nothing.
    """
    if engine.rule != "digit":
        return cocycle_exp(engine.as_kmat(x), engine.as_kmat(engine.lf.pi(w)), engine)
    if w == 0:
        return 0
    return w * _digit_sum(engine, x._res) % engine.n


def cocycle_exp(f: KMat, g: KMat, engine: SymbolEngine) -> int:
    m = f.nrows
    if (f.nrows, f.ncols) != (g.nrows, g.ncols) or m != f.ncols:
        raise ValueError("f and g must be square of the same size")
    if f.lf is not engine.lf or g.lf is not engine.lf:
        raise ValueError("matrices of a different field")
    if m == 1:
        x, w = f.entry_kelem(0, 0), g.entry_val(0, 0)
        if x is None or w is None:
            raise ValueError("singular input")
        if engine.rule == "digit":
            return _cocycle_m1(x, w, engine)
    V = engine.standard(m)
    gV = lat_apply(g, V)
    fV, fgV = lat_apply(f, V), lat_apply(f, gV)
    return (rho_exp(f, V, gV, engine) + kappa_exp(V, fV, fgV, engine)) % engine.n


def cocycle(f, g, engine: SymbolEngine) -> MuScalar:
    """c(f, g) with (f,s)(g,t) = (fg, zeta^c(f,g) * s t) on base multiples."""
    if isinstance(f, KMat) or isinstance(g, KMat):
        return MuScalar(engine.n, cocycle_exp(engine.as_kmat(f), engine.as_kmat(g), engine))
    x, y = engine.lf.as_kelem(f), engine.lf.as_kelem(g)
    return MuScalar(engine.n, _cocycle_m1(x, y.val, engine))


# ---------------------------------------------------------------------------
# commutator and corrected symbols


def comm_symbol(f, g, engine: SymbolEngine) -> MuScalar:
    """{f, g} = [lift(f), lift(g)] for commuting f, g; equals c(f,g) - c(g,f)."""
    if not (isinstance(f, KMat) or isinstance(g, KMat)):
        return MuScalar(engine.n, _comm_m1(engine.lf.as_kelem(f), engine.lf.as_kelem(g), engine))
    f = engine.as_kmat(f)
    g = engine.as_kmat(g)
    # K^x is commutative, so only m >= 2 needs the check
    if f.nrows > 1 and (f @ g) != (g @ f):
        raise ValueError("commutator symbol needs commuting arguments")
    return MuScalar(engine.n, cocycle_exp(f, g, engine) - cocycle_exp(g, f, engine))


def _comm_m1(x: KElem, y: KElem, engine: SymbolEngine) -> int:
    """{x, y} at m = 1 as an exponent, c(x, y) - c(y, x), not reduced mod n."""
    return _cocycle_m1(x, y.val, engine) - _cocycle_m1(y, x.val, engine)


def _rel_dim_parity(q: int, n: int, v: int) -> int:
    """The parity of rel_dim(O, pi^v O) = sign(v) * (q^|v| - 1)/n, read
    without building q^|v|.

    O/pi^|v| is the left quotient for v > 0 and the right one for v < 0,
    so the sign does not touch the parity.  With k = |v|, n divides
    q - 1 and so q^k - 1: write q^k = 1 + n*d.  Then
    n*d = n*(d mod 2) + 2n*floor(d/2), so q^k = 1 + n*(d mod 2) (mod 2n).
    For n >= 2, 1 + n*(d mod 2) < 2n is the least residue itself, and
    d mod 2 = (pow(q, k, 2n) - 1) // n.  For n = 1 (q even when d is
    odd) the residue 1 + 1 = 2 reads as 0 and the quotient as -1, which
    the final mod 2 sends to 1.
    """
    return (pow(q, abs(v), 2 * n) - 1) // n % 2


def corrected_symbol(a, b, engine: SymbolEngine) -> MuScalar:
    """The commutator symbol with the relative-dimension sign correction.

    The sign (-1)^(d_a * d_b) is applied through the mu_n character of -1,
    which agrees with the literal sign whenever q is odd and is trivial
    for odd n.  That character is S(-1), with no call to the direct
    route's character: S(u) is the mu_n-set delta of multiplication by u
    on k, whose representatives c_i (the least elements of the cosets)
    go to u*c_i = z^mu_i * c_sigma(i), z the residue of zeta_n, with
    mu_i the position of u*c_i; so S(u) = sum of the mu_i.  Multiplying
    over the t = (q - 1)/n representatives gives
    u^t * prod c_i = z^S(u) * prod c_i, so z^S(u) = u^((q-1)/n) = chi(u):
    the transfer identity that `verify muset` checks as
    transfer_is_power_map.
    """
    x, y = engine.lf.as_kelem(a), engine.lf.as_kelem(b)
    q, n = engine.lf.q, engine.n
    odd = _rel_dim_parity(q, n, x.val) * _rel_dim_parity(q, n, y.val)
    return MuScalar(n, _comm_m1(x, y, engine) + odd * engine._sign_exp)
