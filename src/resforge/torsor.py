"""Canonical isomorphisms of determinant lines of finite modules, as exponents.

Every mu_n-torsor that occurs here is trivialized by a canonical base
point (the tensor of pinned orbit representatives), so each canonical
isomorphism of the theory is materialized as a single exponent: the
scalar by which it moves one canonical base onto another.  No line is
built as an object; a line is named by the module whose determinant it
is.  Composing isomorphisms adds exponents, duals preserve them, and the
pairing of a base with its dual base is 1, so its exponent is 0.

Automorphism determinants are read from residue determinants along the
pi-filtration (_graded_det); orbit enumeration stays as their oracle,
_det_exp_brute, which reads the automorphism's image positions
(ModuleHom.images) at the view's representatives.
Modules are equal when their exponents are, so an isomorphism between
two quotients with the same exponents, as in the extension route's iso
exponents, is an automorphism of one module with one memoized view, and
_det_exp_brute is its enumeration oracle too.

The exact sequence 0 -> X -> Y -> Z -> 0 is checked on generators and
walked on fibers.  Exactness: incl is injective (its |X| image
positions are distinct), |X| |Z| = |Y|, proj o incl vanishes on X's
generators, and proj is onto, which Nakayama reduces to proj mod pi:
the lattice layer's Hermite form of proj's rows over O/pi^E, for E the
largest exponent of Z, has a unit pivot in every row (_section).  Then
incl(X) lies in ker proj, which has |Y| / |Z| = |X| elements, so the
two are equal.  The identity that Hermite form carries below proj's
rows gives lifts s_k of Z's generators, and the fiber of proj over z
is s(z) + incl(X) with s(z) = sum_k z_k s_k.  The scalar's fiber half
sums the twists of Y over the fibers of Z's representatives only:
|X| (|Z| - 1) / n positions, not |Y|.
"""
from __future__ import annotations

from .errors import EnumerationBound
from .fields import MuScalar, field_det, power_residue_char
from .lattices import _hnf
from .modules import FiniteModule, ModuleHom, _check_endo, component_values, sums
from .musets import iso_scalar


# ---------------------------------------------------------------------------
# determinants of module automorphisms


def _det_exp_brute(T: FiniteModule, g: ModuleHom, n: int) -> int:
    """delta of g by enumeration, the oracle of det_of_module_aut.

    Any rule serves: moving representative r_i to zeta^k_i * r_i adds k_i
    to the twist of orbit i and -k_i to that of sigma^-1(i), so the sum
    of the twists stays the same.
    """
    _check_endo(T, g)
    view = T.view(n)
    return iso_scalar(view, view, g.images())


def _graded_det(T: FiniteModule, g: ModuleHom) -> int:
    """The product over the pi-filtration of g's residue determinants, in F_q^x."""
    field = T.lf.field
    det_total = 1
    for i in range(T.exps[-1] if T.exps else 0):
        idx = [j for j, e in enumerate(T.exps) if e > i]
        rows = [[T.rings[j].reduce_to(g.cols[k][j], field) for k in idx] for j in idx]
        d = field_det(field, rows)
        if d == 0:
            raise ValueError("map is not an automorphism (graded piece singular)")
        det_total = field.mul(det_total, d)
    return det_total


def det_of_module_aut(T: FiniteModule, g: ModuleHom, n: int) -> MuScalar:
    """The scalar by which g acts on det(T), along the pi-filtration: the
    mu_n character of the graded residue determinant, _det_exp_brute's value."""
    _check_endo(T, g)
    return power_residue_char(T.lf.field, _graded_det(T, g), n)


# ---------------------------------------------------------------------------
# exact sequences


def _section(proj: ModuleHom) -> list:
    """Columns s_k of encodings in Y with proj(s_k) = e_k, for the
    generators e_k of Z; "sequence not exact at the middle term" when
    proj is not onto.

    proj is onto exactly when proj mod pi is, by Nakayama, and so exactly
    when the naive lifts A = (a_jk) of its entries span (O/pi^E)^r, for
    E the largest exponent of Z and r its rank: when the Hermite form of
    A over O/pi^E (lattices._hnf) has a unit pivot in every row, since
    its pivots multiply to the index of that span.  The identity carried
    below A comes back as U with A U = I mod pi^E, and so mod pi^(f_j)
    for Z's exponent f_j <= E.  Coordinate k of s_l is u_kl read at Y's
    exponent e_k: moving u_kl by a multiple of pi^(e_k) moves a_jk u_kl
    by a multiple of pi^(f_j), since v(a_jk) >= f_j - e_k.  s is no
    ModuleHom: z -> sum_k z_k s_k, on naive lifts of labels, lifts z but
    is not additive.
    """
    Y, Z = proj.src, proj.dst
    if not Z.exps:
        return []
    ring, rz = Y.lf.ring(Z.exps[-1]), Z.rank
    D = ([[rj.lift_naive(col[j], ring) for col in proj.cols] for j, rj in enumerate(Z.rings)]
         + [[int(i == k) for k in range(Y.rank)] for i in range(Y.rank)])
    T = _hnf(Y.lf, ring, D, rz)
    if T is None or any(ring.val(T[r][r]) for r in range(rz)):
        raise ValueError("sequence not exact at the middle term")
    return [tuple(ring.lift_naive(row[l], rk) for rk, row in zip(Y.rings, T[rz:]))
            for l in range(rz)]


def _exact_seq_exp(X: FiniteModule, Y: FiniteModule, Z: FiniteModule,
                   incl: ModuleHom, proj: ModuleHom, n: int, rule: str) -> int:
    """Exponent of the canonical map det(X) (x) det(Z) -> det(Y).

    The two-step mechanism: det(Y) = det(X) (x) det(Y // X) via the orbit
    partition, then det(Z) = det(Y // X) via the fiber map induced by
    proj.  On positions: the orbits of Y inside incl(X) add the twists
    of incl(reps of X), and every other orbit of Y // X keeps Y's
    representatives, so it adds the twist of its unique element over a
    representative of Z.  Those elements are the fibers over reps(Z):
    the fiber over z is s(z) + incl(X) for any lift s(z), so the walk
    visits |X| (|Z| - 1) / n positions of Y, not all of Y.

    Exactness is read off generators.  incl is injective (the set of
    its |X| images), |X| |Z| = |Y|, proj o incl vanishes on X's
    generators, so incl(X) lies in the kernel, and proj is onto
    (_section, by Nakayama), so the kernel has |Y| / |Z| = |X|
    elements: it is incl(X).  The section that proves proj onto lifts
    reps(Z).
    """
    if Y.size > Y.lf.enum_bound:
        raise EnumerationBound(f"middle module of size {Y.size} exceeds the bound")
    xs = component_values(X, Y, incl.cols)
    images = Y.positions(xs, X.size)
    if len(set(images)) != X.size:
        raise ValueError("sequence not exact: inclusion is not injective")
    if X.size * Z.size != Y.size:
        raise ValueError("sequence not exact: cardinalities do not multiply")
    if any(any(proj.apply(c)) for c in incl.cols):
        raise ValueError("sequence not exact: proj o incl != 0")
    section = _section(proj)
    if n == 1:
        return 0
    vX, vY, vZ = X.view(n, rule), Y.view(n, rule), Z.view(n, rule)
    twist = vY.twist
    total = sum(twist[images[r]] for r in vX.reps)
    reps = vZ.reps
    lifts = [[v[r] for r in reps] for v in component_values(Z, Y, section)]
    # the longer list is the inner loop
    pairs = zip(lifts, xs) if len(reps) <= X.size else zip(xs, lifts)
    fibers = Y.positions([sums(rj, pair) for rj, pair in zip(Y.rings, pairs)],
                         len(reps) * X.size)
    total += sum(map(twist.__getitem__, fibers))
    return total % n


def exact_seq_iso(X: FiniteModule, Y: FiniteModule, Z: FiniteModule,
                  incl: ModuleHom, proj: ModuleHom, n: int) -> MuScalar:
    """Canonical scalar relating base(det X) (x) base(det Z) to base(det Y)."""
    return MuScalar(n, _exact_seq_exp(X, Y, Z, incl, proj, n, "least"))
