"""Canonical isomorphisms of determinant lines of finite modules, as exponents.

Every mu_n-torsor that occurs here is trivialized by a canonical base
point (the tensor of pinned orbit representatives), so each canonical
isomorphism of the theory is materialized as a single exponent: the
scalar by which it moves one canonical base onto another.  No line is
built as an object; a line is named by the module whose determinant it
is.  Composing isomorphisms adds exponents, duals preserve them, and the
pairing of a base with its dual base is 1, so its exponent is 0.

Automorphism determinants are read from residue determinants along the
pi-filtration; orbit enumeration stays as their oracle, _det_exp_brute,
which reads the automorphism's image positions (ModuleHom.images) at the
view's representatives.
Modules are equal when their exponents are, so an isomorphism between
two quotients with the same exponents, as in the extension route's iso
exponents, is an automorphism of one module with one memoized view, and
_det_exp_brute is its enumeration oracle too.
"""
from __future__ import annotations

from itertools import compress
from operator import not_

from .errors import EnumerationBound
from .fields import MuScalar, field_det, power_residue_char
from .modules import FiniteModule, ModuleHom, _check_endo
from .musets import iso_scalar


# ---------------------------------------------------------------------------
# determinants of module automorphisms


def _det_exp_brute(T: FiniteModule, g: ModuleHom, n: int) -> int:
    """delta of g by enumeration, the oracle of _det_exp_fast.

    Any rule serves: moving representative r_i to zeta^k_i * r_i adds k_i
    to the twist of orbit i and -k_i to that of sigma^-1(i), so the sum
    of the twists stays the same.
    """
    _check_endo(T, g)
    view = T.view(n)
    return iso_scalar(view, view, g.images())


def _det_exp_fast(T: FiniteModule, g: ModuleHom, n: int) -> int:
    """Product over the pi-filtration of residue determinants, to the (q-1)/n."""
    field = T.lf.field
    det_total = 1
    for i in range(T.exps[-1] if T.exps else 0):
        idx = [j for j, e in enumerate(T.exps) if e > i]
        rows = [[T.rings[j].reduce_to(g.cols[k][j], field) for k in idx] for j in idx]
        d = field_det(field, rows)
        if d == 0:
            raise ValueError("map is not an automorphism (graded piece singular)")
        det_total = field.mul(det_total, d)
    return power_residue_char(field, det_total, n).exp


def det_of_module_aut(T: FiniteModule, g: ModuleHom, n: int) -> MuScalar:
    """The scalar by which g acts on det(T), along the pi-filtration."""
    _check_endo(T, g)
    return MuScalar(n, _det_exp_fast(T, g, n))


# ---------------------------------------------------------------------------
# exact sequences


def _exact_seq_exp(X: FiniteModule, Y: FiniteModule, Z: FiniteModule,
                   incl: ModuleHom, proj: ModuleHom, n: int, rule: str) -> int:
    """Exponent of the canonical map det(X) (x) det(Z) -> det(Y).

    The two-step mechanism: det(Y) = det(X) (x) det(Y // X) via the orbit
    partition, then det(Z) = det(Y // X) via the fiber map induced by
    proj.  Collapsed into one stream of positions per map: incl's image
    set is proj's kernel exactly when the sequence is exact, the orbits
    of Y inside X add the twists of incl(reps of X), and every other
    orbit of Y // X keeps Y's representatives, so it adds the twist of
    its unique element over a representative of Z.
    """
    if Y.size > Y.lf.enum_bound:
        raise EnumerationBound(f"middle module of size {Y.size} exceeds the bound")
    images = incl.images()
    image = set(images)
    if len(image) != X.size:
        raise ValueError("sequence not exact: inclusion is not injective")
    if X.size * Z.size != Y.size:
        raise ValueError("sequence not exact: cardinalities do not multiply")
    over = proj.images()
    kernel = set(compress(range(Y.size), map(not_, over)))
    if not image <= kernel:
        raise ValueError("sequence not exact: proj o incl != 0")
    if len(kernel) != len(image):
        raise ValueError("sequence not exact at the middle term")
    if n == 1:
        return 0
    vX, vY, vZ = X.view(n, rule), Y.view(n, rule), Z.view(n, rule)
    twist = vY.twist
    total = sum(twist[images[r]] for r in vX.reps)
    is_rep = bytearray(Z.size)
    for r in vZ.reps:
        is_rep[r] = 1
    total += sum(compress(twist, map(is_rep.__getitem__, over)))
    return total % n


def exact_seq_iso(X: FiniteModule, Y: FiniteModule, Z: FiniteModule,
                  incl: ModuleHom, proj: ModuleHom, n: int) -> MuScalar:
    """Canonical scalar relating base(det X) (x) base(det Z) to base(det Y)."""
    return MuScalar(n, _exact_seq_exp(X, Y, Z, incl, proj, n, "least"))
