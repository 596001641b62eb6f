"""Restriction of scalars: GL_m(Q_p) sees the symbol of Q_{p^m} on its torus.

L = local_field(p, m) has O_L = Z_p[theta]/(poly), poly the integer lift
of L.field.poly.  Multiplication by x = p^v * (c_0 + c_1 theta + ...) in
the basis 1, theta, ..., theta^(m-1) is a matrix M_x in GL_m(Q_p) whose
entries are integers times p^v, so M_x = p^v * U with U in GL_m(Z_p)
when some c_i is a unit.  Every lattice on the torus is then p^k V, and
the quotients (Z_p/p^k)^m and O_L/p^k O_L are one pointed mu_n-set: the
raw commutator {M_x, M_y} of Q_p equals {x, y} of L.  mu_n lies in F_p,
which keeps its encoding inside F_{p^m}, so the two are compared through
mu_embed.  Conjugating by h in GL_m(Q_p) leaves a commutator alone, and
h M_x h^-1 takes the lattices out of the p^k V family, into kappa's
general case.
"""

import random

from resforge.errors import EnumerationBound
from resforge.extension import comm_symbol, get_engine
from resforge.fields import mu_embed
from resforge.lattices import KMat
from resforge.padic import local_field
from resforge.verify import _random_matrix

CASES = ((3, 2), (5, 2), (7, 2), (13, 2), (3, 3))
DRAWS = 6
PREC = 60


def _orders(p):
    return [n for n in range(2, p) if (p - 1) % n == 0]


def _draw(rng, p, m):
    """(coefficients in [-p, p), not all divisible by p; v in [-1, 1])."""
    while True:
        c = [rng.randrange(-p, p) for _ in range(m)]
        if any(x % p for x in c):
            return c, rng.randint(-1, 1)


def _times_theta(col, poly):
    """col * theta reduced by the monic integer polynomial poly."""
    m = len(col)
    top = col[-1]
    return [(col[i - 1] if i else 0) - top * poly[i] for i in range(m)]


def mult_matrix(K, poly, c, v):
    """M_x for x = p^v * sum c_i theta^i, entries K.pi(v) * K.from_rational(c)."""
    cols = [list(c)]
    for _ in range(len(c) - 1):
        cols.append(_times_theta(cols[-1], poly))
    rows = [[K.pi(v, PREC) * K.from_rational(col[i], PREC) if col[i] else 0 for col in cols]
            for i in range(len(c))]
    return KMat.from_rows(K, rows, PREC)


def pairs():
    """(p, m, n, M_x, M_y, the value {x, y}_L in F_p) for every draw, from random.Random(1)."""
    rng = random.Random(1)
    for p, m in CASES:
        K, L = local_field(p), local_field(p, m)
        poly = L.field.poly
        for n in _orders(p):
            for _ in range(DRAWS):
                (cx, vx), (cy, vy) = _draw(rng, p, m), _draw(rng, p, m)
                x = L.pi(vx) * L.from_coeffs(cx)
                y = L.pi(vy) * L.from_coeffs(cy)
                want = mu_embed(L.field, comm_symbol(x, y, get_engine(L, n)))
                yield (p, m, n, mult_matrix(K, poly, cx, vx), mult_matrix(K, poly, cy, vy),
                       want)


def test_multiplication_matrices_commute_and_represent_theta():
    # theta^m = -sum poly_i theta^i: M_theta's last column holds -poly
    K = local_field(3)
    poly = local_field(3, 3).field.poly
    M = mult_matrix(K, poly, [0, 1, 0], 0)
    assert [M.entry_kelem(i, 2) is None or M.entry_kelem(i, 2) == K.from_rational(-poly[i])
            for i in range(3)] == [True] * 3
    Mx, My = mult_matrix(K, poly, [1, 2, -1], 1), mult_matrix(K, poly, [2, 0, 1], -1)
    assert Mx @ My == My @ Mx


def test_torus_commutators_equal_the_symbol_of_the_unramified_extension():
    seen = 0
    for p, m, n, Mx, My, want in pairs():
        got = mu_embed(local_field(p).field, comm_symbol(Mx, My, get_engine(local_field(p), n)))
        assert got == want, (p, m, n)
        seen += 1
    assert seen == 72


def test_conjugated_torus_commutators_keep_the_known_value():
    """h M_x h^-1 and h M_y h^-1 commute and have the commutator of x and y.
    A draw may run past the enumeration bound, and none may run out of
    digits: the tally is pinned."""
    rng = random.Random(2)
    agree = bound = 0
    for p, m, n, Mx, My, want in pairs():
        K = local_field(p)
        h = _random_matrix(K, rng, m, (-1, 1))
        hinv = h.inverse()
        F, G = h @ Mx @ hinv, h @ My @ hinv
        try:
            got = mu_embed(K.field, comm_symbol(F, G, get_engine(K, n)))
        except EnumerationBound:
            bound += 1
            continue
        assert got == want, (p, m, n)
        agree += 1
    assert (agree, bound) == (66, 6)

