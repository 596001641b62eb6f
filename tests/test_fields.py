import copy
import pickle
import random
from itertools import permutations

import pytest

from resforge.errors import EnumerationBound
from resforge.fields import (FieldCtx, MuScalar, _poly_mulmod, field_det,
                             field_make, is_prime, mu_dlog, mu_embed,
                             power_residue_char, zolotarev_sign)


def brute_order(ctx, x):
    o, y = 1, x
    while y != 1:
        y = ctx.mul(y, x)
        o += 1
    return o


def inversion_sign(perm):
    n = len(perm)
    inv = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
    return -1 if inv % 2 else 1


def test_field_make_canonical_generators():
    assert field_make(7).g == 3   # least primitive root mod 7
    assert field_make(13).g == 2  # least primitive root mod 13
    c = field_make(2, 2)
    assert c.q == 4
    assert brute_order(c, c.g) == 3


# every f > 1 field with q <= 64
SMALL_EXTENSIONS = [(2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 2), (3, 3),
                    (5, 2), (7, 2)]


def oracle_mul(c, a, b):
    # polynomial product mod the defining polynomial, the pre-table method
    return c.encode(_poly_mulmod(c.decode(a), c.decode(b), c.poly, c.p))


@pytest.mark.parametrize("p,f", SMALL_EXTENSIONS)
def test_table_arithmetic_matches_polynomial_oracle(p, f):
    c = field_make(p, f)
    q = c.q
    for a in range(q):
        for b in range(q):
            assert c.mul(a, b) == oracle_mul(c, a, b), (a, b)
    for a in range(q):
        powers = [1]  # a^0, a^1, ... by repeated oracle products
        for _ in range(2 * q):
            powers.append(oracle_mul(c, powers[-1], a))
        for e in range(2 * q + 1):
            assert c.pow(a, e) == powers[e], (a, e)
        if a == 0:
            with pytest.raises(ZeroDivisionError):
                c.pow(a, -1)
            continue
        inv = next(x for x in range(1, q) if oracle_mul(c, a, x) == 1)
        assert c.inv(a) == inv
        inv_powers = [1]
        for _ in range(2 * q):
            inv_powers.append(oracle_mul(c, inv_powers[-1], inv))
        for e in range(1, 2 * q + 1):
            assert c.pow(a, -e) == inv_powers[e], (a, -e)


@pytest.mark.parametrize("p,f", [(2, 9), (3, 5), (11, 2), (13, 3), (31, 2)])
def test_antilog_table_is_the_powers_of_g(p, f):
    # lane widths 3 to 6 bits, halves of equal and unequal size
    c = field_make(p, f)
    g = c.decode(c.g)
    y = c.decode(1)
    for k in range(c.q - 1):
        a = c.encode(y)
        assert c._exp[k] == c._exp[k + c.q - 1] == a and c._log[a] == k
        y = _poly_mulmod(y, g, c.poly, p)
    assert c.encode(y) == 1


def test_canonical_generators_pinned():
    pinned = {(2, 2): 2, (2, 3): 2, (3, 2): 4, (3, 3): 3, (5, 2): 6, (7, 2): 9}
    for (p, f), g in pinned.items():
        assert field_make(p, f).g == g


def test_inverse_of_zero_raises():
    for p, f in [(7, 1), (2, 2), (3, 2), (5, 2)]:
        c = field_make(p, f)
        with pytest.raises(ZeroDivisionError):
            c.inv(0)
        with pytest.raises(ZeroDivisionError):
            c.pow(0, -2)
        assert c.pow(0, 0) == 1 and c.pow(0, 3) == 0


def test_power_tables_reject_a_non_generator():
    c = field_make(3, 2)
    assert c.pow(2, 2) == 1  # 2 = -1 has order 2, not 8
    with pytest.raises(ArithmeticError):
        FieldCtx(3, 2, c.poly, 2)


def test_field_make_rejects_bad_input():
    with pytest.raises(ValueError):
        field_make(6)
    with pytest.raises(ValueError):
        field_make(7, 0)
    with pytest.raises(EnumerationBound):
        field_make(2, 40)


def test_generator_order_is_maximal():
    for p, f in [(3, 1), (5, 1), (7, 1), (2, 2), (3, 2), (5, 2), (3, 3), (7, 2)]:
        c = field_make(p, f)
        assert brute_order(c, c.g) == c.q - 1


def test_field_arithmetic_axioms_f2():
    c = field_make(3, 2)
    elts = range(c.q)
    for a in elts:
        for b in elts:
            assert c.mul(a, b) == c.mul(b, a)
            assert c.add(a, b) == c.add(b, a)
        if a:
            assert c.mul(a, c.inv(a)) == 1


def test_mu_embed_dlog_roundtrip():
    c7 = field_make(7)
    assert mu_embed(c7, MuScalar(2, 1)) == 6  # -1 mod 7
    c13 = field_make(13)
    s = mu_dlog(c13, 3, 3)
    assert s.exp in (1, 2)
    assert mu_embed(c13, s) == 3
    assert pow(3, 3, 13) == 1  # oracle: 3 is a cube root of 1
    # n = 1 collapses everything
    assert mu_dlog(c7, 1, 1).exp == 0
    for p, f in [(7, 1), (13, 1), (3, 2)]:
        c = field_make(p, f)
        for n in [n for n in range(1, c.q) if (c.q - 1) % n == 0]:
            for e in range(n):
                assert mu_dlog(c, mu_embed(c, MuScalar(n, e)), n).exp == e


def test_mu_dlog_rejects_non_roots():
    c = field_make(7)
    with pytest.raises(ValueError):
        mu_dlog(c, 3, 2)  # 3 is not a square root of 1 mod 7
    with pytest.raises(ValueError):
        mu_dlog(c, 1, 4)  # 4 does not divide 6


def test_power_residue_char_examples():
    c7 = field_make(7)
    assert pow(3, 3, 7) == 6  # oracle: Euler criterion
    assert power_residue_char(c7, 3, 2).exp == 1
    c13 = field_make(13)
    assert pow(2, 4, 13) == 3  # oracle
    assert mu_embed(c13, power_residue_char(c13, 2, 3)) == 3
    assert power_residue_char(c7, 1, 2).is_identity
    with pytest.raises(ValueError):
        power_residue_char(c7, 0, 2)
    with pytest.raises(ValueError):
        power_residue_char(c7, 3, 4)


def test_power_residue_char_is_homomorphism():
    for p, f in [(3, 1), (5, 1), (7, 1), (13, 1), (2, 2), (3, 2), (5, 2), (7, 2)]:
        c = field_make(p, f)
        q = c.q
        if q > 49:
            continue
        for n in [n for n in range(1, q) if (q - 1) % n == 0]:
            for x in range(1, q):
                for y in range(1, q):
                    lhs = power_residue_char(c, c.mul(x, y), n)
                    rhs = power_residue_char(c, x, n) * power_residue_char(c, y, n)
                    assert lhs == rhs


def test_zolotarev_examples_and_oracle():
    c7 = field_make(7)
    perm3 = [c7.mul(3, x) for x in range(7)]
    assert inversion_sign(perm3) == -1  # independent oracle
    assert zolotarev_sign(c7, 3) == -1
    assert zolotarev_sign(c7, 2) == 1   # 2 = 3^2 is a square
    assert zolotarev_sign(c7, 1) == 1


def test_zolotarev_matches_euler_all_odd_q_to_49():
    for p, f in [(3, 1), (5, 1), (7, 1), (11, 1), (13, 1), (17, 1), (19, 1),
                 (23, 1), (29, 1), (31, 1), (37, 1), (41, 1), (43, 1), (47, 1),
                 (3, 2), (5, 2), (7, 2), (3, 3)]:
        c = field_make(p, f)
        for a in range(1, c.q):
            sign = zolotarev_sign(c, a)
            perm = [c.mul(a, x) for x in range(c.q)]
            assert sign == inversion_sign(perm)
            euler = 1 if power_residue_char(c, a, 2).exp == 0 else -1
            assert sign == euler


@pytest.mark.parametrize("p,f", [(2, 1), (7, 1), (2, 3), (3, 2), (5, 2)])
def test_signed_monomial_is_mul_pow_and_neg(p, f):
    """(-1)^s * x^i * y^j in one step equals mul, pow and neg composed, for
    every pair of units, i, j in [-3, 3] and s in {0, 1}: at p = 2 that
    is -1 = 1, and for f > 1 the log path."""
    c = field_make(p, f)
    exps = range(-3, 4)
    for x in range(1, c.q):
        xs = [c.pow(x, i) for i in exps]
        for y in range(1, c.q):
            ys = [c.pow(y, j) for j in exps]
            for i, xi in zip(exps, xs):
                for j, yj in zip(exps, ys):
                    r = c.mul(xi, yj)
                    assert c.signed_monomial(x, i, y, j, 0) == r, (x, i, y, j)
                    assert c.signed_monomial(x, i, y, j, 1) == c.neg(r), (x, i, y, j)


def test_mu_scalar_group_laws():
    a = MuScalar(6, 4)
    b = MuScalar(6, 5)
    assert (a * b).exp == 3
    assert (a * a.inverse()).is_identity
    assert (a * a * a).exp == 0
    with pytest.raises(ValueError):
        a * MuScalar(4, 1)


def test_mu_scalar_is_an_immutable_value():
    """Fields n and exp, exp reduced mod n; equal and hashed by (n, exp);
    no attribute can be set or deleted; copies and pickles round-trip."""
    a = MuScalar(6, 10)
    assert (a.n, a.exp) == (6, 4)
    assert MuScalar(6, -1).exp == 5 and MuScalar(1, 7).exp == 0
    for n in (0, -3):
        with pytest.raises(ValueError, match="n must be positive"):
            MuScalar(n, 1)
    assert a == MuScalar(6, 4) == MuScalar(6, -2)
    assert a != MuScalar(3, 4) and a != MuScalar(6, 5) and a != (6, 4)
    assert hash(a) == hash(MuScalar(6, -2)) == hash((6, 4))
    assert len({a, MuScalar(6, 4), MuScalar(6, 5), MuScalar(12, 4)}) == 3
    for name in ("n", "exp", "other"):
        with pytest.raises(AttributeError):
            setattr(a, name, 1)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert (a.n, a.exp) == (6, 4)
    assert copy.copy(a) == copy.deepcopy(a) == pickle.loads(pickle.dumps(a)) == a
    assert (a * MuScalar(6, 5), a.inverse()) == (MuScalar(6, 3), MuScalar(6, 2))
    with pytest.raises(ValueError, match="mismatched root-of-unity orders"):
        a * MuScalar(4, 1)
    assert MuScalar(6, 6).is_identity and not a.is_identity
    assert repr(a) == "zeta_6^4" and repr(MuScalar(2, -1)) == "zeta_2^1"


def leibniz_det(ctx, rows):
    """sum over permutations s of sign(s) * prod_i rows[i][s(i)]."""
    total = 0
    for perm in permutations(range(len(rows))):
        term = 1
        for i, j in enumerate(perm):
            term = ctx.mul(term, rows[i][j])
        total = ctx.add(total, term if inversion_sign(perm) == 1 else ctx.neg(term))
    return total


@pytest.mark.parametrize("p,f", [(7, 1), (3, 2)])
def test_field_det_equals_leibniz(p, f):
    c = field_make(p, f)
    rng = random.Random(p * f)
    for m in (1, 2, 3):
        for _ in range(40):
            rows = [[rng.randrange(c.q) for _ in range(m)] for _ in range(m)]
            assert field_det(c, rows) == leibniz_det(c, rows), rows
    row = [1, 2, 3]
    singular = [row, [c.mul(c.g, x) for x in row], [5, 1, 0]]   # row 2 is g * row 1
    assert field_det(c, singular) == leibniz_det(c, singular) == 0
