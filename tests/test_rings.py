import random
from math import gcd

import pytest

from resforge.fields import FieldCtx, field_make
from resforge.padic import LocalField
from resforge.rings import RingCtx, _vp, ring_make


def poly_mul(ring, a, b):
    """Product in the Galois ring by polynomial multiplication, the f > 1 path of RingCtx.mul."""
    A, B = ring.decode(a), ring.decode(b)
    pN, f = ring.pN, ring.f
    res = [0] * (2 * f - 1)
    for i, ai in enumerate(A):
        for j, bj in enumerate(B):
            res[i + j] = (res[i + j] + ai * bj) % pN
    for k in range(2 * f - 2, f - 1, -1):
        c, res[k] = res[k], 0
        for i in range(f):
            res[k - f + i] = (res[k - f + i] - c * ring.poly[i]) % pN
    return ring.encode(res[:f])


def poly_pow(ring, a, e):
    acc = 1
    for _ in range(e):
        acc = poly_mul(ring, acc, a)
    return acc


def newton_inv(ring, a):
    """Inverse by Newton steps from the residue field, each doubling the
    known pi-digits; built from the reference kernels only."""
    k = ring.field
    x = ref_lift_naive(k, k.inv(ref_reduce_to(ring, a, k)), ring)
    two = ring.encode([2])
    for _ in range(max(1, (ring.N - 1).bit_length())):
        x = poly_mul(ring, x, ref_sub(ring, two, poly_mul(ring, a, x)))
    return x


# Reference kernels: each decodes its operands, works on the coefficient
# list and encodes the result, sharing no code with RingCtx's one-pass
# kernels.


def ref_add(ring, a, b):
    return ring.encode([x + y for x, y in zip(ring.decode(a), ring.decode(b))])


def ref_sub(ring, a, b):
    return ring.encode([x - y for x, y in zip(ring.decode(a), ring.decode(b))])


def ref_neg(ring, a):
    return ring.encode([-x for x in ring.decode(a)])


def ref_mul_pk(ring, a, k):
    return ring.encode([c * ring.p**k for c in ring.decode(a)])


def ref_div_pk(ring, a, k):
    coeffs = ring.decode(a)
    if any(c % ring.p**k for c in coeffs):
        raise ValueError("not divisible by pi^k")
    return ring.encode([c // ring.p**k for c in coeffs])


def ref_val(ring, a):
    """_vp(gcd(*decode(a)), p), the valuation the decode list gives; N at 0."""
    if a == 0:
        return ring.N
    return _vp(gcd(*ring.decode(a)), ring.p)


def ref_reduce_to(ring, a, other):
    if other.N > ring.N:
        raise ValueError("cannot reduce to higher precision")
    return other.encode(ring.decode(a))


def ref_lift_naive(ring, a, other):
    return other.encode(ring.decode(a))


def coeff_val(ring, a):
    """The least p-adic valuation of a nonzero coefficient."""
    vals = []
    for c in ring.decode(a):
        v = 0
        while c and c % ring.p == 0:
            c //= ring.p
            v += 1
        vals.append(v if c else ring.N)
    return min(vals)


@pytest.mark.parametrize("p,f", [(3, 2), (5, 2), (3, 3), (7, 2)])
def test_residue_ring_arithmetic_equals_the_polynomial_path(p, f):
    ring = ring_make(field_make(p, f), 1)
    q = ring.size
    for a in range(q):
        for b in range(q):
            assert ring.mul(a, b) == poly_mul(ring, a, b), (a, b)
    for a in range(1, q):
        assert ring.inv(a) == newton_inv(ring, a), a
        for e in (0, 1, 2, 5, q - 2, q - 1, q):
            assert ring.pow(a, e) == poly_pow(ring, a, e), (a, e)
            assert ring.pow(a, -e) == poly_pow(ring, newton_inv(ring, a), e), (a, -e)
    assert ring.pow(0, 3) == 0 and ring.pow(0, 0) == 1
    with pytest.raises(ZeroDivisionError):
        ring.inv(0)
    with pytest.raises(ZeroDivisionError):
        ring.pow(0, -1)


@pytest.mark.parametrize("N", [2, 5, 24])
@pytest.mark.parametrize("p,f", [(3, 2), (5, 2), (3, 3), (7, 2)])
def test_galois_ring_arithmetic_equals_the_polynomial_oracle(p, f, N):
    ring = ring_make(field_make(p, f), N)
    assert type(ring) is RingCtx and ring.N == N
    rng = random.Random(1000 * p + 10 * f + N)
    elems = [rng.randrange(ring.size) for _ in range(40)]
    elems += [ring.mul_pk(a, rng.randrange(1, N + 1)) for a in elems[:10]]
    units = [a for a in elems if ring.val(a) == 0]
    assert len(units) >= 20
    for a, b in zip(elems, reversed(elems)):
        assert ring.mul(a, b) == poly_mul(ring, a, b), (a, b)
        assert ring.val(a) == coeff_val(ring, a), a
    for a in units:
        inv = ring.inv(a)
        assert inv == newton_inv(ring, a), a
        assert poly_mul(ring, a, inv) == 1, a
        for e in (0, 1, 2, 7, 13):
            assert ring.pow(a, e) == poly_pow(ring, a, e), (a, e)
            assert ring.pow(a, -e) == poly_pow(ring, inv, e), (a, -e)
    for a in elems:
        if ring.val(a):
            with pytest.raises(ZeroDivisionError):
                ring.inv(a)
    assert ring.pow(0, 3) == 0 and ring.pow(0, 0) == 1


@pytest.mark.parametrize("p,f", [(7, 1), (2, 2), (3, 2), (5, 2), (2, 3)])
def test_mul_table_lists_every_product_in_encoding_order(p, f):
    """The field reads its tables (f > 1), the rings multiply; 0 and the
    zeta_n that module views and the walk of O/pi scale by included."""
    lf = LocalField(p, f)
    for ring in (lf.field, lf.ring(2), lf.ring(3)):
        for a in {0, 1, ring.size - 1, ring.zeta(lf.q - 1), lf.field.g}:
            assert ring.mul_table(a) == [ring.mul(a, c) for c in range(ring.size)], (ring, a)


@pytest.mark.parametrize("p,f", [(7, 1), (3, 2), (5, 2)])
def test_the_residue_field_is_the_ring_at_precision_one(p, f):
    assert issubclass(FieldCtx, RingCtx)
    lf = LocalField(p, f)
    assert lf.ring(1) is lf.field
    assert ring_make(lf.field, 1) is lf.field
    assert lf.field.field is lf.field and lf.field.N == 1 and lf.field.pN == p
    ring = lf.ring(3)
    a = ring.inv(ring.teichmuller(lf.field.g))
    assert ring.reduce_to(a, lf.field) == lf.field.inv(lf.field.g)
    for x in range(lf.q):
        assert ring.reduce_to(lf.field.lift_naive(x, ring), lf.field) == x
        assert lf.field.teichmuller(x) == x


@pytest.mark.parametrize("p,f", [(7, 1), (3, 2), (5, 2)])
def test_matrix_product_reduces_operands_of_higher_precision(p, f):
    # operands encoded at precisions 6 and 4, product at 3, against
    # reduce-first then add and multiply entry by entry
    lf = LocalField(p, f)
    rng = random.Random(p + f)
    ring_a, ring_b, ring = lf.ring(6), lf.ring(4), lf.ring(3)
    for m, k, n in ((1, 1, 1), (2, 3, 1), (3, 2, 3)):
        a = [[rng.randrange(ring_a.size) for _ in range(k)] for _ in range(m)]
        b = [[rng.randrange(ring_b.size) for _ in range(n)] for _ in range(k)]
        want = []
        for row in a:
            out = []
            for j in range(n):
                acc = 0
                for x, brow in zip(row, b):
                    acc = ring.add(acc, poly_mul(ring, ring_a.reduce_to(x, ring),
                                                 ring_b.reduce_to(brow[j], ring)))
                out.append(acc)
            want.append(out)
        assert ring.matmul(a, ring_a, b, ring_b) == want
        eye = [[int(i == j) for j in range(n)] for i in range(n)]
        assert ring.matmul(want, ring, eye, ring) == want


def sample_encodings(ring, rng):
    """Seeded encodings: uniform ones, 0, 1, the largest, lifts of residues
    (high digits zero), and coefficient lists with zero or p^N - 1 digits."""
    out = [rng.randrange(ring.size) for _ in range(30)] + [0, 1, ring.size - 1]
    out += [ref_lift_naive(ring.field, rng.randrange(ring.field.size), ring) for _ in range(5)]
    for _ in range(10):
        out.append(ring.encode([rng.choice((0, 1, ring.pN - 1, rng.randrange(ring.pN)))
                                for _ in range(ring.f)]))
    return out


@pytest.mark.parametrize("N", [1, 2, 5, 24])
@pytest.mark.parametrize("p,f", [(3, 2), (5, 2), (7, 2), (3, 3), (2, 4)])
def test_digit_kernels_equal_the_decode_encode_references(p, f, N):
    lf = LocalField(p, f)
    ring = lf.ring(N)
    rng = random.Random(100 * p + 10 * f + N)
    elems = sample_encodings(ring, rng)
    assert ring.val(0) == ref_val(ring, 0) == N
    for _ in range(20):   # non-units whose digits have mixed valuations
        x = ring.encode([rng.randrange(p) * p**rng.randrange(N) for _ in range(f)])
        assert ring.val(x) == ref_val(ring, x), x
    for a, b in zip(elems, reversed(elems)):
        assert ring.val(a) == ref_val(ring, a), a
        assert ring.add(a, b) == ref_add(ring, a, b), (a, b)
        assert ring.sub(a, b) == ref_sub(ring, a, b), (a, b)
        assert ring.neg(a) == ref_neg(ring, a), a
        for k in (0, 1, N - 1, N):
            m = ring.mul_pk(a, k)
            assert m == ref_mul_pk(ring, a, k), (a, k)
            assert ring.val(m) == ref_val(ring, m), (a, k)
            assert ring.div_pk(m, k) == ref_div_pk(ring, m, k), (a, k)
        if ring.val(a) < N:
            k = ring.val(a) + 1
            with pytest.raises(ValueError):
                ref_div_pk(ring, a, k)
            with pytest.raises(ValueError):
                ring.div_pk(a, k)
        for M in range(1, N + 3):
            other = lf.ring(M)
            assert ring.lift_naive(a, other) == ref_lift_naive(ring, a, other), (a, M)
            if M <= N:
                assert ring.reduce_to(a, other) == ref_reduce_to(ring, a, other), (a, M)
            else:
                with pytest.raises(ValueError):
                    ring.reduce_to(a, other)
    for a in elems:
        if ring.val(a):
            with pytest.raises(ZeroDivisionError):
                ring.inv(a)
        else:
            inv = ring.inv(a)
            assert inv == newton_inv(ring, a), a
            assert poly_mul(ring, a, inv) == 1, a


@pytest.mark.parametrize("p,f", [(3, 2), (2, 4)])
def test_inverse_solve_is_one_path_at_every_precision(p, f):
    """A bare RingCtx at N = 1 inverts by the same solve as N >= 2, and
    agrees with the field's tables."""
    field = field_make(p, f)
    ring = RingCtx(field, 1)
    for a in range(1, field.size):
        assert ring.inv(a) == field.inv(a), a


def test_inverse_without_a_unit_pivot_is_an_error(monkeypatch):
    """The solve never returns a silent wrong value: with the unit check
    bypassed, a non-unit has no unit pivot and raises."""
    ring = LocalField(3, 2).ring(5)
    monkeypatch.setattr(RingCtx, "val", lambda self, a: 0)
    for a in (3, ring.mul_pk(ring.encode([1, 2]), 2), 0):
        with pytest.raises(ArithmeticError, match="unit pivot"):
            ring.inv(a)
