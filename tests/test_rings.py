import pytest

from resforge.fields import field_make
from resforge.rings import ring_make


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
    """Inverse by one Newton step from the residue field, the f > 1 path of RingCtx.inv."""
    x = ring.lift_field(ring.field.inv(ring.reduce_to_field(a)))
    return poly_mul(ring, x, ring.sub(2, poly_mul(ring, a, x)))


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
