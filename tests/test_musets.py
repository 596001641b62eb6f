import random

import pytest

from resforge.fields import field_make, power_residue_char
from resforge.modules import FiniteModule, module_as_muset, module_aut_as_musetaut, scalar_hom
from resforge.musets import (MuSet, MuSetAut, aut_abelianize, aut_compose,
                             aut_delta, aut_extend, aut_to_permutation,
                             muset_product, perm_sign)
from resforge.padic import local_field


def rand_aut(rng, X):
    sig = list(range(X.t))
    rng.shuffle(sig)
    return MuSetAut(X, tuple(sig), tuple(rng.randrange(X.n) for _ in range(X.t)))


def identity(X):
    return MuSetAut(X, tuple(range(X.t)), (0,) * X.t)


def inverse(f):
    """x_j -> zeta^-mu[i] * x_i wherever f sends x_i to zeta^mu[i] * x_j."""
    inv = [0] * f.X.t
    for i, j in enumerate(f.sigma):
        inv[j] = i
    return MuSetAut(f.X, tuple(inv), tuple(-f.mu[i] for i in inv))


def inversion_sign(perm):
    n = len(perm)
    inv = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
    return -1 if inv % 2 else 1


def test_compose_inverse_group_axioms():
    rng = random.Random(0)
    for _ in range(100):
        n, t = rng.randint(1, 6), rng.randint(0, 8)
        X = MuSet(n, t)
        f, g, h = (rand_aut(rng, X) for _ in range(3))
        assert aut_compose(aut_compose(f, g), h) == aut_compose(f, aut_compose(g, h))
        assert aut_compose(f, inverse(f)) == identity(X)
        assert aut_compose(inverse(f), f) == identity(X)


def test_composition_formula_symbolic():
    # ((01), (a,b)) after ((01), (c,d)) = (id, (c+b, d+a))
    n = 11
    X = MuSet(n, 2)
    a, b, c, d = 3, 5, 7, 9
    f = MuSetAut(X, (1, 0), (a, b))
    g = MuSetAut(X, (1, 0), (c, d))
    fg = aut_compose(f, g)
    assert fg.sigma == (0, 1)
    assert fg.mu == ((c + b) % n, (d + a) % n)


def test_twists_add_mod_n():
    X = MuSet(3, 1)
    f = MuSetAut(X, (0,), (1,))
    g = MuSetAut(X, (0,), (2,))
    assert aut_compose(f, g) == identity(X)


def test_delta_examples():
    assert aut_delta(identity(MuSet(4, 3))).is_identity
    assert aut_delta(MuSetAut(MuSet(3, 2), (1, 0), (1, 2))).is_identity
    assert aut_delta(MuSetAut(MuSet(2, 1), (0,), (1,))).exp == 1


def test_delta_is_homomorphism():
    rng = random.Random(1)
    for _ in range(200):
        n, t = rng.randint(1, 6), rng.randint(0, 20)
        X = MuSet(n, t)
        f, g = rand_aut(rng, X), rand_aut(rng, X)
        assert aut_delta(aut_compose(f, g)) == aut_delta(f) * aut_delta(g)


def test_abelianize_examples_and_conjugation_invariance():
    X = MuSet(2, 2)
    d, s = aut_abelianize(identity(X))
    assert d.is_identity and s == 1
    d, s = aut_abelianize(MuSetAut(X, (1, 0), (0, 0)))
    assert d.is_identity and s == -1
    rng = random.Random(2)
    for _ in range(200):
        n, t = rng.randint(1, 5), rng.randint(0, 10)
        Y = MuSet(n, t)
        f, h = rand_aut(rng, Y), rand_aut(rng, Y)
        conj = aut_compose(aut_compose(h, f), inverse(h))
        assert aut_abelianize(conj) == aut_abelianize(f)


def test_abelianization_of_multiplication_on_f7():
    lf = local_field(7)
    T = FiniteModule(lf, (1,))
    g = module_aut_as_musetaut(T, scalar_hom(T, 3), 2)
    d, s = aut_abelianize(g)
    assert d.exp == 1          # 3 is a non-residue mod 7
    assert s in (1, -1)        # the sign component carries no asserted value


def test_product_orbit_count():
    assert muset_product(MuSet(2, 1), MuSet(2, 1)).t == 4
    assert muset_product(MuSet(3, 2), MuSet(3, 0)).t == 2  # X x point = X
    with pytest.raises(ValueError):
        muset_product(MuSet(2, 1), MuSet(3, 1))


def test_product_preserves_delta():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randint(1, 4)
        X, Y = MuSet(n, rng.randint(0, 5)), MuSet(n, rng.randint(0, 5))
        f = rand_aut(rng, X)
        ext = aut_extend(f, Y)
        assert ext.X == muset_product(X, Y)
        assert aut_delta(ext) == aut_delta(f)


def test_permutation_and_sign():
    X = MuSet(2, 1)
    swap = MuSetAut(X, (0,), (1,))       # x <-> -x
    assert perm_sign(swap) == -1
    assert aut_delta(swap).exp == 1
    X2 = MuSet(2, 2)
    g = MuSetAut(X2, (1, 0), (0, 0))     # two disjoint transpositions
    assert perm_sign(g) == 1
    assert perm_sign(identity(X2)) == 1


def test_sign_equals_delta_for_n2():
    rng = random.Random(4)
    for _ in range(1000):
        X = MuSet(2, rng.randint(0, 20))
        f = rand_aut(rng, X)
        want = inversion_sign(list(aut_to_permutation(f)))
        assert perm_sign(f) == want                  # independent sign oracle
        assert want == (1 if aut_delta(f).exp == 0 else -1)


def test_module_as_muset_orbit_counts():
    lf = local_field(7)
    assert module_as_muset(FiniteModule(lf, (1,)), 2).t == 3
    assert module_as_muset(FiniteModule(lf, (2,)), 2).t == 24
    for p, f in [(3, 1), (7, 1), (3, 2)]:
        K = local_field(p, f)
        for exps in [(1,), (2,), (1, 1), (1, 2)]:
            T = FiniteModule(K, exps)
            for n in [d for d in range(1, K.q) if (K.q - 1) % d == 0]:
                assert module_as_muset(T, n) == MuSet(n, len(T.view(n, "least").reps))
            with pytest.raises(ValueError, match="does not divide"):
                module_as_muset(T, K.q)
    g = module_aut_as_musetaut(FiniteModule(lf, (1,)), scalar_hom(FiniteModule(lf, (1,)), 3), 2)
    assert aut_delta(g).exp == 1


def test_transfer_lemma_exhaustive():
    for p, f in [(2, 2), (5, 1), (7, 1), (3, 2), (13, 1), (5, 2), (3, 3), (7, 2)]:
        lf = local_field(p, f)
        q = lf.q
        T = FiniteModule(lf, (1,))
        for n in [n for n in range(1, q) if (q - 1) % n == 0]:
            for a in range(1, q):
                g = module_aut_as_musetaut(T, scalar_hom(T, a, from_ring=lf.ring(1)), n)
                assert aut_delta(g) == power_residue_char(lf.field, a, n)


def test_non_bijective_module_map_rejected():
    lf = local_field(7)
    T = FiniteModule(lf, (1,))
    with pytest.raises(ValueError):
        module_aut_as_musetaut(T, scalar_hom(T, 0), 2)
