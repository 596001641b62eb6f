import copy
import pickle
import random

import pytest

from resforge.fields import field_make, power_residue_char
from resforge.modules import FiniteModule, module_as_muset, module_aut_as_musetaut, scalar_hom
from resforge.musets import (MuSet, MuSetAut, OrbitView, aut_abelianize, aut_compose,
                             aut_delta, aut_extend, aut_to_permutation, iso_scalar,
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


# The label walk: the elements of an abstract set are None (the marked
# point) and (i, e), meaning zeta^e * x_i; the closed forms of the library
# (aut_to_permutation, aut_extend) are checked against these three readers.


def elements(X):
    yield None
    for i in range(X.t):
        for e in range(X.n):
            yield (i, e)


def index(X, elt):
    if elt is None:
        return 0
    i, e = elt
    return 1 + i * X.n + e


def apply(f, elt):
    """x_i -> zeta^mu[i] * x_sigma[i], extended equivariantly."""
    if elt is None:
        return None
    i, e = elt
    return (f.sigma[i], (e + f.mu[i]) % f.X.n)


def inversion_sign(perm):
    n = len(perm)
    inv = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
    return -1 if inv % 2 else 1


def test_muset_is_an_immutable_value():
    """Fields n and t, checked; equal and hashed by (n, t), for the exact
    class only; printed like a dataclass; no attribute can be set or
    deleted; copies and pickles round-trip."""
    X = MuSet(2, 1)
    assert (X.n, X.t, X.size) == (2, 1, 3)
    assert X == MuSet(n=2, t=1) == MuSet(2, t=1)
    assert X != MuSet(2, 2) and X != MuSet(3, 1) and X != (2, 1)
    assert hash(X) == hash(MuSet(n=2, t=1)) == hash((2, 1))
    assert len({X, MuSet(2, 1), MuSet(1, 2), MuSet(2, 0)}) == 3
    assert repr(X) == "MuSet(n=2, t=1)" and repr(MuSet(5, 0)) == "MuSet(n=5, t=0)"

    class Sub(MuSet):
        __slots__ = ()

    assert Sub(2, 1) != X and X != Sub(2, 1) and Sub(2, 1) == Sub(2, 1) != Sub(3, 1)
    assert hash(Sub(2, 1)) == hash(X) and repr(Sub(2, 1)).endswith("Sub(n=2, t=1)")
    for n, t in ((0, 1), (-1, 0), (2, -1)):
        with pytest.raises(ValueError, match="bad mu_n-set parameters"):
            MuSet(n, t)
    for name in ("n", "t", "size", "other"):
        with pytest.raises(AttributeError):
            setattr(X, name, 1)
        with pytest.raises(AttributeError):
            delattr(X, name)
    assert (X.n, X.t) == (2, 1)
    assert copy.copy(X) == copy.deepcopy(X) == pickle.loads(pickle.dumps(X)) == X


def test_muset_aut_is_an_immutable_value():
    """Fields X, sigma and mu, checked, with mu reduced mod n; equal and
    hashed by (X, sigma, mu), for the exact class only; printed like a
    dataclass; no attribute can be set or deleted; copies and pickles
    round-trip."""
    X = MuSet(2, 2)
    f = MuSetAut(X, (1, 0), (2, -1))
    assert (f.X, f.sigma, f.mu) == (X, (1, 0), (0, 1))
    assert f == MuSetAut(X=X, sigma=(1, 0), mu=(0, 1)) == MuSetAut(X, sigma=(1, 0), mu=(4, 3))
    assert f != MuSetAut(X, (1, 0), (1, 1)) and f != MuSetAut(X, (0, 1), (0, 1))
    assert f != MuSetAut(MuSet(4, 2), (1, 0), (0, 1)) and f != (X, (1, 0), (0, 1))
    assert hash(f) == hash(MuSetAut(X, (1, 0), (6, 5))) == hash((X, (1, 0), (0, 1)))
    assert repr(f) == "MuSetAut(X=MuSet(n=2, t=2), sigma=(1, 0), mu=(0, 1))"
    assert repr(MuSetAut(MuSet(3, 0), (), ())) == "MuSetAut(X=MuSet(n=3, t=0), sigma=(), mu=())"
    for sigma, mu in (((0,), (0, 0)), ((0, 1), (0,)), ((0, 1, 2), (0, 0, 0))):
        with pytest.raises(ValueError, match="wrong data length"):
            MuSetAut(X, sigma, mu)
    for sigma in ((0, 0), (1, 2), (-1, 0)):
        with pytest.raises(ValueError, match="sigma is not a permutation"):
            MuSetAut(X, sigma, (0, 0))
    for name in ("X", "sigma", "mu", "other"):
        with pytest.raises(AttributeError):
            setattr(f, name, (0, 0))
        with pytest.raises(AttributeError):
            delattr(f, name)
    assert (f.X, f.sigma, f.mu) == (X, (1, 0), (0, 1))
    for g in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
        assert g == f and g.X == X and hash(g) == hash(f)


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
    g = module_aut_as_musetaut(scalar_hom(T, 3), 2)
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


def reference_extend(f, Y):
    """f x Id on the product, read on labels: the orbits of the pairs (a, b)
    walked in label order, each from its least pair, and the image of each
    representative located by walking its orbit."""
    X, n = f.X, f.X.n

    def zeta(elt):
        return None if elt is None else (elt[0], (elt[1] + 1) % n)

    where, reps = {}, []
    for lbl in [(a, b) for a in elements(X) for b in elements(Y)][1:]:
        if lbl not in where:
            y = lbl
            for e in range(n):
                where[y] = (len(reps), e)
                y = (zeta(y[0]), zeta(y[1]))
            reps.append(lbl)
    images = [where[(apply(f, a), b)] for a, b in reps]
    return MuSetAut(MuSet(n, len(reps)), tuple(i for i, _ in images), tuple(e for _, e in images))


def test_product_extension_equals_the_label_walk():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randint(1, 4)
        X, Y = MuSet(n, rng.randint(0, 4)), MuSet(n, rng.randint(0, 4))
        f = rand_aut(rng, X)
        assert aut_extend(f, Y) == reference_extend(f, Y)


def test_position_maps_that_are_not_bijections_of_orbits_are_rejected():
    """images[x] is the position of the image of x: a representative sent
    to the marked point or past the last position, or two orbits sent
    onto one, is refused by as_aut and by iso_scalar alike."""
    T = FiniteModule(local_field(7), (1,))
    view = T.view(2)
    r0 = view.reps[0]
    for images in ([0] * 7, [0] + [7] * 6):
        with pytest.raises(ValueError, match="map does not preserve the nonzero part"):
            view.as_aut(images)
        with pytest.raises(ValueError, match="map does not preserve the nonzero part"):
            iso_scalar(view, images)
    onto_one = [0] + [r0] * 6
    with pytest.raises(ValueError, match="map is not bijective on orbits"):
        view.as_aut(onto_one)
    with pytest.raises(ValueError, match="map is not bijective on orbits"):
        iso_scalar(view, onto_one)
    assert view.as_aut(list(range(7))) == identity(view.muset)
    assert iso_scalar(view, scalar_hom(T, 3).images()) == 1   # 3 is a non-residue mod 7


def test_orbit_view_checks_freeness_by_position():
    with pytest.raises(ValueError, match="orbit of position 1 has length 1, not 2"):
        OrbitView(2, [0, 1, 2])
    with pytest.raises(ValueError, match="orbit of position 1 has length 3, not 2"):
        OrbitView(2, [0, 2, 3, 1])
    with pytest.raises(ValueError, match="the digit rule needs"):
        OrbitView(2, [0, 2, 1], "digit")
    view = OrbitView(2, [0, 2, 1, 4, 3], "second_least")
    assert (list(view.reps), list(view.orbit), list(view.twist)) == ([2, 4], [-1, 0, 0, 1, 1],
                                                                     [0, 1, 0, 1, 0])


def test_permutation_and_sign():
    X = MuSet(2, 1)
    swap = MuSetAut(X, (0,), (1,))       # x <-> -x
    assert perm_sign(swap) == -1
    assert aut_delta(swap).exp == 1
    X2 = MuSet(2, 2)
    g = MuSetAut(X2, (1, 0), (0, 0))     # two disjoint transpositions
    assert perm_sign(g) == 1
    assert perm_sign(identity(X2)) == 1


def test_permutation_equals_the_label_walk():
    """The closed form of aut_to_permutation against the label walk."""
    rng = random.Random(6)
    for _ in range(200):
        X = MuSet(rng.randint(1, 5), rng.randint(0, 6))
        f = rand_aut(rng, X)
        want = [0] * X.size
        for elt in elements(X):
            want[index(X, elt)] = index(X, apply(f, elt))
        assert aut_to_permutation(f) == tuple(want)


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
    g = module_aut_as_musetaut(scalar_hom(FiniteModule(lf, (1,)), 3), 2)
    assert aut_delta(g).exp == 1


def test_transfer_lemma_exhaustive():
    for p, f in [(2, 2), (5, 1), (7, 1), (3, 2), (13, 1), (5, 2), (3, 3), (7, 2)]:
        lf = local_field(p, f)
        q = lf.q
        T = FiniteModule(lf, (1,))
        for n in [n for n in range(1, q) if (q - 1) % n == 0]:
            for a in range(1, q):
                g = module_aut_as_musetaut(scalar_hom(T, a, from_ring=lf.ring(1)), n)
                assert aut_delta(g) == power_residue_char(lf.field, a, n)


def test_non_bijective_module_map_rejected():
    lf = local_field(7)
    T = FiniteModule(lf, (1,))
    with pytest.raises(ValueError):
        module_aut_as_musetaut(scalar_hom(T, 0), 2)
