import copy
import gc
import pickle
import random

import pytest

from resforge.errors import PrecisionError
from resforge.extension import SymbolEngine, cocycle
import resforge.lattices as lattices
from resforge.lattices import (MEMO_CAP, KMat, Lattice, induced_hom, lat_apply,
                               lat_contains_lattice, lat_intersect, lat_sum,
                               principal_lattice, quotient_struct, rel_dim,
                               smith_normal_form, standard_lattice)
from resforge.modules import FiniteModule
from resforge.padic import LocalField, local_field
from resforge.verify import _random_matrix as rand_matrix


@pytest.fixture
def q7():
    return local_field(7)


def rand_lattice(lf, rng, m, vmax=3, prec=60):
    while True:
        try:
            return Lattice(rand_matrix(lf, rng, m, (-vmax, vmax), 0.8, prec))
        except PrecisionError:
            continue


def test_sum_and_intersection_of_standard(q7):
    O2 = standard_lattice(q7, 2)
    assert lat_sum(O2, O2) == O2
    assert lat_intersect(O2, O2) == O2


def test_nested_ideals_m1(q7):
    O = standard_lattice(q7, 1)
    sub = principal_lattice(q7, 1)
    assert lat_sum(O, sub) == O
    assert lat_intersect(O, sub) == sub


def test_diagonal_sum_intersection(q7):
    A = standard_lattice(q7, 2)
    B = Lattice.from_rows(q7, [["7", 0], [0, "1/7"]])
    S, I = lat_sum(A, B), lat_intersect(A, B)
    assert S == Lattice.from_rows(q7, [[1, 0], [0, "1/7"]])
    assert I == Lattice.from_rows(q7, [["7", 0], [0, 1]])


def test_containment_vectors(q7):
    # x lies in A iff it has a class in A/B; solving it in A's basis decides
    Q = quotient_struct(standard_lattice(q7, 2), Lattice.from_rows(q7, [[7, 0], [0, 7]]))
    assert Q.proj(KMat.from_rows(q7, [["7"], ["3"]])) == (0, 3)
    with pytest.raises(ValueError):
        Q.proj(KMat.from_rows(q7, [["1/7"], ["3"]]))


def contains_vector(L, x):
    """x in L iff L contains the lattice x and pi^hi V span, for L's hi."""
    m = L.m
    pad = [[L.lf.pi(L.hi) if i == j else 0 for j in range(m)] for i in range(m)]
    X = KMat.from_rows(L.lf, [[x.entry_kelem(i, 0) or 0] + pad[i] for i in range(m)], 60)
    return lat_contains_lattice(L, Lattice(X))


def test_quotient_examples(q7):
    Q = quotient_struct(standard_lattice(q7, 1), principal_lattice(q7, 1))
    assert Q.module.exps == (1,) and Q.module.size == 7
    Q2 = quotient_struct(standard_lattice(q7, 2),
                         Lattice.from_rows(q7, [["7", 0], [0, "49"]]))
    assert Q2.module.exps == (1, 2) and Q2.module.size == 7**3
    Q3 = quotient_struct(standard_lattice(q7, 2),
                         Lattice.from_rows(q7, [[7, 7], [0, 7]]))
    assert Q3.module.exps == (1, 1)   # all entries divisible by 7, det 49


def test_quotient_requires_containment(q7):
    with pytest.raises(ValueError, match="not contained"):
        quotient_struct(principal_lattice(q7, 1), standard_lattice(q7, 1))


def test_projection_kernel_is_sublattice(q7):
    A = standard_lattice(q7, 2)
    B = Lattice.from_rows(q7, [[7, 7], [0, 7]])
    Q = quotient_struct(A, B)
    zero = Q.module.zero
    rng = random.Random(0)
    for _ in range(30):
        x = KMat.from_rows(q7, [[rng.randint(0, 48)] for _ in range(2)])
        assert (Q.proj(x) == zero) == contains_vector(B, x)
    for t in Q.module.elements():
        assert Q.proj(Q.lift(t)) == t


def test_rel_dim_examples(q7):
    O = standard_lattice(q7, 1)
    sub = principal_lattice(q7, 1)
    assert rel_dim(O, sub, 2) == 3
    assert rel_dim(sub, O, 2) == -3
    assert rel_dim(O, O, 2) == 0
    assert rel_dim(O, sub, 1) == 6
    assert rel_dim(O, sub, 3) == 2


def test_orbit_counts_refuse_an_n_that_does_not_divide_q_minus_1(q7):
    """mu_n lies in F_7^x only for n | 6: rel_dim and FiniteModule.dim
    refuse n = 4 with the message of module_as_muset and view, where
    (7 - 1) / 4 would have been floored to 1."""
    O, sub = standard_lattice(q7, 1), principal_lattice(q7, 1)
    for n in (4, 5, 7, 0):
        with pytest.raises(ValueError, match=f"^n = {n} does not divide q - 1 = 6$"):
            rel_dim(O, sub, n)
        with pytest.raises(ValueError, match=f"^n = {n} does not divide q - 1 = 6$"):
            FiniteModule(q7, (1,)).dim(n)
    assert [FiniteModule(q7, (1,)).dim(n) for n in (1, 2, 3, 6)] == [6, 3, 2, 1]


def test_a_lattice_of_rank_zero_is_refused(q7):
    """Every Lattice comes from lattices._lattice, which refuses rank 0:
    the constructor, standard_lattice and a cocycle of 0 x 0 matrices
    each raise its message."""
    empty = KMat(q7, [])
    for build in (lambda: Lattice(empty), lambda: standard_lattice(q7, 0),
                  lambda: cocycle(empty, empty, SymbolEngine(q7, 2))):
        with pytest.raises(ValueError, match="^a lattice needs rank m >= 1$"):
            build()


def test_lat_apply(q7):
    A = standard_lattice(q7, 2)
    assert lat_apply(KMat.identity(q7, 2), A) == A
    scaled = lat_apply(KMat.from_rows(q7, [["7", 0], [0, "7"]]), A)
    assert quotient_struct(A, scaled).module.exps == (1, 1)
    unimod = KMat.from_rows(q7, [[2, 3], [1, 4]])
    assert lat_apply(unimod, A) == A
    with pytest.raises(PrecisionError):
        lat_apply(KMat.from_rows(q7, [[1, 1], [1, 1]]), A)  # singular


def test_basis_independence_of_canonical_form(q7):
    # u * O = O for a unit u: the construction data cannot leak in
    assert Lattice.from_rows(q7, [["3"]]) == standard_lattice(q7, 1)
    L1 = Lattice.from_rows(q7, [[2, 3], [1, 4]])
    assert L1 == standard_lattice(q7, 2)
    # same lattice from two bases gives identical canonical matrices
    A1 = Lattice.from_rows(q7, [[7, 7], [0, 7]])
    A2 = Lattice.from_rows(q7, [[14, 7], [7, 7]])
    assert A1.mat.data == A2.mat.data and A1.mat.shift == A2.mat.shift


def test_equal_lattices_hash_equally_and_share_their_memo_entries():
    """Two bases of one lattice give one object, so one key: the second
    quotient and the second proper intersection are the first ones'
    objects."""
    lf = LocalField(7)
    A1 = Lattice.from_rows(lf, [[7, 7], [0, 7]])
    A2 = Lattice.from_rows(lf, [[14, 7], [7, 7]])
    B1 = Lattice.from_rows(lf, [[49, 0], [0, 49]])
    B2 = Lattice.from_rows(lf, [[0, 49], [98, 49]])
    assert A1 is A2 and B1 is B2 and hash(A1) == hash(A2)
    assert quotient_struct(A2, B2) is quotient_struct(A1, B1)
    C1 = Lattice.from_rows(lf, [[1, 0], [0, 49]])
    C2 = Lattice.from_rows(lf, [[1, 0], [49, 49]])
    assert lat_intersect(A2, C2) is lat_intersect(A1, C1)
    assert len(lf._quotients) == 1 and len(lf._intersections) == 1


def test_nested_intersections_are_kept_and_refused_quotients_are_not():
    """A nested pair is kept once, as its smaller operand, and a hit in
    either order returns it; a second basis of B is B itself.  A refused
    quotient is not stored."""
    lf = LocalField(7)
    A = Lattice.from_rows(lf, [[1, 0], [0, 7]])
    B = Lattice.from_rows(lf, [[7, 0], [0, 7]])
    C = Lattice.from_rows(lf, [[7**3, 0], [0, 1]])
    assert lat_intersect(A, B) is B and lat_intersect(B, A) is B
    assert lf._intersections == {(A, B): B}
    B2 = Lattice.from_rows(lf, [[7, 7], [0, 7]])
    assert B2 is B
    assert lat_intersect(A, B2) is B and lat_intersect(B2, A) is B
    assert len(lf._intersections) == 1
    for big, small in ((B, A), (A, C)):   # det_val refuses, then the solve does
        with pytest.raises(ValueError, match="not contained"):
            quotient_struct(big, small)
    assert lf._quotients == {}


def test_both_orders_of_a_pair_share_one_intersection(monkeypatch):
    """B cap A is A cap B: asked in the second order, a proper pair runs
    no second Hermite form and keeps no second entry, and a nested pair
    runs no containment test."""
    lf = LocalField(5)
    A = Lattice.from_rows(lf, [[1, 0], [0, 25]])
    B = Lattice.from_rows(lf, [[5, 1], [0, 5]])
    N = Lattice.from_rows(lf, [[5, 0], [0, 25]])
    hnfs, solves = [], []

    def counted(calls, fn):
        def wrapper(*args, **kwargs):
            calls.append(args)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(lattices, "_hnf", counted(hnfs, lattices._hnf))
    monkeypatch.setattr(lattices, "_solve", counted(solves, lattices._solve))
    I = lat_intersect(A, B)
    assert I not in (A, B) and len(hnfs) == 1
    assert lat_intersect(B, A) is I and len(hnfs) == 1
    assert lat_intersect(N, A) is N and lat_intersect(A, N) is N
    assert len(solves) == 2   # one containment test per pair, on its first ask
    assert lf._intersections == {(A, B): I, (N, A): N}


def test_a_lattice_reached_along_two_paths_is_one_object():
    """f(gV) and (fg)V, and an intersection and a basis of it, are one
    object: the field holds one Lattice per lattice."""
    lf = LocalField(7)
    V = standard_lattice(lf, 2)
    f = KMat.from_rows(lf, [[7, 1], [0, 14]], 8)
    g = KMat.from_rows(lf, [[1, 0], [7, 49]], 8)
    gV = lat_apply(g, V)
    assert gV is not V and lat_apply(f, gV) is lat_apply(f @ g, V)
    I = lat_intersect(V, Lattice.from_rows(lf, [["1/7", 0], [0, 49]]))
    assert I is Lattice.from_rows(lf, [[1, 0], [0, 49]])


def test_the_field_holds_its_lattices_weakly():
    """A lattice that no one holds leaves the field's table; one that a
    memo holds is still the object a new basis of it returns."""
    lf = LocalField(7)
    L = Lattice.from_rows(lf, [[7, 1], [0, 49]])
    assert list(lf._lattices.values()) == [L]
    del L
    gc.collect()
    assert len(lf._lattices) == 0
    V = standard_lattice(lf, 2)
    lat_apply(KMat.from_rows(lf, [[7, 1], [0, 49]], 8), V)
    gc.collect()
    fV, = lf._images.values()
    assert Lattice.from_rows(lf, [[7, 1], [0, 49]]) is fV and len(lf._lattices) == 2


def test_a_copy_is_the_lattice_and_a_pickle_loads_onto_a_copy_of_its_field():
    """copy.copy returns the lattice itself.  A pickle of a Lattice, a
    KMat and a KElem carries no ring or F_q tables and loads onto one new
    field built from the original's parameters, where the lattice is that
    field's one object for its data and the KMat is on the field's ring."""
    lf = LocalField(5, 2, default_precision=10, enum_bound=5000)
    rows = [["pi", "[1,2]"], [0, "pi^2"]]
    L = Lattice.from_rows(lf, rows)
    assert copy.copy(L) is L
    M = KMat.from_rows(lf, [["[1,2]", 5], [0, "pi^-1*[2,1]"]])
    x = lf.parse("pi^3*[4,1]")
    data = pickle.dumps((L, M, x))
    assert b"RingCtx" not in data and b"FieldCtx" not in data
    L2, M2, x2 = pickle.loads(data)
    lf2 = L2.lf
    assert lf2 is not lf and M2.lf is lf2 and x2.lf is lf2
    assert (lf2.p, lf2.f, lf2.default_precision, lf2.enum_bound) == (5, 2, 10, 5000)
    assert (L2.shift, L2.exps, L2.rows, L2.det_val) == (L.shift, L.exps, L.rows, L.det_val)
    assert L2 is Lattice.from_rows(lf2, rows)
    assert (M2.shift, M2.prec, M2.data) == (M.shift, M.prec, M.data)
    assert M2.ring is lf2.ring(M2.prec)
    assert lat_apply(M2, L2).rows == lat_apply(M, L).rows
    assert (x2.val, x2.unit, x2.prec, x2._res) == (x.val, x.unit, x.prec, x._res)


def test_the_lattice_memos_stay_under_their_cap():
    """Distinct pairs past MEMO_CAP: each memo empties when full and keeps
    the newest entries."""
    lf = LocalField(3)
    V = standard_lattice(lf, 2)
    quotients, intersections, images = [], [], []
    for s in range(MEMO_CAP + 5):
        quotient_struct(principal_lattice(lf, s), principal_lattice(lf, s + 1))
        quotients.append(len(lf._quotients))
        A = Lattice.from_rows(lf, [[f"pi^{s}", 0], [0, f"pi^{s + 1}"]], s + 8)
        B = Lattice.from_rows(lf, [[f"pi^{s + 1}", 0], [0, f"pi^{s}"]], s + 8)
        lat_intersect(A, B)
        intersections.append(len(lf._intersections))
        lat_apply(KMat.from_rows(lf, [[f"pi^{s}", 0], [0, 1]], s + 2), V)
        images.append(len(lf._images))
    for sizes in (quotients, intersections, images):
        assert max(sizes) == MEMO_CAP and sizes[-1] == 5


def test_images_of_equal_data_share_one_entry_and_a_raising_apply_stores_none():
    """lat_apply keys f(A) by f's shift, precision and rows and by A: two
    KMats with equal data share one entry and one image, the same rows
    known to another precision are another entry, and an apply that raises
    PrecisionError stores nothing."""
    lf = LocalField(7)
    V = standard_lattice(lf, 2)
    with pytest.raises(PrecisionError):
        lat_apply(KMat.from_rows(lf, [[1, 1], [1, 1]]), V)
    assert lf._images == {}
    f1, f2 = (KMat.from_rows(lf, [[7, 1], [0, 14]], 8) for _ in range(2))
    assert f1 is not f2 and lat_apply(f2, V) is lat_apply(f1, V)
    assert len(lf._images) == 1
    f3 = KMat(lf, f1.data, f1.shift, 9)
    assert lat_apply(f3, V) == lat_apply(f1, V) and len(lf._images) == 2


def test_random_containments_and_cardinality(q7):
    rng = random.Random(1)
    for _ in range(60):
        m = rng.randint(1, 3)
        A, B = rand_lattice(q7, rng, m), rand_lattice(q7, rng, m)
        S, I = lat_sum(A, B), lat_intersect(A, B)
        assert lat_contains_lattice(S, A) and lat_contains_lattice(S, B)
        assert lat_contains_lattice(A, I) and lat_contains_lattice(B, I)
        assert quotient_struct(S, A).module.size == quotient_struct(B, I).module.size
        assert rel_dim(A, B, 2) == -rel_dim(B, A, 2)


def dual_sum_intersection(A, B):
    """A cap B as the dual of A* + B*, for every pair: duals by KMat
    inverses, the sum by lat_sum."""
    def dual(L):
        inv = L.mat.inverse()
        return Lattice(KMat(L.lf, list(zip(*inv.data)), inv.shift, inv.prec))
    return dual(lat_sum(dual(A), dual(B)))


@pytest.mark.parametrize("p,f", [(3, 1), (7, 1), (3, 2), (5, 2)])
def test_intersection_of_nested_lattices_is_the_contained_operand(p, f):
    lf = local_field(p, f)
    rng = random.Random(p + f)
    nested = proper = 0
    for _ in range(12):
        m = rng.randint(1, 3)
        A = rand_lattice(lf, rng, m, 2)
        inside = Lattice(A.mat @ rand_matrix(lf, rng, m, (0, 2), 0.9))   # inside A
        other = rand_lattice(lf, rng, m, 2)
        for B, C in ((A, inside), (inside, A), (A, other)):
            got = lat_intersect(B, C)
            assert got == dual_sum_intersection(B, C)
            if lat_contains_lattice(B, C) or lat_contains_lattice(C, B):
                assert got is (C if lat_contains_lattice(B, C) else B)
                nested += 1
            else:
                proper += 1
    assert nested >= 24 and proper >= 3


def test_commensurability_always_finite(q7):
    rng = random.Random(2)
    O = standard_lattice(q7, 2)
    for _ in range(40):
        f = rand_lattice(q7, rng, 2).mat
        fO = lat_apply(f, O) if False else Lattice(f)
        S = lat_sum(O, fO)
        q1 = quotient_struct(S, O)
        q2 = quotient_struct(S, fO)
        assert q1.module.size >= 1 and q2.module.size >= 1
        assert all(e <= 40 for e in q1.module.exps + q2.module.exps)


def test_dimension_additivity_mod_divisors(q7):
    rng = random.Random(3)
    q = 7
    for _ in range(60):
        m = rng.randint(1, 3)
        A = standard_lattice(q7, m)
        B = Lattice(A.mat @ rand_matrix(q7, rng, m, (0, 2), 0.9))
        C = Lattice(B.mat @ rand_matrix(q7, rng, m, (0, 1), 0.9))
        dy = sum(quotient_struct(A, C).module.exps)
        dx = sum(quotient_struct(B, C).module.exps)
        dz = sum(quotient_struct(A, B).module.exps)
        assert dx + dz == dy  # length additivity, giving dim additivity below
        for mm in (1, 2, 3, 6):
            dimX = (q**dx - 1) // mm
            dimY = (q**dy - 1) // mm
            dimZ = (q**dz - 1) // mm
            assert (dimX + dimZ - dimY) % mm == 0


def test_snf_pivot_order_and_exponents(q7):
    exps, _, _ = smith_normal_form(q7.ring(4), [[7, 7], [0, 7]])
    assert exps == [1, 1]
    exps2, _, _ = smith_normal_form(q7.ring(4), [[1, 0], [0, 49]])
    assert exps2 == [0, 2]


def test_f2_backend_quotients():
    lf = local_field(3, 2)
    A = Lattice.from_rows(lf, [["pi^1*[1,2]", "[0,1]"], [0, "pi^2*[2,0]"]], 40)
    B = Lattice.from_rows(lf, [["pi^3", 0], [0, "pi^2"]], 40)
    S, I = lat_sum(A, B), lat_intersect(A, B)
    assert lat_contains_lattice(S, A) and lat_contains_lattice(A, I)
    Q = quotient_struct(S, I)
    assert Q.module.size == 9 ** sum(Q.module.exps)
    for t in list(Q.module.elements())[:50]:
        assert Q.proj(Q.lift(t)) == t


@pytest.mark.parametrize("p", [3, 5])
def test_f2_projection_kills_the_sublattice(p):
    # at f > 1 an encoding depends on its precision, so a lattice's basis
    # and a quotient's lifts must be re-encoded in the rings that hold them
    lf = local_field(p, 2)
    F = KMat.from_rows(lf, [[1, "pi^-1"], [0, "pi"]], 60)
    A = lat_apply(F, Lattice.from_rows(lf, [["pi^-1", 0], [0, "pi^-1"]], 60))
    B = lat_apply(F, Lattice.from_rows(lf, [[1, 0], [0, "pi"]], 60))
    rng = random.Random(p)
    pairs = [(A, B)]
    for _ in range(6):
        X = rand_lattice(lf, rng, 2, 1)
        pairs.append((X, Lattice(X.mat @ rand_matrix(lf, rng, 2, (0, 2), 0.9))))
    for X, Y in pairs:
        Q = quotient_struct(X, Y)
        M = Y.mat
        for j in range(2):
            col = KMat(lf, [[M.data[0][j]], [M.data[1][j]]], M.shift, M.prec)
            assert Q.proj(col) == Q.module.zero
        held = [(X.rows, X.ring), (Y.rows, Y.ring)]
        for rows, ring in held + ([(Q._lifts, Q._ring)] if Q._idx else []):
            assert all(0 <= x < ring.size for row in rows for x in row)


def scalar_lattice(lf, m, v):
    """pi^v V in K^m."""
    return Lattice.from_rows(lf, [[lf.pi(v) if i == j else 0 for j in range(m)] for i in range(m)])


def test_lattice_holds_its_canonical_basis_exactly(q7):
    """Pivots pi^e over the least valuation, entries left of a pivot below
    it, a window pi^hi V <= L <= pi^shift V, and no precision."""
    rng = random.Random(3)
    for m in (1, 2, 3):
        L = rand_lattice(q7, rng, m)
        assert not hasattr(L, "prec")
        assert [L.rows[i][i] for i in range(m)] == [7**e for e in L.exps]
        assert all(0 <= L.rows[i][j] < 7**L.exps[i] for i in range(m) for j in range(i))
        assert all(L.rows[i][j] == 0 for i in range(m) for j in range(i + 1, m))
        assert min(L.ring.val(x) for row in L.rows for x in row) == 0
        assert L.hi == L.shift + sum(L.exps) and L.det_val == m * L.shift + sum(L.exps)
        assert lat_contains_lattice(L, scalar_lattice(q7, m, L.hi))
        assert lat_contains_lattice(scalar_lattice(q7, m, L.shift), L)
        assert Lattice(L.mat) == L


@pytest.mark.parametrize("p,f", [(3, 1), (5, 1), (7, 1), (13, 1), (3, 2), (5, 2)])
def test_induced_hom_equals_lift_then_project(p, f):
    # the one product dstQ._Pinv @ g @ srcQ._P against the class of
    # g(lift(generator)), generator by generator
    lf = local_field(p, f)
    rng = random.Random(10 * p + f)
    nonzero = 0
    for m in (1, 2, 3):
        for _ in range(2):
            X = rand_lattice(lf, rng, m, 1)
            Y = Lattice(X.mat @ rand_matrix(lf, rng, m, (1, 2), 0.9))
            Z = Lattice(Y.mat @ rand_matrix(lf, rng, m, (0, 1), 0.9))
            g = rand_matrix(lf, rng, m, (-1, 1))
            QXZ, QYZ, QXY = (quotient_struct(X, Z), quotient_struct(Y, Z),
                             quotient_struct(X, Y))
            QgXZ = quotient_struct(lat_apply(g, X), lat_apply(g, Z))
            for src, dst, h in ((QYZ, QXZ, None), (QXZ, QXY, None), (QXZ, QgXZ, g)):
                want = []
                for k in range(src.module.rank):
                    vec = src.lift(tuple(int(i == k) for i in range(src.module.rank)))
                    want.append(dst.proj(vec if h is None else h @ vec))
                got = induced_hom(src, dst, h).cols
                assert got == tuple(want)
                nonzero += any(any(c) for c in got)
    assert nonzero >= 12


@pytest.mark.parametrize("p,f", [(7, 1), (3, 2)])
def test_snf_left_transform_and_its_inverse(p, f):
    lf = local_field(p, f)
    rng = random.Random(p + f)
    for m in (1, 2, 3):
        for _ in range(4):
            M = rand_matrix(lf, rng, m, (0, 2), 0.8)
            ring = M.ring
            exps, U, Uinv = smith_normal_form(ring, [row[:] for row in M.data])
            # the transforms spend sum(exps) digits
            kept = lf.ring(ring.N - sum(exps))
            ident = [[int(i == j) for j in range(m)] for i in range(m)]
            for P in (ring.matmul(U, ring, Uinv, ring), ring.matmul(Uinv, ring, U, ring)):
                assert [[ring.reduce_to(x, kept) for x in row] for row in P] == ident
            # U M = diag(pi^exps) W^-1 with W unimodular: row i has valuation exps[i]
            UM = ring.matmul(U, ring, M.data, ring)
            assert [min(ring.val(x) for x in row) for row in UM] == exps


@pytest.mark.parametrize("p,f", [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2)])
def test_hnf_carries_the_rows_below_its_pivots(p, f):
    """_hnf(lf, ring, D + I, m) pivots D's m rows only: its leading rows
    are D's own Hermite form, and the identity carried below them comes
    back as U with D U = T mod pi^N."""
    lf = local_field(p, f)
    rng = random.Random(10 * p + f)
    formed = 0
    for _ in range(200):
        m, k, ring = rng.randint(1, 3), rng.randint(1, 3), lf.ring(rng.randint(1, 5))
        D = [[ring.mul_pk(rng.randrange(ring.size), rng.choice((0, 0, 1, 2))) for _ in range(k)]
             for _ in range(m)]
        ident = [[int(i == j) for j in range(k)] for i in range(k)]
        T = lattices._hnf(lf, ring, [row[:] for row in D] + ident, m)
        plain = lattices._hnf(lf, ring, [row[:] for row in D])
        if plain is None:
            assert T is None
            continue
        assert T[:m] == plain
        assert ring.matmul(D, ring, T[m:], ring) == plain
        formed += 1
    assert formed >= 100


def test_quotient_inverts_no_matrix(q7, monkeypatch):
    """Quotients, sums, intersections and containment solve in triangular
    bases and invert nothing; lift then project is the identity."""
    rng = random.Random(5)
    calls = []
    real = KMat.inverse

    def counted(self):
        calls.append(self)
        return real(self)

    for m in (1, 2, 3):
        A = rand_lattice(q7, rng, m)
        B = Lattice(A.mat @ rand_matrix(q7, rng, m, (0, 2), 0.9))
        C = rand_lattice(q7, rng, m)
        monkeypatch.setattr(KMat, "inverse", counted)
        Q = quotient_struct(A, B)
        lat_sum(A, C), lat_intersect(A, C), lat_contains_lattice(C, A)
        monkeypatch.setattr(KMat, "inverse", real)
        assert calls == []
        for t in list(Q.module.elements())[:30]:
            assert Q.proj(Q.lift(t)) == t


def test_quotient_decides_integrality_once(monkeypatch):
    """A quotient solves B's basis in A's once: an inexact division there
    is what refuses a B that A does not contain.  The field is fresh, so
    no quotient is in its memo yet."""
    q7 = LocalField(7)
    rng = random.Random(5)
    calls = []
    real = lattices._solve

    def counted(A, C, ring):
        calls.append(A)
        return real(A, C, ring)

    monkeypatch.setattr(lattices, "_solve", counted)
    for m in (1, 2, 3):
        A = rand_lattice(q7, rng, m)
        B = Lattice(A.mat @ rand_matrix(q7, rng, m, (1, 2), 0.9))
        calls.clear()
        quotient_struct(A, B)
        assert calls == [A]
    # det_val and shift allow C in A, and the solve refuses (0, 1)
    A = Lattice.from_rows(q7, [[1, 0], [0, 7]])
    C = Lattice.from_rows(q7, [[7**3, 0], [0, 1]])
    calls.clear()
    with pytest.raises(ValueError, match="not contained"):
        quotient_struct(A, C)
    assert calls == [A]


def test_trivial_quotient_is_the_zero_module_and_runs_no_snf(q7, monkeypatch):
    rng = random.Random(8)
    snf_calls, solve_calls = [], []
    real_snf, real_solve = lattices.smith_normal_form, lattices._solve

    def counted_snf(ring, D):
        snf_calls.append(D)
        return real_snf(ring, D)

    def counted_solve(A, C, ring):
        solve_calls.append(A)
        return real_solve(A, C, ring)

    for m in (1, 2, 3):
        A = rand_lattice(q7, rng, m)
        # the same lattice from another basis: A/A is seen from the lattices, not the objects
        U = KMat.from_rows(q7, [[1 if i == j else rng.randint(0, 48) * (j > i)
                                 for j in range(m)] for i in range(m)], 60)
        A2 = Lattice(A.mat @ U)
        assert A2 == A
        B = Lattice(A.mat @ rand_matrix(q7, rng, m, (1, 2), 0.9))
        QB = quotient_struct(A, B)
        snf_calls.clear()
        solve_calls.clear()
        monkeypatch.setattr(lattices, "smith_normal_form", counted_snf)
        monkeypatch.setattr(lattices, "_solve", counted_solve)
        Q = quotient_struct(A, A2)
        monkeypatch.undo()
        # equal det_val and equal data: no solve, no SNF
        assert snf_calls == [] and solve_calls == []
        assert Q.module.exps == () and Q.module.size == 1
        x = A.mat @ KMat.from_rows(q7, [[rng.randint(0, 48)] for _ in range(m)], 60)
        assert Q.proj(x) == ()
        zero = Q.lift(())
        assert all(zero.entry_val(i, 0) is None for i in range(m))
        g = rand_matrix(q7, rng, m)
        for src, dst, h in ((Q, QB, None), (QB, Q, None), (Q, QB, g)):
            hom = induced_hom(src, dst, h)
            assert (hom.src, hom.dst) == (src.module, dst.module)
            assert hom.cols == ((),) * src.module.rank
            assert all(hom.apply(t) == dst.module.zero for t in src.module.elements())


def test_public_constructor_copies_and_checks_rows(q7):
    with pytest.raises(ValueError):
        KMat(q7, [[1, 2], [3]])
    with pytest.raises(ValueError):
        KMat.from_rows(q7, [[1, 2], [3]])
    with pytest.raises(ValueError):
        Lattice.from_rows(q7, [[1, 0], [0]])
    rows = [[1, 2], [3, 4]]
    M = KMat(q7, rows)
    rows[0][0] = 5
    assert M.data == [[1, 2], [3, 4]]


def test_residue_past_the_known_digits_is_a_precision_error(q7):
    # the class of x in O/pi O needs x known past pi^1
    Q = quotient_struct(standard_lattice(q7, 1), principal_lattice(q7, 1))
    # pi^-3 * (0 + O(pi^2)) may or may not be integral
    with pytest.raises(PrecisionError):
        Q.proj(KMat(q7, [[0]], -3, 2))
    with pytest.raises(PrecisionError):
        Q.proj(KMat(q7, [[3]], -1, 1))
    with pytest.raises(ValueError):
        Q.proj(KMat(q7, [[1]], -1, 10))
    # pi^-3 * (1 + O(pi^4)) has a known valuation -3: not integral
    with pytest.raises(ValueError):
        Q.proj(KMat(q7, [[1]], -3, 5))
    assert Q.proj(KMat(q7, [[14]], -1, 10)) == (2,)
    assert Q.proj(KMat(q7, [[3]], 0, 1)) == (3,)


def test_precision_failure_is_loud():
    lf = LocalField(7, default_precision=4)
    with pytest.raises(PrecisionError):
        KMat.from_rows(lf, [[1, 1], [1, lf.from_rational(1 + 7**3, 4)]], 4).inverse()


def test_entries_and_products_of_another_field_are_rejected():
    lf7, lf13 = local_field(7), local_field(13)
    with pytest.raises(ValueError):
        KMat.from_rows(lf7, [[lf13.parse("3")]])
    with pytest.raises(ValueError):
        Lattice.from_rows(lf7, [[lf13.parse("pi^2*5")]])
    with pytest.raises(TypeError):
        KMat.from_rows(lf7, [[0.5]])
    with pytest.raises(ValueError):
        KMat.from_rows(lf7, [[1]]) @ KMat.from_rows(lf13, [[2]])


def test_lattices_of_different_fields_or_ranks_are_refused():
    """Every binary lattice operation refuses a pair from two fields or
    two ambient spaces, in either order, and keeps nothing."""
    lf3, lf5 = LocalField(3), LocalField(5)
    ops = (lat_sum, lat_intersect, lat_contains_lattice, quotient_struct,
           lambda A, B: rel_dim(A, B, 2))
    pairs = [((standard_lattice(lf3, 2), Lattice.from_rows(lf5, [[5, 0], [0, 5]])),
              "lattices of different fields"),
             ((standard_lattice(lf3, 2), standard_lattice(lf3, 3)), "different ambient spaces")]
    for (A, B), message in pairs:
        for op in ops:
            for X, Y in ((A, B), (B, A)):
                with pytest.raises(ValueError, match=f"^{message}$"):
                    op(X, Y)
    for lf in (lf3, lf5):
        assert lf._intersections == {} and lf._quotients == {}


def test_a_matrix_of_the_wrong_shape_is_refused():
    """A KMat meets a lattice in K^m only as an m x m matrix: lat_apply
    refuses a 2 x 2 and a 2 x 3 matrix on O^3 and keeps no image, and
    induced_hom refuses a 3 x 3 matrix on quotients in K^2, as well as a
    pair of quotients in K^2 and K^3."""
    lf = LocalField(3)
    V3 = standard_lattice(lf, 3)
    for f in (KMat.identity(lf, 2), KMat.from_rows(lf, [[1, 0, 0], [0, 1, 0]])):
        with pytest.raises(ValueError, match=f"^a 2 x {f.ncols} matrix does not act on K\\^3$"):
            lat_apply(f, V3)
    assert lf._images == {}
    Q2 = quotient_struct(standard_lattice(lf, 2), Lattice.from_rows(lf, [[3, 0], [0, 3]]))
    with pytest.raises(ValueError, match="^a 3 x 3 matrix does not act on K\\^2$"):
        induced_hom(Q2, Q2, KMat.identity(lf, 3))
    Q3 = quotient_struct(V3, Lattice.from_rows(lf, [[3, 0, 0], [0, 3, 0], [0, 0, 3]]))
    for src, dst in ((Q2, Q3), (Q3, Q2)):
        with pytest.raises(ValueError, match="^different ambient spaces$"):
            induced_hom(src, dst)
    assert induced_hom(Q2, Q2, KMat.identity(lf, 2)).images() == induced_hom(Q2, Q2).images()


def test_precision_zero_is_an_error(q7):
    for prec in (0, -2):
        with pytest.raises(ValueError):
            KMat.from_rows(q7, [[1, 0], [0, 7]], prec)
        with pytest.raises(ValueError):
            KMat.identity(q7, 2, prec)
    assert KMat.from_rows(q7, [[1]], None).prec == q7.default_precision
