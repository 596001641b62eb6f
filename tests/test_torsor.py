import random
import re

import pytest

from resforge.fields import mu_dlog
from resforge.lattices import (KMat, Lattice, induced_hom, principal_lattice,
                               quotient_struct, standard_lattice)
from resforge.modules import FiniteModule, ModuleHom, module_aut_as_musetaut, scalar_hom
from resforge.musets import OrbitView, aut_delta
from resforge.padic import local_field
from resforge.torsor import (_det_exp_brute, _exact_seq_exp, _graded_det, _section,
                             det_of_module_aut, exact_seq_iso)
from resforge.verify import _random_matrix as rand_matrix
from test_modules import random_hom


def random_scalar_aut(lf, rng, M):
    """Multiplication by a nonzero residue, a unit of O."""
    return scalar_hom(M, rng.randrange(1, lf.q), from_ring=lf.ring(1))


def random_matrix_aut(lf, rng, M):
    """Random O-linear automorphism given by a matrix on the generators."""
    r = M.rank
    big = M.rings[-1]
    while True:
        cols = []
        for k in range(r):
            col = []
            for j in range(r):
                need = max(0, M.exps[j] - M.exps[k])
                u = rng.randrange(0, lf.q ** (M.exps[j]))
                col.append(M.rings[j].mul_pk(u % M.rings[j].pN if lf.f == 1
                                             else M.rings[j].encode(
                                                 lf.ring(M.exps[j]).decode(u)), need))
            cols.append(tuple(col))
        try:
            g = ModuleHom(M, M, cols)
        except ValueError:
            continue
        if len(set(g.images())) == M.size:
            return g


def test_det_of_module_aut_examples():
    lf = local_field(7)
    T = FiniteModule(lf, (1,))
    T2 = FiniteModule(lf, (2,))
    assert det_of_module_aut(scalar_hom(T, 3), 2).exp == 1
    assert _det_exp_brute(scalar_hom(T2, 3), 2) == 0
    assert det_of_module_aut(scalar_hom(T2, 3), 2).exp == 0
    assert det_of_module_aut(scalar_hom(T2, 1), 2).is_identity


def test_det_multiplicative_on_random_automorphisms():
    rng = random.Random(5)
    for p, exps in [(7, (1, 1)), (5, (2,)), (3, (1, 2)), (7, (2, 2)), (13, (1, 1))]:
        lf = local_field(p)
        M = FiniteModule(lf, exps)
        if M.size > 2500:
            continue
        n = p - 1
        for _ in range(10):
            g = random_matrix_aut(lf, rng, M)
            h = random_matrix_aut(lf, rng, M)
            lhs = _det_exp_brute(g.compose(h), n)
            rhs = _det_exp_brute(g, n) + _det_exp_brute(h, n)
            assert lhs == rhs % n


def test_fast_equals_brute_on_cyclic_modules():
    rng = random.Random(6)
    for p, f in [(2, 1), (3, 1), (5, 1), (7, 1), (11, 1), (13, 1), (2, 2), (3, 2)]:
        lf = local_field(p, f)
        q = lf.q
        if q > 13:
            continue
        for e in (1, 2, 3):
            M = FiniteModule(lf, (e,))
            for _ in range(50):
                g = random_scalar_aut(lf, rng, M)
                for n in [n for n in range(1, q) if (q - 1) % n == 0]:
                    assert _det_exp_brute(g, n) == det_of_module_aut(g, n).exp


def test_fast_equals_brute_on_mixed_modules():
    rng = random.Random(7)
    lf = local_field(5)
    for exps in [(1, 1), (1, 2), (2, 2), (1, 1, 2)]:
        M = FiniteModule(lf, exps)
        for _ in range(10):
            g = random_matrix_aut(lf, rng, M)
            for n in (1, 2, 4):
                assert _det_exp_brute(g, n) == det_of_module_aut(g, n).exp


def test_automorphism_delta_does_not_depend_on_the_rule():
    """delta of an automorphism g is the same under every representative rule.

    Write g(r_i) = zeta^mu_i * r_sigma(i) for the representatives r_i.
    Re-choosing r_i as zeta^k_i * r_i adds k_i to mu_i, because g is
    equivariant, and subtracts k_i from mu_sigma^-1(i), whose image is now
    measured against the new r_i.  The sum of the mu_i stays the same, so
    an iso between equal modules, which share one view, has an
    automorphism's delta for its scalar, under any rule.
    """
    rng = random.Random(15)
    for p, f in [(3, 1), (5, 1), (7, 1), (3, 2)]:
        lf = local_field(p, f)
        ns = [n for n in range(1, lf.q) if (lf.q - 1) % n == 0]
        for exps in [(1,), (2,), (1, 1), (1, 2)]:
            M = FiniteModule(lf, exps)
            for _ in range(3):
                g = random_matrix_aut(lf, rng, M)
                for n in ns:
                    deltas = {aut_delta(M.view(n, rule).as_aut(g.images())).exp
                              for rule in ("least", "second_least", "digit")}
                    assert deltas == {_det_exp_brute(g, n)}, (p, f, exps, n)
                    assert deltas == {det_of_module_aut(g, n).exp}


def test_mu_det_equals_classical_det_gl2():
    for p in (2, 3, 5):
        lf = local_field(p)
        if p == 2:
            continue  # n = q - 1 = 1 is trivial
        V = FiniteModule(lf, (1, 1))
        n = p - 1
        count = 0
        for a in range(p):
            for b in range(p):
                for c in range(p):
                    for d in range(p):
                        det = (a * d - b * c) % p
                        if det == 0:
                            continue
                        g = ModuleHom(V, V, [(a, c), (b, d)])
                        assert _det_exp_brute(g, n) == mu_dlog(lf.field, det, n).exp
                        count += 1
        assert count == (p**2 - 1) * (p**2 - p)


def test_det_of_module_aut_builds_no_orbit_view(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an OrbitView was built")

    lf = local_field(7)
    M = FiniteModule(lf, (1, 2))
    g = random_matrix_aut(lf, random.Random(13), M)
    want = {n: _det_exp_brute(g, n) for n in (1, 2, 3, 6)}
    monkeypatch.setattr(lf, "_views", {})
    monkeypatch.setattr(OrbitView, "__init__", refuse)
    for n in (1, 2, 3, 6):
        assert det_of_module_aut(g, n).exp == want[n]
    with pytest.raises(AssertionError, match="OrbitView"):
        _det_exp_brute(g, 2)


def test_det_exp_brute_specializes_and_composes():
    lf = local_field(7)
    T = FiniteModule(lf, (1,))
    assert _det_exp_brute(scalar_hom(T, 1), 2) == 0
    g = scalar_hom(T, 3)
    assert _det_exp_brute(g, 2) == det_of_module_aut(g, 2).exp
    # S = 7O/49O -> T = O/7O by dividing by 7, two equal modules whose
    # isos are automorphisms: compose-to-identity oracle
    O1 = standard_lattice(lf, 1)
    pi1 = principal_lattice(lf, 1)
    pi2 = principal_lattice(lf, 2)
    QS = quotient_struct(pi1, pi2)
    QT = quotient_struct(O1, pi1)
    div7 = induced_hom(QS, QT, KMat.from_rows(lf, [["1/7"]]))
    mul7 = induced_hom(QT, QS, KMat.from_rows(lf, [["7"]]))
    assert QS.module == QT.module
    for n in (1, 2, 3, 6):
        c1 = _det_exp_brute(div7, n)
        c2 = _det_exp_brute(mul7, n)
        assert (c1 + c2) % n == 0


def test_exact_seq_degenerate_ends():
    lf = local_field(7)
    O1 = standard_lattice(lf, 1)
    pi2 = principal_lattice(lf, 2)
    Q = quotient_struct(O1, pi2)
    Y = Q.module
    zero = FiniteModule(lf, ())
    to_zero = ModuleHom(Y, zero, [() for _ in range(Y.rank)])
    from_zero = ModuleHom(zero, Y, [])
    ident = scalar_hom(Y, 1)
    assert exact_seq_iso(from_zero, ident, 2).is_identity
    assert exact_seq_iso(ident, to_zero, 2).is_identity
    # X = 0: the scalar identifies det(Z) with det(Y) along proj^(-1)
    g = scalar_hom(Y, 3)
    ginv = scalar_hom(Y, lf.ring(2).inv(3), from_ring=lf.ring(2))
    for n in (2, 3, 6):
        assert (exact_seq_iso(from_zero, g, n).exp
                == _det_exp_brute(ginv, n))
        # Z = 0: the scalar is the determinant scalar of the inclusion
        assert (exact_seq_iso(g, to_zero, n).exp
                == _det_exp_brute(g, n))


def test_exact_seq_rejects_non_exact():
    """One broken sequence per message, through exact_seq_iso and under
    every rule: the first failed check names itself, with its whole
    message.  In the last case proj o incl != 0 and proj's kernel is
    also larger than the image; the composite is reported."""
    lf = local_field(7)
    T = FiniteModule(lf, (1,))
    TT = FiniteModule(lf, (1, 1))
    ident = scalar_hom(T, 1)
    first = ModuleHom(T, TT, [(1, 0)])                    # x -> (x, 0)
    S, SS = FiniteModule(lf, (2,)), FiniteModule(lf, (2, 2))
    cases = [
        (T, T, T, ModuleHom(T, T, [(0,)]), ident, "not injective"),
        (T, T, T, ident, ident, "cardinalities"),
        (T, TT, T, first, ModuleHom(TT, T, [(1,), (0,)]), "proj o incl"),
        (T, TT, T, first, ModuleHom(TT, T, [(0,), (0,)]), "middle term"),
        (S, SS, S, ModuleHom(S, SS, [(1, 0)]), ModuleHom(SS, S, [(7,), (7,)]),
         "proj o incl"),                                  # (a, b) -> 7(a + b)
    ]
    messages = {
        "not injective": "sequence not exact: inclusion is not injective",
        "cardinalities": "sequence not exact: cardinalities do not multiply",
        "proj o incl": "sequence not exact: proj o incl != 0",
        "middle term": "sequence not exact at the middle term",
    }
    for X, Y, Z, incl, proj, msg in cases:
        for n in (1, 2, 6):
            with pytest.raises(ValueError, match=msg):
                exact_seq_iso(incl, proj, n)
            for rule in ("least", "second_least", "digit"):
                with pytest.raises(ValueError, match=f"^{re.escape(messages[msg])}$"):
                    _exact_seq_exp(X, Y, Z, incl, proj, n, rule)


def test_exact_seq_exp_refuses_modules_that_are_not_its_maps_ends():
    """X, Y and Z must be incl.src, incl.dst = proj.src and proj.dst.
    Over O/5, 0 -> (1, 1) -> (1, 1, 1) -> (1,) -> 0 has scalar 0; a
    middle module (1, 2) of the same size, in place of Y, is refused
    under every rule, where it gave a value (1 at n = 4 under the least
    rule).  So is a proj whose source is not incl's target."""
    lf = local_field(5)
    X, Y, Z = FiniteModule(lf, (1, 1)), FiniteModule(lf, (1, 1, 1)), FiniteModule(lf, (1,))
    other = FiniteModule(lf, (1, 2))
    incl = ModuleHom(X, Y, [(1, 0, 0), (0, 1, 0)])
    proj = ModuleHom(Y, Z, [(0,), (0,), (1,)])
    from_other = ModuleHom(other, Z, [(0,), (1,)])
    assert other.size == Y.size
    message = "^maps do not run X -> Y -> Z$"
    for n in (2, 4):
        with pytest.raises(ValueError, match=message):
            exact_seq_iso(incl, from_other, n)
        for rule in ("least", "second_least", "digit"):
            assert _exact_seq_exp(X, Y, Z, incl, proj, n, rule) == 0
            for ends in ((X, other, Z), (Y, Y, Z), (X, Y, X), (Y, X, Z)):
                with pytest.raises(ValueError, match=message):
                    _exact_seq_exp(*ends, incl, proj, n, rule)
            with pytest.raises(ValueError, match=message):
                _exact_seq_exp(X, Y, Z, incl, from_other, n, rule)
            with pytest.raises(ValueError, match=message):
                _exact_seq_exp(X, other, Z, incl, from_other, n, rule)


def test_exact_seq_iso_reads_its_modules_off_its_maps():
    """exact_seq_iso(incl, proj, n) is the least-rule walk of
    incl.src -> incl.dst -> proj.dst, on random connecting sequences."""
    seen = 0
    for lf, _, X, Y, Z, incl, proj in nested_sequences(
            random.Random(21), [(5, 1, (1, 2), 8, (0, 2)), (3, 2, (1, 2), 6, (0, 2))], 3000):
        assert (incl.src, incl.dst, proj.dst) == (X, Y, Z)
        for n in [n for n in range(1, lf.q) if (lf.q - 1) % n == 0]:
            assert (exact_seq_iso(incl, proj, n).exp
                    == _exact_seq_exp(incl.src, incl.dst, proj.dst, incl, proj, n, "least"))
        seen += 1
    assert seen >= 8


def test_a_map_that_is_not_an_endomorphism_is_refused():
    """A determinant is read off an endomorphism, whose module is its
    source: every reader refuses T -> T + T with one message."""
    lf = local_field(7)
    T, TT = FiniteModule(lf, (1,)), FiniteModule(lf, (1, 1))
    first = ModuleHom(T, TT, [(1, 0)])
    for read in (lambda: _det_exp_brute(first, 2), lambda: det_of_module_aut(first, 2),
                 lambda: module_aut_as_musetaut(first, 2), lambda: _graded_det(first)):
        with pytest.raises(ValueError, match="^map is not an endomorphism$"):
            read()


def test_naturality_of_exact_sequence_scalar():
    rng = random.Random(8)
    lf = local_field(5)
    n = 4
    for _ in range(40):
        m = rng.randint(1, 2)
        A = standard_lattice(lf, m)
        B = Lattice(A.mat @ rand_matrix(lf, rng, m, (0, 2), 0.9))
        C = Lattice(B.mat @ rand_matrix(lf, rng, m, (0, 1), 0.9))
        QYZ, QXZ, QXY = (quotient_struct(A, C), quotient_struct(B, C),
                         quotient_struct(A, B))
        X, Y, Z = QXZ.module, QYZ.module, QXY.module
        incl = induced_hom(QXZ, QYZ)
        proj = induced_hom(QYZ, QXY)
        c0 = _exact_seq_exp(X, Y, Z, incl, proj, n, "least")
        u = rng.randrange(1, 5)
        gX = scalar_hom(X, u, from_ring=lf.ring(1))
        gY = scalar_hom(Y, u, from_ring=lf.ring(1))
        gZ = scalar_hom(Z, u, from_ring=lf.ring(1))
        dX = _det_exp_brute(gX, n)
        dY = _det_exp_brute(gY, n)
        dZ = _det_exp_brute(gZ, n)
        assert (dX + dZ) % n == dY % n


def _exact_seq_exp_per_element(X, Y, Z, incl, proj, n, rule):
    """The exact-sequence exponent by applying incl and proj to each element."""
    image = {incl.apply(x) for x in X.elements()}
    assert len(image) == X.size and X.size * Z.size == Y.size
    assert all(proj.apply(x) == Z.zero for x in image)
    if n == 1:
        return 0
    vX, vY, vZ = X.view(n, rule), Y.view(n, rule), Z.view(n, rule)
    total = sum(vY.twist[Y.index(incl.apply(X.label(r)))] for r in vX.reps)
    for y in Y.elements():
        if y in image:
            continue
        z = proj.apply(y)
        assert z != Z.zero
        if vZ.twist[Z.index(z)] == 0:
            total += vY.twist[Y.index(y)]
    return total % n


def nested_sequences(rng, cases, cap):
    """Connecting sequences 0 -> B/C -> A/C -> A/B -> 0 of random nested
    lattices A >= B >= C of rank m in [mlo, mhi], for each
    (p, f, (mlo, mhi), draws, vals) in cases, where vals bounds the
    valuations of B's entries over A: (lf, m, X, Y, Z, incl, proj) for
    each draw whose middle module has at most cap elements."""
    for p, f, ms, draws, vals in cases:
        lf = local_field(p, f)
        for _ in range(draws):
            m = rng.randint(*ms)
            A = standard_lattice(lf, m)
            B = Lattice(A.mat @ rand_matrix(lf, rng, m, vals, 0.9))
            C = Lattice(B.mat @ rand_matrix(lf, rng, m, (0, 1), 0.9))
            QYZ, QXZ, QXY = (quotient_struct(A, C), quotient_struct(B, C),
                             quotient_struct(A, B))
            if QYZ.module.size > cap:
                continue
            yield (lf, m, QXZ.module, QYZ.module, QXY.module, induced_hom(QXZ, QYZ),
                   induced_hom(QYZ, QXY))


def test_exact_seq_exp_matches_per_element_oracle():
    rng = random.Random(12)
    cases = [(3, 1, (1, 2), 12, (0, 2)), (5, 1, (1, 2), 12, (0, 2)),
             (7, 1, (1, 2), 12, (0, 2)), (3, 2, (1, 2), 12, (0, 2)),
             (5, 2, (1, 2), 8, (0, 2)), (3, 1, (3, 3), 8, (0, 2)), (5, 1, (3, 3), 8, (0, 2)),
             (5, 2, (3, 3), 8, (0, 2)), (3, 1, (3, 3), 8, (1, 1))]
    checked = []
    for lf, m, X, Y, Z, incl, proj in nested_sequences(rng, cases, 3000):
        for n in [n for n in range(1, lf.q) if (lf.q - 1) % n == 0]:
            for rule in ("least", "second_least", "digit"):
                assert (_exact_seq_exp(X, Y, Z, incl, proj, n, rule)
                        == _exact_seq_exp_per_element(X, Y, Z, incl, proj, n, rule))
        checked.append((lf.q, m, Y.rank))
    assert len(checked) >= 60
    assert {q for q, _, _ in checked} == {3, 5, 7, 9, 25}
    assert {q for q, m, _ in checked if m == 3} == {3, 5, 25}
    assert max(r for _, _, r in checked) == 3


def test_exact_seq_exp_maps_nothing_out_of_the_middle_module(monkeypatch):
    """The walk reads incl on X and the section on Z, and maps no element
    of Y: no images() or component list has Y for its source."""
    import resforge.torsor as torsor

    sources = []

    def images(h):
        sources.append(h.src)
        return orig_images(h)

    def values(src, dst, cols):
        sources.append(src)
        return orig_values(src, dst, cols)

    orig_images, orig_values = ModuleHom.images, torsor.component_values
    monkeypatch.setattr(ModuleHom, "images", images)
    monkeypatch.setattr(torsor, "component_values", values)
    walked = 0
    for _, _, X, Y, Z, incl, proj in nested_sequences(random.Random(4), [(5, 1, (1, 2), 10, (0, 2))],
                                                        5000):
        if 1 in (X.size, Z.size):   # then Y is Z or X as a module
            continue
        del sources[:]
        for n in (2, 4):
            _exact_seq_exp(X, Y, Z, incl, proj, n, "digit")
        assert sources and Y not in sources
        walked += 1
    assert walked >= 5


def test_section_lifts_every_generator():
    """Random maps between mixed-exponent modules of rank <= 3 at f = 1
    and at q in {9, 25}: when the map is onto (all of dst among its
    images), proj(s_k) = e_k for every generator e_k of dst; otherwise
    the section raises the middle-term message."""
    rng = random.Random(9)
    shapes = [(1,), (2,), (3,), (1, 1), (1, 2), (2, 3), (1, 1, 2), (1, 2, 2)]
    onto = other = 0
    for p, f in [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2)]:
        lf = local_field(p, f)
        fits = [s for s in shapes if lf.q ** sum(s) <= 3000]
        for _ in range(25):
            src = FiniteModule(lf, rng.choice(fits))
            dst = FiniteModule(lf, rng.choice(shapes))
            h = random_hom(lf, rng, src, dst)
            if len(set(h.images())) == dst.size:
                gens = [tuple(int(j == k) for j in range(dst.rank)) for k in range(dst.rank)]
                assert [h.apply(s) for s in _section(h)] == gens
                onto += 1
            else:
                with pytest.raises(ValueError, match="^sequence not exact at the middle term$"):
                    _section(h)
                other += 1
    assert onto >= 25 and other >= 25
