import itertools
import random

import pytest

from resforge.errors import EnumerationBound
from resforge.extension import (SymbolEngine, _iso_exp, _rel_dim_parity, cocycle,
                                cocycle_exp, comm_symbol, corrected_symbol, get_engine,
                                kappa_exp, rho_exp)
from resforge.fields import power_residue_char
from resforge.lattices import (MEMO_CAP, KMat, Lattice, LatticeQuotient, induced_hom,
                               lat_apply, lat_contains_lattice, lat_intersect,
                               principal_lattice, quotient_struct, rel_dim,
                               standard_lattice)
from resforge.musets import OrbitView
from resforge.padic import LocalField, local_field
from resforge.symbols import crosscheck, power_residue_symbol
from resforge.torsor import _det_exp_brute, _exact_seq_exp
from resforge.verify import _random_matrix as rand_matrix
from oracles import kmat_identity

RULES = ("digit", "least", "second_least")


@pytest.fixture
def eng7():
    return get_engine(local_field(7), 2)


def test_rho_identity_and_pi_scaling(eng7):
    lf = eng7.lf
    O = standard_lattice(lf, 1)
    uO = Lattice.from_rows(lf, [["3"]])
    piO = principal_lattice(lf, 1)
    ident = kmat_identity(lf, 1)
    assert rho_exp(ident, O, piO, eng7) == 0
    # scaling by pi acts trivially on (O | uO)
    assert rho_exp(KMat.from_rows(lf, [["pi"]]), O, uO, eng7) == 0


def test_rho_functor_composition(eng7):
    lf = eng7.lf
    rng = random.Random(9)
    for m in (1, 2):
        for _ in range(10):
            f, g = rand_matrix(lf, rng, m, (-1, 1)), rand_matrix(lf, rng, m, (-1, 1))
            A = lat_apply(rand_matrix(lf, rng, m, (-1, 1)), standard_lattice(lf, m))
            B = lat_apply(rand_matrix(lf, rng, m, (-1, 1)), standard_lattice(lf, m))
            gA, gB = lat_apply(g, A), lat_apply(g, B)
            lhs = rho_exp(f @ g, A, B, eng7)
            rhs = (rho_exp(f, gA, gB, eng7) + rho_exp(g, A, B, eng7)) % 2
            assert lhs == rhs


def nested_kappa(A, B, C, engine):
    """kappa of a nested triple or a pairing by its own formula, on
    quotients built here and not kept: for A >= B >= C the connecting
    sequence of B/C -> A/C -> A/B, for C >= B >= A minus that of
    B/A -> C/A -> C/B, and 0 for A = C.  Degenerate sequences (A = B or
    B = C) are walked, not skipped."""
    if A == C:
        return 0
    for sign, (X, Y, Z) in ((1, (A, B, C)), (-1, (C, B, A))):
        if lat_contains_lattice(X, Y) and lat_contains_lattice(Y, Z):
            QXZ, QYZ, QXY = LatticeQuotient(X, Z), LatticeQuotient(Y, Z), LatticeQuotient(X, Y)
            exp = _exact_seq_exp(QYZ.module, QXZ.module, QXY.module, induced_hom(QYZ, QXZ),
                                 induced_hom(QXZ, QXY), engine.n, engine.rule)
            return sign * exp % engine.n
    raise ValueError("neither nested nor a pairing")


def test_kappa_degenerate_cases(eng7):
    lf = eng7.lf
    O = standard_lattice(lf, 1)
    piO = principal_lattice(lf, 1)
    pi2O = principal_lattice(lf, 2)
    assert kappa_exp(O, O, piO, eng7) == 0      # (A|A) (x) (A|C) -> (A|C)
    assert kappa_exp(O, piO, piO, eng7) == 0    # unit constraint on (B|B)
    assert kappa_exp(O, piO, O, eng7) == 0      # duality pairing case
    assert kappa_exp(O, pi2O, O, eng7) == 0
    for tri in [(O, O, piO), (O, piO, piO), (piO, piO, O), (piO, O, O)]:
        assert nested_kappa(*tri, eng7) == 0


def test_kappa_path_independence():
    """kappa_exp, one chain, against the formulas of the nested triples
    (descending and ascending) and the pairing, on rank-one triples and on
    nested rank-two ones B = A M, C = B M' for integral M, M' (or their
    inverses), all within the bound.  Under the digit rule a rank-one
    nested kappa is 0, so the other rules are what tell the ascending
    case's sign."""
    rng = random.Random(33)
    kinds = set()
    for (p, n), rule in itertools.product([(7, 2), (5, 4), (13, 3)], RULES):
        eng = get_engine(local_field(p), n, rule)
        lf = eng.lf
        triples = [tuple(principal_lattice(lf, v) for v in tri)
                   for tri in [(0, 1, 2), (0, 0, 3), (-1, 1, 2), (-3, -2, 0), (-2, 0, 2),
                               (2, 1, 0), (1, -1, -2), (0, 2, 0), (1, -1, 1)]]
        while len(triples) < 15:
            A = lat_apply(rand_matrix(lf, rng, 2, (-1, 1)), standard_lattice(lf, 2))
            M, M2 = rand_matrix(lf, rng, 2, (0, 1)), rand_matrix(lf, rng, 2, (0, 1))
            B = Lattice(A.mat @ M)
            C = Lattice(B.mat @ M2)
            if rng.random() < 0.5:
                A, C = C, A
            if lf.q ** abs(C.det_val - A.det_val) <= lf.enum_bound:
                triples.append((A, B, C))
        for A, B, C in triples:
            want = nested_kappa(A, B, C, eng)
            assert kappa_exp(A, B, C, eng) == want, (p, n, rule, A.m)
            kinds.add((A.m, A == C, A.det_val < C.det_val, want != 0))
    assert {(2, False, True, True), (2, False, False, True), (1, True, False, False)} <= kinds


def test_kappa_contraction_associativity(eng7):
    # kappa is consistent on overlapping triples: contracting
    # (A|B)(B|C)(C|D) in either order gives the same scalar
    eng = eng7
    rng = random.Random(10)
    for _ in range(15):
        vals = [rng.randint(-2, 2) for _ in range(4)]
        A, B, C, D = (principal_lattice(eng.lf, v) for v in vals)
        left = (kappa_exp(A, B, C, eng) + kappa_exp(A, C, D, eng)) % 2
        right = (kappa_exp(B, C, D, eng) + kappa_exp(A, B, D, eng)) % 2
        assert left == right, vals


def test_cocycle_normalization(eng7):
    lf = eng7.lf
    ident = kmat_identity(lf, 1)
    g = KMat.from_rows(lf, [["pi^2*3"]])
    assert cocycle(ident, g, eng7).exp == 0
    assert cocycle(g, ident, eng7).exp == 0
    assert cocycle(ident, ident, eng7).exp == 0


def test_cocycle_identity_random():
    rng = random.Random(11)
    done = 0
    while done < 60:
        p = rng.choice((3, 5, 7))
        lf = local_field(p)
        n = rng.choice([d for d in range(1, p) if (p - 1) % d == 0])
        eng = get_engine(lf, n)
        m = rng.choice((1, 2))
        f, g, h = (rand_matrix(lf, rng, m) for _ in range(3))
        try:
            lhs = (cocycle_exp(f, g @ h, eng) + cocycle_exp(g, h, eng)) % n
            rhs = (cocycle_exp(f @ g, h, eng) + cocycle_exp(f, g, eng)) % n
        except EnumerationBound:
            continue
        assert lhs == rhs, (p, n, m)
        done += 1


def test_gl3_cocycle_identity_holds_or_runs_out():
    # GL_3 draws may still run past the enumeration bound, but no draw may
    # break the identity, run out of digits or call an entry non-integral
    rng = random.Random(7)
    held = 0
    for k in range(20):
        lf = local_field((3, 5, 7)[k % 3])
        eng = get_engine(lf, 2)
        f, g, h = (rand_matrix(lf, rng, 3) for _ in range(3))
        try:
            lhs = (cocycle_exp(f, g @ h, eng) + cocycle_exp(g, h, eng)) % 2
            rhs = (cocycle_exp(f @ g, h, eng) + cocycle_exp(f, g, eng)) % 2
        except EnumerationBound:
            continue
        assert lhs == rhs, k
        held += 1
    assert held


def test_gl3_draw_that_ran_out_of_digits_answers():
    """The ledger's gl3/p3/0, the first of its GL_3 identities, against
    truncation inside the lattice layer: its widest lattice window is a
    few digits, far below the inputs' 60, so it answers, with its pinned
    value, and the identity holds."""
    rng = random.Random(7)
    f, g, h = (rand_matrix(local_field(3), rng, 3) for _ in range(3))
    eng = get_engine(local_field(3), 2)
    cells = [cocycle_exp(a, b, eng) for a, b in ((f, g @ h), (g, h), (f @ g, h), (f, g))]
    assert cells == [0, 1, 1, 0]
    assert (cells[0] + cells[1] - cells[2] - cells[3]) % 2 == 0


def test_ext_group_law(eng7):
    """Lifts multiply as (f, s)(g, t) = (fg, zeta^c(f,g) * s t), so the lift
    of 1 is the unit iff c(1, f) = c(f, 1) = 0, and mu_n = {(1, zeta^e)} is
    central iff c(1, f) = c(f, 1).  Associativity is the cocycle identity."""
    lf = eng7.lf
    rng = random.Random(12)
    one = kmat_identity(lf, 1)
    for _ in range(10):
        f = rand_matrix(lf, rng, 1)
        assert cocycle_exp(one, f, eng7) == cocycle_exp(f, one, eng7) == 0


def test_comm_symbol_requires_commuting(eng7):
    lf = eng7.lf
    f = KMat.from_rows(lf, [[1, 1], [0, 1]])
    g = KMat.from_rows(lf, [[1, 0], [1, 1]])
    with pytest.raises(ValueError):
        comm_symbol(f, g, eng7)


def test_comm_symbol_known_values(eng7):
    assert comm_symbol("3", "7", eng7).exp == 1   # 3 is a non-residue mod 7
    assert comm_symbol("7", "7", eng7).exp == 0   # {pi, pi} = 1
    assert comm_symbol("3", "5", eng7).exp == 0   # units commute to 1
    assert comm_symbol("2", "7", eng7).exp == 0   # 2 = 3^2 is a residue
    for a in ("3", "7", "pi^-2*5", "1/3"):
        assert comm_symbol(a, a, eng7).exp == 0   # {a, a} = 1 always


def test_comm_symbol_via_lifts(eng7):
    lf = eng7.lf
    rng = random.Random(13)
    for _ in range(15):
        a = lf.pi(rng.randint(-2, 2)) * lf.from_rational(rng.randint(1, 6))
        b = lf.pi(rng.randint(-2, 2)) * lf.from_rational(rng.randint(1, 6))
        f, g = eng7.as_kmat(a), eng7.as_kmat(b)
        finv, ginv = f.inverse(), g.inverse()
        # (f,0)(g,0)(f,0)^-1(g,0)^-1 with (f,0)^-1 = (f^-1, -c(f,f^-1))
        via_lifts = (cocycle_exp(f, g, eng7) + cocycle_exp(f @ g, finv, eng7)
                     + cocycle_exp(f @ g @ finv, ginv, eng7)
                     - cocycle_exp(f, finv, eng7) - cocycle_exp(g, ginv, eng7))
        assert via_lifts % 2 == comm_symbol(a, b, eng7).exp


def test_comm_symbol_gl2_units(eng7):
    lf = eng7.lf
    rng = random.Random(14)
    for _ in range(10):
        f = rand_matrix(lf, rng, 2, (0, 0))
        g = rand_matrix(lf, rng, 2, (0, 0))
        if (f @ g) == (g @ f):
            assert comm_symbol(f, g, eng7).exp == 0
        fg = f @ f  # f commutes with itself and its powers
        assert comm_symbol(f, fg, eng7).exp == 0


def test_corrected_symbol_examples(eng7):
    assert corrected_symbol("7", "7", eng7).exp == 1   # <7,7> = -1
    assert corrected_symbol("3", "7", eng7).exp == 1
    assert corrected_symbol("3", "5", eng7).exp == 0   # units
    assert corrected_symbol("2", "5", eng7).exp == 0


def test_corrected_symbol_odd_n_has_trivial_sign():
    eng = get_engine(local_field(7), 3)
    # v(a), v(b) both odd would flip a sign if -1 were in mu_3; it is not,
    # and the character of -1 is trivial for odd n
    assert corrected_symbol("7", "7", eng).exp == comm_symbol("7", "7", eng).exp


def test_trivialization_independence():
    lf = local_field(7)
    engines = [get_engine(lf, 2, rule=rule) for rule in RULES]
    rng = random.Random(15)
    for _ in range(40):
        a = lf.pi(rng.randint(-2, 2)) * lf.from_rational(rng.randint(1, 6))
        b = lf.pi(rng.randint(-2, 2)) * lf.from_rational(rng.randint(1, 6))
        exps = [comm_symbol(a, b, eng).exp for eng in engines]
        assert exps == [exps[0]] * 3, (a.as_str(), b.as_str(), exps)


def test_digit_is_the_default_rule():
    lf = local_field(7)
    assert get_engine(lf, 3).rule == "digit"
    assert get_engine(lf, 3) is get_engine(lf, 3, rule="digit")


@pytest.mark.parametrize("p,f", [(3, 1), (5, 1), (7, 1), (13, 1), (3, 2), (5, 2)])
def test_rank_one_closed_forms_equal_enumeration(p, f):
    """Under the digit rule, c(f, g) at m = 1 is the closed-form rho with
    kappa = 0, and the relative dimension is sign(v) (q^|v| - 1)/n; both
    against enumeration in every cell whose modules have <= 200 elements."""
    lf = LocalField(p, f, default_precision=8)
    q = lf.q
    K = max(k for k in range(8) if q**k <= 200)
    units = [lf.from_rational(u) if f == 1 else lf.from_coeffs(lf.field.decode(u))
             for u in range(1, q)]
    cells = [(vf, vg) for vf in range(-K, K + 1) for vg in range(-K, K + 1)
             if abs(vf + vg) <= K]
    nonzero = 0
    for n in [d for d in range(1, q) if (q - 1) % d == 0]:
        eng = get_engine(lf, n)
        O = principal_lattice(lf, 0)
        for v in range(-K, K + 1):
            full = (q**abs(v) - 1) // n * (1 if v >= 0 else -1)   # the closed form
            assert full == rel_dim(O, principal_lattice(lf, v), n), (n, v)
            assert _rel_dim_parity(q, n, v) == full % 2, (n, v)
        for vf, vg in cells:
            k = kappa_exp(O, principal_lattice(lf, vf), principal_lattice(lf, vf + vg), eng)
            assert k == 0, (n, vf, vg)
            for i, x in enumerate(units):
                F = KMat.from_rows(lf, [[lf.pi(vf) * x]])
                G = KMat.from_rows(lf, [[lf.pi(vg) * units[i - 1]]])
                r = rho_exp(F, O, principal_lattice(lf, vg), eng)
                assert cocycle_exp(F, G, eng) == r, (n, x.as_str(), vf, vg)
                nonzero += r != 0
    assert nonzero > 0


def test_rank_one_cocycle_reads_each_unit_afresh():
    # at q = 9 both units are encoded as 10, at precisions 2 and 3, but
    # their residues are 4 and 1; one engine must give what fresh ones give
    lf = local_field(3, 2)
    x1 = lf.from_coeffs([1, 1], prec=2)
    x2 = lf.from_coeffs([10, 0], prec=3)
    assert x1.unit == x2.unit and x1.reduce_mod_pi() != x2.reduce_mod_pi()
    for rule in RULES:
        for n in (2, 4, 8):
            shared = SymbolEngine(lf, n, rule)
            got = [cocycle(x, "pi", shared).exp for x in (x1, x2)]
            fresh = [cocycle(x, "pi", SymbolEngine(lf, n, rule)).exp for x in (x1, x2)]
            assert got == fresh == [1, 0], (rule, n)


def test_rank_one_symbols_build_no_matrix(monkeypatch):
    lf = local_field(5, 2)
    a, b = lf.parse("pi^2*[1,2]"), lf.parse("pi^-1*[3,1]")
    eng = SymbolEngine(lf, 4)
    # the same symbols through 1x1 matrices and cocycle_exp
    fa, fb = eng.as_kmat(a), eng.as_kmat(b)
    want = (power_residue_symbol(lf, a, b, 4).exp, comm_symbol(fa, fb, eng).exp,
            cocycle_exp(fa, fb, eng))

    def refuse(*_args, **_kw):
        raise AssertionError("a KMat was built on the rank-one route")

    monkeypatch.setattr(KMat, "__init__", refuse)
    for x, y in [(a, b), ("pi^2*[1,2]", "pi^-1*[3,1]"), (a, "pi^-1*[3,1]")]:
        got = (corrected_symbol(x, y, eng).exp, comm_symbol(x, y, eng).exp,
               cocycle(x, y, eng).exp)
        assert got == want, (x, y)


@pytest.mark.parametrize("p, f", [(7, 1), (3, 2), (5, 2)])
def test_a_rank_one_argument_is_the_one_by_one_matrix_of_from_rows(p, f):
    """as_kmat builds a K^x argument's 1 x 1 matrix straight from its
    valuation and unit: the same shift, precision, ring and data as
    KMat.from_rows, at precisions 1-60 and valuations -5..5."""
    lf = LocalField(p, f)
    eng = get_engine(lf, 2)
    rng = random.Random(100 * p + f)
    for _ in range(200):
        prec = rng.randint(1, 60)
        coeffs = [rng.randrange(1, p)] + [rng.randrange(p**prec) for _ in range(f - 1)]
        x = lf.pi(rng.randint(-5, 5), prec) * lf.from_coeffs(coeffs, prec)
        got, want = eng.as_kmat(x), KMat.from_rows(lf, [[x]], x.prec)
        assert (got.shift, got.prec, got.ring, got.data) == (
            want.shift, want.prec, want.ring, want.data), (coeffs, x.val, prec)


def test_extension_route_answers_past_the_enumeration_ceiling():
    lf = local_field(13)
    rng = random.Random(16)
    for n in (2, 3, 4, 6, 12):
        eng = get_engine(lf, n)
        for _ in range(40):
            a = lf.pi(rng.randint(-10, 10)) * lf.from_rational(rng.randint(1, 12))
            b = lf.pi(rng.randint(-10, 10)) * lf.from_rational(rng.randint(1, 12))
            want = power_residue_symbol(lf, a, b, n).exp
            assert corrected_symbol(a, b, eng).exp == want, (n, a.as_str(), b.as_str())
    # an enumerating rule needs O/pi^6 (4.8M elements) for kappa here
    with pytest.raises(EnumerationBound):
        corrected_symbol("pi^3*2", "pi^3*11", get_engine(lf, 12, rule="least"))


@pytest.mark.parametrize("p,f", [(2, 1), (7, 1), (13, 1), (3, 2), (5, 2), (2, 3), (3, 3)])
def test_rel_dim_parity_is_that_of_the_full_value(p, f):
    """The closed-form parity is that of (q^k - 1)/n, for k <= 40 and
    every n | q - 1, with either sign of v, for odd and even q."""
    q = p**f
    for n in [d for d in range(1, q) if (q - 1) % d == 0]:
        for k in range(41):
            want = ((q**k - 1) // n) % 2
            assert _rel_dim_parity(q, n, k) == _rel_dim_parity(q, n, -k) == want, (n, k)


def test_crosscheck_at_a_huge_valuation_answers_and_agrees():
    """corrected_symbol reads only the parity of (q^|v| - 1)/n, so a
    valuation of 10^7 costs no more than a small one."""
    lf = local_field(13)
    v = 10**7
    for n in (2, 3, 4, 12):
        for a, b in ((f"pi^{v}*2", f"pi^{v}*3"), (f"pi^{v}*5", f"pi^-{v + 1}*7")):
            rep = crosscheck(lf, lf.parse(a), lf.parse(b), n)
            assert rep.agree and rep.skipped == {}, (n, a, b)


def test_theorem_small_sweep_q13_n4():
    lf = local_field(13)
    eng = get_engine(lf, 4)
    for va in (-1, 0, 1):
        for ua in (1, 2, 5, 7):
            a = lf.pi(va) * lf.from_rational(ua)
            for vb in (-1, 0, 1):
                for ub in (1, 3, 6, 11):
                    b = lf.pi(vb) * lf.from_rational(ub)
                    u = (a**vb) * (b**va).inverse()
                    want = power_residue_char(lf.field, u.reduce_mod_pi(), 4)
                    assert comm_symbol(a, b, eng).exp == want.exp


def test_gl_m_route_rejects_matrices_of_another_field():
    lf7, lf13 = local_field(7), local_field(13)
    eng = get_engine(lf7, 6)
    f, g = KMat.from_rows(lf13, [["13"]]), KMat.from_rows(lf13, [["2"]])
    with pytest.raises(ValueError):
        comm_symbol(f, g, eng)
    with pytest.raises(ValueError):
        cocycle_exp(KMat.from_rows(lf7, [[7]]), g, eng)
    with pytest.raises(ValueError):
        cocycle_exp(kmat_identity(lf13, 2), kmat_identity(lf13, 2), eng)


@pytest.mark.parametrize("p,f", [(3, 1), (5, 1), (7, 1), (13, 1), (3, 2), (5, 2)])
def test_digit_iso_exp_equals_enumeration(p, f):
    """_iso_exp of an engine of each rule against _det_exp_brute on the map
    f induces from A/I to f(A)/f(I), for I = diag(pi^e) O^m inside A = O^m
    and random f, wherever the module has <= 7000 elements.  The two
    quotients are equal modules, so the map is an automorphism."""
    lf = local_field(p, f)
    q = lf.q
    rng = random.Random(p * f)
    ns = [d for d in range(1, q) if (q - 1) % d == 0]
    enumerated = 0
    for exps in [(1,), (2,), (3,), (1, 1), (1, 2), (1, 1, 2)]:
        if q ** sum(exps) > 7000:
            continue
        m = len(exps)
        A = standard_lattice(lf, m)
        I = Lattice.from_rows(lf, [[f"pi^{e}" if j == k else 0 for k in range(m)]
                                   for j, e in enumerate(exps)])
        srcQ = quotient_struct(A, I)
        assert srcQ.module.exps == exps
        for n in ns:
            engines = [SymbolEngine(lf, n, rule) for rule in RULES]
            for _ in range(3):
                g = rand_matrix(lf, rng, m, (-1, 1))
                dstQ = quotient_struct(lat_apply(g, A), lat_apply(g, I))
                want = _det_exp_brute(induced_hom(srcQ, dstQ, g), n)
                for eng in engines:
                    assert _iso_exp(srcQ, dstQ, g, eng) == want, (exps, n, eng.rule)
                enumerated += 1
    assert enumerated >= 3 * 3 * len(ns)   # at least (1,), (2,) and (1, 1)


def random_rho_input(lf, rng, m):
    def lattice():
        return lat_apply(rand_matrix(lf, rng, m, (-1, 1)), standard_lattice(lf, m))
    return rand_matrix(lf, rng, m, (-1, 1)), lattice(), lattice()


def rho_by_enumeration(f, A, B, n):
    """rho_f on (A|B) from its definition: the iso scalar of f on A/(A cap B)
    plus that of f^-1 on f(B)/f(A cap B), both by orbit enumeration.  Each
    iso runs between equal modules, so its scalar is an automorphism's."""
    I = lat_intersect(A, B)
    fA, fB, fI = lat_apply(f, A), lat_apply(f, B), lat_apply(f, I)
    total = 0
    for src, dst, h in [(quotient_struct(A, I), quotient_struct(fA, fI), f),
                        (quotient_struct(fB, fI), quotient_struct(B, I), f.inverse())]:
        total += _det_exp_brute(induced_hom(src, dst, h), n)
    return total % n


@pytest.mark.parametrize("p,m", [(5, 1), (7, 1), (13, 1), (3, 2), (5, 2), (7, 2),
                                 (13, 2), (3, 3), (5, 3)])
def test_graded_rho_equals_enumeration(p, m):
    """rho_exp of an engine of each rule against its definition by
    enumeration; rho on canonical bases does not depend on the rule."""
    lf = local_field(p)
    rng = random.Random(100 * p + m)
    done = 0
    while done < 6:
        n = rng.choice([d for d in range(2, p) if (p - 1) % d == 0])
        f, A, B = random_rho_input(lf, rng, m)
        try:
            want = rho_by_enumeration(f, A, B, n)
        except EnumerationBound:
            continue
        got = [rho_exp(f, A, B, SymbolEngine(lf, n, rule)) for rule in RULES]
        assert got == [want] * 3, (n, got, want)
        done += 1


def test_digit_rho_builds_no_orbit_view(monkeypatch):
    def refuse(*_args, **_kw):
        raise AssertionError("an OrbitView was built for rho under the digit rule")

    monkeypatch.setattr(OrbitView, "__init__", refuse)
    rng = random.Random(17)
    for p, m in [(7, 2), (13, 2), (5, 3)]:
        lf = local_field(p)
        for _ in range(4):
            f, A, B = random_rho_input(lf, rng, m)
            rho_exp(f, A, B, SymbolEngine(lf, p - 1))


@pytest.mark.parametrize("p", [3, 5])
def test_gl2_cocycle_identity_at_f2(p):
    lf = local_field(p, 2)
    rng = random.Random(p)
    done = 0
    while done < 4:
        n = rng.choice([d for d in range(2, lf.q) if (lf.q - 1) % d == 0])
        eng = get_engine(lf, n)
        f, g, h = (rand_matrix(lf, rng, 2, (-1, 1)) for _ in range(3))
        try:
            lhs = (cocycle_exp(f, g @ h, eng) + cocycle_exp(g, h, eng)) % n
            rhs = (cocycle_exp(f @ g, h, eng) + cocycle_exp(f, g, eng)) % n
        except EnumerationBound:
            continue
        assert lhs == rhs, (n, done)
        done += 1


@pytest.mark.parametrize("p,tally", [(3, (12, 0)), (5, (8, 4))])
def test_gl2_cocycle_identity_at_f2_on_every_draw_twice(p, tally, monkeypatch):
    """Twelve seeded draws at q = p^2 with entry valuations in [-1, 1]:
    each satisfies the identity or runs past the enumeration bound, by a
    pinned tally, and none is dropped.  The second pass on the same
    engines comes from the memos, walks no exact sequence and gives the
    first pass's sides and failures."""
    import resforge.extension as extension

    lf = LocalField(p, 2)
    rng = random.Random(lf.q)
    draws = []
    for _ in range(12):
        n = rng.choice([d for d in range(2, lf.q) if (lf.q - 1) % d == 0])
        draws.append((get_engine(lf, n), *(rand_matrix(lf, rng, 2, (-1, 1)) for _ in range(3))))

    def sides(eng, f, g, h):
        try:
            return ((cocycle_exp(f, g @ h, eng) + cocycle_exp(g, h, eng)) % eng.n,
                    (cocycle_exp(f @ g, h, eng) + cocycle_exp(f, g, eng)) % eng.n)
        except EnumerationBound:
            return "EnumerationBound"

    first = [sides(*draw) for draw in draws]
    held = [lhs == rhs for lhs, rhs in (s for s in first if s != "EnumerationBound")]
    assert (len(held), first.count("EnumerationBound")) == tally and all(held)
    calls = {}
    monkeypatch.setattr(extension, "_exact_seq_exp", recorded_calls(calls, "walk", _exact_seq_exp))
    assert [sides(*draw) for draw in draws] == first
    assert calls["walk"] == []


def _outcome(fn):
    try:
        return fn()
    except EnumerationBound:
        return "EnumerationBound"


@pytest.mark.parametrize("p,f", [(3, 1), (5, 1), (7, 1), (13, 1), (3, 2), (5, 2)])
def test_cocycle_equals_rho_plus_kappa_from_public_pieces(p, f):
    """cocycle_exp against rho_exp(f, V, gV) + kappa_exp(V, fV, fgV) on the
    lattices applied here, under every rule.  The sum runs on a second
    engine of the same rule, so it walks each link again rather than
    reading the first engine's kept value.  The draws give kappa general
    triples (random f, g), nested ones (integral f, g: V >= fV >= fgV) and
    the pairing (g = f^-1: fgV = V).
    The enumeration bound is q^2, so that some GL_2 draws reach it.  At m = 1
    the least and second_least rules run the same lattice body on 1 x 1
    matrices; the digit rule's closed form is held to the lattices by
    test_rank_one_closed_forms_equal_enumeration."""
    lf = LocalField(p, f, enum_bound=p ** (2 * f))
    rng = random.Random(31 * p + f)
    ns = [d for d in range(2, lf.q) if (lf.q - 1) % d == 0]
    for m in (2, 1):
        V = standard_lattice(lf, m)
        seen = set()
        for i, vals in enumerate([(-1, 1)] * 3 + [(-2, 2)] * 3 + [(-1, 1)] * 3 + [(0, 1)] * 3):
            eng = SymbolEngine(lf, rng.choice(ns), RULES[i % 3] if m == 2 else RULES[1 + i % 2])
            F = rand_matrix(lf, rng, m, vals)
            G = F.inverse() if 6 <= i < 9 else rand_matrix(lf, rng, m, vals)
            gV = lat_apply(G, V)
            fV, fgV = lat_apply(F, V), lat_apply(F, gV)
            if V == fgV:
                kind = "pairing"
            elif lat_contains_lattice(V, fV) and lat_contains_lattice(fV, fgV):
                kind = "nested"
            else:
                kind = "general"
            got = _outcome(lambda: cocycle_exp(F, G, eng))
            twin = SymbolEngine(lf, eng.n, eng.rule)
            want = _outcome(lambda: (rho_exp(F, V, gV, twin)
                                     + kappa_exp(V, fV, fgV, twin)) % eng.n)
            assert got == want, (m, i, eng.n, eng.rule)
            seen.add((kind, got == "EnumerationBound"))
        assert {("general", False), ("nested", False), ("pairing", False)} <= seen, m
        assert m == 1 or any(bound for _, bound in seen)


def test_gl2_cocycle_calls_public_rho_and_kappa_once(monkeypatch):
    """cocycle_exp reaches rho and kappa through the module attributes
    rho_exp and kappa_exp, the names a tracer wraps, once each."""
    import resforge.extension as extension

    calls = []

    def recorded(name):
        fn = getattr(extension, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("rho_exp", "kappa_exp"):
        monkeypatch.setattr(extension, name, recorded(name))
    lf = local_field(3)
    rng = random.Random(3)
    f, g = rand_matrix(lf, rng, 2), rand_matrix(lf, rng, 2)
    cocycle_exp(f, g, get_engine(lf, 2))
    assert sorted(calls) == ["kappa_exp", "rho_exp"]


def test_engine_rejects_an_unknown_rule():
    lf = LocalField(7)
    with pytest.raises(ValueError, match="unknown representative rule 'bogus'"):
        get_engine(lf, 2, "bogus")
    with pytest.raises(ValueError, match="unknown representative rule"):
        SymbolEngine(lf, 2, "digits")
    assert not lf._engines


def six_links(A, B, C, engine, cap):
    """Every link of kappa's chain, built afresh: each link's three
    quotients and both induced homs, with nothing shared.  Yields
    (sign, whether X = Y or Y = D3, exponent), or nothing when some middle
    module X/D3 has more than cap elements."""
    AB, BC, AC = lat_intersect(A, B), lat_intersect(B, C), lat_intersect(A, C)
    D3 = lat_intersect(AB, C)
    if max(quotient_struct(X, D3).module.size for X in (A, B, C)) > cap:
        return
    for sign, X, Y in ((1, A, AB), (-1, B, AB), (1, B, BC), (-1, C, BC), (-1, A, AC),
                       (1, C, AC)):
        QXZ, QYZ, QXY = quotient_struct(X, D3), quotient_struct(Y, D3), quotient_struct(X, Y)
        exp = _exact_seq_exp(QYZ.module, QXZ.module, QXY.module, induced_hom(QYZ, QXZ),
                             induced_hom(QXZ, QXY), engine.n, engine.rule)
        yield sign, X == Y or Y == D3, exp


def test_kappa_chain_skips_only_links_that_enumerate_to_zero():
    """kappa_exp against all six links of the chain, on random triples of
    rank m <= 3: B and C each inside, around or apart from the lattice
    before it.  A link with X = Y or Y = D3 is skipped by the code, and
    enumerated here it gives 0 under every rule."""
    rng = random.Random(21)
    skipped = run = nonzero = 0
    for (p, f), rule in itertools.product([(3, 1), (5, 1), (7, 1), (13, 1), (3, 2), (5, 2)],
                                          RULES):
        lf = local_field(p, f)
        ns = [d for d in range(2, lf.q) if (lf.q - 1) % d == 0]
        for _ in range(8):
            eng = get_engine(lf, rng.choice(ns), rule)
            m = rng.randint(1, 3)
            lats = [lat_apply(rand_matrix(lf, rng, m, (-1, 1)), standard_lattice(lf, m))]
            for _ in range(2):
                M = rand_matrix(lf, rng, m, (0, 1), 0.9)
                apart = lat_apply(rand_matrix(lf, rng, m, (-1, 1)), standard_lattice(lf, m))
                lats.append(rng.choice([Lattice(lats[-1].mat @ M),
                                        Lattice(lats[-1].mat @ M.inverse()), apart, apart]))
            A, B, C = lats
            links = list(six_links(A, B, C, eng, 5000))
            if not links:
                continue
            assert all(exp == 0 for _, skip, exp in links if skip), (p, f, rule, m)
            full = sum(sign * exp for sign, _, exp in links) % eng.n
            assert kappa_exp(A, B, C, eng) == full, (p, f, rule, m)
            skipped += sum(skip for _, skip, _ in links)
            run += sum(not skip for _, skip, _ in links)
            nonzero += sum(exp != 0 for _, _, exp in links)
    assert skipped >= 100 and run >= 50 and nonzero >= 20, (skipped, run, nonzero)


def recorded_calls(calls, key, fn):
    """fn, recording the arguments of each call under calls[key]."""
    calls[key] = []

    def wrapper(*args):
        calls[key].append(args)
        return fn(*args)
    return wrapper


def record_cocycle_work(monkeypatch, calls):
    """Record into calls what cocycle_exp asks for and builds:
    intersections, the canonical HNFs run inside them and in all, the
    LatticeQuotients built (memo hits build none), SNFs, kappa_exp and its
    links (_seq_exp), ModuleHom.apply, containment tests and triangular
    solves."""
    import resforge.extension as extension
    import resforge.lattices as lattices
    from resforge.modules import ModuleHom

    for key in ("intersect", "hnf", "hnf_in_intersect", "build", "snf", "kappa",
                "seq", "apply", "contains", "solve"):
        calls[key] = []

    def recorded(key, fn):
        def wrapper(*args):
            res = fn(*args)
            calls[key].append(res)
            return res
        return wrapper

    def intersect(A, B):
        hnfs = len(calls["hnf"])
        res = lat_intersect(A, B)
        calls["hnf_in_intersect"].extend(calls["hnf"][hnfs:])
        calls["intersect"].append(res)
        return res

    real_init = LatticeQuotient.__init__

    def build(Q, A, B):
        real_init(Q, A, B)
        calls["build"].append(Q)

    monkeypatch.setattr(extension, "lat_intersect", intersect)
    monkeypatch.setattr(LatticeQuotient, "__init__", build)
    monkeypatch.setattr(lattices, "_hnf", recorded("hnf", lattices._hnf))
    monkeypatch.setattr(extension, "kappa_exp", recorded("kappa", extension.kappa_exp))
    monkeypatch.setattr(extension, "_seq_exp", recorded("seq", extension._seq_exp))
    monkeypatch.setattr(lattices, "lat_contains_lattice",
                        recorded("contains", lattices.lat_contains_lattice))
    monkeypatch.setattr(lattices, "_solve", recorded("solve", lattices._solve))
    monkeypatch.setattr(lattices, "smith_normal_form",
                        recorded("snf", lattices.smith_normal_form))
    monkeypatch.setattr(ModuleHom, "apply", recorded("apply", ModuleHom.apply))


def test_chain_cocycle_work_count(monkeypatch):
    """One GL_2 cocycle through kappa's chain, on a fresh field, so its
    memos start empty.  On this draw f maps gV onto itself, so fgV = gV;
    a twin field with the same seeded draw checks that, because checking
    it on this field would keep f(gV) in its memo of images.  Applying g
    to V and f to V and gV runs 3 HNFs.  Neither fV/(fV cap gV) nor
    gV/(fV cap gV) is zero, so fV and fgV do not nest.  rho asks for
    V cap gV and fV cap fgV, kappa for AB = V cap fV, BC, AC and D3: 6
    asks of 4 distinct pairs, since BC = fV cap fgV is rho's and
    AC = V cap fgV is V cap gV.  Each pair tests containment once, when
    first asked.  D3 = AB cap C nests, AB <= C, so it is the operand AB;
    the other three run a Hermite form (of [[A, B], [A, 0]]): V cap gV,
    fV cap gV and V cap fV.  6 HNFs in all.  rho builds 4 quotients: V
    and gV over V cap gV, fV and fgV over fV cap fgV, the last two being
    kappa's B/BC and C/BC.  With D3 = AB the two links through AB are
    skipped, so 4 exact sequences run, over the quotients A, B, C, BC and
    AC over D3, B/BC, C/BC, A/AC and C/AC.  A/AC and C/AC are rho's
    V/(V cap gV) and gV/(V cap gV), so kappa builds only the 5 over
    D3: 9 quotients, each once and none zero, with 9 SNFs.  Each exact
    sequence checks proj o incl = 0 on the generators of its X, here of
    rank 1, by one ModuleHom.apply each, and applies nothing per element:
    4 applies, each giving zero."""
    twin = LocalField(3)
    rng = random.Random(3)
    f, g = rand_matrix(twin, rng, 2), rand_matrix(twin, rng, 2)
    gV = lat_apply(g, standard_lattice(twin, 2))
    assert lat_apply(f, gV) == gV
    lf = LocalField(3)
    rng = random.Random(3)
    f, g = rand_matrix(lf, rng, 2), rand_matrix(lf, rng, 2)
    eng = get_engine(lf, 2)
    calls = {}
    record_cocycle_work(monkeypatch, calls)
    cocycle_exp(f, g, eng)
    assert len(calls["kappa"]) == 1 and len(calls["seq"]) == 4
    assert len(calls["intersect"]) == 6 and len(calls["contains"]) == 4
    assert len(calls["hnf_in_intersect"]) == 3 and len(calls["hnf"]) == 6
    assert len(calls["build"]) == 9 and len(calls["snf"]) == 9
    assert len({(Q.A, Q.B) for Q in calls["build"]}) == 9
    assert all(Q.module.rank for Q in calls["build"])
    assert calls["apply"] == [(0,)] * 4


def test_a_warm_cocycle_builds_no_quotient_and_walks_no_sequence(monkeypatch):
    """The same cocycles again on the same engine: g applied to V is an
    image hit and c(f, g) is the engine's entry for f and gV, so neither
    rho_exp nor kappa_exp is called, no link is looked up, no
    intersection or quotient is asked for, no Hermite form, no
    triangular solve and no containment test runs, and each value is the
    cold one."""
    import resforge.extension as extension

    lf = LocalField(3)
    rng = random.Random(3)
    pairs = [(rand_matrix(lf, rng, 2), rand_matrix(lf, rng, 2)) for _ in range(6)]
    eng = get_engine(lf, 2)
    cold = [cocycle_exp(f, g, eng) for f, g in pairs]
    calls = {}
    record_cocycle_work(monkeypatch, calls)
    monkeypatch.setattr(extension, "_exact_seq_exp", recorded_calls(calls, "walk", _exact_seq_exp))
    monkeypatch.setattr(extension, "quotient_struct",
                        recorded_calls(calls, "quotient", quotient_struct))
    monkeypatch.setattr(extension, "rho_exp", recorded_calls(calls, "rho", extension.rho_exp))
    assert [cocycle_exp(f, g, eng) for f, g in pairs] == cold
    assert calls["rho"] == calls["kappa"] == calls["seq"] == calls["intersect"] == []
    assert calls["quotient"] == []
    assert calls["build"] == [] and calls["snf"] == [] and calls["hnf_in_intersect"] == []
    assert calls["walk"] == []
    assert calls["hnf"] == [] and calls["solve"] == [] and calls["contains"] == []


@pytest.mark.parametrize("p, f, n", [(13, 1, 4), (5, 2, 8)])
def test_a_warm_crosscheck_does_no_ring_reduction(monkeypatch, p, f, n):
    """Each element keeps the residue of its unit, so a second crosscheck
    of the same pair reads every residue off its elements: no route looks
    up a ring or reduces a unit.  Recorded on the classes, which FieldCtx
    inherits them from."""
    from resforge.rings import RingCtx

    lf = LocalField(p, f)
    unit = "[2,3]" if f > 1 else "3"
    a, b = lf.parse(f"pi^2*{unit}"), lf.parse("pi^-1*7")
    cold = crosscheck(lf, a, b, n)
    calls = {}
    monkeypatch.setattr(RingCtx, "reduce_to", recorded_calls(calls, "reduce", RingCtx.reduce_to))
    monkeypatch.setattr(RingCtx, "lift_naive", recorded_calls(calls, "lift", RingCtx.lift_naive))
    monkeypatch.setattr(LocalField, "ring", recorded_calls(calls, "ring", LocalField.ring))
    warm = crosscheck(lf, a, b, n)
    assert warm.agree and (warm.direct, warm.muset, warm.extension) == (
        cold.direct, cold.muset, cold.extension)
    assert calls == {"reduce": [], "lift": [], "ring": []}


def test_lowering_the_bound_after_a_link_was_kept_still_raises():
    """kappa(O, pi O, pi^2 O) walks O/pi^2, of 9 elements.  Answered under
    the default bound, whose quotients and view the field keeps, it raises
    at a bound of 8 as on a fresh field, and gives the same value at 9."""
    lf = LocalField(3)
    eng = get_engine(lf, 2, "least")
    O, piO, pi2O = (principal_lattice(lf, v) for v in range(3))
    value = kappa_exp(O, piO, pi2O, eng)
    lf.enum_bound = 8
    with pytest.raises(EnumerationBound):
        kappa_exp(O, piO, pi2O, eng)
    lf.enum_bound = 9
    assert kappa_exp(O, piO, pi2O, eng) == value
    fresh = LocalField(3, enum_bound=8)
    eng = get_engine(fresh, 2, "least")
    with pytest.raises(EnumerationBound):
        kappa_exp(*(principal_lattice(fresh, v) for v in range(3)), eng)


def test_a_link_past_the_bound_builds_nothing():
    """The link of kappa(O, pi O, pi^2 O) at q = 3 has a middle module of 9
    elements.  Under a bound of 8 _seq_exp refuses it by size, before it
    builds any quotient or view."""
    lf = LocalField(3, enum_bound=8)
    eng = get_engine(lf, 2)
    with pytest.raises(EnumerationBound):
        kappa_exp(*(principal_lattice(lf, v) for v in range(3)), eng)
    assert not lf._quotients and not lf._views


def test_digit_and_least_engines_keep_their_own_links():
    """At q = 5, n = 4 the link kappa(O, pi O, pi^2 O) is 0 under the digit
    rule and 2 under least; two engines of one field share the field's
    quotients and keep their own values, in either order."""
    lf = LocalField(5)
    digit, least = get_engine(lf, 4), get_engine(lf, 4, "least")
    lats = [principal_lattice(lf, v) for v in range(3)]
    for _ in range(2):
        assert [kappa_exp(*lats, e) for e in (digit, least, digit)] == [0, 2, 0]


def test_the_cocycle_memo_stays_under_its_cap():
    """c(pi^s, 1) at m = 1 under the least rule, which runs the lattice
    body, distinct for each s: the engine's memo of cocycles empties when
    full and keeps the newest entries."""
    lf = LocalField(3)
    eng = get_engine(lf, 2, "least")
    one = kmat_identity(lf, 1)
    sizes = []
    for s in range(MEMO_CAP + 5):
        cocycle_exp(eng.as_kmat(lf.pi(s)), one, eng)
        sizes.append(len(eng._cocycles))
    assert max(sizes) == MEMO_CAP and sizes[-1] == 5


def test_cocycles_of_equal_data_and_equal_gv_share_one_entry(monkeypatch):
    """A KMat with f's data and g times a unit u of GL_2(O), which has
    g's image of V, key the entry of c(f, g): the second call reads it
    and asks for no intersection, rho or kappa."""
    import resforge.extension as extension

    lf = LocalField(5)
    eng = get_engine(lf, 4)
    rng = random.Random(5)
    f, g = rand_matrix(lf, rng, 2), rand_matrix(lf, rng, 2)
    u = KMat.from_rows(lf, [[1, "pi"], [2, 3]])
    V = eng.standard(2)
    assert u.det_val() == 0 and lat_apply(g @ u, V) is lat_apply(g, V) and g @ u != g
    value = cocycle_exp(f, g, eng)
    calls = {}
    for key, name in (("intersect", "lat_intersect"), ("rho", "rho_exp"), ("kappa", "kappa_exp")):
        monkeypatch.setattr(extension, name, recorded_calls(calls, key, getattr(extension, name)))
    assert cocycle_exp(KMat(lf, f.data, f.shift, f.prec), g @ u, eng) == value
    assert calls == {"intersect": [], "rho": [], "kappa": []} and len(eng._cocycles) == 1


def test_lowering_the_bound_after_a_cocycle_was_kept_still_raises():
    """c(pi, pi) at m = 1 under the least rule runs the one link
    kappa(O, pi O, pi^2 O), which walks O/pi^2, of 9 elements.  Kept
    under the default bound, the cocycle raises at a bound of 8 as on a
    fresh field, and the refused cocycle is not stored."""
    lf = LocalField(3)
    eng = get_engine(lf, 2, "least")
    pi = eng.as_kmat(lf.pi(1))
    value = cocycle_exp(pi, pi, eng)
    assert len(eng._cocycles) == 1
    lf.enum_bound = 8
    with pytest.raises(EnumerationBound):
        cocycle_exp(pi, pi, eng)
    assert len(eng._cocycles) == 1
    lf.enum_bound = 9
    assert cocycle_exp(pi, pi, eng) == value and len(eng._cocycles) == 2
    fresh = LocalField(3, enum_bound=8)
    eng = get_engine(fresh, 2, "least")
    pi = eng.as_kmat(fresh.pi(1))
    with pytest.raises(EnumerationBound):
        cocycle_exp(pi, pi, eng)
    assert eng._cocycles == {}


@pytest.mark.parametrize("p,f,tally", [(3, 1, (15, 3, 4)), (5, 1, (12, 6, 6)), (7, 1, (13, 5, 8)),
                                        (3, 2, (14, 4, 6))])
def test_the_cocycle_reads_g_only_through_gv(p, f, tally):
    """c(f, g u) = c(f, g) for units u of GL_2(O), so the engine may key
    c(f, g) by gV.  Each side runs on an engine of its own, so neither
    reads the other's entry, under every rule; six draws per rule, with
    entry valuations in [-1, 1] and the enumeration bound at q^2.  A
    side past the bound must be matched by the other; none is dropped,
    and the tally of answered draws, bound hits and nonzero values is
    pinned."""
    lf = LocalField(p, f, enum_bound=p ** (2 * f))
    rng = random.Random(100 * p + f)
    ns = [d for d in range(2, lf.q) if (lf.q - 1) % d == 0]
    V = standard_lattice(lf, 2)
    outcomes = []
    for rule in RULES:
        for _ in range(6):
            n = rng.choice(ns)
            F, G = rand_matrix(lf, rng, 2, (-1, 1)), rand_matrix(lf, rng, 2, (-1, 1))
            U = rand_matrix(lf, rng, 2, (0, 2))
            while U.det_val():
                U = rand_matrix(lf, rng, 2, (0, 2))
            assert lat_apply(G @ U, V) is lat_apply(G, V) and G @ U != G
            got = _outcome(lambda: cocycle_exp(F, G, SymbolEngine(lf, n, rule)))
            want = _outcome(lambda: cocycle_exp(F, G @ U, SymbolEngine(lf, n, rule)))
            assert got == want, (rule, n)
            outcomes.append(got)
    bound = outcomes.count("EnumerationBound")
    nonzero = sum(e not in (0, "EnumerationBound") for e in outcomes)
    assert (len(outcomes) - bound, bound, nonzero) == tally


def test_nested_cocycle_intersection_runs_no_hnf(monkeypatch):
    """f and g integral, of det_val 2 and 1: V > gV and V > fV > fgV.
    Every intersection the cocycle asks for nests, kappa's first: its
    AB = V cap fV is the operand fV, and its BC = fV cap fgV,
    AC = V cap fgV and D3 = AB cap C are the operand fgV; then rho's
    V cap gV is the operand gV and its fV cap fgV the operand fgV.  None
    runs a Hermite form, and kappa runs the one link (V, fV, fgV).  The
    field is fresh, so that nothing is kept from an earlier test."""
    lf = LocalField(3)
    rng = random.Random(6)
    f, g = rand_matrix(lf, rng, 2, (0, 2)), rand_matrix(lf, rng, 2, (0, 2))
    eng = get_engine(lf, 2)
    V = eng.standard(2)
    gV = lat_apply(g, V)
    fV, fgV = lat_apply(f, V), lat_apply(f, gV)
    calls = {}
    record_cocycle_work(monkeypatch, calls)
    cocycle_exp(f, g, eng)
    assert calls["intersect"] == [fV, fgV, fgV, fgV, gV, fgV]
    assert calls["hnf_in_intersect"] == [] and len(calls["seq"]) == 1


def test_nested_kappa_reuses_the_shared_quotient(monkeypatch):
    """On the first seeded integral draw at p = 5, n = 4 whose fV and fgV
    nest, each draw on a fresh field, so that its memos start empty: the
    larger over the smaller is rho's fV/f(V cap gV) or fgV/f(V cap gV),
    which rho finds in the field's memo after kappa's one link built it.
    The cocycle builds 6 quotients, the connecting sequence's 3 and then
    rho's other 3, not 7.  On this draw V > gV and fV > fgV, so rho's
    gV/gV and fgV/fgV are zero and run no Smith form: 4 SNFs.  Its value is rho on a second
    engine that keeps nothing of the first plus the nested formula on
    quotients built afresh."""
    rng = random.Random(2)
    calls = {}
    record_cocycle_work(monkeypatch, calls)
    for draw in range(40):
        lf = LocalField(5)
        eng = get_engine(lf, 4)
        f, g = rand_matrix(lf, rng, 2, (0, 1)), rand_matrix(lf, rng, 2, (0, 1))
        for seen in calls.values():
            seen.clear()
        value = cocycle_exp(f, g, eng)
        V = eng.standard(2)
        gV = lat_apply(g, V)
        fV, fgV = lat_apply(f, V), lat_apply(f, gV)
        # V >= fV >= fgV and A = V is not C = fgV; the intersections are
        # memo hits and build nothing
        if V != fgV and lat_intersect(V, fV) is fV and lat_intersect(fV, fgV) is fgV:
            break
    else:
        pytest.fail("none of 40 seeded draws gave a nested triple")
    assert len(calls["build"]) == 6 and len({(Q.A, Q.B) for Q in calls["build"]}) == 6
    assert len(calls["snf"]) == 4
    assert V.det_val < gV.det_val and fV.det_val < fgV.det_val
    twin = SymbolEngine(lf, 4)
    assert value == (rho_exp(f, V, gV, twin) + nested_kappa(V, fV, fgV, twin)) % 4
