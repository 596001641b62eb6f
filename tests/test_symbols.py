import gc
import json
import random
import tracemalloc

import pytest

import resforge.symbols as symbols
from resforge.errors import EnumerationBound, PrecisionError
from resforge.extension import SymbolEngine, corrected_symbol, get_engine
from resforge.fields import MuScalar, mu_embed, power_residue_char
from resforge.modules import FiniteModule, ModuleHom, module_aut_as_musetaut, scalar_hom
from resforge.musets import OrbitView, aut_delta, residue_walk
from resforge.padic import KElem, LocalField, local_field
from resforge.rings import RingCtx
from resforge.symbols import (SymbolReport, crosscheck, delta_route_symbol,
                              power_residue_symbol, steinberg_check,
                              symbol_value_str, tame_symbol)
from oracles import index, label


@pytest.fixture
def q7():
    return local_field(7)


def test_tame_symbol_examples(q7):
    assert tame_symbol(q7, q7.parse("7"), q7.parse("7")) == 6       # -1
    assert tame_symbol(q7, q7.parse("3"), q7.parse("5")) == 1       # units
    assert tame_symbol(q7, q7.parse("3"), q7.parse("7")) == 3


def old_tame_symbol(lf, a, b):
    # the unit formed in O/pi^N before reduction mod pi
    va, vb = a.val, b.val
    x = ((a**vb) * (b**va).inverse()).reduce_mod_pi()
    return lf.field.neg(x) if (va * vb) % 2 else x


def random_kelem(lf, rng):
    prec = rng.choice((1, 2, 5, 24))
    ring = lf.ring(prec)
    while True:
        unit = rng.randrange(ring.size)
        if ring.reduce_to(unit, lf.field):
            return KElem(lf, rng.randint(-3, 3), unit, prec)


@pytest.mark.parametrize("p,f", [(2, 1), (3, 1), (5, 1), (7, 1), (13, 1), (3, 2), (5, 2),
                                 (2, 3), (3, 3), (2, 4)])
def test_tame_symbol_matches_full_precision_formula(p, f):
    lf = local_field(p, f)
    rng = random.Random(100 * p + f)
    for _ in range(60):
        a, b = random_kelem(lf, rng), random_kelem(lf, rng)
        assert tame_symbol(lf, a, b) == old_tame_symbol(lf, a, b), (a, b)


def test_tame_symbol_rejects_mixed_fields():
    lf7, lf5 = local_field(7), local_field(5)
    with pytest.raises(ValueError):
        tame_symbol(lf7, lf7.parse("3"), lf5.parse("3"))
    with pytest.raises(ValueError):
        tame_symbol(lf7, lf5.parse("5"), lf7.parse("7"))
    # both arguments in Q_13, the field asked for Q_7
    lf13 = local_field(13)
    a, b = lf13.parse("3"), lf13.parse("13")
    with pytest.raises(ValueError):
        tame_symbol(lf7, a, b)
    with pytest.raises(ValueError):
        crosscheck(lf7, a, b, 2)
    with pytest.raises(ValueError):
        corrected_symbol(a, b, get_engine(lf7, 2))


def test_power_residue_symbol_examples(q7):
    assert pow(6, 3, 7) == 6  # oracle for (7,7)_2
    assert power_residue_symbol(q7, q7.parse("7"), q7.parse("7"), 2).exp == 1
    assert power_residue_symbol(q7, q7.parse("5"), q7.parse("1"), 6).is_identity
    lf13 = local_field(13)
    s = power_residue_symbol(lf13, lf13.parse("2"), lf13.parse("13"), 3)
    assert mu_embed(lf13.field, s) == 3


def test_bimultiplicativity_and_antisymmetry():
    for p in (3, 5, 7, 13):
        lf = local_field(p)
        units = range(1, p)
        vals = (-2, -1, 0, 1, 2)
        elems = [lf.pi(v) * lf.from_rational(u) for v in vals for u in units]
        rng = random.Random(p)
        sample = rng.sample(elems, min(10, len(elems)))
        for n in [n for n in range(1, p) if (p - 1) % n == 0]:
            for a in sample:
                for b in sample:
                    sab = power_residue_symbol(lf, a, b, n)
                    sba = power_residue_symbol(lf, b, a, n)
                    assert (sab * sba).is_identity
                    for c in sample[:4]:
                        lhs = power_residue_symbol(lf, a * c, b, n)
                        rhs = sab * power_residue_symbol(lf, c, b, n)
                        assert lhs == rhs


def test_a_minus_a_is_one():
    for p in (3, 5, 7, 13):
        lf = local_field(p)
        rng = random.Random(p + 1)
        for n in [n for n in range(1, p) if (p - 1) % n == 0]:
            for _ in range(40):
                a = lf.pi(rng.randint(-3, 3)) * lf.from_rational(rng.randint(1, p - 1))
                assert power_residue_symbol(lf, a, -a, n).is_identity


def test_steinberg_examples(q7):
    assert steinberg_check(q7, q7.parse("-1"), 2)     # (-1, 2)
    for n in (1, 2, 3, 6):
        assert steinberg_check(q7, q7.parse("7"), n)
    assert steinberg_check(q7, q7.parse("1/7"), 2)


def test_steinberg_random():
    for p in (3, 5, 7, 13):
        lf = local_field(p)
        rng = random.Random(p + 2)
        for n in [n for n in range(1, p) if (p - 1) % n == 0]:
            count = 0
            while count < 100:
                v = rng.randint(-3, 3)
                u = rng.randint(1, p - 1)
                if v == 0 and u == 1:
                    continue
                a = lf.pi(v) * lf.from_rational(u)
                assert steinberg_check(lf, a, n)
                count += 1


def test_delta_route_equals_direct(q7):
    rng = random.Random(16)
    for n in (1, 2, 3, 6):
        for _ in range(30):
            a = q7.pi(rng.randint(-2, 2)) * q7.from_rational(rng.randint(1, 6))
            b = q7.pi(rng.randint(-2, 2)) * q7.from_rational(rng.randint(1, 6))
            assert (delta_route_symbol(q7, a, b, n).exp
                    == power_residue_symbol(q7, a, b, n).exp)


@pytest.mark.parametrize("p,f", [(2, 1), (5, 1), (7, 1), (3, 2), (13, 1), (5, 2)])
def test_delta_route_equals_module_oracle_for_every_tame_unit(p, f):
    """a has residue u and b = pi, so the tame unit is u: the route's
    value, read off its walk of O/pi, is compared with the orbit
    determinant of the ModuleHom of multiplication by u on the OrbitView
    of O/pi, and with the character of u."""
    lf = local_field(p, f)
    k = FiniteModule(lf, (1,))
    b = lf.pi()
    for n in [d for d in range(1, lf.q) if (lf.q - 1) % d == 0]:
        # the walk pins the representatives of the least and digit views,
        # and reads each element's twist against them
        pos, least = residue_walk(lf, n)
        for rule in ("least", "digit"):
            view = k.view(n, rule)
            assert [label(k, r) for r in view.reps] == [(c,) for c in least]
            assert [view.twist[index(k, (y,))] for y in range(1, lf.q)] == list(pos[1:])
        for rule in ("least", "second_least", "digit"):
            for u in range(1, lf.q):
                a = KElem(lf, 0, lf.field.lift_naive(u, lf.ring(lf.default_precision)),
                          lf.default_precision)
                assert tame_symbol(lf, a, b) == u
                oracle = aut_delta(module_aut_as_musetaut(
                    scalar_hom(k, u, from_ring=lf.ring(1)), n, rule))
                got = delta_route_symbol(lf, a, b, n, rule)
                assert got == oracle == power_residue_char(lf.field, u, n), (n, rule, u)


def test_delta_route_answers_past_the_enumeration_bound():
    """|O/pi| = 7 is past the bound, which limits only enumeration."""
    lf = LocalField(7, enum_bound=5)
    with pytest.raises(EnumerationBound):
        FiniteModule(lf, (1,)).view(2)
    for n in (1, 2, 3, 6):
        for a, b in (("7", "7"), ("pi*3", "pi^-2*5"), ("2", "pi")):
            a, b = lf.parse(a), lf.parse(b)
            assert delta_route_symbol(lf, a, b, n) == power_residue_symbol(lf, a, b, n)


MEMO_FIELDS = [(7, 1), (13, 1), (3, 2), (5, 2)]


def divisors(q):
    return [d for d in range(1, q) if (q - 1) % d == 0]


@pytest.mark.parametrize("p,f", MEMO_FIELDS)
def test_memoized_route_values_equal_a_fresh_field(p, f):
    """power_residue_char keeps chi(u) on the FieldCtx and _orbit_delta
    keeps delta(u) on the LocalField.  For every unit u and n | q - 1, a
    second call answers from the memo with a first call's value on a
    fresh field, whose memos hold nothing for u yet."""
    lf = LocalField(p, f)
    for n in divisors(lf.q):
        fresh = LocalField(p, f)
        for u in range(1, lf.q):
            chi, delta = power_residue_char(lf.field, u, n), symbols._orbit_delta(lf, u, n)
            assert u not in fresh.field._chars.get(n, ()) and u not in fresh._deltas.get(n, ())
            want = (power_residue_char(fresh.field, u, n), symbols._orbit_delta(fresh, u, n))
            assert (chi, delta) == want and delta == chi.exp, (n, u)
            assert power_residue_char(lf.field, u, n) is lf.field._chars[n][u] is chi
            assert symbols._orbit_delta(lf, u, n) == lf._deltas[n][u] == delta


@pytest.mark.parametrize("p,f", MEMO_FIELDS)
def test_route_memos_hold_at_most_a_value_per_unit(p, f):
    """After crosschecks over every pair of pi^v * u, |v| <= 1, for every
    n | q - 1, each per-residue memo holds at most q - 1 values per n,
    keyed by units."""
    lf = LocalField(p, f)
    inputs = [lf.pi(v) * lf.from_coeffs(lf.field.decode(u))
              for v in (-1, 0, 1) for u in range(1, lf.q)]
    units = set(range(1, lf.q))
    for n in divisors(lf.q):
        for a in inputs[::2]:
            for b in inputs:
                assert crosscheck(lf, a, b, n).agree
        memos = (lf.field._chars[n], lf._deltas[n], get_engine(lf, n)._digit_sums)
        assert all(set(memo) <= units for memo in memos), n
    assert set(lf.field._chars) == set(lf._deltas) == set(divisors(lf.q))


def test_a_zero_unit_and_a_bad_n_raise_on_every_call():
    """u = 0, a u outside 1..q-1 (which f = 1 arithmetic would reduce
    mod p), and an n that does not divide q - 1 are never stored, so the
    second call raises as the first did."""
    lf = LocalField(7)
    assert power_residue_char(lf.field, 3, 2).exp == symbols._orbit_delta(lf, 3, 2) == 1
    for _ in range(2):
        for u, n in ((0, 2), (8, 2), (-1, 2), (3, 4), (3, 0)):
            with pytest.raises(ValueError):
                power_residue_char(lf.field, u, n)
            with pytest.raises(ValueError):
                symbols._orbit_delta(lf, u, n)
    assert set(lf.field._chars) == set(lf._deltas) == {2}
    assert set(lf.field._chars[2]) == set(lf._deltas[2]) == {3}


@pytest.mark.parametrize("n", [1, 2])
def test_residue_walk_is_a_few_bytes_per_element(n):
    """At q = 10007 the walk holds 4 bytes per element of k for pos and at
    most 5 per coset for least (an array's growth slack included); an
    OrbitView of O/pi, the route's oracle, holds about 200 per element."""
    lf = LocalField(10007)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        walk = residue_walk(lf, n)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(walk[1]) == (lf.q - 1) // n
    assert held <= 4 * lf.q + 5 * (lf.q - 1) // n + 1024


def test_warm_delta_route_builds_no_module_map_or_view(monkeypatch):
    lf = LocalField(7)
    a, b = lf.parse("pi*3"), lf.parse("pi^2*5")
    with pytest.raises(ValueError):
        delta_route_symbol(lf, a, b, 4)                     # 4 does not divide 6
    with pytest.raises(ValueError):
        delta_route_symbol(lf, a, b, 3, "largest")
    with pytest.raises(ValueError):
        delta_route_symbol(lf, local_field(13).parse("3"), b, 3)
    tame = tame_symbol(lf, a, b)
    want = {n: delta_route_symbol(lf, a, b, n, "digit") for n in (1, 2, 3, 6)}

    def refuse(cls):
        def init(*_args, **_kw):
            raise AssertionError(f"a {cls.__name__} was built")
        monkeypatch.setattr(cls, "__init__", init)

    for cls in (FiniteModule, ModuleHom, OrbitView, KElem):
        refuse(cls)
    assert tame_symbol(lf, a, b) == tame
    for n in (1, 2, 3, 6):
        assert delta_route_symbol(lf, a, b, n, "digit") == want[n]
    with pytest.raises(AssertionError, match="FiniteModule"):
        FiniteModule(lf, (1,))


def test_crosscheck_report_fields(q7):
    """A report keeps a and b as elements; to_json renders them, to the
    pinned bytes of (7, 7)_2 over Q_7 and of demo 04's pair over Q_9."""
    a = q7.parse("7")
    rep = crosscheck(q7, a, a, 2)
    assert rep.a is a and rep.b is a
    d = rep.to_dict()
    assert list(d) == ["p", "f", "n", "a", "b", "direct", "muset",
                       "extension", "agree"]
    assert d["p"] == 7 and d["f"] == 1 and d["n"] == 2
    assert d["direct"] == d["muset"] == d["extension"] == 1
    assert d["agree"] is True
    assert isinstance(rep.micros, int)
    parsed = json.loads(rep.to_json())
    assert parsed["agree"] is True
    assert rep.to_json().encode() == (
        b'{"p": 7, "f": 1, "n": 2, "a": "pi^1*1", "b": "pi^1*1", '
        b'"direct": 1, "muset": 1, "extension": 1, "agree": true}')
    lf9 = local_field(3, 2)
    rep = crosscheck(lf9, lf9.parse("pi^1*[1,1]"), lf9.parse("[2,1]"), 8)
    assert rep.to_json().encode() == (
        b'{"p": 3, "f": 2, "n": 8, "a": "pi^1*[1,1]", "b": "[2,1]", '
        b'"direct": 1, "muset": 1, "extension": 1, "agree": true}')


def test_symbol_report_is_a_mutable_record(q7):
    """A report is equal to another over all its fields, unhashable, and
    its attributes can be assigned."""
    a, b = q7.parse("7"), q7.parse("3")
    rep = crosscheck(q7, a, b, 2)
    fields = (rep.p, rep.f, rep.n, rep.a, rep.b, rep.direct, rep.muset,
              rep.extension, rep.agree, rep.micros)
    twin = SymbolReport(*fields)
    assert twin == rep and rep == twin
    assert SymbolReport(p=7, f=1, n=2, a=a, b=b, direct=rep.direct, muset=rep.muset,
                        extension=rep.extension, agree=rep.agree, micros=rep.micros) == rep
    assert rep != fields
    assert repr(rep).startswith("SymbolReport(p=7, f=1, n=2, a=")
    with pytest.raises(TypeError):
        hash(rep)
    twin.micros += 1
    assert twin != rep
    twin.micros = rep.micros
    twin.extension, twin.agree = 0, False
    assert (twin.extension, twin.agree) == (0, False) and twin != rep
    rep.extension, rep.agree = 0, False
    assert twin == rep


def test_a_route_past_the_enumeration_bound_is_skipped():
    """At q = 9, n = 8 the least-rule extension route of (pi^6, pi u)
    meets kappa(O, pi^6 O, pi^7 O), whose middle module O/pi^7 has 3^14
    elements, and raises EnumerationBound: crosscheck reports it as
    skipped, with the bound's message, and the other two answer; the
    digit engine answers the same pair by all three routes."""
    lf = local_field(3, 2)
    a, b = lf.pi(6), lf.pi(1) * lf.from_coeffs([1, 2])
    rep = crosscheck(lf, a, b, 8, get_engine(lf, 8, "least"))
    assert (rep.direct, rep.muset, rep.extension) == (6, 6, None)
    assert rep.skipped == {"extension": "middle module of size 4782969 exceeds the bound"}
    assert rep.agree is False
    d = rep.to_dict()
    assert d["extension"] is None and d["agree"] is False
    assert d["skipped"] == rep.skipped and list(d)[-1] == "skipped"
    rep = crosscheck(lf, a, b, 8, get_engine(lf, 8))
    assert (rep.direct, rep.muset, rep.extension, rep.skipped) == (6, 6, 6, {})
    assert rep.agree is True and "skipped" not in rep.to_dict()


def test_a_degenerate_link_past_the_bound_is_not_walked(monkeypatch):
    """(pi^7, u) at q = 9, n = 8 under the least rule: c(pi^7, u) meets
    kappa(O, pi^7 O, pi^7 O) and c(u, pi^7) meets kappa(O, O, pi^7 O).
    Each nests with two equal lattices, so every link of the chain has
    X = Y or Y = D3 and kappa is 0 without a walk, although O/pi^7 is past
    the bound; all three routes answer."""
    import resforge.extension as extension

    walks = []
    monkeypatch.setattr(extension, "_exact_seq_exp",
                        lambda *args: walks.append(args))
    lf = local_field(3, 2)
    a, b = lf.pi(7), lf.from_coeffs([1, 2])
    rep = crosscheck(lf, a, b, 8, SymbolEngine(lf, 8, "least"))
    assert (rep.direct, rep.muset, rep.extension, rep.skipped) == (3, 3, 3, {})
    assert walks == []


def test_crosscheck_skips_only_enumeration_and_precision_failures(q7, monkeypatch):
    """A route raising PrecisionError is skipped and agree is False even
    when the routes that answered agree; any other error propagates."""
    a, b = q7.parse("pi*3"), q7.parse("5")

    def raising(exc):
        def route(*_args):
            raise exc
        return route

    monkeypatch.setattr(symbols, "corrected_symbol", raising(PrecisionError("too few digits")))
    rep = crosscheck(q7, a, b, 6)
    assert rep.direct == rep.muset is not None and rep.extension is None
    assert rep.skipped == {"extension": "too few digits"} and rep.agree is False
    monkeypatch.setattr(symbols, "tame_symbol", raising(EnumerationBound("too big")))
    rep = crosscheck(q7, a, b, 6)
    assert (rep.direct, rep.muset, rep.extension) == (None, None, None)
    assert rep.skipped == {"direct": "too big", "muset": "too big",
                           "extension": "too few digits"}
    assert rep.agree is False
    monkeypatch.setattr(symbols, "tame_symbol", raising(ValueError("elements of different fields")))
    with pytest.raises(ValueError, match="different fields"):
        crosscheck(q7, a, b, 6)


def test_crosscheck_calls_each_route_once(q7, monkeypatch):
    """The direct value comes from power_residue_symbol, the muset value
    from _orbit_delta of crosscheck's own tame unit, the extension value
    from corrected_symbol; tame_symbol runs once per route that reads it,
    and delta_route_symbol is not called."""
    calls = []
    for name in ("power_residue_symbol", "tame_symbol", "_orbit_delta",
                 "delta_route_symbol", "corrected_symbol"):
        def counted(*args, _real=getattr(symbols, name), _name=name):
            calls.append(_name)
            return _real(*args)
        monkeypatch.setattr(symbols, name, counted)
    for n in (1, 2, 3, 6):
        calls.clear()
        assert crosscheck(q7, q7.parse("pi*3"), q7.parse("pi^-2*5"), n).agree
        assert sorted(calls) == ["_orbit_delta", "corrected_symbol", "power_residue_symbol",
                                 "tame_symbol", "tame_symbol"]


@pytest.mark.parametrize("p,f", [(7, 1), (13, 1), (3, 2), (5, 2)])
def test_a_warm_crosscheck_builds_no_mu_scalar(p, f, monkeypatch):
    """The direct route's values are mu_dlog's shared scalars and the
    extension route's its engine's, so a second crosscheck on the same
    inputs runs MuScalar.__init__ zero times, and reports what the first did."""
    lf = LocalField(p, f)
    rng = random.Random(37 * p + f)
    cases = []
    for n in [d for d in range(1, lf.q) if (lf.q - 1) % d == 0]:
        for _ in range(4):
            a, b = random_kelem(lf, rng), random_kelem(lf, rng)
            cases.append((a, b, n, crosscheck(lf, a, b, n).to_dict()))
    built = []
    real = MuScalar.__init__

    def counted(self, *args):
        built.append(args)
        real(self, *args)

    monkeypatch.setattr(MuScalar, "__init__", counted)
    for a, b, n, first in cases:
        assert crosscheck(lf, a, b, n).to_dict() == first
    assert built == []


def test_a_wrong_direct_route_reaches_crosscheck(q7, monkeypatch):
    """A fault planted in power_residue_symbol shows as a disagreement."""
    real = symbols.power_residue_symbol
    monkeypatch.setattr(symbols, "power_residue_symbol",
                        lambda lf, a, b, n: MuScalar(n, real(lf, a, b, n).exp + 1))
    a, b = q7.parse("pi*3"), q7.parse("5")
    rep = crosscheck(q7, a, b, 6)
    assert rep.direct == (real(q7, a, b, 6).exp + 1) % 6 == (rep.muset + 1) % 6
    assert not rep.agree


@pytest.mark.parametrize("p,f", [(7, 1), (13, 1), (3, 2), (5, 2)])
def test_crosscheck_exponents_are_the_three_routes(p, f):
    """crosscheck shares the tame unit between the direct and muset routes;
    its three exponents must still be those of power_residue_symbol,
    delta_route_symbol and corrected_symbol called one by one, for every
    n | q - 1 and two seeded units at each valuation |v| <= 2."""
    lf = local_field(p, f)
    rng = random.Random(24 * p + f)

    def unit():
        u = rng.randint(1, lf.q - 1)
        return lf.from_rational(u) if f == 1 else lf.from_coeffs([u % p, u // p])

    inputs = [lf.pi(v) * unit() for v in range(-2, 3) for _ in range(2)]
    for n in (d for d in range(1, lf.q) if (lf.q - 1) % d == 0):
        eng = get_engine(lf, n)
        for a in inputs:
            for b in inputs:
                rep = crosscheck(lf, a, b, n, eng)
                assert (rep.direct, rep.muset, rep.extension) == (
                    power_residue_symbol(lf, a, b, n).exp,
                    delta_route_symbol(lf, a, b, n, eng.rule).exp,
                    corrected_symbol(a, b, eng).exp), (n, a, b)
                assert rep.agree


@pytest.mark.parametrize("p", [3, 5])
def test_warm_galois_crosscheck_decodes_nothing(p, monkeypatch):
    """At q = 9 and 25 a warm crosscheck reads residues and negates with the
    one-pass digit kernels: no RingCtx.decode or encode, for every n | q - 1
    and units of valuation |v| <= 1, including ones whose constant
    coefficient is divisible by p."""
    lf = LocalField(p, 2)
    units = [lf.from_coeffs(c) for c in ([1, 0], [0, 1], [p - 1, 1], [1, p - 1], [2, 2])]
    inputs = [lf.pi(v) * u for v in (-1, 0, 1) for u in units]
    engines = [get_engine(lf, n) for n in range(1, lf.q) if (lf.q - 1) % n == 0]
    want = [[(rep.direct, rep.muset, rep.extension)
             for rep in (crosscheck(lf, a, b, eng.n, eng) for a in inputs for b in inputs)]
            for eng in engines]

    def refuse(*_args):
        raise AssertionError("a warm crosscheck decoded or encoded")

    monkeypatch.setattr(RingCtx, "decode", refuse)
    monkeypatch.setattr(RingCtx, "encode", refuse)
    for eng, values in zip(engines, want):
        reps = [crosscheck(lf, a, b, eng.n, eng) for a in inputs for b in inputs]
        assert [(r.direct, r.muset, r.extension) for r in reps] == values, eng.n
        assert all(r.agree for r in reps)
    with pytest.raises(AssertionError, match="decoded"):
        lf.from_coeffs([1, 1])


def test_crosscheck_units_trivial(q7):
    rep = crosscheck(q7, q7.parse("3"), q7.parse("5"), 2)
    assert rep.direct == rep.muset == rep.extension == 0 and rep.agree


def test_symbol_value_str(q7):
    assert symbol_value_str(q7, MuScalar(2, 1)) == "6"
    lf9 = local_field(3, 2)
    assert "," in symbol_value_str(lf9, MuScalar(8, 1))


def test_crosscheck_rejects_an_engine_of_another_n_or_field(q7):
    a, b = q7.parse("pi*3"), q7.parse("3")
    assert crosscheck(q7, a, b, 2, get_engine(q7, 2)).agree
    with pytest.raises(ValueError):
        crosscheck(q7, a, b, 2, get_engine(q7, 3))
    with pytest.raises(ValueError):
        crosscheck(q7, a, b, 2, get_engine(local_field(13), 2))
