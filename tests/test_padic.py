import random
from fractions import Fraction

import pytest

from resforge.errors import PrecisionError
from resforge.lattices import KMat
from resforge.padic import KElem, LocalField, k_add, k_one_minus, k_sub, local_field
from resforge.rings import RingCtx


@pytest.fixture
def q7():
    return local_field(7)


def test_pi_times_pi_inverse_is_one(q7):
    x = q7.pi(1) * q7.pi(-1)
    assert x.val == 0 and x.reduce_mod_pi() == 1


def test_unit_reduction(q7):
    a = q7.parse("3")
    assert a.val == 0
    assert a.reduce_mod_pi() == 3


def test_inverse_of_three_at_precision_two(q7):
    b = q7.parse("1/3", prec=2)
    assert b.val == 0
    assert b.unit == 33
    assert (3 * 33) % 49 == 1  # oracle


def test_valuations_add(q7):
    import random
    rng = random.Random(3)
    for _ in range(50):
        a = q7.pi(rng.randint(-4, 4)) * q7.from_rational(rng.randint(1, 6))
        b = q7.pi(rng.randint(-4, 4)) * q7.from_rational(rng.randint(1, 6))
        assert (a * b).val == a.val + b.val
        assert (a * b) * b.inverse() == a


def test_power_and_negation(q7):
    a = q7.parse("pi^2*3")
    assert (a**3).val == 6
    assert (a**-2).val == -4
    assert (a**0).val == 0 and (a**0).reduce_mod_pi() == 1
    assert (-a).val == 2


def test_reduce_requires_unit(q7):
    with pytest.raises(ValueError):
        q7.pi(1).reduce_mod_pi()


def test_unit_must_be_invertible(q7):
    with pytest.raises(PrecisionError):
        KElem(q7, 0, 7, 4)
    with pytest.raises(PrecisionError):
        KElem(q7, 0, 0, 4)


@pytest.mark.parametrize("p, f", [(7, 1), (3, 2), (2, 4)])
def test_every_constructor_keeps_the_residue_of_its_unit(p, f):
    """Each way of building an element keeps the residue of its unit in
    F_q, the one reduce_mod_pi returns, equal to a fresh reduction at the
    element's own precision; a unit divisible by pi is still refused."""
    lf = LocalField(p, f)
    unit = "[2,1]" if f > 1 else "3"
    a = lf.parse(f"pi^-3*{unit}", prec=6)
    b = lf.parse(f"pi^2*{unit}")
    c = lf.from_rational(Fraction(-12, 5), prec=9)
    d = lf.from_coeffs([p * (3 + p)] + [1] * (f > 1), prec=7)
    built = {"parse": a, "parse, pi^2": b, "from_rational": c, "from_coeffs": d,
             "pi": lf.pi(3), "pi^-2": lf.pi(-2, prec=5), "one": lf.one(4)}
    for name, x in list(built.items()):
        built[f"{name} * b"] = x * b
        built[f"{name} inverse"] = x.inverse()
        for e in (3, 0, -2):
            built[f"{name} ** {e}"] = x**e
        built[f"-{name}"] = -x
        built[f"{name} unit_part"] = x.unit_part()
        built[f"{name} + c"] = k_add(x, c)
        built[f"1 - {name} * b"] = k_one_minus(x * b)
    M = KMat.from_rows(lf, [[a, b], [c, d]], 6)
    for i in range(2):
        for j in range(2):
            built[f"entry {i}{j}"] = M.entry_kelem(i, j)
    for name, x in built.items():
        want = lf.ring(x.prec).reduce_to(x.unit, lf.field)
        assert want and x._res == want, name
        assert x.unit_part().reduce_mod_pi() == want, name
    ring = lf.ring(4)
    for bad in (0, ring.encode([p] * f), ring.encode([p * p] + [0] * (f - 1))):
        with pytest.raises(PrecisionError, match="unit part is divisible by pi"):
            KElem(lf, 0, bad, 4)


def test_parse_grammar(q7):
    assert q7.parse("42").val == 1          # 42 = 7 * 6
    assert q7.parse("-3").val == 0
    assert q7.parse("9/35").val == -1       # v(9) - v(35) = 0 - 1
    assert q7.parse("pi").val == 1
    assert q7.parse("pi^-2").val == -2
    x = q7.parse("pi^2*3/5")
    assert x.val == 2
    assert q7.parse(" pi^1 * 3 ").val == 1
    for bad in ("", "pj", "3/0", "[1,2]", "pi^", "x+1"):
        with pytest.raises(ValueError):
            q7.parse(bad)


def test_parse_f2_coefficients():
    lf = local_field(3, 2)
    u = lf.parse("[1,2]")
    assert u.val == 0
    assert lf.parse("[0,3]").val == 1       # 3x = pi * x
    w = lf.parse("pi^-1*[1,2]")
    assert w.val == -1
    with pytest.raises(ValueError):
        lf.parse("[1,2,1]")                 # too many coefficients
    with pytest.raises(PrecisionError):
        lf.from_coeffs([0, 0])


def test_coefficients_past_the_precision_keep_their_unit_digits():
    """from_coeffs and parse read the valuation off the exact integers, so
    an input at or past p^N is pi^v times the element of c / p^v: at p = 3
    and N = 4, [84, 3] is 3 * [28, 1], not 3 * [1, 1]."""
    lf = LocalField(3, 2, default_precision=4)
    assert repr(lf.from_coeffs([84, 3])) == "KElem(pi^1*[28,1] : O(pi^5))"
    rng = random.Random(5)
    for p, f in ((3, 2), (5, 2)):
        lf, N = LocalField(p, f, default_precision=4), 4
        for _ in range(40):
            v = rng.randint(0, 5)
            units = [rng.randint(-p**6, p**6) for _ in range(f)]
            if all(u % p == 0 for u in units):
                units[0] += 1
            coeffs = [p**v * u for u in units]
            assert max(map(abs, coeffs)) >= p**N or v == 0
            want = lf.pi(v) * lf.from_coeffs(units)
            for got in (lf.from_coeffs(coeffs), lf.parse(f"[{','.join(map(str, coeffs))}]")):
                assert (got.val, got.unit, got.prec) == (want.val, want.unit, want.prec), coeffs


def test_a_pi_shifted_input_reduces_its_unit_once(monkeypatch):
    """parse shifts the valuation of the element it built in place,
    keeping its residue: "pi^2*[1,2]" and "pi^2*5" reduce a unit as often
    as "[1,2]"."""
    lf = LocalField(3, 2)
    texts = ("[1,2]", "pi^2*[1,2]", "pi^2*5")
    for text in texts:   # build the rings first
        lf.parse(text)
    calls = []
    reduce_to = RingCtx.reduce_to

    def counted(ring, *args):
        calls.append(args)
        return reduce_to(ring, *args)

    monkeypatch.setattr(RingCtx, "reduce_to", counted)
    for text in texts:
        calls.clear()
        x = lf.parse(text)
        assert len(calls) == 1 and x.val == (0 if text == "[1,2]" else 2), text


def test_fraction_embedding_consistency(q7):
    a = q7.from_rational(Fraction(9, 35))
    b = q7.parse("9") * q7.parse("35").inverse()
    assert a == b


def test_addition_and_cancellation(q7):
    s = k_add(q7.parse("3"), q7.parse("4"))
    assert s.val == 1                        # 3 + 4 = 7
    assert (s * q7.pi(-1)).reduce_mod_pi() == 1
    d = k_sub(q7.parse("10"), q7.parse("3"))
    assert d.val == 1
    with pytest.raises(PrecisionError):
        k_sub(q7.parse("3"), q7.parse("3"))


def test_one_minus(q7):
    x = k_one_minus(q7.parse("7"))           # 1 - 7 = -6 = 1 mod 7
    assert x.val == 0 and x.reduce_mod_pi() == 1
    y = k_one_minus(q7.parse("1/7"))         # (7 - 1)/7: valuation -1
    assert y.val == -1
    z = k_one_minus(q7.parse("3"))           # 1 - 3 = -2 = 5 mod 7
    assert z.val == 0 and z.reduce_mod_pi() == 5


def test_equality_respects_precision(q7):
    a = q7.parse("3", prec=4)
    b = q7.parse("3", prec=8)
    assert a == b
    c = q7.from_rational(3 + 7**3, prec=2)
    assert c == a                            # equal to the available digits


@pytest.mark.parametrize("p, f", [(3, 1), (7, 1), (13, 1), (3, 2), (5, 2)])
def test_grammar_round_trip(p, f):
    """lf.parse(x.as_str()) == x on seeded random elements of every precision."""
    import random
    lf = local_field(p, f)
    rng = random.Random(f"grammar-{p}-{f}")
    cases = 0
    for prec in (1, 2, 5, 24):
        for v in range(-5, 6):
            for _ in range(7):
                bound = p ** (prec + 1)
                if f == 1:
                    num, den = rng.randint(-bound, bound) or 1, rng.randint(1, bound)
                    text = f"pi^{v}*{num}/{den}"
                    want = lf.pi(v, prec) * lf.from_rational(Fraction(num, den), prec)
                else:
                    # coefficient lists with negative entries, lifted exactly
                    coeffs = [rng.randint(-bound, bound) for _ in range(f)]
                    try:
                        want = lf.pi(v, prec) * lf.from_coeffs(coeffs, prec)
                    except PrecisionError:
                        continue   # every coefficient is 0
                    text = f"pi^{v}*[{','.join(map(str, coeffs))}]"
                x = lf.parse(text, prec)
                assert x == want, text
                y = lf.parse(x.as_str(), prec)
                assert y == x and (y.val, y.unit, y.prec) == (x.val, x.unit, x.prec), x.as_str()
                cases += 1
    assert cases >= 280


def test_precision_zero_is_an_error(q7):
    for prec in (0, -2):
        with pytest.raises(ValueError):
            q7.pi(1, prec=prec)
        with pytest.raises(ValueError):
            q7.one(prec)
        with pytest.raises(ValueError):
            q7.from_rational(3, prec)
        with pytest.raises(ValueError):
            q7.parse("5", prec)
        with pytest.raises(ValueError):
            local_field(3, 2).from_coeffs([1, 2], prec)
    assert q7.parse("5", None).prec == q7.pi(1).prec == q7.default_precision


def test_as_kelem_coerces_into_its_own_field_only(q7):
    assert q7.as_kelem("pi^2*3") == q7.as_kelem(Fraction(147)) == q7.as_kelem(147)
    x = q7.parse("3", prec=5)
    assert q7.as_kelem(x) is x
    with pytest.raises(ValueError):
        q7.as_kelem(local_field(13).parse("3"))
    with pytest.raises(TypeError):
        q7.as_kelem(3.0)
