"""The symbol's identities as derandomized property tests on crosscheck.

Hypothesis draws a field K with p <= 13 and f <= 2, an n dividing
q - 1, and elements pi^v * u of K^x whose units carry digits above the
residue.  Every value is a crosscheck exponent, so all three routes
answer and agree on every pair, and the identities hold mod n:

    bimultiplicativity  (a1 a2, b) = (a1, b) + (a2, b), and likewise in b;
    antisymmetry        (a, b) = -(b, a), and (a, -a) = 0;
    Steinberg           (a, 1 - a) = 0 for a != 1.

The fields are built here, once each, and kept for the module, so the
draws meet the per-residue memos of the direct and muset routes (and the
extension route's S(u)) both empty and filled, in the order Hypothesis
picks.  PROFILE is derandomized and keeps no example database, so every
run draws the same examples.
"""

import functools

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from resforge.errors import PrecisionError
from resforge.padic import LocalField, k_one_minus
from resforge.symbols import crosscheck

PROFILE = settings(derandomize=True, database=None, deadline=None, max_examples=60,
                   suppress_health_check=[HealthCheck.too_slow])

FIELDS = [(p, f) for p in (2, 3, 5, 7, 11, 13) for f in (1, 2)]
field = functools.cache(LocalField)


@st.composite
def field_and_n(draw):
    lf = field(*draw(st.sampled_from(FIELDS)))
    return lf, draw(st.sampled_from([d for d in range(1, lf.q) if (lf.q - 1) % d == 0]))


@st.composite
def elements(draw, lf):
    """pi^v * u with |v| <= 3 and u a unit given by coefficients below p^3."""
    coeffs = draw(st.lists(st.integers(0, lf.p**3 - 1), min_size=lf.f, max_size=lf.f)
                  .filter(lambda cs: any(c % lf.p for c in cs)))
    return lf.pi(draw(st.integers(-3, 3))) * lf.from_coeffs(coeffs)


def symbol(lf, a, b, n) -> int:
    rep = crosscheck(lf, a, b, n)
    assert rep.agree, rep.to_dict()
    return rep.direct


@PROFILE
@given(st.data())
def test_bimultiplicativity(data):
    lf, n = data.draw(field_and_n())
    a1, a2, b = (data.draw(elements(lf)) for _ in range(3))
    assert symbol(lf, a1 * a2, b, n) == (symbol(lf, a1, b, n) + symbol(lf, a2, b, n)) % n
    assert symbol(lf, b, a1 * a2, n) == (symbol(lf, b, a1, n) + symbol(lf, b, a2, n)) % n


@PROFILE
@given(st.data())
def test_antisymmetry(data):
    lf, n = data.draw(field_and_n())
    a, b = data.draw(elements(lf)), data.draw(elements(lf))
    assert (symbol(lf, a, b, n) + symbol(lf, b, a, n)) % n == 0
    assert symbol(lf, a, -a, n) == 0


@PROFILE
@given(st.data())
def test_steinberg_relation(data):
    lf, n = data.draw(field_and_n())
    a = data.draw(elements(lf))
    try:
        b = k_one_minus(a)
    except PrecisionError:   # a = 1 to the working precision
        assume(False)
    assert symbol(lf, a, b, n) == 0
