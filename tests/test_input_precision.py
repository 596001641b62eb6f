"""The lattice layer is exact: what it answers does not depend on how many
digits of an input were given, once they determine the lattice.

The same seeded matrices are drawn at input precision 30, 60 and 200
(verify._random_matrix consumes its generator the same way at every
precision).  Their images of V = O^m must be the same lattice, held as
the same data, and the ledger's GL_2 cocycles, pinned at precision 60,
must have the same values.
"""

import random

import pytest

import ledger
from resforge.extension import cocycle_exp, get_engine
from resforge.lattices import lat_apply, standard_lattice
from resforge.padic import local_field
from resforge.verify import _random_matrix

PRECS = (30, 60, 200)


@pytest.mark.parametrize("p,f,m,seed", [(3, 1, 2, 0), (5, 1, 2, 1), (7, 1, 2, 2),
                                        (13, 1, 2, 3), (3, 2, 2, 4), (3, 1, 3, 0)])
def test_image_of_v_is_the_same_data_at_every_input_precision(p, f, m, seed):
    lf = local_field(p, f)
    V = standard_lattice(lf, m)
    for k in range(4):
        images = []
        for prec in PRECS:
            M = _random_matrix(lf, random.Random(100 * seed + k), m, (-2, 2), 0.85, prec)
            L = lat_apply(M, V)
            images.append((L.shift, L.exps, L.rows))
        assert images[0] == images[1] == images[2], (p, f, m, seed, k)


def test_ledger_gl2_cocycles_do_not_depend_on_input_precision():
    """The gl2/... draws of tests/ledger.py under the digit rule, redrawn at
    precision 30 and 200 against their pinned values."""
    pinned = ledger.load()
    checked = 0
    for p, f in ledger.FIELDS:
        lf = local_field(p, f)
        orders = ledger._orders(lf.q)
        vmax = 2 if f == 1 else 1
        for prec in (30, 200):
            rng = random.Random(100 * p + f)
            for k in range(ledger.GL2_DRAWS):
                n = orders[k % len(orders)]
                a, b = (_random_matrix(lf, rng, 2, (-vmax, vmax), 0.85, prec) for _ in range(2))
                want = pinned[f"gl2/q{lf.q}/{k}/n{n}/digit"]
                if isinstance(want, dict):
                    continue
                assert cocycle_exp(a, b, get_engine(lf, n)) == want, (lf.q, k, prec)
                checked += 1
    assert checked >= 80


def test_a_gl3_draw_has_one_value_at_every_input_precision():
    """gl3/p3/0 of the ledger, the first of the 60 GL_3 identities."""
    values = []
    for prec in PRECS:
        rng = random.Random(7)
        f, g, h = (_random_matrix(local_field(3), rng, 3, (-2, 2), 0.85, prec) for _ in range(3))
        eng = get_engine(local_field(3), 2)
        values.append([cocycle_exp(*fg, eng) for fg in ((f, g @ h), (g, h), (f @ g, h), (f, g))])
    assert values == [ledger.load()["gl3/p3/0"]] * 3
