import gc
import random
import weakref

import pytest

from resforge.errors import EnumerationBound
from resforge.extension import cocycle_exp, get_engine
from resforge.fields import FieldCtx
from resforge.lattices import KMat
from resforge.modules import FiniteModule, ModuleHom
from resforge.musets import OrbitView, residue_walk
from resforge.padic import LocalField, local_field
from resforge.symbols import delta_route_symbol


def random_hom(lf, rng, src, dst):
    """Random well-defined map: entry (j, k) divisible by pi^(e_j - e_k)."""
    cols = []
    for ek in src.exps:
        col = []
        for rj, ej in zip(dst.rings, dst.exps):
            col.append(rj.mul_pk(rng.randrange(rj.size), max(0, ej - ek)))
        cols.append(col)
    return ModuleHom(src, dst, cols)


@pytest.mark.parametrize("p,f", [(3, 1), (5, 1), (7, 1), (3, 2)])
def test_images_equal_apply_in_element_order(p, f):
    rng = random.Random(p * 10 + f)
    lf = local_field(p, f)
    shapes = [(), (1,), (2,), (1, 1), (1, 2), (1, 3), (2, 2), (1, 1, 2)]
    shapes = [s for s in shapes if lf.q ** sum(s) <= 3000]
    for _ in range(30):
        src = FiniteModule(lf, rng.choice(shapes))
        dst = FiniteModule(lf, rng.choice(shapes))
        h = random_hom(lf, rng, src, dst)
        assert list(h.images()) == [h.apply(x) for x in src.elements()]


def test_images_respect_the_enumeration_bound():
    lf = LocalField(7, enum_bound=100)
    M = FiniteModule(lf, (1, 2))
    h = ModuleHom(M, M, [(1, 0), (0, 1)])
    with pytest.raises(EnumerationBound):
        h.images()


def lowest_digit(lf, exps, x):
    """Lowest nonzero pi-adic digit of x, read off the integer coefficients:
    the first coordinate of least valuation among the nonzero ones."""
    p, best = lf.p, None
    for e, c in zip(exps, x):
        coeffs = lf.ring(e).decode(c)
        if not any(coeffs):
            continue
        v = min(next(k for k in range(e) if ci % p ** (k + 1)) for ci in coeffs if ci)
        if best is None or v < best[0]:
            best = (v, [ci // p**v for ci in coeffs])
    return lf.field.encode(best[1])


@pytest.mark.parametrize("p,f", [(3, 1), (5, 1), (7, 1), (3, 2)])
def test_digit_view_has_one_least_digit_representative_per_orbit(p, f):
    lf = local_field(p, f)
    shapes = [(1,), (2,), (3,), (1, 1), (1, 2), (2, 2), (1, 3), (1, 1, 2), (1, 2, 2)]
    for exps in [s for s in shapes if lf.q ** sum(s) <= 2500]:
        M = FiniteModule(lf, exps)
        for n in [d for d in range(1, lf.q) if (lf.q - 1) % d == 0]:
            view = M.view(n, "digit")
            act = M.mu_act(n)
            assert view.t == M.dim(n)
            assert len(view.table) == M.size - 1
            for i, r in enumerate(view.reps):
                orbit = [r]
                while len(orbit) < n:
                    orbit.append(act(orbit[-1]))
                assert [view.table[y] for y in orbit] == [(i, e) for e in range(n)]
                digits = [lowest_digit(lf, exps, y) for y in orbit]
                assert digits[0] == min(digits) and digits.count(digits[0]) == 1, (exps, n, r)


@pytest.mark.parametrize("p,f", [(3, 1), (7, 1), (13, 1), (2, 2), (3, 2), (5, 2), (2, 3)])
def test_digit_views_of_the_residue_field_are_the_least_views(p, f):
    lf = local_field(p, f)
    k = FiniteModule(lf, (1,))
    for n in [d for d in range(1, lf.q) if (lf.q - 1) % d == 0]:
        digit, least = k.view(n, "digit"), k.view(n, "least")
        assert digit.reps == least.reps and digit.table == least.table


def test_dropping_a_field_frees_its_views_and_field_context():
    """A LocalField owns its module views, its walks of O/pi and its F_q
    context: a GL_2 cocycle builds views and the muset route a walk, and
    once the field is dropped none of them, and no context of its (p, f),
    is left alive.  No other test builds p = 53."""

    def live():
        gc.collect()
        objs = gc.get_objects()
        return (sum(isinstance(o, OrbitView) for o in objs),
                sum(isinstance(o, FieldCtx) and (o.p, o.f) == (53, 1) for o in objs))

    def run_gl2_cocycle():
        lf = LocalField(53)
        f = KMat.from_rows(lf, [["pi", 0], [0, 1]])
        g = KMat.from_rows(lf, [[1, 0], [0, "pi"]])
        cocycle_exp(f, g, get_engine(lf, 4))   # kappa enumerates V/fgV
        delta_route_symbol(lf, lf.pi(), lf.from_rational(2), 4)
        return live(), [weakref.ref(a) for a in residue_walk(lf, 4)]

    (views, contexts), (during, walk) = live(), run_gl2_cocycle()
    assert during[0] > views and during[1] == contexts + 1
    assert live() == (views, contexts)
    assert [ref() for ref in walk] == [None, None]
