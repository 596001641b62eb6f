import gc
import random
from itertools import combinations_with_replacement
import tracemalloc
import weakref

import pytest

from resforge.errors import EnumerationBound
from resforge.extension import cocycle_exp, get_engine
from resforge.fields import FieldCtx
from resforge.lattices import KMat
from resforge.modules import FiniteModule, ModuleHom, scalar_hom
import resforge.musets as musets
from resforge.musets import RULES, OrbitView, _walk, residue_walk
from resforge.padic import LocalField, local_field
from resforge.symbols import delta_route_symbol
from resforge.torsor import _det_exp_brute, det_of_module_aut
from oracles import elements, index, label


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
        assert list(h.images()) == [index(dst, h.apply(x)) for x in elements(src)]
        assert [index(src, x) for x in elements(src)] == list(range(src.size))
        assert [label(src, i) for i in range(src.size)] == list(elements(src))


def test_images_respect_the_enumeration_bound():
    lf = LocalField(7, enum_bound=100)
    M = FiniteModule(lf, (1, 2))
    h = ModuleHom(M, M, [(1, 0), (0, 1)])
    with pytest.raises(EnumerationBound):
        h.images()


def mu_act(M, n):
    """zeta_n on labels: each coordinate times the Teichmueller lift of
    zeta_n at its precision."""
    zetas = [r.zeta(n) for r in M.rings]
    return lambda x: tuple(r.mul(z, c) for r, z, c in zip(M.rings, zetas, x))


def lead_digit(M, x):
    """The lowest nonzero pi-adic digit of x != 0, in F_q, from the first
    coordinate of least valuation; zero coordinates are skipped."""
    best = None
    for r, c in zip(M.rings, x):
        if c:
            v = r.val(c)
            if best is None or v < best[0]:
                best = (v, r, c)
    v, r, c = best
    return r.reduce_to(r.div_pk(c, v), M.lf.field)


def label_walk(M, n):
    """The label walk module views were built by before they moved to
    positions: the orbits of the nonzero labels, each listed from its
    least label in sorted order, as lists of labels."""
    act, seen, orbits = mu_act(M, n), set(), []
    for x in sorted(x for x in elements(M) if any(x)):
        if x in seen:
            continue
        orbit = [x]
        while len(orbit) < n + 1 and act(orbit[-1]) != x:
            orbit.append(act(orbit[-1]))
        seen.update(orbit)
        orbits.append(orbit)
    return orbits


def reference_view(orbits, M, rule):
    """(reps, {label: (orbit, twist)}) of the label walk under rule."""
    reps, table = [], {}
    for idx, orbit in enumerate(orbits):
        n = len(orbit)
        if rule == "least" or n == 1:
            rep_pos = 0
        elif rule == "digit":
            digits = [lead_digit(M, y) for y in orbit]
            rep_pos = digits.index(min(digits))
        else:
            rep_pos = orbit.index(sorted(orbit)[1])
        reps.append(orbit[rep_pos])
        for pos, y in enumerate(orbit):
            table[y] = (idx, (pos - rep_pos) % n)
    return reps, table


def test_views_equal_the_label_walk():
    """Every cell of p in {3, 5, 7, 13}, q in {9, 25}, exps up to (1, 3)
    within 10,000 elements, every n and every rule: the position view has
    the label walk's representatives and gives every element its orbit
    and twist."""
    shapes = [(1,), (2,), (3,), (1, 1), (1, 2), (2, 2), (1, 3)]
    cells = 0
    for p, f in [(3, 1), (5, 1), (7, 1), (13, 1), (3, 2), (5, 2)]:
        lf = LocalField(p, f)
        for exps in [s for s in shapes if lf.q ** sum(s) <= 10000]:
            M = FiniteModule(lf, exps)
            labels = list(elements(M))[1:]
            for n in [d for d in range(1, lf.q) if (lf.q - 1) % d == 0]:
                orbits = label_walk(M, n)
                assert all(len(orbit) == n for orbit in orbits)
                for rule in ("least", "second_least", "digit"):
                    reps, table = reference_view(orbits, M, rule)
                    view = M.view(n, rule)
                    assert [label(M, r) for r in view.reps] == reps, (p, f, exps, n, rule)
                    got = list(zip(view.orbit[1:], view.twist[1:]))
                    assert got == [table[x] for x in labels], (p, f, exps, n, rule)
                    assert view.orbit[0] == -1 and view.t == M.dim(n)
                    cells += 1
    assert cells == 435


def lead_codes(M) -> list:
    """The digit rule's keys of the walk of all of M's positions: per
    position x != 0, (v * rank + k) * q + d for x's lowest nonzero pi-adic
    digit d in F_q, read at the first coordinate k of least valuation v:
    the least code over the coordinates.  Zero coordinates get a code
    above every other, so they never lead."""
    field, q, rank = M.lf.field, M.lf.q, M.rank
    none = rank * max(M.exps, default=0) * q
    acc = [none]
    for k, (e, r) in enumerate(zip(M.exps, M.rings)):
        codes = [none]
        for c in range(1, r.size):
            v = r.val(c)
            codes.append((v * rank + k) * q + r.reduce_to(r.div_pk(c, v), field))
        acc = [a if a < b else b for a in acc for b in codes]
    return acc


def whole_module_walk(M, n, rule):
    """(reps, orbit, twist) of the walk of all of M's positions, the way
    views were built before they were folded from their components: zeta_n
    on positions is the mixed-radix product of the components' tables."""
    act = [0]
    for r in M.rings:
        size, tab = r.size, r.mul_table(r.zeta(n))
        act = [a * size + b for a in act for b in tab]
    return _walk(act, n, rule, lead_codes(M) if rule == "digit" else None)[:3]


@pytest.mark.parametrize("p,f", [(2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (5, 2), (7, 1)])
def test_views_equal_the_whole_module_walk(p, f):
    """Every module of rank <= 3 within 2,500 elements (exponents up to 4),
    every n dividing q - 1, n = 1 included, and every rule: the view folded
    from the components' walks is the whole-module walk, array for array."""
    lf = LocalField(p, f)
    shapes = [s for rank in range(4) for s in combinations_with_replacement(range(1, 5), rank)
              if lf.q ** sum(s) <= 2500]
    for exps in shapes:
        M = FiniteModule(lf, exps)
        for n in [d for d in range(1, lf.q) if (lf.q - 1) % d == 0]:
            for rule in RULES:
                view = M.view(n, rule)
                assert (view.reps, view.orbit, view.twist) == whole_module_walk(M, n, rule), (
                    exps, n, rule)


def test_a_view_walks_each_component_once(monkeypatch):
    """A fresh field builds the view of O/pi^2 + O/pi^3 at q = 7 from one
    walk of each ring, 343 + 49 positions, the last component first, not
    from a walk of its 16,807 positions; the view is the whole-module
    walk's."""
    sizes = []

    def counted(act, *args):
        sizes.append(len(act))
        return _walk(act, *args)

    monkeypatch.setattr(musets, "_walk", counted)
    for rule in RULES:
        for n in (2, 6):
            sizes.clear()
            M = FiniteModule(LocalField(7), (2, 3))
            view = M.view(n, rule)
            assert sizes == [343, 49], (rule, n)
            assert (view.reps, view.orbit, view.twist) == whole_module_walk(M, n, rule)


def test_a_view_refuses_an_n_that_does_not_divide_q_minus_1():
    """Even the zero module, whose view never reads zeta_n, checks n before
    its memo lookup, so no view for a bad n is stored; the brute-force
    determinant then refuses the n that det_of_module_aut refuses."""
    lf = LocalField(7)
    for exps in ((), (1,), (1, 2)):
        for n in (0, 4, 5, 12):
            with pytest.raises(ValueError, match=f"^n = {n} does not divide q - 1 = 6$"):
                FiniteModule(lf, exps).view(n)
    assert lf._views == {}
    Z = FiniteModule(lf, ())
    for n in (4, 5):
        for det in (_det_exp_brute, lambda g, n: det_of_module_aut(g, n).exp):
            with pytest.raises(ValueError, match="does not divide"):
                det(scalar_hom(Z, 1), n)
    assert _det_exp_brute(scalar_hom(Z, 1), 3) == det_of_module_aut(scalar_hom(Z, 1), 3).exp == 0


def test_a_map_between_modules_of_two_fields_is_refused():
    lf5, lf7 = local_field(5), local_field(7)
    for src, dst in ((FiniteModule(lf5, (1,)), FiniteModule(lf7, (1,))),
                     (FiniteModule(lf7, (1, 2)), FiniteModule(LocalField(7), (1, 2))),
                     (FiniteModule(lf5, ()), FiniteModule(lf7, ()))):
        with pytest.raises(ValueError, match="^modules of different fields$"):
            ModuleHom(src, dst, [(1,) * dst.rank] * src.rank)


def test_a_view_holds_a_few_bytes_per_element():
    """A view keeps an orbit and a twist per position as array('i') and
    one position per representative: at most 32 bytes per element of a
    16,807-element module (about 170 when each element was a dict key)."""
    lf = LocalField(7)
    M = FiniteModule(lf, (2, 3))
    assert M.size == 16807
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        view = M.view(2, "digit")
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert view.t == M.dim(2)
    assert held <= 32 * M.size, held / M.size


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
            act = mu_act(M, n)
            assert view.t == M.dim(n)
            assert len(view.orbit) == M.size and view.orbit[0] == -1
            for i, r in enumerate(view.reps):
                orbit = [label(M, r)]
                while len(orbit) < n:
                    orbit.append(act(orbit[-1]))
                positions = [index(M, y) for y in orbit]
                assert ([(view.orbit[y], view.twist[y]) for y in positions]
                        == [(i, e) for e in range(n)])
                digits = [lowest_digit(lf, exps, y) for y in orbit]
                assert digits[0] == min(digits) and digits.count(digits[0]) == 1, (exps, n, r)


@pytest.mark.parametrize("p,f", [(3, 1), (7, 1), (13, 1), (2, 2), (3, 2), (5, 2), (2, 3)])
def test_digit_views_of_the_residue_field_are_the_least_views(p, f):
    lf = local_field(p, f)
    k = FiniteModule(lf, (1,))
    for n in [d for d in range(1, lf.q) if (lf.q - 1) % d == 0]:
        digit, least = k.view(n, "digit"), k.view(n, "least")
        assert (digit.reps, digit.orbit, digit.twist) == (least.reps, least.orbit, least.twist)


def test_dropping_a_field_frees_its_views_and_field_context():
    """A LocalField owns its module views, its walks of O/pi, its F_q
    context and its lattice memos: a GL_2 cocycle builds views and
    memoized quotients and images and the muset route a walk, and once
    the field is dropped none of them, and no context of its (p, f), is
    left alive.  No other test builds p = 53."""

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
        kept = [weakref.ref(a) for a in residue_walk(lf, 4)]
        kept.append(weakref.ref(next(iter(lf._quotients.values()))))
        kept.append(weakref.ref(next(iter(lf._images.values()))))
        return live(), kept

    (views, contexts), (during, kept) = live(), run_gl2_cocycle()
    assert during[0] > views and during[1] == contexts + 1
    assert live() == (views, contexts)
    assert [ref() for ref in kept] == [None] * 4
