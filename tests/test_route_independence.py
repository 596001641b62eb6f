"""The muset and extension routes share no code of their own.

Cross-checking the three routes finds a bug only if a bug in one route's
own code cannot reach another route's value.  Each route runs here on a
fresh field, so its cold set-up is covered too, under a call tracer
(sys.setprofile) that records every resforge function it enters.  The
muset route may reach no function of resforge.extension, and the
extension route at m = 1 neither the muset route's walk of O/pi nor its
delta, nor the direct route's character: its sign term is read off its
own walk of O/pi.  At m = 2 the extension route reads the character of
each graded residue determinant as S off that walk too, so a GL_2
cocycle reaches neither the direct route's character nor the muset
route; its exact sequences still build OrbitViews of finite modules,
which no other route uses.

What the three rank-one routes do share is named here, layer by layer:
element parsing, valuation and residue in resforge.padic; the tame unit
(symbols.tame_symbol), shared by the direct and muset routes only; and
F_q and O/pi^N arithmetic with MuScalar.  Each pairwise overlap of the
functions two routes reach must lie inside those sets, so a new
cross-route call fails here until it is named.

The two walks of O/pi (extension._coset_walk and musets.residue_walk)
are kept apart on purpose, one loop per route over the shared field
tables, and are compared here instead.
"""

import sys
from itertools import combinations

from resforge.extension import (_coset_walk, _digit_sum, cocycle_exp, corrected_symbol,
                                get_engine)
from resforge.fields import power_residue_char
from resforge.lattices import KMat
from resforge.musets import residue_walk
from resforge.padic import LocalField, local_field
from resforge.symbols import delta_route_symbol, power_residue_symbol


def reached(fn, *args):
    """(module, qualified name) of every resforge function that fn(*args) enters."""
    seen = set()

    def profile(frame, event, _arg):
        if event == "call":
            module = frame.f_globals.get("__name__", "")
            if module.startswith("resforge"):
                seen.add((module, frame.f_code.co_qualname))

    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return seen


PAIRS = [("pi", "pi"), ("pi*3", "pi^-2*5"), ("pi^2*[1,1]", "pi*[0,2]")]


def fields():
    yield LocalField(13), 12, PAIRS[:2]
    yield LocalField(5, 2), 8, PAIRS


def test_muset_route_reaches_no_extension_code():
    for lf, n, pairs in fields():
        for a, b in pairs:
            a, b = lf.parse(a), lf.parse(b)
            seen = reached(delta_route_symbol, lf, a, b, n, "digit")
            assert ("resforge.musets", "residue_walk") in seen
            assert [f for f in seen if f[0] == "resforge.extension"] == []


def extension_route(lf, a, b, n):
    return corrected_symbol(a, b, get_engine(lf, n))


def test_extension_route_at_m1_reaches_neither_the_walk_nor_the_delta():
    """The route reaches no resforge.musets function at all: its walk of
    O/pi is kept apart from the muset route's on purpose."""
    for lf, n, pairs in fields():
        for a, b in pairs:
            a, b = lf.parse(a), lf.parse(b)
            seen = reached(extension_route, lf, a, b, n)
            assert ("resforge.extension", "_digit_sum") in seen
            assert [f for f in seen if f[0] == "resforge.musets"] == []
            assert ("resforge.symbols", "delta_route_symbol") not in seen
            assert ("resforge.fields", "power_residue_char") not in seen


def test_gl2_extension_route_reaches_neither_the_character_nor_the_muset_route():
    """One GL_2 cocycle through kappa's chain at q = 13 and at q = 25:
    rho's iso exponents are S of graded residue determinants, and kappa
    walks exact sequences, whose OrbitViews are allowed."""
    for lf, n in ((LocalField(13), 12), (LocalField(5, 2), 8)):
        f = KMat.from_rows(lf, [["pi", "1"], [0, "pi^-1*3"]])
        g = KMat.from_rows(lf, [["2", 0], ["pi", "pi^2"]])
        seen = reached(cocycle_exp, f, g, get_engine(lf, n))
        assert {("resforge.torsor", "_graded_det"), ("resforge.extension", "_digit_sum"),
                ("resforge.torsor", "_exact_seq_exp")} <= seen
        assert ("resforge.fields", "power_residue_char") not in seen
        assert ("resforge.musets", "residue_walk") not in seen
        assert ("resforge.symbols", "delta_route_symbol") not in seen


# the shared layers of the rank-one routes, as (module, function) pairs;
# a comprehension or nested function counts as the function it sits in
PADIC_ELEMENTS = {   # element parsing, valuation and residue
    ("resforge.padic", name) for name in (
        "LocalField.parse", "LocalField.pi", "LocalField.from_rational",
        "LocalField.from_coeffs", "LocalField.precision", "LocalField.ring",
        "KElem.__init__", "KElem.unit_part", "KElem.reduce_mod_pi")
}
TAME_UNIT = {("resforge.symbols", "tame_symbol")}   # the direct and muset routes only


def is_arithmetic(fn) -> bool:
    """F_q and O/pi^N arithmetic (resforge.rings, FieldCtx) and MuScalar."""
    module, qualname = fn
    return module == "resforge.rings" or (
        module == "resforge.fields" and qualname.split(".")[0] in ("FieldCtx", "MuScalar"))


RANK_ONE_ROUTES = {
    "direct": lambda lf, a, b, n: power_residue_symbol(lf, lf.parse(a), lf.parse(b), n),
    "muset": lambda lf, a, b, n: delta_route_symbol(lf, lf.parse(a), lf.parse(b), n, "digit"),
    "extension": lambda lf, a, b, n: corrected_symbol(lf.parse(a), lf.parse(b),
                                                      get_engine(lf, n)),
}


def test_rank_one_routes_overlap_only_in_named_shared_layers():
    """Each route parses its own inputs on a fresh field, so its cold
    set-up is traced too.  The tame unit lies in the direct and muset
    routes' overlap and in no overlap with the extension route."""
    overlaps = {pair: set() for pair in combinations(RANK_ONE_ROUTES, 2)}
    for p, f, n, pairs in ((13, 1, 12, PAIRS[:2]), (5, 2, 8, PAIRS)):
        for a, b in pairs:
            seen = {route: {(module, qualname.split(".<locals>")[0])
                            for module, qualname in reached(fn, LocalField(p, f), a, b, n)}
                    for route, fn in RANK_ONE_ROUTES.items()}
            for r, s in overlaps:
                overlaps[r, s] |= seen[r] & seen[s]
    for (r, s), both in overlaps.items():
        named = PADIC_ELEMENTS | (TAME_UNIT if (r, s) == ("direct", "muset") else set())
        assert sorted(fn for fn in both if fn not in named and not is_arithmetic(fn)) == [], (r, s)
        assert ("resforge.padic", "LocalField.parse") in both
    assert TAME_UNIT <= overlaps["direct", "muset"]


WALK_FIELDS = [(7, 1), (13, 1), (3, 2), (5, 2), (3, 3), (2, 4)]


def test_the_two_walks_of_the_residue_field_agree():
    """Same least elements and the same positions off the marked point,
    where pos[0] is -1 in the extension route's walk and 0 in the muset
    route's."""
    for p, f in WALK_FIELDS:
        lf = local_field(p, f)
        for n in (d for d in range(1, lf.q) if (lf.q - 1) % d == 0):
            pos, least = _coset_walk(lf.field, lf.field.zeta(n), n)
            mpos, mleast = residue_walk(lf, n)
            assert list(least) == list(mleast)
            assert (pos[0], mpos[0]) == (-1, 0)
            assert pos[1:] == mpos[1:]


def test_digit_sum_is_the_power_residue_character():
    """S(u) read off the extension route's walk is the exponent of the
    n-th power residue character of u, for every unit u of every field
    above and every n | q - 1."""
    for p, f in WALK_FIELDS:
        lf = local_field(p, f)
        for n in (d for d in range(1, lf.q) if (lf.q - 1) % d == 0):
            eng = get_engine(lf, n)
            for u in range(1, lf.q):
                assert (_digit_sum(eng, u) - power_residue_char(lf.field, u, n).exp) % n == 0
