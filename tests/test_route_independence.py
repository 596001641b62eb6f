"""The muset and extension routes share no code of their own.

Cross-checking the three routes finds a bug only if a bug in one route's
own code cannot reach another route's value.  Each route runs here on a
fresh field, so its cold set-up is covered too, under a call tracer
(sys.setprofile) that records every resforge function it enters.  The
muset route may reach no function of resforge.extension, and the
extension route at m = 1 neither the muset route's walk of O/pi nor its
delta, nor the direct route's character: its sign term is read off its
own walk of O/pi.  Field and ring arithmetic, and the direct route's
tame unit, are still shared; the tracer only records them.
"""

import sys

from resforge.extension import corrected_symbol, get_engine
from resforge.padic import LocalField
from resforge.symbols import delta_route_symbol


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
    for lf, n, pairs in fields():
        for a, b in pairs:
            a, b = lf.parse(a), lf.parse(b)
            seen = reached(extension_route, lf, a, b, n)
            assert ("resforge.extension", "_digit_sum") in seen
            assert ("resforge.musets", "residue_walk") not in seen
            assert ("resforge.symbols", "delta_route_symbol") not in seen
            assert ("resforge.fields", "power_residue_char") not in seen
