"""Power residue symbols, three ways, and the cross-validation report.

direct     the closed formula: the unit (-1)^(v(a)v(b)) a^v(b) / b^v(a)
           reduced mod pi, then raised to (q-1)/n.  The unit is formed in
           F_q from the residues of the unit parts of a and b, since its
           residue is all the character reads, in one F_q step (two
           modular powers for f = 1, one antilog lookup for f > 1), and
           fields.power_residue_char keeps chi(u) by n and residue on
           the field's F_q context.
muset      the same unit u, but the character is evaluated as the orbit
           determinant of multiplication by u on the residue field viewed
           as a pointed mu_n-set, so the mu_n-set machinery genuinely sits
           on this route.  The twists are read off the field's walk of
           k = O/pi (musets.residue_walk, two flat arrays built once per
           n), one lookup per orbit: O((q-1)/n) per call, with no module,
           view or map built, up to q = MAX_Q whatever the enumeration
           bound.  Its one body is _orbit_delta(lf, u, n), which keeps
           delta(u) by n and residue on the field.
extension  the commutator of lifts in the central extension of K^x by
           mu_n, with the relative-dimension sign correction; under the
           engine's default digit rule its rank-one scalars are closed
           forms (see extension).

The tame unit u (tame_symbol, the boundary map K_2(K) -> K_1(k)) is the
layer the direct and muset routes share; the extension route reads a and
b on its own.  crosscheck takes the direct value from
power_residue_symbol, so a fault planted there reaches the sweep, and
the muset value from _orbit_delta of its own tame unit; each route
forms u once.  Each rank-one route ends in a function of u alone, and
each memoizes it in its own state: chi(u) on the FieldCtx, delta(u) on
the LocalField, S(u) on the SymbolEngine.  No route reads another's
memo, and a warm crosscheck recomputes none of the three.

A SymbolReport keeps a and b as elements and renders them only in
to_dict and to_json.  It is a mutable fields.Record: __slots__
fields, equality over all of them, no hash.  A route that raises
EnumerationBound or PrecisionError does not sink the report (see
SymbolReport).
"""

from __future__ import annotations

import json
import time

from .errors import EnumerationBound, PrecisionError
from .extension import SymbolEngine, corrected_symbol, get_engine
from .fields import MuScalar, Record, mu_embed, power_residue_char
from .musets import RULES, residue_walk
from .padic import KElem, LocalField, k_one_minus


def tame_symbol(lf: LocalField, a: KElem, b: KElem) -> int:
    """(-1)^(v(a)v(b)) a^v(b) / b^v(a) reduced mod pi; a residue field unit.

    With a = pi^v(a) * ua and b = pi^v(b) * ub the pi-powers cancel, so the
    value is ua^v(b) * ub^-v(a) in F_q, up to the sign: one F_q step,
    FieldCtx.signed_monomial, on the residues of ua and ub.
    """
    if a.lf is not lf or b.lf is not lf:
        raise ValueError("elements of different fields")
    va, vb = a.val, b.val
    return lf.field.signed_monomial(a.unit_part().reduce_mod_pi(), vb,
                                    b.unit_part().reduce_mod_pi(), -va, va * vb)


def power_residue_symbol(lf: LocalField, a: KElem, b: KElem, n: int) -> MuScalar:
    """The n-th power residue symbol by the direct formula."""
    return power_residue_char(lf.field, tame_symbol(lf, a, b), n)


def delta_route_symbol(lf: LocalField, a: KElem, b: KElem, n: int,
                       rule: str = "least") -> MuScalar:
    """The symbol with the character computed as an orbit determinant:
    _orbit_delta of the tame unit.  rule names a representative rule; the
    value is the same under every rule (see _orbit_delta)."""
    if rule not in RULES:
        raise ValueError(f"unknown representative rule {rule!r}")
    return MuScalar(n, _orbit_delta(lf, tame_symbol(lf, a, b), n))


def _orbit_delta(lf: LocalField, u: int, n: int) -> int:
    """The muset route's one body: the determinant delta of multiplication
    by the unit u on k = O/pi, as a pointed mu_n-set, as an exponent mod n.

    u acts on k as an automorphism of pointed mu_n-sets; delta is the sum
    of its orbit twists.  Pin the least element c_i of each coset as the
    representative of orbit i (on k the least and digit rules both pin
    it).  Then u * c_i = zeta^pos[u*c_i] * c_sigma(i), so
    mu_i = pos[u * c_i] and delta = sum_i pos[u * c_i].  Moving the
    representative of orbit i to zeta^k * c_i adds k to mu_i and takes k
    from the twist of the orbit that u sends onto orbit i, so the sum is
    the same under every rule.

    delta is memoized on lf by n and u (lf._deltas), at most q - 1 values
    per n.  The walk is looked up on every call, hit or miss, and its
    build checks n.  An n that does not divide q - 1, and a u outside
    1..q-1, raise on every call and are never stored.
    """
    pos, least = residue_walk(lf, n)
    deltas = lf._deltas.get(n)
    if deltas is None:
        deltas = lf._deltas[n] = {}
    d = deltas.get(u)
    if d is None:
        if not 0 < u < lf.q:
            raise ValueError(f"multiplication by {u} is not an automorphism of k = F_{lf.q}")
        mul = lf.field.mul
        d = deltas[u] = sum(pos[mul(u, c)] for c in least) % n
    return d


def steinberg_check(lf: LocalField, a: KElem, n: int) -> bool:
    """(a, 1 - a)_n = 1; defined for a != 1."""
    return power_residue_symbol(lf, a, k_one_minus(a), n).is_identity


class SymbolReport(Record):
    """Three independently computed values for one input pair.

    a and b are the input elements themselves; to_dict and to_json render
    them with KElem.as_str, so a report that is never printed never
    decodes them.  str(rep.a) is not the rendered text: use rep.a.as_str().
    A route that could not answer has the value None, and skipped maps its
    name to the reason; agree holds only when all three routes answered
    and agree.  micros, the routes' wall time, stays out of to_dict and
    to_json, and skipped shows there only when a route was skipped.
    """

    __slots__ = ("p", "f", "n", "a", "b", "direct", "muset", "extension",
                 "agree", "micros", "skipped")

    def __init__(self, p: int, f: int, n: int, a: KElem, b: KElem,
                 direct: int | None, muset: int | None, extension: int | None,
                 agree: bool, micros: int, skipped: dict | None = None):
        # one store per field: every crosscheck builds a report, and unpacking a tuple is slower
        self.p = p
        self.f = f
        self.n = n
        self.a = a
        self.b = b
        self.direct = direct
        self.muset = muset
        self.extension = extension
        self.agree = agree
        self.micros = micros
        self.skipped = {} if skipped is None else skipped

    def to_dict(self) -> dict:
        d = {"p": self.p, "f": self.f, "n": self.n,
             "a": self.a.as_str(), "b": self.b.as_str(),
             "direct": self.direct, "muset": self.muset,
             "extension": self.extension, "agree": self.agree}
        if self.skipped:
            d["skipped"] = self.skipped
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def crosscheck(lf: LocalField, a: KElem, b: KElem, n: int,
               engine: SymbolEngine | None = None) -> SymbolReport:
    """Compute the symbol by all three routes and compare.

    The direct value is power_residue_symbol's, the muset value the
    _orbit_delta of the tame unit (the muset route's one body, which
    delta_route_symbol also calls), the extension value corrected_symbol's.
    A route that raises EnumerationBound or PrecisionError is skipped, with
    the message as its reason, and the other two still answer.
    """
    if engine is None:
        engine = get_engine(lf, n)
    elif engine.lf is not lf or engine.n != n:
        raise ValueError(f"engine is for {engine.lf} and n = {engine.n}, not {lf} and n = {n}")
    skipped = {}
    t0 = time.perf_counter_ns()
    try:
        direct = power_residue_symbol(lf, a, b, n).exp
    except (EnumerationBound, PrecisionError) as exc:
        direct, skipped["direct"] = None, str(exc)
    try:
        via_muset = _orbit_delta(lf, tame_symbol(lf, a, b), n)
    except (EnumerationBound, PrecisionError) as exc:
        via_muset, skipped["muset"] = None, str(exc)
    try:
        via_ext = corrected_symbol(a, b, engine).exp
    except (EnumerationBound, PrecisionError) as exc:
        via_ext, skipped["extension"] = None, str(exc)
    micros = (time.perf_counter_ns() - t0) // 1000
    return SymbolReport(lf.p, lf.f, n, a, b, direct, via_muset, via_ext,
                        not skipped and direct == via_muset == via_ext, micros, skipped)


def symbol_value_str(lf: LocalField, s: MuScalar) -> str:
    """Human-friendly value: the residue field element zeta_n^exp."""
    x = mu_embed(lf.field, s)
    if lf.f == 1:
        return str(x)
    return "[" + ",".join(map(str, lf.field.decode(x))) + "]"
