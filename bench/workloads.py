"""Seeded inputs, operations and oracles of the three benchmark workloads.

Every input is built from the run seed through resforge's public
constructors (LocalField, pi, from_rational, from_coeffs, KMat.from_rows).
The module does not import resforge itself: the worker imports it from the
checkout and passes the package in as ``rf``, so the import is timed as
set-up.  Every call goes through the package namespace (``rf.crosscheck``),
which is where the traced run installs its wrappers.

An op is one three-route crosscheck (the sweeps), one rank-one corrected
symbol or one GL_2 cocycle-identity draw (extension_deep).
"""

from __future__ import annotations

import hashlib
import random

WORKLOADS = ("sweep_f1", "sweep_galois", "extension_deep")

# sweep_f1: every n | p - 1 with n >= 2, valuations in [-2, 2]
F1_PRIMES = (7, 13)
F1_VMAX = 2
F1_UNITS_PER_CELL = 4

# sweep_galois: (p, f, orders n), valuations in [-1, 1], units over F_q^x
GALOIS_FIELDS = ((3, 2, (2, 4, 8)), (5, 2, (2, 3, 4, 6, 8, 12, 24)))
GALOIS_VMAX = 1
GALOIS_UNITS_PER_CELL = 4

# extension_deep: rank-one valuation bounds straddle each prime's
# enumeration ceiling at the default enum_bound of 100,000.
RANK1_PRIMES = ((3, 6), (5, 4), (7, 3), (13, 3))
GL2_PRIMES = (3, 5, 7)
GL2_DRAWS_PER_PRIME = 8
GL2_VMAX = 2
GL2_PREC = 60

# the reduced inputs of --tiny, used by the smoke test: valuations in
# [-1, 1], one unit pair per cell, one GL_2 draw
TINY = {
    "sweep_f1": (7,),
    "sweep_galois": ((3, 2, (2, 8)),),
    "rank1": ((3, 2), (5, 1)),
    "gl2_primes": (3,),
}


def divisors(m: int) -> list[int]:
    """Every n | m with n >= 2."""
    return [d for d in range(2, m + 1) if m % d == 0]


def digits(u: int, p: int, f: int) -> list[int]:
    """Base-p digits of u, the residue coefficients of an element of F_q."""
    return [(u // p**i) % p for i in range(f)]


class Pair:
    """One symbol input (a, b) with its field, n and engine."""

    __slots__ = ("lf", "n", "eng", "a", "b")

    def __init__(self, lf, n, eng, a, b):
        self.lf, self.n, self.eng, self.a, self.b = lf, n, eng, a, b


class Draw:
    """One GL_2 cocycle-identity draw: matrices f, g, h at a fixed n."""

    __slots__ = ("n", "eng", "f", "g", "h")

    def __init__(self, n, eng, f, g, h):
        self.n, self.eng, self.f, self.g, self.h = n, eng, f, g, h


class Workload:
    """The generated inputs of one (workload, seed), ready to run.

    ops      what is timed as an op, in a fixed order
    pairs    the symbol inputs whose routes are timed one by one
    """

    def __init__(self, name, kind, ops, pairs):
        self.name = name
        self.kind = kind          # "crosscheck" or "extension"
        self.ops = ops
        self.pairs = pairs


# ---------------------------------------------------------------------------
# set-up: fields and engines, the part every CLI call pays


def setup(rf, name: str, tiny: bool = False) -> dict:
    """Build the LocalFields and SymbolEngines a workload uses.

    Returns {(p, f): (lf, {n: engine})}.
    """
    ctx = {}

    def add(p, f, ns):
        lf = rf.LocalField(p, f)
        ctx[(p, f)] = (lf, {n: rf.get_engine(lf, n) for n in ns})

    if name == "sweep_f1":
        for p in (TINY[name] if tiny else F1_PRIMES):
            add(p, 1, divisors(p - 1))
    elif name == "sweep_galois":
        for p, f, ns in (TINY[name] if tiny else GALOIS_FIELDS):
            add(p, f, ns)
    elif name == "extension_deep":
        primes = {p for p, _ in (TINY["rank1"] if tiny else RANK1_PRIMES)}
        primes |= set(TINY["gl2_primes"] if tiny else GL2_PRIMES)
        for p in sorted(primes):
            add(p, 1, divisors(p - 1))
    else:
        raise ValueError(f"unknown workload {name!r}")
    return ctx


# ---------------------------------------------------------------------------
# inputs


def _sweep_pairs(rng, ctx, fields, vmax, per_cell):
    """Each (n, v(a), v(b)) cell gets per_cell pairs of seeded units.

    Covering every cell fixes which rank-one enumerations the cold pass
    fills, so the cold work does not depend on the seed; only the units do.
    """
    pairs = []
    for p, f, ns in fields:
        lf, engines = ctx[(p, f)]
        q = p**f

        def elem(v):
            u = rng.randint(1, q - 1)
            unit = lf.from_rational(u) if f == 1 else lf.from_coeffs(digits(u, p, f))
            return lf.pi(v) * unit

        for n in ns:
            for va in range(-vmax, vmax + 1):
                for vb in range(-vmax, vmax + 1):
                    for _ in range(per_cell):
                        pairs.append(Pair(lf, n, engines[n], elem(va), elem(vb)))
    return pairs


def _rank1_pairs(rng, ctx, primes):
    """One seeded pair per (p, v(a), v(b)) cell, |v| up to the prime's bound.

    The cells take the orders n | p - 1 in turn, so every n is used at
    every p and the cells, which fix the enumeration sizes, do not depend
    on the seed.
    """
    pairs = []
    for p, vmax in primes:
        lf, engines = ctx[(p, 1)]
        ns = divisors(p - 1)
        cells = [(va, vb) for va in range(-vmax, vmax + 1) for vb in range(-vmax, vmax + 1)]
        for i, (va, vb) in enumerate(cells):
            n = ns[i % len(ns)]
            a = lf.pi(va) * lf.from_rational(rng.randint(1, p - 1))
            b = lf.pi(vb) * lf.from_rational(rng.randint(1, p - 1))
            pairs.append(Pair(lf, n, engines[n], a, b))
    return pairs


def _vmul(A, B):
    """Entry valuations of A @ B, or None if some entry could cancel.

    A and B hold entry valuations (None for a zero entry).  An entry whose
    minimal term is unique has that valuation whatever the units are.
    """
    out = []
    for i in range(2):
        row = []
        for j in range(2):
            terms = [A[i][k] + B[k][j] for k in range(2)
                     if A[i][k] is not None and B[k][j] is not None]
            if not terms:
                row.append(None)
                continue
            low = min(terms)
            if terms.count(low) > 1:
                return None
            row.append(low)
        out.append(row)
    return out


def _vdet_ok(A) -> bool:
    """The determinant is nonzero with a valuation independent of the units."""
    terms = []
    if A[0][0] is not None and A[1][1] is not None:
        terms.append(A[0][0] + A[1][1])
    if A[0][1] is not None and A[1][0] is not None:
        terms.append(A[0][1] + A[1][0])
    return len(terms) == 1 or (len(terms) == 2 and terms[0] != terms[1])


def gl2_profiles(p: int, count: int):
    """Fixed (n, valuation profiles of f, g, h) for the GL_2 draws at p.

    Entries have valuation in [-GL2_VMAX, GL2_VMAX] or are zero (15%).  A
    profile is kept only if no entry or determinant of f, g, h, fg, gh
    and fgh can cancel, so the profile alone fixes every lattice and
    quotient size.  The profiles do not depend on the run seed: they fix
    the enumeration work, which is heavy-tailed in the draw, and the seed
    draws the units, which fix the values.
    """
    prof_rng = random.Random(f"resforge-bench-gl2-{p}")
    ns = divisors(p - 1)

    def entries():
        return [[prof_rng.randint(-GL2_VMAX, GL2_VMAX) if prof_rng.random() < 0.85
                 else None for _ in range(2)] for _ in range(2)]

    out = []
    while len(out) < count:
        n = ns[prof_rng.randrange(len(ns))]
        f, g, h = entries(), entries(), entries()
        fg, gh = _vmul(f, g), _vmul(g, h)
        if fg is None or gh is None:
            continue
        fgh, fgh2 = _vmul(fg, h), _vmul(f, gh)
        if fgh is None or fgh2 is None:
            continue
        if all(_vdet_ok(M) for M in (f, g, h, fg, gh, fgh)):
            out.append((n, f, g, h))
    return out


def _gl2_draws(rf, rng, ctx, primes, per_prime):
    draws = []
    for p in primes:
        lf, engines = ctx[(p, 1)]

        def mat(P):
            rows = [[0 if v is None else
                     lf.pi(v, GL2_PREC) * lf.from_rational(rng.randint(1, p - 1), GL2_PREC)
                     for v in row] for row in P]
            return rf.KMat.from_rows(lf, rows, GL2_PREC)

        for n, f, g, h in gl2_profiles(p, per_prime):
            draws.append(Draw(n, engines[n], mat(f), mat(g), mat(h)))
    return draws


def build(rf, name: str, ctx: dict, seed: int, tiny: bool = False) -> Workload:
    """The inputs of (name, seed); the same seed gives the same inputs."""
    rng = random.Random(f"{name}-{seed}")
    if name == "sweep_f1":
        fields = [(p, 1, divisors(p - 1)) for p in (TINY[name] if tiny else F1_PRIMES)]
        pairs = (_sweep_pairs(rng, ctx, fields, 1, 1) if tiny
                 else _sweep_pairs(rng, ctx, fields, F1_VMAX, F1_UNITS_PER_CELL))
        return Workload(name, "crosscheck", pairs, pairs)
    if name == "sweep_galois":
        pairs = (_sweep_pairs(rng, ctx, TINY[name], 1, 1) if tiny
                 else _sweep_pairs(rng, ctx, GALOIS_FIELDS, GALOIS_VMAX, GALOIS_UNITS_PER_CELL))
        return Workload(name, "crosscheck", pairs, pairs)
    if name == "extension_deep":
        pairs = _rank1_pairs(rng, ctx, TINY["rank1"] if tiny else RANK1_PRIMES)
        draws = (_gl2_draws(rf, rng, ctx, TINY["gl2_primes"], 1) if tiny
                 else _gl2_draws(rf, rng, ctx, GL2_PRIMES, GL2_DRAWS_PER_PRIME))
        return Workload(name, "extension", pairs + draws, pairs)
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# ops and oracles


def run_op(rf, wl: Workload, op):
    """Run one op; its result, or None if it failed within the program's limits.

    A crosscheck gives (direct, muset, extension, agree); a rank-one symbol
    its exponent; a GL_2 draw the two sides of the cocycle identity.
    """
    try:
        if wl.kind == "crosscheck":
            rep = rf.crosscheck(op.lf, op.a, op.b, op.n, op.eng)
            return (rep.direct, rep.muset, rep.extension, rep.agree)
        if isinstance(op, Pair):
            return rf.corrected_symbol(op.a, op.b, op.eng).exp
        f, g, h, eng = op.f, op.g, op.h, op.eng
        lhs = rf.cocycle(f, g @ h, eng).exp + rf.cocycle(g, h, eng).exp
        rhs = rf.cocycle(f @ g, h, eng).exp + rf.cocycle(f, g, eng).exp
        return (lhs % op.n, rhs % op.n)
    except (rf.EnumerationBound, rf.PrecisionError):
        return None


def route_calls(rf):
    """The three routes, each as a function of a Pair, in probe order."""
    return (
        ("direct", lambda q: rf.power_residue_symbol(q.lf, q.a, q.b, q.n).exp),
        ("muset", lambda q: rf.delta_route_symbol(q.lf, q.a, q.b, q.n, q.eng.rule).exp),
        ("extension", lambda q: rf.corrected_symbol(q.a, q.b, q.eng).exp),
    )


def check_results(rf, wl: Workload, results) -> tuple[list[str], list[int]]:
    """Check cold-pass results against their independent oracles.

    Sweeps: the three routes agree.  Rank-one symbols: equal to the direct
    route.  GL_2 draws: both sides of the cocycle identity agree.  Returns
    (errors, direct-route exponents of wl.pairs in order).
    """
    errors = []
    direct = []
    for i, (op, res) in enumerate(zip(wl.ops, results)):
        if wl.kind == "crosscheck" and res is not None:
            d, m, e, agree = res
            if not (agree and d == m == e):
                errors.append(f"op {i}: routes disagree: direct={d} muset={m} extension={e}")
            direct.append(d)
        elif isinstance(op, Pair):
            want = rf.power_residue_symbol(op.lf, op.a, op.b, op.n).exp
            direct.append(want)
            if res is not None and res != want:
                errors.append(f"op {i}: extension={res} but direct={want}")
        elif res is not None and res[0] != res[1]:
            errors.append(f"op {i}: cocycle identity fails: {res[0]} != {res[1]}")
    return errors, direct


def digest(exps) -> str:
    """Short digest of a sequence of values, such as direct-route exponents."""
    return hashlib.sha256(",".join(map(str, exps)).encode()).hexdigest()[:16]


# every run also recomputes this seed's pinned digest, whatever seed it runs
REFERENCE_SEED = 0


def direct_digest(rf, name: str, seed: int) -> str:
    """Digest of the direct-route exponents of (name, seed)'s full-size pairs."""
    ctx = setup(rf, name)
    wl = build(rf, name, ctx, seed)
    return digest(rf.power_residue_symbol(q.lf, q.a, q.b, q.n).exp for q in wl.pairs)
