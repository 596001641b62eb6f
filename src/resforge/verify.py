"""Named verification suites with deterministic seeds.

Each suite returns a JSON-serializable summary: per-check case counts,
failure counts, and the first counterexample if any.  Timing is kept out
of the summaries so identical seeds give byte-identical reports.
"""

from __future__ import annotations

import random

from .errors import EnumerationBound, PrecisionError
from .extension import comm_symbol, cocycle_exp, get_engine
from .fields import field_make, mu_dlog, power_residue_char, zolotarev_sign
from .lattices import (KMat, Lattice, lat_apply, lat_contains_lattice,
                       lat_intersect, lat_sum, quotient_struct, rel_dim,
                       induced_hom, standard_lattice)
from .modules import FiniteModule, ModuleHom, scalar_hom
from .musets import MuSet, MuSetAut, aut_delta, aut_extend, perm_sign
from .padic import local_field
from .symbols import crosscheck, steinberg_check
from .torsor import _det_exp_brute, _exact_seq_exp, det_of_module_aut


class _Check:
    def __init__(self, name):
        self.name = name
        self.cases = 0
        self.failures = 0
        self.first = None

    def record(self, ok: bool, detail=None):
        """Count a case; detail is its counterexample, or a zero-argument
        function that renders it, called only for the first failure kept."""
        self.cases += 1
        if not ok:
            self.failures += 1
            if self.first is None:
                self.first = detail() if callable(detail) else detail

    def summary(self):
        out = {"name": self.name, "cases": self.cases, "failures": self.failures}
        if self.first is not None:
            out["first_counterexample"] = self.first
        return out


def _finish(suite, checks, **extra):
    out = {"suite": suite,
           "checks": [c.summary() for c in checks],
           "ok": all(c.failures == 0 for c in checks)}
    out.update(extra)
    return out


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


# ---------------------------------------------------------------------------


def run_zolotarev(ps=None, **_):
    """Multiplication sign equals the Euler criterion, exhaustively."""
    from .fields import is_prime
    ps = ps or [p for p in range(3, 32, 2) if is_prime(p)]
    chk = _Check("zolotarev_equals_euler")
    for p in ps:
        ctx = field_make(p)
        for a in range(1, p):
            sign = zolotarev_sign(ctx, a)
            euler = 1 if power_residue_char(ctx, a, 2).exp == 0 else -1
            chk.record(sign == euler, {"p": p, "a": a, "sign": sign, "euler": euler})
    return _finish("zolotarev", [chk])


def run_muset(seed: int = 0, **_):
    """Orbit-determinant identities: transfer, n=2 sign, products."""
    rng = random.Random(seed)
    transfer = _Check("transfer_is_power_map")
    for q, f in [(4, 2), (5, 1), (7, 1), (9, 2), (13, 1), (25, 2), (27, 3), (49, 2)]:
        p = {4: 2, 9: 3, 25: 5, 27: 3, 49: 7}.get(q, q)
        lf = local_field(p, f)
        k_mod = FiniteModule(lf, (1,))
        for n in _divisors(q - 1):
            for a in range(1, q):
                d = _det_exp_brute(scalar_hom(k_mod, a, from_ring=lf.ring(1)), n)
                want = power_residue_char(lf.field, a, n)
                transfer.record(d == want.exp,
                                {"q": q, "n": n, "a": a, "delta": d, "char": want.exp})

    sign2 = _Check("sign_equals_delta_for_n2")
    for _ in range(1000):
        t = rng.randint(0, 20)
        X = MuSet(2, t)
        sig = list(range(t))
        rng.shuffle(sig)
        g = MuSetAut(X, tuple(sig), tuple(rng.randrange(2) for _ in range(t)))
        s = perm_sign(g)
        d = 1 if aut_delta(g).exp == 0 else -1
        sign2.record(s == d, {"t": t, "sigma": sig, "mu": g.mu})

    product = _Check("product_preserves_delta")
    for _ in range(200):
        n = rng.randint(1, 4)
        X, Y = MuSet(n, rng.randint(0, 5)), MuSet(n, rng.randint(0, 5))
        sig = list(range(X.t))
        rng.shuffle(sig)
        g = MuSetAut(X, tuple(sig), tuple(rng.randrange(n) for _ in range(X.t)))
        ext = aut_extend(g, Y)
        product.record(aut_delta(ext).exp == aut_delta(g).exp,
                       {"n": n, "tX": X.t, "tY": Y.t})
    return _finish("muset", [transfer, sign2, product])


def _random_unit(lf, rng):
    return rng.randrange(1, lf.q)


def run_torsor(seed: int = 0, **_):
    """Determinant coherence and exactness naturality."""
    rng = random.Random(seed)
    coherence = _Check("fast_path_equals_brute_force")
    for p in (2, 3, 5, 7, 11, 13):
        for f in (1, 2):
            q = p**f
            if q > 13:
                continue
            lf = local_field(p, f)
            for e in (1, 2, 3):
                M = FiniteModule(lf, (e,))
                for _ in range(50):
                    u = _random_unit(lf, rng)
                    g = scalar_hom(M, u, from_ring=lf.ring(1))
                    for n in _divisors(q - 1):
                        b = _det_exp_brute(g, n)
                        fast = det_of_module_aut(g, n).exp
                        coherence.record(b == fast, {"q": q, "e": e, "u": u, "n": n})

    classical = _Check("mu_det_equals_classical_det_on_GL2")
    for p in (2, 3, 5):
        lf = local_field(p)
        V = FiniteModule(lf, (1, 1))
        n = p - 1
        if n == 1:
            continue
        for a in range(p):
            for b in range(p):
                for c in range(p):
                    for d in range(p):
                        det = (a * d - b * c) % p
                        if det == 0:
                            continue
                        g = ModuleHom(V, V, [(a, c), (b, d)])
                        got = _det_exp_brute(g, n)
                        want = mu_dlog(lf.field, det, n)
                        classical.record(got == want.exp,
                                         {"p": p, "matrix": [[a, b], [c, d]]})

    natural = _Check("exact_sequence_naturality")
    lf = local_field(5)
    for _ in range(200):
        m = rng.randint(1, 2)
        A = standard_lattice(lf, m)
        M1 = _random_matrix(lf, rng, m, (0, 2), 0.9)
        M2 = _random_matrix(lf, rng, m, (0, 1), 0.9)
        B = Lattice(A.mat @ M1)
        C = Lattice(B.mat @ M2)
        QXZ = quotient_struct(A, C)
        QYZ = quotient_struct(B, C)
        QXY = quotient_struct(A, B)
        if QXZ.module.size > lf.enum_bound:
            continue
        X, Y, Z = QYZ.module, QXZ.module, QXY.module
        incl = induced_hom(QYZ, QXZ)
        proj = induced_hom(QXZ, QXY)
        n = 4
        c0 = _exact_seq_exp(X, Y, Z, incl, proj, n, "least")
        u = _random_unit(lf, rng)
        gX = scalar_hom(X, u, from_ring=lf.ring(1))
        gY = scalar_hom(Y, u, from_ring=lf.ring(1))
        gZ = scalar_hom(Z, u, from_ring=lf.ring(1))
        dX = _det_exp_brute(gX, n)
        dY = _det_exp_brute(gY, n)
        dZ = _det_exp_brute(gZ, n)
        ok = (dX + dZ) % n == dY % n
        # the square commutes: the scalar is stable under twisting
        uinv = lf.field.inv(u)
        gXi = scalar_hom(X, uinv, from_ring=lf.ring(1))
        incl2 = gY.compose(incl.compose(gXi))
        gYi = scalar_hom(Y, uinv, from_ring=lf.ring(1))
        proj2 = gZ.compose(proj.compose(gYi))
        c1 = _exact_seq_exp(X, Y, Z, incl2, proj2, n, "least")
        ok = ok and c0 == c1
        natural.record(ok, {"m": m, "u": u, "c0": c0, "c1": c1,
                            "dets": [dX, dY, dZ]})
    return _finish("torsor", [coherence, classical, natural])


def _random_matrix(lf, rng, m, vals=(-2, 2), density=0.85, prec=60):
    """Random invertible m x m matrix: each entry is nonzero with
    probability density, a unit times pi to a power drawn from vals."""
    while True:
        rows = [[(lf.pi(rng.randint(*vals)) * lf.from_rational(rng.randint(1, lf.p - 1), prec))
                 if rng.random() < density else 0 for _ in range(m)] for _ in range(m)]
        M = KMat.from_rows(lf, rows, prec)
        try:
            M.det_val()
            return M
        except PrecisionError:
            continue


def run_lattice(seed: int = 0, **_):
    """Quotient structure identities and dimension additivity."""
    rng = random.Random(seed)
    lf = local_field(7)

    basic = _Check("sum_intersection_containments")
    iso2 = _Check("second_isomorphism_cardinality")
    anti = _Check("relative_dimension_antisymmetry")
    for _ in range(100):
        m = rng.randint(1, 3)
        A = lat_apply(_random_matrix(lf, rng, m), standard_lattice(lf, m))
        B = lat_apply(_random_matrix(lf, rng, m), standard_lattice(lf, m))
        S, I = lat_sum(A, B), lat_intersect(A, B)
        basic.record(lat_contains_lattice(S, A) and lat_contains_lattice(S, B)
                     and lat_contains_lattice(A, I) and lat_contains_lattice(B, I),
                     {"m": m})
        iso2.record(quotient_struct(S, A).module.size
                    == quotient_struct(B, I).module.size, {"m": m})
        for n in (1, 2, 3, 6):
            anti.record(rel_dim(A, B, n) == -rel_dim(B, A, n), {"m": m, "n": n})

    dimadd = _Check("dimension_additivity_mod_divisors")
    q = lf.q
    for _ in range(200):
        m = rng.randint(1, 3)
        A = standard_lattice(lf, m)
        B = Lattice(A.mat @ _random_matrix(lf, rng, m, (0, 2), 0.9))
        C = Lattice(B.mat @ _random_matrix(lf, rng, m, (0, 1), 0.9))
        dy = sum(quotient_struct(A, C).module.exps)
        dx = sum(quotient_struct(B, C).module.exps)
        dz = sum(quotient_struct(A, B).module.exps)
        for mm in _divisors(q - 1):
            n = mm  # dimensions counted with mu_n orbits for each divisor
            dimX = (q**dx - 1) // n
            dimY = (q**dy - 1) // n
            dimZ = (q**dz - 1) // n
            dimadd.record((dimX + dimZ - dimY) % mm == 0,
                          {"m": m, "exps": [dx, dy, dz], "mod": mm})
    return _finish("lattice", [basic, iso2, anti, dimadd])


def run_cocycle(seed: int = 0, **_):
    """Cocycle identity, symbol properties, trivialization independence."""
    rng = random.Random(seed)
    ident = _Check("cocycle_identity")
    done = 0
    while done < 200:
        p = rng.choice((3, 5, 7))
        lf = local_field(p)
        n = rng.choice(_divisors(p - 1))
        eng = get_engine(lf, n)
        m = rng.choice((1, 2))
        f, g, h = (_random_matrix(lf, rng, m) for _ in range(3))
        try:
            lhs = (cocycle_exp(f, g @ h, eng) + cocycle_exp(g, h, eng)) % n
            rhs = (cocycle_exp(f @ g, h, eng) + cocycle_exp(f, g, eng)) % n
        except EnumerationBound:
            continue  # draw again: quotients too large to enumerate
        ident.record(lhs == rhs, {"p": p, "n": n, "m": m})
        done += 1

    props = _Check("commutator_symbol_properties")
    for _ in range(200):
        p = rng.choice((3, 5, 7))
        lf = local_field(p)
        n = rng.choice([d for d in _divisors(p - 1) if d > 1])
        eng = get_engine(lf, n)
        # products a * a2 enter the symbol, so their valuations stay small
        a = lf.pi(rng.randint(-1, 1)) * lf.from_rational(rng.randint(1, p - 1))
        a2 = lf.pi(rng.randint(-1, 1)) * lf.from_rational(rng.randint(1, p - 1))
        b = lf.pi(rng.randint(-2, 2)) * lf.from_rational(rng.randint(1, p - 1))
        sab = comm_symbol(a, b, eng)
        sba = comm_symbol(b, a, eng)
        anti = (sab * sba).is_identity
        bimul = comm_symbol(a * a2, b, eng).exp == (comm_symbol(a, b, eng) * comm_symbol(a2, b, eng)).exp
        inv = comm_symbol(a.inverse(), b, eng).exp == sab.inverse().exp
        selfs = comm_symbol(a, a, eng).is_identity
        u1 = eng.as_kmat(lf.from_rational(rng.randint(1, p - 1)))
        u2 = eng.as_kmat(lf.from_rational(rng.randint(1, p - 1)))
        units = comm_symbol(u1, u2, eng).is_identity
        props.record(anti and bimul and inv and selfs and units,
                     {"p": p, "n": n, "a": a.as_str(), "b": b.as_str()})

    indep = _Check("trivialization_independence")
    diag = _Check("gl2_diagonal_embedding")
    for _ in range(100):
        p = rng.choice((3, 5, 7, 13))
        lf = local_field(p)
        n = rng.choice([d for d in _divisors(p - 1) if d > 1])
        a = lf.pi(rng.randint(-2, 2)) * lf.from_rational(rng.randint(1, p - 1))
        b = lf.pi(rng.randint(-2, 2)) * lf.from_rational(rng.randint(1, p - 1))
        # the digit rule's closed form against both enumerating rules
        exps = {rule: comm_symbol(a, b, get_engine(lf, n, rule=rule)).exp
                for rule in ("digit", "least", "second_least")}
        detail = {"p": p, "n": n, "a": a.as_str(), "b": b.as_str()}
        indep.record(len(set(exps.values())) == 1, {**detail, **exps})
        # K^x sits in GL_2 as diag(a, 1): {diag(a,1), diag(b,1)} = {a, b}
        fa = KMat.from_rows(lf, [[a, 0], [0, 1]])
        fb = KMat.from_rows(lf, [[b, 0], [0, 1]])
        gl2 = comm_symbol(fa, fb, get_engine(lf, n)).exp
        diag.record(gl2 == exps["digit"], {**detail, "gl2": gl2, "gl1": exps["digit"]})
    return _finish("cocycle", [ident, props, indep, diag])


def _sweep_inputs(lf, vrange):
    for v in vrange:
        for u in range(1, lf.q):
            yield lf.pi(v) * lf.from_coeffs(lf.field.decode(u))


def run_theorem(ps=(3, 5, 7, 13), vmax: int = 2, **_):
    """Uncorrected commutator symbol equals the unsigned formula, exhaustively."""
    chk = _Check("commutator_equals_unsigned_formula")
    for p in ps:
        lf = local_field(p)
        for n in _divisors(p - 1):
            eng = get_engine(lf, n)
            inputs = list(_sweep_inputs(lf, range(-vmax, vmax + 1)))
            for a in inputs:
                for b in inputs:
                    got = comm_symbol(a, b, eng).exp
                    u = (a**b.val) * (b**a.val).inverse()
                    want = power_residue_char(lf.field, u.reduce_mod_pi(), n).exp
                    chk.record(got == want,
                               lambda: {"p": p, "n": n, "a": a.as_str(), "b": b.as_str(),
                                        "got": got, "want": want})
    return _finish("theorem", [chk])


def run_corollary(ps=(3, 5, 7, 13), vmax: int = 2, seed: int = 0, **_):
    """Three-way agreement, Steinberg relation, and the q = 9 smoke sweep."""
    rng = random.Random(seed)
    agree = _Check("three_route_agreement")
    for p in ps:
        lf = local_field(p)
        for n in _divisors(p - 1):
            eng = get_engine(lf, n)
            inputs = list(_sweep_inputs(lf, range(-vmax, vmax + 1)))
            for a in inputs:
                for b in inputs:
                    rep = crosscheck(lf, a, b, n, eng)
                    agree.record(rep.agree, rep.to_dict)

    stein = _Check("steinberg_relation")
    for p in ps:
        lf = local_field(p)
        for n in _divisors(p - 1):
            count = 0
            while count < 500:
                v = rng.randint(-3, 3)
                u = rng.randint(1, p - 1)
                a = lf.pi(v) * lf.from_rational(u)
                if v == 0 and u == 1:
                    continue  # avoid a = 1, where 1 - a leaves K^x
                ok = steinberg_check(lf, a, n)
                stein.record(ok, lambda: {"p": p, "n": n, "a": a.as_str()})
                count += 1

    smoke = _Check("unramified_q9_agreement")
    lf9 = local_field(3, 2)
    for n in (2, 4, 8):
        eng = get_engine(lf9, n)
        inputs = list(_sweep_inputs(lf9, range(-1, 2)))
        for a in inputs:
            for b in inputs:
                rep = crosscheck(lf9, a, b, n, eng)
                smoke.record(rep.agree, rep.to_dict)
    return _finish("corollary", [agree, stein, smoke])


SUITES = {
    "zolotarev": run_zolotarev,
    "muset": run_muset,
    "torsor": run_torsor,
    "lattice": run_lattice,
    "cocycle": run_cocycle,
    "theorem": run_theorem,
    "corollary": run_corollary,
}


def run_suite(name: str, **kw):
    if name == "all":
        results = [SUITES[s](**kw) for s in SUITES]
        return {"suite": "all", "ok": all(r["ok"] for r in results),
                "suites": results}
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from "
                         f"{', '.join([*SUITES, 'all'])}")
    return SUITES[name](**kw)
