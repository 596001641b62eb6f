"""The value ledger: exponents of the extension route, pinned cell by cell.

Identities and commutators cannot see a change of c(f, g) by a
coboundary, which is what a different choice of canonical bases does;
the ledger can.  Each cell is named by a key and holds the value, or the
class and message of the exception the computation raised:

  gl2/...   cocycle_exp(f, g) on seeded verify._random_matrix draws, at
            p in {3, 5, 7, 13} (f = 1) and q in {9, 25}, under every rule;
  rank1/... cocycle, comm_symbol and corrected_symbol of K^x elements
            pi^v * u, under every rule;
  gl3/...   the 60 GL_3 cocycle identities of random.Random(7) (p cycles
            through 3, 5, 7; n = 2): [c(f, gh), c(g, h), c(fg, h), c(f, g)]
            in that order, or the first exception;
  seq/...   torsor._exact_seq_exp of the connecting sequence
            0 -> B/C -> A/C -> A/B -> 0, under every rule, for 8 nested
            triples A >= B >= C per field at (p, f) in {(5, 1), (7, 1), (3, 2)},
            drawn as verify.run_torsor draws them (A = O^m, m in {1, 2}).
            A draw is skipped when A/C passes the enumeration bound, or
            when B/C or A/B is the zero module, where the map is an
            identity and every rule gives 0.

tests/test_ledger.py recomputes every cell.  A change that moves a cell
lists the moved cells, grouped by kind, and then regenerates the file:

    PYTHONPATH=src python tests/ledger.py --diff   # prints, writes nothing
    PYTHONPATH=src python tests/ledger.py
"""

import json
import os
import random
import sys

from resforge.extension import (cocycle, cocycle_exp, comm_symbol,
                                corrected_symbol, get_engine)
from resforge.lattices import Lattice, induced_hom, quotient_struct, standard_lattice
from resforge.musets import RULES
from resforge.padic import local_field
from resforge.torsor import _exact_seq_exp
from resforge.verify import _random_matrix

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "ledger.json")
FIELDS = ((3, 1), (5, 1), (7, 1), (13, 1), (3, 2), (5, 2))
GL2_DRAWS = 8
RANK1_DRAWS = 6
GL3_DRAWS = 60
SEQ_FIELDS = ((5, 1), (7, 1), (3, 2))
SEQ_DRAWS = 8


def _orders(q):
    return [n for n in range(2, q) if (q - 1) % n == 0]


def _cell(fn):
    try:
        return fn()
    except (ArithmeticError, ValueError) as exc:   # PrecisionError, EnumerationBound, ...
        return {"error": type(exc).__name__, "message": str(exc)}


def cells():
    """(key, value) for every cell, in ledger order."""
    for p, f in FIELDS:
        lf = local_field(p, f)
        orders = _orders(lf.q)
        rng = random.Random(100 * p + f)
        vmax = 2 if f == 1 else 1   # q^2-sized steps reach the enumeration bound sooner
        for k in range(GL2_DRAWS):
            n = orders[k % len(orders)]
            a, b = (_random_matrix(lf, rng, 2, (-vmax, vmax)) for _ in range(2))
            for rule in RULES:
                eng = get_engine(lf, n, rule)
                yield f"gl2/q{lf.q}/{k}/n{n}/{rule}", _cell(lambda: cocycle_exp(a, b, eng))
        for k in range(RANK1_DRAWS):
            n = orders[k % len(orders)]
            x, y = (lf.pi(rng.randint(-vmax, vmax)) * lf.from_coeffs(lf.field.decode(rng.randrange(1, lf.q)))
                    for _ in range(2))
            for rule in RULES:
                eng = get_engine(lf, n, rule)
                for fn in (cocycle, comm_symbol, corrected_symbol):
                    yield (f"rank1/q{lf.q}/{k}/n{n}/{rule}/{fn.__name__}",
                           _cell(lambda: fn(x, y, eng).exp))
    rng = random.Random(7)
    for k in range(GL3_DRAWS):
        lf = local_field((3, 5, 7)[k % 3])
        eng = get_engine(lf, 2)
        a, b, c = (_random_matrix(lf, rng, 3) for _ in range(3))
        yield f"gl3/p{lf.p}/{k}", _cell(lambda: [cocycle_exp(*fg, eng) for fg in
                                                ((a, b @ c), (b, c), (a @ b, c), (a, b))])
    for p, f in SEQ_FIELDS:
        yield from _seq_cells(local_field(p, f), random.Random(1000 + 100 * p + f))


def _seq_cells(lf, rng):
    """The seq/ cells of one field."""
    orders = _orders(lf.q)
    k = 0
    while k < SEQ_DRAWS:
        m = rng.randint(1, 2)
        A = standard_lattice(lf, m)
        B = Lattice(A.mat @ _random_matrix(lf, rng, m, (0, 2), 0.9))
        C = Lattice(B.mat @ _random_matrix(lf, rng, m, (0, 1), 0.9))
        QXZ, QYZ, QXY = quotient_struct(A, C), quotient_struct(B, C), quotient_struct(A, B)
        if QXZ.module.size > lf.enum_bound or 1 in (QYZ.module.size, QXY.module.size):
            continue
        seq = (QYZ.module, QXZ.module, QXY.module, induced_hom(QYZ, QXZ), induced_hom(QXZ, QXY))
        n = orders[k % len(orders)]
        for rule in RULES:
            yield f"seq/q{lf.q}/{k}/n{n}/{rule}", _cell(lambda: _exact_seq_exp(*seq, n, rule))
        k += 1


def load():
    with open(PATH) as fh:
        return json.load(fh)


def write():
    lines = [f"  {json.dumps(key)}: {json.dumps(value)}" for key, value in cells()]
    with open(PATH, "w") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")


GROUPS = ("error -> value", "error -> error", "value -> error", "value -> value")


def _is_error(value):
    return isinstance(value, dict) and "error" in value


def moved(pinned, now):
    """The cells whose value differs between two ledgers, by group:
    {group: [(key, pinned value, value now)]}, every group present, in
    GROUPS order and ledger order within a group.  A cell in one ledger
    only is an error in the other: {"error": "missing"}."""
    out = {g: [] for g in GROUPS}
    missing = {"error": "missing"}
    for key in list(pinned) + [k for k in now if k not in pinned]:
        old, new = pinned.get(key, missing), now.get(key, missing)
        if old != new:
            group = (f"{'error' if _is_error(old) else 'value'} -> "
                     f"{'error' if _is_error(new) else 'value'}")
            out[group].append((key, old, new))
    return out


def diff():
    """Print the moved cells of cells() against ledger.json, group by group."""
    groups = moved(load(), dict(cells()))
    for group, cells_moved in groups.items():
        print(f"{group}: {len(cells_moved)}")
        for key, old, new in cells_moved:
            print(f"  {key}: {json.dumps(old)} -> {json.dumps(new)}")


if __name__ == "__main__":
    if sys.argv[1:] == ["--diff"]:
        diff()
    elif sys.argv[1:]:
        sys.exit("usage: ledger.py [--diff]")
    else:
        write()
