"""Label-level helpers the tests use as oracles; the package works on
positions only.

A FiniteModule's elements are tuples of ring encodings, and position i
is the i-th element in mixed-radix order, the first component most
significant: elements lists them in that order, index gives the
position of a label and label the label at a position.
"""

from itertools import product

from resforge.lattices import KMat


def zero(M) -> tuple:
    return (0,) * M.rank


def elements(M):
    M._check_bound()
    return product(*(range(r.size) for r in M.rings))


def index(M, x: tuple) -> int:
    """Position of x: mixed radix, first component most significant."""
    i = 0
    for s, c in zip(M.radix, x):
        i = i * s + c
    return i


def label(M, i: int) -> tuple:
    """The element at position i; inverse of index."""
    out = []
    for s in reversed(M.radix):
        i, c = divmod(i, s)
        out.append(c)
    return tuple(reversed(out))


def kmat_identity(lf, m: int, prec: int | None = None) -> KMat:
    return KMat(lf, [[1 if i == j else 0 for j in range(m)] for i in range(m)], 0, prec)
