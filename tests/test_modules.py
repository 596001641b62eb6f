import random

import pytest

from resforge.errors import EnumerationBound
from resforge.modules import FiniteModule, ModuleHom
from resforge.padic import LocalField, local_field


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
