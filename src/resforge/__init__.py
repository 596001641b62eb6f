"""Power residue symbols over unramified p-adic fields.

The same symbol is computed by three independent routes (direct formula,
orbit determinants of pointed mu_n-sets, commutators in a central
extension of GL_1(K)) and cross-verified; the library exposes each layer
of the construction.
"""

from .errors import EnumerationBound, PrecisionError
from .extension import (SymbolEngine, cocycle, comm_symbol, corrected_symbol,
                        get_engine)
from .fields import (FieldCtx, MuScalar, field_make, mu_dlog, mu_embed,
                     power_residue_char, zolotarev_sign)
from .lattices import (KMat, Lattice, LatticeQuotient, lat_apply,
                       lat_contains_lattice, lat_intersect, lat_sum,
                       principal_lattice, quotient_struct, rel_dim,
                       standard_lattice)
from .modules import (FiniteModule, ModuleHom, module_as_muset,
                      module_aut_as_musetaut, scalar_hom)
from .musets import (MuSet, MuSetAut, OrbitView, aut_abelianize, aut_compose,
                     aut_delta, aut_extend, aut_to_permutation, muset_product,
                     perm_sign)
from .padic import KElem, LocalField, k_add, k_one_minus, k_sub, local_field
from .rings import RingCtx, ring_make
from .symbols import (SymbolReport, crosscheck, delta_route_symbol,
                      power_residue_symbol, steinberg_check, tame_symbol)
from .torsor import det_of_module_aut, exact_seq_iso
from .verify import run_suite

__version__ = "0.1.0"
