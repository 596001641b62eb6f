"""Lattices in K^m, their finite quotients, and determinant lines.

Smith normal form over the valuation ring turns a pair of nested
lattices into an explicit direct sum of O/pi^e pieces, with projection
and lift maps.  Determinant lines of those quotients, trivialized by
pinned orbit representatives, turn the canonical isomorphisms of the
theory into single exponents.
"""

from resforge import (KMat, Lattice, det_of_module_aut, exact_seq_iso,
                      lat_intersect, lat_sum, local_field, principal_lattice,
                      quotient_struct, rel_dim, scalar_hom, standard_lattice)
from resforge.lattices import induced_hom

lf = local_field(7)

# Two lattices in K^2 and their sum / intersection.
A = standard_lattice(lf, 2)
B = Lattice.from_rows(lf, [["7", 0], [0, "1/7"]])
S, I = lat_sum(A, B), lat_intersect(A, B)
print("A + B basis diagonal valuations:", [S.mat.entry_val(i, i) for i in (0, 1)])
print("A ^ B basis diagonal valuations:", [I.mat.entry_val(i, i) for i in (0, 1)])

# Quotient structure by Smith normal form: [[7,7],[0,7]] has invariants (7,7).
C = Lattice.from_rows(lf, [[7, 7], [0, 7]])
Q = quotient_struct(A, C)
print("A / C =", Q.module, "of size", Q.module.size)

# Projection and lift realize the isomorphism concretely.
x = KMat.from_rows(lf, [[10], [3]])
t = Q.proj(x)
print("class of (10, 3):", t, " lift-project roundtrip:", Q.proj(Q.lift(t)) == t)

# Relative dimension counts mu_n orbits on both sides of a lattice pair.
O1 = standard_lattice(lf, 1)
print("[O | 7O] for n = 2:", rel_dim(O1, principal_lattice(lf, 1), 2))
print("[7O | O] for n = 2:", rel_dim(principal_lattice(lf, 1), O1, 2))

# Determinants act on determinant lines; exact sequences multiply them.
# Each scalar is read off its maps: incl : X -> Y and proj : Y -> Z name
# the three modules, and an automorphism names the module it acts on.
QX = quotient_struct(principal_lattice(lf, 1), principal_lattice(lf, 2))
QY = quotient_struct(O1, principal_lattice(lf, 2))
QZ = quotient_struct(O1, principal_lattice(lf, 1))
incl = induced_hom(QX, QY)
proj = induced_hom(QY, QZ)
c = exact_seq_iso(incl, proj, 2)
print("\n0 -> 7O/49O -> O/49O -> O/7O -> 0 contracts with scalar", c)

for u in (2, 3):
    dX = det_of_module_aut(scalar_hom(QX.module, u), 2)
    dY = det_of_module_aut(scalar_hom(QY.module, u), 2)
    dZ = det_of_module_aut(scalar_hom(QZ.module, u), 2)
    print(f"mult-by-{u}: det on sub * det on quotient = det on middle?",
          (dX * dZ) == dY)
