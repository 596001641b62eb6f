"""Pointed mu_n-sets and the orbit determinant.

An automorphism of a finite free pointed mu_n-set permutes the orbits
and twists each one by a root of unity; the product of the twists is a
homomorphism to mu_n (the "determinant").  Multiplication by a on the
residue field is the motivating example: its determinant recovers the
power residue character, which is Gauss's lemma in disguise.
"""

from resforge import (FiniteModule, MuSet, MuSetAut, aut_abelianize,
                      aut_compose, aut_delta, aut_extend, local_field,
                      module_as_muset, module_aut_as_musetaut,
                      muset_product, perm_sign, power_residue_char,
                      scalar_hom)

# An abstract mu_3-set with two orbits: elements are zeta^e * x_i.
X = MuSet(3, 2)
f = MuSetAut(X, sigma=(1, 0), mu=(1, 2))   # x_0 -> zeta x_1, x_1 -> zeta^2 x_0
print("delta(f) =", aut_delta(f), "   abelianization:", aut_abelianize(f))

g = MuSetAut(X, sigma=(0, 1), mu=(2, 0))
print("delta is multiplicative:", aut_delta(aut_compose(f, g)) == aut_delta(f) * aut_delta(g))

# Products: extending f by the identity on another set keeps the determinant.
Y = MuSet(3, 4)
print("orbits of X x Y:", muset_product(X, Y).t, "(= 2 + 4 + 3*2*4)")
print("delta(f x Id) =", aut_delta(aut_extend(f, Y)))

# For n = 2 the determinant is literally the permutation sign.
X2 = MuSet(2, 5)
h = MuSetAut(X2, sigma=(2, 0, 1, 4, 3), mu=(1, 0, 1, 1, 0))
print("n = 2: perm sign", perm_sign(h), " vs delta", aut_delta(h))

# Multiplication by a on k = F_7, viewed as a mu_2-set with 3 orbits; the
# map names its module, so module_aut_as_musetaut takes the map alone:
lf = local_field(7)
k_mod = FiniteModule(lf, (1,))
print("\nF_7 as a mu_2-set has", module_as_muset(k_mod, 2).t, "orbits")
for a in range(1, 7):
    m_a = module_aut_as_musetaut(scalar_hom(k_mod, a), 2)
    chi = power_residue_char(lf.field, a, 2)
    print(f"a = {a}: delta(m_a) = zeta^{aut_delta(m_a).exp}, "
          f"Euler gives zeta^{chi.exp}")

# The same comparison through a Galois ring: F_25 with n = 12.
lf25 = local_field(5, 2)
k25 = FiniteModule(lf25, (1,))
ok = all(
    aut_delta(module_aut_as_musetaut(
        scalar_hom(k25, a, from_ring=lf25.ring(1)), 12)).exp
    == power_residue_char(lf25.field, a, 12).exp
    for a in range(1, 25))
print("exhaustive agreement on F_25, n = 12:", ok)
