"""The n-th power residue symbol by three independent routes.

direct     the tame-symbol formula followed by the (q-1)/n power map
muset      the character evaluated as an orbit determinant
extension  commutators of lifts in a central extension of K^x by mu_n,
           with the relative-dimension sign correction

The three constructions share no code path beyond basic arithmetic, so
their agreement is a strong consistency check of the whole theory.
"""

from resforge import (MuScalar, cocycle, comm_symbol, crosscheck, get_engine,
                      local_field, steinberg_check)
from resforge.symbols import symbol_value_str

lf = local_field(7)
eng = get_engine(lf, 2)

# The classic example: (7, 7)_2 = -1 over Q_7.
rep = crosscheck(lf, lf.parse("7"), lf.parse("7"), 2)
print("(7,7)_2:", rep.to_json())

# The raw commutator symbol misses exactly that sign: {pi, pi} = 1.
print("{7,7} =", comm_symbol("7", "7", eng), "  but <7,7> accounts for the",
      "relative dimension [O|7O] =", 3)

# The cocycle itself is visible: c(f, g) trivializes against base points.
print("c(3, 7) =", cocycle("3", "7", eng),
      "   c(7, 3) =", cocycle("7", "3", eng))
print("{3, 7} = difference =", comm_symbol("3", "7", eng))

# A sweep over Q_13 with n = 3, all three routes in agreement:
lf13 = local_field(13)
print("\n(a, b)_3 over Q_13 for a = 2, 13, 2*13 and b likewise:")
for sa in ("2", "13", "26"):
    row = []
    for sb in ("2", "13", "26"):
        r = crosscheck(lf13, lf13.parse(sa), lf13.parse(sb), 3)
        assert r.agree
        row.append(f"zeta^{r.direct}")
    print(f"  a = {sa:>2}: ", "  ".join(row))

# Steinberg relation: (a, 1-a)_n = 1 whenever both sides are defined.
print("\nSteinberg checks over Q_7:",
      all(steinberg_check(lf, lf.parse(s), 2)
          for s in ("-1", "3", "7", "1/7", "pi^2*5")))

# The unramified quadratic extension of Q_3 (residue field F_9), n = 8:
lf9 = local_field(3, 2)
r = crosscheck(lf9, lf9.parse("pi^1*[1,1]"), lf9.parse("[2,1]"), 8)
print("\nover Q_9:", r.to_json())
print("value in F_9:", symbol_value_str(lf9, MuScalar(8, r.direct)))
