"""Full-rank O-lattices in K^m and their finite quotients.

Matrices over K are stored as pi^shift times an integral matrix whose
entries live in O/pi^prec; prec counts the pi-digits that are actually
known.  Reductions never happen silently: any pivot or determinant whose
valuation cannot be separated from the known digits raises
PrecisionError instead of guessing.

Each precision rule has one home.  _pivot picks the pivot for both
normal forms: least valuation below the known digits, first in row-major
order, PrecisionError when none is separated from them.  _clear_row
clears a pivot row by column operations and drops what vanishes, for
both.  KMat._det separates a determinant from zero for det_val and
inverse.  KMat._aligned takes two matrices to their common precision and
least shift for __eq__ and hstack.  KMat.with_shift spends k digits to
raise a shift by k and refuses an entry it cannot divide.  A quotient
decides integrality once, by KMat.is_integral.  canonical_hnf and
smith_normal_form truncate their results, by _at_prec, to the digits
their pivots left.

A Lattice always normalizes its basis to the canonical column Hermite
form (lower triangular, diagonal pi^e, entries to the left of a pivot
reduced mod that pivot).  This makes every downstream construction a
function of the lattice as a subset of K^m, not of the basis that
happened to produce it: quotient presentations, and with them the pinned
base points of determinant lines, are reproducible.

Smith normal form over O uses the minimal-valuation pivot, ties broken
by row then column, and yields its left transform U with U^-1.  A
quotient A/B keeps P = A U^-1, whose columns lift its generators, and
P^-1 = U A^-1 from the basis inverse the lattice computes once; each is
built on first use, since many quotients read only one of them.  The map
induced on quotients is the one product P'^-1 f P, read mod exponents.
A trivial quotient (B = A, seen from the pivots of the two canonical
bases once B is known to lie in A) is the zero module: it runs no SNF,
builds neither P nor P^-1 (it is presented by A's own basis), and a map
induced from or to it is the empty or the zero map, with no product.
Lattice.__eq__ decides equality by the same rule: equal det_val first,
then one containment product.  lat_intersect uses nesting the same way:
of nested lattices the larger has the smaller det_val, so one
containment product in that direction decides whether the intersection
is the other operand, which is then returned itself; only a proper pair
builds the dual of the sum of the duals.
"""

from __future__ import annotations

from .errors import PrecisionError
from .modules import FiniteModule, ModuleHom
from .padic import KElem, LocalField
from .rings import _det_rows


class KMat:
    """pi^shift times an integral matrix with entries in O/pi^prec.

    ring is O/pi^prec, the context of the entries, kept from construction.
    """

    __slots__ = ("lf", "nrows", "ncols", "shift", "prec", "ring", "data")

    def __init__(self, lf: LocalField, data, shift: int = 0, prec: int | None = None):
        data = [list(row) for row in data]
        if data and any(len(r) != len(data[0]) for r in data):
            raise ValueError("ragged matrix")
        self.lf, self.data, self.shift, self.prec = lf, data, shift, lf.precision(prec)
        self.ring = lf.ring(self.prec)
        self.nrows, self.ncols = len(data), len(data[0]) if data else 0

    @classmethod
    def _of(cls, lf: LocalField, data, shift: int, ring) -> "KMat":
        """Over fresh rectangular rows built in this module, encoded in
        ring = lf.ring(prec): no copy, no check."""
        M = cls.__new__(cls)
        M.lf, M.data, M.shift, M.prec, M.ring = lf, data, shift, ring.N, ring
        M.nrows, M.ncols = len(data), len(data[0]) if data else 0
        return M

    # construction ---------------------------------------------------------

    @classmethod
    def from_rows(cls, lf: LocalField, rows, prec: int | None = None) -> "KMat":
        """Entries may be 0, ints, Fractions, strings, or KElem."""
        prec = lf.precision(prec)
        elems = [[None if _is_zero_spec(x) else lf.as_kelem(x, prec) for x in row]
                 for row in rows]
        vals = [e.val for row in elems for e in row if e is not None]
        shift = min(vals, default=0)
        ring = lf.ring(prec)
        data = []
        for row in elems:
            out = []
            for e in row:
                if e is None:
                    out.append(0)
                else:
                    u = lf.ring(e.prec).lift_naive(e.unit, ring)
                    out.append(ring.mul_pk(u, e.val - shift))
            data.append(out)
        return cls(lf, data, shift, prec)

    @classmethod
    def identity(cls, lf: LocalField, m: int, prec: int | None = None) -> "KMat":
        return cls(lf, [[1 if i == j else 0 for j in range(m)] for i in range(m)],
                   0, prec)

    def __repr__(self):
        return (f"KMat({self.nrows}x{self.ncols}, shift={self.shift}, "
                f"prec={self.prec})")

    # basic operations -------------------------------------------------------

    def _at_prec(self, prec: int) -> "KMat":
        if prec == self.prec:
            return self
        if prec > self.prec:
            raise PrecisionError("cannot raise matrix precision")
        src, dst = self.ring, self.lf.ring(prec)
        data = [[src.reduce_to(x, dst) for x in row] for row in self.data]
        return KMat._of(self.lf, data, self.shift, dst)

    def __matmul__(self, other: "KMat") -> "KMat":
        if self.lf is not other.lf:
            raise ValueError("matrices of different fields")
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        ring = self.ring if self.prec <= other.prec else other.ring
        data = ring.matmul(self.data, self.ring, other.data, other.ring)
        return KMat._of(self.lf, data, self.shift + other.shift, ring)

    def scale_pi(self, k: int) -> "KMat":
        return KMat._of(self.lf, self.data, self.shift + k, self.ring)

    def with_shift(self, shift: int) -> "KMat":
        """Re-express with a different shift.

        Lowering multiplies entries by pi-powers; raising divides them
        exactly (ValueError for an entry without enough valuation) and
        costs the same number of known digits.
        """
        if shift == self.shift:
            return self
        ring = self.ring
        if shift < self.shift:
            k = self.shift - shift
            data = [[ring.mul_pk(x, k) for x in row] for row in self.data]
            return KMat._of(self.lf, data, shift, ring)
        k = shift - self.shift
        if k >= self.prec - 1:
            raise PrecisionError("cannot raise the shift that far")
        red = self.lf.ring(self.prec - k)
        data = [[ring.reduce_to(ring.div_pk(x, k), red) for x in row] for row in self.data]
        return KMat._of(self.lf, data, shift, red)

    def _aligned(self, other: "KMat") -> tuple["KMat", "KMat"]:
        """Both matrices at their common precision and their least shift."""
        prec, s = min(self.prec, other.prec), min(self.shift, other.shift)
        return self._at_prec(prec).with_shift(s), other._at_prec(prec).with_shift(s)

    def hstack(self, other: "KMat") -> "KMat":
        if self.nrows != other.nrows:
            raise ValueError("row mismatch")
        A, B = self._aligned(other)
        return KMat._of(self.lf, [ra + rb for ra, rb in zip(A.data, B.data)], A.shift, A.ring)

    def transpose(self) -> "KMat":
        data = [[self.data[i][j] for i in range(self.nrows)] for j in range(self.ncols)]
        return KMat._of(self.lf, data, self.shift, self.ring)

    def entry_val(self, i: int, j: int) -> int | None:
        """Valuation of an entry, or None when it vanishes at this precision."""
        v = self.ring.val(self.data[i][j])
        return None if v >= self.prec else self.shift + v

    def is_integral(self) -> bool:
        if self.shift >= 0:
            return True
        need = -self.shift
        ring = self.ring
        if need >= self.prec:
            raise PrecisionError("cannot decide integrality at this precision")
        return all(ring.val(x) >= need for row in self.data for x in row)

    def entry_residue(self, i: int, j: int, e: int) -> int:
        """The entry mod pi^e, encoded in lf.ring(e); entry must be integral."""
        ring_e = self.lf.ring(e)
        x = self.data[i][j]
        if self.shift >= e:
            return 0
        if self.shift >= 0:
            if self.prec < e - self.shift:
                raise PrecisionError("not enough digits for the residue")
            return ring_e.mul_pk(self.ring.lift_naive(x, ring_e), self.shift)
        need = -self.shift
        v = self.ring.val(x)
        if v < need:
            if v >= self.prec:
                raise PrecisionError("cannot decide integrality at this precision")
            raise ValueError("entry is not integral")
        if self.prec - need < e:
            raise PrecisionError("not enough digits for the residue")
        return self.ring.lift_naive(self.ring.div_pk(x, need), ring_e)

    def entry_kelem(self, i: int, j: int) -> KElem | None:
        x = self.data[i][j]
        v = self.ring.val(x)
        if v >= self.prec:
            return None
        u = self.ring.reduce_to(self.ring.div_pk(x, v), self.lf.ring(self.prec - v))
        return KElem(self.lf, self.shift + v, u, self.prec - v)

    def __eq__(self, other):
        if not isinstance(other, KMat):
            return NotImplemented
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            return False
        A, B = self._aligned(other)
        avail = A.prec - (max(self.shift, other.shift) - A.shift)
        ring = A.ring
        red = self.lf.ring(max(1, avail))
        return all(ring.reduce_to(A.data[i][j], red) == ring.reduce_to(B.data[i][j], red)
                   for i in range(A.nrows) for j in range(A.ncols))

    # determinant and inverse -------------------------------------------------

    def _det(self) -> tuple[int, int]:
        """The determinant of the integral part and its valuation v, which
        must be separated from the known digits."""
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        d = _det_rows(self.ring, self.data)
        v = self.ring.val(d)
        if v >= self.prec - 1:
            raise PrecisionError("determinant vanishes at this precision")
        return d, v

    def det_val(self) -> int:
        return self.nrows * self.shift + self._det()[1]

    def _adjugate(self):
        m = self.nrows
        if m == 1:
            return [[1]]
        ring, data = self.ring, self.data
        adj = [[0] * m for _ in range(m)]
        for i in range(m):
            rows = data[:i] + data[i + 1:]
            for j in range(m):
                d = _det_rows(ring, [r[:j] + r[j + 1:] for r in rows])
                adj[j][i] = ring.neg(d) if (i + j) % 2 else d
        return adj

    def inverse(self) -> "KMat":
        d, v = self._det()
        ring = self.ring
        newprec = self.prec - v
        ring2 = self.lf.ring(newprec)
        uinv = ring2.inv(ring.reduce_to(ring.div_pk(d, v), ring2))
        adj = self._adjugate()
        data = [[ring2.mul(ring.reduce_to(x, ring2), uinv) for x in row] for row in adj]
        return KMat._of(self.lf, data, -self.shift - v, ring2)

    # normal forms -------------------------------------------------------------

    def canonical_hnf(self) -> "KMat":
        """Canonical lower-triangular column form of a rank-m column span.

        Pivot: minimal-valuation entry in the working row, leftmost on
        ties; pivots are normalized to pi^e and entries left of a pivot
        are reduced mod the pivot of their row.
        """
        m, c = self.nrows, self.ncols
        if c < m:
            raise ValueError("not enough columns for full rank")
        ring = self.ring
        D = [row[:] for row in self.data]
        cur = self.prec
        for r in range(m):
            best, _, bj = _pivot(ring, D, (r,), range(r, c), cur)
            if bj != r:
                for i in range(m):
                    D[i][r], D[i][bj] = D[i][bj], D[i][r]
            uinv = ring.inv(ring.div_pk(D[r][r], best))
            _clear_row(ring, D, r, best, uinv, cur)
            # normalize the pivot column so the pivot becomes pi^best
            for i in range(r, m):
                D[i][r] = ring.mul(D[i][r], uinv)
            cur -= best
        # drop the spent columns; they are 0 to the working precision
        T = [row[:m] for row in D]
        # reduce entries left of each pivot modulo that pivot
        for r in range(m):
            e = ring.val(T[r][r])
            ring_e = self.lf.ring(e) if e > 0 else None
            for j in range(r):
                x = T[r][j]
                if x == 0:
                    continue
                rem = ring_e.lift_naive(ring.reduce_to(x, ring_e), ring) if e > 0 else 0
                fac = ring.div_pk(ring.sub(x, rem), e)
                for i in range(r, m):
                    T[i][j] = ring.sub(T[i][j], ring.mul(fac, T[i][r]))
        if cur < 2:
            raise PrecisionError("precision exhausted during column reduction")
        # T is encoded at self.prec; at f > 1 the encoding depends on the precision
        return KMat._of(self.lf, T, self.shift, ring)._at_prec(cur)


def _is_zero_spec(x) -> bool:
    return x == 0 and not isinstance(x, KElem)


def _pivot(ring, D, rows, cols, cur: int) -> tuple[int, int, int]:
    """(v, i, j) for the entry D[i][j] of least valuation v < cur over
    rows x cols, first in row-major order; its valuation must be
    separated from the cur known digits."""
    best = None
    for i in rows:
        for j in cols:
            v = ring.val(D[i][j])
            if v < cur and (best is None or v < best[0]):
                best = (v, i, j)
    if best is None:
        raise PrecisionError("no usable pivot (precision exhausted or rank deficient)")
    if best[0] >= cur - 1:
        raise PrecisionError("pivot valuation is ambiguous at this precision")
    return best


def _clear_row(ring, D, k: int, e: int, uinv: int, cur: int) -> None:
    """Clear row k right of its pivot D[k][k] = u pi^e, uinv = u^-1, by
    column operations on rows k and below; what vanishes at the cur known
    digits is dropped."""
    row = D[k]
    for j in range(k + 1, len(row)):
        x = row[j]
        if ring.val(x) < cur:
            fac = ring.mul(ring.div_pk(x, e), uinv)
            for i in range(k, len(D)):
                D[i][j] = ring.sub(D[i][j], ring.mul(fac, D[i][k]))
        row[j] = 0


def smith_normal_form(M: KMat):
    """SNF of an integral square matrix: exponents and the left transform.

    Returns (exps, U, Uinv) with U M W = diag(units * pi^exps) for
    unimodular U, W and Uinv = U^(-1); exps come out ascending.  Each row
    operation on M is applied to the rows of U and, undone, to the columns
    of Uinv, so neither is inverted; W never enters quotient data.  A
    non-integral M fails in with_shift(0).
    """
    M = M.with_shift(0)
    m = M.nrows
    if m != M.ncols:
        raise ValueError("SNF of a non-square matrix")
    ring = M.ring
    D = [row[:] for row in M.data]
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)]     # by rows
    Ui = [[1 if i == j else 0 for j in range(m)] for i in range(m)]    # Uinv, by columns
    cur = M.prec
    exps = []
    for k in range(m):
        e, bi, bj = _pivot(ring, D, range(k, m), range(k, m), cur)
        if bi != k:   # row swap on U; col swap on Uinv
            D[k], D[bi] = D[bi], D[k]
            U[k], U[bi] = U[bi], U[k]
            for r in range(m):
                Ui[r][k], Ui[r][bi] = Ui[r][bi], Ui[r][k]
        if bj != k:   # column swap; unrecorded
            for r in range(m):
                D[r][k], D[r][bj] = D[r][bj], D[r][k]
        piv_inv = ring.inv(ring.div_pk(D[k][k], e))
        # clear column k below the pivot
        for i in range(k + 1, m):
            x = D[i][k]
            if ring.val(x) < cur:
                fac = ring.mul(ring.div_pk(x, e), piv_inv)
                for j in range(k, m):
                    D[i][j] = ring.sub(D[i][j], ring.mul(fac, D[k][j]))
                for r in range(m):  # U row_i -= fac * row_k; Uinv col_k += fac * col_i
                    U[i][r] = ring.sub(U[i][r], ring.mul(fac, U[k][r]))
                    Ui[r][k] = ring.add(Ui[r][k], ring.mul(fac, Ui[r][i]))
            D[i][k] = 0
        _clear_row(ring, D, k, e, piv_inv, cur)
        exps.append(e)
        cur -= e
        if cur < 2:
            raise PrecisionError("precision exhausted during SNF")
    U, Ui = (KMat._of(M.lf, T, 0, ring)._at_prec(cur) for T in (U, Ui))  # as in canonical_hnf
    return exps, U, Ui


# ---------------------------------------------------------------------------
# lattices


class Lattice:
    """A full-rank O-lattice in K^m, held by its canonical basis."""

    __slots__ = ("lf", "m", "mat", "det_val", "_inv")

    def __init__(self, mat: KMat):
        if mat.ncols < mat.nrows:
            raise ValueError("not enough generators for a full-rank lattice")
        self.lf = mat.lf
        self.m = mat.nrows
        hnf = mat.canonical_hnf()
        # Canonical entries are exact (pi-power pivots, residues reduced mod
        # the row pivot), so the working precision spent on reduction can be
        # restored; chained constructions then never compound precision loss.
        # The target leaves room for a follow-up inverse plus one more column
        # reduction, both of which cost about the determinant valuation.
        piv = sum(hnf.ring.val(hnf.data[i][i]) for i in range(self.m))
        target = max(mat.prec, mat.lf.default_precision,
                     6 * (piv + self.m * abs(hnf.shift)) + 12)
        ring_to = mat.lf.ring(target)
        data = [[hnf.ring.lift_naive(x, ring_to) for x in row] for row in hnf.data]
        self.mat = KMat._of(mat.lf, data, hnf.shift, ring_to)
        self.det_val = piv + self.m * hnf.shift   # of the basis: its pivots are pi-powers
        self._inv = None

    @property
    def inv(self) -> KMat:
        """The inverse of the basis matrix, computed once."""
        if self._inv is None:
            self._inv = self.mat.inverse()
        return self._inv

    @classmethod
    def from_rows(cls, lf: LocalField, rows, prec: int | None = None) -> "Lattice":
        return cls(KMat.from_rows(lf, rows, prec))

    def __repr__(self):
        return f"Lattice(m={self.m}, shift={self.mat.shift})"

    def __eq__(self, other):
        if not isinstance(other, Lattice):
            return NotImplemented
        return self.det_val == other.det_val and lat_contains_lattice(self, other)


def standard_lattice(lf: LocalField, m: int, prec: int | None = None) -> Lattice:
    return Lattice(KMat.identity(lf, m, prec))


def principal_lattice(lf: LocalField, v: int, prec: int | None = None) -> Lattice:
    """pi^v O inside K^1."""
    return Lattice(KMat.identity(lf, 1, prec).scale_pi(v))


def lat_apply(f: KMat, A: Lattice) -> Lattice:
    return Lattice(f @ A.mat)


def lat_sum(A: Lattice, B: Lattice) -> Lattice:
    if A.m != B.m:
        raise ValueError("different ambient spaces")
    return Lattice(A.mat.hstack(B.mat))


def _dual_mat(A: Lattice) -> KMat:
    return A.inv.transpose()


def lat_intersect(A: Lattice, B: Lattice) -> Lattice:
    # of nested lattices the larger has the smaller det_val
    big, small = (A, B) if A.det_val <= B.det_val else (B, A)
    if lat_contains_lattice(big, small):
        return small
    # (A cap B)* = A* + B*
    dual_sum = Lattice(_dual_mat(A).hstack(_dual_mat(B)))
    return Lattice(_dual_mat(dual_sum))


def lat_contains_lattice(A: Lattice, B: Lattice) -> bool:
    return (A.inv @ B.mat).is_integral()


class LatticeQuotient:
    """A/B presented as a FiniteModule plus projection and lift maps."""

    __slots__ = ("A", "B", "module", "_exps", "_idx", "_U", "_Uinv", "_lift", "_proj")

    def __init__(self, A: Lattice, B: Lattice):
        trans = A.inv @ B.mat
        if not trans.is_integral():
            raise ValueError("B is not contained in A")
        self.A, self.B = A, B
        if B.det_val == A.det_val:
            # B = A: the zero module, presented by A's own basis
            exps, self._lift, self._proj = [0] * A.m, A.mat, A.inv
        else:
            exps, self._U, self._Uinv = smith_normal_form(trans)
            self._lift = self._proj = None
        self._exps = exps
        self._idx = [k for k, e in enumerate(exps) if e > 0]
        self.module = FiniteModule(A.lf, [exps[k] for k in self._idx])

    @property
    def _P(self) -> KMat:
        """A U^-1: its columns lift the generators."""
        if self._lift is None:
            self._lift = self.A.mat @ self._Uinv
        return self._lift

    @property
    def _Pinv(self) -> KMat:
        """U A^-1 = (A U^-1)^-1, with no inverse of its own."""
        if self._proj is None:
            self._proj = self._U @ self.A.inv
        return self._proj

    def _classes(self, X: KMat, cols) -> list[tuple]:
        """Classes in the abstract module of the columns cols of X, vectors of A."""
        if not self._idx:
            return [()] * len(cols)
        Y = self._Pinv @ X
        return [tuple(Y.entry_residue(j, k, self._exps[j]) for j in self._idx) for k in cols]

    def proj(self, x: KMat) -> tuple:
        """Class of a vector of A in the abstract module."""
        return self._classes(x, (0,))[0]

    def lift(self, t: tuple) -> KMat:
        """A vector of A representing the class t."""
        lf = self.A.lf
        m = self.A.m
        prec = self._P.prec
        ring = lf.ring(prec)
        col = [[0] for _ in range(m)]
        for pos, k in enumerate(self._idx):
            c = t[pos]
            if c:
                col[k][0] = lf.ring(self._exps[k]).lift_naive(c, ring)
        return self._P @ KMat._of(lf, col, 0, ring)


def quotient_struct(A: Lattice, B: Lattice) -> LatticeQuotient:
    """Structure of A/B for B contained in A (checked)."""
    return LatticeQuotient(A, B)


def induced_hom(srcQ: LatticeQuotient, dstQ: LatticeQuotient,
                f: KMat | None = None) -> ModuleHom:
    """The map of abstract quotients obtained by lift, optionally f, project:
    column k of dstQ._Pinv @ f @ srcQ._P is f(lift(generator k)) in dstQ.
    From or to the zero module it is the empty or the zero map."""
    if not (srcQ._idx and dstQ._idx):
        return ModuleHom(srcQ.module, dstQ.module, [()] * len(srcQ._idx))
    cols = dstQ._classes(srcQ._P if f is None else f @ srcQ._P, srcQ._idx)
    return ModuleHom(srcQ.module, dstQ.module, cols)


def rel_dim(A: Lattice, B: Lattice, n: int) -> int:
    """dim(A / A cap B) - dim(B / A cap B), as an exact integer."""
    I = lat_intersect(A, B)
    d1 = sum(quotient_struct(A, I).module.exps)
    d2 = sum(quotient_struct(B, I).module.exps)
    q = A.lf.q
    return (q**d1 - 1) // n - (q**d2 - 1) // n
