"""Full-rank O-lattices in K^m and their finite quotients, held exactly.

A KMat, the input type, is pi^shift times an integral matrix with
entries in O/pi^prec, prec counting the pi-digits that are known.  A
Lattice is exact data: its canonical column Hermite form, lower
triangular over its least valuation (the shift), with pivots exactly
pi^e_r and each entry left of a pivot reduced mod that pivot
(coefficients in [0, p^e_r)).  The form is a function of the lattice, so
quotient presentations, and with them the pinned base points of
determinant lines, are reproducible, and equal lattices have equal data.

The window.  L = pi^lo T O^m lies between pi^hi V and pi^lo V, V = O^m,
for hi = lo + sum e_r: T is integral and det T = pi^(hi - lo) kills
V / T V.  So hi comes from det_val, not from an inverse, and the
lattices in one window are the submodules of pi^lo V / pi^hi V =
(O/pi^N)^m, N = hi - lo.  Every operation runs over O/pi^N for its
operands' window, and nothing is truncated; both operands must lie in
one K^m of one field (_check_pair).  A sum is the Hermite form
of both bases.  An intersection is the lower right block of the Hermite
form of [[A, B], [A, 0]]: its columns (a + b, a) with a + b = 0 are the
(0, a) for a in A cap B.  A/B solves B's basis in A's triangular basis
(_solve; a division by a pivot is exact exactly when B lies in A) and
runs the Smith form of A^-1 B.  This is Hermite form modulo the
determinant (Domich, Kannan & Trotter, Math. Oper. Res. 12, 1987;
Cohen, GTM 138, 2.4.2): _hnf takes pi^N V along with its generators,
since clearing pi^N e_r by row r's pivot u pi^v leaves pi^(N-v) u^-1
times the pivot column for the rows below (Howell's saturation).

The one precision check is where a KMat X known up to pi^k enters:
Lattice(X), and so lat_apply, through KMat.canonical_hnf.  The Hermite
form of X's columns with pi^k V must be narrower than X's digits; then
it contains pi^(k-1) V, and by Nakayama every X' that agrees with X up
to pi^k spans the same lattice.  For a square X this is
k > -minval(X^-1), with the determinant's bound on the right.  A KMat
that meets a quotient (induced_hom's f, proj's vector) must be known to
pi^hi of its sublattice, where its class is decided.  A matrix that
meets a lattice in K^m, in lat_apply or induced_hom, must be m x m
(_check_shape).  Inside the layer nothing raises PrecisionError.

_hnf and smith_normal_form share one pivot rule (_pivot): least
valuation, first in row-major order.  The Hermite form does not depend
on it; the Smith form's transforms do, and on exact data they agree for
every N that separates the pivots.  A/B runs it mod pi^(E + L + 1), for
pi^E A <= B and L the length of A/B: the matrix keeps its digits, and
the transforms, which spend L, keep E + 1, enough for every class.  The
quotient keeps U's rows, which read classes, and A U^-1's columns, which
lift generators; an induced map is lift, optionally f, then classes.
B = A is the zero module, with no Smith form, and lat_intersect returns
the smaller of two nested lattices itself.

_hnf may pivot only its leading rows and carry the rows below through
the same column operations.  torsor's exact-sequence section carries an
identity below a map's rows and reads its lifts there, so the package
has one Hermite kernel.

One object per lattice: every Lattice is built by _lattice, Lattice(mat)
included, which returns the field's live lattice with the same shift and
rows when there is one and otherwise registers the new one in
lf._lattices.  That table is weak: a lattice lives while a caller or a
memo holds it.  So f(gV) and (fg)V are one object, and a Lattice
compares and hashes by identity.  quotient_struct keeps each A/B in
lf._quotients.  lat_intersect looks its pair up in lf._intersections,
in both orders, before any containment test, and keeps each unordered
pair once, a nested pair as its smaller operand.  lat_apply keeps f(A) in
lf._images, keyed by A and f's known data (_kmat_key: shift, prec and
rows); prec is part of the key, since the same digits known to another
precision can raise PrecisionError.  A memo holds at most MEMO_CAP
entries and is emptied when a new one would pass that; a call that
raises stores nothing.
"""

from __future__ import annotations

from .errors import PrecisionError
from .modules import FiniteModule, ModuleHom
from .padic import KElem, LocalField
from .rings import _check_n, _det_rows

# entries a lattice-keyed memo holds before it is emptied
MEMO_CAP = 1024


def _memo_put(memo: dict, key, value) -> None:
    """memo[key] = value, emptying the memo first when it is full."""
    if len(memo) >= MEMO_CAP:
        memo.clear()
    memo[key] = value


def _moved(rows, src, dst, k: int = 0) -> list[list[int]]:
    """pi^k times rows of encodings in src, encoded in dst; a negative k
    divides exactly."""
    if k < 0:
        rows = [[src.div_pk(x, -k) for x in row] for row in rows]
        k = 0
    if dst.f == 1:   # an f = 1 encoding is its representative at every precision
        c, pN = dst.p**k, dst.pN
        return [[x * c % pN for x in row] for row in rows]
    return [[dst.mul_pk(src.lift_naive(x, dst), k) for x in row] for row in rows]


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

    def __reduce__(self):
        """Copy and pickle rebuild it through the constructor, on its
        field's own ring."""
        return KMat, (self.lf, self.data, self.shift, self.prec)

    # basic operations -------------------------------------------------------

    def __matmul__(self, other: "KMat") -> "KMat":
        if self.lf is not other.lf:
            raise ValueError("matrices of different fields")
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        ring = self.ring if self.prec <= other.prec else other.ring
        data = ring.matmul(self.data, self.ring, other.data, other.ring)
        return KMat._of(self.lf, data, self.shift + other.shift, ring)

    def entry_val(self, i: int, j: int) -> int | None:
        """Valuation of an entry, or None when it vanishes at this precision."""
        v = self.ring.val(self.data[i][j])
        return None if v >= self.prec else self.shift + v

    def entry_kelem(self, i: int, j: int) -> KElem | None:
        x = self.data[i][j]
        v = self.ring.val(x)
        if v >= self.prec:
            return None
        u = self.ring.reduce_to(self.ring.div_pk(x, v), self.lf.ring(self.prec - v))
        return KElem(self.lf, self.shift + v, u, self.prec - v)

    def __eq__(self, other):
        """Equal up to the digits both know: below pi^min(shift + prec)."""
        if not isinstance(other, KMat):
            return NotImplemented
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            return False
        s = min(self.shift, other.shift)
        ring = self.lf.ring(max(1, min(self.shift + self.prec, other.shift + other.prec) - s))
        return (_moved(self.data, self.ring, ring, self.shift - s)
                == _moved(other.data, other.ring, ring, other.shift - s))

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

    # the Hermite form at the boundary ------------------------------------------

    def canonical_hnf(self) -> "KMat":
        """The canonical column Hermite form of the lattice the columns
        span (rank m), with the same shift and ring.

        PrecisionError unless the known digits determine that lattice:
        the form is that of the columns plus pi^(shift + prec) V, and its
        width must stay below prec (module docstring).
        """
        if self.ncols < self.nrows:
            raise ValueError("not enough columns for full rank")
        T = _hnf(self.lf, self.ring, [row[:] for row in self.data])
        if T is None or sum(self.ring.val(T[i][i]) for i in range(self.nrows)) >= self.prec:
            raise PrecisionError("the known digits do not determine the lattice")
        return KMat._of(self.lf, T, self.shift, self.ring)


def _is_zero_spec(x) -> bool:
    return x == 0 and not isinstance(x, KElem)


# ---------------------------------------------------------------------------
# elimination over the chain ring O/pi^N


def _pivot(ring, D, rows, cols) -> tuple[int, int, int] | None:
    """(v, i, j) for the entry D[i][j] of least valuation v over rows x
    cols, first in row-major order; None when all of them vanish."""
    best = None
    for i in rows:
        for j in cols:
            v = ring.val(D[i][j])
            if v < ring.N and (best is None or v < best[0]):
                best = (v, i, j)
    return best


def _clear_row(ring, D, k: int, e: int, uinv: int) -> None:
    """Clear row k right of its pivot D[k][k] = u pi^e, uinv = u^-1, by
    column operations on rows k and below."""
    row = D[k]
    below = [r for r in D[k + 1:] if r[k]]
    for j in range(k + 1, len(row)):
        x = row[j]
        if x:
            fac = ring.mul(ring.div_pk(x, e), uinv)
            for r in below:
                r[j] = ring.sub(r[j], ring.mul(fac, r[k]))
            row[j] = 0


def _hnf(lf: LocalField, ring, D, m: int | None = None):
    """The canonical column Hermite form of the lattice spanned by the
    columns of D (rows of encodings in ring = O/pi^N, consumed) and by
    pi^N V: rows of a lower triangular T with T[r][r] = pi^e_r and the
    entries left of it reduced mod pi^e_r.  None when some row has no
    entry below pi^N, where the pivot would be pi^N itself.

    Only the leading m rows (all of D by default) are pivoted.  The rows
    below them are carried through the same column operations, and T
    keeps them, cut to m columns, below its own m rows.  Carrying an
    identity under D's m rows gives U with D U = T mod pi^N."""
    m, N = len(D) if m is None else m, ring.N
    for r in range(m):
        best = _pivot(ring, D, (r,), range(r, len(D[0])))
        if best is None:
            return None
        e, _, j = best
        if j != r:
            for row in D:
                row[r], row[j] = row[j], row[r]
        uinv = ring.inv(ring.div_pk(D[r][r], e))
        _clear_row(ring, D, r, e, uinv)
        # normalize the pivot column to pi^e; pi^N e_r, cleared by it,
        # leaves pi^(N-e) times it below row r
        for i, row in enumerate(D):
            x = row[r] = ring.mul(row[r], uinv) if i >= r else 0
            row.append(ring.mul_pk(x, N - e) if i > r else 0)
    T = [row[:m] for row in D]
    # reduce the entries left of each pivot mod that pivot
    for r in range(m):
        e = ring.val(T[r][r])
        ring_e = lf.ring(e) if e else None
        for j in range(r):
            x = T[r][j]
            rem = ring_e.lift_naive(ring.reduce_to(x, ring_e), ring) if e else 0
            if x != rem:
                fac = ring.div_pk(ring.sub(x, rem), e)
                for i in range(r, len(T)):
                    T[i][j] = ring.sub(T[i][j], ring.mul(fac, T[i][r]))
    return T


def smith_normal_form(ring, D):
    """Smith form over ring = O/pi^N of the square integral rows D, consumed.

    Returns (exps, U, Uinv), rows, with U D W = diag(units * pi^exps)
    for unimodular U, W and Uinv = U^(-1); exps come out ascending.  Each
    row operation on D is applied to the rows of U and, undone, to the
    columns of Uinv, so neither is inverted; W never enters quotient data.
    D stays known mod pi^N; U and Uinv spend sum(exps) digits.  The
    caller sees to it that every pivot lies below pi^N.
    """
    m = len(D)
    U = [[int(i == j) for j in range(m)] for i in range(m)]    # by rows
    Ui = [[int(i == j) for j in range(m)] for i in range(m)]   # Uinv, by columns
    exps = []
    for k in range(m):
        e, bi, bj = _pivot(ring, D, range(k, m), range(k, m))
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
            if x:
                fac = ring.mul(ring.div_pk(x, e), piv_inv)
                for j in range(k, m):
                    D[i][j] = ring.sub(D[i][j], ring.mul(fac, D[k][j]))
                for r in range(m):  # U row_i -= fac * row_k; Uinv col_k += fac * col_i
                    U[i][r] = ring.sub(U[i][r], ring.mul(fac, U[k][r]))
                    Ui[r][k] = ring.add(Ui[r][k], ring.mul(fac, Ui[r][i]))
        _clear_row(ring, D, k, e, piv_inv)
        exps.append(e)
    return exps, U, Ui


# ---------------------------------------------------------------------------
# lattices


class Lattice:
    """A full-rank O-lattice in K^m: pi^shift T O^m for its canonical basis
    T, whose rows are encoded in ring = O/pi^(hi - shift + 1), the least
    ring that holds its pivots pi^exps; pi^hi V <= L <= pi^shift V.  A
    field holds one object per lattice (_lattice), so equality is identity."""

    __slots__ = ("lf", "m", "shift", "hi", "exps", "rows", "ring", "det_val", "__weakref__")

    def __new__(cls, mat: KMat):
        """The lattice the columns of mat span, which its known digits must
        determine (KMat.canonical_hnf)."""
        hnf = mat.canonical_hnf()
        return _lattice(mat.lf, hnf.shift, hnf.data, hnf.ring)

    def __reduce__(self):
        """Copy and pickle rebuild it from its basis, through _lattice: a
        copy is the lattice itself, and a pickle loads onto a copy of its
        field."""
        return Lattice, (self.mat,)

    def _basis(self, ring, lo: int | None = None) -> list[list[int]]:
        """Rows of pi^(shift - lo) T encoded in ring; lo defaults to shift."""
        return _moved(self.rows, self.ring, ring, 0 if lo is None else self.shift - lo)

    @property
    def mat(self) -> KMat:
        """The basis as a KMat, known to the field's default precision past
        its pivots."""
        ring = self.lf.ring(self.hi - self.shift + self.lf.default_precision)
        return KMat._of(self.lf, self._basis(ring), self.shift, ring)

    @classmethod
    def from_rows(cls, lf: LocalField, rows, prec: int | None = None) -> "Lattice":
        return cls(KMat.from_rows(lf, rows, prec))

    def __repr__(self):
        return f"Lattice(m={self.m}, shift={self.shift})"


def _lattice(lf: LocalField, lo: int, T, ring) -> Lattice:
    """pi^lo T O^m for a Hermite form T of rank m >= 1, rows in ring,
    moved to the least valuation of its entries: the field's live Lattice
    with that shift and those rows, or a new one that the field then
    holds weakly."""
    m = len(T)
    if m < 1:
        raise ValueError("a lattice needs rank m >= 1")
    t = min(ring.val(x) for i, row in enumerate(T) for x in row[:i + 1])
    exps = [ring.val(T[i][i]) - t for i in range(m)]
    width = sum(exps)
    own = lf.ring(width + 1)
    rows = _moved(T, ring, own, -t)
    key = (lo + t, tuple(map(tuple, rows)))
    L = lf._lattices.get(key)
    if L is None:
        L = object.__new__(Lattice)
        L.lf, L.m, L.shift, L.hi, L.exps = lf, m, lo + t, lo + t + width, exps
        L.rows, L.ring, L.det_val = rows, own, m * (lo + t) + width
        lf._lattices[key] = L
    return L


def standard_lattice(lf: LocalField, m: int) -> Lattice:
    return _lattice(lf, 0, [[int(i == j) for j in range(m)] for i in range(m)], lf.ring(1))


def principal_lattice(lf: LocalField, v: int) -> Lattice:
    """pi^v O inside K^1."""
    return _lattice(lf, v, [[1]], lf.ring(1))


def _kmat_key(f: KMat) -> tuple:
    """f's known data, as a memo key: prec is part of it, since the same
    digits known to another precision can raise PrecisionError."""
    return f.shift, f.prec, tuple(map(tuple, f.data))


def lat_apply(f: KMat, A: Lattice) -> Lattice:
    """f(A): the span of f times A's exact basis, at f's known digits,
    memoized on the field by f's known data and A.  f must be m x m for
    A in K^m; a kept key holds f's rows, so only a miss can meet another
    shape, and the check runs there, before anything is stored."""
    if f.lf is not A.lf:
        raise ValueError("matrices of different fields")
    key = (_kmat_key(f), A)
    fA = A.lf._images.get(key)
    if fA is None:
        _check_shape(f, A.m)
        ring = f.ring
        rows = ring.matmul(f.data, ring, A._basis(ring), ring)
        fA = Lattice(KMat._of(A.lf, rows, f.shift + A.shift, ring))
        _memo_put(A.lf._images, key, fA)
    return fA


def _check_shape(f: KMat, m: int) -> None:
    """ValueError unless f is m x m, a map of K^m."""
    if (f.nrows, f.ncols) != (m, m):
        raise ValueError(f"a {f.nrows} x {f.ncols} matrix does not act on K^{m}")


def _check_pair(A: Lattice, B: Lattice) -> None:
    """ValueError unless A and B lie in one K^m of one field."""
    if A.lf is not B.lf:
        raise ValueError("lattices of different fields")
    if A.m != B.m:
        raise ValueError("different ambient spaces")


def lat_sum(A: Lattice, B: Lattice) -> Lattice:
    _check_pair(A, B)
    # pi^hi V <= A + B for the smaller hi
    lo = min(A.shift, B.shift)
    ring = A.lf.ring(min(A.hi, B.hi) - lo + 1)
    D = [a + b for a, b in zip(A._basis(ring, lo), B._basis(ring, lo))]
    return _lattice(A.lf, lo, _hnf(A.lf, ring, D), ring)


def lat_intersect(A: Lattice, B: Lattice) -> Lattice:
    """A cap B, memoized on the field: the smaller operand when they nest,
    else a lattice of its own.  B cap A is the same lattice, so one entry
    serves both orders.  A pair from two fields or ambient spaces, never a
    kept key, is refused by the containment test."""
    memo = A.lf._intersections
    I = memo.get((A, B)) or memo.get((B, A))
    if I is None:
        # of nested lattices the larger has the smaller det_val
        big, small = (A, B) if A.det_val <= B.det_val else (B, A)
        if lat_contains_lattice(big, small):
            I = small
        else:
            # the columns (a + b, a) span a lattice in K^2m that contains
            # pi^hi V^2m for the larger hi; its part with a + b = 0 is
            # {(0, x) : x in A cap B}
            lo, m = min(A.shift, B.shift), A.m
            ring = A.lf.ring(max(A.hi, B.hi) - lo + 1)
            a, b = A._basis(ring, lo), B._basis(ring, lo)
            D = [ra + rb for ra, rb in zip(a, b)] + [ra + [0] * m for ra in a]
            I = _lattice(A.lf, lo, [row[m:] for row in _hnf(A.lf, ring, D)[m:]], ring)
        _memo_put(memo, (A, B), I)
    return I


def _solve(A: Lattice, C, ring):
    """The rows Y with T Y = C, for A's basis T and rows C of encodings in
    ring = O/pi^M, column by column: Y is right mod pi^(M - hi + shift).
    None when a division by a pivot is inexact, that is, when some column
    of C is not in T O^m."""
    T = A._basis(ring)
    Y = []
    for r, e in enumerate(A.exps):
        row = C[r]
        for j in range(r):
            t = T[r][j]
            if t:
                row = [ring.sub(x, ring.mul(t, y)) for x, y in zip(row, Y[j])]
        if any(ring.val(x) < e for x in row):
            return None
        Y.append([ring.div_pk(x, e) for x in row])
    return Y


def lat_contains_lattice(A: Lattice, B: Lattice) -> bool:
    _check_pair(A, B)
    if B.shift < A.shift or B.det_val < A.det_val:
        return False
    ring = A.lf.ring(A.hi - A.shift + 1)
    return _solve(A, B._basis(ring, A.shift), ring) is not None


class LatticeQuotient:
    """A/B presented as a FiniteModule plus projection and lift maps.

    Over ring = O/pi^(E + L + hi(A) - shift(A) + 1), for pi^E A <= B and L
    the length of A/B: _solve keeps E + L + 1 digits of A^-1 B, for the
    Smith form, and of A^-1 x, for classes.
    """

    __slots__ = ("A", "B", "module", "_ring", "_idx", "_U", "_lifts", "__weakref__")

    def __init__(self, A: Lattice, B: Lattice):
        _check_pair(A, B)
        L = B.det_val - A.det_val
        if B.shift < A.shift or L < 0 or (L == 0 and A is not B):
            raise ValueError("B is not contained in A")
        self.A, self.B = A, B
        R = self._ring = A.lf.ring(B.hi - A.shift + L + A.hi - A.shift + 1)
        self._idx, exps = [], ()   # B = A: the zero module
        if L:
            X = _solve(A, B._basis(R, A.shift), R)
            if X is None:
                raise ValueError("B is not contained in A")
            exps, U, Ui = smith_normal_form(R, X)
            self._idx = [k for k, e in enumerate(exps) if e > 0]
            self._U = [U[k] for k in self._idx]
            # A U^-1, whose columns lift the generators
            self._lifts = R.matmul(A._basis(R), R, [[row[k] for k in self._idx] for row in Ui], R)
        self.module = FiniteModule(A.lf, [exps[k] for k in self._idx])

    def _classes(self, C, ring, k: int) -> list[tuple]:
        """Classes in the abstract module of the columns of pi^(A.shift + k) C,
        vectors of A, for rows C of encodings in ring."""
        if not self._idx:
            return [()] * len(C[0])
        R = self._ring
        Y = _solve(self.A, _moved(C, ring, R, k), R)
        if Y is None:
            raise ValueError("not a vector of A")
        Z = R.matmul(self._U, R, Y, R)
        return [tuple(R.reduce_to(z[c], rj) for z, rj in zip(Z, self.module.rings))
                for c in range(len(Y[0]))]

    def proj(self, x: KMat) -> tuple:
        """Class of a vector of A in the abstract module; x must be known
        past pi^hi of B, where its class is decided."""
        if x.shift + x.prec < self.B.hi:
            raise PrecisionError("not enough digits for the class")
        return self._classes(x.data, x.ring, x.shift - self.A.shift)[0]

    def lift(self, t: tuple) -> KMat:
        """A vector of A representing the class t."""
        R, m = self._ring, self.A.m
        if not self._idx:
            return KMat._of(self.A.lf, [[0] for _ in range(m)], self.A.shift, R)
        coeffs = [[rj.lift_naive(c, R)] for c, rj in zip(t, self.module.rings)]
        return KMat._of(self.A.lf, R.matmul(self._lifts, R, coeffs, R), self.A.shift, R)


def quotient_struct(A: Lattice, B: Lattice) -> LatticeQuotient:
    """Structure of A/B for B contained in A (checked), memoized on the
    field: a LatticeQuotient is read-only, so its callers share it."""
    Q = A.lf._quotients.get((A, B))
    if Q is None:
        Q = LatticeQuotient(A, B)
        _memo_put(A.lf._quotients, (A, B), Q)
    return Q


def induced_hom(srcQ: LatticeQuotient, dstQ: LatticeQuotient,
                f: KMat | None = None) -> ModuleHom:
    """The map of abstract quotients obtained by lift, optionally f, project:
    column k is the class in dstQ of f(lift(generator k)).  f must be known
    well enough that f(x), for x in srcQ's lattice, is known to pi^hi of
    dstQ's sublattice, and m x m for quotients in K^m.  From or to the
    zero module it is the empty or the zero map."""
    _check_pair(srcQ.A, dstQ.A)
    if f is not None:
        if f.lf is not srcQ.A.lf:
            raise ValueError("matrices of different fields")
        _check_shape(f, srcQ.A.m)
    if not (srcQ._idx and dstQ._idx):
        return ModuleHom(srcQ.module, dstQ.module, [()] * len(srcQ._idx))
    lifts, R, k = srcQ._lifts, srcQ._ring, srcQ.A.shift - dstQ.A.shift
    if f is not None:
        if f.shift + f.prec + srcQ.A.shift < dstQ.B.hi:
            raise PrecisionError("not enough digits to map the quotient")
        lifts, R = f.ring.matmul(f.data, f.ring, _moved(lifts, R, f.ring), f.ring), f.ring
        k += f.shift
    return ModuleHom(srcQ.module, dstQ.module, dstQ._classes(lifts, R, k))


def rel_dim(A: Lattice, B: Lattice, n: int) -> int:
    """dim(A / A cap B) - dim(B / A cap B), as an exact integer."""
    _check_n(A.lf.field, n)
    I = lat_intersect(A, B)
    q = A.lf.q
    return (q**(I.det_val - A.det_val) - 1) // n - (q**(I.det_val - B.det_val) - 1) // n
