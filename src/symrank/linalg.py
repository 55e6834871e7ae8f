"""Dense linear algebra over an arbitrary finite field object.

The field is duck-typed: anything exposing add/sub/neg/mul/inv plus zero and
one attributes works, so the same code serves F_q and F_{q^n}.  Matrices are
immutable tuples of tuples of packed field elements.

Over F_2 (a field of order 2) a matrix also keeps its rows as ints, bit j
for column j, packed once on first use (the M4RI idea: Albrecht, Bard and
Hart, ACM TOMS 2010).  The matrix is immutable, so that cache never goes
stale.  On those rows a matrix-vector product is an and plus a popcount
parity per row (``int.bit_count``, Python >= 3.10) and the rank is an xor
basis, with no field call at all.  Every other field runs on its field
operations.  A matrix product is one ``apply`` per column of the right
factor, so over F_2 it runs on the packed rows too.

``LinearSolver`` factors a matrix once and answers many solve calls with
one matrix-vector product each; the low-rate symmetric-error decoder takes
its left inverse from one solver, once, at construction, and makes no solve
per word.  ``Matrix.solve`` is one such solver, which reads the kernel off
the same reduction.
``congruence_diagonalize`` computes T with T^t G T diagonal for a symmetric
Gram matrix G, in any characteristic.
"""

from __future__ import annotations


def _rref(field, rows: list[list[int]], pivot_cols: int) -> list[tuple[int, int]]:
    """Gauss-Jordan on ``rows`` in place, pivoting only in the first
    ``pivot_cols`` columns (trailing columns ride along, e.g. an augmented
    identity).  Returns the list of (row, col) pivot positions."""
    nrows = len(rows)
    width = len(rows[0]) if nrows else 0
    mul, sub, inv = field.mul, field.sub, field.inv
    zero = field.zero
    pivots: list[tuple[int, int]] = []
    r = 0
    for c in range(pivot_cols):
        pr = -1
        for i in range(r, nrows):
            if rows[i][c] != zero:
                pr = i
                break
        if pr < 0:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        lead = rows[r][c]
        if lead != field.one:
            s = inv(lead)
            row = rows[r]
            for j in range(c, width):
                if row[j] != zero:
                    row[j] = mul(s, row[j])
        row_r = rows[r]
        for i in range(nrows):
            if i == r:
                continue
            f = rows[i][c]
            if f != zero:
                row_i = rows[i]
                for j in range(c, width):
                    v = row_r[j]
                    if v != zero:
                        row_i[j] = sub(row_i[j], mul(f, v))
        pivots.append((r, c))
        r += 1
        if r == nrows:
            break
    return pivots


def _null_basis(field, rows, pivots, ncols: int) -> list[tuple]:
    """Null space basis of the first ``ncols`` columns of rows in RREF with
    the given pivots: one vector per free column."""
    pivot_cols = {c for _, c in pivots}
    basis = []
    for fc in range(ncols):
        if fc in pivot_cols:
            continue
        vec = [field.zero] * ncols
        vec[fc] = field.one
        for r, c in pivots:
            vec[c] = field.neg(rows[r][fc])
        basis.append(tuple(vec))
    return basis


_BITS = bytes.maketrans(b"\0\1", b"01")


def _pack_bits(vec) -> int:
    """An F_2 vector as one int, bit j for entry j."""
    return int(bytes(reversed(vec)).translate(_BITS) or b"0", 2)


def xor_rank(rows) -> int:
    """Rank over F_2 of vectors packed as ints (``_pack_bits``)."""
    # xor basis: each member has a top bit clear in all later ones
    basis: list[int] = []
    for v in rows:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
    return len(basis)


def _columns(rows, ncols: int):
    """The columns of ``rows``, ncols of them even when there is no row."""
    return zip(*rows) if rows else [()] * ncols


class Matrix:
    """Immutable matrix over a finite field.  ``ncols`` is kept apart from
    ``data``, so a matrix with no rows still has its column count."""

    __slots__ = ("field", "nrows", "ncols", "data", "_bits")

    def __init__(self, field, data):
        data = tuple(tuple(row) for row in data)
        if data and any(len(row) != len(data[0]) for row in data):
            raise ValueError("ragged rows")
        self.field = field
        self.nrows = len(data)
        self.ncols = len(data[0]) if data else 0
        self.data = data
        self._bits = None   # F_2 rows packed as ints, filled by _packed

    @classmethod
    def _shaped(cls, field, data, ncols: int) -> "Matrix":
        """A matrix of ``ncols`` columns, which ``data`` shows only when it
        has a row."""
        mat = cls(field, data)
        mat.ncols = ncols
        return mat

    def _packed(self) -> tuple[int, ...] | None:
        """The rows as ints over F_2, None over any other field."""
        if self._bits is None and self.field.order == 2:
            self._bits = tuple(_pack_bits(row) for row in self.data)
        return self._bits

    @classmethod
    def zeros(cls, field, nrows: int, ncols: int) -> "Matrix":
        z = field.zero
        return cls._shaped(field, [[z] * ncols for _ in range(nrows)], ncols)

    @classmethod
    def identity(cls, field, n: int) -> "Matrix":
        z, o = field.zero, field.one
        return cls(field, [[o if i == j else z for j in range(n)] for i in range(n)])

    def row(self, i: int) -> tuple:
        return self.data[i]

    def col(self, j: int) -> tuple:
        return tuple(row[j] for row in self.data)

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.field is other.field
                and self.ncols == other.ncols and self.data == other.data)

    def __hash__(self):
        return hash(self.data)

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols} over {self.field!r})"

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("dimension mismatch in matrix sum")
        add = self.field.add
        return Matrix(self.field,
                      [[add(a, b) for a, b in zip(ra, rb)]
                       for ra, rb in zip(self.data, other.data)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("dimension mismatch in matrix difference")
        sub = self.field.sub
        return Matrix(self.field,
                      [[sub(a, b) for a, b in zip(ra, rb)]
                       for ra, rb in zip(self.data, other.data)])

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch in matrix product")
        # one apply per column of other: the rows of the product's transpose
        cols = [self.apply(col) for col in _columns(other.data, other.ncols)]
        return Matrix._shaped(self.field, _columns(cols, self.nrows), other.ncols)

    def transpose(self) -> "Matrix":
        return Matrix._shaped(self.field, _columns(self.data, self.ncols),
                              self.nrows)

    def apply(self, vec) -> tuple:
        """Matrix-vector product, vec given as a sequence of ncols field
        elements; ValueError for any other length."""
        if len(vec) != self.ncols:
            raise ValueError("dimension mismatch in matrix-vector product")
        rows = self._packed()
        if rows is not None:
            v = _pack_bits(vec)
            return tuple((row & v).bit_count() & 1 for row in rows)
        f = self.field
        add, mul, zero = f.add, f.mul, f.zero
        out = []
        for row in self.data:
            acc = zero
            for a, x in zip(row, vec):
                if a != zero and x != zero:
                    acc = add(acc, mul(a, x))
            out.append(acc)
        return tuple(out)

    def is_symmetric(self) -> bool:
        if self.nrows != self.ncols:
            return False
        d = self.data
        return all(d[i][j] == d[j][i]
                   for i in range(self.nrows) for j in range(i + 1, self.ncols))

    def is_zero(self) -> bool:
        z = self.field.zero
        return all(a == z for row in self.data for a in row)

    def rank(self) -> int:
        packed = self._packed()
        if packed is not None:
            return xor_rank(packed)
        rows = [list(r) for r in self.data]
        return len(_rref(self.field, rows, self.ncols))

    def kernel(self) -> list[tuple]:
        """Basis of the right null space, as row vectors of length ncols."""
        rows = [list(r) for r in self.data]
        pivots = _rref(self.field, rows, self.ncols)
        return _null_basis(self.field, rows, pivots, self.ncols)

    def solve(self, b):
        """Solve A x = b.  Returns (particular, kernel_basis) or None when
        inconsistent; a unique solution shows up as an empty kernel basis."""
        solver = LinearSolver(self)
        x = solver.solve(b)
        return None if x is None else (x, solver._kernel)

    def to_json(self) -> list[list]:
        return [list(row) for row in self.data]


class LinearSolver:
    """Reusable solver for A x = b with a fixed A.

    Reduces the augmented block [A | I] once, keeping the row operations as
    a matrix E with rref(A) = E A.  Each solve is then the one product E b,
    O(nrows^2) instead of a fresh elimination: its rows past the rank are
    the consistency check and its pivot rows give x.  E is a ``Matrix``, so
    over F_2 that product runs on its packed rows.  When A has full row
    rank, its solves on the unit vectors are the columns of a right
    inverse, which is how the low-rate symmetric-error decoder gets its
    left inverse.  The same reduction gives the null basis of A that
    ``Matrix.solve`` returns.
    """

    def __init__(self, matrix: Matrix):
        f = matrix.field
        m, n = matrix.nrows, matrix.ncols
        aug = [list(r) + [f.one if i == j else f.zero for j in range(m)]
               for i, r in enumerate(matrix.data)]
        pivots = _rref(f, aug, n)
        self.field = f
        self.nrows = m
        self.ncols = n
        self.pivots = pivots
        self.rank = len(pivots)
        # the row operations applied to I, so rref(A) = E A
        self._e = Matrix(f, [row[n:] for row in aug])
        # the first n columns are rref(A), so they give its null space too
        self._kernel = _null_basis(f, aug, pivots, n)

    def solve(self, b):
        """Particular solution of A x = b, or None when inconsistent."""
        zero = self.field.zero
        eb = self._e.apply(b)
        if any(v != zero for v in eb[self.rank:]):
            return None
        x = [zero] * self.ncols
        for (r, c) in self.pivots:
            x[c] = eb[r]
        return tuple(x)


def congruence_diagonalize(gram: Matrix) -> tuple[Matrix, Matrix]:
    """Change of basis T with T^t G T = D diagonal, G symmetric.

    Works over any characteristic.  In characteristic 2 a symmetric form
    with an identically zero diagonal is alternating and has no orthogonal
    basis at all; that case raises ValueError.  Otherwise zero-diagonal
    blocks are repaired: for odd characteristic by the column addition
    x_r <- x_r + x_c (the new diagonal entry is 2*G[r][c] != 0), and in
    characteristic 2 by splitting off a hyperbolic pair and merging it with
    a previously found non-isotropic vector.
    """
    f = gram.field
    n = gram.nrows
    if n != gram.ncols or not gram.is_symmetric():
        raise ValueError("congruence_diagonalize needs a symmetric matrix")
    a = [list(row) for row in gram.data]
    t = [[f.one if i == j else f.zero for j in range(n)] for i in range(n)]
    add, mul, inv, neg, zero = f.add, f.mul, f.inv, f.neg, f.zero
    char2 = f.p == 2

    def col_addmul(dst: int, src: int, c):
        # x_dst <- x_dst + c * x_src; updates A congruently and T
        if c == zero:
            return
        for i in range(n):
            v = a[i][src]
            if v != zero:
                a[i][dst] = add(a[i][dst], mul(c, v))
        for i in range(n):
            v = a[src][i]
            if v != zero:
                a[dst][i] = add(a[dst][i], mul(c, v))
        for i in range(n):
            v = t[i][src]
            if v != zero:
                t[i][dst] = add(t[i][dst], mul(c, v))

    def col_scale(j: int, c):
        for i in range(n):
            a[i][j] = mul(c, a[i][j])
        for i in range(n):
            a[j][i] = mul(c, a[j][i])
        for i in range(n):
            t[i][j] = mul(c, t[i][j])

    def col_swap(i: int, j: int):
        for r in range(n):
            a[r][i], a[r][j] = a[r][j], a[r][i]
        a[i], a[j] = a[j], a[i]
        for r in range(n):
            t[r][i], t[r][j] = t[r][j], t[r][i]

    done = 0
    while done < n:
        # prefer a column with nonzero diagonal in the unfinished block
        pivot = -1
        for j in range(done, n):
            if a[j][j] != zero:
                pivot = j
                break
        if pivot >= 0:
            if pivot != done:
                col_swap(done, pivot)
            d = a[done][done]
            s = neg(inv(d))
            for j in range(done + 1, n):
                if a[done][j] != zero:
                    col_addmul(j, done, mul(s, a[done][j]))
            done += 1
            continue
        # zero diagonal everywhere in the block; find an off-diagonal entry
        r = c = -1
        for i in range(done, n):
            for j in range(i + 1, n):
                if a[i][j] != zero:
                    r, c = i, j
                    break
            if r >= 0:
                break
        if r < 0:
            # block is identically zero: remaining vectors are in the radical
            break
        if not char2:
            col_addmul(r, c, f.one)
            continue
        # characteristic 2: make the pair hyperbolic, clear it from the
        # other columns, then merge with an earlier non-isotropic column
        col_scale(c, inv(a[r][c]))
        for s_ in range(done, n):
            if s_ in (r, c):
                continue
            col_addmul(s_, r, a[s_][c])
            col_addmul(s_, c, a[s_][r])
        w = -1
        for j in range(done):
            if a[j][j] != zero:
                w = j
                break
        if w < 0:
            raise ValueError(
                "alternating form in characteristic 2 has no orthogonal basis")
        # with B(r,c)=1, B(w,w)=d: r'=r+w, c'=d*c+w, w'=w+r'+c' are pairwise
        # orthogonal and each has norm d
        d = a[w][w]
        col_addmul(r, w, f.one)
        col_scale(c, d)
        col_addmul(c, w, f.one)
        col_addmul(w, r, f.one)
        col_addmul(w, c, f.one)
    diag = Matrix(f, [[a[i][j] if i == j else zero for j in range(n)]
                      for i in range(n)])
    return Matrix(f, t), diag
