"""Dense linear algebra over the finite fields of ``gf``, F_q and F_{q^n}.

Matrices are immutable tuples of tuples of packed field elements over one
field object; a sum, difference or product with a matrix over another field
object raises ValueError.  Sums, differences and the dot products of a
matrix-vector product take the field's inner-loop operations from ``gf``
(``_add_rows_of``, ``_sub_rows_of``, ``_dot_of``): ``map(xor)`` in
characteristic 2, one ``% p`` per entry or per dot product on a prime field
F_p, and the field methods on every other field.  So on F_2 and F_p no
field method runs per entry.  The symmetry test compares the rows with the
columns, the same on every field.  Elimination (rank, kernel, solve) runs
on the field methods.

Over F_2 (a field of order 2) a matrix also keeps its rows as ints, bit j
for column j, packed once on first use (the M4RI idea: Albrecht, Bard and
Hart, ACM TOMS 2010).  The matrix is immutable, so that cache never goes
stale.  On those rows a matrix-vector product is an and plus a popcount
parity per row (``int.bit_count``, Python >= 3.10) and the rank is an xor
basis, with no field call at all.  A matrix product is one ``apply`` per
column of the right factor, so over F_2 it runs on the packed rows too.

``LinearSolver`` factors a matrix once and answers many solve calls with
one matrix-vector product each; the low-rate symmetric-error decoder takes
its left inverse from one solver, once, at construction, and makes no solve
per word.  ``Matrix.solve`` is one such solver, which reads the kernel off
the same reduction.
"""

from __future__ import annotations

from .gf import _add_rows_of, _dot_of, _sub_rows_of


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
        data = tuple(map(tuple, data))
        if len(set(map(len, data))) > 1:
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

    def col(self, j: int) -> tuple:
        return tuple(row[j] for row in self.data)

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.field is other.field
                and self.ncols == other.ncols and self.data == other.data)

    def __hash__(self):
        return hash(self.data)

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols} over {self.field!r})"

    def _entrywise(self, other: "Matrix", rows_of, what: str) -> "Matrix":
        """The matrix of entrywise ``rows_of(field)`` of two matrices of one
        shape over one field; ValueError for any other operand."""
        if other.field is not self.field:
            raise ValueError(f"matrix {what} over different fields")
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError(f"dimension mismatch in matrix {what}")
        return Matrix._shaped(self.field, map(rows_of(self.field), self.data,
                                              other.data), self.ncols)

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(other, _add_rows_of, "sum")

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(other, _sub_rows_of, "difference")

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if other.field is not self.field:
            raise ValueError("matrix product over different fields")
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
            return tuple([(row & v).bit_count() & 1 for row in rows])
        dot = _dot_of(self.field)
        return tuple([dot(row, vec) for row in self.data])

    def is_symmetric(self) -> bool:
        return self.nrows == self.ncols and tuple(zip(*self.data)) == self.data

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
