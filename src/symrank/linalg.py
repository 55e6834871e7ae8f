"""Dense linear algebra over the finite fields of ``gf``, F_q and F_{q^n}.

Matrices are immutable tuples of tuples of packed field elements over one
field object; a sum, difference or product with a matrix over another field
object raises ValueError.  Sums and differences map the field's scalar
operation from ``gf`` (``_add_of``, ``_sub_of``) over each pair of rows:
``map(xor)`` in characteristic 2, the field's ``add`` or ``sub`` on every
other field.  The symmetry test compares the rows with the columns, the
same on every field.  Elimination (rank, kernel, solve) runs on the field
methods.

A matrix-vector product runs on slot-packed columns, one path for every
field of order q = p^d (the simultaneous reduction of Dumas, Fousse and
Salvy, J. Symb. Comp. 2011).  Multiplication by a fixed matrix is F_p-linear
on the base-p digits of the entries, which are their coordinates over F_p
(``gf``).  So the image of digit t of input entry j is one column of d n
base-p digits, and it is packed once, on first use, into one int: output
digit s of row i sits in slot i d + s, w bytes wide, with w the smallest of
1, 2, 4 and 8 bytes that holds a sum of ncols d products (p-1)^2.  A product
splits each entry of the vector into its d digits and sums the columns they
weight as plain ints: ``sum(compress(...))`` over F_2, ``sum(map(mul, ...))``
otherwise.  No slot overflows into the next, so one ``to_bytes`` reads every
slot, and one ``bytes.translate`` (w = 1) or one ``% p`` per slot of an
``array`` reduces them.  Each group of d digits packs back into an entry.
The matrix is immutable, so the packed columns never go stale.  A matrix
product is one ``apply`` of the left factor per column of the right one,
or, when the left factor has fewer rows, one ``apply`` of the right
factor's transpose per row of the left one.

Over F_2 (a field of order 2) ``rank`` packs each row into one int, bit j
for column j, and the rank is an xor basis of those rows (the M4RI idea:
Albrecht, Bard and Hart, ACM TOMS 2010), with no field call at all.  One
step, ``xor_insert``, reduces a row by the basis and extends it, for
``xor_rank`` and for a caller that keeps a basis across calls;
``echelon_insert`` is the same step over any F_q.

``LinearSolver`` factors a matrix once and answers many solve calls with
one matrix-vector product each; the low-rate symmetric-error decoder takes
its left inverse from one solver, once, at construction, and makes no solve
per word.  ``Matrix.solve`` is one such solver, which reads the kernel off
the same reduction.
"""

from __future__ import annotations

import sys
from array import array
from functools import lru_cache
from itertools import chain, compress, repeat
from operator import add, mul

from .gf import _add_of, _sub_of


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


def xor_insert(basis: list[int], v: int) -> int:
    """Reduce the packed F_2 vector v by the xor basis ``basis`` and append
    the remainder when it is nonzero, which is when v lies outside the span.
    Returns the remainder.  Each member has its top bit clear in all later
    ones, so one pass in order reduces v: v ^ b < v exactly when the top bit
    of b is set in v, and then v ^ b clears it.  (A compare, not a ``min``
    call: about three times faster on rows of 8 to 16 bits.)"""
    for b in basis:
        w = v ^ b
        if w < v:
            v = w
    if v:
        basis.append(v)
    return v


def xor_rank(rows) -> int:
    """Rank over F_2 of vectors packed as ints (``_pack_bits``): the size
    of the xor basis that ``xor_insert`` builds from them."""
    basis: list[int] = []
    for v in rows:
        xor_insert(basis, v)
    return len(basis)


def echelon_insert(field, basis: list[tuple[int, list[int]]], row) -> bool:
    """The F_q counterpart of ``xor_insert``: reduce ``row`` by the echelon
    ``basis`` of (pivot column, row with 1 there and 0 at every earlier
    pivot) and append it, scaled to a leading 1, when a nonzero entry is
    left.  Returns whether it was appended."""
    mul, sub = field.mul, field.sub
    for c, b in basis:
        f = row[c]
        if f:
            row = [sub(v, mul(f, w)) for v, w in zip(row, b)]
    c = next((i for i, v in enumerate(row) if v), -1)
    if c < 0:
        return False
    s = field.inv(row[c])
    basis.append((c, [mul(s, v) for v in row]))
    return True


# the array typecode of each item size; the later code wins a tie
_TYPECODE = {array(c).itemsize: c for c in "BHILQ"}


@lru_cache(maxsize=None)
def _mod_table(p: int) -> bytes:
    """The ``bytes.translate`` table of byte b -> b mod p."""
    return bytes(b % p for b in range(256))


def _columns(rows, ncols: int):
    """The columns of ``rows``, ncols of them even when there is no row."""
    return zip(*rows) if rows else [()] * ncols


class Matrix:
    """Immutable matrix over a finite field.  ``ncols`` is kept apart from
    ``data``, so a matrix with no rows still has its column count."""

    __slots__ = ("field", "nrows", "ncols", "data", "_cols")

    def __init__(self, field, data):
        data = tuple(map(tuple, data))
        if len(set(map(len, data))) > 1:
            raise ValueError("ragged rows")
        self.field = field
        self.nrows = len(data)
        self.ncols = len(data[0]) if data else 0
        self.data = data
        self._cols = None   # slot-packed columns, filled by _packed_columns

    @classmethod
    def _shaped(cls, field, data, ncols: int) -> "Matrix":
        """A matrix of ``ncols`` columns, which ``data`` shows only when it
        has a row."""
        mat = cls(field, data)
        mat.ncols = ncols
        return mat

    def _packed_columns(self) -> tuple:
        """(columns, p, powers, nbytes, typecode, table) of ``apply``
        (module docstring): the column of digit t of entry j is item
        t ncols + j, ``powers`` are the digit weights p^t, ``nbytes`` is the
        length of the output slots, ``typecode`` the array type of one slot
        and ``table`` the mod-p ``bytes.translate`` table of 1-byte slots,
        None for wider ones."""
        if self._cols is None:
            f = self.field
            p = f.p
            powers = [1]
            while powers[-1] * p < f.order:
                powers.append(powers[-1] * p)
            # the smallest slot that holds a sum of ncols d products of
            # residues, each at most (p-1)^2
            w = next(w for w in (1, 2, 4, 8)
                     if self.ncols * len(powers) * (p - 1) ** 2 < 1 << 8 * w)
            images = list(_columns(self.data, self.ncols))
            if len(powers) > 1:
                # digit t of an entry stands for the F_p basis element p^t,
                # and the image of each entry splits into its digits
                images = [[f.mul(a, pt) // ps % p for a in col for ps in powers]
                          for pt in powers for col in images]
            typecode = _TYPECODE[w]
            cols = tuple(int.from_bytes(array(typecode, col).tobytes(), sys.byteorder)
                         for col in images)
            self._cols = (cols, p, tuple(powers), self.nrows * len(powers) * w,
                          typecode, _mod_table(p) if w == 1 else None)
        return self._cols

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

    def _entrywise(self, other: "Matrix", op_of, what: str) -> "Matrix":
        """The matrix of entrywise ``op_of(field)`` of two matrices of one
        shape over one field; ValueError for any other operand."""
        if other.field is not self.field:
            raise ValueError(f"matrix {what} over different fields")
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError(f"dimension mismatch in matrix {what}")
        return Matrix._shaped(self.field, map(map, repeat(op_of(self.field)),
                                              self.data, other.data), self.ncols)

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(other, _add_of, "sum")

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(other, _sub_of, "difference")

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if other.field is not self.field:
            raise ValueError("matrix product over different fields")
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch in matrix product")
        if self.nrows < other.ncols:
            # fewer applies the other way: row i of the product is the
            # transpose of other applied to row i of self
            right = other.transpose()
            return Matrix._shaped(self.field, [right.apply(row) for row in self.data],
                                  other.ncols)
        # one apply per column of other: the rows of the product's transpose
        cols = [self.apply(col) for col in _columns(other.data, other.ncols)]
        return Matrix._shaped(self.field, _columns(cols, self.nrows), other.ncols)

    def transpose(self) -> "Matrix":
        return Matrix._shaped(self.field, _columns(self.data, self.ncols),
                              self.nrows)

    def apply(self, vec) -> tuple:
        """Matrix-vector product, vec given as a sequence of ncols field
        elements; ValueError for any other length.  The entries are not
        checked: an int outside 0..q-1 is misread, so callers that take
        outside input check it first (``symdec``)."""
        if len(vec) != self.ncols:
            raise ValueError("dimension mismatch in matrix-vector product")
        cols, p, powers, nbytes, typecode, table = self._cols or self._packed_columns()
        d = len(powers)
        if d > 1:
            vec = list(chain.from_iterable(
                map(p.__rmod__, map(pt.__rfloordiv__, vec)) for pt in powers))
        total = sum(compress(cols, vec)) if p == 2 else sum(map(mul, cols, vec))
        raw = total.to_bytes(nbytes, sys.byteorder)
        if table is None:
            digits = list(map(p.__rmod__, array(typecode, raw)))
        else:
            digits = raw.translate(table)
        if d == 1:
            return tuple(digits)
        # the digits of row i are slots i d .. i d + d - 1, low first
        out = digits[d - 1::d]
        for s in range(d - 2, -1, -1):
            out = map(add, map(p.__mul__, out), digits[s::d])
        return tuple(out)

    def is_symmetric(self) -> bool:
        return self.nrows == self.ncols and tuple(zip(*self.data)) == self.data

    def is_zero(self) -> bool:
        z = self.field.zero
        return all(a == z for row in self.data for a in row)

    def rank(self) -> int:
        if self.field.order == 2:
            return xor_rank(map(_pack_bits, self.data))
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
    that product runs on its slot-packed columns.  When A has full row
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
