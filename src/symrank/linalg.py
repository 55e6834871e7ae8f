"""Dense linear algebra over an arbitrary finite field object.

The field is duck-typed: anything exposing add/sub/neg/mul/inv plus zero and
one attributes works, so the same code serves F_q and F_{q^n}.  Matrices are
immutable tuples of tuples of packed field elements.

Besides the usual rank/kernel/solve/inverse kit there are two specialised
pieces: ``LinearSolver`` factors a matrix once and answers many solve calls
cheaply (the low-rate symmetric-error decoder lives on this), and
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


class Matrix:
    """Immutable matrix over a finite field."""

    __slots__ = ("field", "nrows", "ncols", "data")

    def __init__(self, field, data):
        data = tuple(tuple(row) for row in data)
        if data and any(len(row) != len(data[0]) for row in data):
            raise ValueError("ragged rows")
        self.field = field
        self.nrows = len(data)
        self.ncols = len(data[0]) if data else 0
        self.data = data

    @classmethod
    def zeros(cls, field, nrows: int, ncols: int) -> "Matrix":
        z = field.zero
        return cls(field, [[z] * ncols for _ in range(nrows)])

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
                and self.data == other.data)

    def __hash__(self):
        return hash(self.data)

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols} over {self.field!r})"

    def __add__(self, other: "Matrix") -> "Matrix":
        add = self.field.add
        return Matrix(self.field,
                      [[add(a, b) for a, b in zip(ra, rb)]
                       for ra, rb in zip(self.data, other.data)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        sub = self.field.sub
        return Matrix(self.field,
                      [[sub(a, b) for a, b in zip(ra, rb)]
                       for ra, rb in zip(self.data, other.data)])

    def __neg__(self) -> "Matrix":
        neg = self.field.neg
        return Matrix(self.field, [[neg(a) for a in row] for row in self.data])

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch in matrix product")
        f = self.field
        add, mul, zero = f.add, f.mul, f.zero
        ocols = list(zip(*other.data))
        out = []
        for row in self.data:
            orow = []
            for col in ocols:
                acc = zero
                for a, b in zip(row, col):
                    if a != zero and b != zero:
                        acc = add(acc, mul(a, b))
                orow.append(acc)
            out.append(orow)
        return Matrix(f, out)

    def transpose(self) -> "Matrix":
        return Matrix(self.field, list(zip(*self.data))) if self.data else self

    def scale(self, c) -> "Matrix":
        mul = self.field.mul
        return Matrix(self.field, [[mul(c, a) for a in row] for row in self.data])

    def apply(self, vec) -> tuple:
        """Matrix-vector product, vec given as a sequence of field elements."""
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
        rows = [list(r) for r in self.data]
        return len(_rref(self.field, rows, self.ncols))

    def det(self):
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        f = self.field
        mul, sub, inv, zero = f.mul, f.sub, f.inv, f.zero
        rows = [list(r) for r in self.data]
        n = self.nrows
        det = f.one
        for c in range(n):
            pr = -1
            for i in range(c, n):
                if rows[i][c] != zero:
                    pr = i
                    break
            if pr < 0:
                return zero
            if pr != c:
                rows[c], rows[pr] = rows[pr], rows[c]
                det = f.neg(det)
            lead = rows[c][c]
            det = mul(det, lead)
            s = inv(lead)
            for i in range(c + 1, n):
                fac = rows[i][c]
                if fac != zero:
                    fac = mul(fac, s)
                    for j in range(c, n):
                        v = rows[c][j]
                        if v != zero:
                            rows[i][j] = sub(rows[i][j], mul(fac, v))
        return det

    def kernel(self) -> list[tuple]:
        """Basis of the right null space, as row vectors of length ncols."""
        f = self.field
        rows = [list(r) for r in self.data]
        pivots = _rref(f, rows, self.ncols)
        pivot_cols = [c for _, c in pivots]
        pivot_set = set(pivot_cols)
        free_cols = [c for c in range(self.ncols) if c not in pivot_set]
        basis = []
        for fc in free_cols:
            vec = [f.zero] * self.ncols
            vec[fc] = f.one
            for (r, c) in pivots:
                vec[c] = f.neg(rows[r][fc])
            basis.append(tuple(vec))
        return basis

    def solve(self, b):
        """Solve A x = b.  Returns (particular, kernel_basis) or None when
        inconsistent; a unique solution shows up as an empty kernel basis."""
        f = self.field
        rows = [list(r) + [bv] for r, bv in zip(self.data, b)]
        if self.nrows == 0:
            rows = []
        pivots = _rref(f, rows, self.ncols)
        for i in range(len(pivots), self.nrows):
            if rows[i][self.ncols] != f.zero:
                return None
        x = [f.zero] * self.ncols
        for (r, c) in pivots:
            x[c] = rows[r][self.ncols]
        pivot_set = {c for _, c in pivots}
        free_cols = [c for c in range(self.ncols) if c not in pivot_set]
        basis = []
        for fc in free_cols:
            vec = [f.zero] * self.ncols
            vec[fc] = f.one
            for (r, c) in pivots:
                vec[c] = f.neg(rows[r][fc])
            basis.append(tuple(vec))
        return tuple(x), basis

    def inverse(self) -> "Matrix":
        if self.nrows != self.ncols:
            raise ValueError("inverse of a non-square matrix")
        f = self.field
        n = self.nrows
        aug = [list(r) + [f.one if i == j else f.zero for j in range(n)]
               for i, r in enumerate(self.data)]
        pivots = _rref(f, aug, n)
        if len(pivots) != n:
            raise ZeroDivisionError("matrix is singular")
        return Matrix(f, [row[n:] for row in aug])

    def to_json(self) -> list[list]:
        return [list(row) for row in self.data]

    @classmethod
    def from_json(cls, field, data) -> "Matrix":
        return cls(field, data)


class LinearSolver:
    """Reusable solver for A x = b with a fixed A.

    Reduces the augmented block [A | I] once; each solve is then a handful
    of dot products against b plus a consistency check, O(nrows^2) instead
    of a fresh elimination.
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
        # E rows: the row operations applied to I, so rref(A) = E A
        self._erows = [row[n:] for row in aug]

    def _project(self, b, row_idx: int):
        f = self.field
        add, mul, zero = f.add, f.mul, f.zero
        acc = zero
        for coef, x in zip(self._erows[row_idx], b):
            if coef != zero and x != zero:
                acc = add(acc, mul(coef, x))
        return acc

    def solve(self, b):
        """Particular solution of A x = b, or None when inconsistent."""
        f = self.field
        for i in range(self.rank, self.nrows):
            if self._project(b, i) != f.zero:
                return None
        x = [f.zero] * self.ncols
        for (r, c) in self.pivots:
            x[c] = self._project(b, r)
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
