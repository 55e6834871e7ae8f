"""Linearized (q-) polynomials over F_{q^n}.

A q-polynomial sum p_i X^(q^i) induces an F_q-linear endomorphism of
F_{q^n}.  Under composition these form a noncommutative ring; since
x^(q^n) = x on the field, exponents live mod n and every element has a
canonical representative with q-degree below n, which is what ``QPoly``
stores (a tuple of exactly n packed coefficients).

Composition folds exponents i+j mod n directly.  Division is one-sided:
``left_divide(A, L)`` finds Q, R with A = L o Q + R and deg_q R < deg_q L,
which is the only direction the decoders need.  The adjoint with respect to
the twisted trace form <a,b> = Tr(u a b) is the closed formula

    adjoint(P, u)[ (n-i) mod n ] = p_i^(q^(n-i)) * u^(q^(n-i) - 1)

equivalently the unique Q with Tr(u a P(b)) = Tr(u Q(a) b) for all a, b.
"""

from __future__ import annotations

from .gf import ExtField, ext_from_json, ext_to_json
from .linalg import Matrix

NEG_INF = float("-inf")


class QPoly:
    """A q-polynomial in canonical form: exactly n coefficients."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: ExtField, coeffs=()):
        n = field.n
        folded = [0] * n
        for i, c in enumerate(coeffs):
            if c:
                if not (0 < c < field.order):
                    raise ValueError("coefficient out of range")
                j = i % n
                folded[j] = field.add(folded[j], c)
        self.field = field
        self.coeffs = tuple(folded)

    @classmethod
    def zero(cls, field: ExtField) -> "QPoly":
        return cls(field)

    @classmethod
    def x(cls, field: ExtField) -> "QPoly":
        """The identity map X."""
        return cls(field, (field.one,))

    @classmethod
    def monomial(cls, field: ExtField, i: int, c: int | None = None) -> "QPoly":
        """c * X^(q^i), defaulting to the monic monomial."""
        if c is None:
            c = field.one
        out = [field.zero] * field.n
        out[i % field.n] = c
        return cls(field, out)

    def __eq__(self, other):
        return (isinstance(other, QPoly) and self.field is other.field
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"QPoly({list(self.coeffs)})"

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    @property
    def q_degree(self):
        """Largest i with p_i != 0; -inf for the zero polynomial."""
        for i in range(self.field.n - 1, -1, -1):
            if self.coeffs[i]:
                return i
        return NEG_INF

    def __add__(self, other: "QPoly") -> "QPoly":
        add = self.field.add
        return QPoly(self.field,
                     [add(a, b) for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "QPoly") -> "QPoly":
        sub = self.field.sub
        return QPoly(self.field,
                     [sub(a, b) for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self) -> "QPoly":
        neg = self.field.neg
        return QPoly(self.field, [neg(a) for a in self.coeffs])

    def scale(self, c: int) -> "QPoly":
        """Left multiple c * P, i.e. (cX) o P."""
        mul = self.field.mul
        return QPoly(self.field, [mul(c, a) for a in self.coeffs])

    def evaluate(self, x: int) -> int:
        fld = self.field
        acc = fld.zero
        for i, p in enumerate(self.coeffs):
            if p:
                acc = fld.add(acc, fld.mul(p, fld.frobenius(x, i)))
        return acc

    def compose(self, other: "QPoly") -> "QPoly":
        """Ring product: (P o Q)(x) = P(Q(x)), exponents folded mod n."""
        fld = self.field
        n = fld.n
        add, mul, frob = fld.add, fld.mul, fld.frobenius
        out = [fld.zero] * n
        for i, p in enumerate(self.coeffs):
            if p:
                for j, q in enumerate(other.coeffs):
                    if q:
                        k = i + j
                        if k >= n:
                            k -= n
                        out[k] = add(out[k], mul(p, frob(q, i)))
        return QPoly(fld, out)

    def compose_monomial(self, s: int) -> "QPoly":
        """P o X^(q^s): a cyclic right-shift of the coefficients by s."""
        n = self.field.n
        s %= n
        return QPoly(self.field,
                     tuple(self.coeffs[(k - s) % n] for k in range(n)))

    def left_divide(self, divisor: "QPoly") -> tuple["QPoly", "QPoly"]:
        """Q, R with self = divisor o Q + R and deg_q R < deg_q divisor."""
        fld = self.field
        n = fld.n
        dl = divisor.q_degree
        if dl is NEG_INF:
            raise ZeroDivisionError("left division by the zero q-polynomial")
        lead_inv = fld.inv(divisor.coeffs[dl])
        rem = list(self.coeffs)
        quo = [fld.zero] * n
        da = self.q_degree
        while da is not NEG_INF and da >= dl:
            i = da - dl
            # need lead * c^(q^dl) = rem[da], so c = (rem[da]/lead)^(q^(n-dl))
            c = fld.frobenius(fld.mul(rem[da], lead_inv), n - dl)
            quo[i] = c
            for j in range(dl + 1):
                lj = divisor.coeffs[j]
                if lj:
                    rem[i + j] = fld.sub(rem[i + j], fld.mul(lj, fld.frobenius(c, j)))
            da = -1
            for idx in range(dl + i, -1, -1):
                if rem[idx]:
                    da = idx
                    break
            if da < 0:
                da = NEG_INF
        return QPoly(fld, quo), QPoly(fld, rem)

    def adjoint(self, u: int) -> "QPoly":
        """The adjoint for <a,b> = Tr(u a b): Tr(u a P(b)) = Tr(u P*(a) b)."""
        fld = self.field
        if u == 0:
            raise ValueError("twist u must be nonzero")
        n = fld.n
        inv_u = fld.inv(u)
        out = [fld.zero] * n
        for i, p in enumerate(self.coeffs):
            if p:
                j = (n - i) % n
                out[j] = fld.mul(fld.mul(fld.frobenius(p, j), fld.frobenius(u, j)),
                                 inv_u)
        return QPoly(fld, out)

    def is_self_adjoint(self, u: int) -> bool:
        return self == self.adjoint(u)

    def to_json(self) -> list:
        return [ext_to_json(self.field, c) for c in self.coeffs]

    @classmethod
    def from_json(cls, field: ExtField, data) -> "QPoly":
        return cls(field, [ext_from_json(field, c) for c in data])


def vector_form(poly: QPoly, basis) -> tuple[int, ...]:
    """(P(g_1), ..., P(g_n)): the classical codeword vector of P."""
    return tuple(poly.evaluate(g) for g in basis)


def interpolate(field: ExtField, basis, values) -> QPoly:
    """The unique P with deg_q P < n and P(g_j) = y_j on an F_q-basis g."""
    basis = list(basis)
    values = list(values)
    if len(basis) != field.n or len(values) != field.n:
        raise ValueError("interpolation needs exactly n points")
    rows = [[field.frobenius(g, i) for i in range(field.n)] for g in basis]
    sol = Matrix(field, rows).solve(values)
    if sol is None or sol[1]:
        raise ValueError("evaluation points are F_q-dependent")
    return QPoly(field, sol[0])


def endo_matrix(poly: QPoly) -> Matrix:
    """Matrix of x -> P(x) over F_q in the polynomial basis 1, x, ..., x^(n-1)."""
    fld = poly.field
    n = fld.n
    cols = [fld.coeffs(poly.evaluate(fld.q**j)) for j in range(n)]
    return Matrix(fld.base, [[cols[j][i] for j in range(n)] for i in range(n)])


def qpoly_rank(poly: QPoly) -> int:
    """Rank of the induced endomorphism of F_{q^n}."""
    return endo_matrix(poly).rank()


def matrix_of(poly: QPoly, setup) -> Matrix:
    """Matrix of P over F_q in setup's orthonormal basis (column j is the
    coordinate vector of P(b_j)).  This is a ring isomorphism onto M_n(F_q),
    and adjoint corresponds to transpose."""
    cols = [setup.coords(poly.evaluate(b)) for b in setup.basis]
    n = len(cols)
    return Matrix(setup.field.base, [[cols[j][i] for j in range(n)] for i in range(n)])


def matrix_to_qpoly(mat: Matrix, setup) -> QPoly:
    """Inverse of matrix_of: the unique P with matrix_of(P, setup) = mat.

    The trace-dual of the orthonormal basis b is u*b, so P(x) =
    sum_j v_j Tr(u b_j x) with v_j the field element of column j, i.e.
    p_l = sum_j v_j (u b_j)^(q^l).
    """
    fld = setup.field
    n = fld.n
    if mat.nrows != n or mat.ncols != n:
        raise ValueError("matrix shape must be n x n")
    coeffs = [fld.zero] * n
    for j, b in enumerate(setup.basis):
        v = setup.from_coords(mat.col(j))
        if v:
            w = fld.mul(setup.u, b)
            for l in range(n):
                coeffs[l] = fld.add(coeffs[l], fld.mul(v, fld.frobenius(w, l)))
    return QPoly(fld, coeffs)
