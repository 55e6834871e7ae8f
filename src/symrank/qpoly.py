"""Linearized (q-) polynomials over F_{q^n}.

A q-polynomial sum p_i X^(q^i) induces an F_q-linear endomorphism of
F_{q^n}.  Under composition these form a noncommutative ring; since
x^(q^n) = x on the field, exponents live mod n and every element has a
canonical representative with q-degree below n, which is what ``QPoly``
stores (a tuple of exactly n packed coefficients).

Composition folds exponents i+j mod n directly.  Division is one-sided:
``left_divide(A, L)`` finds Q, R with A = L o Q + R and deg_q R < deg_q L,
which is the only direction the decoders need.  Both are the inner loop of
the decoders' localiser walk; when the field has exp/log tables they work in
the log domain, where p * c^(q^i) = exp[log p + log c * q^i mod (q^n - 1)]
is one table index, with the logs of the fixed operand taken once per call.
``evaluate`` is the same sum with c = x, one lookup per term.  Fields
without tables run the same loops on ``mul`` and ``frobenius``.

The adjoint with respect to the twisted trace form <a,b> = Tr(u a b) is the
closed formula

    adjoint(P, u)[ (n-i) mod n ] = p_i^(q^(n-i)) * u^(q^(n-i) - 1)

equivalently the unique Q with Tr(u a P(b)) = Tr(u Q(a) b) for all a, b.
In the log domain each coefficient is one lookup, with no inverse of u:

    p^(q^j) * u^(q^j - 1) = exp[((log p + log u) q^j - log u) mod (q^n - 1)]

``is_self_adjoint`` compares each pair (c_j, c_(n-j)) through that lookup
and stops at the first mismatch, without building the adjoint.
"""

from __future__ import annotations

from operator import xor

from .gf import ExtField, ext_from_json, ext_to_json
from .linalg import Matrix, xor_rank

NEG_INF = float("-inf")


def _add_of(field: ExtField):
    """``field.add`` as a callable for inner loops: the builtin xor in
    characteristic 2, where add and sub are both xor, else the method."""
    return xor if field._char2 else field.add


def _sub_of(field: ExtField):
    """``field.sub`` as a callable for inner loops (see ``_add_of``)."""
    return xor if field._char2 else field.sub


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
                folded[j] = field.add(folded[j], c) if folded[j] else c
        self.field = field
        self.coeffs = tuple(folded)

    @classmethod
    def _of(cls, field: ExtField, coeffs) -> "QPoly":
        """Wrap exactly n coefficients that are already field elements,
        skipping the fold and range check of ``__init__``."""
        poly = cls.__new__(cls)
        poly.field = field
        poly.coeffs = tuple(coeffs)
        return poly

    @classmethod
    def zero(cls, field: ExtField) -> "QPoly":
        return cls._of(field, [field.zero] * field.n)

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
        return not any(self.coeffs)

    @property
    def q_degree(self):
        """Largest i with p_i != 0; -inf for the zero polynomial."""
        for i in range(self.field.n - 1, -1, -1):
            if self.coeffs[i]:
                return i
        return NEG_INF

    def __add__(self, other: "QPoly") -> "QPoly":
        if other.field is not self.field:
            raise ValueError("q-polynomials over different fields")
        return QPoly._of(self.field, map(_add_of(self.field), self.coeffs,
                                         other.coeffs))

    def __sub__(self, other: "QPoly") -> "QPoly":
        if other.field is not self.field:
            raise ValueError("q-polynomials over different fields")
        return QPoly._of(self.field, map(_sub_of(self.field), self.coeffs,
                                         other.coeffs))

    def evaluate(self, x: int) -> int:
        fld = self.field
        exp = fld._exp
        if exp is None:
            acc = fld.zero
            for i, p in enumerate(self.coeffs):
                if p:
                    acc = fld.add(acc, fld.mul(p, fld.frobenius(x, i)))
            return acc
        if not x:
            return fld.zero
        add, log, units = fld.add, fld._log, fld.order - 1
        lx = log[x]
        acc = fld.zero
        for p, fe in zip(self.coeffs, fld._frob_exp):
            if p:
                term = exp[log[p] + lx * fe % units]
                acc = add(acc, term) if acc else term
        return acc

    def compose(self, other: "QPoly") -> "QPoly":
        """Ring product: (P o Q)(x) = P(Q(x)), exponents folded mod n."""
        fld = self.field
        n = fld.n
        add, exp, log = _add_of(fld), fld._exp, fld._log
        out = [fld.zero] * n
        if exp is None:
            mul, frob = fld.mul, fld.frobenius
            for i, p in enumerate(self.coeffs):
                if p:
                    for j, q in enumerate(other.coeffs):
                        if q:
                            k = i + j
                            if k >= n:
                                k -= n
                            out[k] = add(out[k], mul(p, frob(q, i)))
            return QPoly._of(fld, out)
        units = fld.order - 1
        frob_exp = fld._frob_exp
        q_logs = [(j, log[q]) for j, q in enumerate(other.coeffs) if q]
        for i, p in enumerate(self.coeffs):
            if p:
                lp, fe = log[p], frob_exp[i]
                for j, lq in q_logs:
                    k = i + j
                    if k >= n:
                        k -= n
                    acc, term = out[k], exp[lp + lq * fe % units]
                    out[k] = add(acc, term) if acc else term
        return QPoly._of(fld, out)

    def compose_monomial(self, s: int) -> "QPoly":
        """P o X^(q^s): a cyclic right-shift of the coefficients by s."""
        n = self.field.n
        s %= n
        return QPoly._of(self.field, self.coeffs[n - s:] + self.coeffs[:n - s])

    def left_divide(self, divisor: "QPoly") -> tuple["QPoly", "QPoly"]:
        """Q, R with self = divisor o Q + R and deg_q R < deg_q divisor."""
        fld = self.field
        n = fld.n
        dl = divisor.q_degree
        if dl is NEG_INF:
            raise ZeroDivisionError("left division by the zero q-polynomial")
        sub, exp, log = _sub_of(fld), fld._exp, fld._log
        rem = list(self.coeffs)
        quo = [fld.zero] * n
        # quotient coefficient c at i needs lead * c^(q^dl) = rem[i + dl], so
        # c = (rem[i + dl] / lead)^(q^(n - dl)); its term at dl cancels
        # rem[i + dl] exactly, so only the divisor's terms below dl are
        # subtracted
        if exp is None:
            mul, frob = fld.mul, fld.frobenius
            lead_inv = fld.inv(divisor.coeffs[dl])
            low = [(j, lj) for j, lj in enumerate(divisor.coeffs[:dl]) if lj]
            for da in range(n - 1, dl - 1, -1):
                if rem[da]:
                    i = da - dl
                    c = frob(mul(rem[da], lead_inv), n - dl)
                    quo[i] = c
                    rem[da] = fld.zero
                    for j, lj in low:
                        rem[i + j] = sub(rem[i + j], mul(lj, frob(c, j)))
            return QPoly._of(fld, quo), QPoly._of(fld, rem)
        units = fld.order - 1
        frob_exp = fld._frob_exp
        lead_log = log[divisor.coeffs[dl]]
        back = frob_exp[(n - dl) % n]
        low = [(j, log[lj], frob_exp[j])
               for j, lj in enumerate(divisor.coeffs[:dl]) if lj]
        for da in range(n - 1, dl - 1, -1):
            r = rem[da]
            if r:
                i = da - dl
                lc = (log[r] - lead_log) * back % units
                quo[i] = exp[lc]
                rem[da] = fld.zero
                for j, lj, fe in low:
                    rem[i + j] = sub(rem[i + j], exp[lj + lc * fe % units])
        return QPoly._of(fld, quo), QPoly._of(fld, rem)

    def adjoint(self, u: int) -> "QPoly":
        """The adjoint for <a,b> = Tr(u a b): Tr(u a P(b)) = Tr(u P*(a) b)."""
        fld = self.field
        if u == 0:
            raise ValueError("twist u must be nonzero")
        n = fld.n
        out = [fld.zero] * n
        exp = fld._exp
        if exp is None:
            inv_u = fld.inv(u)
            for i, p in enumerate(self.coeffs):
                if p:
                    j = (n - i) % n
                    out[j] = fld.mul(fld.mul(fld.frobenius(p, j),
                                             fld.frobenius(u, j)), inv_u)
            return QPoly._of(fld, out)
        log, units, frob_exp = fld._log, fld.order - 1, fld._frob_exp
        lu = log[u]
        for i, p in enumerate(self.coeffs):
            if p:
                j = (n - i) % n
                out[j] = exp[((log[p] + lu) * frob_exp[j] - lu) % units]
        return QPoly._of(fld, out)

    def is_self_adjoint(self, u: int) -> bool:
        """P == P.adjoint(u), compared coefficient pair by coefficient pair
        with an early exit when the field has tables."""
        fld = self.field
        exp = fld._exp
        if exp is None or u == 0:
            return self == self.adjoint(u)
        n, c = fld.n, self.coeffs
        log, units, frob_exp = fld._log, fld.order - 1, fld._frob_exp
        lu = log[u]
        # the coefficient map c_i -> c_(n-i) of the adjoint is an involution
        # pair by pair, so the pairs (i, n-i) with i <= n/2 decide it, and
        # i = 0 always matches
        for i in range(1, n // 2 + 1):
            p, j = c[i], n - i
            if c[j] != (exp[((log[p] + lu) * frob_exp[j] - lu) % units]
                        if p else fld.zero):
                return False
        return True

    def to_json(self) -> list:
        return [ext_to_json(self.field, c) for c in self.coeffs]

    @classmethod
    def from_json(cls, field: ExtField, data) -> "QPoly":
        return cls(field, [ext_from_json(field, c) for c in data])


def qpoly_rank(poly: QPoly) -> int:
    """Rank of the induced endomorphism of F_{q^n}: the F_q rank of the
    images P(x^j), j < n, the columns of its matrix in the polynomial basis
    1, x, ..., x^(n-1).
    Over F_2 a packed element already is its coordinate row, so the images
    go to the xor basis as ints."""
    fld = poly.field
    q = fld.q
    images = [poly.evaluate(q**j) for j in range(fld.n)]
    if q == 2:
        return xor_rank(images)
    return Matrix(fld.base, [fld.coeffs(v) for v in images]).rank()


def matrix_of(poly: QPoly, setup) -> Matrix:
    """Matrix of P over F_q in setup's orthonormal basis (column j is the
    coordinate vector of P(b_j)).  This is a ring isomorphism onto M_n(F_q),
    and adjoint corresponds to transpose."""
    return Matrix(setup.field.base, [setup.coords(poly.evaluate(b))
                                     for b in setup.basis]).transpose()


def matrix_to_qpoly(mat: Matrix, setup) -> QPoly:
    """Inverse of matrix_of: the unique P with matrix_of(P, setup) = mat.

    The trace-dual of the orthonormal basis b is u*b, so P(x) =
    sum_j v_j Tr(u b_j x) with v_j the field element of column j, i.e.
    p_l = sum_j v_j (u b_j)^(q^l), read from ``setup.dual_powers``.
    """
    fld = setup.field
    n = fld.n
    if mat.nrows != n or mat.ncols != n:
        raise ValueError("matrix shape must be n x n")
    add, mul = fld.add, fld.mul
    coeffs = [fld.zero] * n
    for j, powers in enumerate(setup.dual_powers):
        v = setup.from_coords(mat.col(j))
        if v:
            for l, w in enumerate(powers):
                coeffs[l] = add(coeffs[l], mul(v, w))
    return QPoly._of(fld, coeffs)
