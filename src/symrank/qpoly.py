"""Linearized (q-) polynomials over F_{q^n}.

A q-polynomial sum p_i X^(q^i) induces an F_q-linear endomorphism of
F_{q^n}.  Under composition these form a noncommutative ring; since
x^(q^n) = x on the field, exponents live mod n and every element has a
canonical representative with q-degree below n, which is what ``QPoly``
stores (a tuple of exactly n packed coefficients).

Composition folds exponents i+j mod n directly.  Division is one-sided:
``left_divide(A, L)`` finds Q, R with A = L o Q + R and deg_q R < deg_q L,
which is the only direction the decoders need.  Sums and differences of
coefficients in these loops, and in ``+`` and ``-``, use the callables of
``gf._add_of`` and ``gf._sub_of``: the builtin xor in characteristic 2,
else the field's ``add`` and ``sub``.

A job keeps a log-domain path beside its ``mul``/``frobenius`` loop only
because a decode, or a sampler that the benchmark times, runs it:
``compose`` and ``left_divide`` (every localiser tried), ``adjoint`` (the
high-rate preimage and final verification), ``_basis_images`` (the
localiser pencil and the rank) and ``trace_sum`` (every error that
``random_error`` and ``random_selfadjoint_qpoly`` draw).  When the field has
exp/log tables they use p * c^(q^i) = exp[log p + log c * q^i mod (q^n - 1)],
one table index, with the logs of the fixed operand taken once per call.
Fields without tables run the same jobs on ``mul`` and ``frobenius``, and so
does ``evaluate`` on every field: with tables, only ``matrix_of`` (sym-low
set-up and the CLI's sym-low picture) and tests evaluate at a single point.

``compose`` keeps no state: the one operand composed repeatedly, the
received word at the boundary, is composed once per member divided, which
is more than twice only on the degenerate words (``symdec``), too rare for
a per-operand cache to be worth its code.

The images P(x^j), j < n, of the polynomial basis (``_basis_images``, for
the rank and the localiser pencil) take log((x^j)^(q^i)) from a table the
field builds once beside its tables, n^2 ints, so an image costs one lookup
per nonzero coefficient and no product of logs.

The adjoint with respect to the twisted trace form <a,b> = Tr(u a b) is the
closed formula

    adjoint(P, u)[ (n-i) mod n ] = p_i^(q^(n-i)) * u^(q^(n-i) - 1)

equivalently the unique Q with Tr(u a P(b)) = Tr(u Q(a) b) for all a, b.
In the log domain each coefficient is one lookup, with no inverse of u:

    p^(q^j) * u^(q^j - 1) = exp[((log p + log u) q^j - log u) mod (q^n - 1)]

``is_self_adjoint`` builds the adjoint and compares; the high-rate decoder
calls it once per answer, in its final verification.
"""

from __future__ import annotations

from .gf import ExtField, _add_of, _sub_of, ext_from_json, ext_to_json
from .linalg import Matrix, xor_rank

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
        """P(x) = sum p_i x^(q^i), on ``mul`` and ``frobenius`` on every
        field (module docstring)."""
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
        units, frob_exp, char2 = fld.order - 1, fld._frob_exp, fld._char2
        q_logs = [(j, log[q]) for j, q in enumerate(other.coeffs) if q]
        for i, p in enumerate(self.coeffs):
            if p:
                lp, fe = log[p], frob_exp[i]
                if char2:
                    for j, lq in q_logs:
                        k = i + j
                        if k >= n:
                            k -= n
                        out[k] ^= exp[lp + lq * fe % units]
                else:
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
        """P == P.adjoint(u); ValueError for u = 0, as ``adjoint``."""
        return self == self.adjoint(u)

    def to_json(self) -> list:
        return [ext_to_json(self.field, c) for c in self.coeffs]

    @classmethod
    def from_json(cls, field: ExtField, data) -> "QPoly":
        return cls(field, [ext_from_json(field, c) for c in data])


def _basis_images(poly: QPoly) -> list[int]:
    """The images P(x^j), j < n, of the polynomial basis 1, x, ...,
    x^(n-1).  With tables each term is exp[log p_i + log((x^j)^(q^i))], the
    second log read from the field's ``_basis_frob_logs``; without, one
    ``evaluate`` per image."""
    fld = poly.field
    exp = fld._exp
    if exp is None:
        return [poly.evaluate(fld.q**j) for j in range(fld.n)]
    add, log = _add_of(fld), fld._log
    p_logs = [(i, log[p]) for i, p in enumerate(poly.coeffs) if p]
    images = []
    for row in fld._basis_frob_logs:
        acc = 0
        for i, lp in p_logs:
            term = exp[lp + row[i]]
            acc = add(acc, term) if acc else term
        images.append(acc)
    return images


def qpoly_rank(poly: QPoly) -> int:
    """Rank of the induced endomorphism of F_{q^n}: the F_q rank of the
    images P(x^j), j < n (``_basis_images``), the columns of its matrix in
    the polynomial basis 1, x, ..., x^(n-1).
    Over F_2 a packed element already is its coordinate row, so the images
    go to the xor basis as ints."""
    fld = poly.field
    q = fld.q
    images = _basis_images(poly)
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
    sum_j v_j Tr(u b_j x) with v_j the field element of column j, one
    ``trace_sum``.
    """
    fld = setup.field
    n = fld.n
    if mat.nrows != n or mat.ncols != n:
        raise ValueError("matrix shape must be n x n")
    return trace_sum(fld, [setup.from_coords(mat.col(j)) for j in range(n)],
                     [fld.mul(setup.u, b) for b in setup.basis])


def trace_sum(field: ExtField, avec, bvec) -> QPoly:
    """The q-polynomial of x -> sum_j a_j Tr(b_j x): coefficient l is
    sum_j a_j b_j^(q^l).  Every F_q-linear map of F_{q^n} has this form,
    since every F_q-linear functional is x -> Tr(b x).  The image lies in
    span{a_j}, all of it when the b_j are F_q-independent, so the rank
    equals the number of terms when the a_j are F_q-independent and so are
    the b_j.  ``avec`` and ``bvec`` of different lengths raise ValueError.

    With tables, term j contributes exp[log a_j + (log b_j q^l mod
    (q^n - 1))] to coefficient l: one list of n lookups per term, with no
    ``mul`` or ``frobenius`` call, and the lists summed entrywise."""
    terms = [(a, b) for a, b in zip(avec, bvec, strict=True) if a and b]
    exp, add = field._exp, _add_of(field)
    if exp is not None and terms:
        log, frob, units = field._log, field._frob_exp, field.order - 1
        coeffs = None
        for a, b in terms:
            la, lb = log[a], log[b]
            row = [exp[la + lb * fe % units] for fe in frob]
            coeffs = row if coeffs is None else list(map(add, coeffs, row))
        return QPoly._of(field, coeffs)
    mul, frob = field.mul, field.frobenius
    coeffs = [field.zero] * field.n
    for a, b in terms:
        for l in range(field.n):
            coeffs[l] = add(coeffs[l], mul(a, b))
            b = frob(b)
    return QPoly._of(field, coeffs)
