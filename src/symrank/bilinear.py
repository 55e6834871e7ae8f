"""Twisted trace pairing and orthonormal bases of F_{q^n} over F_q.

The pairing is <a, b> = Tr(u * a * b) for a fixed twist u in F_{q^n}^*.
Everything downstream (matrix pictures of q-polynomials, the adjoint, the
symmetric-error decoders) is phrased relative to a basis of F_{q^n} that is
orthonormal for this pairing.  Such a basis exists whenever

  * q is even, or
  * q and n are both odd (u = 1 works), or
  * q is odd, n is even, and N(u) is a non-square in F_q,

and ``select_twist`` picks the canonical such u.  For a bad twist
``orthonormal_basis`` raises ``OrthonormalBasisError`` rather than returning
something approximate.
"""

from __future__ import annotations

from .gf import ExtField, ext_from_json, ext_to_json, field_from_json, field_to_json
from .linalg import Matrix, congruence_diagonalize


class OrthonormalBasisError(ValueError):
    """No orthonormal basis exists for the requested twisted trace form."""


def trace_form(field: ExtField, u: int, a: int, b: int) -> int:
    """<a, b> = Tr(u * a * b), a packed F_q value."""
    return field.trace(field.mul(u, field.mul(a, b)))


def gram_matrix(field: ExtField, u: int, basis) -> Matrix:
    """Gram matrix of the twisted trace form on ``basis``, over F_q."""
    basis = list(basis)
    n = len(basis)
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = trace_form(field, u, basis[i], basis[j])
            rows[i][j] = v
            rows[j][i] = v
    return Matrix(field.base, rows)


def select_twist(field: ExtField) -> int:
    """Smallest twist u (in packed order) admitting an orthonormal basis.

    u = 1 works except when q is odd and n is even; there the form needs
    N(u) to be a non-square in F_q, and the scan picks the first such u.
    """
    if field.base.p == 2 or field.n % 2 == 1:
        return field.one
    base = field.base
    for u in field.units():
        if not base.is_square(field.norm(u)):
            return u
    raise OrthonormalBasisError("no usable twist exists (impossible)")


def _rescale_to_orthonormal(field: ExtField, vecs: list[int], diag: list[int]) -> list[int]:
    """Turn an orthogonal basis with Gram diag(d_i) into an orthonormal one."""
    base = field.base
    if any(d == 0 for d in diag):
        raise OrthonormalBasisError("twisted trace form is degenerate")
    n = len(vecs)
    out = list(vecs)
    if base.p == 2:
        # squaring is an automorphism: every d has a square root
        for i in range(n):
            out[i] = field.mul(out[i], base.inv(base.sqrt(diag[i])))
        return out
    nonsq = []
    for i in range(n):
        if base.is_square(diag[i]):
            out[i] = field.mul(out[i], base.inv(base.sqrt(diag[i])))
        else:
            nonsq.append(i)
    if len(nonsq) % 2 == 1:
        raise OrthonormalBasisError(
            "form discriminant is a non-square: no orthonormal basis")
    for i, j in zip(nonsq[0::2], nonsq[1::2]):
        # d_i / d_j is a square (non-squares form one coset); equalise first
        s = base.sqrt(base.div(diag[i], diag[j]))
        out[j] = field.mul(out[j], s)
        d = diag[i]
        target = base.inv(d)
        alpha = beta = None
        for a in base.elements():
            rem = base.sub(target, base.mul(a, a))
            if base.is_square(rem):
                alpha, beta = a, base.sqrt(rem)
                break
        if alpha is None:
            raise ArithmeticError("sum of two squares search failed (impossible)")
        # rotate: both images get norm d*(alpha^2+beta^2) = 1, cross term 0
        vi, vj = out[i], out[j]
        out[i] = field.add(field.mul(alpha, vi), field.mul(beta, vj))
        out[j] = field.sub(field.mul(alpha, vj), field.mul(beta, vi))
    return out


def orthonormal_basis(field: ExtField, u: int | None = None) -> tuple[int, ...]:
    """Basis b_0..b_{n-1} of F_{q^n} with Tr(u b_i b_j) = delta_ij."""
    if u is None:
        u = select_twist(field)
    if u == 0:
        raise OrthonormalBasisError("twist u must be nonzero")
    n = field.n
    poly_basis = [field.q**j for j in range(n)]
    gram = gram_matrix(field, u, poly_basis)
    t, d = congruence_diagonalize(gram)
    # columns of T give the orthogonal basis in poly_basis coordinates
    vecs = []
    for j in range(n):
        acc = field.zero
        for i in range(n):
            c = t.data[i][j]
            if c:
                acc = field.add(acc, field.mul(c, poly_basis[i]))
        vecs.append(acc)
    diag = [d.data[i][i] for i in range(n)]
    vecs = _rescale_to_orthonormal(field, vecs, diag)
    if gram_matrix(field, u, vecs) != Matrix.identity(field.base, n):
        raise ArithmeticError("orthonormalisation lost exactness (impossible)")
    return tuple(vecs)


class SymSetup:
    """A field together with a twist and an orthonormal basis for it.

    ``coords`` and ``from_coords`` convert between packed field elements and
    their F_q coordinate vectors in the orthonormal basis; orthonormality
    makes coords a row of trace pairings instead of a linear solve.
    """

    def __init__(self, field: ExtField, u: int | None = None, basis=None):
        if u is None:
            u = select_twist(field)
        if basis is None:
            basis = orthonormal_basis(field, u)
        else:
            basis = tuple(basis)
            if gram_matrix(field, u, basis) != Matrix.identity(field.base, field.n):
                raise OrthonormalBasisError("supplied basis is not orthonormal")
        self.field = field
        self.u = u
        self.basis = basis

    def __repr__(self):
        return f"SymSetup(q={self.field.q}, n={self.field.n}, u={self.u})"

    def pair(self, a: int, b: int) -> int:
        return trace_form(self.field, self.u, a, b)

    def coords(self, a: int) -> tuple[int, ...]:
        fld = self.field
        ua = fld.mul(self.u, a)
        return tuple(fld.trace(fld.mul(ua, b)) for b in self.basis)

    def from_coords(self, cs) -> int:
        fld = self.field
        acc = fld.zero
        for c, b in zip(cs, self.basis):
            if c:
                acc = fld.add(acc, fld.mul(c, b))
        return acc

    def to_json(self) -> dict:
        fld = self.field
        return {
            "field": field_to_json(fld),
            "u": ext_to_json(fld, self.u),
            "basis": [ext_to_json(fld, b) for b in self.basis],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "SymSetup":
        field = field_from_json(doc["field"])
        u = ext_from_json(field, doc["u"])
        basis = [ext_from_json(field, b) for b in doc["basis"]]
        return cls(field, u, basis)
