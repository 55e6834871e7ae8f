"""Twisted trace pairing and orthonormal bases of F_{q^n} over F_q.

The pairing is <a, b> = Tr(u * a * b) for a fixed twist u in F_{q^n}^*.
Everything downstream (matrix pictures of q-polynomials, the adjoint, the
symmetric-error decoders) is phrased relative to a basis of F_{q^n} that is
orthonormal for this pairing (a trace-orthogonal basis: Seroussi and Lempel,
SIAM J. Comput. 1980).  Such a basis exists whenever

  * q is even, or
  * q and n are both odd (u = 1 works), or
  * q is odd, n is even, and N(u) is a non-square in F_q,

and ``select_twist`` picks the canonical such u.  For a bad twist
``orthonormal_basis`` raises ``OrthonormalBasisError`` rather than returning
something approximate.

The orthogonal basis comes from a symmetric elimination run on n field
elements v_0..v_{n-1}, starting at the polynomial basis x^j, with each form
value read with ``trace_form`` when it is needed; no Gram matrix is kept.
It is congruence diagonalisation T^t G T of the Gram matrix G of x^j, done
on the elements: column j of T holds the coordinates of v_j in the basis
1, x, ..., so adding c times column i to column j is v_j += c v_i, and
scaling or swapping columns scales or swaps elements.  T^t G T is the Gram
matrix of the current elements, so a form value read on demand is the
entry that the matrix route would hold, and every choice below is the one
it makes.  Each round pivots on the first unfinished element of nonzero
norm <v, v> and clears it from the later ones.  When every unfinished norm
is zero, the first nonzero pairing <v_r, v_c> is repaired: for odd q,
v_r += v_c has norm 2 <v_r, v_c> != 0; for even q, v_c is scaled to
<v_r, v_c> = 1, the pair is cleared from the other unfinished elements,
and r, c are merged with an earlier element w of norm d into r + w,
d c + w and w + r' + c', pairwise orthogonal and each of norm d.

Two branches of the matrix route cannot be reached by the trace form, so
they are not coded; the proofs follow:

  * an unfinished block that is identically zero.  Its elements are
    orthogonal to the finished ones too, so they would lie in the radical
    of the form; but for u != 0 and a != 0 the functional
    b -> Tr(u a b) is nonzero, since Tr is onto and u a b runs over the
    whole field, so the radical is 0.
  * for even q, no earlier element of nonzero norm.  In characteristic 2
    the norm v -> Tr(u v^2) = Tr(sqrt(u) v)^2 is additive and satisfies
    <c v, c v> = c^2 <v, v>, so if every norm were zero at the first round,
    it would vanish on the whole field; but Tr(sqrt(u) v) is a nonzero
    functional of v.  Hence the first round pivots, and each later round
    keeps every finished element at a nonzero norm, so w is v_0.

So every element of the orthogonal basis is finished by a pivot, at a
nonzero norm, and ``_rescale_to_orthonormal`` needs no check for a zero one.
``orthonormal_basis`` verifies the Gram matrix of what it returns, once.
"""

from __future__ import annotations

from .gf import ExtField, ext_from_json, ext_to_json, field_from_json, field_to_json
from .linalg import Matrix


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
    It finds one: the norm maps F_{q^n}^* onto F_q^*, and for odd q half
    of F_q^* are non-squares.
    """
    if field.base.p == 2 or field.n % 2 == 1:
        return field.one
    base = field.base
    return next(u for u in field.units() if not base.is_square(field.norm(u)))


def _rescale_to_orthonormal(field: ExtField, vecs: list[int], diag: list[int]) -> list[int]:
    """Turn an orthogonal basis with Gram diag(d_i) into an orthonormal one;
    d_i = ``trace_form`` of vecs[i] with itself, nonzero (module docstring).

    Each v_i with d_i a square is scaled by 1/sqrt(d_i); in characteristic 2
    squaring is onto, so that is every v_i and no pair is left.  For odd q
    the non-square norms are paired up and each pair rotated to norm 1.
    The rotation needs 1/d = alpha^2 + beta^2 in F_q, and the scan for
    alpha finds one: over odd q the sets {a^2} and {1/d - b^2} each have
    (q+1)/2 of the q elements, so they meet."""
    base = field.base
    n = len(vecs)
    out = list(vecs)
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
        alpha = next(a for a in base.elements()
                     if base.is_square(base.sub(target, base.mul(a, a))))
        beta = base.sqrt(base.sub(target, base.mul(alpha, alpha)))
        # rotate: both images get norm d*(alpha^2+beta^2) = 1, cross term 0
        vi, vj = out[i], out[j]
        out[i] = field.add(field.mul(alpha, vi), field.mul(beta, vj))
        out[j] = field.sub(field.mul(alpha, vj), field.mul(beta, vi))
    return out


def _orthogonal_basis(field: ExtField, u: int) -> list[int]:
    """Basis of F_{q^n} orthogonal for Tr(u a b), by elimination on the
    elements from the polynomial basis x^j; each form value is read with
    ``trace_form`` when needed (module docstring)."""
    n = field.n
    base = field.base
    add, mul = field.add, field.mul
    v = [field.q**j for j in range(n)]

    def form(i: int, j: int) -> int:
        return trace_form(field, u, v[i], v[j])

    def addmul(dst: int, src: int, c: int):
        # v_dst <- v_dst + c * v_src
        if c:
            v[dst] = add(v[dst], mul(c, v[src]))

    done = 0
    while done < n:
        # pivot on the first unfinished element of nonzero norm
        d = 0
        for j in range(done, n):
            d = form(j, j)
            if d:
                v[done], v[j] = v[j], v[done]
                break
        if d:
            s = base.neg(base.inv(d))
            for j in range(done + 1, n):
                addmul(j, done, base.mul(s, form(done, j)))
            done += 1
            continue
        # every unfinished norm is zero: take the first nonzero pairing,
        # which exists since the form has no radical (module docstring)
        r, c = next((i, j) for i in range(done, n) for j in range(i + 1, n)
                    if form(i, j))
        if base.p != 2:
            # the new norm of v_r is 2 <v_r, v_c> != 0
            addmul(r, c, 1)
            continue
        # characteristic 2: make the pair hyperbolic, clear it from the
        # other unfinished elements, then merge it with the first earlier
        # element w of nonzero norm d, which is v_0 since every finished
        # element keeps a nonzero norm: r' = r + w, c' = d c + w and
        # w' = w + r' + c' = w + r + d c are pairwise orthogonal and each
        # has norm d
        v[c] = mul(base.inv(form(r, c)), v[c])
        for j in range(done, n):
            if j != r and j != c:
                addmul(j, r, form(j, c))
                addmul(j, c, form(j, r))
        w, vr, vc = v[0], v[r], mul(form(0, 0), v[c])
        v[r], v[c], v[0] = add(vr, w), add(vc, w), add(add(w, vr), vc)
    return v


def orthonormal_basis(field: ExtField, u: int) -> tuple[int, ...]:
    """Basis b_0..b_{n-1} of F_{q^n} with Tr(u b_i b_j) = delta_ij."""
    if u == 0:
        raise OrthonormalBasisError("twist u must be nonzero")
    vecs = _orthogonal_basis(field, u)
    diag = [trace_form(field, u, b, b) for b in vecs]
    vecs = _rescale_to_orthonormal(field, vecs, diag)
    if gram_matrix(field, u, vecs) != Matrix.identity(field.base, field.n):
        raise ArithmeticError("orthonormalisation lost exactness (impossible)")
    return tuple(vecs)


class SymSetup:
    """A field together with a twist and an orthonormal basis for it.

    ``coords`` and ``from_coords`` convert between packed field elements and
    their F_q coordinate vectors in the orthonormal basis; orthonormality
    makes coords a row of trace pairings instead of a linear solve.  The
    trace-dual of the basis is u*b: the coordinate c_j of a is Tr(u b_j a),
    the form in which ``qpoly.trace_sum`` writes an operator.
    """

    def __init__(self, field: ExtField, u: int | None = None, basis=None):
        if u is None:
            u = select_twist(field)
        elif u == 0:
            raise OrthonormalBasisError("twist u must be nonzero")
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
        """The setup of ``to_json``; ValueError unless field is an object
        and basis a list (``ext_from_json`` checks u and each element)."""
        for key, want in (("field", dict), ("basis", list)):
            if type(doc[key]) is not want:
                raise ValueError(f"setup {key} must be {want.__name__}, not {doc[key]!r}")
        field = field_from_json(doc["field"])
        u = ext_from_json(field, doc["u"])
        basis = [ext_from_json(field, b) for b in doc["basis"]]
        return cls(field, u, basis)
