"""Decoders for symmetric errors of unrestricted rank.

Both decoders exploit the linear map Phi sending a word to the difference
with its transpose: symmetric errors vanish under Phi, so Phi(Y) only sees
the codeword part, which can be recovered linearly.

Low rate (matrix codes with C intersect Sym = 0, e.g. Gab_k o X^q with
k < n/2): Phi restricted to C is injective, so a word splits in at most one
way as Y = C + S with S symmetric, whatever the error rank, even n.
Deterministic, no radius argument at all.  Phi is read on its N = n(n-1)/2
entries above the diagonal; the rank of that system on C is the
C intersect Sym = 0 test, and a left inverse G of it (G Phi(C) is C's
coefficient vector) is taken once per code.  A decode is one fixed
F_q-linear map, precomputed per code with Phi folded in, from the entries
of Y to the word C with coefficients G Phi(Y) and to the residual Y - C,
then the check that the residual is symmetric.  That check is exact.  If the
residual is symmetric, Phi(Y) = Phi(C), so Y = C + (Y - C) is valid, and by
injectivity it is the only decomposition.  If a valid Y = C0 + S exists,
Phi(Y) = Phi(C0), so G Phi(Y) is C0's coefficient vector and C0 is
returned.  The decoder therefore answers on exactly the valid instances and
raises InvalidInstanceError on every other word.

High rate (Gabidulin, n/2 < k < n): Phi|_C has a kernel, so a preimage C' of
Phi(Y) is only determined up to C intersect Sym_u, a subspace contained in
span{X^(q^(n-k)), ..., X^(q^k)}, which is the shifted code
Gab_{2k-n+1} o X^(q^(n-k)).  One preimage has a closed form: with
D = Phi(Y), Phi(C)_j = c_j - c_(n-j)^(q^j) u^(q^j - 1) and D* = -D, so
c_j = D_j for 1 <= j < n-k and n/2 < j <= k, c_(n/2) = theta D_(n/2) with
theta + theta^(q^(n/2)) = 1 when n is even, and every other c_j = 0.  No
linear system is solved, and every word has a preimage.  The residual
Y - C' = S + E is then decoded by ``wb_decode`` at radius n-k.  Since
Phi(C') = Phi(Y), Y - C' is self-adjoint, so the error implied by a
candidate S' is self-adjoint exactly when S' is.  Only the outermost pair
of that test, c_k = c_(n-k)^(q^k) u^(q^k - 1), is checked, inside the walk:
its two coefficients are read off L o Y before a walked member is divided
(``wb_decode``'s ``keep``), and at the boundary about four members in five
fail it and are never divided.  No other pair needs a test.  Let R = Y - C'
(self-adjoint) and c a candidate of the reduced code, within n-k of R, so
E' = R - c has rank at most n-k.  Then c - c^adj = E'^adj - E' has rank at
most 2(n-k).  The adjoint sends degree j to n-j, so c - c^adj lies in the
reduced code, of dimension 2k-n+1 and minimum rank distance 2(n-k):

  * a candidate found at the unique radius n-k-1 has rank E' <= n-k-1, so
    c - c^adj has rank at most 2(n-k) - 2 and is 0;
  * a walked candidate that passes the outer pair has c - c^adj zero at
    degrees n-k and k, so it lies in the shifted Gabidulin code on degrees
    n-k+1..k-1, of minimum rank distance 2(n-k) + 2, and is 0.

Every candidate that reaches the decoder is therefore self-adjoint, and
each gives a survivor.  The survivors get their status from
``DecodeReport.of``, the same rule as ``wb_decode``.  The diagnostics are
the walk's own, with the test, plus ``survivors``; ``error_rank`` is set
on 'ok' only, as ``DecodeReport.of`` documents.  The error of an 'ok'
report is ranked once, by an F_q elimination that is independent of the
kernel dimension ``wb_decode`` reads its own rank from.  The answer is then
verified before it is returned: the codeword lies in the code, the error is
self-adjoint, and its rank is at most n-k.  Below the boundary
(rank <= n-k-1) the answer is provably unique; at rank exactly n-k two
valid decompositions can coexist and the report says so.  The reduced code
has redundancy 2(n-k) - 1, so radius n-k is the walked stage of
``wb_decode``.  For a valid instance the residual lies within n-k of the
reduced code, so the walked kernel has dimension exactly 2 (the lemma in
``gabidulin``), and the localiser pencil searches it exhaustively on every
field, with no cap; a field without exp/log tables is slower but gives the
same answer.  Every valid decomposition is therefore found, and a word
that has none reports 'fail'.
"""

from __future__ import annotations

from functools import partial
from itertools import chain

from .bilinear import SymSetup
from .gabidulin import DecodeReport, GabCode, wb_decode
from .gf import _sub_rows_of
from .linalg import LinearSolver, Matrix
from .qpoly import QPoly, matrix_of, qpoly_rank


class InvalidInstanceError(ValueError):
    """The received word is not codeword + symmetric error for this code."""


def unfold(mat: Matrix) -> tuple:
    """Row-major flattening of a matrix into a length nrows*ncols vector."""
    return tuple(chain.from_iterable(mat.data))


def _fold(field, flat, n: int) -> Matrix:
    """The n x n matrix whose ``unfold`` is the first n^2 entries of
    ``flat``."""
    return Matrix(field, [flat[i * n:(i + 1) * n] for i in range(n)])


def _phi_upper(mat: Matrix) -> tuple:
    """Phi(mat) above the diagonal, mat[i][j] - mat[j][i] for i < j, row by
    row: row i right of the diagonal minus column i below it.  The rest of
    Phi(mat) is their negation (below) or zero (on the diagonal)."""
    sub = _sub_rows_of(mat.field)
    return tuple(chain.from_iterable(
        sub(row[i:], col[i:]) for i, (row, col)
        in enumerate(zip(mat.data, zip(*mat.data)), 1)))


def phi_qpoly(poly: QPoly, u: int) -> QPoly:
    """Phi(P) = P - P^(T,u); kernel = self-adjoint q-polynomials."""
    return poly - poly.adjoint(u)


class MatrixCode:
    """An F_q-linear space of n x n matrices given by independent generators."""

    __slots__ = ("field", "n", "generators", "dim", "_columns", "_entries")

    def __init__(self, generators):
        generators = list(generators)
        if not generators:
            raise ValueError("a matrix code needs at least one generator")
        first = generators[0]
        n = first.nrows
        if any(g.nrows != n or g.ncols != n for g in generators):
            raise ValueError("generators must all be square of equal size")
        stacked = Matrix(first.field, [unfold(g) for g in generators])
        if stacked.rank() != len(generators):
            raise ValueError("generators are F_q-dependent")
        self.field = first.field
        self.n = n
        self.generators = generators
        self.dim = len(generators)
        self._columns = stacked.transpose()  # n^2 x dim: coefficients -> unfold(word)
        # the field elements, 0..q-1: a packed product misreads any other int
        self._entries = frozenset(self.field.elements())

    def __repr__(self):
        return f"MatrixCode(n={self.n}, dim={self.dim} over F_{self.field.q})"

    def combine(self, coeffs) -> Matrix:
        """The word sum_i coeffs_i G_i; ValueError for a coefficient vector
        of another length than dim or with an entry outside 0..q-1."""
        if not self._entries.issuperset(coeffs):
            raise ValueError("coefficient outside 0..q-1")
        return _fold(self.field, self._columns.apply(coeffs), self.n)


def matrix_code_of(code: GabCode, setup: SymSetup) -> MatrixCode:
    """The matrix picture of a Gabidulin code in setup's orthonormal basis."""
    gens = []
    for i in range(code.k):
        for b in setup.basis:
            gens.append(matrix_of(QPoly.monomial(code.field, code.s + i, b), setup))
    return MatrixCode(gens)


class LowRateDecoder:
    """Worst-case decoder for symmetric errors of any rank, 0 through n.

    Requires C intersect Sym = 0.  One solver is factored per code, with a
    row per generator holding Phi of it above the diagonal; its rank is dim
    exactly when C intersect Sym = 0, so that one elimination is also the
    check, and its solves on the dim unit vectors are the rows of the left
    inverse G.  The solver has N = n(n-1)/2 columns, so a code of dimension
    above N always meets Sym and is refused by that count, with no
    elimination.  The n^2 x N matrix P = (coefficients -> word) G sends Phi(Y)
    above the diagonal to the codeword.  Phi is folded into it: the n^2 x n^2
    map M: unfold(Y) -> unfold(C) has column i n + j equal to column (i, j)
    of P for i < j, to its negation for i > j, and zero for i = j.  The
    decoder keeps one precomputed map per code, M stacked on I - M, which
    gives the codeword and the residual Y - C of a word in one
    ``Matrix.apply``.  A decode is the range check, that apply and the
    check that the residual is symmetric.
    """

    def __init__(self, code: MatrixCode):
        f, n = code.field, code.n
        solver = (LinearSolver(Matrix(f, [_phi_upper(g) for g in code.generators]))
                  if code.dim <= n * (n - 1) // 2 else None)
        if solver is None or solver.rank != code.dim:
            raise ValueError("code contains a nonzero symmetric matrix; "
                             "the symmetric-error decoder cannot apply")
        left_inverse = Matrix(f, [solver.solve(unit)
                                  for unit in Matrix.identity(f, code.dim).data])
        projection = code._columns @ left_inverse
        # entry i n + j of a row of M is entry k of (P row, -P row, 0): k is
        # the place of (i, j) in _phi_upper's order, N more for (j, i)
        upper = [(i, j) for i in range(n) for j in range(i + 1, n)]
        size = len(upper)
        place = {pair: k for k, pair in enumerate(upper)}
        place.update({(j, i): size + k for k, (i, j) in enumerate(upper)})
        picks = [place.get((i, j), 2 * size) for i in range(n) for j in range(n)]
        negate = partial(_sub_rows_of(f), [f.zero] * size)
        folded = Matrix(f, [[src[k] for k in picks] for src in (
            (*row, *negate(row), f.zero) for row in projection.data)])
        self.code = code
        self._map = Matrix(f, folded.data + (Matrix.identity(f, n * n) - folded).data)

    def decode(self, received: Matrix) -> tuple[Matrix, Matrix]:
        """(C_hat, E_hat) with received = C_hat + E_hat, E_hat symmetric.
        ValueError when ``received`` is not an n x n matrix over the code's
        field or has an entry outside 0..q-1."""
        f, n = self.code.field, self.code.n
        if received.field is not f or (received.nrows, received.ncols) != (n, n):
            raise ValueError("received word is not an n x n matrix over "
                             "the code's field")
        flat = unfold(received)
        if not self.code._entries.issuperset(flat):
            raise ValueError("received word has an entry outside 0..q-1")
        out = self._map.apply(flat)
        error = _fold(f, out[n * n:], n)
        if not error.is_symmetric():
            raise InvalidInstanceError(
                "residual is not symmetric: not a valid instance")
        return _fold(f, out, n), error


class HighRateDecoder:
    """Symmetric-error decoder for C = Gab_k o X^q with n/2 < k < n.

    Corrects every self-adjoint error of rank up to n-k-1 uniquely; at rank
    exactly n-k all valid decompositions are surfaced and the status is
    'ambiguous' when there is more than one.  A word with no such
    decomposition reports 'fail'.
    """

    def __init__(self, setup: SymSetup, k: int):
        n = setup.field.n
        if 2 * k <= n:
            raise ValueError(
                "k <= n/2: use LowRateDecoder (C intersect Sym = 0 regime)")
        if k >= n:
            raise ValueError("k must be < n")
        fld = setup.field
        self.setup = setup
        self.k = k
        self.n = n
        self.code = GabCode(fld, k, 1)
        self.reduced = GabCode(fld, 2 * k - n + 1, n - k)
        self.radius = n - k
        # u^(q^k - 1), the twist of the outermost pair (``_outer_pair``)
        self._twist = fld.div(fld.frobenius(setup.u, k), setup.u)
        # theta + theta^(q^(n/2)) = 1 splits the self-paired middle degree:
        # theta = a / (a + a^(q^(n/2))) for the first unit a where the sum is
        # nonzero.  For odd q that is a = 1, with sum 2; in characteristic 2
        # every a in F_q has sum 0, and the next unit, a = x (packed q),
        # generates F_(q^n) over F_q, so lies in no proper subfield
        self._theta = None
        if n % 2 == 0:
            a = fld.q if fld.p == 2 else fld.one
            self._theta = fld.div(a, fld.add(a, fld.frobenius(a, n // 2)))

    def _preimage(self, received: QPoly) -> QPoly:
        """A codeword C' with Phi(C') = Phi(received) (module docstring)."""
        fld = self.setup.field
        n, k = self.n, self.k
        d = phi_qpoly(received, self.setup.u).coeffs
        coeffs = [fld.zero] * n
        for j in range(1, k + 1):
            if j < n - k or 2 * j > n:
                coeffs[j] = d[j]
        if self._theta is not None:
            coeffs[n // 2] = fld.mul(self._theta, d[n // 2])
        return QPoly(fld, coeffs)

    def _outer_pair(self, low: int, high: int) -> bool:
        """Whether a candidate with c_(n-k) = low and c_k = high passes the
        outermost pair of the self-adjointness test:
        c_k = c_(n-k)^(q^k) u^(q^k - 1)."""
        fld = self.setup.field
        return high == fld.mul(fld.frobenius(low, self.k), self._twist)

    def decode(self, received: QPoly) -> DecodeReport:
        """ValueError when ``received`` is not over the code's field."""
        if received.field is not self.setup.field:
            raise ValueError("received word is not over the code's field")
        u = self.setup.u
        pre = self._preimage(received)
        rep = wb_decode(self.reduced, received - pre, self.radius,
                        keep=self._outer_pair)
        # every candidate that reaches here is self-adjoint (module
        # docstring), so its error received - (pre + c) is too
        survivors = [pre + c for c in rep.candidates]
        out = DecodeReport.of(received, survivors, None,
                              dict(rep.diagnostics, survivors=len(survivors)))
        if out.status != "ok":
            return out
        error = out.error
        rank = 0 if error.is_zero() else qpoly_rank(error)
        out.diagnostics["error_rank"] = rank
        if (not self.code.contains(out.codeword)
                or not error.is_self_adjoint(u) or rank > self.radius):
            raise ArithmeticError("decoder output failed verification")
        return out
