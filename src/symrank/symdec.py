"""Decoders for symmetric errors of unrestricted rank.

Both decoders exploit the linear map Phi sending a word to the difference
with its transpose: symmetric errors vanish under Phi, so Phi(Y) only sees
the codeword part, which can be recovered linearly.

Low rate (matrix codes with C intersect Sym = 0, e.g. Gab_k o X^q with
k < n/2): Phi restricted to C is injective, so C_hat is the unique solution
of Phi|_C(X) = Phi(Y), whatever the error rank, even n.  Deterministic,
no radius argument at all.

High rate (Gabidulin, n/2 < k < n): Phi|_C has a kernel, so a preimage C' of
Phi(Y) is only determined up to C intersect Sym_u, a subspace contained in
span{X^(q^(n-k)), ..., X^(q^k)}, which is the shifted code
Gab_{2k-n+1} o X^(q^(n-k)).  One preimage has a closed form: with
D = Phi(Y), Phi(C)_j = c_j - c_(n-j)^(q^j) u^(q^j - 1) and D* = -D, so
c_j = D_j for 1 <= j < n-k and n/2 < j <= k, c_(n/2) = theta D_(n/2) with
theta + theta^(q^(n/2)) = 1 when n is even, and every other c_j = 0.  No
linear system is solved, and every word has a preimage.  The residual
Y - C' = S + E is then decoded by ``wb_decode`` at radius n-k, and
candidates are filtered by self-adjointness of the implied error.  Below the
boundary (rank <= n-k-1) the answer is provably unique; at rank exactly n-k
two valid decompositions can coexist and the report says so.  When the
localiser walk is cut at its cap the report is 'incomplete' with the
survivors found so far, never 'ok' or 'ambiguous'.
"""

from __future__ import annotations

from .bilinear import SymSetup
from .gabidulin import DecodeReport, GabCode, wb_decode
from .linalg import LinearSolver, Matrix
from .qpoly import QPoly, matrix_of, qpoly_rank


class InvalidInstanceError(ValueError):
    """The received word is not codeword + symmetric error for this code."""


def unfold(mat: Matrix) -> tuple:
    """Row-major flattening of a matrix into a length nrows*ncols vector."""
    return tuple(x for row in mat.data for x in row)


def phi_matrix(mat: Matrix) -> Matrix:
    """Phi(M) = M - M^T; kernel = symmetric matrices, dim n(n+1)/2."""
    return mat - mat.transpose()


def phi_qpoly(poly: QPoly, u: int) -> QPoly:
    """Phi(P) = P - P^(T,u); kernel = self-adjoint q-polynomials."""
    return poly - poly.adjoint(u)


class MatrixCode:
    """An F_q-linear space of n x n matrices given by independent generators."""

    __slots__ = ("field", "n", "generators", "dim")

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

    def __repr__(self):
        return f"MatrixCode(n={self.n}, dim={self.dim} over F_{self.field.q})"

    def combine(self, coeffs) -> Matrix:
        out = Matrix.zeros(self.field, self.n, self.n)
        for c, g in zip(coeffs, self.generators):
            if c:
                out = out + g.scale(c)
        return out


def matrix_code_of(code: GabCode, setup: SymSetup) -> MatrixCode:
    """The matrix picture of a Gabidulin code in setup's orthonormal basis."""
    gens = []
    for i in range(code.k):
        for b in setup.basis:
            gens.append(matrix_of(QPoly.monomial(code.field, code.s + i, b), setup))
    return MatrixCode(gens)


def check_sym_free(code: MatrixCode) -> bool:
    """True iff the only symmetric matrix in the code is zero."""
    stacked = Matrix(code.field, [unfold(phi_matrix(g)) for g in code.generators])
    return stacked.rank() == code.dim


class LowRateDecoder:
    """Worst-case decoder for symmetric errors of any rank, 0 through n.

    Requires C intersect Sym = 0.  Each decode is a pair of projections
    through a solver factored once per code.
    """

    def __init__(self, code: MatrixCode):
        if not check_sym_free(code):
            raise ValueError("code contains a nonzero symmetric matrix; "
                             "the symmetric-error decoder cannot apply")
        cols = [unfold(phi_matrix(g)) for g in code.generators]
        system = Matrix(code.field, [[col[r] for col in cols]
                                     for r in range(code.n * code.n)])
        self.code = code
        self._solver = LinearSolver(system)

    def decode(self, received: Matrix) -> tuple[Matrix, Matrix]:
        """(C_hat, E_hat) with received = C_hat + E_hat, E_hat symmetric."""
        coeffs = self._solver.solve(unfold(phi_matrix(received)))
        if coeffs is None:
            raise InvalidInstanceError(
                "Phi(Y) is outside Phi(C): not codeword + symmetric error")
        codeword = self.code.combine(coeffs)
        error = received - codeword
        if not error.is_symmetric():
            raise InvalidInstanceError(
                "residual is not symmetric: not a valid instance")
        return codeword, error


class HighRateDecoder:
    """Symmetric-error decoder for C = Gab_k o X^q with n/2 < k < n.

    Corrects every self-adjoint error of rank up to n-k-1 uniquely; at rank
    exactly n-k all valid decompositions are surfaced and the status is
    'ambiguous' when there is more than one, or 'incomplete' when the
    localiser walk was cut before all of them could be found.
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
        # theta + theta^(q^(n/2)) = 1 splits the self-paired middle degree
        self._theta = None
        if n % 2 == 0:
            for a in fld.units():
                den = fld.add(a, fld.frobenius(a, n // 2))
                if den:
                    self._theta = fld.div(a, den)
                    break

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

    def decode(self, received: QPoly) -> DecodeReport:
        u = self.setup.u
        pre = self._preimage(received)
        residual = received - pre
        rep = wb_decode(self.reduced, residual, self.radius)
        survivors: list[QPoly] = []
        seen: set[tuple] = set()
        for shift_part in rep.candidates:
            cand = pre + shift_part
            if cand.coeffs in seen:
                continue
            err = received - cand
            if err.is_self_adjoint(u):
                seen.add(cand.coeffs)
                survivors.append(cand)
        diagnostics = dict(rep.diagnostics)
        diagnostics["wb_status"] = rep.status
        diagnostics["survivors"] = len(survivors)
        if rep.status == "incomplete":
            return DecodeReport("incomplete", candidates=survivors,
                                diagnostics=diagnostics)
        if not survivors:
            return DecodeReport("fail", diagnostics=diagnostics)
        if len(survivors) == 1:
            codeword = survivors[0]
            error = received - codeword
            rank = 0 if error.is_zero() else qpoly_rank(error)
            if (not self.code.contains(codeword)
                    or not error.is_self_adjoint(u)
                    or rank > self.radius):
                raise ArithmeticError("decoder output failed verification")
            diagnostics["error_rank"] = rank
            return DecodeReport("ok", codeword, error, survivors, diagnostics)
        return DecodeReport("ambiguous", candidates=survivors,
                            diagnostics=diagnostics)
