"""Reproducible instance generation for decoder experiments.

``RngStream`` is a self-contained splitmix64 generator: identical seeds give
identical sequences on every platform and Python version, which the CSV
byte-identity guarantees depend on (the stdlib Mersenne Twister would work
too, but its state is heavyweight to fork per trial).  Trials use
``fork(index)`` so they are independent of execution order.

Error sampling: symmetric matrices of exact rank r come from M^T S M with M
a uniform full-row-rank r x n matrix and S a uniform invertible symmetric
r x r matrix.  The product has rank r and the row space of M, and the pairs
(M, S) giving one product form a single GL_r orbit (M -> gM,
S -> g^-T S g^-1), so every symmetric matrix of rank r is drawn with the
same probability: the sample is exactly uniform, alternating matrices
(zero diagonal, characteristic 2) included.  The rank is verified anyway
and resampled on the remote chance of a bug.  Self-adjoint q-polynomials
are symmetric matrices pulled back through the orthonormal-basis
representation.
"""

from __future__ import annotations

from .bilinear import SymSetup
from .gf import BaseField
from .linalg import Matrix
from .qpoly import QPoly, matrix_to_qpoly
from .symdec import MatrixCode, check_sym_free

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_RESAMPLE_CAP = 1000


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


class RngStream:
    """Deterministic splitmix64 stream with cheap per-trial forking."""

    __slots__ = ("seed", "_state")

    def __init__(self, seed: int):
        self.seed = seed & _MASK
        self._state = self.seed

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK
        return _mix(self._state)

    def randbelow(self, n: int) -> int:
        """Uniform integer in [0, n), by rejection."""
        if n <= 0:
            raise ValueError("randbelow needs n >= 1")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            x = self.next_u64()
            if x < limit:
                return x % n

    def fork(self, index: int) -> "RngStream":
        """Child stream determined by (seed, index), not by draws so far."""
        return RngStream(_mix((self.seed + (index + 1) * _GOLDEN) & _MASK))


def random_matrix(field: BaseField, nrows: int, ncols: int, rng: RngStream) -> Matrix:
    q = field.q
    return Matrix(field, [[rng.randbelow(q) for _ in range(ncols)]
                          for _ in range(nrows)])


def random_symmetric_matrix(field: BaseField, n: int, r: int,
                            rng: RngStream) -> Matrix:
    """Symmetric n x n matrix over F_q of rank exactly r."""
    if not 0 <= r <= n:
        raise ValueError(f"rank r = {r} out of range 0..{n}")
    if r == 0:
        return Matrix.zeros(field, n, n)
    q = field.q
    for _ in range(_RESAMPLE_CAP):
        m = random_matrix(field, r, n, rng)
        if m.rank() != r:
            continue
        entries = [[field.zero] * r for _ in range(r)]
        for i in range(r):
            for j in range(i, r):
                v = rng.randbelow(q)
                entries[i][j] = v
                entries[j][i] = v
        s = Matrix(field, entries)
        if s.rank() != r:
            continue
        out = m.transpose() @ s @ m
        if out.rank() == r:
            return out
    raise ArithmeticError("symmetric sampling exceeded the resample cap")


def random_selfadjoint_qpoly(r: int, setup: SymSetup, rng: RngStream) -> QPoly:
    """Self-adjoint q-polynomial of rank exactly r for setup's pairing."""
    mat = random_symmetric_matrix(setup.field.base, setup.field.n, r, rng)
    return matrix_to_qpoly(mat, setup)


def random_codeword(code, rng: RngStream) -> QPoly:
    fld = code.field
    return code.encode([rng.randbelow(fld.order) for _ in range(code.k)])


def random_matrix_code(field: BaseField, n: int, dim: int, rng: RngStream,
                       sym_free: bool = True) -> MatrixCode:
    """Random matrix code of the given F_q-dimension, resampled until the
    generators are independent (and the code symmetric-free if requested)."""
    max_dim = n * n - n * (n + 1) // 2
    if sym_free and dim > max_dim:
        raise ValueError(f"sym-free codes need dim <= n(n-1)/2 = {max_dim}")
    for _ in range(_RESAMPLE_CAP):
        gens = [random_matrix(field, n, n, rng) for _ in range(dim)]
        try:
            code = MatrixCode(gens)
        except ValueError:
            continue
        if sym_free and not check_sym_free(code):
            continue
        return code
    raise ArithmeticError("matrix-code sampling exceeded the resample cap")
