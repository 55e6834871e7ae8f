"""Reproducible instance generation for decoder experiments.

``RngStream`` is a self-contained splitmix64 generator: identical seeds give
identical sequences on every platform and Python version, which the CSV
byte-identity guarantees depend on (the stdlib Mersenne Twister would work
too, but its state is heavyweight to fork per trial).  Trials use
``fork(index)`` so they are independent of execution order.

Error sampling: symmetric matrices of exact rank r come from M^T S M with M
a uniform full-row-rank r x n matrix and S a uniform invertible symmetric
r x r matrix (``_symmetric_factors``, by rejection).  The product has rank
r and the row space of M, and the pairs (M, S) giving one product form a
single GL_r orbit (M -> gM, S -> g^-T S g^-1), so every symmetric matrix of
rank r is drawn with the same probability: the sample is exactly uniform,
alternating matrices (zero diagonal, characteristic 2) included.
Self-adjoint q-polynomials are built from the same two factors in one
``trace_sum``, the q-polynomial of M^T S M in the orthonormal basis, with no
n x n product.  The rank of every sample is exact by construction (each
sampler's docstring has the proof), so no sampler ranks its own output;
tier-1 ranks the output of every sampler instead.
"""

from __future__ import annotations

from .bilinear import SymSetup
from .gf import BaseField
from .linalg import Matrix
from .qpoly import QPoly, trace_sum

_SPAN = 1 << 64
_MASK = _SPAN - 1
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
        """Uniform integer in [0, n), by rejection.  A candidate is one
        64-bit draw up to n = 2^64, and as many draws as n needs past it."""
        if n <= 0:
            raise ValueError("randbelow needs n >= 1")
        span = _SPAN
        while span < n:
            span <<= 64
        limit = span - span % n
        while True:
            x, drawn = self.next_u64(), _SPAN
            while drawn < span:
                x, drawn = (x << 64) | self.next_u64(), drawn << 64
            if x < limit:
                return x % n

    def fork(self, index: int) -> "RngStream":
        """Child stream determined by (seed, index), not by draws so far."""
        return RngStream(_mix((self.seed + (index + 1) * _GOLDEN) & _MASK))


def random_matrix(field: BaseField, nrows: int, ncols: int, rng: RngStream) -> Matrix:
    q = field.q
    return Matrix._shaped(field, [[rng.randbelow(q) for _ in range(ncols)]
                                  for _ in range(nrows)], ncols)


def _symmetric_factors(field: BaseField, n: int, r: int,
                       rng: RngStream) -> tuple[Matrix, Matrix]:
    """M (r x n, rank r) and S (r x r, symmetric, invertible) over F_q, by
    rejection; M^T S M is a symmetric matrix of rank exactly r.

    M has full row rank, so it maps F_q^n onto F_q^r, and S is invertible,
    so SM maps onto F_q^r too.  The image of M^T S M is therefore M^T F_q^r,
    which has dimension r because M^T has full column rank."""
    if not 0 <= r <= n:
        raise ValueError(f"rank r = {r} out of range 0..{n}")
    for _ in range(_RESAMPLE_CAP):
        m = random_matrix(field, r, n, rng)
        if m.rank() != r:
            continue
        entries = [[field.zero] * r for _ in range(r)]
        for i in range(r):
            for j in range(i, r):
                entries[i][j] = entries[j][i] = rng.randbelow(field.q)
        s = Matrix(field, entries)
        if s.rank() == r:
            return m, s
    raise ArithmeticError("symmetric sampling exceeded the resample cap")


def random_symmetric_matrix(field: BaseField, n: int, r: int,
                            rng: RngStream) -> Matrix:
    """Symmetric n x n matrix over F_q of rank exactly r: M^T S M from
    ``_symmetric_factors``, whose image M^T F_q^r has dimension r."""
    m, s = _symmetric_factors(field, n, r, rng)
    return m.transpose() @ s @ m


def random_selfadjoint_qpoly(r: int, setup: SymSetup, rng: RngStream) -> QPoly:
    """Self-adjoint q-polynomial of rank exactly r for setup's pairing: the
    q-polynomial of the symmetric matrix M^T S M in setup's orthonormal
    basis b, from the factors alone.

    Column j of M^T S M is the field element v_j = sum_a alpha_a (SM)_aj,
    with alpha_a the element of row a of M, and its q-polynomial is
    sum_j v_j Tr(u b_j x) (``matrix_to_qpoly``).  Tr is F_q-linear, so

        sum_j v_j Tr(u b_j x) = sum_a alpha_a Tr(u w_a x),

    with w_a = sum_j (SM)_aj b_j the element of row a of SM: one
    ``trace_sum`` of r terms.  Its draws are those of
    ``random_symmetric_matrix``, so both give the same error on one stream.
    It is the q-polynomial of a symmetric matrix of rank r, and ``matrix_of``
    is a ring isomorphism, so its rank is exactly r.
    """
    fld = setup.field
    m, s = _symmetric_factors(fld.base, fld.n, r, rng)
    return trace_sum(fld, [setup.from_coords(row) for row in m.data],
                     [fld.mul(setup.u, setup.from_coords(row))
                      for row in (s @ m).data])


def random_codeword(code, rng: RngStream) -> QPoly:
    fld = code.field
    return code.encode([rng.randbelow(fld.order) for _ in range(code.k)])

