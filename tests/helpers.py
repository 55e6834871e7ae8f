"""Shared fixtures-by-function for the test suite: cached fields/setups and
seeded random object builders (kept deterministic via RngStream)."""

import itertools
from functools import lru_cache

from symrank import (DecodeReport, LowRateDecoder, Matrix, MatrixCode, QPoly, RngStream,
                     SymSetup, make_field, matrix_to_qpoly, qpoly_rank, random_matrix,
                     random_symmetric_matrix, wb_decode)
from symrank.channel import _RESAMPLE_CAP
from symrank.gf import _pow, _prime_factors
from symrank.linalg import _rref
from symrank.qpoly import trace_sum


@lru_cache(maxsize=None)
def get_field(p: int, e: int, n: int):
    return make_field(p, e, n)


@lru_cache(maxsize=None)
def get_setup(p: int, e: int, n: int) -> SymSetup:
    return SymSetup(get_field(p, e, n))


def field_size(field) -> int:
    return field.order


def rand_elt(field, rng: RngStream) -> int:
    return rng.randbelow(field_size(field))


def rand_unit(field, rng: RngStream) -> int:
    return 1 + rng.randbelow(field_size(field) - 1)


def rand_qpoly(field, rng: RngStream) -> QPoly:
    return QPoly(field, [rng.randbelow(field.order) for _ in range(field.n)])


def rand_nonzero_qpoly(field, rng: RngStream) -> QPoly:
    while True:
        poly = rand_qpoly(field, rng)
        if not poly.is_zero():
            return poly


def random_matrix_code(field, n: int, dim: int, rng: RngStream,
                       sym_free: bool = True) -> MatrixCode:
    """Random matrix code of the given F_q-dimension, resampled until the
    generators are independent (and, if requested, until the code is
    symmetric-free, which ``LowRateDecoder`` checks as it is built)."""
    max_dim = n * n - n * (n + 1) // 2
    if sym_free and dim > max_dim:
        raise ValueError(f"sym-free codes need dim <= n(n-1)/2 = {max_dim}")
    for _ in range(_RESAMPLE_CAP):
        gens = [random_matrix(field, n, n, rng) for _ in range(dim)]
        try:
            code = MatrixCode(gens)
            if sym_free:
                LowRateDecoder(code)
        except ValueError:
            continue
        return code
    raise ArithmeticError("matrix-code sampling exceeded the resample cap")


def selfadjoint_reference(r: int, setup: SymSetup, rng: RngStream) -> QPoly:
    """The self-adjoint error of rank r by the matrix route: the symmetric
    matrix M^T S M, pulled back through ``matrix_to_qpoly``.  The oracle for
    ``random_selfadjoint_qpoly``, which makes the same draws."""
    fld = setup.field
    return matrix_to_qpoly(random_symmetric_matrix(fld.base, fld.n, r, rng), setup)


def planted_alternating(setup: SymSetup, rng: RngStream, rank: int = 2) -> QPoly:
    """A self-adjoint error of even rank 2r that is alternating in
    characteristic 2: the q-polynomial of M^T S M with M a random 2r x n
    matrix of rank 2r and S the r blocks [[0, 1], [1, 0]] on the diagonal,
    so S M swaps the rows of M in pairs and the error is the sum over the
    pairs of alpha_2i Tr(u alpha_(2i+1) x) + alpha_(2i+1) Tr(u alpha_2i x)."""
    fld = setup.field
    while True:
        m = random_matrix(fld.base, rank, fld.n, rng)
        if m.rank() == rank:
            break
    alphas = [setup.from_coords(row) for row in m.data]
    return trace_sum(fld, alphas, [fld.mul(setup.u, alphas[j ^ 1]) for j in range(rank)])


def phi_matrix(mat):
    """Phi(M) = M - M^T; kernel = symmetric matrices, dim n(n+1)/2.  On the
    entrywise oracle ``ref_sub``, so it shares no code with ``Matrix``'s
    own difference."""
    return ref_sub(mat, mat.transpose())


def endo_matrix(poly):
    """Matrix of x -> P(x) over F_q in the polynomial basis 1, x, ...,
    x^(n-1), its rank the oracle for ``qpoly_rank``."""
    fld = poly.field
    return Matrix(fld.base, [fld.coeffs(poly.evaluate(fld.q**j))
                             for j in range(fld.n)]).transpose()


# Reference linear algebra on field operations only, one field call per
# term, for checking the packed F_2 rows, the xor and ``% p`` paths of
# ``Matrix`` and ``LinearSolver`` against something that does not share them.

def ref_rank(mat) -> int:
    return len(_rref(mat.field, [list(r) for r in mat.data], mat.ncols))


def ref_add(a, b):
    """a + b, one ``field.add`` per entry."""
    f = a.field
    return Matrix._shaped(f, [[f.add(x, y) for x, y in zip(ra, rb)]
                              for ra, rb in zip(a.data, b.data)], a.ncols)


def ref_sub(a, b):
    """a - b, one ``field.sub`` per entry."""
    f = a.field
    return Matrix._shaped(f, [[f.sub(x, y) for x, y in zip(ra, rb)]
                              for ra, rb in zip(a.data, b.data)], a.ncols)


def ref_apply(mat, vec) -> tuple:
    f = mat.field
    out = []
    for row in mat.data:
        acc = f.zero
        for a, x in zip(row, vec):
            acc = f.add(acc, f.mul(a, x))
        out.append(acc)
    return tuple(out)


def ref_solve(mat, b):
    """The solution of mat x = b with every free coordinate 0, or None when
    inconsistent: the same particular solution ``LinearSolver`` gives."""
    f, n = mat.field, mat.ncols
    rows = [list(r) + [bv] for r, bv in zip(mat.data, b)]
    pivots = _rref(f, rows, n)
    if any(row[n] != f.zero for row in rows[len(pivots):]):
        return None
    x = [f.zero] * n
    for r, c in pivots:
        x[c] = rows[r][n]
    return tuple(x)


def phi_upper_reference(mat) -> tuple:
    """Phi(mat) above the diagonal, row by row, read off ``phi_matrix``."""
    ph, n = phi_matrix(mat).data, mat.nrows
    return tuple(ph[i][j] for i in range(n) for j in range(i + 1, n))


def low_rate_projection(code):
    """The n^2 x N projection P = B G of the low-rate decoder, its map
    without the factor Phi: P Phi(Y) above the diagonal is the codeword
    part of Y.  Built on the oracles alone: the left inverse G of the rows
    Phi(g) above the diagonal, one ``ref_solve`` per unit vector, then
    P = (columns of the code) G by ``ref_apply``."""
    f = code.field
    system = Matrix(f, [phi_upper_reference(g) for g in code.generators])
    units = Matrix.identity(f, code.dim).data
    left_inverse = Matrix(f, [ref_solve(system, unit) for unit in units])
    return Matrix(f, [ref_apply(left_inverse.transpose(), row)
                      for row in code._columns.data])


def low_rate_reference(code, projection, received):
    """(codeword, error) of the low-rate decoder by its former route, or
    None where it raises InvalidInstanceError: Phi(Y) above the diagonal,
    the n^2 x N ``projection`` (``low_rate_projection``) on it, then the
    difference Y - C and its symmetry check."""
    n = code.n
    flat = ref_apply(projection, phi_upper_reference(received))
    codeword = Matrix(code.field, [flat[i * n:(i + 1) * n] for i in range(n)])
    error = ref_sub(received, codeword)
    return (codeword, error) if error.is_symmetric() else None


def high_rate_reference(dec, received):
    """``HighRateDecoder.decode`` composed from its parts with no test
    before the division: plain ``wb_decode`` of the residual, the
    ``is_self_adjoint`` filter, ``DecodeReport.of`` and the rank of an 'ok'
    error, which is the only report that carries one.  The decoder divides
    only the members whose candidate survives, so a walked decode reports
    the survivors as ``walked``, and any other decode 0.  The oracle for
    the decoder's outer-pair test."""
    u = dec.setup.u
    pre = dec._preimage(received)
    rep = wb_decode(dec.reduced, received - pre, dec.radius)
    survivors = [pre + c for c in rep.candidates if c.is_self_adjoint(u)]
    walked = len(survivors) if len(rep.diagnostics["kernel_dims"]) == 2 else 0
    out = DecodeReport.of(received, survivors, None, dict(
        rep.diagnostics, walked=walked, error_rank=None, survivors=len(survivors)))
    if out.status == "ok":
        error = out.error
        out.diagnostics["error_rank"] = 0 if error.is_zero() else qpoly_rank(error)
    return out


def projective_points(fld, kern):
    """One representative of each projective point of span(kern): first
    nonzero coordinate 1 (at ``lead``), the other coordinates over the
    packed field elements, the last one fastest.  The exhaustive walk of a
    localiser kernel, the oracle for the pencil."""
    for lead, base in enumerate(kern):
        for tail in itertools.product(range(fld.order),
                                      repeat=len(kern) - lead - 1):
            vec = list(base)
            for ci, kv in zip(tail, kern[lead + 1:]):
                if ci:
                    vec = [fld.add(v, fld.mul(ci, x)) for v, x in zip(vec, kv)]
            yield vec


def frobenius_trace(field, a: int) -> int:
    """Tr(a) = a + a^q + ... + a^(q^(n-1)) as the sum of its conjugates,
    each the Frobenius image of the one before: the oracle for the linear
    ``ExtField.trace``."""
    t = c = a
    for _ in range(1, field.n):
        c = field.frobenius(c)
        t = field.add(t, c)
    return t


def sample_independent_reference(field, count: int, rng) -> list[int]:
    """count F_q-independent elements of F_{q^n} by rejection, one fresh
    rank of every pick so far plus the candidate per draw, by ``ref_rank``
    so that no xor basis is shared: the oracle for
    ``gabidulin._sample_independent``, whose picks and stream use must
    equal these."""
    if count > field.n:
        raise ValueError("cannot pick more independent elements than n")
    picked: list[int] = []
    while len(picked) < count:
        x = rng.randbelow(field.order)
        rows = [field.coeffs(y) for y in picked + [x]]
        if ref_rank(Matrix(field.base, rows)) == len(rows):
            picked.append(x)
    return picked


# Polynomials over a field K as little-endian lists of packed K values, one
# field call per term: the oracle for the table-free product and inverse of
# ``gf._Field`` and, through ``_fq_divmod``, for Rabin's test.

def _fq_trim(u: list[int]) -> list[int]:
    while u and u[-1] == 0:
        u.pop()
    return u


def _fq_sub(base, u, v):
    out = [0] * max(len(u), len(v))
    for i, x in enumerate(u):
        out[i] = x
    for i, y in enumerate(v):
        out[i] = base.sub(out[i], y)
    return _fq_trim(out)


def _fq_mul(base, u, v):
    if not u or not v:
        return []
    out = [0] * (len(u) + len(v) - 1)
    for i, x in enumerate(u):
        if x:
            for j, y in enumerate(v):
                if y:
                    out[i + j] = base.add(out[i + j], base.mul(x, y))
    return _fq_trim(out)


def _fq_divmod(base, u, v):
    u = list(u)
    v = _fq_trim(list(v))
    if not v:
        raise ZeroDivisionError("polynomial division by zero")
    dv = len(v) - 1
    inv_lead = base.inv(v[-1])
    quo = [0] * max(len(u) - dv, 0)
    for i in range(len(u) - 1, dv - 1, -1):
        c = base.mul(u[i], inv_lead)
        if c:
            quo[i - dv] = c
            for j, vj in enumerate(v):
                u[i - dv + j] = base.sub(u[i - dv + j], base.mul(c, vj))
    return _fq_trim(quo), _fq_trim(u)


def _fq_invmod(base, u, m):
    # extended Euclid: s*u + t*m = gcd; returns s normalised so s*u = 1 mod m
    r0, r1 = _fq_trim(list(m)), _fq_divmod(base, list(u), m)[1]
    s0, s1 = [], [1]
    while r1:
        q, r = _fq_divmod(base, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _fq_sub(base, s0, _fq_mul(base, q, s1))
    if len(r0) != 1:
        raise ZeroDivisionError("element is not invertible modulo f")
    c = base.inv(r0[0])
    return _fq_trim([base.mul(c, x) for x in s0])


def irreducible_by_trial_division(base, poly) -> bool:
    """A monic ``poly`` of degree n >= 1 over ``base`` is irreducible iff no
    monic polynomial of degree 1..n//2 divides it.  The oracle for Rabin's
    test, one polynomial division per candidate divisor."""
    n = len(poly) - 1
    for d in range(1, n // 2 + 1):
        for low in itertools.product(range(base.order), repeat=d):
            if not _fq_divmod(base, list(poly), list(low) + [1])[1]:
                return False
    return n >= 1


def ref_exp_log_tables(order: int, mul) -> tuple[list[int], list[int]]:
    """Exp and log tables of the field of ``order`` elements with product
    ``mul``, built one element at a time: exp[i + 1] = exp[i] * g over the
    first generator g in packed order.  ``exp`` has length 2(order - 1).
    The oracle for ``gf._exp_log_tables``, one product per element."""
    units = order - 1
    factors = _prime_factors(units)
    gen = next(c for c in range(1, order)
               if all(_pow(mul, c, units // r) != 1 for r in factors))
    exp = []
    cur = 1
    for _ in range(units):
        exp.append(cur)
        cur = mul(cur, gen)
    assert cur == 1, "generator order mismatch"
    log = [-1] * order
    for i, x in enumerate(exp):
        log[x] = i
    return exp * 2, log
