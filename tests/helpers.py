"""Shared fixtures-by-function for the test suite: cached fields/setups and
seeded random object builders (kept deterministic via RngStream)."""

import itertools
from functools import lru_cache

from symrank import QPoly, RngStream, SymSetup, make_field
from symrank.gf import _fq_divmod, _pow, _prime_factors
from symrank.linalg import _rref


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


# Reference linear algebra on field operations only, one field call per
# term, for checking the packed F_2 paths of ``Matrix`` and ``LinearSolver``
# against something that does not share them.

def ref_rank(mat) -> int:
    return len(_rref(mat.field, [list(r) for r in mat.data], mat.ncols))


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
