"""Gabidulin codes in q-polynomial form and rank-metric decoding.

Gab_k is the set of q-polynomials of q-degree below k; the shifted code
Gab_k o X^(q^s) shifts the support to degrees s..s+k-1.  Codewords are ring
elements; the rank weight of a word is the rank of the endomorphism it
induces, so classical vector codewords are recovered by evaluating on any
basis.

``wb_decode`` solves the key equation L o Y = N coefficient-wise.  For a
guessed error rank tp the unknown localiser (l_0..l_tp) must kill the
coefficients of L o Y at indices k+tp..n-1, an (n-k-tp) x (tp+1) linear
system over F_{q^n} (``_key_kernel``).  The radius t is at most (n-k)//2,
or (n-k)//2 + 1 when n-k is odd, so the decoder solves the system at most
twice, in two straight-line stages: at the unique radius
tu = min(t, (n-k)//2), then at t > tu when nothing was found:

  * at tu any single nonzero solution yields the unique codeword within tu
    if one exists (Loidreau's decoder), so only kern[0] is tested.  If
    Y = C + E with rank E = r <= tu, a kernel vector L has L o E of
    q-degree below k + tu; were it nonzero its rank would be at least
    n - k - tu + 1 > tu >= r, so L o E = 0 and L = M o Lambda_E with
    Lambda_E the subspace polynomial of Im E and deg M <= tu - r.  The
    kernel thus has dimension exactly tu - r + 1, which gives the error
    rank of the candidate without any further elimination.  A codeword
    found here ends the decode: any other one is at distance at least
    n - k + 1 - tu > t from Y;
  * at t = (n-k+1)/2 (n-k odd) every point that can yield a codeword is
    walked, since distinct solutions can encode distinct codewords.  The
    system has t - 1 rows and t + 1 unknowns, so its kernel has dimension
    at least 2.  A kernel [K1, K2] of dimension exactly 2 goes through the
    localiser pencil: one pass over F_{q^n} finds the members K1 + c K2
    (and K2) with a full root space of q^t elements, and only those, or
    those of them that the member hook of ``wb_decode`` keeps, are
    divided.  The members are F_q-linear, so the pass visits one point of
    each F_q-line, (q^n - 1)/(q - 1) points, and a full member has
    (q^t - 1)/(q - 1) root lines; the per-point sums and the ratio keys are
    list-wise ``gf`` operations.  This is exact on every field, with or
    without exp/log tables (a table-free field is slower, not less exact):
    no codeword lies within tu = t - 1 of Y, so a candidate C has an error
    of rank exactly t whose image lies in ker L, which then has dimension t.

The walked kernel has dimension at most 2 whenever a codeword lies within
t, so a kernel of dimension 3 or more divides nothing and reports 'fail',
which is then the exact answer.  The argument is the unique-radius one
above with the Moore matrix in place of the rank bound.  Let n - k = 2t - 1
and Y = C + E with deg_q C < k and rank E = r.  The walked kernel is
K = {L : deg_q L <= t, (L o Y)_j = 0 for k+t <= j < n}:

  * L o C has q-degree below k + t <= n, so K = {L : L o E in Gab_{k+t}};
  * L -> L o E is F_{q^n}-linear.  Its kernel is {M o Lambda_E :
    deg_q M <= t - r}, of dimension t - r + 1 (zero when r > t);
  * its image vanishes on ker E, of F_q-dimension n - r.  A Moore matrix
    on independent elements has full rank, so the members of Gab_{k+t}
    vanishing there form a space of dimension k + t - (n - r) = r - t + 1
    (for r >= t - 1);
  * the walk runs only when nothing lies within t - 1, so a codeword
    within t has r = t, and dim K <= 1 + 1 = 2.

No two walked members yield the same candidate either.  A member L that
divides cleanly into C kills E = Y - C, of rank exactly t, so L is a
scalar multiple of Lambda_E, and C determines L up to that scalar.
Distinct members of the pencil are not proportional, so the candidates
they yield are distinct and need no dedupe.

Every walked member divides cleanly (the exact-division lemma).  Let L be a
member, with q^t roots, and N = L o Y mod X^(q^n) - X, so deg_q N < k + t:

  * X^(q^n) - X is central in the ring of q-polynomials (unreduced), and
    L, a multiple of the subspace polynomial of its roots in F_{q^n},
    right-divides it: X^(q^n) - X = M o L.  Then L o M o L = M o L o L,
    and the ring has no zero divisors, so L o M = X^(q^n) - X as well;
  * L o Y - N is a multiple of the central X^(q^n) - X, so it is
    (X^(q^n) - X) o T = L o M o T for some T, and N = L o (Y - M o T)
    exactly;
  * so L left-divides N, and the quotient has q-degree deg_q N - t < k.

The walked stage therefore yields exactly one candidate per member it
divides, and ``walked`` (``wb_decode``), the count of divided members, is
also the count of candidates.  The division check below stays, since it is
what certifies each candidate.

A division check certifies the distance: when L o Y = L o C exactly with
deg_q C < k, the error Y - C satisfies L o (Y-C) = 0, so its image lies in
ker L and its rank is at most tp automatically.
"""

from __future__ import annotations

from collections import Counter
from functools import partial
from itertools import compress
from operator import not_
from dataclasses import dataclass, field as dc_field

from .gf import ExtField
from .linalg import Matrix, echelon_insert, xor_insert
from .qpoly import QPoly, _basis_images, trace_sum


class GabCode:
    """Gab_k o X^(q^s): span of X^(q^s), ..., X^(q^(s+k-1)) over F_{q^n}."""

    __slots__ = ("field", "k", "s", "n")

    def __init__(self, field: ExtField, k: int, s: int = 0):
        n = field.n
        if not 0 <= k <= n:
            raise ValueError(f"dimension k = {k} out of range 0..{n}")
        if not 0 <= s < n:
            raise ValueError(f"shift s = {s} out of range 0..{n - 1}")
        if k >= 1 and s + k - 1 >= n:
            raise ValueError("support s..s+k-1 must not wrap past n-1")
        self.field = field
        self.k = k
        self.s = s
        self.n = n

    def __repr__(self):
        return f"GabCode(q={self.field.q}, n={self.n}, k={self.k}, s={self.s})"

    def encode(self, message) -> QPoly:
        message = list(message)
        if len(message) != self.k:
            raise ValueError(f"message must have length k = {self.k}")
        coeffs = [self.field.zero] * self.n
        for i, m in enumerate(message):
            coeffs[self.s + i] = m
        return QPoly(self.field, coeffs)

    def contains(self, poly: QPoly) -> bool:
        lo, hi = self.s, self.s + self.k
        return all(c == 0 for i, c in enumerate(poly.coeffs) if not lo <= i < hi)


@dataclass
class DecodeReport:
    """Outcome of a decode attempt.

    status 'ok' carries the unique codeword and its error; 'ambiguous' lists
    every codeword found at minimal distance in ``candidates``; 'fail' means
    no codeword lies within the requested radius.  There is no other status.
    """

    status: str
    codeword: QPoly | None = None
    error: QPoly | None = None
    candidates: list[QPoly] = dc_field(default_factory=list)
    diagnostics: dict = dc_field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "codeword": self.codeword.to_json() if self.codeword else None,
            "error": self.error.to_json() if self.error else None,
            "candidates": [c.to_json() for c in self.candidates],
            "diagnostics": dict(self.diagnostics),
        }

    @classmethod
    def of(cls, received: QPoly, found: list[QPoly], rank: int | None,
           diagnostics: dict) -> "DecodeReport":
        """The report of a search that found ``found``: 'fail' for none,
        'ambiguous' for several, and 'ok' for one, with error =
        received - found[0].  The caller passes the rank of that error as
        ``rank``, or None to set it on the report itself; it becomes
        ``diagnostics["error_rank"]`` on 'ok' only."""
        if not found:
            return cls("fail", diagnostics=diagnostics)
        if len(found) > 1:
            return cls("ambiguous", candidates=found, diagnostics=diagnostics)
        diagnostics["error_rank"] = rank
        return cls("ok", found[0], received - found[0], found, diagnostics)


def _key_kernel(y0: QPoly, k: int, tp: int) -> list:
    """A basis of the localisers L = (l_0, ..., l_tp) that solve the key
    equation at radius tp: the kernel of the (n-k-tp) x (tp+1) system
    sum_i l_i Y_(j-i)^(q^i) = 0 (indices mod n) for j = k+tp..n-1 over
    F_{q^n}, which says (L o Y)_j = 0 there.  When n - k <= tp the system
    has no rows and every L solves it: the kernel of the empty system is the
    identity basis, unit vectors in order."""
    fld, n = y0.field, y0.field.n
    ys, frob = y0.coeffs, fld.frobenius
    return Matrix._shaped(fld, [[frob(ys[(j - i) % n], i) for i in range(tp + 1)]
                                for j in range(k + tp, n)], tp + 1).kernel()


def _composed(vec, y0: QPoly) -> tuple[QPoly, QPoly]:
    """The localiser L = sum_i vec[i] X^(q^i) and L o y0."""
    fld = y0.field
    loc = QPoly._of(fld, tuple(vec) + (fld.zero,) * (fld.n - len(vec)))
    return loc, loc.compose(y0)


def _try_localiser(loc: QPoly, num: QPoly, k: int) -> QPoly | None:
    """Divide N = L o Y by L; a clean quotient of q-degree < k is a codeword."""
    quot, rem = num.left_divide(loc)
    if rem.is_zero() and not any(quot.coeffs[k:]):
        return quot
    return None


def _tabulate(fld: ExtField, vec) -> list[int]:
    """The F_q-linear map L = sum_i vec[i] X^(q^i) at one point of each
    F_q-line of F_{q^n}: the x whose leading packed digit is 1, that is
    x in [q^j, 2 q^j) for j = 0..n-1, ascending, (q^n - 1)/(q - 1) values.

    The element d q^j + r (d in F_q, r < q^j) maps to d L(q^j) + L(r), so
    each block of q^j values is one ``add_each`` over the table of the
    elements below q^j.  That table covers all of F below q^(n-1); at the
    top only the d = 1 block is built.  The scalar multiple is a field
    ``mul``: at e > 1 the packed d is not d repeated additions.  The packed
    q^j is x^j, so the columns L(q^j) are the basis images of
    ``qpoly._basis_images``, read from the field's table of Frobenius logs."""
    add_each, mul, q, n = fld.add_each, fld.mul, fld.q, fld.n
    table = [0]     # L at every element below q^j
    lines = []
    for j, col in enumerate(_basis_images(QPoly(fld, vec))):
        lead = add_each(table, col)
        lines += lead
        if j < n - 1:
            blocks = [add_each(table, mul(d, col)) for d in range(2, q)]
            table += lead
            for block in blocks:
                table += block
    return lines


def _pencil_roots(fld: ExtField, kern: list[tuple], tp: int) -> list:
    """The full members of a 2-dimensional kernel [K1, K2], those whose
    localiser has q^tp roots: c for the member K1 + c K2, c ascending, then
    None for K2 when it is full.

    A nonzero x is a root of exactly one member: K1 + c K2 with
    c = -K1(x)/K2(x), or K2 when K2(x) = 0 != K1(x).  Roots of both K1 and
    K2 are roots of every member.  Every member is F_q-linear, so its
    roots form F_q-lines and the key is constant on each line; the pass
    therefore counts one point per line (``_tabulate``), and a full member
    has (q^tp - 1)/(q - 1) root lines, minus the lines common to K1 and K2.
    The keys are the ratios K1(x)/K2(x), from ``ExtField.div_many``; the
    root lines of K2, at most (q^tp - 1)/(q - 1), are counted apart."""
    k1, k2 = kern
    q = fld.q
    t1, t2 = _tabulate(fld, k1), _tabulate(fld, k2)
    counts = Counter(fld.div_many(compress(t1, t2), filter(None, t2)))
    on_k2 = list(compress(t1, map(not_, t2)))   # K1 on the root lines of K2
    common = on_k2.count(0)                     # root lines of both
    full = (q**tp - 1) // (q - 1) - common
    roots = sorted(fld.neg(r) for r, count in counts.items() if count == full)
    if len(on_k2) - common == full:
        roots.append(None)
    return roots


def _member(fld: ExtField, kern: list[tuple], c) -> list:
    """The pencil member K1 + c K2 of a kernel [K1, K2], or K2 for c None."""
    k1, k2 = kern
    if c is None:
        return list(k2)
    return [fld.add(a, fld.mul(c, b)) if b else a for a, b in zip(k1, k2)]


def _pencil_points(fld: ExtField, kern: list[tuple], tp: int):
    """The full members of the pencil (``_pencil_roots``), in its order."""
    return (_member(fld, kern, c) for c in _pencil_roots(fld, kern, tp))


def _pencil_members(kern: list[tuple], y0: QPoly, t: int) -> list:
    """The default ``members`` hook of ``wb_decode``: every full member L of
    the pencil (``_pencil_points``), composed once, as (L, L o y0)."""
    return [_composed(vec, y0) for vec in _pencil_points(y0.field, kern, t)]


def wb_decode(code: GabCode, received: QPoly, t: int,
              members=_pencil_members) -> DecodeReport:
    """All codewords within rank distance t of ``received``, for
    0 <= t <= (n-k)//2, or t = (n-k)//2 + 1 when n-k is odd, and t < n
    (ValueError otherwise, or when ``received`` is not over the code's
    field).

    Guaranteed single answer for t <= (n-k)//2, where one key equation at
    radius t is solved and its first kernel vector tested.  At
    t = (n-k)//2 + 1 a decode that found nothing within (n-k)//2 walks the
    key equation at t through the localiser pencil, which is exhaustive on
    every field; a kernel of dimension 3 or more there proves that no
    codeword lies within t, and the report is 'fail' (module docstring).

    ``diagnostics["kernel_dims"]`` lists the kernel dimension at the unique
    radius min(t, (n-k)//2), followed by that of the walked stage, if any.

    ``members(kern, y0, t)`` is the walked stage's hook, called on a walked
    kernel of dimension 2, with y0 = received o X^(q^(n-s)) (the code
    shifted back to support 0..k-1) and the radius.  It returns the pairs
    (L, L o y0) to divide, each L a full member of the pencil (q^t distinct
    roots), and ``diagnostics["walked"]`` is their count, the members
    divided.  The default, ``_pencil_members``, returns every full member;
    a hook may return only some of them, and the members it leaves out are
    neither divided nor counted.  Each member divides cleanly into a
    candidate of its own (module docstring), so ``walked`` is also the
    number of candidates.  The unique radius has no hook: a codeword found
    there is the only one within t.

    ``diagnostics["error_rank"]`` (on 'ok' only) is read off the stage that
    found the codeword: min(t, (n-k)//2) + 1 - kernel dimension at the
    unique radius, t at the walked stage.
    """
    if received.field is not code.field:
        raise ValueError("received word is not over the code's field")
    n, k, s = code.n, code.k, code.s
    half = (n - k) // 2
    top = min((n - k + 1) // 2, n - 1)
    if not 0 <= t <= top:
        raise ValueError(f"decoding radius t = {t} out of range 0..{top}")
    y0 = received.compose_monomial(n - s) if s else received

    tu = min(t, half)
    kern = _key_kernel(y0, k, tu)
    kernel_dims = [len(kern)]
    found = [c for c in (_try_localiser(*_composed(v, y0), k) for v in kern[:1])
             if c is not None]
    rank = tu + 1 - len(kern)
    pairs = []
    if not found and t > half:
        kern = _key_kernel(y0, k, t)
        kernel_dims.append(len(kern))
        # a kernel of dimension 3 or more: no codeword within t (module docstring)
        pairs = members(kern, y0, t) if len(kern) == 2 else []
        found = [c for c in (_try_localiser(loc, num, k) for loc, num in pairs)
                 if c is not None]
        rank = t

    if s:
        found = [c.compose_monomial(s) for c in found]
    return DecodeReport.of(received, found, rank, {
        "kernel_dims": kernel_dims,
        "walked": len(pairs),
        "error_rank": None,
    })


def _sample_independent(field: ExtField, count: int, rng) -> list[int]:
    """count elements of F_{q^n}, F_q-linearly independent, via rejection.

    A draw is kept when it lies outside the span of the picks so far, which
    one basis kept across the picks decides: over F_2 a packed element is
    its own coordinate row and the basis is an xor basis (``xor_insert``),
    otherwise an echelon of coordinate rows over F_q (``echelon_insert``).
    Each draw is reduced once.  The test is the rank test of the picks
    plus the draw, so the draws and the picks are those of a fresh rank per
    draw."""
    if count > field.n:
        raise ValueError("cannot pick more independent elements than n")
    basis: list = []
    if field.q == 2:
        outside = partial(xor_insert, basis)
    else:
        def outside(x):
            return echelon_insert(field.base, basis, field.coeffs(x))
    picked: list[int] = []
    while len(picked) < count:
        x = rng.randbelow(field.order)
        if outside(x):
            picked.append(x)
    return picked


def random_error(field: ExtField, t: int, rng) -> QPoly:
    """A q-polynomial of rank exactly t: E(x) = sum_j a_j Tr(b_j x), one
    ``trace_sum``, with {a_j} and {b_j} each independent.  The trace form is
    non-degenerate, so x -> (Tr(b_j x))_j maps onto F_q^t and the image is
    exactly span{a_j}, so its rank is exactly t."""
    if not 0 <= t <= field.n:
        raise ValueError(f"rank t = {t} out of range 0..{field.n}")
    avec = _sample_independent(field, t, rng)
    bvec = _sample_independent(field, t, rng)
    return trace_sum(field, avec, bvec)
