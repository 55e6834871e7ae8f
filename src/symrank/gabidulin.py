"""Gabidulin codes in q-polynomial form and rank-metric decoding.

Gab_k is the set of q-polynomials of q-degree below k; the shifted code
Gab_k o X^(q^s) shifts the support to degrees s..s+k-1.  Codewords are ring
elements; the rank weight of a word is the rank of the endomorphism it
induces, so classical vector codewords are recovered by evaluating on any
basis.

``wb_decode`` solves the key equation L o Y = N coefficient-wise.  For a
guessed error rank tp the unknown localiser (l_0..l_tp) must kill the
coefficients of L o Y at indices k+tp..n-1, an (n-k-tp) x (tp+1) linear
system over F_{q^n}.  The decoder climbs tp = 0, 1, ..., t, so candidates
appear ordered by distance from Y.  Every stage takes the projective points
of the localiser kernel in one fixed order (first nonzero coordinate 1, the
last coordinate fastest):

  * at tp <= (n-k)//2 any single nonzero solution already yields the unique
    codeword within tp if one exists, so only the first point is tested;
  * past that bound every point that can yield a new codeword is walked,
    since distinct solutions can encode distinct codewords.  A kernel of
    dimension 2 [K1, K2] on a field with exp/log tables goes through the
    localiser pencil: one pass over F_{q^n} finds the members K1 + c K2
    (and K2) with a full root space of q^tp elements, and only those are
    divided.  This is exact: when a walked stage starts, every codeword
    within tp - 1 of Y has been found (by unique decoding below the bound,
    by the earlier walked stages above it), so a new candidate C has an
    error of rank exactly tp whose image lies in ker L, which then has
    dimension tp.
    Larger kernels and table-free fields enumerate every point, capped; a
    cut walk reports 'incomplete';
  * after a stage that produced candidates, the ladder stops as soon as
    min_distance - tp > t, which certifies no further codeword can sit
    within radius t.

A division check replaces rank bookkeeping: when L o Y = L o C exactly with
deg_q C < k, the error Y - C satisfies L o (Y-C) = 0, so its image lies in
ker L and its rank is at most tp automatically.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field as dc_field

from .gf import ExtField
from .linalg import Matrix
from .qpoly import NEG_INF, QPoly, qpoly_rank


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

    @property
    def min_distance(self) -> int:
        """Minimum rank distance n - k + 1 (MRD)."""
        return self.n - self.k + 1

    def encode(self, message) -> QPoly:
        message = list(message)
        if len(message) != self.k:
            raise ValueError(f"message must have length k = {self.k}")
        coeffs = [self.field.zero] * self.n
        for i, m in enumerate(message):
            coeffs[self.s + i] = m
        return QPoly(self.field, coeffs)

    def message_of(self, codeword: QPoly) -> tuple[int, ...]:
        if not self.contains(codeword):
            raise ValueError("q-polynomial is not in the code")
        return tuple(codeword.coeffs[self.s:self.s + self.k])

    def contains(self, poly: QPoly) -> bool:
        lo, hi = self.s, self.s + self.k
        return all(c == 0 for i, c in enumerate(poly.coeffs) if not lo <= i < hi)


@dataclass
class DecodeReport:
    """Outcome of a decode attempt.

    status 'ok' carries the unique codeword and its error; 'ambiguous' lists
    every codeword found at minimal distance in ``candidates``; 'fail' means
    nothing decodable within the requested radius; 'incomplete' means an
    enumerated localiser walk (a kernel of dimension >= 3, or a field
    without exp/log tables) was cut at its cap (``diagnostics["truncated"]``),
    so ``candidates`` holds only what was found before the cut and may miss
    codewords, the sent one included.
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
    def of(cls, received: QPoly, found: list[QPoly],
           diagnostics: dict) -> "DecodeReport":
        """The report of a search that found ``found``: 'incomplete' when
        ``diagnostics["truncated"]``, else 'fail' for none, 'ambiguous' for
        several, and 'ok' for one, with error = received - found[0] and its
        rank in ``diagnostics["error_rank"]``."""
        if diagnostics["truncated"]:
            return cls("incomplete", candidates=found, diagnostics=diagnostics)
        if not found:
            return cls("fail", diagnostics=diagnostics)
        if len(found) > 1:
            return cls("ambiguous", candidates=found, diagnostics=diagnostics)
        error = received - found[0]
        diagnostics["error_rank"] = 0 if error.is_zero() else qpoly_rank(error)
        return cls("ok", found[0], error, found, diagnostics)


def _try_localiser(vec, received: QPoly, k: int) -> QPoly | None:
    """Divide L o Y by L; a clean quotient of q-degree < k is a codeword."""
    loc = QPoly(received.field, vec)
    quot, rem = loc.compose(received).left_divide(loc)
    if rem.is_zero() and quot.q_degree < k:
        return quot
    return None


def _axpy(fld: ExtField, vec: list, c: int, kv) -> list:
    """vec + c * kv coordinate-wise, in place; vec itself when c = 0."""
    if c:
        for pos, x in enumerate(kv):
            if x:
                vec[pos] = fld.add(vec[pos], fld.mul(c, x))
    return vec


def _projective_points(fld: ExtField, kern: list[tuple]):
    """One representative of each projective point of span(kern): first
    nonzero coordinate 1 (at ``lead``), the other coordinates over the
    packed field elements, the last one fastest.  The first point is
    kern[0]."""
    for lead, base in enumerate(kern):
        for tail in itertools.product(range(fld.order),
                                      repeat=len(kern) - lead - 1):
            vec = list(base)
            for ci, kv in zip(tail, kern[lead + 1:]):
                _axpy(fld, vec, ci, kv)
            yield vec


def _tabulate(fld: ExtField, vec) -> list[int]:
    """The F_q-linear map L = sum_i vec[i] X^(q^i) at every packed element
    of F_{q^n}.  The element d q^j + r (d in F_q, r < q^j) maps to
    d L(q^j) + L(r), so each entry past the first costs one add.  The
    scalar multiple is a field ``mul``: at e > 1 the packed d is not d
    repeated additions."""
    loc = QPoly(fld, vec)
    add, mul, q = fld.add, fld.mul, fld.q
    table = [0]
    for j in range(fld.n):
        col = loc.evaluate(q**j)
        block = len(table)
        for d in range(1, q):
            step = mul(d, col)
            table.extend([add(v, step) for v in table[:block]])
    return table


def _pencil_points(fld: ExtField, kern: list[tuple], tp: int):
    """The points of a 2-dimensional kernel [K1, K2] whose localiser has a
    full root space, q^tp roots, in the order of ``_projective_points``:
    K1 + c K2 for c ascending, then K2.  Needs exp/log tables.

    A nonzero x is a root of exactly one member: K1 + c K2 with
    c = -K1(x)/K2(x), or K2 when K2(x) = 0 != K1(x).  Roots of both K1 and
    K2 are roots of every member.  One pass over F_{q^n} counts each
    member's own roots, keyed by log K1(x) - log K2(x), or -1 for c = 0."""
    k1, k2 = kern
    log, exp = fld._log, fld._exp
    units = fld.order - 1
    common = only_k2 = 0    # roots of both (zero included), of K2 alone
    counts = Counter()
    for a, b in zip(_tabulate(fld, k1), _tabulate(fld, k2)):
        if b:
            counts[(log[a] - log[b]) % units if a else -1] += 1
        elif a:
            only_k2 += 1
        else:
            common += 1
    full = fld.q**tp - common
    for c in sorted(0 if key < 0 else fld.neg(exp[key])
                    for key, count in counts.items() if count == full):
        yield _axpy(fld, list(k1), c, k2)
    if only_k2 == full:
        yield list(k2)


def wb_decode(code: GabCode, received: QPoly, t: int,
              max_candidates: int = 1024) -> DecodeReport:
    """All codewords within rank distance t of ``received``.

    Guaranteed single answer for t <= (n-k)//2, where each stage tests the
    first projective point of its localiser kernel.  Beyond that the stage
    is walked (module docstring): a kernel of dimension 2 on a field with
    exp/log tables through the pencil, which is exhaustive and never cut;
    any other kernel by enumerating its points, at most ``max_candidates``
    localisers over all enumerated stages, and a walk cut at the cap
    reports 'incomplete'.  ``diagnostics["walked"]`` counts the localisers
    divided at walked stages, on either path.
    """
    if t < 0:
        raise ValueError("decoding radius t must be >= 0")
    fld = code.field
    n, k, s = code.n, code.k, code.s
    y0 = received.compose_monomial(n - s) if s else received
    ycoeffs = y0.coeffs
    half = (n - k) // 2
    d_min = n - k + 1
    t_eff = min(t, n)
    frob = fld.frobenius

    found: list[QPoly] = []
    kernel_dims: list[int] = []
    walked = 0
    enumerated = 0      # localisers of capped walks, within max_candidates
    truncated = False

    for tp in range(t_eff + 1):
        rows = n - k - tp
        if rows > 0:
            sys_rows = [[frob(ycoeffs[(j - i) % n], i) for i in range(tp + 1)]
                        for j in range(k + tp, n)]
            kern = Matrix(fld, sys_rows).kernel()
        else:
            kern = Matrix.identity(fld, tp + 1).data
        kernel_dims.append(len(kern))
        walk = tp > half
        pencil = walk and len(kern) == 2 and fld._exp is not None
        if pencil:
            points = _pencil_points(fld, kern, tp)
        else:
            points = itertools.islice(_projective_points(fld, kern),
                                      None if walk else 1)
        for vec in points:
            if walk and not pencil:
                if enumerated >= max_candidates:
                    truncated = True
                    break
                enumerated += 1
            walked += walk
            cand = _try_localiser(vec, y0, k)
            if cand is not None and cand not in found:
                found.append(cand)
        if found and d_min - tp > t:
            break

    if s:
        found = [c.compose_monomial(s) for c in found]
    return DecodeReport.of(received, found, {
        "kernel_dims": kernel_dims,
        "walked": walked,
        "truncated": truncated,
        "error_rank": None,
    })


def _sample_independent(field: ExtField, count: int, rng) -> list[int]:
    """count elements of F_{q^n}, F_q-linearly independent, via rejection."""
    if count > field.n:
        raise ValueError("cannot pick more independent elements than n")
    picked: list[int] = []
    while len(picked) < count:
        x = rng.randbelow(field.order)
        rows = [field.coeffs(y) for y in picked + [x]]
        if Matrix(field.base, rows).rank() == len(rows):
            picked.append(x)
    return picked


def random_error(field: ExtField, t: int, rng) -> QPoly:
    """A q-polynomial of rank exactly t: E(x) = sum_j a_j Tr(b_j x) with
    {a_j} and {b_j} each independent, so the image is exactly span{a_j}."""
    if not 0 <= t <= field.n:
        raise ValueError(f"rank t = {t} out of range 0..{field.n}")
    if t == 0:
        return QPoly.zero(field)
    avec = _sample_independent(field, t, rng)
    bvec = _sample_independent(field, t, rng)
    coeffs = []
    for i in range(field.n):
        acc = field.zero
        for a, b in zip(avec, bvec):
            acc = field.add(acc, field.mul(a, field.frobenius(b, i)))
        coeffs.append(acc)
    err = QPoly(field, coeffs)
    if qpoly_rank(err) != t:
        raise ArithmeticError("rank construction failed (impossible)")
    return err
