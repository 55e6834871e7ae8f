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
appear ordered by distance from Y:

  * at tp <= (n-k)//2 any single nonzero solution already yields the unique
    codeword within tp if one exists, so one kernel vector is tested;
  * past that bound all projective representatives of the kernel are walked
    (capped; a cut walk reports 'incomplete'), since distinct solutions can
    encode distinct codewords;
  * after a stage that produced candidates, the ladder stops as soon as
    min_distance - tp > t, which certifies no further codeword can sit
    within radius t.

A division check replaces rank bookkeeping: when L o Y = L o C exactly with
deg_q C < k, the error Y - C satisfies L o (Y-C) = 0, so its image lies in
ker L and its rank is at most tp automatically.
"""

from __future__ import annotations

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

    def generators(self) -> list[QPoly]:
        """F_{q^n}-basis of the code: the monic monomials of its support."""
        return [QPoly.monomial(self.field, self.s + i) for i in range(self.k)]


@dataclass
class DecodeReport:
    """Outcome of a decode attempt.

    status 'ok' carries the unique codeword and its error; 'ambiguous' lists
    every codeword found at minimal distance in ``candidates``; 'fail' means
    nothing decodable within the requested radius; 'incomplete' means the
    localiser walk was cut at its cap (``diagnostics["truncated"]``), so
    ``candidates`` holds only what was found before the cut and may miss
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


def _try_localiser(vec, received: QPoly, k: int) -> QPoly | None:
    """Divide L o Y by L; a clean quotient of q-degree < k is a codeword."""
    fld = received.field
    loc = QPoly(fld, vec)
    if loc.is_zero():
        return None
    quot, rem = loc.compose(received).left_divide(loc)
    if rem.is_zero() and quot.q_degree < k:
        return quot
    return None


def wb_decode(code: GabCode, received: QPoly, t: int,
              max_candidates: int = 1024) -> DecodeReport:
    """All codewords within rank distance t of ``received``.

    Guaranteed single answer for t <= (n-k)//2; beyond that every candidate
    is collected (projective kernel walk, deterministic order, capped at
    ``max_candidates`` localisers in all); a walk cut at the cap reports
    'incomplete'.
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
    seen: set[tuple] = set()
    kernel_dims: list[int] = []
    walked = 0
    truncated = False

    for tp in range(t_eff + 1):
        rows = n - k - tp
        if rows > 0:
            sys_rows = [[frob(ycoeffs[(j - i) % n], i) for i in range(tp + 1)]
                        for j in range(k + tp, n)]
            kern = Matrix(fld, sys_rows).kernel()
        else:
            kern = [tuple(fld.one if i == j else fld.zero for i in range(tp + 1))
                    for j in range(tp + 1)]
        kernel_dims.append(len(kern))
        if kern:
            if tp <= half:
                cand = _try_localiser(kern[0], y0, k)
                if cand is not None and cand.coeffs not in seen:
                    seen.add(cand.coeffs)
                    found.append(cand)
            else:
                dim = len(kern)
                for lead in range(dim):
                    if truncated:
                        break
                    # representatives with first nonzero coordinate 1 at `lead`
                    tail = dim - lead - 1
                    stack = [fld.zero] * tail
                    while True:
                        if walked >= max_candidates:
                            truncated = True
                            break
                        combo = [fld.zero] * lead + [fld.one] + list(stack)
                        vec = [fld.zero] * (tp + 1)
                        for ci, kv in zip(combo, kern):
                            if ci:
                                for pos, x in enumerate(kv):
                                    if x:
                                        vec[pos] = fld.add(vec[pos], fld.mul(ci, x))
                        walked += 1
                        cand = _try_localiser(vec, y0, k)
                        if cand is not None and cand.coeffs not in seen:
                            seen.add(cand.coeffs)
                            found.append(cand)
                        # odometer over the tail coordinates (packed 0..order-1)
                        pos = tail - 1
                        while pos >= 0:
                            if stack[pos] + 1 < fld.order:
                                stack[pos] += 1
                                break
                            stack[pos] = fld.zero
                            pos -= 1
                        if pos < 0:
                            break
        if found and d_min - tp > t:
            break

    diagnostics = {
        "kernel_dims": kernel_dims,
        "walked": walked,
        "truncated": truncated,
        "error_rank": None,
    }
    if s:
        found = [c.compose_monomial(s) for c in found]
    if truncated:
        return DecodeReport("incomplete", candidates=found,
                            diagnostics=diagnostics)
    if not found:
        return DecodeReport("fail", diagnostics=diagnostics)
    if len(found) == 1:
        codeword = found[0]
        error = received - codeword
        diagnostics["error_rank"] = 0 if error.is_zero() else qpoly_rank(error)
        return DecodeReport("ok", codeword, error, found, diagnostics)
    return DecodeReport("ambiguous", candidates=found, diagnostics=diagnostics)


def _sample_independent(field: ExtField, count: int, rng) -> list[int]:
    """count elements of F_{q^n}, F_q-linearly independent, via rejection."""
    if count > field.n:
        raise ValueError("cannot pick more independent elements than n")
    picked: list[int] = []
    echelon: list[tuple[int, tuple[int, ...]]] = []  # (pivot index, reduced row)
    while len(picked) < count:
        x = rng.randbelow(field.order)
        row = list(field.coeffs(x))
        for pivot, basis_row in echelon:
            c = row[pivot]
            if c:
                row = [field.base.sub(a, field.base.mul(c, b))
                       for a, b in zip(row, basis_row)]
        pivot = next((i for i, a in enumerate(row) if a), -1)
        if pivot < 0:
            continue
        inv = field.base.inv(row[pivot])
        row = tuple(field.base.mul(inv, a) for a in row)
        echelon.append((pivot, row))
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
