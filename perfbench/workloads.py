"""The four decode workloads: codes, error ranks, sampling, decoding, judging.

A workload is a fixed list of codes (q, n, k) with the error ranks each
code draws.  One *pass* is a fixed list of trials; trial i draws its
instance from ``RngStream(seed).fork(i)``, so a seed fixes the whole pass.

Every library call goes through a module attribute looked up at call time
(``gabidulin.wb_decode``, ``channel.random_selfadjoint_qpoly``, ...), so the
traced run can swap in wrappers without touching the library.

The judge checks each decoder output against the trial's own instance and
never trusts the decoder's self-verification.  It sorts a failed trial into
exactly one category:

  exception  the decoder raised
  truncated  the report says its localiser walk was cut (``truncated=True``)
  fail       the decoder reported ``fail``
  wrong      an answer that is wrong or invalid for the instance

A ``wrong`` answer also makes the whole run incorrect: the decoders promise
never to give one.
"""

from __future__ import annotations

from dataclasses import dataclass

from symrank import bilinear, channel, gabidulin, gf, qpoly, symdec

class _Case:
    """One code of a workload, built once per set-up."""

    wb_per_decode = 1   # wb_decode calls one decode makes

    def __init__(self, p: int, n: int, k: int):
        self.p, self.n, self.k = p, n, k
        self.label = f"q{p}n{n}k{k}"
        self.field = gf.make_field(p, 1, n)


class StandardCase(_Case):
    """wb_decode on Gab_k at the unique-decoding radius (n-k)//2."""

    def __init__(self, p, n, k):
        super().__init__(p, n, k)
        self.code = gabidulin.GabCode(self.field, k, 0)
        self.radius = (n - k) // 2

    def sample(self, rank, rng):
        sent = channel.random_codeword(self.code, rng)
        return sent, sent + gabidulin.random_error(self.field, rank, rng)

    def decode(self, received):
        return gabidulin.wb_decode(self.code, received, self.radius)

    def within(self, received, cand) -> bool:
        err = received - cand
        return (self.code.contains(cand)
                and (err.is_zero() or qpoly.qpoly_rank(err) <= self.radius))

    def judge(self, sent, received, rep):
        return _judge_report(self, sent, received, rep)


class SymHighCase(_Case):
    """HighRateDecoder on Gab_k o X^q, n/2 < k < n, self-adjoint errors."""

    def __init__(self, p, n, k):
        super().__init__(p, n, k)
        self.setup = bilinear.SymSetup(self.field)
        self.decoder = symdec.HighRateDecoder(self.setup, k)
        self.code = self.decoder.code
        self.radius = self.decoder.radius

    def sample(self, rank, rng):
        sent = channel.random_codeword(self.code, rng)
        err = channel.random_selfadjoint_qpoly(rank, self.setup, rng)
        return sent, sent + err

    def decode(self, received):
        return self.decoder.decode(received)

    def within(self, received, cand) -> bool:
        err = received - cand
        return (self.code.contains(cand)
                and err.is_self_adjoint(self.setup.u)
                and (err.is_zero() or qpoly.qpoly_rank(err) <= self.radius))

    def judge(self, sent, received, rep):
        return _judge_report(self, sent, received, rep)


class SymLowCase(_Case):
    """LowRateDecoder on the matrix picture of Gab_k o X^q, k <= n/2."""

    wb_per_decode = 0

    def __init__(self, p, n, k):
        super().__init__(p, n, k)
        self.setup = bilinear.SymSetup(self.field)
        gab = gabidulin.GabCode(self.field, k, 1)
        self.code = symdec.matrix_code_of(gab, self.setup)
        self.decoder = symdec.LowRateDecoder(self.code)

    def sample(self, rank, rng):
        base = self.field.base
        sent = self.code.combine([rng.randbelow(base.q)
                                  for _ in range(self.code.dim)])
        err = channel.random_symmetric_matrix(base, self.n, rank, rng)
        return sent, sent + err

    def decode(self, received):
        return self.decoder.decode(received)

    def judge(self, sent, received, out):
        chat, ehat = out
        record = ("ok", chat.data)
        if chat == sent and ehat.is_symmetric() and chat + ehat == received:
            return None, record
        return "wrong", record


def _judge_report(case, sent, received, rep):
    """Category (None when correct) and digest record of a DecodeReport."""
    cands = tuple(sorted(c.coeffs for c in rep.candidates))
    record = (rep.status, rep.codeword.coeffs if rep.codeword else None, cands)
    if rep.diagnostics.get("truncated"):
        return "truncated", record
    if rep.status == "fail":
        return "fail", record
    if rep.status == "ok":
        good = rep.codeword == sent and rep.error == received - sent
    elif rep.status == "ambiguous":
        good = (sent.coeffs in cands and len(set(cands)) == len(cands)
                and all(case.within(received, c) for c in rep.candidates))
    else:
        good = False
    return (None if good else "wrong"), record


@dataclass(frozen=True)
class Workload:
    name: str
    case: type
    codes: tuple          # ((p, n, k), ...)
    ranks: object         # (n, k) -> iterable of error ranks
    repeats: int          # trials per (code, rank) in one pass

    def plan(self) -> list[tuple[int, int]]:
        """The pass: (code index, rank) per trial, codes interleaved."""
        return [(ci, rank)
                for _ in range(self.repeats)
                for ci, (_, n, k) in enumerate(self.codes)
                for rank in self.ranks(n, k)]

    def build(self) -> list:
        return [self.case(p, n, k) for p, n, k in self.codes]


WORKLOADS = {w.name: w for w in (
    Workload("standard", StandardCase, ((2, 8, 4), (3, 6, 2), (2, 16, 8)),
             lambda n, k: range((n - k) // 2 + 1), 200),
    Workload("sym-low", SymLowCase, ((2, 8, 3), (3, 5, 2), (2, 10, 4)),
             lambda n, k: range(n + 1), 30),
    Workload("sym-high", SymHighCase, ((2, 8, 6), (3, 6, 4), (2, 10, 7)),
             lambda n, k: range(n - k), 180),
    Workload("sym-high-boundary", SymHighCase, ((2, 8, 6), (3, 6, 4), (2, 10, 7)),
             lambda n, k: (n - k,), 12),
)}
