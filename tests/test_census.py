"""Census: every (q, n, k) that the library's constructors accept at small
sizes, decoded at every rank its decoder claims.

The fields are F_q for q in {2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 49}
with n <= 12 and q^n <= 2^13.  Each mode tries every k from -1 to n + 1 and
keeps those its constructors accept, so no parameter rule is restated here;
the tally of accepted codes and of outcomes is pinned per mode, so that a
re-seed or a moved rule cannot drop a case unseen.  Answers are checked with
the oracles of ``helpers`` (``endo_matrix``, ``ref_rank``), not with
``qpoly_rank``, which the decoders use themselves.

Two table-free codes over F_(2^17) add the standard radius and sym-high
below its boundary.  sym-low is left out there: its matrix code alone takes
seconds to build on that field.
"""

from collections import Counter

import pytest

from symrank import (GabCode, HighRateDecoder, LowRateDecoder,
                     RngStream, matrix_code_of, random_codeword, random_error,
                     random_selfadjoint_qpoly, random_symmetric_matrix, wb_decode)
from helpers import endo_matrix, get_field, get_setup, rand_qpoly, ref_rank

# (p, e) for q = 2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 49
TOWERS = ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1),
          (13, 1), (2, 4), (5, 2), (3, 3), (7, 2))
FIELDS = [(p, e, n) for p, e in TOWERS for n in range(1, 13)
          if (p**e)**n <= 1 << 13]
TRIALS = 2


def _accepted(build, n: int):
    """(k, built) for every k in -1..n+1 that ``build`` does not refuse."""
    for k in range(-1, n + 2):
        try:
            yield k, build(k)
        except ValueError:
            pass


def _rank(poly) -> int:
    return ref_rank(endo_matrix(poly))


def test_census_fields():
    assert len(FIELDS) == 58
    assert max(p**(e * n) for p, e, n in FIELDS) == 6561


def test_census_standard():
    tally = Counter()
    for p, e, n in FIELDS:
        field = get_field(p, e, n)
        rng = RngStream(p**e * 100 + n)
        for k, code in _accepted(lambda k: GabCode(field, k, 0), n):
            tally["codes"] += 1
            radius = (n - k) // 2
            for rank in range(radius + 1):
                for _ in range(TRIALS):
                    codeword = random_codeword(code, rng)
                    error = random_error(field, rank, rng)
                    rep = wb_decode(code, codeword + error, radius)
                    assert rep.status == "ok" and rep.codeword == codeword
                    assert rep.diagnostics["error_rank"] == _rank(rep.error) == rank
                    tally["ok"] += 1
    assert tally == {"codes": 265, "ok": 1088}


def test_census_sym_low():
    tally = Counter()
    for p, e, n in FIELDS:
        setup = get_setup(p, e, n)
        rng = RngStream(p**e * 100 + n)

        def build(k):
            return LowRateDecoder(matrix_code_of(GabCode(setup.field, k, 1), setup))
        for k, decoder in _accepted(build, n):
            tally["codes"] += 1
            mcode = decoder.code
            for rank in range(n + 1):
                for _ in range(TRIALS):
                    codeword = mcode.combine([rng.randbelow(mcode.field.q)
                                              for _ in range(mcode.dim)])
                    error = random_symmetric_matrix(setup.field.base, n, rank, rng)
                    assert ref_rank(error) == rank and error.is_symmetric()
                    assert decoder.decode(codeword + error) == (codeword, error)
                    tally["ok"] += 1
    assert tally == {"codes": 61, "ok": 952}


def _check_high(decoder, received, found):
    """Each decoded codeword lies in the code, with a self-adjoint error of
    rank at most n - k, by the oracles."""
    u = decoder.setup.u
    for codeword in found:
        error = received - codeword
        assert decoder.code.contains(codeword)
        assert error.is_self_adjoint(u)
        assert _rank(error) <= decoder.radius


def test_census_sym_high():
    tally = Counter()
    for p, e, n in FIELDS:
        setup = get_setup(p, e, n)
        rng = RngStream(p**e * 100 + n)
        for k, decoder in _accepted(lambda k: HighRateDecoder(setup, k), n):
            tally["codes"] += 1
            for rank in range(decoder.radius + 1):
                for _ in range(TRIALS):
                    codeword = random_codeword(decoder.code, rng)
                    error = random_selfadjoint_qpoly(rank, setup, rng)
                    received = codeword + error
                    rep = decoder.decode(received)
                    tally[rep.status, "below" if rank < decoder.radius
                          else "boundary"] += 1
                    if rank < decoder.radius or rep.status == "ok":
                        assert rep.status == "ok" and rep.codeword == codeword
                        assert rep.diagnostics["error_rank"] == _rank(rep.error) == rank
                    else:
                        assert rep.status == "ambiguous"
                        assert codeword in rep.candidates
                    _check_high(decoder, received, rep.candidates)
            for _ in range(TRIALS):
                received = rand_qpoly(setup.field, rng)
                rep = decoder.decode(received)
                tally[rep.status, "random"] += 1
                _check_high(decoder, received, rep.candidates)
    assert tally == {"codes": 61, ("ok", "below"): 224, ("ok", "boundary"): 106,
                     ("ambiguous", "boundary"): 16, ("ok", "random"): 68,
                     ("ambiguous", "random"): 4, ("fail", "random"): 50}


@pytest.mark.parametrize("mode,k", [("standard", 9), ("sym-high", 10)])
def test_census_table_free(mode, k):
    field = get_field(2, 1, 17)
    assert field._exp is None
    rng = RngStream(17)
    if mode == "standard":
        code = GabCode(field, k, 0)
        radius = (17 - k) // 2
        ranks = range(radius + 1)
        decode = lambda received: wb_decode(code, received, radius)
        sample = lambda rank: random_error(field, rank, rng)
    else:
        setup = get_setup(2, 1, 17)
        decoder = HighRateDecoder(setup, k)
        code = decoder.code
        ranks = range(decoder.radius)     # below the boundary
        decode = decoder.decode
        sample = lambda rank: random_selfadjoint_qpoly(rank, setup, rng)
    for rank in ranks:
        codeword = random_codeword(code, rng)
        rep = decode(codeword + sample(rank))
        assert rep.status == "ok" and rep.codeword == codeword
        assert rep.diagnostics["error_rank"] == _rank(rep.error) == rank
