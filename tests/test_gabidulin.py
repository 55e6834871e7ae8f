"""Gabidulin code tests: encoding, MRD property (exhaustive on tiny codes),
Welch-Berlekamp decoding in and past the unique-decoding radius, and the
planted-error generator."""

import itertools
import json

import pytest

from symrank import GabCode, QPoly, qpoly_rank, random_error, vector_form, wb_decode
from helpers import get_field, rand_elt
from symrank.channel import RngStream


def all_codewords(code):
    f = code.field
    for msg in itertools.product(f.elements(), repeat=code.k):
        yield code.encode(msg)


def rand_codeword(code, rng):
    return code.encode([rand_elt(code.field, rng) for _ in range(code.k)])


def test_code_validation():
    f = get_field(2, 1, 4)
    with pytest.raises(ValueError):
        GabCode(f, 5)
    with pytest.raises(ValueError):
        GabCode(f, 2, s=4)
    with pytest.raises(ValueError):
        GabCode(f, 3, s=2)  # support 2..4 wraps
    GabCode(f, 3, s=1)  # support 1..3 is fine
    assert GabCode(f, 2).min_distance == 3


def test_encode_message_roundtrip():
    f = get_field(3, 1, 4)
    code = GabCode(f, 2, s=1)
    rng = RngStream(3)
    for _ in range(30):
        msg = tuple(rand_elt(f, rng) for _ in range(2))
        cw = code.encode(msg)
        assert code.contains(cw)
        assert code.message_of(cw) == msg
    assert code.encode((0, 0)).is_zero()
    with pytest.raises(ValueError):
        code.message_of(QPoly.x(f))  # support {0} not in 1..2
    with pytest.raises(ValueError):
        code.encode((1,))


def test_encode_matches_moore_evaluation():
    # evaluating a codeword on a basis gives the classical Moore-style word
    f = get_field(2, 1, 4)
    code = GabCode(f, 2, s=1)
    basis = [f.from_coeffs([1 if i == j else 0 for i in range(4)]) for j in range(4)]
    rng = RngStream(5)
    msg = [rand_elt(f, rng) for _ in range(2)]
    cw = code.encode(msg)
    expect = tuple(
        f.add(f.mul(msg[0], f.frobenius(g, 1)), f.mul(msg[1], f.frobenius(g, 2)))
        for g in basis)
    assert vector_form(cw, basis) == expect


@pytest.mark.parametrize("p,n,k", [(2, 3, 1), (2, 3, 2), (2, 4, 2), (3, 3, 2)])
def test_mrd_exhaustive(p, n, k):
    f = get_field(p, 1, n)
    code = GabCode(f, k)
    d = code.min_distance
    ranks = {qpoly_rank(cw) for cw in all_codewords(code) if not cw.is_zero()}
    assert min(ranks) == d
    assert max(ranks) == n


def test_wb_noiseless_all_shifts():
    f = get_field(2, 1, 6)
    rng = RngStream(7)
    for s in range(5):
        code = GabCode(f, 2, s=s)
        cw = rand_codeword(code, rng)
        rep = wb_decode(code, cw, (code.n - code.k) // 2)
        assert rep.status == "ok"
        assert rep.codeword == cw
        assert rep.error.is_zero()


@pytest.mark.parametrize("p,n,k", [(2, 8, 2), (3, 6, 2), (2, 6, 3)])
def test_wb_unique_radius_recovery(p, n, k):
    f = get_field(p, 1, n)
    code = GabCode(f, k)
    half = (n - k) // 2
    rng = RngStream(11)
    for trial in range(25):
        t = rng.randbelow(half + 1)
        cw = rand_codeword(code, rng)
        err = random_error(f, t, rng)
        rep = wb_decode(code, cw + err, half)
        assert rep.status == "ok"
        assert rep.codeword == cw
        assert rep.error == err
        assert rep.diagnostics["error_rank"] == t


def test_wb_shifted_code_recovery():
    f = get_field(2, 1, 8)
    code = GabCode(f, 3, s=2)
    half = (code.n - code.k) // 2
    rng = RngStream(13)
    for _ in range(20):
        cw = rand_codeword(code, rng)
        err = random_error(f, half, rng)
        rep = wb_decode(code, cw + err, half)
        assert rep.status == "ok" and rep.codeword == cw


def test_wb_never_claims_beyond_radius():
    # garbage input: any 'ok'/'ambiguous' answer must still satisfy the
    # promised distance bound and code membership
    f = get_field(2, 1, 4)
    code = GabCode(f, 2)
    rng = RngStream(17)
    for _ in range(200):
        y = QPoly(f, [rand_elt(f, rng) for _ in range(4)])
        rep = wb_decode(code, y, 1)
        if rep.status == "fail":
            assert not rep.candidates
            continue
        for cand in rep.candidates or [rep.codeword]:
            assert code.contains(cand)
            assert qpoly_rank(y - cand) <= 1


def test_wb_exhaustive_agreement_with_nearest_codeword():
    # (q, n, k) = (2, 4, 2), t = 1: check against brute force over all 256
    # codewords for a sample of received words
    f = get_field(2, 1, 4)
    code = GabCode(f, 2)
    words = list(all_codewords(code))
    rng = RngStream(19)
    for _ in range(60):
        y = QPoly(f, [rand_elt(f, rng) for _ in range(4)])
        best = min(qpoly_rank(y - cw) for cw in words)
        nearest = [cw for cw in words if qpoly_rank(y - cw) == best]
        rep = wb_decode(code, y, 1)
        if best > 1:
            assert rep.status == "fail"
        elif len(nearest) == 1:
            assert rep.status == "ok"
            assert rep.codeword == nearest[0]
        else:
            assert rep.status == "ambiguous"
            assert set(rep.candidates) == set(nearest)


def test_wb_fail_status():
    f = get_field(2, 1, 4)
    code = GabCode(f, 1)
    rep = wb_decode(code, QPoly.monomial(f, 2), 0)
    assert rep.status == "fail"
    assert rep.codeword is None


def test_wb_truncated_walk_is_incomplete():
    # t = 2 > (n-k)//2 on Gab_1 over F_16: the last stage walks 17 localisers
    f = get_field(2, 1, 4)
    code = GabCode(f, 1)
    rng = RngStream(43)
    for _ in range(10):
        cw = rand_codeword(code, rng)
        y = cw + random_error(f, 2, rng)
        full = wb_decode(code, y, 2)
        assert not full.diagnostics["truncated"]
        assert full.status in ("ok", "ambiguous")
        assert cw in full.candidates
        cut = wb_decode(code, y, 2, max_candidates=4)
        assert cut.status == "incomplete"
        assert cut.diagnostics["truncated"]
        assert cut.diagnostics["walked"] == 4
        assert cut.codeword is None
        assert all(c in full.candidates for c in cut.candidates)


def test_wb_rejects_bad_radius():
    f = get_field(2, 1, 4)
    code = GabCode(f, 2)
    with pytest.raises(ValueError):
        wb_decode(code, QPoly.x(f), -1)


def test_decode_report_json():
    f = get_field(2, 1, 4)
    code = GabCode(f, 2)
    rep = wb_decode(code, QPoly.monomial(f, 1), 1)
    doc = rep.to_json()
    json.dumps(doc)
    assert doc["status"] == "ok"
    assert QPoly.from_json(f, doc["codeword"]) == rep.codeword
    assert QPoly.from_json(f, doc["error"]).is_zero()


@pytest.mark.parametrize("p,n", [(2, 6), (3, 4)])
def test_random_error_rank_exact(p, n):
    f = get_field(p, 1, n)
    rng = RngStream(23)
    for t in range(n + 1):
        for _ in range(200):
            err = random_error(f, t, rng)
            assert qpoly_rank(err) == t
    assert random_error(f, 0, rng).is_zero()
    with pytest.raises(ValueError):
        random_error(f, n + 1, rng)
