"""Full decoder reports pinned: SHA-256 of every ``DecodeReport.to_json()``
(status, codeword, error, candidate order and diagnostics) over seeded
decodes, so a refactor of the decode path cannot change any of it unseen."""

import hashlib
import json

import pytest

from symrank import GabCode, HighRateDecoder, random_error, wb_decode
from helpers import get_field, get_setup
from symrank.channel import RngStream, random_codeword, random_selfadjoint_qpoly


def _digest(reports) -> str:
    lines = [json.dumps(rep.to_json(), sort_keys=True) for rep in reports]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


PINNED_WB = {
    (2, 6, 2):
        "0f331af2cd48157aa92c5a956d55bce00536b703bdc7e0696afcea2dbc9af1f7",
    (3, 5, 1):
        "ebb37b9bd3a6038f7b0536d10ece00a533c426fff760fbee0100aa5583299a68",
    (2, 7, 2):
        "1b9700374823d79e75008db5bae72f8fcf0cab5bcab0a569414d5341f347acc9",
    (3, 6, 1):
        "632ec93bc8f09037938dc737b336799b3c6c010337e63f2a76b25f56f6957474",
}


@pytest.mark.parametrize("p,n,k", sorted(PINNED_WB))
def test_wb_reports_pinned(p, n, k):
    # per accepted radius t (up to (n-k)//2, one more for odd n-k): two
    # words at error rank t, one at rank t + 1 (capped at n)
    f = get_field(p, 1, n)
    code = GabCode(f, k)
    rng = RngStream(101)
    reports = []
    for t in range((n - k + 1) // 2 + 1):
        for rank in (t, t, min(t + 1, n)):
            y = random_codeword(code, rng) + random_error(f, rank, rng)
            reports.append(wb_decode(code, y, t))
    assert _digest(reports) == PINNED_WB[(p, n, k)]


PINNED_HIGH = {
    (2, 6, 4):
        "87b5d9341fda1a9fd1bba8d4d1a8047fb78f7c64e3255ab6bf4ccc2293d928ae",
    (3, 5, 3):
        "fba6aee88afc3eaebe99f13dbf2d611389f20e81d264204e0791e16c97aed185",
    (2, 8, 6):
        "91a9c67a3ca590232ee1a1535e8ca3ab56d5bc9fa9e6ff9c24167059d236827e",
    (2, 10, 7):
        "20d6c63c16b419a317c3e1135cc1b843b50b9a32f69fafc002b8fa0c56c65590",
}


@pytest.mark.parametrize("p,n,k", sorted(PINNED_HIGH))
def test_high_rate_reports_pinned(p, n, k):
    st = get_setup(p, 1, n)
    dec = HighRateDecoder(st, k)
    rng = RngStream(103)
    reports = []
    for rank in range(dec.radius + 1):
        for _ in range(6):
            cw = random_codeword(dec.code, rng)
            reports.append(dec.decode(cw + random_selfadjoint_qpoly(rank, st, rng)))
    assert _digest(reports) == PINNED_HIGH[(p, n, k)]
