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
        "5a42ef438a5899fe912537f9f68dd0f1586ccec5d55d961b81c77a02156fee9b",
    (3, 5, 1):
        "0bc11f6bfd2def86120669bd67f5cfeede9ddf264f5fb9f974ade73d3d7c6974",
    (2, 7, 2):
        "cc0eaacffd73a0141fafd1065c02f492824d1eb4fb0bdc12ced5cf66e2e2b00d",
    (3, 6, 1):
        "2712d8c8c251eb365e63fc9c34118f8adf6011986d891382f0067deea800f327",
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
        "9570abc269868cd321a8b7f8ed5902b2504fb5b63ba1201e1890a1ac964ae501",
    (3, 5, 3):
        "c71cb91cea08b5615c9ef588a23075e10e34aa7c8a6b029e3d5babf405ace9b9",
    (2, 8, 6):
        "d67f708a132bda5557e66bcd5f3e0af0b9c3b8bbe2096ddc04cca65511d43ecd",
    (2, 10, 7):
        "56d32575b96dc985169149a393c5323a13df414bed1ea934b18a601a89882844",
    (3, 6, 4):
        "d923a112c70a1740e96d6285563ac538224b558d41510b34605b1209741d1cae",
    (3, 4, 3):
        "68aad66c7479e075ff4f3219c5e837228d6c801e75f3a22958629688a9b7b483",
    (5, 4, 3):
        "ac772bf4f38a05ffed4d6d2ff98e71b9a15ee0a29502811ee0de482d8f27c37b",
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
