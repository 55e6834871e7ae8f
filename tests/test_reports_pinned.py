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
        "ca986dce4cd15a459e53609f19dfc60d6aa2d2dd658c0f2e12ca6f82bab7c447",
    (3, 5, 3):
        "4a3a9caf051f55988ac50e8687cafe0e0b239e13909347207d4d3ca6b69bf3b2",
    (2, 8, 6):
        "130cc7ac61bee8322efb97248b551281f40fb36f59ee88fd2822ced56d5b75f2",
    (2, 10, 7):
        "07a5a56fd437d6d53fdfef715d7e86095e2308accf5e3223637e6fb4ba1a8fff",
    (3, 6, 4):
        "8ebd81c3955404f5c27d9700631f5e9582abc46059c8a0d53a6c11e7fbaa509d",
    (3, 4, 3):
        "4309aaf7700d113f7a19bc4d36963350bd4464b013cc6e46e88cfec7ecb3f43f",
    (5, 4, 3):
        "c2bd5a66d3c601746e3523ba382a75e23ea403ca7477f6ffabebfcf3774b21d3",
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
