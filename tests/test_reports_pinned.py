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
    (2, 6, 2, 1024):
        "2e9f099738cf5dddf5d6a310c34058f54a23c6d4e31e5b419cc7afb07aa0f911",
    (2, 6, 2, 5):
        "2b6838137da927192d1dd139a7dfbbef41bef3f0359bcc12eeb80465aa73632a",
    (3, 5, 1, 1024):
        "b33e529153f71f6719bc557428afb7d5ed405d7216ee3fa8fb21cf029dc80a00",
    (3, 5, 1, 5):
        "4098b11117d0db683670110aec30ee078388ffd362814190eb8420a9b3ddac99",
}


@pytest.mark.parametrize("p,n,k,cap", sorted(PINNED_WB))
def test_wb_reports_pinned(p, n, k, cap):
    # per radius t: two words at error rank t, one at rank t + 1 (capped at n)
    f = get_field(p, 1, n)
    code = GabCode(f, k)
    rng = RngStream(101)
    reports = []
    for t in range(n - k + 1):
        for rank in (t, t, min(t + 1, n)):
            y = random_codeword(code, rng) + random_error(f, rank, rng)
            reports.append(wb_decode(code, y, t, max_candidates=cap))
    assert _digest(reports) == PINNED_WB[(p, n, k, cap)]


PINNED_HIGH = {
    (2, 6, 4):
        "3f9aa8ee2b74d5d799aec06a27a29a84473029f5625e75ea0fd8f754a5681c0d",
    (3, 5, 3):
        "1406d6eb2cef21029989da08ee3f989e2b85a57742d5df3c03991234a4662dfe",
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
