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
        "a17fd2b814c92849ee94a2fadf505006709b2f12481753f32ddfe4c90c423dc8",
    (2, 6, 2, 5):
        "6055d322458860e9f32d8654a6420880bc6263279531e2ef30700f6c716c91af",
    (3, 5, 1, 1024):
        "280de7329ae9e2d3d9e71bd55795ad9d977162fbb6f8bd0dead4c12745aebacb",
    (3, 5, 1, 5):
        "e41a951a74d8917e0d6afb54a93b5a859fd9c926fc2409e733926a811726161b",
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
        "87b5d9341fda1a9fd1bba8d4d1a8047fb78f7c64e3255ab6bf4ccc2293d928ae",
    (3, 5, 3):
        "fba6aee88afc3eaebe99f13dbf2d611389f20e81d264204e0791e16c97aed185",
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
