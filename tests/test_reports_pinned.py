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
        "a2e9f91b65b7c17266f4da2c1a2b8916ce8fba354a7bca835c7d719e6e454849",
    (3, 5, 3):
        "348b32f9d97477077dc4719f5824a8fe4568c5cc2271334188e0e093c35fdd3c",
    (2, 8, 6):
        "f229bde8fed636bd9be48d2e5e18f549162240eebfa54cde9274728511adf3aa",
    (2, 10, 7):
        "45850669286257ac4feaac3a882247f44b5ba9428899f2bfecbf267889015b57",
    (3, 6, 4):
        "0e67b817372bc472064888d02deb7e6ad57b1c2eb4e157ac2f6f9c13a6ab238a",
    (3, 4, 3):
        "2db86ade18fd2c5d1bbf37b870e31b69c212b6461f3d4650ba1dc7d3b75de6c0",
    (5, 4, 3):
        "30c0b8392afdf8018e3ace354740bca440783129cf45fb441a4fb8e132402399",
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
