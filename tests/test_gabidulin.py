"""Gabidulin code tests: encoding, MRD property (exhaustive on tiny codes),
Welch-Berlekamp decoding in and past the unique-decoding radius, the
localiser pencil against the exhaustive walk, error ranks read off the key
equation's kernel, and the planted-error generator."""

import itertools
import json
from collections import Counter

import pytest

from symrank import (ExtField, GabCode, HighRateDecoder, Matrix, QPoly, SymSetup,
                     gabidulin, qpoly, qpoly_rank, random_error, symdec, wb_decode)
from helpers import (endo_matrix, get_field, get_setup, projective_points, rand_elt,
                     rand_qpoly, ref_rank)
from symrank.channel import RngStream, random_codeword, random_selfadjoint_qpoly


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


def test_encode_message_roundtrip():
    f = get_field(3, 1, 4)
    code = GabCode(f, 2, s=1)
    rng = RngStream(3)
    for _ in range(30):
        msg = tuple(rand_elt(f, rng) for _ in range(2))
        cw = code.encode(msg)
        assert code.contains(cw)
        assert cw.coeffs[1:3] == msg
    assert code.encode((0, 0)).is_zero()
    assert not code.contains(QPoly.monomial(f, 0))  # support {0} not in 1..2
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
    assert tuple(cw.evaluate(g) for g in basis) == expect


@pytest.mark.parametrize("p,n,k", [(2, 3, 1), (2, 3, 2), (2, 4, 2), (3, 3, 2)])
def test_mrd_exhaustive(p, n, k):
    f = get_field(p, 1, n)
    code = GabCode(f, k)
    d = n - k + 1   # MRD
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


@pytest.mark.parametrize("n,k,planted,count,tally", [
    (4, 1, 0, 7576, {("ambiguous", True): 206, ("ok", True): 72,
                     ("ok", False): 19, ("fail", False): 3}),
    # no word at (2,5,2) has a lone codeword at distance exactly 2 (the
    # tails with one error are those of the 962 errors of rank <= 1), so
    # the planted words are all 'ambiguous' at the walked stage
    (5, 2, 30, 145112, {("ambiguous", True): 320, ("ok", False): 10}),
], ids=["2-4-1", "2-5-2"])
def test_wb_walked_candidate_sets_match_error_buckets(n, k, planted, count, tally):
    # an oracle independent of the key equation and of ``qpoly_rank`` for
    # the standard walked stage over F_2 at t = (n-k+1)//2 = 2.  Every map
    # of rank <= 2 is a sum of at most two maps a Tr(b x).  Each of those
    # has rank exactly 1 by elimination on its matrix, so a sum of two has
    # rank <= 2 by subadditivity, and their count is that of the n x n
    # binary matrices of rank <= 2: the errors are exactly the maps of
    # rank <= 2.  A codeword of Gab_k is zero in degrees
    # k..n-1, so the codewords within 2 of Y are Y - E over the errors E
    # that agree with Y there.  300 random words, then ``planted`` words
    # codeword + rank-2 error
    f = get_field(2, 1, n)
    t, q = 2, 2
    units = range(1, f.order)
    rank1 = {tuple(f.mul(a, f.frobenius(b, i)) for i in range(n))
             for a in units for b in units}
    errors = ({(0,) * n} | rank1
              | {tuple(map(f.add, r, s)) for r, s in itertools.combinations(rank1, 2)})
    want_count = 0
    for r in range(t + 1):
        num = den = 1
        for i in range(r):
            num *= (q**n - q**i) ** 2
            den *= q**r - q**i
        want_count += num // den
    assert len(errors) == want_count == count
    assert all(ref_rank(endo_matrix(QPoly(f, e))) == 1 for e in rank1)
    buckets = {}
    for err in errors:
        buckets.setdefault(err[k:], []).append(err)
    code = GabCode(f, k)
    rng = RngStream(53)
    words = [rand_qpoly(f, rng) for _ in range(300)]
    words += [rand_codeword(code, rng) + random_error(f, t, rng) for _ in range(planted)]
    seen = Counter()
    for y in words:
        want = {tuple(f.sub(a, b) for a, b in zip(y.coeffs[:k], err[:k]))
                + (0,) * (n - k) for err in buckets.get(y.coeffs[k:], ())}
        rep = wb_decode(code, y, t)
        assert {c.coeffs for c in rep.candidates} == want
        assert rep.status == ("fail" if not want else
                              "ok" if len(want) == 1 else "ambiguous")
        seen[rep.status, bool(rep.diagnostics["walked"])] += 1
    assert seen == tally


def test_wb_fail_status():
    f = get_field(2, 1, 4)
    code = GabCode(f, 1)
    rep = wb_decode(code, QPoly.monomial(f, 2), 0)
    assert rep.status == "fail"
    assert rep.codeword is None


def test_wb_walked_kernel_of_dimension_3_is_fail():
    # X^(q^(n-1)) has no codeword within (n-k)//2, and the key equation one
    # radius further has a kernel of dimension 3: no localiser is divided,
    # and by the kernel bound no codeword lies within that radius either
    for p, n, k in [(2, 7, 2), (3, 6, 1)]:
        f = get_field(p, 1, n)
        rep = wb_decode(GabCode(f, k), QPoly.monomial(f, n - 1), (n - k) // 2 + 1)
        assert rep.diagnostics["kernel_dims"][-1] == 3
        assert rep.status == "fail"
        assert rep.diagnostics["walked"] == 0
        assert rep.codeword is None and not rep.candidates


@pytest.mark.parametrize("p,n,k,js,count", [
    (2, 6, 1, (1, 5), None),    # all 126 words c X^(q^j), c != 0
    (2, 7, 2, (2, 6), 1)])      # one word per j: 16384 codewords each
def test_dimension_3_walks_are_far_from_the_code(p, n, k, js, count):
    # words whose walked kernel has dimension 3, against brute force over
    # every codeword: all lie at rank distance n - k > t, so 'fail' is exact
    f = get_field(p, 1, n)
    code = GabCode(f, k)
    t = (n - k + 1) // 2
    words = list(all_codewords(code))
    for j in js:
        for c in list(f.units())[:count]:
            y = QPoly.monomial(f, j, c)
            rep = wb_decode(code, y, t)
            assert rep.status == "fail"
            assert rep.diagnostics["kernel_dims"] == [2, 3]
            assert rep.diagnostics["walked"] == 0
            assert min(qpoly_rank(y - cw) for cw in words) == n - k


@pytest.mark.parametrize("p,n,k", [
    (2, 6, 1), (2, 7, 2), (2, 8, 3), (3, 5, 2), (2, 9, 4)])
def test_walked_kernel_has_dimension_2_within_radius(p, n, k):
    # the kernel bound: a codeword within t = (n-k+1)/2 and none within
    # t - 1 leave a walked kernel of dimension exactly 2, and the pencil
    # finds the codeword
    f = get_field(p, 1, n)
    code = GabCode(f, k)
    t = (n - k + 1) // 2
    rng = RngStream(73)
    for _ in range(12):
        cw = random_codeword(code, rng)
        rep = wb_decode(code, cw + random_error(f, t, rng), t)
        assert len(rep.diagnostics["kernel_dims"]) == 2
        assert rep.diagnostics["kernel_dims"][-1] == 2
        assert cw in rep.candidates


def _assert_pencil_is_walk(monkeypatch, code, y, t):
    """wb_decode through the pencil against the reference: the walked
    stage enumerated point by point by the test oracle.  Every member the
    pencil yields divides L o Y with zero remainder into a quotient of
    q-degree below k (the exact-division lemma in ``gabidulin``), so each
    gives a candidate of its own.  Each member has q^tp distinct roots, so
    its end coefficients l_0 and l_tp are nonzero, which the outer-pair
    test of ``HighRateDecoder._members`` relies on."""
    members = []
    pencil_points = gabidulin._pencil_points

    def recording(fld, kern, tp):
        for vec in pencil_points(fld, kern, tp):
            members.append(list(vec))
            yield vec

    with monkeypatch.context() as m:
        m.setattr(gabidulin, "_pencil_points", recording)
        rep = wb_decode(code, y, t)
    with monkeypatch.context() as m:
        m.setattr(gabidulin, "_pencil_points",
                  lambda fld, kern, tp: projective_points(fld, kern))
        ref = wb_decode(code, y, t)
    assert rep.diagnostics["kernel_dims"][-1] == 2
    assert rep.diagnostics["walked"] <= ref.diagnostics["walked"]
    assert rep.status == ref.status
    assert rep.candidates == ref.candidates
    y0 = y.compose_monomial(code.n - code.s) if code.s else y
    assert len(members) == rep.diagnostics["walked"] == len(rep.candidates)
    for vec in members:
        assert vec[0] and vec[-1]
        loc = QPoly(y.field, vec)
        quot, rem = loc.compose(y0).left_divide(loc)
        assert rem.is_zero()
        assert quot.q_degree < code.k
    return rep


@pytest.mark.parametrize("p,e,n,k", [
    (2, 1, 6, 4), (3, 1, 5, 3), (2, 1, 8, 5), (2, 1, 7, 4), (3, 1, 4, 3),
    (2, 2, 4, 3), (3, 2, 3, 2), (5, 1, 4, 3)])
def test_pencil_matches_uncapped_walk_high_rate(monkeypatch, p, e, n, k):
    # boundary HighRateDecoder instances: wb_decode of the residual at rank
    # n-k, over q = 2, 3, 4, 5 and 9
    st = get_setup(p, e, n)
    dec = HighRateDecoder(st, k)
    rng = RngStream(59)
    for _ in range(6):
        cw = random_codeword(dec.code, rng)
        y = cw + random_selfadjoint_qpoly(dec.radius, st, rng)
        pre = dec._preimage(y)
        rep = _assert_pencil_is_walk(monkeypatch, dec.reduced, y - pre, dec.radius)
        assert cw - pre in rep.candidates


def test_pencil_matches_uncapped_walk_standard(monkeypatch):
    # t = 2 > (n-k)//2 on Gab_1 over F_16: the last stage has dimension 2
    f = get_field(2, 1, 4)
    code = GabCode(f, 1)
    rng = RngStream(61)
    for _ in range(10):
        cw = rand_codeword(code, rng)
        y = cw + random_error(f, 2, rng)
        rep = _assert_pencil_is_walk(monkeypatch, code, y, 2)
        assert cw in rep.candidates


def _subspace_poly(fld, basis):
    """Coefficients of the subspace polynomial of span_Fq(basis), of q-degree
    len(basis): Lambda <- Lambda^q - Lambda(v)^(q-1) Lambda for each v."""
    lam = QPoly(fld, [1])
    for v in basis:
        a = fld.pow(lam.evaluate(v), fld.q - 1)
        assert a, "basis is not F_q-independent"
        lam = QPoly(fld, [fld.neg(a), 1]).compose(lam)
    return list(lam.coeffs[:len(basis) + 1])


def _pencil_oracle(fld, kern, tp):
    """Every point of span(kern), in the pencil's order, whose localiser has
    q^tp roots in F_{q^n}: the root count q^(n - rank) by qpoly_rank."""
    return [v for v in projective_points(fld, kern)
            if qpoly_rank(QPoly(fld, v)) == fld.n - tp]


def _pencil_kernels(fld, tp, rng):
    """Named 2-dimensional kernels [K1, K2] of q-degree <= tp: K1 full, K2
    full, both full with a common root space of dimension >= 1, a common
    root line under random cofactors, and a pencil with no full member."""
    def elt():
        return 1 + rng.randbelow(fld.order - 1)

    def poly(deg):
        return [elt() for _ in range(deg + 1)]

    def compose(outer, inner):
        return list(QPoly(fld, outer).compose(QPoly(fld, inner)).coeffs[:tp + 1])

    def space(dim, start=()):
        # start plus random vectors, each independent of those before it
        basis = list(start)
        while len(basis) < dim:
            v = elt()
            if QPoly(fld, _subspace_poly(fld, basis)).evaluate(v):
                basis.append(v)
        return basis

    def independent(k1, k2):
        return Matrix(fld, [k1, k2]).rank() == 2

    cases = {}
    while len(cases) < 5:
        u = space(1)
        shapes = {
            "k1_full": (_subspace_poly(fld, space(tp)), poly(tp)),
            "k2_full": (poly(tp), _subspace_poly(fld, space(tp))),
            "both_full_common": (_subspace_poly(fld, space(tp, u)),
                                 _subspace_poly(fld, space(tp, u))),
            "common_line": (compose(poly(tp - 1), _subspace_poly(fld, u)),
                            compose(poly(tp - 1), _subspace_poly(fld, u))),
            "none_full": (poly(tp), poly(tp)),
        }
        for name, kern in shapes.items():
            if name in cases or not independent(*kern):
                continue
            oracle = _pencil_oracle(fld, kern, tp)
            if name == "none_full" and oracle:
                continue
            cases[name] = (kern, oracle)
    assert cases["k1_full"][0][0] in cases["k1_full"][1]
    assert cases["k2_full"][0][1] == cases["k2_full"][1][-1]
    assert len(cases["both_full_common"][1]) >= 2
    return cases


@pytest.mark.parametrize("p,e,n,tp", [
    (2, 1, 5, 3), (3, 1, 4, 2), (2, 2, 3, 2), (5, 1, 3, 2), (3, 2, 3, 2)])
def test_pencil_points_edge_cases_match_oracle(p, e, n, tp):
    # one point per F_q-line, the line threshold and the common lines against
    # every projective point of the kernel, on the tabled field and on the
    # table-free one with the same modulus
    tabled = get_field(p, e, n)
    raw = ExtField(tabled.base, n, use_tables=False)
    assert raw.modulus == tabled.modulus
    rng = RngStream(79)
    for name, (kern, oracle) in _pencil_kernels(tabled, tp, rng).items():
        for fld in (tabled, raw):
            got = list(gabidulin._pencil_points(fld, kern, tp))
            assert got == oracle, (name, fld)


@pytest.mark.parametrize("p,n,k", [(2, 8, 6), (3, 6, 4), (2, 10, 7)])
def test_walked_members_never_repeat_a_candidate(monkeypatch, p, n, k):
    # distinct pencil members are not proportional, and a candidate's
    # localiser is its error's subspace polynomial up to a scalar, so no two
    # members that divide cleanly give the same candidate
    st = get_setup(p, 1, n)
    dec = HighRateDecoder(st, k)
    rng = RngStream(71)
    divided = []
    try_localiser = gabidulin._try_localiser

    def recording(loc, num, k):
        cand = try_localiser(loc, num, k)
        if cand is not None:
            divided.append(cand.coeffs)
        return cand

    monkeypatch.setattr(gabidulin, "_try_localiser", recording)
    walked = 0
    for _ in range(4):
        divided.clear()
        y = random_codeword(dec.code, rng) + random_selfadjoint_qpoly(dec.radius, st, rng)
        rep = wb_decode(dec.reduced, y - dec._preimage(y), dec.radius)
        walked += rep.diagnostics["walked"]
        assert len(set(divided)) == len(divided) == len(rep.candidates)
    assert walked > 4


def test_table_free_field_still_walks():
    # the same tower without exp/log tables runs the same pencil and the
    # same outer-pair test: wb_decode past (n-k)//2 on Gab_1 over F_16, and
    # boundary HighRateDecoder decodes at (2, 10, 7) and (3, 6, 4), give the
    # tabled field's reports
    tabled = get_field(2, 1, 4)
    raw = ExtField(tabled.base, 4, use_tables=False)
    assert raw.modulus == tabled.modulus
    code, raw_code = GabCode(tabled, 1), GabCode(raw, 1)
    rng = RngStream(67)
    for _ in range(5):
        y = rand_codeword(code, rng) + random_error(tabled, 2, rng)
        rep = wb_decode(code, y, 2)
        walk = wb_decode(raw_code, QPoly(raw, y.coeffs), 2)
        assert walk.diagnostics == rep.diagnostics
        assert walk.status == rep.status
        assert [c.coeffs for c in walk.candidates] == [c.coeffs for c in rep.candidates]

    for p, n, k in [(2, 10, 7), (3, 6, 4)]:
        st = get_setup(p, 1, n)
        raw_st = SymSetup(ExtField(st.field.base, n, use_tables=False))
        assert raw_st.field.modulus == st.field.modulus
        assert (raw_st.u, raw_st.basis) == (st.u, st.basis)
        dec, raw_dec = HighRateDecoder(st, k), HighRateDecoder(raw_st, k)
        rng = RngStream(69)
        for _ in range(6):
            y = (random_codeword(dec.code, rng)
                 + random_selfadjoint_qpoly(dec.radius, st, rng))
            rep = dec.decode(y)
            walk = raw_dec.decode(QPoly(raw_st.field, y.coeffs))
            assert rep.status in ("ok", "ambiguous")
            assert walk.status == rep.status
            assert walk.diagnostics == rep.diagnostics
            assert ([c.coeffs for c in walk.candidates]
                    == [c.coeffs for c in rep.candidates])


def _check_ok_ranks(rep, ranks):
    """An 'ok' report's error_rank is the rank of its error; any other
    report carries none.  Collects the ranks of 'ok' reports in ``ranks``."""
    if rep.status == "ok":
        assert rep.diagnostics["error_rank"] == qpoly_rank(rep.error)
        ranks.add(rep.diagnostics["error_rank"])
    else:
        assert rep.diagnostics["error_rank"] is None


def test_wb_error_rank_read_off_kernel():
    # every accepted radius, so 'ok' comes from the unique radius and, for
    # odd n-k, from the walked stage; shifted codes and an e = 2 tower
    unique, walked = set(), set()
    for p, e, n, k, s in [(2, 1, 4, 1, 0), (2, 1, 6, 2, 0), (3, 1, 5, 2, 0),
                          (2, 1, 8, 3, 2), (3, 1, 4, 1, 3), (2, 2, 4, 1, 0),
                          (2, 1, 7, 2, 0)]:
        f = get_field(p, e, n)
        code = GabCode(f, k, s)
        half = (n - k) // 2
        rng = RngStream(71)
        for t in range((n - k + 1) // 2 + 1):
            for rank in sorted({0, t // 2, t, min(t + 1, n)}):
                for _ in range(3):
                    y = rand_codeword(code, rng) + random_error(f, rank, rng)
                    rep = wb_decode(code, y, t)
                    _check_ok_ranks(rep, walked if t > half else unique)
    assert unique == {0, 1, 2} and walked >= {0, 1, 2, 3}


def _count_calls(monkeypatch, calls, owner, name):
    orig = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls[name] += 1
        return orig(*args, **kwargs)
    monkeypatch.setattr(owner, name, wrapper)


@pytest.mark.parametrize("p,e,n,k", [(2, 1, 6, 4), (3, 1, 5, 3), (2, 2, 4, 3)])
def test_error_rank_high_rate(monkeypatch, p, e, n, k):
    # HighRateDecoder and the wb_decode of its residual at every rank 0..n;
    # the decoder ranks a nonzero error once, by elimination, only when a
    # single survivor is left
    st = get_setup(p, e, n)
    dec = HighRateDecoder(st, k)
    rng = RngStream(73)
    words = [(rank, random_codeword(dec.code, rng)
              + random_selfadjoint_qpoly(rank, st, rng))
             for rank in range(n + 1) for _ in range(4)]
    calls = Counter()
    assert not hasattr(gabidulin, "qpoly_rank")
    for owner in (qpoly, symdec):
        _count_calls(monkeypatch, calls, owner, "qpoly_rank")
    ranks = set()
    for rank, y in words:
        rep = wb_decode(dec.reduced, y - dec._preimage(y), dec.radius)
        assert not calls
        _check_ok_ranks(rep, set())
        rep = dec.decode(y)
        assert calls["qpoly_rank"] == (rep.diagnostics["survivors"] == 1 and rank > 0)
        calls.clear()
        _check_ok_ranks(rep, ranks)
    assert ranks >= set(range(dec.radius))


@pytest.mark.parametrize("p,n,k,s", [(2, 8, 4, 0), (3, 6, 2, 0), (2, 8, 3, 2),
                                     (2, 16, 8, 0), (2, 7, 2, 0), (3, 6, 1, 0)])
def test_unique_radius_solves_one_key_equation(monkeypatch, p, n, k, s):
    # t <= (n-k)//2: one kernel, its first vector tested, no walk and no
    # rank elimination.  At t = (n-k)//2 + 1 (n-k odd) an error of rank
    # <= (n-k)//2 is found at the unique radius, which ends the decode: the
    # walked stage's kernel is never built
    f = get_field(p, 1, n)
    code = GabCode(f, k, s)
    half = (n - k) // 2
    rng = RngStream(79)
    words = [(t, rand_codeword(code, rng) + random_error(f, r, rng))
             for t in range((n - k + 1) // 2 + 1) for r in sorted({1, min(t, half)})]
    calls = Counter()
    assert not hasattr(gabidulin, "qpoly_rank")
    for owner, name in ((Matrix, "kernel"), (qpoly, "qpoly_rank"),
                        (gabidulin, "_pencil_points")):
        _count_calls(monkeypatch, calls, owner, name)
    for t, y in words:
        calls.clear()
        rep = wb_decode(code, y, t)
        assert calls == {"kernel": 1}
        assert len(rep.diagnostics["kernel_dims"]) == 1
        assert rep.status == "ok" or t == 0


def test_wb_rejects_bad_radius():
    # past (n-k)//2 only t = (n-k)//2 + 1 with n-k odd is accepted
    f = get_field(2, 1, 4)
    for k, bad in ((2, (-1, 2, 3, 4, 9)), (1, (-1, 3, 4))):
        code = GabCode(f, k)
        for t in bad:
            with pytest.raises(ValueError):
                wb_decode(code, QPoly.monomial(f, 0), t)
    assert wb_decode(GabCode(f, 1), QPoly.monomial(f, 0), 2).status == "ok"


def test_wb_rejects_word_over_another_field():
    # F_64 and a second F_16 object against a code over F_16
    code = GabCode(get_field(2, 1, 4), 2)
    rng = RngStream(41)
    for other in (get_field(2, 1, 6), ExtField(get_field(2, 1, 4).base, 4)):
        for _ in range(10):
            y = QPoly(other, [rand_elt(other, rng) for _ in range(other.n)])
            with pytest.raises(ValueError, match="field"):
                wb_decode(code, y, 1)


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
