"""Instance-generation tests: deterministic streams, exact-rank symmetric
sampling (with a 2000-sample sweep), self-adjoint pullbacks, random codes,
the pinned streams of every sampler, and every sampler's rank against an
elimination oracle (the samplers do not rank their own output)."""

import hashlib

import pytest

from symrank import BaseField, ExtField, Matrix, SymSetup, matrix_of, qpoly_rank, unfold
from helpers import (endo_matrix, get_field, get_setup, phi_matrix, random_matrix_code,
                     ref_rank, sample_independent_reference, selfadjoint_reference)
from symrank.channel import (
    _RESAMPLE_CAP,
    RngStream,
    random_codeword,
    random_matrix,
    random_selfadjoint_qpoly,
    random_symmetric_matrix,
)
from symrank.gabidulin import GabCode, _sample_independent, random_error


def test_stream_determinism():
    a = RngStream(42)
    b = RngStream(42)
    assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]
    assert RngStream(43).next_u64() != RngStream(42).next_u64()


def test_fork_ignores_consumed_state():
    a = RngStream(7)
    b = RngStream(7)
    for _ in range(5):
        a.next_u64()  # advance only one of them
    assert a.fork(3).next_u64() == b.fork(3).next_u64()
    assert a.fork(3).next_u64() != a.fork(4).next_u64()


def test_randbelow_range_and_coverage():
    rng = RngStream(1)
    seen = set()
    for _ in range(500):
        x = rng.randbelow(7)
        assert 0 <= x < 7
        seen.add(x)
    assert seen == set(range(7))
    with pytest.raises(ValueError):
        rng.randbelow(0)


@pytest.mark.parametrize("n", [2**64 + 1, 2**70])
def test_randbelow_past_one_word(n):
    # two 64-bit draws per candidate; a single one could never reach n - 1
    draws = [RngStream(9).randbelow(n) for _ in range(2)]
    assert draws[0] == draws[1]
    rng = RngStream(9)
    xs = [rng.randbelow(n) for _ in range(300)]
    assert all(0 <= x < n for x in xs)
    assert len(set(xs)) == 300
    if n == 2**70:
        assert max(xs) >= 2**69
    # up to n = 2^64 a candidate stays one draw, so seeded streams are kept
    assert RngStream(9).randbelow(2**64) == RngStream(9).next_u64()


def test_random_symmetric_matrix_2000_samples():
    # distribution floor for the (q, n, r) = (2, 4, 2) workhorse case:
    # every sample symmetric with rank exactly 2
    f2 = BaseField(2)
    rng = RngStream(5)
    for _ in range(2000):
        m = random_symmetric_matrix(f2, 4, 2, rng)
        assert m.is_symmetric()
        assert m.rank() == 2


def test_random_symmetric_matrix_all_ranks():
    f3 = BaseField(3)
    rng = RngStream(9)
    for r in range(5):
        for _ in range(50):
            m = random_symmetric_matrix(f3, 4, r, rng)
            assert m.is_symmetric() and m.rank() == r
    assert random_symmetric_matrix(f3, 4, 0, rng).is_zero()
    with pytest.raises(ValueError):
        random_symmetric_matrix(f3, 4, 5, rng)


def test_random_selfadjoint_qpoly():
    for p, e, n in [(2, 1, 6), (3, 1, 4)]:
        st = get_setup(p, e, n)
        rng = RngStream(13)
        for r in range(n + 1):
            for _ in range(25):
                poly = random_selfadjoint_qpoly(r, st, rng)
                assert poly.is_self_adjoint(st.u)
                assert (r == 0 and poly.is_zero()) or qpoly_rank(poly) == r
                assert matrix_of(poly, st).is_symmetric()


@pytest.mark.parametrize("p,e,n,tables", [
    (2, 1, 6, True), (2, 1, 6, False), (2, 2, 3, True), (3, 1, 4, True),
    (3, 2, 2, True), (5, 1, 3, True)])
def test_sampler_ranks_match_oracle(p, e, n, tables):
    # every sampler's output ranked by elimination on field calls alone, at
    # every rank 0..n, on prime and extension F_q and a table-free field;
    # (3,1,4) and (3,2,2) are odd q with even n, so their twist u != 1
    fld = _sample_field(p, e, n, tables)
    st = SymSetup(fld)
    rng = RngStream(61)
    for r in range(n + 1):
        for _ in range(3):
            assert ref_rank(endo_matrix(random_error(fld, r, rng))) == r
            poly = random_selfadjoint_qpoly(r, st, rng)
            assert poly.is_self_adjoint(st.u)
            assert ref_rank(endo_matrix(poly)) == r
            m = random_symmetric_matrix(fld.base, n, r, rng)
            assert m.is_symmetric() and ref_rank(m) == r


class _ZeroStream:
    """A stream whose every draw is 0, so every sampled M has rank 0."""

    def __init__(self):
        self.draws = 0

    def randbelow(self, n: int) -> int:
        self.draws += 1
        return 0


def test_symmetric_factors_resample_cap():
    # _symmetric_factors gives up after _RESAMPLE_CAP rejected M, each one
    # r x n draws; rank 0 needs no draw and returns at once
    st = get_setup(2, 1, 4)
    for sample in (lambda r, rng: random_symmetric_matrix(BaseField(2), 4, r, rng),
                   lambda r, rng: random_selfadjoint_qpoly(r, st, rng)):
        stub = _ZeroStream()
        with pytest.raises(ArithmeticError, match="resample cap"):
            sample(2, stub)
        assert stub.draws == _RESAMPLE_CAP * 2 * 4
        stub = _ZeroStream()
        assert sample(0, stub).is_zero() and stub.draws == 0


def test_random_codeword_in_support():
    st = get_setup(2, 1, 6)
    code = GabCode(st.field, 2, 1)
    rng = RngStream(17)
    for _ in range(20):
        assert code.contains(random_codeword(code, rng))


def test_random_matrix_code():
    f2 = BaseField(2)
    rng = RngStream(21)
    for dim in range(1, 7):
        code = random_matrix_code(f2, 4, dim, rng)
        assert code.dim == dim
        stacked = Matrix(f2, [unfold(phi_matrix(g)) for g in code.generators])
        assert ref_rank(stacked) == dim    # C intersect Sym = 0
    plain = random_matrix_code(f2, 4, 10, rng, sym_free=False)
    assert plain.dim == 10
    with pytest.raises(ValueError):
        random_matrix_code(f2, 4, 7, rng)  # n(n-1)/2 = 6 is the ceiling


def test_random_matrix_shape():
    f2 = BaseField(2)
    for nrows in (2, 0):
        m = random_matrix(f2, nrows, 5, RngStream(3))
        assert m.nrows == nrows and m.ncols == 5
        assert m.transpose().nrows == 5
        assert all(x < 2 for row in m.data for x in row)


@pytest.mark.parametrize("p,e,n,tables", [
    (2, 1, 5, True), (2, 1, 8, True), (2, 1, 10, True), (2, 2, 5, True),
    (3, 1, 4, True), (3, 1, 5, True), (3, 1, 6, True), (3, 2, 4, True),
    (5, 1, 4, True), (7, 1, 3, True), (2, 1, 6, False)])
def test_random_selfadjoint_qpoly_matches_matrix_route(p, e, n, tables):
    # the sampler builds the q-polynomial of M^T S M from M and S alone; the
    # reference pulls the symmetric matrix of the same draws back through
    # matrix_to_qpoly.  Odd q with even n has a twist u != 1
    st = get_setup(p, e, n)
    if not tables:
        st = SymSetup(ExtField(st.field.base, n, use_tables=False))
    for r in range(n + 1):
        for seed in range(5):
            assert (random_selfadjoint_qpoly(r, st, RngStream(seed))
                    == selfadjoint_reference(r, st, RngStream(seed)))


def _sample_digests(fld, setup, ranks, draws: int) -> tuple[str, ...]:
    """SHA-256 of each sampler's output over ``draws`` draws at every rank in
    ``ranks``, one stream per sampler, its final state included so that the
    number of draws is pinned too: random_codeword (k = n // 2),
    random_error, random_symmetric_matrix and, given a setup,
    random_selfadjoint_qpoly."""
    n = fld.n
    code = GabCode(fld, n // 2)
    samplers = [lambda r, rng: random_codeword(code, rng).coeffs,
                lambda r, rng: random_error(fld, r, rng).coeffs,
                lambda r, rng: random_symmetric_matrix(fld.base, n, r, rng).data]
    if setup is not None:
        samplers.append(lambda r, rng: random_selfadjoint_qpoly(r, setup, rng).coeffs)
    digests = []
    for seed, sample in enumerate(samplers):
        rng = RngStream(900 + seed)
        lines = [repr(sample(r, rng)) for r in ranks for _ in range(draws)]
        lines.append(repr(rng._state))
        digests.append(hashlib.sha256("\n".join(lines).encode()).hexdigest())
    return tuple(digests)


# sampler streams pinned per (p, e, n): random_codeword, random_error,
# random_symmetric_matrix, random_selfadjoint_qpoly (``_sample_digests``),
# three draws at every rank 0..n.  The last entry is the table-free 2^17
# field at a few ranks, without a self-adjoint sampler.
PINNED_SAMPLES = {
    (2, 1, 8, True): (
        "7cacab70638174476022624e231d5c823de8206706ec7a3a4739e6b121a3719d",
        "9a2030520b2f7ee5a0b794faff112337ef2e18fc3e963014f75033dc8c627878",
        "48b032ae6ad134b5257fda9b24330780e28ccb4a6fc8430400222c5959a6cca6",
        "ec3bbce48286e56392c9a81d037784ae4484497b28a422c591d9ef739f81cb9d",
    ),
    (2, 1, 16, True): (
        "9c2f8aa1130abfdb5b967901867690846a2ec4ff06a9cc50960354efb87a3c1a",
        "61cda574fe2f42826e88ec03ec7f84994b8fbec5270520383b78dfdb7b5b5e3f",
        "20d292d2049146b5ef04741cdd55e556448da5893f43d3061e880126fa16fd62",
        "027a58403c4113271025217bc413650783712eea8b93840873e40788b1163a06",
    ),
    (3, 1, 6, True): (
        "45188774094bda850520e7c9d1cf684a6374f0ac7326e07e659a98ae06393cc9",
        "8b22e7586735a4fe70e6537cdbc9e701785404e053870dd1c55f7a7d09e3a415",
        "7aa4cf227c37f9dde8b52c7fdab54ab445d40aa620696b2c85fb391f7f436cf6",
        "aa8ba7672a66a1e6e7080b5a8dd789437e9f00ec0f949aa8b5dc9d44113dd72d",
    ),
    (2, 2, 4, True): (
        "0a7fc660cfcb3b6c5ac6eb0e87afdf7b530ed9895cfa8779fb55a89669102258",
        "88cb07fd7cdcef1e6f50cfb4c18d0871ca1c738cd11d1d5245cbe70ea956fe25",
        "47d00ffd98091233d144d2c029a067373b1d44cf1f6d4a39ad8cff9c8fe08381",
        "140689f009d20d4430d0195671ced8c8964b0ee057869829ac4fa244f2f2b541",
    ),
    (3, 2, 3, True): (
        "f9fd44ded24721a3186795c5058bb5accf061157f20036808977a5cdd5da6e32",
        "43256f55e0b9f0815be353981575624530cbd17cf62f0e8ade4f838eaa033240",
        "b14e114c1a476a6ff8ec08b600402fc1851044f9f749c15b498387019806adc4",
        "2beeae680cfadb4ea38352cdb02bc89420b1e96b1d2689be5ed1366a6ae0a03e",
    ),
    (5, 1, 4, True): (
        "a12eac4c12c4b4cff8c15a9fb892618a025e1f422c21fec1dfe987d4a88f461e",
        "b4e54baafd7b71c5135ee293b28c15539de4e11dae905c213a83003230cf69a7",
        "e64d61dfde06fbd5c96b62bc58bdef250bf9753bb2d8d018f670ccdd3f01c9e4",
        "30048c8cfc9f622c5923234e0ab2fa133976a935ec5e2f3d64b4b24dd5ce6df1",
    ),
    (2, 1, 17, False): (
        "613bf09622d5cafbf61f3b67770550c75290ad64a5332a9ee0bfb527c562e15d",
        "e76e9871b6ce2fbe4e48682b8861283b0f5133f8b2b8257a6347394b1d189419",
        "cab703290399fd437c0103c9bcbd835bc93e6e7ddeea86f25b642a4b273a16ad",
    ),
}


def _sample_field(p: int, e: int, n: int, tables: bool):
    if tables:
        return get_field(p, e, n)
    return ExtField(BaseField(p, e), n, use_tables=False)


@pytest.mark.parametrize("p,e,n,tables", sorted(PINNED_SAMPLES))
def test_sampler_streams_pinned(p, e, n, tables):
    fld = _sample_field(p, e, n, tables)
    if tables:
        digests = _sample_digests(fld, get_setup(p, e, n), range(n + 1), 3)
    else:
        digests = _sample_digests(fld, None, (0, 1, 2, n), 1)
    assert digests == PINNED_SAMPLES[(p, e, n, tables)]


@pytest.mark.parametrize("p,e,n,tables", sorted(PINNED_SAMPLES))
def test_sample_independent_matches_fresh_rank(p, e, n, tables):
    # the basis kept across picks against a fresh rank of all picks plus
    # the draw: the same picks and the same stream state at every count
    fld = _sample_field(p, e, n, tables)
    for count in range(n + 1):
        for seed in range(4):
            ours, ref = RngStream(seed), RngStream(seed)
            assert (_sample_independent(fld, count, ours)
                    == sample_independent_reference(fld, count, ref))
            assert ours._state == ref._state
    with pytest.raises(ValueError):
        _sample_independent(fld, n + 1, RngStream(0))
