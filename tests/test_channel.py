"""Instance-generation tests: deterministic streams, exact-rank symmetric
sampling (with a 2000-sample sweep), self-adjoint pullbacks, random codes."""

import pytest

from symrank import BaseField, ExtField, Matrix, SymSetup, matrix_of, qpoly_rank, unfold
from helpers import (get_setup, phi_matrix, random_matrix_code, ref_rank,
                     selfadjoint_reference)
from symrank.channel import (
    RngStream,
    random_codeword,
    random_matrix,
    random_selfadjoint_qpoly,
    random_symmetric_matrix,
)
from symrank.gabidulin import GabCode


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
