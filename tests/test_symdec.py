"""Symmetric-error decoder tests: the Phi maps, sym-free detection, the
low-rate (any rank) decoder and the high-rate (adjoint reduction) decoder."""

import itertools

import pytest

from symrank import (
    BaseField,
    GabCode,
    HighRateDecoder,
    InvalidInstanceError,
    LowRateDecoder,
    Matrix,
    MatrixCode,
    QPoly,
    check_sym_free,
    matrix_code_of,
    matrix_of,
    phi_matrix,
    phi_qpoly,
    qpoly_rank,
    unfold,
)
from helpers import get_field, get_setup, rand_elt, rand_qpoly
from symrank.channel import RngStream, random_codeword, random_selfadjoint_qpoly, random_symmetric_matrix


@pytest.mark.parametrize("q,n", [(2, 2), (3, 2), (2, 3), (3, 3)])
def test_phi_matrix_kernel_exhaustive(q, n):
    f = BaseField(q)
    entries = list(range(q))
    kernel = 0
    for flat in itertools.product(entries, repeat=n * n):
        m = Matrix(f, [list(flat[i * n:(i + 1) * n]) for i in range(n)])
        if phi_matrix(m).is_zero():
            kernel += 1
            assert m.is_symmetric()
    assert kernel == q ** (n * (n + 1) // 2)


def test_phi_qpoly_matches_matrix_picture():
    for p, e, n in [(2, 1, 4), (3, 1, 4)]:
        st = get_setup(p, e, n)
        f = st.field
        rng = RngStream(3)
        for _ in range(40):
            poly = rand_qpoly(f, rng)
            assert matrix_of(phi_qpoly(poly, st.u), st) == \
                phi_matrix(matrix_of(poly, st))
        # self-adjoint polynomials vanish; constants aX are self-adjoint
        a = rand_elt(f, rng)
        assert phi_qpoly(QPoly(f, [a]), st.u).is_zero()


def test_check_sym_free_examples():
    f3 = BaseField(3)
    assert not check_sym_free(MatrixCode([Matrix.identity(f3, 2)]))
    antisym = Matrix(f3, [[0, 1], [2, 0]])
    assert check_sym_free(MatrixCode([antisym]))
    mixed = MatrixCode([antisym, Matrix(f3, [[1, 0], [0, 0]])])
    assert not check_sym_free(mixed)


@pytest.mark.parametrize("p,n,k", [(2, 6, 2), (3, 5, 2), (2, 8, 3)])
def test_shifted_gabidulin_is_sym_free(p, n, k):
    st = get_setup(p, 1, n)
    mcode = matrix_code_of(GabCode(st.field, k, 1), st)
    assert mcode.dim == n * k
    assert check_sym_free(mcode)


def test_gabidulin_with_identity_is_not_sym_free():
    # support containing X (degree 0) picks up self-adjoint members
    st = get_setup(2, 1, 4)
    mcode = matrix_code_of(GabCode(st.field, 2, 0), st)
    assert not check_sym_free(mcode)


def test_matrix_code_validation():
    f = BaseField(2)
    with pytest.raises(ValueError):
        MatrixCode([])
    with pytest.raises(ValueError):
        MatrixCode([Matrix.identity(f, 2), Matrix.identity(f, 2)])  # dependent
    with pytest.raises(ValueError):
        MatrixCode([Matrix.zeros(f, 2, 3)])


@pytest.mark.parametrize("p,n,k", [(2, 6, 2), (3, 5, 2)])
def test_low_rate_exact_any_rank(p, n, k):
    st = get_setup(p, 1, n)
    f = st.field
    mcode = matrix_code_of(GabCode(f, k, 1), st)
    dec = LowRateDecoder(mcode)
    rng = RngStream(7)
    # spanning set of codewords, then random ones; every error rank 0..n
    words = list(mcode.generators)
    for _ in range(4):
        words.append(mcode.combine(
            [rng.randbelow(f.q) for _ in range(mcode.dim)]))
    for r in range(n + 1):
        for cw in words[:: max(1, len(words) // 6)]:
            err = random_symmetric_matrix(f.base, n, r, rng)
            got_c, got_e = dec.decode(cw + err)
            assert got_c == cw
            assert got_e == err


def test_low_rate_rejects_invalid_instance():
    st = get_setup(2, 1, 6)
    f = st.field
    dec = LowRateDecoder(matrix_code_of(GabCode(f, 2, 1), st))
    rng = RngStream(11)
    raised = 0
    for _ in range(20):
        y = Matrix(f.base, [[rng.randbelow(2) for _ in range(6)] for _ in range(6)])
        try:
            cw, err = dec.decode(y)
        except InvalidInstanceError:
            raised += 1
        else:
            assert err.is_symmetric() and cw + err == y
    assert raised > 0


def test_low_rate_refuses_non_sym_free_code():
    st = get_setup(2, 1, 4)
    mcode = matrix_code_of(GabCode(st.field, 2, 0), st)
    with pytest.raises(ValueError):
        LowRateDecoder(mcode)


def test_high_rate_validation():
    st = get_setup(2, 1, 4)
    with pytest.raises(ValueError, match="LowRateDecoder"):
        HighRateDecoder(st, 2)  # k = n/2 belongs to the low-rate regime
    with pytest.raises(ValueError):
        HighRateDecoder(st, 4)


def test_high_rate_kernel_is_inner_shifted_code():
    # ker(Phi|_C) = C intersect Sym_u has dimension kn - n(n-1)/2 (Phi maps C
    # onto all of Phi(M_n)) and lives in support n-k..k
    for p, n, k in [(2, 6, 4), (3, 4, 3), (2, 8, 5), (3, 5, 3)]:
        st = get_setup(p, 1, n)
        f = st.field
        code = GabCode(f, k, 1)
        gens = [QPoly.monomial(f, i, f.q**l)
                for i in range(1, k + 1) for l in range(n)]
        cols = [unfold(matrix_of(phi_qpoly(g, st.u), st)) for g in gens]
        system = Matrix(f.base, [[col[r] for col in cols]
                                 for r in range(n * n)])
        kernel = system.kernel()
        assert len(kernel) == k * n - n * (n - 1) // 2
        for vec in kernel:
            poly = QPoly.zero(f)
            for c, g in zip(vec, gens):
                if c:
                    poly = poly + g.scale(c)
            assert not poly.is_zero()
            assert poly.is_self_adjoint(st.u)
            assert code.contains(poly)
            assert all(c == 0 for i, c in enumerate(poly.coeffs)
                       if not n - k <= i <= k)


@pytest.mark.parametrize("p,n", [(2, 4), (2, 5), (2, 6), (3, 3), (3, 4),
                                 (3, 5), (5, 3), (5, 4)])
def test_high_rate_preimage_of_any_word(p, n):
    # every word, valid instance or not, has a codeword with the same Phi
    st = get_setup(p, 1, n)
    f = st.field
    rng = RngStream(29)
    for k in range(n // 2 + 1, n):
        dec = HighRateDecoder(st, k)
        for _ in range(25):
            y = rand_qpoly(f, rng)
            pre = dec._preimage(y)
            assert dec.code.contains(pre)
            assert phi_qpoly(pre, st.u) == phi_qpoly(y, st.u)


def test_high_rate_noiseless_and_small_rank():
    st = get_setup(2, 1, 8)
    dec = HighRateDecoder(st, 5)
    rng = RngStream(13)
    for trial in range(15):
        cw = random_codeword(dec.code, rng)
        rep = dec.decode(cw)
        assert rep.status == "ok" and rep.codeword == cw
        for r in range(1, dec.radius):
            err = random_selfadjoint_qpoly(r, st, rng)
            rep = dec.decode(cw + err)
            assert rep.status == "ok"
            assert rep.codeword == cw
            assert rep.error == err


def test_high_rate_boundary_rank():
    st = get_setup(3, 1, 6)
    dec = HighRateDecoder(st, 4)
    rng = RngStream(17)
    statuses = set()
    for trial in range(25):
        cw = random_codeword(dec.code, rng)
        err = random_selfadjoint_qpoly(dec.radius, st, rng)
        rep = dec.decode(cw + err)
        statuses.add(rep.status)
        assert rep.status in ("ok", "ambiguous")
        if rep.status == "ok":
            assert rep.codeword == cw and rep.error == err
        else:
            assert cw in rep.candidates
            for cand in rep.candidates:
                e = cw + err - cand
                assert dec.code.contains(cand)
                assert e.is_self_adjoint(st.u)
                assert qpoly_rank(e) <= dec.radius
    assert "ok" in statuses


def test_high_rate_invalid_instance_fails():
    st = get_setup(2, 1, 6)
    dec = HighRateDecoder(st, 4)
    f = st.field
    rng = RngStream(19)
    # not codeword + self-adjoint: decoder must not fabricate an answer
    saw_fail = False
    for _ in range(20):
        y = rand_qpoly(f, rng)
        rep = dec.decode(y)
        if rep.status == "fail":
            saw_fail = True
        elif rep.status == "ok":
            assert dec.code.contains(rep.codeword)
            assert (y - rep.codeword).is_self_adjoint(st.u)
    assert saw_fail


def test_high_rate_truncated_walk_is_incomplete():
    # at (2, 10, 7) the boundary walk always hits the 1024-localiser cap
    st = get_setup(2, 1, 10)
    dec = HighRateDecoder(st, 7)
    rng = RngStream(41)
    for _ in range(3):
        cw = random_codeword(dec.code, rng)
        err = random_selfadjoint_qpoly(dec.radius, st, rng)
        received = cw + err
        rep = dec.decode(received)
        assert rep.status == "incomplete"
        assert rep.diagnostics["truncated"]
        assert rep.codeword is None
        for cand in rep.candidates:
            assert dec.code.contains(cand)
            assert (received - cand).is_self_adjoint(st.u)


def test_unfold_shape():
    m = Matrix(BaseField(2), [[1, 0], [1, 1]])
    assert unfold(m) == (1, 0, 1, 1)
