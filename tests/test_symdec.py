"""Symmetric-error decoder tests: the Phi maps, sym-free detection, the
low-rate (any rank) decoder and the high-rate (adjoint reduction) decoder."""

import itertools
from collections import Counter, defaultdict

import pytest

from symrank import (
    BaseField,
    GabCode,
    HighRateDecoder,
    InvalidInstanceError,
    LinearSolver,
    LowRateDecoder,
    Matrix,
    MatrixCode,
    QPoly,
    gabidulin,
    make_field,
    matrix_code_of,
    matrix_of,
    matrix_to_qpoly,
    phi_qpoly,
    qpoly_rank,
    symdec,
    unfold,
    wb_decode,
)
from helpers import (get_field, get_setup, high_rate_reference, low_rate_projection,
                     low_rate_reference, phi_matrix, planted_alternating, rand_elt,
                     rand_qpoly, random_matrix_code, ref_rank, ref_solve)
from symrank.channel import (RngStream, random_codeword, random_matrix,
                             random_selfadjoint_qpoly, random_symmetric_matrix)


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


def _sym_free(code) -> bool:
    """The C intersect Sym = 0 test, as ``LowRateDecoder`` makes it when
    it is built."""
    try:
        LowRateDecoder(code)
    except ValueError as exc:
        assert "symmetric" in str(exc)
        return False
    return True


def test_check_sym_free_examples():
    f3 = BaseField(3)
    assert not _sym_free(MatrixCode([Matrix.identity(f3, 2)]))
    antisym = Matrix(f3, [[0, 1], [2, 0]])
    assert _sym_free(MatrixCode([antisym]))
    mixed = MatrixCode([antisym, Matrix(f3, [[1, 0], [0, 0]])])
    assert not _sym_free(mixed)


@pytest.mark.parametrize("p,n,k", [(2, 6, 2), (3, 5, 2), (2, 8, 3)])
def test_shifted_gabidulin_is_sym_free(p, n, k):
    st = get_setup(p, 1, n)
    mcode = matrix_code_of(GabCode(st.field, k, 1), st)
    assert mcode.dim == n * k
    assert _sym_free(mcode)


@pytest.mark.parametrize("p,n,k", [(2, 4, 2), (2, 6, 3), (3, 5, 3), (2, 8, 6)])
def test_rate_half_refused_by_count(monkeypatch, p, n, k):
    # dim = k n > n(n-1)/2 when k >= n/2: the code meets Sym, which the
    # count shows before any solver is built
    def no_solver(matrix):
        raise AssertionError("a solver was built for a code refused by count")

    st = get_setup(p, 1, n)
    mcode = matrix_code_of(GabCode(st.field, k, 1), st)
    monkeypatch.setattr(symdec, "LinearSolver", no_solver)
    with pytest.raises(ValueError, match="contains a nonzero symmetric matrix"):
        LowRateDecoder(mcode)

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
    for bad in ([1], [1] * (mcode.dim + 1)):
        # a coefficient vector of any length but dim is refused
        with pytest.raises(ValueError):
            mcode.combine(bad)
    for r in range(n + 1):
        for cw in words[:: max(1, len(words) // 6)]:
            err = random_symmetric_matrix(f.base, n, r, rng)
            got_c, got_e = dec.decode(cw + err)
            assert got_c == cw
            assert got_e == err


def test_low_rate_rejects_invalid_instance():
    # the decoder raises exactly where the full-Phi reference finds no
    # decomposition; half the words are random, half codeword + symmetric
    for p, n, k in [(2, 6, 2), (3, 5, 2), (3, 6, 2)]:
        st = get_setup(p, 1, n)
        f = st.field.base
        code = matrix_code_of(GabCode(st.field, k, 1), st)
        dec = LowRateDecoder(code)
        ref = _full_phi_system(code)
        rng = RngStream(11)
        outcomes = set()
        for i in range(40):
            if i % 2:
                y = random_matrix(f, n, n, rng)
            else:
                y = code.combine([rng.randbelow(p) for _ in range(code.dim)]) \
                    + random_symmetric_matrix(f, n, rng.randbelow(n + 1), rng)
            want = _full_phi_decode(code, ref, y)
            outcomes.add(want is None)
            if want is None:
                with pytest.raises(InvalidInstanceError):
                    dec.decode(y)
            else:
                assert dec.decode(y) == want
        # at (3,5,2) dim = n(n-1)/2: Phi maps C onto the whole upper
        # triangle, so every word decomposes
        assert outcomes == ({False} if code.dim == n * (n - 1) // 2
                            else {True, False})


def test_low_rate_decode_makes_no_solve(monkeypatch):
    # the left inverse is taken once, as the decoder is built; a decode,
    # valid or not, is one product and the residual check
    calls = []
    solve = LinearSolver.solve
    monkeypatch.setattr(LinearSolver, "solve",
                        lambda self, b: calls.append(b) or solve(self, b))
    LinearSolver(Matrix.identity(BaseField(2), 1)).solve((1,))
    assert len(calls) == 1     # the counter is live
    for p, n, k in [(2, 8, 3), (3, 5, 2)]:
        st = get_setup(p, 1, n)
        f = st.field.base
        code = matrix_code_of(GabCode(st.field, k, 1), st)
        dec = LowRateDecoder(code)
        rng = RngStream(17)
        calls.clear()
        for r in range(n + 1):
            cw = code.combine([rng.randbelow(p) for _ in range(code.dim)])
            err = random_symmetric_matrix(f, n, r, rng)
            assert dec.decode(cw + err) == (cw, err)
        for _ in range(10):
            try:
                dec.decode(random_matrix(f, n, n, rng))
            except InvalidInstanceError:
                pass
        assert calls == []


def test_low_rate_rejects_wrong_shape_or_field():
    # a 4 x 4 word at n = 6, or a 6 x 6 word over another F_2 object: the
    # shape or field is wrong, so no decode is attempted
    st = get_setup(2, 1, 6)
    dec = LowRateDecoder(matrix_code_of(GabCode(st.field, 2, 1), st))
    rng = RngStream(29)
    for size, fld in [(4, st.field.base)] * 200 + [(6, BaseField(2))] * 20:
        y = Matrix(fld, [[rng.randbelow(2) for _ in range(size)]
                         for _ in range(size)])
        with pytest.raises(ValueError, match="n x n"):
            dec.decode(y)


def test_low_rate_f2_decode_makes_no_field_products(monkeypatch):
    # no field method per entry: over F_2 the projection runs on packed rows
    # and Phi, the residual and its check on xor; over F_3 on one % 3 per
    # entry or per dot product
    cases = []
    for p, n, k in [(2, 8, 3), (3, 5, 2)]:
        st = get_setup(p, 1, n)
        mcode = matrix_code_of(GabCode(st.field, k, 1), st)
        dec = LowRateDecoder(mcode)
        rng = RngStream(13)
        for r in range(n + 1):
            cw = mcode.combine([rng.randbelow(p) for _ in range(mcode.dim)])
            err = random_symmetric_matrix(st.field.base, n, r, rng)
            cases.append((dec, cw + err, (cw, err)))
    calls = Counter()
    ops = ("add", "sub", "neg", "mul", "inv")
    for name in ops:
        def counted(self, *args, _op=getattr(BaseField, name), _name=name):
            calls[_name] += 1
            return _op(self, *args)
        monkeypatch.setattr(BaseField, name, counted)
    f3 = get_setup(3, 1, 5).field.base
    for name in ops:
        getattr(f3, name)(*[1] * (1 if name in ("neg", "inv") else 2))
    # the counters are live (neg is sub from zero)
    assert calls == dict(dict.fromkeys(ops, 1), sub=2)
    calls.clear()
    for dec, received, want in cases:
        assert dec.decode(received) == want
    assert calls == Counter()


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2)], ids=["F2", "F3", "F4"])
def test_low_rate_rejects_entries_outside_the_field(p, e):
    # one bad diagonal entry in an otherwise zero word, or one bad
    # coefficient: the packed map would misread it, so the decoder and
    # combine refuse it before the map runs
    st = get_setup(p, e, 5)
    base = st.field.base
    code = matrix_code_of(GabCode(st.field, 2, 1), st)
    dec = LowRateDecoder(code)
    zero = Matrix.zeros(base, 5, 5)
    for bad in (base.q, base.q + 1, base.q + 3, -1):
        with pytest.raises(ValueError, match="outside 0..q-1"):
            code.combine([bad] + [0] * (code.dim - 1))
        rows = [[0] * 5 for _ in range(5)]
        rows[2][2] = bad
        with pytest.raises(ValueError, match="outside 0..q-1"):
            dec.decode(Matrix(base, rows))
        rows[2][2] = base.q - 1
        assert dec.decode(Matrix(base, rows)) == (zero, Matrix(base, rows))


# every code the low-rate decode was checked on against its former route
LOW_RATE_CODES = [(2, 1, 8, 3), (3, 1, 5, 2), (2, 1, 10, 4), (7, 1, 6, 2),
                  (5, 1, 4, 1), (2, 2, 5, 2), (3, 1, 7, 3), (13, 1, 3, 1)]


@pytest.mark.parametrize("p,e,n,k", LOW_RATE_CODES,
                         ids=[f"q{p**e}n{n}k{k}" for p, e, n, k in LOW_RATE_CODES])
def test_low_rate_matches_projection_reference(p, e, n, k):
    # the one stacked map with Phi folded in against Phi above the
    # diagonal, the n^2 x N projection and the difference, on three words
    # per error rank and on 30 random words
    st = get_setup(p, e, n)
    base = st.field.base
    code = matrix_code_of(GabCode(st.field, k, 1), st)
    dec = LowRateDecoder(code)
    projection = low_rate_projection(code)
    rng = RngStream(31 * n + p)
    words = [code.combine([rng.randbelow(base.q) for _ in range(code.dim)])
             + random_symmetric_matrix(base, n, r, rng)
             for r in range(n + 1) for _ in range(3)]
    words += [random_matrix(base, n, n, rng) for _ in range(30)]
    invalid = 0
    for y in words:
        want = low_rate_reference(code, projection, y)
        if want is None:
            invalid += 1
            with pytest.raises(InvalidInstanceError):
                dec.decode(y)
        else:
            assert dec.decode(y) == want
    # Phi maps C onto the whole upper triangle when dim = n(n-1)/2, and then
    # every word decomposes
    assert (invalid == 0) == (code.dim == n * (n - 1) // 2)


def test_low_rate_refuses_non_sym_free_code():
    st = get_setup(2, 1, 4)
    mcode = matrix_code_of(GabCode(st.field, 2, 0), st)
    with pytest.raises(ValueError):
        LowRateDecoder(mcode)


def _full_phi_system(code):
    """The reference system: all n^2 entries of Phi as rows, one column per
    generator."""
    cols = [unfold(phi_matrix(g)) for g in code.generators]
    return Matrix(code.field, [[col[r] for col in cols]
                               for r in range(code.n * code.n)])


def _full_phi_decode(code, system, received):
    """(C_hat, E_hat) through the full-Phi reference, solved by the test
    oracle and the codeword rebuilt as a sum of scaled generators; None
    where the decoder must raise."""
    coeffs = ref_solve(system, unfold(phi_matrix(received)))
    if coeffs is None:
        return None
    codeword = Matrix.zeros(code.field, code.n, code.n)
    mul = code.field.mul
    for c, g in zip(coeffs, code.generators):
        codeword = codeword + Matrix(code.field,
                                     [[mul(c, a) for a in row] for row in g.data])
    error = received - codeword
    return (codeword, error) if error.is_symmetric() else None


def _full_stack_sym_free(code):
    stacked = Matrix(code.field, [unfold(phi_matrix(g)) for g in code.generators])
    return ref_rank(stacked) == code.dim


@pytest.mark.parametrize("p,n,dim", [(2, 5, 8), (3, 4, 5), (5, 4, 5)])
def test_low_rate_matches_full_phi_reference(p, n, dim):
    # odd p is where sub differs from add, so the sign of Phi matters
    f = BaseField(p)
    rng = RngStream(100 * p + n)
    outcomes = set()
    for _ in range(2):
        code = random_matrix_code(f, n, dim, rng)
        dec = LowRateDecoder(code)
        ref = _full_phi_system(code)
        assert ref_rank(ref) == dim
        for r in range(n + 1):
            cw = code.combine([rng.randbelow(p) for _ in range(dim)])
            err = random_symmetric_matrix(f, n, r, rng)
            assert dec.decode(cw + err) == (cw, err) == \
                _full_phi_decode(code, ref, cw + err)
        for _ in range(40):
            y = random_matrix(f, n, n, rng)
            want = _full_phi_decode(code, ref, y)
            outcomes.add(want is None)
            if want is None:
                with pytest.raises(InvalidInstanceError):
                    dec.decode(y)
            else:
                assert dec.decode(y) == want
    assert outcomes == {True, False}


@pytest.mark.parametrize("p,n", [(2, 4), (3, 4), (5, 3)])
def test_check_sym_free_matches_full_stack(p, n):
    f = BaseField(p)
    rng = RngStream(200 * p + n)
    seen = set()
    for dim in range(1, n * (n - 1) // 2 + 2):
        for sym_free in (True, False):
            if sym_free and dim > n * (n - 1) // 2:
                continue
            code = random_matrix_code(f, n, dim, rng, sym_free=sym_free)
            free = _sym_free(code)
            assert free == _full_stack_sym_free(code)
            assert free or not sym_free
            seen.add(free)
    assert seen == {True, False}
    # rate exactly 1/2: Gab_{n/2} o X^q holds a nonzero symmetric matrix
    st = get_setup(p, 1, 2 * n)
    half = matrix_code_of(GabCode(st.field, n, 1), st)
    assert not _sym_free(half) and not _full_stack_sym_free(half)


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
                    poly = poly + QPoly.monomial(f, 0, c).compose(g)
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


def test_high_rate_rejects_word_over_another_field():
    st = get_setup(2, 1, 6)
    dec = HighRateDecoder(st, 4)
    rng = RngStream(31)
    for other in (get_field(2, 1, 8), make_field(2, 1, 6)):
        for _ in range(10):
            with pytest.raises(ValueError, match="field"):
                dec.decode(rand_qpoly(other, rng))


@pytest.mark.parametrize("p,e,n,k", [(2, 1, 6, 4), (3, 1, 5, 3), (2, 1, 8, 6),
                                     (2, 2, 4, 3), (3, 2, 4, 3)],
                         ids=["2-6-4", "3-5-3", "2-8-6", "4-4-3", "9-4-3"])
def test_high_rate_filter_reads_candidate_alone(p, e, n, k):
    # Phi(C') = Phi(Y) makes Y - C' self-adjoint, so the implied error
    # Y - (C' + c) is self-adjoint exactly when the reduced candidate c is;
    # boundary words and random words, both outcomes seen.  A candidate
    # that passes the outer pair is always self-adjoint (the proof in the
    # ``symdec`` docstring), which is why the decoder tests no other pair
    st = get_setup(p, e, n)
    dec = HighRateDecoder(st, k)
    rng = RngStream(37)
    seen = set()
    for trial in range(40):
        if trial % 2:
            y = (random_codeword(dec.code, rng)
                 + random_selfadjoint_qpoly(dec.radius, st, rng))
        else:
            y = rand_qpoly(st.field, rng)
        pre = dec._preimage(y)
        for c in wb_decode(dec.reduced, y - pre, dec.radius).candidates:
            want = c.is_self_adjoint(st.u)
            assert (y - (pre + c)).is_self_adjoint(st.u) == want
            if dec._outer_pair(c.coeffs[n - k], c.coeffs[k]):
                assert want
            seen.add(want)
    assert seen == {True, False}


def _high_rate_words(dec, rng, count: int):
    """``count`` (kind, word) pairs for ``dec``, the kinds in turn: a
    codeword plus a self-adjoint error of rank n-k ('boundary'), of a
    random rank below n-k ('below'), and a uniformly random word
    ('random')."""
    st = dec.setup
    for trial in range(count):
        kind = ("boundary", "below", "random")[trial % 3]
        if kind == "random":
            yield kind, rand_qpoly(st.field, rng)
            continue
        rank = dec.radius if kind == "boundary" else rng.randbelow(dec.radius)
        yield kind, (random_codeword(dec.code, rng)
                     + random_selfadjoint_qpoly(rank, st, rng))


@pytest.mark.parametrize("p,e,n,k", [
    (2, 1, 6, 4), (3, 1, 5, 3), (2, 1, 8, 6), (3, 1, 6, 4), (2, 1, 5, 3),
    (3, 1, 4, 3), (5, 1, 4, 3), (2, 2, 4, 3)])
def test_high_rate_matches_unfiltered_composition(p, e, n, k):
    # the outer pair tested before the division changes nothing in the
    # report, candidates, status, walked and survivors alike; error_rank is
    # on 'ok' only, the rank of the one error
    dec = HighRateDecoder(get_setup(p, e, n), k)
    for kind, y in _high_rate_words(dec, RngStream(89), 18):
        rep = dec.decode(y)
        assert rep.to_json() == high_rate_reference(dec, y).to_json()
        # a boundary word has nothing within n-k-1, so it always walks
        assert rep.diagnostics["walked"] or kind != "boundary"


@pytest.mark.parametrize("members", [1, 2])
def test_high_rate_short_walk_matches_unfiltered_composition(monkeypatch, members):
    # ``walked`` counts the members of the walk, divided or not, and a
    # walk whose members all fail the pair test reports 'fail' with no
    # error_rank; the pencil is cut to its first members so that short
    # walks ending in 'ok' and in 'fail' both arise on random words
    pencil_points = gabidulin._pencil_points
    monkeypatch.setattr(gabidulin, "_pencil_points", lambda fld, kern, tp:
                        itertools.islice(pencil_points(fld, kern, tp), members))
    st = get_setup(2, 1, 6)
    dec = HighRateDecoder(st, 4)
    rng = RngStream(101)
    seen = Counter()
    for _ in range(30):
        y = rand_qpoly(st.field, rng)
        rep = dec.decode(y)
        assert rep.to_json() == high_rate_reference(dec, y).to_json()
        seen[rep.diagnostics["walked"], rep.status] += 1
    assert seen[members, "fail"] and seen[members, "ok"]


def _outside(poly: QPoly, k: int) -> tuple:
    """The coefficients of ``poly`` outside the support 1..k of Gab_k o X^q."""
    return tuple(c for i, c in enumerate(poly.coeffs) if not 1 <= i <= k)


def _symmetric_rank_at_most_one(base, n: int):
    """Every symmetric n x n matrix of rank <= 1 over ``base``, in closed
    form: 0, and c v v^T for each of the q - 1 scalars c and one v on each
    of the (q^n - 1)/(q - 1) lines (first nonzero coordinate 1), q^n
    matrices in all.  A symmetric a b^T has b on the line of a."""
    mul = base.mul
    yield Matrix.zeros(base, n, n)
    for v in itertools.product(range(base.order), repeat=n):
        if next(filter(None, v), None) != base.one:
            continue
        for c in base.units():
            cv = [mul(c, x) for x in v]
            yield Matrix(base, [[mul(a, x) for x in v] for a in cv])


def _symmetric_by_rank(base, n: int, rank: int):
    """Every symmetric n x n matrix over ``base`` of rank <= ``rank``, each
    one ranked."""
    cells = [(i, j) for i in range(n) for j in range(i, n)]
    for values in itertools.product(range(base.order), repeat=len(cells)):
        rows = [[0] * n for _ in range(n)]
        for (i, j), v in zip(cells, values):
            rows[i][j] = rows[j][i] = v
        mat = Matrix(base, rows)
        if mat.rank() <= rank:
            yield mat


def _selfadjoint_buckets(st, k: int, rank: int) -> dict:
    """Every self-adjoint q-polynomial of rank <= ``rank``, the image under
    ``matrix_to_qpoly`` of every symmetric matrix of that rank, bucketed by
    its coefficients outside 1..k."""
    base, n = st.field.base, st.field.n
    mats = (_symmetric_rank_at_most_one(base, n) if rank == 1
            else _symmetric_by_rank(base, n, rank))
    buckets = defaultdict(list)
    for mat in mats:
        err = matrix_to_qpoly(mat, st)
        buckets[_outside(err, k)].append(err)
    return buckets


def _degenerate(dec, y) -> bool:
    """Whether the walk of ``y`` without the pair test has 4 or more members
    and every one passes ``_outer_pair``.  Each member divides into a
    candidate of its own (the lemma in ``gabidulin``), and a nonzero
    outer-pair quadratic passes at most 3 members, two roots and K2, so on
    such a word the quadratic vanishes identically."""
    n, k = dec.n, dec.k
    rep = wb_decode(dec.reduced, y - dec._preimage(y), dec.radius)
    return rep.diagnostics["walked"] >= 4 and all(
        dec._outer_pair(c.coeffs[n - k], c.coeffs[k]) for c in rep.candidates)


@pytest.mark.parametrize("p,e,n,k,errors", [
    pytest.param(2, 1, 5, 3, 652, id="2-5-3-652"),
    pytest.param(3, 1, 4, 3, 81, id="3-4-3-81"),
    # at radius 1 the errors are 0 and the c v v^T, q - 1 scalars c on each
    # of the (q^n - 1)/(q - 1) lines through v: q^n symmetric matrices
    (2, 2, 3, 2, 4 ** 3), (5, 1, 3, 2, 5 ** 3), (3, 2, 4, 3, 9 ** 4)])
def test_high_rate_candidate_sets_match_error_buckets(p, e, n, k, errors):
    # an oracle independent of the key equation: a codeword of Gab_k o X^q
    # is zero outside 1..k, so Y = C + E forces E to agree with Y there, and
    # the valid decompositions of Y are Y - E over the bucket of Y's own
    # coefficients outside 1..k; random words fail exactly on an empty bucket.
    # At t = n - k = 2 over F_2 the words also include planted ones, a
    # codeword plus an alternating error of rank 2, and the degenerate words
    # are counted among them, so their presence does not rest on the seed
    st = get_setup(p, e, n)
    dec = HighRateDecoder(st, k)
    buckets = _selfadjoint_buckets(st, k, dec.radius)
    assert sum(map(len, buckets.values())) == errors
    rng = RngStream(97)
    words = list(_high_rate_words(dec, rng, 90))
    planted = st.field.q == 2 and dec.radius == 2
    words += [("planted", random_codeword(dec.code, rng) + planted_alternating(st, rng))
              for _ in range(20 if planted else 0)]
    seen = Counter()
    degenerate = 0
    for kind, y in words:
        want = {(y - err).coeffs for err in buckets.get(_outside(y, k), ())}
        rep = dec.decode(y)
        assert {c.coeffs for c in rep.candidates} == want
        assert rep.status == ("fail" if not want else
                              "ok" if len(want) == 1 else "ambiguous")
        seen[kind, rep.status] += 1
        degenerate += kind == "planted" and _degenerate(dec, y)
    assert degenerate or not planted
    if len(buckets) == errors == st.field.order ** (n - k):
        # one error for each value of the n - k coefficients outside 1..k:
        # every word is one codeword plus one error, as at n = 3, k = 2
        assert set(seen) == {(kind, "ok") for kind in ("boundary", "below", "random")}
    else:
        assert seen["boundary", "ambiguous"] and seen["random", "fail"]


@pytest.mark.parametrize("n,k", [(10, 7), (12, 8)])
def test_high_rate_boundary_past_old_cap(n, k):
    # the walk of 2^n + 1 localisers used to be cut at 1024 here; the pencil
    # is exhaustive, so every boundary decode is answered
    st = get_setup(2, 1, n)
    dec = HighRateDecoder(st, k)
    rng = RngStream(41)
    for _ in range(3):
        cw = random_codeword(dec.code, rng)
        err = random_selfadjoint_qpoly(dec.radius, st, rng)
        received = cw + err
        rep = dec.decode(received)
        assert rep.status in ("ok", "ambiguous")
        assert rep.diagnostics["kernel_dims"][-1] == 2
        assert cw in rep.candidates
        for cand in rep.candidates:
            assert dec.code.contains(cand)
            assert (received - cand).is_self_adjoint(st.u)


def test_unfold_shape():
    m = Matrix(BaseField(2), [[1, 0], [1, 1]])
    assert unfold(m) == (1, 0, 1, 1)
