"""Linearized polynomial tests: ring structure, division, adjoints and the
matrix representations."""

import pytest

from symrank import (
    NEG_INF,
    ExtField,
    Matrix,
    QPoly,
    matrix_of,
    matrix_to_qpoly,
    qpoly_rank,
    select_twist,
    trace_form,
)
from helpers import (endo_matrix, get_field, get_setup, rand_elt, rand_nonzero_qpoly, rand_qpoly,
                     rand_unit)
from symrank.channel import RngStream, random_matrix, random_selfadjoint_qpoly
from symrank.qpoly import _basis_images, trace_sum


def test_constructor_folds_high_indices():
    f = get_field(2, 1, 4)
    # X^{q^4} = X and X^{q^5} = X^q: indices fold mod n, coefficients add
    p = QPoly(f, [3, 0, 0, 0, 5])
    assert p == QPoly(f, [f.add(3, 5)])
    q = QPoly(f, [0, 1, 0, 0, 0, 1])
    assert q == QPoly(f, [0, 0])
    assert q.is_zero()


def test_q_degree():
    f = get_field(2, 1, 4)
    assert QPoly.zero(f).q_degree == NEG_INF
    assert QPoly.zero(f).q_degree < 0
    assert QPoly.monomial(f, 0).q_degree == 0
    assert QPoly.monomial(f, 3).q_degree == 3
    assert QPoly(f, [1, 0, 7, 0]).q_degree == 2


def test_evaluate_is_semilinear():
    f = get_field(3, 1, 4)
    rng = RngStream(5)
    for _ in range(100):
        p = rand_qpoly(f, rng)
        a, b = rand_elt(f, rng), rand_elt(f, rng)
        c = rng.randbelow(f.q)  # constants packed below q form the F_q line
        assert p.evaluate(f.add(a, b)) == f.add(p.evaluate(a), p.evaluate(b))
        assert p.evaluate(f.mul(c, a)) == f.mul(c, p.evaluate(a))
    assert QPoly.monomial(f, 0).evaluate(7) == 7
    assert QPoly.monomial(f, 1).evaluate(7) == f.frobenius(7, 1)


def test_compose_matches_pointwise():
    f = get_field(2, 1, 4)
    rng = RngStream(7)
    for _ in range(40):
        p, q = rand_qpoly(f, rng), rand_qpoly(f, rng)
        comp = p.compose(q)
        for _ in range(6):
            x = rand_elt(f, rng)
            assert comp.evaluate(x) == p.evaluate(q.evaluate(x))


def test_add_sub_reject_another_field():
    # zip over the coefficient tuples used to truncate the longer one
    f16, f64 = get_field(2, 1, 4), get_field(2, 1, 6)
    a, b = QPoly(f16, [1, 2, 3, 4]), QPoly(f64, [5, 6, 7, 8, 9, 10])
    for x, y in ((a, b), (b, a)):
        with pytest.raises(ValueError, match="field"):
            x + y
        with pytest.raises(ValueError, match="field"):
            x - y
    # the same tower without tables is another field object
    raw = ExtField(f16.base, 4, f16.modulus, use_tables=False)
    with pytest.raises(ValueError, match="field"):
        a + QPoly(raw, a.coeffs)


def test_compose_monomial_agrees_with_compose():
    f = get_field(3, 1, 3)
    rng = RngStream(9)
    for s in range(6):
        p = rand_qpoly(f, rng)
        assert p.compose_monomial(s) == p.compose(QPoly.monomial(f, s))


def test_compose_associative_noncommutative():
    f = get_field(2, 1, 6)
    rng = RngStream(11)
    for _ in range(25):
        a, b, c = (rand_qpoly(f, rng) for _ in range(3))
        assert a.compose(b).compose(c) == a.compose(b.compose(c))
        assert a.compose(b + c) == a.compose(b) + a.compose(c)


def test_left_divide_exact_reconstruction():
    f = get_field(2, 1, 8)
    rng = RngStream(13)
    for _ in range(60):
        dl = rng.randbelow(f.n)
        lead = rand_unit(f, rng)
        div = QPoly(f, [rand_elt(f, rng) for _ in range(dl)] + [lead])
        dq = rng.randbelow(f.n - dl)
        quot = QPoly(f, [rand_elt(f, rng) for _ in range(dq)] + [rand_unit(f, rng)])
        rem = QPoly(f, [rand_elt(f, rng) for _ in range(dl)])
        a = div.compose(quot) + rem
        got_q, got_r = a.left_divide(div)
        assert (got_q, got_r) == (quot, rem)


def test_left_divide_identity_random():
    f = get_field(3, 1, 5)
    rng = RngStream(15)
    for _ in range(60):
        a = rand_qpoly(f, rng)
        div = rand_nonzero_qpoly(f, rng)
        quot, rem = a.left_divide(div)
        assert div.compose(quot) + rem == a
        assert rem.q_degree < div.q_degree
    with pytest.raises(ZeroDivisionError):
        a.left_divide(QPoly.zero(f))


def _rand_of_degree(f, d, rng) -> QPoly:
    """A q-polynomial of q-degree exactly d (zeros above d)."""
    return QPoly(f, [rand_elt(f, rng) for _ in range(d)] + [rand_unit(f, rng)])


@pytest.mark.parametrize("p,e,n", [(2, 1, 8), (3, 1, 5), (3, 2, 3), (5, 1, 4), (2, 2, 5)])
def test_compose_left_divide_tables_vs_raw(p, e, n):
    # the log-domain kernels of a table field against the mul/frobenius
    # loops of the same field without tables
    tabled = get_field(p, e, n)
    raw = ExtField(tabled.base, n, use_tables=False)
    assert tabled.modulus == raw.modulus and raw._exp is None

    def on_raw(poly):
        return QPoly(raw, poly.coeffs)

    rng = RngStream(17)
    for trial in range(200):
        a, b = rand_qpoly(tabled, rng), rand_qpoly(tabled, rng)
        assert a.compose(b).coeffs == on_raw(a).compose(on_raw(b)).coeffs
        dl = rng.randbelow(n)
        kind = trial % 3
        if kind == 0:    # random, zeros above its q-degree
            div = _rand_of_degree(tabled, dl, rng)
        elif kind == 1:  # monomial
            div = QPoly.monomial(tabled, dl, rand_unit(tabled, rng))
        else:            # a is an exact multiple div o c
            div = _rand_of_degree(tabled, dl, rng)
            c = _rand_of_degree(tabled, rng.randbelow(n - dl), rng)
            a = div.compose(c)
        quot, rem = a.left_divide(div)
        raw_quot, raw_rem = on_raw(a).left_divide(on_raw(div))
        assert (quot.coeffs, rem.coeffs) == (raw_quot.coeffs, raw_rem.coeffs)
        assert a == div.compose(quot) + rem
        assert rem.q_degree < div.q_degree == dl
        if kind == 2:
            assert rem.is_zero() and quot == c
    # a right operand reads its cached rows from its second composition on:
    # two right operands interleaved, with zero coefficients (one all zero),
    # each composed with left operands of every q-degree 0..n-1
    for trial in range(10):
        rights = [QPoly(tabled, [rand_elt(tabled, rng) if rng.randbelow(2) else 0
                                 for _ in range(n)]) for _ in range(2)]
        if trial == 0:
            rights[1] = QPoly.zero(tabled)
        for d in range(n):
            for right in rights:
                left = _rand_of_degree(tabled, d, rng)
                assert (left.compose(right).coeffs
                        == on_raw(left).compose(on_raw(right)).coeffs)
        assert rights[0]._rows[n - 1] is not None


@pytest.mark.parametrize("p,e,n", [(2, 1, 6), (3, 1, 4), (3, 1, 6), (2, 2, 3)])
def test_evaluate_adjoint_rank_tables_vs_raw(p, e, n):
    # the log-domain adjoint, basis images and rank against the mul/frobenius
    # loops of the same field without tables and the rank of endo_matrix;
    # evaluate against the same loop on both fields; self-adjointness under
    # the setup's twist against the symmetry of matrix_of, which shares no
    # code with adjoint; (2,2,3) has q = 4, where the F_2 rank on packed
    # images must not fire
    st = get_setup(p, e, n)
    tabled = st.field
    raw = ExtField(tabled.base, n, tabled.modulus, use_tables=False)
    assert raw._exp is None

    def on_raw(poly):
        return QPoly(raw, poly.coeffs)

    rng = RngStream(23)
    twists = [select_twist(tabled), rand_unit(tabled, rng)]
    assert st.u == twists[0]
    if (p, n) == (3, 6):
        assert twists[0] != tabled.one
    outcomes = set()
    for trial in range(60):
        r = trial % (n + 1)
        polys = [rand_qpoly(tabled, rng), random_selfadjoint_qpoly(r, st, rng)]
        assert qpoly_rank(polys[1]) == r == endo_matrix(polys[1]).rank()
        # a self-adjoint polynomial with one coefficient moved, at each
        # position in turn
        moved = list(polys[1].coeffs)
        moved[trial % n] = tabled.add(moved[trial % n], rand_unit(tabled, rng))
        polys.append(QPoly(tabled, moved))
        for poly in polys:
            assert qpoly_rank(poly) == endo_matrix(poly).rank() \
                == qpoly_rank(on_raw(poly))
            for x in (0, rand_elt(tabled, rng), rand_unit(tabled, rng)):
                assert poly.evaluate(x) == on_raw(poly).evaluate(x)
            images = [on_raw(poly).evaluate(tabled.q**j) for j in range(n)]
            assert _basis_images(poly) == images == _basis_images(on_raw(poly))
            for u in twists:
                adj = poly.adjoint(u)
                assert adj.coeffs == on_raw(poly).adjoint(u).coeffs
                want = poly == adj
                assert poly.is_self_adjoint(u) == want
                assert on_raw(poly).is_self_adjoint(u) == want
                outcomes.add(want)
            assert (poly.is_self_adjoint(st.u)
                    == matrix_of(poly, st).is_symmetric())
        assert polys[1].is_self_adjoint(st.u)
    assert outcomes == {True, False}
    for poly in (QPoly.monomial(tabled, 0), QPoly.monomial(raw, 0)):
        with pytest.raises(ValueError):
            poly.is_self_adjoint(0)


@pytest.mark.parametrize("p,e,n", [(2, 1, 4), (3, 1, 4), (3, 1, 3)])
def test_adjoint_monomials(p, e, n):
    f = get_field(p, e, n)
    u = select_twist(f)
    rng = RngStream(17)
    for i in range(n):
        a = rand_unit(f, rng)
        adj = QPoly.monomial(f, i, a).adjoint(u)
        j = (n - i) % n
        coef = f.mul(f.frobenius(f.mul(a, u), j), f.inv(u))
        assert adj == QPoly.monomial(f, j, coef)
    # degree-0 terms are fixed for any twist
    a = rand_unit(f, rng)
    assert QPoly(f, [a]).adjoint(u) == QPoly(f, [a])


def test_adjoint_untwisted_example():
    f = get_field(2, 1, 4)
    assert QPoly.monomial(f, 1).adjoint(1) == QPoly.monomial(f, 3)
    assert QPoly.monomial(f, 2).adjoint(1) == QPoly.monomial(f, 2)


def test_adjoint_defining_property():
    for p, e, n in [(2, 1, 4), (3, 1, 4)]:
        f = get_field(p, e, n)
        u = select_twist(f)
        rng = RngStream(19)
        for _ in range(30):
            poly = rand_qpoly(f, rng)
            adj = poly.adjoint(u)
            for _ in range(10):
                a, b = rand_elt(f, rng), rand_elt(f, rng)
                assert trace_form(f, u, poly.evaluate(a), b) == \
                    trace_form(f, u, a, adj.evaluate(b))


def test_adjoint_involution_anticommutes():
    f = get_field(3, 1, 4)
    u = select_twist(f)
    rng = RngStream(21)
    for _ in range(50):
        p, q = rand_qpoly(f, rng), rand_qpoly(f, rng)
        assert p.adjoint(u).adjoint(u) == p
        assert p.compose(q).adjoint(u) == q.adjoint(u).compose(p.adjoint(u))
        assert (p + q).adjoint(u) == p.adjoint(u) + q.adjoint(u)


def test_adjoint_rejects_zero_twist():
    f = get_field(2, 1, 4)
    with pytest.raises(ValueError):
        QPoly.monomial(f, 0).adjoint(0)


def _span(field, vecs):
    out = {0}
    for v in vecs:
        add = [field.mul(c, v) for c in range(1, field.q)]
        out |= {field.add(w, m) for w in out for m in add}
    return out


def test_endo_matrix_rank_kernel():
    f = get_field(2, 1, 4)
    ident = QPoly.monomial(f, 0)
    assert qpoly_rank(ident) == 4
    assert endo_matrix(ident) == matrix_of(ident, get_setup(2, 1, 4))
    frob_minus_id = QPoly(f, [f.neg(1), 1])
    assert qpoly_rank(frob_minus_id) == 3
    kern = [f.from_coeffs(v) for v in endo_matrix(frob_minus_id).kernel()]
    assert _span(f, kern) == set(range(f.q))  # constants
    rng = RngStream(31)
    for _ in range(200):
        p = rand_nonzero_qpoly(f, rng)
        assert f.n - qpoly_rank(p) <= p.q_degree


def test_matrix_of_is_ring_iso():
    st = get_setup(3, 1, 3)
    f = st.field
    rng = RngStream(33)
    assert matrix_of(QPoly.monomial(f, 0), st) == Matrix.identity(f.base, 3)
    for _ in range(30):
        p, q = rand_qpoly(f, rng), rand_qpoly(f, rng)
        assert matrix_of(p + q, st) == matrix_of(p, st) + matrix_of(q, st)
        assert matrix_of(p.compose(q), st) == matrix_of(p, st) @ matrix_of(q, st)
        assert matrix_of(p, st).rank() == qpoly_rank(p)
        if not p.is_zero():
            assert not matrix_of(p, st).is_zero()


def test_matrix_to_qpoly_roundtrip():
    # q even, q and n odd (u = 1), q odd with n even (u a norm non-square)
    for p, e, n in [(2, 1, 4), (2, 1, 6), (3, 1, 5), (3, 1, 4)]:
        st = get_setup(p, e, n)
        f = st.field
        rng = RngStream(35)
        for _ in range(100):
            m = random_matrix(f.base, n, n, rng)
            poly = matrix_to_qpoly(m, st)
            assert matrix_of(poly, st) == m
            assert matrix_to_qpoly(matrix_of(poly, st), st) == poly
        assert matrix_to_qpoly(Matrix.identity(f.base, n), st) == QPoly.monomial(f, 0)


@pytest.mark.parametrize("p,e,n,tables", [
    (2, 1, 4, True), (3, 1, 3, True), (2, 2, 3, True), (3, 2, 2, True),
    (2, 1, 5, False)])
def test_trace_sum_pointwise(p, e, n, tables):
    # x -> sum_j a_j Tr(b_j x) at every element, zero a_j and b_j included,
    # on the field's own trace only.  (3, 2, 2) sums by Zech logs; a field
    # with tables also matches the loop of its table-free copy
    f = get_field(p, e, n)
    raw = ExtField(f.base, n, use_tables=False)
    assert raw.modulus == f.modulus and raw._exp is None
    if not tables:
        f = raw
    rng = RngStream(43)
    for terms in range(4):
        avec = [0, rand_unit(f, rng)] + [rand_elt(f, rng) for _ in range(terms)]
        bvec = [rand_unit(f, rng), 0] + [rand_elt(f, rng) for _ in range(terms)]
        poly = trace_sum(f, avec, bvec)
        for x in range(f.order):
            want = f.zero
            for a, b in zip(avec, bvec):
                want = f.add(want, f.mul(a, f.trace(f.mul(b, x))))
            assert poly.evaluate(x) == want
        assert poly.coeffs == trace_sum(raw, avec, bvec).coeffs
    assert trace_sum(f, [], []).is_zero()
    # a term without its partner is refused, not dropped
    a1, a2, b1 = (rand_unit(f, rng) for _ in range(3))
    for avec, bvec in (([a1, a2], [b1]), ([a1], [b1, a2]), ([], [b1])):
        with pytest.raises(ValueError):
            trace_sum(f, avec, bvec)


def test_qpoly_json_roundtrip():
    f = get_field(3, 1, 4)
    rng = RngStream(37)
    p = rand_qpoly(f, rng)
    assert QPoly.from_json(f, p.to_json()) == p
